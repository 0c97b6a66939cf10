"""Basic-block recovery and jump-target resolution.

The instruction stream is split at leaders (offset 0, every JUMPDEST, and
every instruction following a terminator), then a worklist pass interprets
the program over an abstract stack of constants to resolve JUMP/JUMPI
targets.  A block reached from contexts that disagree on entry stack height
or on the resolved continuation is cloned once per context (ids ``<pc>_c<n>``),
so that after resolution every block has a single entry height and fixed
successors.

The same pass records, per instruction, which popped operands are compile
time constants; the translator uses those annotations to classify memory
addresses, storage keys and calldata offsets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .asm import Instruction
from .opcodes import JUMPDEST, KINDS, for_byte
from .rbr import id_sort_key

# Abstract value: a known 256-bit constant, or None for "anything".
AbstractValue = Optional[int]

UNRESOLVED = "?"

# The most variants ``resolve_cfg`` makes of one block, unless told otherwise.
CLONE_CAP = 32


@dataclass(frozen=True)
class Jump:
    target: str


@dataclass(frozen=True)
class JumpI:
    taken: str
    fallthrough: str


@dataclass(frozen=True)
class FallThrough:
    target: str


@dataclass(frozen=True)
class Halt:
    pass


Terminator = Union[Jump, JumpI, FallThrough, Halt]


def successors(term: Terminator) -> tuple[str, ...]:
    """The ids a terminator leads to, the taken branch first."""
    if isinstance(term, JumpI):
        return (term.taken, term.fallthrough)
    if isinstance(term, (Jump, FallThrough)):
        return (term.target,)
    return ()


@dataclass
class Block:
    """A maximal straight-line instruction sequence.

    ``entry_height`` is the stack height on entry, known only after
    resolution (None for a block that no context reached).  ``const_operands``
    holds, aligned with ``instrs``, a tuple with the constant value of each
    popped operand (or None per operand) as seen by the resolver, and is
    None for a dead block.

    A block is dead when no chain of resolved edges reaches it from the
    entry, or when its entry stack underflows.  A variant that a join left
    unreachable keeps its id, entry height and terminator, and is dead.
    """

    id: str
    start_pc: int
    instrs: list[Instruction]
    terminator: Terminator
    entry_height: int | None = None
    dead: bool = False
    const_operands: list[tuple[AbstractValue, ...]] | None = None

    @property
    def end_pc(self) -> int:
        """Offset just past the last instruction."""
        offset, op, _ = self.instrs[-1]
        return offset + 1 + op.immediate_len


@dataclass
class Cfg:
    """Resolved blocks by id, the entry id, and the unresolved jumps.

    ``blocks`` is in ``id_sort_key`` order (by pc, then variant index), as
    ``resolve_cfg`` builds it; every reader takes that order as given.
    Each ``unresolved`` record is (block id, reason), in the order found,
    with one of the 11 reasons listed in ``resolve_cfg``.  One id can carry
    two records.  A clone-cap record names the refused pc, which need not
    be an id in ``blocks``: a block cloned to the cap has ids ``<pc>_c0``
    onwards.
    """

    blocks: dict[str, Block]
    entry: str | None
    unresolved: list[tuple[str, str]] = field(default_factory=list)

    def live_blocks(self) -> list[Block]:
        """Live blocks in ``blocks`` order, which is ascending id order."""
        return [block for block in self.blocks.values() if not block.dead]


def split_blocks(instrs: list[Instruction]) -> list[Block]:
    """Split an instruction stream into blocks with unresolved terminators.

    One pass: a block starts at offset 0, at every JUMPDEST and after every
    terminator, and these starts are the block leaders.  The concrete
    oracle cuts its runs at the same leaders on its own.
    """
    blocks = []
    ends_block = _ENDS_BLOCK
    group: list[Instruction] = []
    for ins in instrs:
        code = ins[1].code
        if code == JUMPDEST and group:
            blocks.append(_make_block(group))
            group = []
        group.append(ins)
        if ends_block[code]:
            blocks.append(_make_block(group))
            group = []
    if group:
        blocks.append(_make_block(group))
    return blocks


def _make_block(group: list[Instruction]) -> Block:
    start = group[0].offset
    offset, op, _ = group[-1]
    end_pc = offset + 1 + op.immediate_len
    kind = _EFFECTS[op.code][0]
    term: Terminator
    if kind == "jump":
        term = Jump(UNRESOLVED)
    elif kind == "jumpi":
        term = JumpI(UNRESOLVED, str(end_pc))
    elif _ENDS_BLOCK[op.code]:
        term = Halt()
    else:
        term = FallThrough(str(end_pc))
    return Block(id=str(start), start_pc=start, instrs=group, terminator=term)


# Opcode byte -> abstract-stack kind, operand count and argument: the N of
# DUPN/SWAPN, the fold function of a word operation, or for every opcode
# the resolver does not track the tuple of unknowns it pushes.  This and
# whether the opcode ends a block are built once, so the per-instruction
# passes read no Opcode property.
_EFFECTS = [
    ("fold", op.delta, arg[0]) if kind == "word"
    else (kind, op.delta, arg) if kind in ("push", "pc", "dup", "swap", "jump", "jumpi")
    else ("opaque", op.delta, (None,) * op.alpha)
    for op, (kind, arg) in zip(map(for_byte, range(256)), KINDS)
]
_ENDS_BLOCK = [for_byte(b).is_terminator for b in range(256)]


class _Variant:
    """One context-specialized copy of an original block."""

    __slots__ = ("index", "entry", "consts", "cont", "succ", "reached")

    def __init__(self, index: int, entry: tuple[AbstractValue, ...]):
        self.index = index
        self.entry = entry
        # consts: per instruction, or None when the entry stack underflows.
        self.consts: list[tuple[AbstractValue, ...]] | None = None
        # cont: (terminator class, successor pcs, unresolved reason or None);
        # an unresolved JUMPI is (FallThrough, (fall pc,), reason) and a
        # stack underflow (Halt, (), reason).
        self.cont: tuple = (Halt, (), None)
        # succ: per pc of cont, the successor variant, or None where the
        # clone cap refused it.  A visit queues its edges with a new list
        # that each appends to once, in order: the worklist is first in,
        # first out.
        self.succ: list[_Variant | None] | None = []
        # reached: a chain of resolved edges leads here from the entry.
        self.reached = False


def _join_stacks(
    a: tuple[AbstractValue, ...], b: tuple[AbstractValue, ...]
) -> tuple[AbstractValue, ...]:
    return tuple(x if x == y else None for x, y in zip(a, b))


def _simulate(block: Block, entry: tuple[AbstractValue, ...]):
    """Run the block over the abstract stack.

    Returns (consts per instruction, exit stack) or raises _Underflow.  The
    exit stack still contains the operands of a trailing JUMP/JUMPI; the
    caller pops them.
    """
    stack = list(entry)
    consts: list[tuple[AbstractValue, ...]] = []
    effects = _EFFECTS
    for offset, op, immediate in block.instrs:
        kind, delta, arg = effects[op.code]
        if len(stack) < delta:
            raise _Underflow(offset)
        popped = tuple(stack[-1 : -delta - 1 : -1]) if delta else ()
        consts.append(popped)
        if kind == "push":
            stack.append(immediate)
        elif kind == "fold":
            del stack[-delta:]
            stack.append(None if None in popped else arg(*popped))
        elif kind == "dup":
            stack.append(stack[-arg])
        elif kind == "swap":
            stack[-1], stack[-1 - arg] = stack[-1 - arg], stack[-1]
        elif kind == "opaque":
            del stack[len(stack) - delta :]
            stack += arg
        elif kind == "pc":
            stack.append(offset)
        else:
            # JUMP/JUMPI: leave the operands for the caller; a terminator is last.
            break
    return consts, tuple(stack)


class _Underflow(Exception):
    def __init__(self, offset: int):
        self.offset = offset


def resolve_cfg(blocks: list[Block], clone_cap: int = CLONE_CAP) -> Cfg:
    """Resolve jump targets into a Cfg, cloning context-dependent blocks.

    A jump that cannot be resolved raises nothing: it is listed in
    ``Cfg.unresolved`` with its reason, and the offending edge is dropped.
    A variant that no chain of resolved edges reaches from the entry (one
    built from a context that a later join replaced) is dead; it keeps its
    id and its records.
    The reasons are:

    - ``jump target unknown``: the target is not a constant;
    - ``jump target N is not a block start``;
    - ``jump target N is not a JUMPDEST``;
    - ``fall target off code end``: a JUMPI is the last instruction;
    - ``stack underflow at offset N``: the block is dead in this context;
    - ``target lost when joining contexts``: two entry stacks that resolved
      alike no longer do once joined, so the block halts;
    - ``clone cap N exceeded``: a block already has ``clone_cap`` variants,
      so the edge into a new one is refused;
    - ``jump target dropped``, ``branch target dropped``, ``branch targets
      dropped`` and ``fall target dropped``: a resolved edge whose
      successor the clone cap refused; a branch that keeps only its fall
      edge becomes a FallThrough, and an unresolved branch whose fall edge
      is refused halts with ``fall target dropped``.

    Raises ValueError if ``clone_cap`` is below 1.
    """
    if clone_cap < 1:
        raise ValueError(f"clone cap must be at least 1, not {clone_cap}")
    if not blocks:
        return Cfg(blocks={}, entry=None)

    by_pc = {b.start_pc: b for b in blocks}
    variants: dict[int, list[_Variant]] = {}
    # (variant, or the refused pc for a clone-cap record; reason), in the
    # order first found.
    unresolved: dict[tuple[_Variant | str, str], None] = {}
    # (pc, entry stack) -> continuation(); the worklist reaches many blocks
    # again from an entry it has simulated before.
    simulated: dict[tuple[int, tuple], tuple] = {}
    # (pc, entry height, continuation) -> the one variant of pc that a new
    # entry with that height and continuation joins.
    matching: dict[tuple[int, int, tuple], _Variant] = {}

    def continuation(block: Block, entry: tuple) -> tuple:
        """``_continuation`` once per (block, entry stack) of this call."""
        key = (block.start_pc, entry)
        found = simulated.get(key)
        if found is None:
            found = simulated[key] = _continuation(block, entry)
        return found

    def _continuation(block: Block, entry: tuple) -> tuple:
        """Simulate the block from ``entry``: (consts, the resolved
        continuation, the exit stack handed to successors).  An entry stack
        that underflows gives no consts and a halt with its reason."""
        try:
            consts, exit_stack = _simulate(block, entry)
        except _Underflow as uf:
            return None, (Halt, (), f"stack underflow at offset {uf.offset}"), ()
        term = block.terminator
        if isinstance(term, Jump):
            target = exit_stack[-1] if exit_stack else None
            reason = _check_jump_target(by_pc, target)
            cont = (Halt, (), reason) if reason else (Jump, (target,), None)
            return consts, cont, exit_stack[:-1]
        if isinstance(term, JumpI):
            target = exit_stack[-1] if exit_stack else None
            fall_pc = block.end_pc
            if fall_pc not in by_pc:
                return consts, (Halt, (), "fall target off code end"), exit_stack[:-2]
            reason = _check_jump_target(by_pc, target)
            cont = (FallThrough, (fall_pc,), reason) if reason else (JumpI, (target, fall_pc), None)
            return consts, cont, exit_stack[:-2]
        if isinstance(term, FallThrough) and block.end_pc in by_pc:
            return consts, (FallThrough, (block.end_pc,), None), exit_stack
        # A halt, or running off the end of code (implicit STOP).
        return consts, (Halt, (), None), exit_stack

    def process(pc: int, entry: tuple, pred: list[_Variant | None]) -> None:
        block = by_pc[pc]
        consts, cont, succ_stack = continuation(block, entry)
        sig = (pc, len(entry), cont)
        var = matching.get(sig)
        if var is not None:
            pred.append(var)
            joined = _join_stacks(var.entry, entry)
            # A fault variant is never joined: its fault needs only the height.
            if consts is None or joined == var.entry:
                return
            var.entry = joined
            consts, cont, succ_stack = continuation(block, joined)
            if cont != var.cont:
                # Joining contexts lost the target; flag and cut the edge.
                del matching[sig]
                cont, succ_stack = (Halt, (), "target lost when joining contexts"), ()
        else:
            vars_ = variants.setdefault(pc, [])
            # A fault variant is dead code, so the clone cap does not count it.
            if len(vars_) >= clone_cap and consts is not None:
                unresolved[(str(pc), f"clone cap {clone_cap} exceeded")] = None
                pred.append(None)
                return
            var = matching[sig] = _Variant(len(vars_), entry)
            vars_.append(var)
            pred.append(var)

        var.consts = consts
        var.cont = cont
        _, pcs, reason = cont
        if reason:
            unresolved[(var, reason)] = None
        var.succ = succ = []
        for target in pcs:
            work.append((target, succ_stack, succ))

    # The entry edge comes from no block.
    entry_edge: list = []
    work: deque = deque([(blocks[0].start_pc, (), entry_edge)])
    while work:
        process(*work.popleft())

    # Mark the variants a chain of resolved edges reaches from the entry.
    entry_var = entry_edge[0]
    entry_var.reached = True
    stack = [entry_var]
    while stack:
        for var in stack.pop().succ:
            if var is not None and not var.reached:
                var.reached = True
                stack.append(var)
    return _build_cfg(by_pc, variants, unresolved, entry_var)


def _check_jump_target(by_pc, target: AbstractValue) -> str | None:
    if target is None:
        return "jump target unknown"
    block = by_pc.get(target)
    if block is None:
        return f"jump target {target} is not a block start"
    if block.instrs[0].opcode.code != JUMPDEST:
        return f"jump target {target} is not a JUMPDEST"
    return None


def _build_cfg(by_pc, variants, unresolved, entry) -> Cfg:
    """Name the variants, read (and cut) their successor links, mark dead
    those not reached, and add a "dropped" record for each resolved edge
    whose successor the clone cap refused."""
    ids = {
        var: str(pc) if len(vars_) == 1 else f"{pc}_c{var.index}"
        for pc, vars_ in variants.items()
        for var in vars_
    }

    # Blocks in id_sort_key order: by pc, then variant index.
    blocks_out: dict[str, Block] = {}
    for pc in sorted(by_pc):
        src = by_pc[pc]
        for var in variants.get(pc, []):
            kind = var.cont[0]
            targets = list(map(ids.get, var.succ))
            # The variants of a loop link to each other; cutting the links
            # once read lets reference counting free them.
            var.succ = None
            term: Terminator = Halt()
            if None not in targets:
                term = kind(*targets)
            elif targets[-1] is not None:
                # Only a branch can lose one edge and keep another.
                unresolved[(var, "branch target dropped")] = None
                term = FallThrough(targets[-1])
            else:
                unresolved[(var, _DROPPED[kind])] = None
            bid = ids[var]
            dead = var.consts is None or not var.reached
            blocks_out[bid] = Block(
                id=bid,
                start_pc=pc,
                instrs=list(src.instrs),
                terminator=term,
                entry_height=len(var.entry),
                dead=dead,
                # A copy: the simulation memo can hand one list to two variants.
                const_operands=None if dead else list(var.consts),
            )
        if pc not in variants:
            blocks_out[src.id] = replace(src, instrs=list(src.instrs), terminator=Halt(), dead=True)

    # A clone-cap record already names its pc.
    records = [(ids.get(key, key), reason) for key, reason in unresolved]
    return Cfg(blocks=blocks_out, entry=ids[entry], unresolved=records)


# The record of a resolved edge whose successor the clone cap refused.
_DROPPED = {
    Jump: "jump target dropped", JumpI: "branch targets dropped", FallThrough: "fall target dropped"
}

# The label of each successor edge in the DOT output, in successors() order.
_DOT_LABELS = {Jump: ("jump",), JumpI: ("true", "false"), FallThrough: ("fall",), Halt: ()}


def emit_dot(cfg: Cfg) -> str:
    """Render the Cfg as a Graphviz digraph, nodes and edges in ``blocks`` order."""
    lines = ["digraph cfg {", "  node [shape=box];"]
    for bid, block in cfg.blocks.items():
        title = bid + (" (dead)" if block.dead else "")
        label = "\\l".join([title] + [str(i) for i in block.instrs]) + "\\l"
        style = ", style=dashed" if block.dead else ""
        lines.append(f'  "{bid}" [label="{label}"{style}];')
    for bid, block in cfg.blocks.items():
        term = block.terminator
        for target, label in zip(successors(term), _DOT_LABELS[type(term)]):
            lines.append(f'  "{bid}" -> "{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
