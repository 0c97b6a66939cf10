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
from typing import Optional, Union

from .asm import Instruction
from .opcodes import JUMPDEST, KINDS, Opcode, Record, Value, for_byte
from .rbr import id_sort_key

# Abstract value: a known 256-bit constant, or None for "anything".
AbstractValue = Optional[int]

UNRESOLVED = "?"

# The most variants ``resolve_cfg`` makes of one block, unless told otherwise.
CLONE_CAP = 32


class Jump(Value):
    __slots__ = __match_args__ = ("target",)

    def __init__(self, target: str):
        object.__setattr__(self, "target", target)


class JumpI(Value):
    __slots__ = __match_args__ = ("taken", "fallthrough")

    def __init__(self, taken: str, fallthrough: str):
        object.__setattr__(self, "taken", taken)
        object.__setattr__(self, "fallthrough", fallthrough)


class FallThrough(Value):
    __slots__ = __match_args__ = ("target",)

    def __init__(self, target: str):
        object.__setattr__(self, "target", target)


class Halt(Value):
    __slots__ = ()


Terminator = Union[Jump, JumpI, FallThrough, Halt]


def successors(term: Terminator) -> tuple[str, ...]:
    """The ids a terminator leads to, the taken branch first."""
    if isinstance(term, JumpI):
        return (term.taken, term.fallthrough)
    if isinstance(term, (Jump, FallThrough)):
        return (term.target,)
    return ()


class Block(Record):
    """A maximal straight-line instruction sequence.

    ``entry_height`` is the stack height on entry, known only after
    resolution (None for a block that no context reached).  ``const_operands``
    holds, aligned with ``instrs``, a tuple with the constant value of each
    popped operand (or None per operand) as seen by the resolver, and is
    None for a dead block.

    A block is dead when no chain of resolved edges reaches it from the
    entry, or when its entry stack underflows.  A variant that a join left
    unreachable keeps its id, entry height and terminator, and is dead.
    Terminators are immutable, and one terminator object may be shared by
    several blocks.
    """

    __slots__ = __match_args__ = (
        "id", "start_pc", "instrs", "terminator", "entry_height", "dead", "const_operands"
    )

    def __init__(
        self,
        id: str,
        start_pc: int,
        instrs: list[Instruction],
        terminator: Terminator,
        entry_height: int | None = None,
        dead: bool = False,
        const_operands: list[tuple[AbstractValue, ...]] | None = None,
    ):
        self.id = id
        self.start_pc = start_pc
        self.instrs = instrs
        self.terminator = terminator
        self.entry_height = entry_height
        self.dead = dead
        self.const_operands = const_operands

    @property
    def end_pc(self) -> int:
        """Offset just past the last instruction."""
        offset, op, _ = self.instrs[-1]
        return offset + 1 + op.immediate_len


class Cfg(Record):
    """Resolved blocks by id, the entry id, and the unresolved jumps.

    ``blocks`` is in ``id_sort_key`` order (by pc, then variant index), as
    ``resolve_cfg`` builds it; every reader takes that order as given.
    Each ``unresolved`` record is (block id, reason), in the order found,
    with one of the 11 reasons listed in ``resolve_cfg``.  One id can carry
    two records.  A clone-cap record names the refused pc, which need not
    be an id in ``blocks``: a block cloned to the cap has ids ``<pc>_c0``
    onwards.
    """

    __slots__ = __match_args__ = ("blocks", "entry", "unresolved")

    def __init__(
        self,
        blocks: dict[str, Block],
        entry: str | None,
        unresolved: list[tuple[str, str]] | None = None,
    ):
        self.blocks = blocks
        self.entry = entry
        self.unresolved = [] if unresolved is None else unresolved

    def live_blocks(self) -> list[Block]:
        """Live blocks in ``blocks`` order, which is ascending id order."""
        return [block for block in self.blocks.values() if not block.dead]


def split_blocks(instrs: list[Instruction]) -> list[Block]:
    """Split an instruction stream into blocks with unresolved terminators.

    One pass: a block starts at offset 0, at every JUMPDEST and after every
    terminator, and these starts are the block leaders.  The concrete
    oracle cuts its runs at the same leaders on its own.  Terminators are
    immutable, so the blocks that end in a JUMP share one
    ``Jump(UNRESOLVED)`` and the halting blocks one ``Halt()``.
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
        if ends_block[code] is not None:
            blocks.append(_make_block(group))
            group = []
    if group:
        blocks.append(_make_block(group))
    return blocks


def _make_block(group: list[Instruction]) -> Block:
    start = group[0][0]
    offset, op, _ = group[-1]
    kind = _ENDS_BLOCK[op.code]
    term: Terminator
    if kind is Jump:
        term = _UNRESOLVED_JUMP
    elif kind is Halt:
        term = _HALT
    else:
        end_pc = str(offset + 1 + op.immediate_len)
        term = JumpI(UNRESOLVED, end_pc) if kind is JumpI else FallThrough(end_pc)
    return Block(str(start), start, group, term)


_UNRESOLVED_JUMP = Jump(UNRESOLVED)
_HALT = Halt()

# Opcode byte -> the class of the terminator that ends its block (Jump,
# JumpI or Halt), or None when the opcode does not end a block.
_ENDS_BLOCK = [
    Jump if kind == "jump" else JumpI if kind == "jumpi" else Halt if op.halts else None
    for op, (kind, _) in zip(map(for_byte, range(256)), KINDS)
]

# The steps of _simulate, in the order it tests for them: PUSH, which it
# knows by its immediate; a word operation of two operands, folded in place;
# a sink, which pops its operands and pushes nothing; a map, which turns the
# top item into an unknown; an environment read, which pushes an unknown;
# DUPN; SWAPN; a word operation of one or three operands; PC; any other
# opaque opcode; and JUMP or JUMPI, which end the run.  Opcodes the resolver
# does not track are sorted by stack effect alone.
_PUSH, _FOLD2, _SINK, _MAP, _READ, _DUP, _SWAP, _FOLD, _PC, _OPAQUE, _END = range(11)

_TRACKED = {"push": _PUSH, "pc": _PC, "dup": _DUP, "swap": _SWAP, "jump": _END, "jumpi": _END}


def _step(op: Opcode, kind: str, arg: object) -> tuple:
    """(step, operand count, argument) of one opcode: the N of DUPN and
    SWAPN, the fold function of a word operation, or the tuple of unknowns
    an opaque opcode pushes."""
    delta = op.delta
    if kind == "word":
        return (_FOLD2 if delta == 2 else _FOLD), delta, arg[0]
    if kind in _TRACKED:
        return _TRACKED[kind], delta, arg
    if op.alpha == 0:
        return _SINK, delta, None
    if op.alpha == 1 and delta < 2:
        return (_MAP if delta else _READ), delta, None
    return _OPAQUE, delta, (None,) * op.alpha


# Opcode byte -> its step, built once so that _simulate reads no Opcode
# property.
_STEPS = [_step(op, kind, arg) for op, (kind, arg) in zip(map(for_byte, range(256)), KINDS)]


class _Variant:
    """One context-specialized copy of an original block."""

    __slots__ = ("index", "entry", "consts", "cont", "succ", "reached", "id")

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
        # id: the block id, named once resolution ends.
        self.id = ""


def _join_stacks(
    a: tuple[AbstractValue, ...], b: tuple[AbstractValue, ...]
) -> tuple[AbstractValue, ...]:
    return tuple(x if x == y else None for x, y in zip(a, b))


def _simulate(block: Block, entry: tuple[AbstractValue, ...]):
    """Run the block over the abstract stack.

    Returns (consts per instruction, exit stack) or raises _Underflow.  The
    exit stack still contains the operands of a trailing JUMP/JUMPI; the
    caller pops them.

    One loop over the block, testing for the steps of ``_STEPS`` in the
    order of that table, most frequent first.  A PUSH, known by its
    immediate, comes before the table lookup and the underflow test, which
    it cannot fail; the popped operands (top of stack first) are read by
    index when there are one or two; a two-operand fold and a map overwrite
    the stack top in place.
    """
    stack = list(entry)
    push = stack.append
    consts: list[tuple[AbstractValue, ...]] = []
    record = consts.append
    steps = _STEPS
    for offset, op, immediate in block.instrs:
        if immediate is not None:
            # A PUSH, the one opcode with an immediate.
            record(())
            push(immediate)
            continue
        step, delta, arg = steps[op.code]
        height = len(stack)
        if height < delta:
            raise _Underflow(offset)
        if delta == 2:
            popped = (stack[-1], stack[-2])
        elif delta == 1:
            popped = (stack[-1],)
        elif delta:
            popped = tuple(stack[-1 : -delta - 1 : -1])
        else:
            popped = ()
        record(popped)
        if step == _FOLD2:
            a, b = popped
            del stack[-1]
            stack[-1] = None if a is None or b is None else arg(a, b)
        elif step == _SINK:
            del stack[height - delta :]
        elif step == _MAP:
            stack[-1] = None
        elif step == _READ:
            push(None)
        elif step == _DUP:
            push(stack[-arg])
        elif step == _SWAP:
            stack[-1], stack[-1 - arg] = stack[-1 - arg], stack[-1]
        elif step == _FOLD:
            del stack[height - delta :]
            push(None if None in popped else arg(*popped))
        elif step == _PC:
            push(offset)
        elif step == _OPAQUE:
            del stack[height - delta :]
            stack += arg
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
    jumpdests = {pc for pc, b in by_pc.items() if b.instrs[0][1].code == JUMPDEST}
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
        """Simulate the block from ``entry``: (consts, the resolved
        continuation, the exit stack handed to successors).  An entry stack
        that underflows gives no consts and a halt with its reason.  The
        worklist keeps each result in ``simulated``."""
        try:
            consts, exit_stack = _simulate(block, entry)
        except _Underflow as uf:
            return None, (Halt, (), f"stack underflow at offset {uf.offset}"), ()
        kind = type(block.terminator)
        if kind is JumpI:
            fall_pc = block.end_pc
            if fall_pc not in by_pc:
                return consts, (Halt, (), "fall target off code end"), exit_stack[:-2]
            target = exit_stack[-1] if exit_stack else None
            if target in jumpdests:
                return consts, (JumpI, (target, fall_pc), None), exit_stack[:-2]
            return consts, (FallThrough, (fall_pc,), _target_fault(by_pc, target)), exit_stack[:-2]
        if kind is Jump:
            target = exit_stack[-1] if exit_stack else None
            if target in jumpdests:
                return consts, (Jump, (target,), None), exit_stack[:-1]
            return consts, (Halt, (), _target_fault(by_pc, target)), exit_stack[:-1]
        if kind is FallThrough and block.end_pc in by_pc:
            return consts, (FallThrough, (block.end_pc,), None), exit_stack
        # A halt, or running off the end of code (implicit STOP).
        return consts, (Halt, (), None), exit_stack

    # The entry edge comes from no block.
    entry_edge: list = []
    work: deque = deque([(blocks[0].start_pc, (), entry_edge)])
    take = work.popleft
    queue = work.append
    while work:
        pc, entry, pred = take()
        key = (pc, entry)
        found = simulated.get(key)
        if found is None:
            found = simulated[key] = continuation(by_pc[pc], entry)
        consts, cont, succ_stack = found
        sig = (pc, len(entry), cont)
        var = matching.get(sig)
        if var is not None:
            pred.append(var)
            # A fault variant is never joined: its fault needs only the height.
            if consts is None or entry == var.entry:
                continue
            joined = _join_stacks(var.entry, entry)
            if joined == var.entry:
                continue
            var.entry = joined
            key = (pc, joined)
            found = simulated.get(key)
            if found is None:
                found = simulated[key] = continuation(by_pc[pc], joined)
            consts, cont, succ_stack = found
            if cont != var.cont:
                # Joining contexts lost the target; flag and cut the edge.
                del matching[sig]
                cont, succ_stack = (Halt, (), "target lost when joining contexts"), ()
        else:
            vars_ = variants.get(pc)
            if vars_ is None:
                vars_ = variants[pc] = []
            # A fault variant is dead code, so the clone cap does not count it.
            elif len(vars_) >= clone_cap and consts is not None:
                unresolved[(str(pc), f"clone cap {clone_cap} exceeded")] = None
                pred.append(None)
                continue
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
            queue((target, succ_stack, succ))

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


def _target_fault(by_pc, target: AbstractValue) -> str:
    """Why a jump target that is not a JUMPDEST block start is refused."""
    if target is None:
        return "jump target unknown"
    if target in by_pc:
        return f"jump target {target} is not a JUMPDEST"
    return f"jump target {target} is not a block start"


def _build_cfg(by_pc, variants, unresolved, entry) -> Cfg:
    """Name the variants, read (and cut) their successor links, mark dead
    those not reached, and add a "dropped" record for each resolved edge
    whose successor the clone cap refused.

    Ids first: a block's one variant is named by its pc, each of several by
    its pc and index.  Then one pass over the pcs in order builds each
    variant's terminator from its successors' ids and its Block, with
    positional arguments, and a dead Block for each pc no context reached.
    """
    for pc, vars_ in variants.items():
        if len(vars_) == 1:
            vars_[0].id = str(pc)
        else:
            for var in vars_:
                var.id = f"{pc}_c{var.index}"

    # Blocks in id_sort_key order: by pc, then variant index.
    blocks_out: dict[str, Block] = {}
    for pc in sorted(by_pc):
        src = by_pc[pc]
        vars_ = variants.get(pc)
        if vars_ is None:
            blocks_out[src.id] = Block(
                src.id, pc, list(src.instrs), _HALT, src.entry_height, True, src.const_operands
            )
            continue
        for var in vars_:
            kind = var.cont[0]
            targets = [None if succ is None else succ.id for succ in var.succ]
            # The variants of a loop link to each other; cutting the links
            # once read lets reference counting free them.
            var.succ = None
            term: Terminator = _HALT
            if None not in targets:
                term = kind(*targets) if targets else _HALT
            elif targets[-1] is not None:
                # Only a branch can lose one edge and keep another.
                unresolved[(var, "branch target dropped")] = None
                term = FallThrough(targets[-1])
            else:
                unresolved[(var, _DROPPED[kind])] = None
            dead = var.consts is None or not var.reached
            # A copy of consts: the simulation memo can hand one list to two
            # variants.
            blocks_out[var.id] = Block(
                var.id,
                pc,
                list(src.instrs),
                term,
                len(var.entry),
                dead,
                None if dead else list(var.consts),
            )

    # A clone-cap record already names its pc.
    records = [(key if type(key) is str else key.id, reason) for key, reason in unresolved]
    return Cfg(blocks=blocks_out, entry=entry.id, unresolved=records)


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
