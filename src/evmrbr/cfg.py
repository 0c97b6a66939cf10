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
from dataclasses import dataclass, field
from typing import Optional, Union

from .asm import Instruction
from .opcodes import BY_NAME, KINDS, for_byte

# Abstract value: a known 256-bit constant, or None for "anything".
AbstractValue = Optional[int]

UNRESOLVED = "?"

_JUMPDEST = BY_NAME["JUMPDEST"].code


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


@dataclass
class Block:
    """A maximal straight-line instruction sequence.

    ``entry_height`` is the stack height on entry, known only after
    resolution (None for dead blocks).  ``const_operands`` holds, aligned
    with ``instrs``, a tuple with the constant value of each popped operand
    (or None per operand) as seen by the resolver.
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

    @property
    def byte_size(self) -> int:
        return self.end_pc - self.start_pc


@dataclass
class Cfg:
    """Resolved blocks by id, the entry id, and the unresolved jumps.

    Each ``unresolved`` record is (block id, reason), except that a
    clone-cap record names the refused pc, which need not be an id in
    ``blocks``: a block cloned to the cap has ids ``<pc>_c0`` onwards.
    """

    blocks: dict[str, Block]
    entry: str | None
    unresolved: list[tuple[str, str]] = field(default_factory=list)

    def live_blocks(self) -> list[Block]:
        """Live blocks in ascending id order."""
        return [
            self.blocks[bid]
            for bid in sorted(self.blocks, key=id_sort_key)
            if not self.blocks[bid].dead
        ]


def id_sort_key(block_id: str) -> tuple[int, int]:
    """Numeric ordering for block ids: by start PC, then clone index."""
    pc, _, suffix = block_id.partition("_c")
    return int(pc), int(suffix) if suffix else -1


def block_leaders(instrs: list[Instruction]) -> set[int]:
    """Offsets that start a basic block: the first instruction, every
    JUMPDEST, and every instruction following a terminator."""
    leaders = {instrs[0].offset} if instrs else set()
    ends_block = _ENDS_BLOCK
    prev_terminates = False
    for offset, op, _ in instrs:
        code = op.code
        if prev_terminates or code == _JUMPDEST:
            leaders.add(offset)
        prev_terminates = ends_block[code]
    return leaders


def split_blocks(instrs: list[Instruction]) -> list[Block]:
    """Split an instruction stream into blocks with unresolved terminators."""
    if not instrs:
        return []
    leaders = block_leaders(instrs)
    blocks = []
    group: list[Instruction] = []
    for ins in instrs:
        if group and ins.offset in leaders:
            blocks.append(_make_block(group))
            group = []
        group.append(ins)
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
    ("fold", op.delta, arg) if kind == "word"
    else (kind, op.delta, arg) if kind in ("push", "pc", "dup", "swap", "jump", "jumpi")
    else ("opaque", op.delta, (None,) * op.alpha)
    for op, (kind, arg) in zip(map(for_byte, range(256)), KINDS)
]
_ENDS_BLOCK = [for_byte(b).is_terminator for b in range(256)]


class _Variant:
    """One context-specialized copy of an original block."""

    __slots__ = ("pc", "index", "entry", "consts", "cont", "fault", "succ")

    def __init__(self, pc: int, index: int, entry: tuple[AbstractValue, ...]):
        self.pc = pc
        self.index = index
        self.entry = entry
        self.consts: list[tuple[AbstractValue, ...]] = []
        # cont: ("jump", pc) | ("jumpi", pc, pc) | ("jumpi-unres", reason, pc)
        #     | ("fall", pc) | ("halt",) | ("halt-unres", reason) | ("fault", reason)
        self.cont: tuple = ("halt",)
        self.fault: str | None = None
        self.succ: dict[str, tuple[int, int] | None] = {}


def _join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    return a if a == b else None


def _join_stacks(
    a: tuple[AbstractValue, ...], b: tuple[AbstractValue, ...]
) -> tuple[AbstractValue, ...]:
    return tuple(_join(x, y) for x, y in zip(a, b))


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
        popped = tuple(stack[-1 : -delta - 1 : -1])
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


def resolve_cfg(blocks: list[Block], clone_cap: int = 32) -> Cfg:
    """Resolve jump targets into a Cfg, cloning context-dependent blocks.

    Never raises: jumps that cannot be resolved (unknown target, target not
    a JUMPDEST, clone cap exceeded, abstract stack underflow) are listed in
    ``Cfg.unresolved`` and the offending edge is dropped.
    """
    if not blocks:
        return Cfg(blocks={}, entry=None)

    by_pc = {b.start_pc: b for b in blocks}
    variants: dict[int, list[_Variant]] = {}
    unresolved: list[tuple[tuple[int, int] | int, str]] = []
    entry_pc = blocks[0].start_pc

    def continuation(block: Block, exit_stack) -> tuple[tuple, tuple]:
        """Map the block terminator to a resolved continuation plus the
        exit stack handed to successors."""
        term = block.terminator
        if isinstance(term, Jump):
            target = exit_stack[-1] if exit_stack else None
            reason = _check_jump_target(by_pc, target)
            if reason:
                return ("halt-unres", reason), exit_stack[:-1]
            return ("jump", target), exit_stack[:-1]
        if isinstance(term, JumpI):
            target = exit_stack[-1] if exit_stack else None
            after = exit_stack[:-2]
            fall_pc = block.end_pc
            if fall_pc not in by_pc:
                return ("halt-unres", "fall target off code end"), after
            reason = _check_jump_target(by_pc, target)
            if reason:
                return ("jumpi-unres", reason, fall_pc), after
            return ("jumpi", target, fall_pc), after
        if isinstance(term, FallThrough):
            next_pc = block.end_pc
            if next_pc not in by_pc:
                # Running off the end of code halts (implicit STOP).
                return ("halt",), exit_stack
            return ("fall", next_pc), exit_stack
        return ("halt",), exit_stack

    def process(pc: int, entry: tuple, pred) -> None:
        block = by_pc[pc]
        try:
            consts, exit_stack = _simulate(block, entry)
        except _Underflow as uf:
            entry_fault(pc, entry, pred, f"stack underflow at offset {uf.offset}")
            return
        cont, succ_stack = continuation(block, exit_stack)
        sig = (len(entry), cont)

        existing = None
        for var in variants.setdefault(pc, []):
            if (len(var.entry), var.cont) == sig:
                existing = var
                break
        if existing is not None:
            if pred is not None:
                pred[0].succ[pred[1]] = (pc, existing.index)
            joined = _join_stacks(existing.entry, entry)
            if joined == existing.entry:
                return
            existing.entry = joined
            consts, exit_stack = _simulate(block, joined)
            cont, succ_stack = continuation(block, exit_stack)
            if cont != existing.cont:
                # Joining contexts lost the target; flag and cut the edge.
                cont, succ_stack = ("halt-unres", "target lost when joining contexts"), ()
            var = existing
        else:
            if len(variants[pc]) >= clone_cap:
                unresolved.append((pc, f"clone cap {clone_cap} exceeded"))
                if pred is not None:
                    pred[0].succ[pred[1]] = None
                return
            var = _Variant(pc, len(variants[pc]), entry)
            variants[pc].append(var)
            if pred is not None:
                pred[0].succ[pred[1]] = (pc, var.index)

        var.consts = consts
        var.cont = cont
        if cont[0] in ("halt-unres", "jumpi-unres"):
            unresolved.append(((pc, var.index), cont[1]))

        if cont[0] == "jump":
            work.append((cont[1], succ_stack, (var, "jump")))
        elif cont[0] == "jumpi":
            work.append((cont[1], succ_stack, (var, "taken")))
            work.append((cont[2], succ_stack, (var, "fall")))
        elif cont[0] == "jumpi-unres":
            work.append((cont[2], succ_stack, (var, "fall")))
        elif cont[0] == "fall":
            work.append((cont[1], succ_stack, (var, "fall")))

    def entry_fault(pc, entry, pred, reason):
        for var in variants.setdefault(pc, []):
            if var.fault == reason and len(var.entry) == len(entry):
                if pred is not None:
                    pred[0].succ[pred[1]] = (pc, var.index)
                return
        var = _Variant(pc, len(variants[pc]), entry)
        var.fault = reason
        var.cont = ("fault", reason)
        variants[pc].append(var)
        unresolved.append(((pc, var.index), reason))
        if pred is not None:
            pred[0].succ[pred[1]] = (pc, var.index)

    work: deque = deque([(entry_pc, (), None)])
    while work:
        pc, entry, pred = work.popleft()
        process(pc, entry, pred)

    return _build_cfg(by_pc, variants, unresolved, entry_pc)


def _check_jump_target(by_pc, target: AbstractValue) -> str | None:
    if target is None:
        return "jump target unknown"
    block = by_pc.get(target)
    if block is None:
        return f"jump target {target} is not a block start"
    if block.instrs[0].opcode.code != _JUMPDEST:
        return f"jump target {target} is not a JUMPDEST"
    return None


def _build_cfg(by_pc, variants, unresolved, entry_pc) -> Cfg:
    ids: dict[tuple[int, int], str] = {}
    for pc, vars_ in variants.items():
        for var in vars_:
            ids[(pc, var.index)] = (
                str(pc) if len(vars_) == 1 else f"{pc}_c{var.index}"
            )

    def succ_id(var: _Variant, role: str) -> str | None:
        key = var.succ.get(role)
        return ids[key] if key is not None else None

    blocks_out: dict[str, Block] = {}
    extra_unresolved: list[tuple[str, str]] = []
    for pc in sorted(by_pc):
        src = by_pc[pc]
        for var in variants.get(pc, []):
            bid = ids[(pc, var.index)]
            term: Terminator = Halt()
            dead = False
            if var.fault is not None:
                dead = True
            elif var.cont[0] == "jump":
                tgt = succ_id(var, "jump")
                if tgt is None:
                    extra_unresolved.append((bid, "jump target dropped"))
                else:
                    term = Jump(tgt)
            elif var.cont[0] == "jumpi":
                taken, fall = succ_id(var, "taken"), succ_id(var, "fall")
                if taken is not None and fall is not None:
                    term = JumpI(taken, fall)
                elif fall is not None:
                    extra_unresolved.append((bid, "branch target dropped"))
                    term = FallThrough(fall)
                else:
                    extra_unresolved.append((bid, "branch targets dropped"))
            elif var.cont[0] == "jumpi-unres":
                fall = succ_id(var, "fall")
                if fall is not None:
                    term = FallThrough(fall)
            elif var.cont[0] == "fall":
                tgt = succ_id(var, "fall")
                if tgt is None:
                    extra_unresolved.append((bid, "fall target dropped"))
                else:
                    term = FallThrough(tgt)
            blocks_out[bid] = Block(
                id=bid,
                start_pc=pc,
                instrs=list(src.instrs),
                terminator=term,
                entry_height=len(var.entry),
                dead=dead,
                const_operands=list(var.consts) if not dead else None,
            )
        if pc not in variants:
            blocks_out[str(pc)] = Block(
                id=str(pc),
                start_pc=pc,
                instrs=list(src.instrs),
                terminator=Halt(),
                entry_height=None,
                dead=True,
            )

    resolved_unres = [
        (ids[key] if isinstance(key, tuple) else str(key), reason)
        for key, reason in unresolved
    ] + extra_unresolved
    seen = set()
    unique_unres = []
    for item in resolved_unres:
        if item not in seen:
            seen.add(item)
            unique_unres.append(item)

    entry_id = ids.get((entry_pc, 0))
    ordered = {
        bid: blocks_out[bid] for bid in sorted(blocks_out, key=id_sort_key)
    }
    return Cfg(blocks=ordered, entry=entry_id, unresolved=unique_unres)


def emit_dot(cfg: Cfg) -> str:
    """Render the Cfg as a Graphviz digraph with deterministic ordering."""
    lines = ["digraph cfg {", "  node [shape=box];"]
    order = sorted(cfg.blocks, key=id_sort_key)
    for bid in order:
        block = cfg.blocks[bid]
        title = bid + (" (dead)" if block.dead else "")
        label = "\\l".join([title] + [str(i) for i in block.instrs]) + "\\l"
        style = ", style=dashed" if block.dead else ""
        lines.append(f'  "{bid}" [label="{label}"{style}];')
    for bid in order:
        term = cfg.blocks[bid].terminator
        if isinstance(term, Jump):
            lines.append(f'  "{bid}" -> "{term.target}" [label="jump"];')
        elif isinstance(term, JumpI):
            lines.append(f'  "{bid}" -> "{term.taken}" [label="true"];')
            lines.append(f'  "{bid}" -> "{term.fallthrough}" [label="false"];')
        elif isinstance(term, FallThrough):
            lines.append(f'  "{bid}" -> "{term.target}" [label="fall"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
