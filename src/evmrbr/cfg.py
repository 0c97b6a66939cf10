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

# Abstract value: a known 256-bit constant, or None for "anything".
AbstractValue = Optional[int]

UNRESOLVED = "?"

_WORD = (1 << 256) - 1


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
    def byte_size(self) -> int:
        return sum(i.size for i in self.instrs)


@dataclass
class Cfg:
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
    prev_terminates = False
    for ins in instrs:
        if prev_terminates or ins.mnemonic == "JUMPDEST":
            leaders.add(ins.offset)
        prev_terminates = ins.opcode.is_terminator
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
    last = group[-1]
    end_pc = last.offset + last.size
    term: Terminator
    if last.mnemonic == "JUMP":
        term = Jump(UNRESOLVED)
    elif last.mnemonic == "JUMPI":
        term = JumpI(UNRESOLVED, str(end_pc))
    elif last.opcode.halts:
        term = Halt()
    else:
        term = FallThrough(str(end_pc))
    return Block(id=str(start), start_pc=start, instrs=group, terminator=term)


def _to_signed(x: int) -> int:
    return x - (1 << 256) if x >= (1 << 255) else x


def _div(a: int, b: int) -> int:
    return 0 if b == 0 else a // b


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    a, b = _to_signed(a), _to_signed(b)
    return (abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1)) & _WORD


def _mod(a: int, b: int) -> int:
    return 0 if b == 0 else a % b


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    a, b = _to_signed(a), _to_signed(b)
    return (abs(a) % abs(b) * (-1 if a < 0 else 1)) & _WORD


def _byte(i: int, x: int) -> int:
    return (x >> (8 * (31 - i))) & 0xFF if i < 32 else 0


def _signextend(b: int, x: int) -> int:
    if b >= 31:
        return x
    bit = 8 * b + 7
    if x & (1 << bit):
        return x | (_WORD ^ ((1 << (bit + 1)) - 1))
    return x & ((1 << (bit + 1)) - 1)


# Constant folding over popped operands, top of stack first.  Wrap-around
# 256-bit semantics: jump targets must be bit-exact.
_FOLD = {
    "ADD": lambda a, b: (a + b) & _WORD,
    "MUL": lambda a, b: (a * b) & _WORD,
    "SUB": lambda a, b: (a - b) & _WORD,
    "DIV": _div,
    "SDIV": _sdiv,
    "MOD": _mod,
    "SMOD": _smod,
    "ADDMOD": lambda a, b, n: 0 if n == 0 else (a + b) % n,
    "MULMOD": lambda a, b, n: 0 if n == 0 else (a * b) % n,
    "EXP": lambda a, b: pow(a, b, 1 << 256),
    "SIGNEXTEND": _signextend,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "SLT": lambda a, b: int(_to_signed(a) < _to_signed(b)),
    "SGT": lambda a, b: int(_to_signed(a) > _to_signed(b)),
    "EQ": lambda a, b: int(a == b),
    "ISZERO": lambda a: int(a == 0),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ _WORD,
    "BYTE": _byte,
    "SHL": lambda a, b: (b << a) & _WORD if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "SAR": lambda a, b: (_to_signed(b) >> min(a, 255)) & _WORD,
}


class _Variant:
    """One context-specialized copy of an original block."""

    __slots__ = ("pc", "index", "entry", "consts", "exit", "cont", "fault", "succ")

    def __init__(self, pc: int, index: int, entry: tuple[AbstractValue, ...]):
        self.pc = pc
        self.index = index
        self.entry = entry
        self.consts: list[tuple[AbstractValue, ...]] = []
        self.exit: tuple[AbstractValue, ...] = ()
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
    for ins in block.instrs:
        op = ins.opcode
        if len(stack) < op.delta:
            raise _Underflow(ins.offset)
        popped = tuple(stack[-1 - k] for k in range(op.delta))
        consts.append(popped)
        if op.is_push:
            stack.append(ins.immediate)
        elif op.is_dup:
            stack.append(stack[-op.pair_index])
        elif op.is_swap:
            n = op.pair_index
            stack[-1], stack[-1 - n] = stack[-1 - n], stack[-1]
        elif op.mnemonic == "PC":
            stack.append(ins.offset)
        elif op.mnemonic in ("JUMP", "JUMPI"):
            # Leave the operands for the caller; a terminator is last.
            break
        else:
            del stack[len(stack) - op.delta :]
            fold = _FOLD.get(op.mnemonic)
            if fold is not None:
                value = None if any(v is None for v in popped) else fold(*popped)
                stack.append(value)
            else:
                stack.extend([None] * op.alpha)
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
            fall_pc = block.start_pc + block.byte_size
            if fall_pc not in by_pc:
                return ("halt-unres", "fall target off code end"), after
            reason = _check_jump_target(by_pc, target)
            if reason:
                return ("jumpi-unres", reason, fall_pc), after
            return ("jumpi", target, fall_pc), after
        if isinstance(term, FallThrough):
            next_pc = block.start_pc + block.byte_size
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
        var.exit = exit_stack
        var.cont = cont
        if cont[0] in ("halt-unres",):
            unresolved.append(((pc, var.index), cont[1]))
        if cont[0] == "jumpi-unres":
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
    if block.instrs[0].mnemonic != "JUMPDEST":
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
