"""Translation of resolved blocks into guarded rules.

Each live block becomes one rule (three for conditional jumps: the block
rule plus a complementary guarded pair).  The operand stack is flattened
into variables ``s0..sn`` with the top at index ``m``; ``m = -1`` encodes
the empty stack, so the entry block takes no stack parameters.

Instruction effects:

* PUSH/DUP/SWAP/POP and arithmetic map to assignments over stack slots.
* Storage and memory accesses with a constant key/address read or write
  the matching ``g``/``l`` variable; non-constant ones record the address
  in a rule-local variable (``gl``/``ll`` for loads, ``gs*``/``ls*`` for
  stores) and lose the value to a ``fresh_*`` variable.
* Environment reads push the named blockchain variable; constant-offset
  calldata reads push the matching ``md*`` variable.
* Anything else (hashing, calls, ...) consumes its operands and produces
  ``fresh_*`` values.

A block is translated up to one tail index.  The tail of a JUMP or JUMPI
is the jump itself, the push of its resolved target just before it, and,
for a JUMPI whose target was pushed there, the guard window before that
push: one comparison followed by ISZEROs, or ISZEROs alone.  The tail is
not materialized.  The window becomes the guard pair of the ``jump_``
rules; with an empty window, or a target that was not pushed there, the
pair tests the raw condition against zero.  A target that was not pushed
there reached the stack earlier and is dropped from it.  With
``nops=True`` every consumed bytecode, tail included, leaves a
``nop(MNEMONIC)`` marker so a cost analysis can still see the original
instructions.

Statements are immutable, so rule bodies may share them: one
``translate_cfg`` call builds the statements of a PUSH, DUP, SWAP, POP,
JUMPDEST, arithmetic, bit operation or environment read once per (opcode,
stack top, immediate), and those of an SLOAD, SSTORE, MLOAD, MSTORE or
CALLDATALOAD that draws no ``fresh_*`` variable once per (opcode, stack
top, constant key, address or offset), and puts the same objects in every
rule that needs them.  ``tau`` itself returns new statements on every
call, except that every ``nop`` marker of one opcode is one object.
"""

from __future__ import annotations

import logging

from .cfg import Block, Cfg, Jump, JumpI, id_sort_key, successors
from .errors import EvmRbrError, StackUnderflow
from .opcodes import KINDS, Record, for_byte
from .rbr import (
    Assign,
    BinOp,
    BitOp,
    Call,
    Guard,
    Nop,
    Not,
    Num,
    Rule,
    Statement,
    Var,
    VarLayout,
)

log = logging.getLogger(__name__)

# Constant storage keys below this bound become fields g0..g<key>; the
# family is dense, so a larger key (a hashed slot, say) would make every
# rule carry that many parameters.
FIELD_KEY_BOUND = 256

# Opcode byte -> (kind, argument) of the translation: the table's, except
# that a word operation takes its rule form, or is opaque without one.
_KINDS = [(arg[1] or ("opaque", None)) if kind == "word" else (kind, arg) for kind, arg in KINDS]
# Opcode byte -> how one translation call shares its statements: 0, built
# per occurrence; 1, once per (opcode, stack top, immediate), for statements
# that depend on nothing else (no popped constant, layout, offset or fresh
# draw); 2, once per (opcode, stack top, the resolver's constant for the first
# popped operand: the storage key, memory address or calldata offset), unless
# they draw a fresh variable.
_SHARING = [
    1 if kind in ("push", "dup", "swap", "pop", "jumpdest", "env", "calldatasize", "arith", "functor")
    else 2 if kind in ("sload", "sstore", "mload", "mstore", "calldataload")
    else 0
    for kind, _ in _KINDS
]
# Opcode byte -> the variable family its instruction adds to the layout, or
# None: memory addresses, storage keys, calldata offsets, or named reads.
_FAMILIES = [
    {"mstore": "l", "mload": "l", "sstore": "g", "sload": "g", "calldataload": "md",
     "env": "named", "calldatasize": "named"}.get(kind)
    for kind, _ in _KINDS
]
# Opcode byte -> its nop marker, shared by every rule that leaves one.
_NOPS = [Nop(for_byte(code).mnemonic) for code in range(256)]
# The terminators whose first successor is the target their JUMP or JUMPI
# popped; a FallThrough that ends in a JUMPI lost that target.
_JUMPS = frozenset({Jump, JumpI})


class UnsupportedGuard(EvmRbrError):
    """The instruction window before a conditional jump matches no guard
    pattern; the caller falls back to value semantics."""


class TranslationState(Record):
    """Mutable cursor while translating one rule.

    ``m`` is the index of the stack top (-1 = empty).  ``consts`` holds the
    resolver's per-offset constant views of popped operands; only the public
    ``tau`` reads it.
    """

    __slots__ = __match_args__ = ("m", "block_id", "fresh_counter", "nops", "consts")

    def __init__(
        self,
        m: int,
        block_id: str = "?",
        fresh_counter: int = 0,
        nops: bool = False,
        consts: dict[int, tuple] | None = None,
    ):
        self.m = m
        self.block_id = block_id
        self.fresh_counter = fresh_counter
        self.nops = nops
        self.consts = {} if consts is None else consts

    def fresh(self) -> Var:
        var = Var(f"fresh_{self.fresh_counter}")
        self.fresh_counter += 1
        return var


def _s(i: int) -> str:
    return f"s{i}"


def build_layout(cfg: Cfg) -> VarLayout:
    """Collect the variable families used by the live blocks.

    Memory addresses register in first-seen order over blocks in ascending
    id order; calldata offsets are ranked ascending; environment names are
    sorted, so the layout is deterministic.  The ``g`` family is dense up
    to the highest constant storage key, so keys at or above
    ``FIELD_KEY_BOUND`` are left out of it and their accesses translate as
    non-constant ones.
    """
    k = -1
    wide_keys: set[int] = set()
    lmap: dict[int, int] = {}
    md: set[int] = set()
    named: set[str] = set()
    for block in cfg.live_blocks():
        for ins, popped in zip(block.instrs, block.const_operands or []):
            family = _FAMILIES[ins.opcode.code]
            if family is None:
                continue
            if family == "l":
                addr = popped[0]
                if addr is not None and addr not in lmap:
                    lmap[addr] = len(lmap)
            elif family == "g":
                key = popped[0]
                if key is not None:
                    if key < FIELD_KEY_BOUND:
                        if key > k:
                            k = key
                    else:
                        wide_keys.add(key)
            elif family == "md":
                if popped[0] is not None:
                    md.add(popped[0])
            else:
                named.add(_KINDS[ins.opcode.code][1])
    if wide_keys:
        log.warning(
            "%d constant storage key(s) at or above %d translated as non-constant",
            len(wide_keys),
            FIELD_KEY_BOUND,
        )
    return VarLayout(
        k=k,
        r=len(lmap) - 1,
        lmap=lmap,
        md_offsets=tuple(sorted(md)),
        md_count=len(md),
        named_bc=tuple(sorted(named)),
    )


def tau(instr, state: TranslationState, layout: VarLayout) -> list[Statement]:
    """Translate one instruction at the stack cursor ``state.m``, then move
    the cursor once by the opcode's stack effect, ``alpha - delta``."""
    popped = state.consts.get(instr.offset, (None,) * instr.opcode.delta)
    return _tau(instr, popped, state, layout)


def _tau(instr, popped: tuple, state: TranslationState, layout: VarLayout) -> list[Statement]:
    """``tau`` with the constant views of the popped operands given."""
    op = instr.opcode
    m = state.m
    if m + 1 < op.delta:
        raise StackUnderflow(state.block_id, instr.offset)

    stmts: list[Statement] = [_NOPS[op.code]] if state.nops else []
    kind, arg = _KINDS[op.code]
    if kind == "push":
        stmts.append(Assign(_s(m + 1), Num(instr.immediate)))
    elif kind == "pc":
        stmts.append(Assign(_s(m + 1), Num(instr.offset)))
    elif kind == "dup":
        stmts.append(Assign(_s(m + 1), Var(_s(m + 1 - arg))))
    elif kind == "swap":
        stmts += [
            Assign(_s(m + 1), Var(_s(m))),
            Assign(_s(m), Var(_s(m - arg))),
            Assign(_s(m - arg), Var(_s(m + 1))),
        ]
    elif kind == "arith":
        stmts.append(Assign(_s(m - 1), BinOp(arg, Var(_s(m)), Var(_s(m - 1)))))
    elif kind == "functor" and arg == "not":
        stmts.append(Assign(_s(m), Not(Var(_s(m)))))
    elif kind == "functor":
        stmts.append(Assign(_s(m - 1), BitOp(arg, Var(_s(m)), Var(_s(m - 1)))))
    elif kind == "sload":
        key = popped[0]
        if key is not None and key <= layout.k:
            stmts.append(Assign(_s(m), Var(f"g{key}")))
        else:
            stmts += [Assign("gl", Var(_s(m))), Assign(_s(m), state.fresh())]
    elif kind == "mload":
        addr = popped[0]
        if addr is not None and addr in layout.lmap:
            stmts.append(Assign(_s(m), Var(f"l{layout.lmap[addr]}")))
        else:
            stmts += [Assign("ll", Var(_s(m))), Assign(_s(m), state.fresh())]
    elif kind == "sstore":
        key = popped[0]
        if key is not None and key <= layout.k:
            stmts.append(Assign(f"g{key}", Var(_s(m - 1))))
        else:
            stmts += [Assign("gs1", Var(_s(m - 1))), Assign("gs2", Var(_s(m)))]
    elif kind == "mstore":
        addr = popped[0]
        if addr is not None and addr in layout.lmap:
            stmts.append(Assign(f"l{layout.lmap[addr]}", Var(_s(m - 1))))
        else:
            stmts += [Assign("ls1", Var(_s(m - 1))), Assign("ls2", Var(_s(m)))]
    elif kind == "calldataload":
        offset = popped[0]
        if offset is not None and offset in layout.md_offsets:
            idx = layout.md_offsets.index(offset)
            stmts.append(Assign(_s(m), Var(f"md{idx}")))
        else:
            stmts.append(Assign(_s(m), state.fresh()))
    elif kind in ("env", "calldatasize"):
        stmts.append(Assign(_s(m + 1), Var(arg)))
    elif kind == "memcopy":
        stmts += _havoc_memory(instr, popped, arg, state, layout)
    else:
        # Opaque effect (none for POP and JUMPDEST), or a comparison or ISZERO
        # outside a guard window: consume the operands, produce unknown results.
        stmts += [Assign(_s(m - op.delta + i), state.fresh()) for i in range(1, op.alpha + 1)]
    state.m = m + op.alpha - op.delta
    return stmts


def _havoc_memory(instr, popped, operands, state: TranslationState, layout: VarLayout):
    """Invalidate the local variables a copy-style write may touch;
    ``operands`` indexes its (destination, length) in ``popped``.  The word
    tracked at ``addr`` spans bytes ``[addr, addr + 32)``, so a write of
    nonzero length into any of them invalidates it."""
    dest_idx, len_idx = operands
    dest = popped[dest_idx]
    length = 1 if len_idx is None else popped[len_idx]
    if dest is None or length is None:
        log.warning(
            "memory effect of %s at offset %d not modeled (non-constant range)",
            instr.mnemonic,
            instr.offset,
        )
        return []
    stmts = []
    for addr in sorted(layout.lmap):
        if length and dest - 32 < addr < dest + length:
            stmts.append(Assign(f"l{layout.lmap[addr]}", state.fresh()))
    if not stmts:
        log.warning(
            "%s at offset %d writes outside the tracked memory words",
            instr.mnemonic,
            instr.offset,
        )
    return stmts


def tau_G(window, state: TranslationState) -> tuple[Guard, Guard]:
    """Translate a guard window into (taken, fallthrough) guards.

    Recognizes one comparison optionally followed by ISZEROs, or a bare
    ISZERO chain; every ISZERO swaps the pair.  Raises UnsupportedGuard on
    anything else (including an empty window).
    """
    m = state.m
    forms = [_KINDS[ins.opcode.code] for ins in window]
    compares = 1 if forms and forms[0][0] == "guard" else 0  # 1: a comparison opens it
    if not forms or any(kind != "negation" for kind, _ in forms[compares:]):
        raise UnsupportedGuard(f"window {[i.mnemonic for i in window]}")
    if m < compares:
        raise StackUnderflow(state.block_id, window[0].offset)
    rhs = Var(_s(m - 1)) if compares else Num(0)
    taken = Guard(forms[0][1] if compares else "neq", Var(_s(m)), rhs)
    if (len(forms) - compares) % 2:
        taken = taken.negated()
    state.m -= 1 + compares
    return taken, taken.negated()


def translate_block(block: Block, layout: VarLayout, *, nops: bool = False) -> list[Rule]:
    """Apply the translation to one live block (1 rule, or 3 for JumpI)."""
    return _translate_block(block, layout, nops, {})


def _translate_block(
    block: Block, layout: VarLayout, nops: bool, shared: dict[tuple, tuple[list[Statement], int]]
) -> list[Rule]:
    """``translate_block`` that takes the statements of an instruction that
    ``_SHARING`` marks from ``shared``, keyed by (opcode byte, stack top,
    immediate) or (opcode byte, stack top, constant first operand), and
    stores them there on a miss that drew no fresh variable; ``shared``
    serves one ``nops`` setting.  The constant operands of each instruction
    come from ``block.const_operands`` by position.  A hit needs no
    underflow check: an equal stack top passed it when the entry was
    stored."""
    if block.entry_height is None:
        raise ValueError(f"block {block.id} has no entry height (dead?)")
    state = TranslationState(m=block.entry_height - 1, block_id=block.id, nops=nops)
    instrs = block.instrs
    succ = successors(block.terminator)
    name = f"block_{block.id}"
    height = block.entry_height

    # instrs[end:] is the tail left as nop markers: the jump, the push of
    # its target just before it, and a JUMPI's guard window before that.
    end = len(instrs)
    carried = False  # the jump target reached the stack earlier
    window = None
    if type(block.terminator) in _JUMPS:
        target_pc = id_sort_key(succ[0])[0]
        end -= 1
        if end and instrs[end - 1].immediate == target_pc:  # only a PUSH has one
            end -= 1
            if len(succ) == 2:
                start = end
                while start and _KINDS[instrs[start - 1].opcode.code][0] == "negation":
                    start -= 1
                if start and _KINDS[instrs[start - 1].opcode.code][0] == "guard":
                    start -= 1
                window, end = instrs[start:end], start
        else:
            carried = True
    consts = block.const_operands or ()
    if len(consts) < end:  # a block built by hand: operands not given are unknown
        consts = [*consts, *((None,) * ins.opcode.delta for ins in instrs[len(consts):end])]
    body: list[Statement] = []
    m = state.m
    for ins, popped in zip(instrs[:end], consts):
        code = ins.opcode.code
        sharing = _SHARING[code]
        if sharing == 1:
            key = (code, m, ins.immediate)
        elif sharing:
            key = (code, m, popped[0])
        else:
            state.m = m
            body.extend(_tau(ins, popped, state, layout))
            m = state.m
            continue
        hit = shared.get(key)
        if hit is None:
            state.m = m
            drawn = state.fresh_counter
            stmts = _tau(ins, popped, state, layout)
            if state.fresh_counter != drawn:
                body.extend(stmts)  # a fresh draw belongs to this rule alone
                m = state.m
                continue
            hit = shared[key] = (stmts, state.m)
        body.extend(hit[0])
        m = hit[1]
    state.m = m
    if carried:
        state.m -= 1  # drop the target
    if nops:
        body.extend(_NOPS[ins.opcode.code] for ins in instrs[end:])

    if len(succ) < 2:
        cont = Call(f"block_{succ[0]}", state.m + 1) if succ else None
        return [Rule(name, height, layout, None, body, cont)]

    # The jump_ pair takes everything live when the block rule hands over,
    # the guard operands on top.
    jump_name = f"jump_{block.id}"
    hand_over = state.m + 1
    if window:
        taken_guard, fall_guard = tau_G(window, state)
    else:
        # Condition is a plain value: guard directly on it being nonzero.
        if state.m < 0:
            raise StackUnderflow(block.id, instrs[-1].offset)
        taken_guard = Guard("neq", Var(_s(state.m)), Num(0))
        fall_guard = taken_guard.negated()
        state.m -= 1
        log.warning("block %s: no guard pattern, testing the raw condition", block.id)
    after = state.m + 1
    return [
        Rule(name, height, layout, None, body, Call(jump_name, hand_over)),
        Rule(jump_name, hand_over, layout, taken_guard, [], Call(f"block_{succ[0]}", after)),
        Rule(jump_name, hand_over, layout, fall_guard, [], Call(f"block_{succ[1]}", after)),
    ]


def call_graph(cfg: Cfg) -> dict[str, set[str]]:
    """The rule call graph of ``translate_cfg(cfg)``, read off the resolved
    CFG with no statement built: each rule name to the rule names its
    continuations call, as ``loops.rule_call_graph`` gives it.  A live block
    with one successor or none calls ``block_<successor>`` or nothing; one
    with two calls ``jump_<id>``, which calls both successors."""
    graph: dict[str, set[str]] = {}
    for block in cfg.live_blocks():
        succ = [f"block_{bid}" for bid in successors(block.terminator)]
        if len(succ) < 2:
            graph[f"block_{block.id}"] = set(succ)
        else:
            jump_name = f"jump_{block.id}"
            graph[f"block_{block.id}"] = {jump_name}
            graph[jump_name] = set(succ)
    return graph


def translate_cfg(cfg: Cfg, *, nops: bool = False) -> list[Rule]:
    """Translate every live block, sharing one variable layout and one
    statement memo (see ``_SHARING``)."""
    layout = build_layout(cfg)
    shared: dict[tuple, tuple[list[Statement], int]] = {}
    rules: list[Rule] = []
    for block in cfg.live_blocks():
        rules.extend(_translate_block(block, layout, nops, shared))
    return rules
