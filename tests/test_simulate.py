"""The resolver's abstract stack against a reference built from the opcode table.

``cfg._simulate`` runs on its own per-opcode step table.  The reference
below reads only each opcode's stack effect (``delta`` and ``alpha``), the
word operations of ``opcodes.WORD_OPS`` and the rules of PUSH, DUP, SWAP and
PC, and runs one instruction at a time.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from evmrbr.asm import Instruction
from evmrbr.cfg import Block, Halt, _simulate, _Underflow
from evmrbr.opcodes import WORD, WORD_OPS, for_byte


def reference_simulate(instrs, entry):
    """(consts per instruction, exit stack), or ("underflow", offset)."""
    stack = list(entry)
    consts = []
    for offset, op, immediate in instrs:
        if len(stack) < op.delta:
            return "underflow", offset
        below = len(stack) - op.delta
        popped = tuple(reversed(stack[below:]))  # top of stack first
        consts.append(popped)
        if op.mnemonic in ("JUMP", "JUMPI"):
            break  # the operands stay for the caller
        del stack[below:]
        if op.is_push:
            pushed = [immediate]
        elif op.is_dup:
            pushed = [*reversed(popped), popped[-1]]
        elif op.is_swap:
            pushed = [popped[0], *reversed(popped[1:-1]), popped[-1]]
        elif op.mnemonic == "PC":
            pushed = [offset]
        elif op.mnemonic in WORD_OPS:
            pushed = [None if None in popped else WORD_OPS[op.mnemonic](*popped)]
        else:
            pushed = [None] * op.alpha
        assert len(pushed) == op.alpha
        stack += pushed
    return consts, tuple(stack)


_VALUES = st.one_of(st.none(), st.sampled_from([0, WORD]), st.integers(0, 40))


# An opcode byte and the value its immediate is cut from, if it has one.
_CODE = st.tuples(st.integers(0, 255), st.integers(0, WORD))
_PUSH = st.tuples(st.integers(0x60, 0x7F), st.integers(0, WORD))

# Where an opcode under test runs: the start offset, up to 20 PUSHes (their
# count drawn first, so that runs deep enough for DUP16 and SWAP16 come up)
# and up to two instructions of any byte value before it, the value of its
# own immediate, and up to two instructions after it.
_CONTEXTS = st.tuples(
    st.integers(0, 64),
    st.integers(0, 20).flatmap(lambda n: st.lists(_PUSH, min_size=n, max_size=n)),
    st.lists(_CODE, max_size=2),
    st.integers(0, WORD),
    st.lists(_CODE, max_size=2),
)


def _block(context, byte: int) -> Block:
    offset, pushes, before, value, after = context
    instrs = []
    for code, raw in [*pushes, *before, (byte, value), *after]:
        op = for_byte(code)
        width = op.immediate_len
        instrs.append(Instruction(offset, op, raw % (1 << 8 * width) if width else None))
        offset += 1 + width
    return Block(str(instrs[0].offset), instrs[0].offset, instrs, Halt())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(context=_CONTEXTS, entry=st.lists(_VALUES, max_size=4).map(tuple))
def test_simulate_matches_the_reference_stack(context, entry):
    # Every byte value runs in each drawn context.
    for byte in range(256):
        block = _block(context, byte)
        try:
            got = _simulate(block, entry)
        except _Underflow as uf:
            got = "underflow", uf.offset
        assert got == reference_simulate(block.instrs, entry), byte
