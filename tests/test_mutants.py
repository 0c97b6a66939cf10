"""Decompiling mutated programs: rules that parse back, or a clean error.

A 1-3 byte edit can turn a small constant into a wide one (a PUSH1 becoming
a PUSH32 takes the next 32 bytes as its immediate).  When that constant is
a storage key, the field family must not grow with it.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from progen import gen_program

from evmrbr import decompile, disassemble, emit_rbr, parse_rbr
from evmrbr.errors import EvmRbrError
from evmrbr.translate import FIELD_KEY_BOUND

# Characters of text per byte of code.  Clone-heavy mutants (a loop whose
# stack grows per pass is cloned up to 32 times) measured up to about 3,700.
TEXT_PER_CODE_BYTE = 64 * FIELD_KEY_BOUND

# Opcodes that change most when written over another: PUSH1/PUSH2/PUSH32,
# SLOAD/SSTORE, JUMP/JUMPI and JUMPDEST.
_TELLING_BYTES = (0x60, 0x61, 0x7F, 0x54, 0x55, 0x56, 0x57, 0x5B)

# Each edit overwrites the opcode of one instruction, picked by its index.
_edits = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.one_of(st.sampled_from(_TELLING_BYTES), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), edits=_edits)
# seed 0's first SSTORE key, PUSH1 1, becomes PUSH2 0x0155 (it takes the
# SSTORE byte along) and the next instruction becomes the SSTORE
@example(seed=0, edits=[(18, 0x61), (20, 0x55)])
def test_mutant_round_trips_or_fails_cleanly(seed, edits):
    program = gen_program(random.Random(seed))
    starts = [ins.offset for ins in disassemble(program)]
    code = bytearray(program)
    for which, byte in edits:
        code[starts[which % len(starts)]] = byte
    try:
        rules = decompile(bytes(code))
        text = emit_rbr(rules)
    except EvmRbrError:
        return
    if rules:
        assert rules[0].layout.k < FIELD_KEY_BOUND
    assert len(text) < TEXT_PER_CODE_BYTE * len(code)
    assert parse_rbr(text) == rules
