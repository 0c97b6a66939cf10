"""Concrete interpreter fixtures (hand-evaluated, then locked)."""

import pytest

from corpus import ADD_STORE, COUNTER_LOOP, TWO_CALLER_CLONE

from evmrbr.asm import disassemble
from evmrbr.errors import EvmFault, StepLimitExceeded, UnsupportedOpcode
from evmrbr.evm_exec import _decode, run_evm


def test_add_store_program():
    state, trace = run_evm(ADD_STORE)
    assert state.halted
    assert state.storage == {0: 9}
    assert state.stack == []
    assert trace == [0]


def test_stop_only():
    state, trace = run_evm(b"\x00")
    assert state.halted
    assert state.stack == []
    assert trace == [0]


def test_infinite_loop_hits_step_limit():
    with pytest.raises(StepLimitExceeded):
        run_evm(bytes.fromhex("5b600056"), step_limit=1000)


def test_counter_loop_result_and_trace():
    state, trace = run_evm(COUNTER_LOOP)
    assert state.storage == {0: 15}
    # entry, then 5 (head, body) rounds, a final head visit, and the exit
    assert trace == [0] + [4, 11] * 5 + [4, 23]


def test_two_caller_trace():
    _, trace = run_evm(TWO_CALLER_CLONE)
    assert trace == [0, 13, 5, 13, 11]


def test_calldata_load_and_size():
    # CALLDATALOAD at 0 with short calldata zero-pads on the right
    code = bytes.fromhex("60003560005500")
    state, _ = run_evm(code, calldata=b"\x01")
    assert state.storage[0] == 1 << 248
    code = bytes.fromhex("3660005500")  # CALLDATASIZE
    state, _ = run_evm(code, calldata=b"abc")
    assert state.storage[0] == 3


def test_env_reads_default_to_zero():
    state, _ = run_evm(bytes.fromhex("5a60005500"))  # GAS
    assert state.storage[0] == 0
    state, _ = run_evm(bytes.fromhex("5a60005500"), env={"gas": 41})
    assert state.storage[0] == 41


def test_memory_is_word_granular():
    # MSTORE at 64 then MLOAD at 64 and at 96
    code = bytes.fromhex("602a60405260405160005560605160015500")
    state, _ = run_evm(code)
    assert state.memory == {64: 42}
    assert state.storage == {0: 42, 1: 0}


def test_initial_storage_visible():
    code = bytes.fromhex("60005460015500")  # storage[1] = storage[0]
    state, _ = run_evm(code, storage={0: 77})
    assert state.storage == {0: 77, 1: 77}


def test_wraparound_add():
    # NOT 0 = 2**256-1, +1 wraps to 0
    code = bytes.fromhex("60001960010160005500")
    state, _ = run_evm(code)
    assert state.storage[0] == 0


def test_division_by_zero_yields_zero():
    code = bytes.fromhex("600060050460005500")  # 5 / 0
    state, _ = run_evm(code)
    assert state.storage[0] == 0
    code = bytes.fromhex("600060050660005500")  # 5 % 0
    state, _ = run_evm(code)
    assert state.storage[0] == 0


def test_invalid_jump_faults():
    with pytest.raises(EvmFault):
        run_evm(bytes.fromhex("600456600000"))


def test_stack_underflow_faults():
    with pytest.raises(EvmFault):
        run_evm(bytes.fromhex("01"))  # ADD on empty stack


def test_stack_overflow_faults():
    with pytest.raises(EvmFault):
        run_evm(bytes.fromhex("6000") * 1025)


def test_unsupported_opcode():
    with pytest.raises(UnsupportedOpcode):
        run_evm(bytes.fromhex("6000600020"))  # SHA3


def test_implicit_stop_running_off_the_end():
    state, trace = run_evm(bytes.fromhex("6005"))
    assert state.halted
    assert state.stack == [5]
    assert trace == [0]


def test_return_halts_after_popping():
    state, _ = run_evm(bytes.fromhex("60006000f3"))
    assert state.halted


def test_signed_comparison():
    # SLT on (NOT 0 = -1, 1): -1 < 1
    code = bytes.fromhex("6001600019" + "12" + "60005500")
    state, _ = run_evm(code)
    assert state.storage[0] == 1


def test_jumpi_to_non_jumpdest_faults_only_when_taken():
    # PUSH1 1, PUSH1 6, JUMPI, STOP, STOP, PUSH1 0: pc 6 is not a JUMPDEST
    with pytest.raises(EvmFault, match="invalid jump target 6"):
        run_evm(bytes.fromhex("600160065700006000"))
    state, trace = run_evm(bytes.fromhex("600060065700006000"))
    assert (state.pc, trace) == (5, [0, 5])


@pytest.mark.parametrize("hexstr", ["80", "600181", "90", "600190", "6001600291"])
def test_dup_and_swap_underflow_faults(hexstr):
    with pytest.raises(EvmFault, match="stack underflow"):
        run_evm(bytes.fromhex(hexstr))


def test_running_off_the_end_after_a_branch():
    # PUSH1 0, PUSH1 0, JUMPI: not taken, and no instruction follows
    state, trace = run_evm(bytes.fromhex("6000600057"))
    assert (state.halted, state.pc, state.stack, trace) == (True, 5, [], [0])


def test_step_limit_counts_every_instruction():
    code = bytes.fromhex("600160020100")  # PUSH1, PUSH1, ADD, STOP
    state, _ = run_evm(code, step_limit=4)
    assert state.stack == [3]
    with pytest.raises(StepLimitExceeded, match="no halt within 3 steps"):
        run_evm(code, step_limit=3)
    # the implicit STOP past the last instruction is not a step
    state, _ = run_evm(code[:-1], step_limit=3)
    assert (state.pc, state.stack) == (5, [3])


def test_decoded_table_has_one_entry_per_instruction():
    table, jumpdests = _decode(disassemble(bytes.fromhex("6003565b00")))
    assert table == [("push", 3, 2, True), None, ("jump", None, 3, False),
                     ("nop", None, 4, True), ("stop", None, 5, False)]
    assert jumpdests == {3}


def test_three_operand_arithmetic():
    # ADDMOD (9 + 4) % 5 into slot 0, MULMOD (9 * 4) % 5 into slot 1
    state, _ = run_evm(bytes.fromhex("600560046009086000556005600460090960015500"))
    assert state.storage == {0: 3, 1: 1}
    with pytest.raises(EvmFault, match="stack underflow"):
        run_evm(bytes.fromhex("6001600208"))
