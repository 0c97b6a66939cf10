"""Concrete interpreter fixtures (hand-evaluated, then locked)."""

import hashlib
import random

import pytest

from corpus import ADD_STORE, CORPUS, COUNTER_LOOP, TWO_CALLER_CLONE
from helpers import block_fuzz_codes
from progen import gen_program

from evmrbr import asm, evm_exec
from evmrbr.asm import disassemble
from evmrbr.cfg import split_blocks
from evmrbr.diff import _ENV_NAMES, INPUT_BOUND
from evmrbr.errors import (
    EvmFault,
    EvmRbrError,
    StepLimitExceeded,
    UnsupportedOpcode,
)
from evmrbr.evm_exec import run_evm
from evmrbr.opcodes import JUMPDEST, for_byte


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


# PUSH1, DUP1, GAS, CALLDATASIZE and PC: each kind of opcode that grows the stack.
@pytest.mark.parametrize("grow", ["6000", "80", "5a", "36", "58"])
def test_each_pushing_opcode_checks_overflow(grow):
    code = bytes.fromhex("6000" + grow * 1023)
    state, _ = run_evm(code)
    assert len(state.stack) == 1024
    with pytest.raises(EvmFault, match="^stack overflow$"):
        run_evm(code + bytes.fromhex(grow))


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


@pytest.mark.parametrize("hexstr, target", [
    ("600456605b00", 4),  # PUSH1 4, JUMP, PUSH1 0x5b, STOP
    ("6001600657605b00", 6),  # PUSH1 1, PUSH1 6, JUMPI, PUSH1 0x5b, STOP
])
def test_jumpdest_byte_inside_push_data_is_no_target(hexstr, target):
    with pytest.raises(EvmFault, match=f"^invalid jump target {target}$"):
        run_evm(bytes.fromhex(hexstr))


def test_jumpi_falling_through_onto_a_jumpdest_records_it_once():
    # PUSH1 0, PUSH1 5, JUMPI (not taken), JUMPDEST, STOP
    state, trace = run_evm(bytes.fromhex("60006005575b00"))
    assert (trace, state.pc) == ([0, 5], 6)


def test_loop_head_at_offset_zero_is_recorded_on_every_entry():
    # 0: JUMPDEST; c = SLOAD(0); JUMPI to 19 if c == 0;
    # 9: SSTORE(0, c - 1); JUMP 0; 19: JUMPDEST, STOP
    code = bytes.fromhex("5b600054801560135760019003600055600056" "5b00")
    state, trace = run_evm(code, storage={0: 3})
    assert trace == [0, 9] * 3 + [0, 19]
    assert (state.storage, state.stack, state.pc) == ({0: 0}, [0], 20)


def test_three_operand_arithmetic():
    # ADDMOD (9 + 4) % 5 into slot 0, MULMOD (9 * 4) % 5 into slot 1
    state, _ = run_evm(bytes.fromhex("600560046009086000556005600460090960015500"))
    assert state.storage == {0: 3, 1: 1}
    with pytest.raises(EvmFault, match="stack underflow"):
        run_evm(bytes.fromhex("6001600208"))


# --- runs pinned before the oracle moved off its per-PC decode table ---


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_text(code: bytes, rng: random.Random) -> str:
    """One run of ``code`` on calldata, environment and storage drawn from
    ``rng``: its trace, storage, memory, stack and pc, or its error."""
    calldata = rng.randbytes(rng.choice((0, 4, 36, 128)))
    env = {name: rng.randrange(INPUT_BOUND) for name in _ENV_NAMES}
    storage = {i: rng.randrange(INPUT_BOUND) for i in range(6)}
    try:
        state, trace = run_evm(code, calldata, env, step_limit=20_000, storage=storage)
    except EvmRbrError as err:
        return f"{type(err).__name__}: {err}"
    return repr((trace, sorted(state.storage.items()), sorted(state.memory.items()),
                 state.stack, state.pc))


def _pinned_runs(code: bytes, seed: int) -> list[str]:
    """Five runs of ``code``, then one run of each of 25 mutants of it, each
    overwriting 1-3 bytes."""
    rng = random.Random(seed)
    runs = [_run_text(code, rng) for _ in range(5)]
    for _ in range(25):
        mutant = bytearray(code)
        for _ in range(rng.randint(1, 3)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        runs.append(_run_text(bytes(mutant), rng))
    return runs


def _pinned_programs() -> dict[str, tuple[bytes, int]]:
    """Program and seed of each pin: the corpus on seed 17, and 12-segment
    programs of five progen seeds on the program's seed."""
    programs = {name: (code, 17) for name, code in CORPUS.items()}
    for seed in (3, 11, 29, 47, 83):
        programs[f"progen_{seed}"] = (gen_program(random.Random(seed), 12), seed)
    return programs


# Digests of _pinned_runs on each of _pinned_programs.  The 13 entries whose
# mutants end inside a PUSH were recorded again once such a PUSH read zeros.
_PINNED_ORACLE_RUNS = {
    "add_store": "8b9d4600856220b9",
    "bitops": "c4ae63e9420b29b5",
    "calldata_env": "737e36e3df4e7ee1",
    "counter_loop": "6b7453f503c89986",
    "dispatcher": "2f8d9dd5bc0ccda1",
    "iszero_chain": "7c5e6b1715ed46ae",
    "jumpi_const": "2a7bcb7d354e6551",
    "memory_shuffle": "2d224841e2c58486",
    "not_store": "6fdd29be6fbf7cf0",
    "progen_11": "3e9bdbd039232080",
    "progen_29": "c7296f850ad5ba13",
    "progen_3": "8a0846ef0d019fc1",
    "progen_47": "32e8983ab9b612ad",
    "progen_83": "c22eed6f23b7fcbc",
    "six_loops": "e0045935cca201e5",
    "two_block_jump": "22a91660311dbfc0",
    "two_caller_clone": "d16edf95b052e0ed",
}


@pytest.mark.parametrize("name", sorted(_PINNED_ORACLE_RUNS))
def test_oracle_runs_are_pinned(name):
    code, seed = _pinned_programs()[name]
    assert _digest("\n".join(_pinned_runs(code, seed))) == _PINNED_ORACLE_RUNS[name]


def _outcome(run: str) -> str:
    """``halt``, the fault without its operand, or the error type."""
    if run.startswith("("):
        return "halt"
    kind, message = run.split(": ", 1)
    return message.rstrip("0123456789 ") if kind == "EvmFault" else kind


def test_pinned_runs_reach_every_outcome():
    outcomes = {
        _outcome(run)
        for code, seed in _pinned_programs().values()
        for run in _pinned_runs(code, seed)
    }
    assert outcomes == {"halt", "invalid jump target", "stack underflow", "stack overflow",
                        "StepLimitExceeded", "UnsupportedOpcode"}


# --- the step limit counts instructions, though the loop executes runs ---


def _limited(code: bytes, limit: int, inputs: dict) -> str:
    """The outcome of one run under ``limit``: the final state and trace,
    or the error."""
    try:
        state, trace = run_evm(code, step_limit=limit, **inputs)
    except EvmRbrError as err:
        return f"{type(err).__name__}: {err}"
    return repr((trace, state))


# Each fault, with the step that raises it.
_FAULTS = {
    "underflow": ("600101", 2, "EvmFault: stack underflow"),
    "invalid jump target": ("600456600000", 2, "EvmFault: invalid jump target 4"),
    "unsupported": (
        "6000600020", 3, "UnsupportedOpcode: opcode SHA3 is outside the interpreted subset"
    ),
    "overflow": ("6000" * 1025 + "00", 1025, "EvmFault: stack overflow"),
    # A run entered with 1020 items: PUSH1 1 and ADD, four pushes, then the
    # PUSH1 0 before an SSTORE takes the stack to 1025.
    "overflow in a run entered near the bound": (
        "6000" * 1020 + "5b" + "600101" + "6000" * 4 + "600055" + "00",
        1028,
        "EvmFault: stack overflow",
    ),
    # SSTORE 1 at key 0, then PUSH1 9, JUMP: offset 9 is a STOP
    "constant jump after a store": ("600160005560095600" + "00", 5,
                                    "EvmFault: invalid jump target 9"),
    # PUSH1 5, JUMPI on an otherwise empty stack: the limit can stop between them
    "split push and consumer": ("600557", 2, "EvmFault: stack underflow"),
}


def _sweep_programs():
    programs = {name: (code, None) for name, code in CORPUS.items()}
    for seed in (3, 11, 29, 47, 83):
        programs[f"progen_{seed}"] = (gen_program(random.Random(seed), 12), None)
    for name, (hexstr, steps, _) in _FAULTS.items():
        programs[name] = (bytes.fromhex(hexstr), steps)
    return programs


@pytest.mark.parametrize("name", sorted(_sweep_programs()))
def test_step_limit_sweep_changes_the_outcome_at_one_instruction(name):
    code, pinned_steps = _sweep_programs()[name]
    rng = random.Random(name)
    inputs = {
        "calldata": rng.randbytes(68),
        "env": {key: rng.randrange(INPUT_BOUND) for key in _ENV_NAMES},
        "storage": {i: rng.randrange(INPUT_BOUND) for i in range(6)},
    }
    unlimited = _limited(code, 10**6, inputs)
    assert not unlimited.startswith("StepLimitExceeded")
    outcomes = []
    limit = 0
    while not outcomes or outcomes[-1].startswith("StepLimitExceeded"):
        outcomes.append(_limited(code, limit, inputs))
        limit += 1
    steps = limit - 1  # the first limit that lets the run end
    outcomes.append(_limited(code, steps + 1, inputs))
    assert outcomes == [
        f"StepLimitExceeded: no halt within {below} steps" for below in range(steps)
    ] + [unlimited] * 2
    if pinned_steps is not None:
        assert steps == pinned_steps
        assert unlimited == _FAULTS[name][2]


@pytest.mark.parametrize("limit", [-1, -5])
def test_a_negative_step_limit_runs_no_instruction(limit):
    # ADD on an empty stack, then STOP: the ADD would fault if it ran
    with pytest.raises(StepLimitExceeded, match=f"^no halt within {limit} steps$"):
        run_evm(bytes.fromhex("0100"), step_limit=limit)


# --- the prepared runs ---


def _prepared_runs(code: bytes):
    """The runs and JUMPDEST map ``run_evm`` executes ``code`` on."""
    return evm_exec._prepare(disassemble(code))


def _expected_step(instrs, i):
    """The unfused step of instruction ``i``, written out from the opcode table."""
    pc, op, immediate = instrs[i]
    kind, arg, _ = evm_exec._STEPS[op.code]
    if kind == "pc":
        return ("push", None, pc)
    if kind in ("push", "stop", "return"):
        return (kind, arg, pc if immediate is None else immediate)
    if kind == "jumpi":
        falls_to = i + 1 < len(instrs) and instrs[i + 1][1].code != JUMPDEST
        return (kind, arg, pc + 1 if falls_to else None)
    return (kind, arg, None)


def test_runs_start_at_the_block_leaders_and_cover_the_listing():
    for code in [*CORPUS.values(), *block_fuzz_codes()]:
        instrs = disassemble(code)
        runs, jumpdests = _prepared_runs(code)
        counts = [count for _, count, _ in runs]
        assert all(counts), code.hex()
        firsts = [sum(counts[:r]) for r in range(len(runs))]
        starts = [instrs[first].offset for first in firsts]
        # Two leader rules, the oracle's run cut and the CFG's block split,
        # must agree.
        assert starts == [block.start_pc for block in split_blocks(instrs)], code.hex()
        # A run opening with a JUMPDEST records its pc as the run's header.
        headers = [header for header, _, _ in runs]
        assert headers == [
            instrs[first].offset if instrs[first].opcode.code == JUMPDEST else None
            for first in firsts
        ], code.hex()
        for (header, count, run), first in zip(runs, firsts):
            unfused = [step for fused in run for step in evm_exec._unfused(fused)]
            body = range(first + (header is not None), first + count)
            assert unfused == [_expected_step(instrs, i) for i in body], code.hex()
            # Every PUSH or PC right before a consumer of a constant is fused
            # into the consumer's step.
            fusions = sum(
                1
                for i in body[1:]
                if evm_exec._FUSES[instrs[i].opcode.code]
                and evm_exec._STEPS[instrs[i - 1].opcode.code][0] in ("push", "pc")
            )
            assert len(run) == len(body) - fusions, code.hex()
        assert jumpdests == {
            offset: starts.index(offset) for offset, op, _ in instrs if op.code == JUMPDEST
        }, code.hex()


def test_no_instruction_adds_more_than_one_stack_item():
    # The loop tests the stack bound once per run, against the run's
    # instruction count.
    assert max(op.alpha - op.delta for op in map(for_byte, range(256))) == 1


def test_steps_without_an_operand_are_shared():
    # 50 times (PUSH1 1, PUSH1 1, ADD), then PC at offset 250, PUSH1 1, STOP
    code = bytes.fromhex("6001600101" * 50 + "58" + "6001" + "00")
    runs, _ = _prepared_runs(code)
    steps = [step for _, _, run in runs for step in run]
    assert len(steps) == 103
    # Every push of 1 is one tuple and every PUSH1 1 fused with its ADD
    # another; the PC's push of 250 and the STOP at 253 are one tuple each.
    assert len({id(step) for step in steps}) == 4
    assert steps[1] == ("push op2", 1, evm_exec._STEPS[0x01])
    assert steps[-3:] == [("push", None, 250), ("push", None, 1), ("stop", None, 253)]


# --- the one-entry memo of prepared programs ---


@pytest.fixture()
def prepares(monkeypatch):
    """The codes ``run_evm`` prepares, starting from empty memos."""
    seen = []
    prepare = evm_exec._prepare
    monkeypatch.setattr(asm, "_last", (b"", ()))
    monkeypatch.setattr(evm_exec, "_prepared", (b"", (), {}))
    monkeypatch.setattr(
        evm_exec, "_prepare", lambda instrs: seen.append(asm.assemble(instrs)) or prepare(instrs)
    )
    return seen


def _fresh_run(code, **kwargs):
    """``run_evm`` on an empty memo, leaving the memo as it found it."""
    saved = evm_exec._prepared
    evm_exec._prepared = (b"", (), {})
    try:
        return run_evm(code, **kwargs)
    finally:
        evm_exec._prepared = saved


def test_memo_runs_as_a_cleared_memo_does(prepares):
    a, b = COUNTER_LOOP, TWO_CALLER_CLONE
    codes = (a, a, b, a, b, b"", a)
    fresh = [_fresh_run(code, storage={0: 4}) for code in codes]
    prepares.clear()
    assert [run_evm(code, storage={0: 4}) for code in codes] == fresh
    assert prepares == [a, b, a, b, b"", a]  # only when the code changed
    assert fresh[0] != fresh[2]


def test_memo_holds_a_copy_of_the_code(prepares):
    code = bytes.fromhex("600560040160005500")
    changed = bytes.fromhex("600760040160005500")  # PUSH1 7 for PUSH1 5
    fresh = _fresh_run(changed)
    prepares.clear()
    buffer = bytearray(code)
    assert run_evm(buffer)[0].storage == {0: 9}
    buffer[1] = 0x07  # the memo holds a copy, not the caller's buffer
    assert run_evm(buffer) == fresh
    assert fresh[0].storage == {0: 11}
    assert prepares == [code, changed]
