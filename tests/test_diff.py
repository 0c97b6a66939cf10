"""Differential harness behaviour, including its ability to catch bugs."""

import copy
import hashlib
import random
import tracemalloc

import pytest

from corpus import ADD_STORE, CORPUS, COUNTER_LOOP
from progen import gen_program

from evmrbr.asm import disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.diff import _ENV_NAMES, DiffReport, _compare, differential_check
from evmrbr.errors import EvmRbrError
from evmrbr.evm_exec import MachineState
from evmrbr.rbr import COMPLEMENT, Call, Guard, VarLayout
from evmrbr.rbr_exec import RbrState
from evmrbr.translate import translate_cfg


def test_add_store_many_cases():
    report = differential_check(ADD_STORE, n_cases=100, seed=0)
    assert report.agreed
    assert report.text() == "divergences: 0/100\n"


def test_counter_loop_agrees():
    report = differential_check(COUNTER_LOOP, n_cases=50, seed=1)
    assert report.agreed


def test_whole_corpus_agrees():
    for name, code in CORPUS.items():
        report = differential_check(code, n_cases=20, seed=2)
        assert report.agreed, (name, report.text())


def test_computed_jump_target_agrees():
    # the jump target is materialized by arithmetic, then dropped unpassed
    code = bytes.fromhex("60046003" + "0156" + "00" + "5b600160005500")
    report = differential_check(code, n_cases=10, seed=5)
    assert report.agreed, report.text()


def test_branch_to_own_fallthrough_agrees():
    code = bytes.fromhex("600035600657" + "5b600160005500")
    report = differential_check(code, n_cases=10, seed=6)
    assert report.agreed, report.text()


def test_generated_programs_agree():
    rng = random.Random(43)
    for i in range(25):
        report = differential_check(gen_program(rng), n_cases=8, seed=i)
        assert report.agreed, report.text()


def _flip_first_guard(code: bytes):
    """The translation of ``code`` with its first jump rule's guard negated."""
    rules = translate_cfg(resolve_cfg(split_blocks(disassemble(code))))
    rule = next(rule for rule in rules if rule.is_jump)
    rule.guard = Guard(COMPLEMENT[rule.guard.relation], rule.guard.lhs, rule.guard.rhs)
    return rules


def test_flipped_guard_is_caught():
    rules = _flip_first_guard(COUNTER_LOOP)
    report = differential_check(COUNTER_LOOP, n_cases=5, seed=3, rules=rules)
    assert not report.agreed


_GIVEN_BLOCKS_CASES = {
    **{name: (code, None) for name, code in CORPUS.items()},
    **{f"progen-{seed}": (gen_program(random.Random(seed)), None) for seed in (3, 11, 29, 47, 83)},
    "flipped-guard": (COUNTER_LOOP, _flip_first_guard),
}


@pytest.mark.parametrize("name", _GIVEN_BLOCKS_CASES)
def test_given_blocks_give_the_same_report(name):
    code, mutate = _GIVEN_BLOCKS_CASES[name]
    rules = mutate(code) if mutate else None
    own = differential_check(code, n_cases=8, seed=4, rules=rules)
    given = differential_check(
        code, n_cases=8, seed=4, rules=rules, blocks=split_blocks(disassemble(code))
    )
    assert own.agreed == (mutate is None), own.text()
    assert (given.text(), given.agreed, given.executed_rules) == (
        own.text(), own.agreed, own.executed_rules
    )


def test_divergence_report_format():
    cfg = resolve_cfg(split_blocks(disassemble(ADD_STORE)))
    rules = translate_cfg(cfg)
    mutated = copy.deepcopy(rules)
    stmt = mutated[0].body[0]
    mutated[0].body[0] = type(stmt)(stmt.target, type(stmt.value)(6))  # 5 -> 6
    report = differential_check(ADD_STORE, n_cases=3, seed=4, rules=mutated)
    assert len(report.divergences) == 3
    line = report.divergences[0].line()
    assert line.startswith("case 0: g0 evm=")
    assert report.text().endswith("divergences: 3/3\n")


def test_unresolved_input_is_rejected():
    with pytest.raises(EvmRbrError):
        differential_check(bytes.fromhex("60003556"))


def test_deterministic_given_seed():
    first = differential_check(CORPUS["dispatcher"], n_cases=10, seed=9)
    second = differential_check(CORPUS["dispatcher"], n_cases=10, seed=9)
    assert first.text() == second.text()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _swap_first_executed_branch(code: bytes) -> list:
    rules = translate_cfg(resolve_cfg(split_blocks(disassemble(code))))
    executed = differential_check(code, n_cases=4, seed=1).executed_rules
    target = next(r.name for r in rules if r.is_jump and r.name in executed)
    for rule in rules:
        if rule.name == target:
            rule.guard = rule.guard.negated()
    return rules


def _call_undefined_rule(code: bytes) -> list:
    rules = translate_cfg(resolve_cfg(split_blocks(disassemble(code))))
    rules[0].continuation = Call("block_99", rules[0].continuation.stack_count)
    return rules


# Reports recorded before the checker prepared the bytecode and the rules
# once per check: (code, rule mutation, cases, seed, digest of text(),
# last line of text(), digest of the sorted executed rule names).
_PINNED = {
    "progen-5": (gen_program(random.Random(5), 30), None, 6, 5,
                 "70ef3b7e3105c674", "divergences: 0/6", "bfe4776110fba21b"),
    "progen-23": (gen_program(random.Random(23), 30), None, 6, 23,
                  "70ef3b7e3105c674", "divergences: 0/6", "dadaeb790ece84eb"),
    "progen-71": (gen_program(random.Random(71)), None, 4, 71,
                  "c2805872da5ed196", "divergences: 0/4", "872cc5187d0836d5"),
    # the SLOAD at a calldata key is fresh in the rules
    "sload-dynamic-key": (bytes.fromhex("6000355460005500"), None, 4, 12,
                          "c20f1b12a395f837", "divergences: 4/4", "b9a07089b65517ad"),
    "swapped-branch": (gen_program(random.Random(5), 30), _swap_first_executed_branch, 5, 3,
                       "d99414f1cb0b7019", "divergences: 5/5", "1f5e4157c85ca25e"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_report_is_pinned(name):
    code, mutate, n_cases, seed, text_digest, last_line, rules_digest = _PINNED[name]
    rules = mutate(code) if mutate else None
    report = differential_check(code, n_cases=n_cases, seed=seed, rules=rules)
    text = report.text()
    assert text.splitlines()[-1] == last_line
    assert _digest(text) == text_digest, text
    assert _digest("\n".join(sorted(report.executed_rules))) == rules_digest


def test_fresh_draws_are_pinned():
    # an ISZERO used as a value is fresh in the rules
    report = differential_check(bytes.fromhex("60a41560005200"), n_cases=4, seed=11)
    assert report.text() == (
        "case 0: l0 evm=0 rbr=13125863805681346846\n"
        "case 1: l0 evm=0 rbr=4092205224234136051\n"
        "case 2: l0 evm=0 rbr=15481991582512269596\n"
        "case 3: l0 evm=0 rbr=7149979697188862515\n"
        "divergences: 4/4\n"
    )


def test_undefined_rule_call_line_is_pinned():
    code = bytes.fromhex("6003565b00")
    report = differential_check(code, n_cases=2, seed=0, rules=_call_undefined_rule(code))
    assert report.text() == (
        "case 0: rule-run evm=halt rbr=EvmRbrError: call to undefined rule block_99\n"
        "case 1: rule-run evm=halt rbr=EvmRbrError: call to undefined rule block_99\n"
        "divergences: 2/2\n"
    )


def test_environment_names_keep_their_draw_order():
    assert _ENV_NAMES == (
        "address", "caller", "callvalue", "coinbase", "difficulty", "gas",
        "gaslimit", "gasprice", "number", "origin", "timestamp",
    )


def test_calldata_buffer_is_made_once_per_check():
    # PUSH3 0xffffff, CALLDATALOAD, PUSH1 0, SSTORE, STOP: a 16 MiB buffer
    code = bytes.fromhex("62ffffff3560005500")
    tracemalloc.start()
    try:
        report = differential_check(code, n_cases=20, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.agreed, report.text()
    assert peak < 24 << 20, peak


def test_check_refuses_empty_bytecode():
    with pytest.raises(EvmRbrError, match="^empty bytecode$"):
        differential_check(b"")


def test_compare_reports_each_quantity_and_the_first_missing_edge():
    layout = VarLayout(k=1, r=1, lmap={96: 0, 32: 1})
    evm = MachineState(storage={0: 5, 1: 6}, memory={32: 7, 96: 8})
    rbr = RbrState(bindings={"g0": 5, "g1": 4, "l0": 8, "l1": 9})
    report = DiffReport(n_cases=1)
    # 0 -> 4 is an edge, 4 -> 9 and 9 -> 4 are not
    _compare(0, layout, evm, [0, 4, 9, 4], rbr, [0, 4], {(0, 4), (4, 0)}, report)
    assert report.text() == (
        "case 0: g1 evm=6 rbr=4\n"
        "case 0: l1 evm=7 rbr=9\n"
        "case 0: trace evm=[0, 4, 9, 4] rbr=[0, 4]\n"
        "case 0: trace-path evm=4->9 rbr=no such edge\n"
        "divergences: 4/1\n"
    )
    agreed = DiffReport(n_cases=1)
    _compare(0, layout, evm, [0, 4, 0], RbrState(bindings={"g0": 5, "g1": 6, "l0": 8, "l1": 7}),
             [0, 4, 0], {(0, 4), (4, 0)}, agreed)
    assert agreed.text() == "divergences: 0/1\n"
