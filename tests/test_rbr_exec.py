"""Rule interpreter semantics."""

import random

import pytest

from corpus import ADD_STORE, COUNTER_LOOP, TWO_BLOCK_JUMP

from evmrbr.asm import disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.errors import (
    EvmRbrError,
    NoApplicableRule,
    StepLimitExceeded,
    UnboundVariable,
)
from evmrbr.parse import parse_rbr
from evmrbr.rbr_exec import RbrState, index_rules, run_rbr
from evmrbr.translate import translate_cfg


def rules_of(code: bytes):
    return translate_cfg(resolve_cfg(split_blocks(disassemble(code))))


def test_add_store_rules_reach_nine():
    state, trace = run_rbr(rules_of(ADD_STORE), {"g0": 0})
    assert state.bindings["g0"] == 9
    assert trace == ["block_0"]


def test_two_block_jump_visits_both_rules():
    _, trace = run_rbr(rules_of(TWO_BLOCK_JUMP), {})
    assert trace == ["block_0", "block_3"]


def test_counter_loop_rules():
    state, trace = run_rbr(rules_of(COUNTER_LOOP), {"g0": 0})
    assert state.bindings["g0"] == 15
    assert trace.count("jump_4") == 6


def test_guards_are_total_over_random_states():
    rules = rules_of(COUNTER_LOOP)
    pair = [r for r in rules if r.name == "jump_4"]
    rng = random.Random(0)
    for _ in range(10_000):
        bindings = {f"s{i}": rng.randrange(1 << 16) for i in range(3)}
        bindings["g0"] = 0
        applicable = [r for r in pair if _holds(r.guard, bindings)]
        assert len(applicable) == 1


def _holds(guard, bindings):
    from evmrbr.rbr import Num

    def val(atom):
        return atom.value if isinstance(atom, Num) else bindings[atom.name]

    lhs, rhs = val(guard.lhs), val(guard.rhs)
    return {
        "eq": lhs == rhs, "neq": lhs != rhs, "lt": lhs < rhs,
        "leq": lhs <= rhs, "gt": lhs > rhs, "geq": lhs >= rhs,
    }[guard.relation]


def test_no_applicable_rule_on_overlapping_guards():
    text = (
        "block_0(s0) =>\n  call(jump_1(s0))\n\n"
        "jump_1(s0) =>\n  geq(s0, 0) | call(block_2(s0))\n\n"
        "jump_1(s0) =>\n  leq(s0, 9) | call(block_2(s0))\n\n"
        "block_2(s0) =>"
    )
    rules = parse_rbr(text)
    with pytest.raises(NoApplicableRule) as err:
        run_rbr(rules, {"s0": 5}, entry="block_0")
    assert err.value.applicable == 2
    assert str(err.value) == "2 guards of jump_1 applicable, expected exactly 1"


def test_unbound_variable():
    rules = parse_rbr("block_0() => s0 = s1")
    with pytest.raises(UnboundVariable):
        run_rbr(rules, {})


def test_step_limit_on_cyclic_rules():
    text = "block_0() =>\n  call(block_1())\n\nblock_1() =>\n  call(block_0())"
    with pytest.raises(StepLimitExceeded):
        run_rbr(parse_rbr(text), {}, step_limit=100)


def test_fresh_values_are_seeded_and_rule_local():
    text = (
        "block_0(g0) =>\n  s0 = fresh_0,\n  s1 = fresh_0,\n  g0 = s0,\n"
        "  call(block_1(g0))\n\n"
        "block_1(g0) =>\n  s0 = fresh_0,\n  g0 = s0"
    )
    rules = parse_rbr(text)
    first, _ = run_rbr(rules, {"g0": 0}, fresh_seed=1)
    second, _ = run_rbr(rules, {"g0": 0}, fresh_seed=1)
    assert first.bindings == second.bindings
    other, _ = run_rbr(rules, {"g0": 0}, fresh_seed=2)
    assert other.bindings != first.bindings


def test_fresh_reads_are_stable_within_a_rule():
    rules = parse_rbr("block_0() =>\n  s0 = fresh_0,\n  s1 = fresh_0,\n  g0 = s0 - s1")
    state, _ = run_rbr(rules, {"g0": 1})
    assert state.bindings["g0"] == 0


def test_division_semantics():
    rules = parse_rbr("block_0() =>\n  s0 = 7,\n  s1 = 0,\n  g0 = s0 / s1,\n  g1 = s0 % s1")
    state, _ = run_rbr(rules, {"g0": 5, "g1": 5})
    assert state.bindings["g0"] == 0
    assert state.bindings["g1"] == 0


def test_not_is_word_complement():
    rules = parse_rbr("block_0() =>\n  s0 = 0,\n  g0 = not(s0)")
    state, _ = run_rbr(rules, {"g0": 0})
    assert state.bindings["g0"] == (1 << 256) - 1


def test_missing_entry_rule():
    with pytest.raises(EvmRbrError):
        run_rbr(parse_rbr("block_1() => s0 = 1"), {}, entry="block_0")


def test_accepts_rbr_state_init():
    state, _ = run_rbr(rules_of(ADD_STORE), RbrState(bindings={"g0": 3}))
    assert state.bindings["g0"] == 9


def test_no_applicable_rule_names_the_rule():
    text = (
        "block_0(s0) =>\n  call(jump_1(s0))\n\n"
        "jump_1(s0) =>\n  lt(s0, 3) | call(block_2(s0))\n\n"
        "jump_1(s0) =>\n  gt(s0, 3) | call(block_2(s0))\n\n"
        "block_2(s0) =>"
    )
    with pytest.raises(NoApplicableRule) as err:
        run_rbr(parse_rbr(text), {"s0": 3})
    assert (err.value.name, err.value.applicable) == ("jump_1", 0)


@pytest.mark.parametrize(
    "text, name, rule",
    [
        # read in a body, after a call
        ("block_0() =>\n  call(block_1())\n\nblock_1() =>\n  s0 = s1", "s1", "block_1"),
        # the second operand of an operation
        ("block_0() =>\n  s0 = 1,\n  s1 = s0 + s2", "s2", "block_0"),
        # passed to a call without being bound
        ("block_0() =>\n  call(block_1(s0))\n\nblock_1(s0) =>\n  s1 = s0", "s0", "block_0"),
        # bound in the caller but not passed
        ("block_0() =>\n  s0 = 1,\n  call(block_1())\n\nblock_1() =>\n  s1 = s0", "s0", "block_1"),
        # read by a guard
        ("block_0() =>\n  call(jump_1())\n\njump_1() =>\n  eq(s0, 0) | call(block_2())\n\n"
         "jump_1() =>\n  neq(s0, 0) | call(block_2())\n\nblock_2() =>", "s0", "jump_1"),
    ],
)
def test_unbound_variable_names_the_rule(text, name, rule):
    with pytest.raises(UnboundVariable) as err:
        run_rbr(parse_rbr(text), {})
    assert (err.value.name, err.value.rule) == (name, rule)
    assert str(err.value) == f"variable {name} read before assignment in {rule}"


def test_undefined_callee_is_reported_when_called():
    with pytest.raises(EvmRbrError, match="call to undefined rule block_5"):
        run_rbr(parse_rbr("block_0() =>\n  call(block_5())"), {})


def test_negative_exponent_is_an_error():
    with pytest.raises(EvmRbrError, match="negative exponent"):
        run_rbr(parse_rbr("block_0() =>\n  s0 = 0 - 1,\n  s1 = 2 ^ s0"), {})


def test_index_runs_like_the_rule_list():
    rules = rules_of(COUNTER_LOOP)
    index = index_rules(rules)
    for g0 in (0, 7):
        assert run_rbr(index, {"g0": g0}) == run_rbr(rules, {"g0": g0})


def test_index_shares_argument_tuples_by_stack_count():
    rules = rules_of(COUNTER_LOOP)
    args_of = {}
    for group in index_rules(rules).groups.values():
        for _, _, callee, args in group:
            if callee is not None:
                assert args_of.setdefault(len(args), args) is args
    assert len(args_of) > 1
