"""Rule interpreter semantics."""

import copy
import hashlib
import random
from dataclasses import replace

import pytest

from corpus import ADD_STORE, CORPUS, COUNTER_LOOP, TWO_BLOCK_JUMP
from progen import gen_program

from evmrbr.asm import disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.diff import (
    _ENV_NAMES,
    INPUT_BOUND,
    _draw_calldata,
    _initial_bindings,
    _make_calldata,
)
from evmrbr.errors import (
    EvmRbrError,
    NoApplicableRule,
    StepLimitExceeded,
    UnboundVariable,
)
from evmrbr.parse import parse_rbr
from evmrbr.rbr import Call, Rule, VarLayout
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


def test_unguarded_rules_of_one_name_are_not_applicable():
    rules = parse_rbr("block_0() =>\n  s0 = 1\n\nblock_0() =>\n  s0 = 2")
    with pytest.raises(NoApplicableRule) as err:
        run_rbr(rules, {})
    assert str(err.value) == "0 guards of block_0 applicable, expected exactly 1"


def test_unbound_fresh_guard_operand_is_drawn_once_for_the_pair():
    text = (
        "block_0(s0) =>\n  call(jump_0(s0))\n\n"
        "jump_0(s0) =>\n  lt(s0, fresh_0) | call(block_1(s0))\n\n"
        "jump_0(s0) =>\n  geq(s0, fresh_0) | call(block_2(s0))\n\n"
        "block_1(s0) =>\n\nblock_2(s0) =>"
    )
    rules = parse_rbr(text)
    middle = 1 << 63  # half of the 64-bit draws lie above it
    for seed in range(16):
        drawn = random.Random(seed).randrange(1 << 64)
        _, trace = run_rbr(rules, {"s0": middle}, fresh_seed=seed)
        assert trace == ["block_0", "jump_0", "block_1" if middle < drawn else "block_2"]


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
        # read before the statement that writes it
        ("block_0() =>\n  s0 = s1,\n  s1 = 2", "s1", "block_0"),
        # passed to a call without being bound
        ("block_0() =>\n  call(block_1(s0))\n\nblock_1(s0) =>\n  s1 = s0", "s0", "block_0"),
        # the same, by a rule that was called itself
        ("block_0() =>\n  call(block_1())\n\nblock_1() =>\n  call(block_2(s0))\n\n"
         "block_2(s0) =>\n  s1 = s0", "s0", "block_1"),
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


def _power(base: int, exponent: int) -> int:
    rules = parse_rbr("block_0(g0, g1) =>\n  g0 = g0 ^ g1")
    return run_rbr(rules, {"g0": base, "g1": exponent})[0].bindings["g0"]


def test_power_up_to_the_bit_bound_is_exact():
    assert _power(65535, 65535).bit_length() == 1_048_559
    assert _power(2, (1 << 20) - 1) == 1 << (1 << 20) - 1  # 2**20 bits
    for base in (0, 1, -1):
        for exponent in (0, 1, 2, 3, 1 << 256):
            assert _power(base, exponent) == base**exponent


# 2 ** 2 ** 20 has one bit more than the bound, 3 ** 661,600 has 1,048,612.
@pytest.mark.parametrize(
    "base, exponent",
    [(2, 1 << 20), (3, 661_600), (-2, 1 << 256), (1 << 600_000, 2), (1 << 300, 1 << 300)],
    ids=["2^2^20", "3^661600", "-2^2^256", "(2^600000)^2", "(2^300)^2^300"],
)
def test_power_past_the_bit_bound_is_an_error(base, exponent):
    with pytest.raises(EvmRbrError, match="a power of more than 1048576 bits"):
        _power(base, exponent)


def _product(a: int, b: int) -> int:
    rules = parse_rbr("block_0(g0, g1) =>\n  g0 = g0 * g1")
    return run_rbr(rules, {"g0": a, "g1": b})[0].bindings["g0"]


# Operands of 2^20 bits in all multiply; one bit more raises.
@pytest.mark.parametrize(
    "a, b", [((1 << 600_000) - 1, (1 << 448_576) - 1), (-(1 << 1_048_574), 1), (0, 1 << 1_048_575)],
    ids=["600000+448576", "-2^1048574*1", "0*2^1048575"],
)
def test_product_up_to_the_bit_bound_is_exact(a, b):
    assert _product(a, b) == a * b


@pytest.mark.parametrize(
    "a, b", [(1 << 600_000, 1 << 448_576), (1 << 1_048_576, 1), (-(1 << 524_288), -(1 << 524_288))],
    ids=["600001+448577", "2^1048576*1", "(-2^524288)^2"],
)
def test_product_past_the_bit_bound_is_an_error(a, b):
    with pytest.raises(EvmRbrError, match="a product of operands of more than 1048576 bits"):
        _product(a, b)


def test_index_runs_like_the_rule_list():
    rules = rules_of(COUNTER_LOOP)
    index = index_rules(rules)
    for g0 in (0, 7):
        assert run_rbr(index, {"g0": g0}) == run_rbr(rules, {"g0": g0})


def test_index_shares_argument_tuples_by_stack_count():
    rules = rules_of(COUNTER_LOOP)
    shared = {}
    for _, _, group, _ in index_rules(rules).steps:
        for _, _, callee, args, passed, tail, _ in group:
            if callee is not None:
                assert passed == len(args)
                assert shared.setdefault(len(args), (args, tail)) == (args, tail)
                assert shared[len(args)][0] is args and shared[len(args)][1] is tail
    assert len(shared) > 1


@pytest.mark.parametrize("seed", range(4))
def test_index_of_shared_statements_equals_index_of_copies(seed):
    # translate_cfg shares equal statements between rules; a copy with one
    # object per statement must get the same slots, constants and steps.
    rules = rules_of(gen_program(random.Random(seed)))
    copies = [replace(rule, body=[copy.deepcopy(stmt) for stmt in rule.body]) for rule in rules]
    statements = [stmt for rule in rules for stmt in rule.body]
    assert len({id(stmt) for stmt in statements}) < len(statements)
    assert len({id(stmt) for rule in copies for stmt in rule.body}) == len(statements)
    assert index_rules(rules) == index_rules(copies)


# --- runs pinned before the interpreter moved to slot-indexed frames ---


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_text(rules, init, **kwargs) -> str:
    """The trace, final rule and sorted final bindings of one run, or its error."""
    try:
        state, trace = run_rbr(rules, init, **kwargs)
    except EvmRbrError as err:
        return f"{type(err).__name__}: {err}"
    return repr((trace, state.rule, sorted(state.bindings.items())))


def _check_runs(code: bytes, n_cases: int, seed: int, nops: bool = False) -> str:
    """The runs of ``differential_check(code, n_cases, seed)``, on its inputs,
    of the rules translated with or without ``nop`` markers."""
    cfg = resolve_cfg(split_blocks(disassemble(code)))
    rules = translate_cfg(cfg, nops=nops)
    layout = rules[0].layout
    index = index_rules(rules)
    rng = random.Random(seed)
    calldata = _make_calldata(layout)
    runs = []
    for _ in range(n_cases):
        _draw_calldata(calldata, layout, rng)
        env = {name: rng.randrange(INPUT_BOUND) for name in _ENV_NAMES}
        storage = {i: rng.randrange(INPUT_BOUND) for i in range(layout.k + 1)}
        fresh_seed = rng.randrange(1 << 30)
        init = _initial_bindings(layout, calldata, env, storage)
        runs.append(_run_text(index, init, entry=f"block_{cfg.entry}", fresh_seed=fresh_seed))
    return "\n".join(runs)


# Digests of _check_runs: the corpus with 5 cases on seed 17, and 12-segment
# programs of five progen seeds with 5 cases on the program's seed.
_PINNED_CHECK_RUNS = {
    "add_store": "0895935a1e17c3ae",
    "bitops": "e7370500ca35fd9e",
    "calldata_env": "e7ffccf369584711",
    "counter_loop": "9d86c7c54bf14228",
    "dispatcher": "e391568f69755f51",
    "iszero_chain": "908576c47f2d60b6",
    "jumpi_const": "cebe697f6d5264bc",
    "memory_shuffle": "9224b3d3bd5b0c05",
    "not_store": "30f87e854e4dcadb",
    "six_loops": "39c0690bb2f2777f",
    "two_block_jump": "d299caae87d43a61",
    "two_caller_clone": "db9a8fb5a9e429bd",
}
_PINNED_PROGEN_RUNS = {
    3: "631ebea7abb9d7cf",
    11: "3f5752442a4a1ac8",
    29: "5849a489956cf5dd",
    47: "290a06abc0555a23",
    83: "e936b376a642fdf0",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_runs_are_pinned(name):
    assert _digest(_check_runs(CORPUS[name], 5, 17)) == _PINNED_CHECK_RUNS[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_nop_markers_change_no_run(name):
    assert _check_runs(CORPUS[name], 5, 17, nops=True) == _check_runs(CORPUS[name], 5, 17)


@pytest.mark.parametrize("seed", sorted(_PINNED_PROGEN_RUNS))
def test_generated_program_runs_are_pinned(seed):
    code = gen_program(random.Random(seed), 12)
    assert _digest(_check_runs(code, 5, seed)) == _PINNED_PROGEN_RUNS[seed]


# Fresh reads in guards, bodies and across calls, a fresh target, and a loop
# that re-draws the same fresh names on every pass.
_FRESH_HEAVY = """
block_0(g0, g1, l0) =>
  s0 = 3,
  g1 = fresh_0 % 5,
  call(block_1(s0, g0, g1, l0))

block_1(s0, g0, g1, l0) =>
  s1 = fresh_0 % 2,
  s2 = fresh_1,
  g0 = g0 + s2,
  l0 = xor(l0, fresh_2),
  call(jump_1(s0, s1, g0, g1, l0))

jump_1(s0, s1, g0, g1, l0) =>
  eq(s1, 0) | call(block_2(s0, g0, g1, l0))

jump_1(s0, s1, g0, g1, l0) =>
  neq(s1, 0) | call(block_3(s0, g0, g1, l0))

block_2(s0, g0, g1, l0) =>
  s0 = s0 - 1,
  gl = fresh_3,
  call(jump_4(s0, g0, g1, l0))

block_3(s0, g0, g1, l0) =>
  fresh_4 = 7,
  g1 = g1 + fresh_4,
  s0 = s0 - 1,
  call(jump_4(s0, g0, g1, l0))

jump_4(s0, g0, g1, l0) =>
  gt(s0, 0) | call(block_1(s0, g0, g1, l0))

jump_4(s0, g0, g1, l0) =>
  leq(s0, 0) | call(jump_5(g0, g1, l0))

jump_5(g0, g1, l0) =>
  lt(fresh_5, 9223372036854775808) | call(block_6(g0, g1, l0))

jump_5(g0, g1, l0) =>
  geq(fresh_5, 9223372036854775808) | call(block_7(g0, g1, l0))

block_6(g0, g1, l0) =>
  s0 = fresh_6,
  g0 = not(s0)

block_7(g0, g1, l0) =>
  g0 = and(fresh_6, fresh_7),
  g1 = fresh_7
"""


def test_fresh_heavy_runs_are_pinned():
    rules = parse_rbr(_FRESH_HEAVY)
    runs = [
        _run_text(rules, {"g0": g0, "g1": 1, "l0": 2}, fresh_seed=seed)
        for seed in range(12)
        for g0 in (0, 5)
    ]
    assert _digest("\n".join(runs)) == "0c96184d08c3ae5d"


@pytest.mark.parametrize(
    "body, name",
    [
        ("", "s0"),
        ("  s0 = 1,\n", "s1"),
        ("  s1 = 1,\n", "s0"),
        ("  s0 = 1,\n  s1 = 2,\n", "g0"),
    ],
)
def test_first_unbound_argument_in_call_order_is_named(body, name):
    # the arguments run s0, s1, g0: a stack slot comes before a field
    text = f"block_0(g0) =>\n{body}  call(block_1(s0, s1, g0))\n\nblock_1(s0, s1, g0) =>"
    with pytest.raises(UnboundVariable) as err:
        run_rbr(parse_rbr(text), {})
    assert (err.value.name, err.value.rule) == (name, "block_0")


def test_unused_init_names_are_kept_until_the_first_call():
    halts = parse_rbr("block_0() =>\n  s0 = 1")
    state, _ = run_rbr(halts, {"zz": 5, "g9": 6})
    assert state.bindings == {"zz": 5, "g9": 6, "s0": 1}
    calls = parse_rbr("block_0() =>\n  call(block_1())\n\nblock_1() =>\n  s0 = 1")
    state, _ = run_rbr(calls, {"zz": 5, "g9": 6})
    assert state.bindings == {"s0": 1}


# The entry frame's bound prefix is g0 alone, or nothing: a read past it is
# tested, and block_1 is entered with both slots bound.
@pytest.mark.parametrize(
    "text, init, outcome",
    [
        ("block_0(g0, g1) =>\n  g1 = g0", {"g1": 1},
         "UnboundVariable: variable g0 read before assignment in block_0"),
        ("block_0(g0, g1) =>\n  g0 = g1", {"g0": 1},
         "UnboundVariable: variable g1 read before assignment in block_0"),
        ("block_0(g0, g1) =>\n  g1 = g0,\n  call(block_1(g0, g1))\n\n"
         "block_1(g0, g1) =>\n  g0 = g1 + 1", {"g0": 4},
         repr((["block_0", "block_1"], "block_1", [("g0", 5), ("g1", 4)]))),
    ],
)
def test_partial_init_is_read_with_tests(text, init, outcome):
    assert _run_text(parse_rbr(text), init) == outcome


def test_fresh_value_does_not_survive_a_call():
    text = (
        "block_0(g0) =>\n  g0 = fresh_0,\n  call(block_1(g0))\n\n"
        "block_1(g0) =>\n  s0 = fresh_0"
    )
    state, _ = run_rbr(parse_rbr(text), {"g0": 0}, fresh_seed=4)
    draws = random.Random(4)
    first, second = draws.randrange(1 << 64), draws.randrange(1 << 64)
    assert state.bindings == {"g0": first, "fresh_0": second, "s0": second}


def test_mixed_layouts_are_refused():
    one, two = VarLayout(k=0), VarLayout(k=1)
    rules = [
        Rule("block_0", 0, one, None, [], Call("block_1", 0)),
        Rule("block_1", 0, two, None, [], None),
    ]
    with pytest.raises(EvmRbrError, match="different variable layouts"):
        index_rules(rules)


@pytest.mark.parametrize("named", [("gas", "gas"), ("s0",)])
def test_parameter_named_twice_is_refused(named):
    layout = VarLayout(named_bc=named)
    rules = [Rule("block_0", 0, layout, None, [], Call("block_0", 1))]
    with pytest.raises(EvmRbrError, match=f"rule parameters name {named[0]} twice"):
        index_rules(rules)
