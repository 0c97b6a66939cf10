"""Parsing the canonical text back into rules."""

import hashlib
import random
import sys

import pytest

from corpus import CORPUS
from progen import gen_program

from evmrbr.asm import disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.emit import emit_rbr, export_saco
from evmrbr.errors import RbrSyntaxError
from evmrbr.parse import parse_rbr
from evmrbr.rbr import Assign, BinOp, Num, Var
from evmrbr.translate import translate_cfg


# Python's int-string digit limit; 0 means none (and before 3.10.7 there is none).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="no int-string digit limit")


def rules_of(code: bytes, nops: bool = False):
    return translate_cfg(resolve_cfg(split_blocks(disassemble(code))), nops=nops)


def test_parse_minimal_rule():
    rules = parse_rbr("block_0() => s0 = 5")
    assert len(rules) == 1
    assert rules[0].body == [Assign("s0", Num(5))]
    assert rules[0].stack_params == 0
    assert rules[0].continuation is None


def test_parse_rejects_double_equals():
    with pytest.raises(RbrSyntaxError):
        parse_rbr("block_0() => s0 == 5")


def test_parse_rejects_bad_rule_name():
    # Rule and callee names are PC ids: (block|jump)_<pc>[_c<n>].
    for text in (
        "frob_0() => s0 = 5",
        "block_x() => s0 = 5",
        "block_0_c() => s0 = 5",
        "block_0() => call(jump_y())",
    ):
        with pytest.raises(RbrSyntaxError):
            parse_rbr(text)


def test_parse_rejects_fresh_name_without_index():
    # export_saco reads the index of every fresh_ variable.
    for text in (
        "block_0() => s0 = fresh_x",
        "block_0() => s0 = fresh_",
        "jump_0(s0) => eq(fresh_q, 1) | call(block_1(s0))",
    ):
        with pytest.raises(RbrSyntaxError):
            parse_rbr(text)


@needs_int_digit_limit
@pytest.mark.parametrize(
    "template, line, column",
    [
        ("block_0() => s0 = {n}", 1, 19),
        ("block_0(s0, s1) =>\n  s0 = s1 + {n}", 2, 13),
        ("jump_0(s0) =>\n  eq(s0, {n}) | call(block_1())", 2, 10),
        ("-- lmap: {n} -> l0\nblock_0(l0) => s0 = 1", 1, 10),
        ("block_{n}() => s0 = 1", 1, 7),
        ("block_0() => call(jump_1_c{n}())", 1, 27),
        ("block_0() => fresh_{n} = 1", 1, 20),
        ("block_0() => s0 = fresh_{n}", 1, 25),
    ],
)
def test_parse_rejects_overlong_numeral(template, line, column):
    with pytest.raises(RbrSyntaxError) as err:
        parse_rbr(template.format(n="9" * (INT_DIGITS + 1)))
    expected = f"a numeral of at most {INT_DIGITS} digits"
    assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)


@needs_int_digit_limit
def test_parse_accepts_numerals_at_int_digit_limit():
    n = "9" * INT_DIGITS
    rules = parse_rbr(f"block_{n}() => fresh_{n} = {n}, s0 = fresh_{n}")
    assert rules[0].body[0] == Assign(f"fresh_{n}", Num(10**INT_DIGITS - 1))
    assert parse_rbr(emit_rbr(rules)) == rules
    export_saco(rules)


def test_parse_rejects_trailing_comma():
    with pytest.raises(RbrSyntaxError):
        parse_rbr("block_0() => s0 = 5,")


def test_parse_rejects_statement_after_call():
    with pytest.raises(RbrSyntaxError):
        parse_rbr("block_0(s0) => call(block_1(s0)), s0 = 1")


def test_parse_rejects_bad_guard_relation():
    with pytest.raises(RbrSyntaxError):
        parse_rbr("jump_0(s0) => gte(s0, 0) | call(block_1())")


def test_parse_rejects_md_assignment_target():
    with pytest.raises(RbrSyntaxError):
        parse_rbr("block_0() => md0 = 5")


def test_parse_reports_position():
    with pytest.raises(RbrSyntaxError) as err:
        parse_rbr("block_0() =>\n  s0 == 5")
    assert err.value.line == 2
    assert err.value.column >= 6


def test_parse_accepts_comments_anywhere():
    rules = parse_rbr("-- a comment\nblock_0() => -- inline\n  s0 = 5\n")
    assert rules[0].body == [Assign("s0", Num(5))]
    rules = parse_rbr("block_0(g0, -- c\n g1) => s0 = g1 -- x\n + 2")
    assert rules[0].layout.param_names() == ["g0", "g1"]
    assert rules[0].body == [Assign("s0", BinOp("+", Var("g1"), Num(2)))]


# Positions as the token-list parser reported them before the lazy rewrite.
@pytest.mark.parametrize(
    "text, line, column, expected",
    [
        ("block_0() => s0 == 5 $", 1, 22, "a token (found '$')"),
        ("block_0() => s0 = 1 -- ok\n  > 2", 2, 3, "a token (found '>')"),
        ("block_0() =>> s0 = 1", 1, 13, "a token (found '>')"),
        ("block_0() =>\n  s0 == 5", 2, 7, "a number or variable"),
        ("block_0(s0) =>\n  s0 = s1 +,", 2, 12, "a number or variable"),
        ("frob_0() => s0 = 5", 1, 1, "block_* or jump_* rule name"),
        ("block_0() = s0 = 5", 1, 11, "'=>'"),
        ("block_0() => s0 => 5", 1, 14, "block_* or jump_* rule name"),
        ("block_0() => s1 = 2, s0 => 5", 1, 22, "a statement or call"),
        ("block_0() => s0 = 5,", 1, 21, "a statement or call"),
        ("block_0(g0,) => s0 = 1", 1, 12, "a variable name"),
        ("block_0(", 1, 9, "a variable name"),
        ("block_0(s0, g0) =>\n  call(block_1(s1, g0))", 2, 8, "canonical call arguments"),
        ("block_0(g0) => call(block_1(g0 -- c\n, g1))", 1, 21, "canonical call arguments"),
        ("block_0(g0) => s0 = 1\n\nblock_1(g0, g1) => s0 = 2", 3, 1,
         "parameters consistent across rules"),
        ("block_0(g0, s0) => s0 = 1", 1, 1, "parameters in canonical order"),
        ("block_0(gas, gas) =>\n  s0 = gas", 1, 1, "distinct parameter names"),
        ("\nblock_0(md0, gas, caller, gas) => s0 = 1", 2, 1, "distinct parameter names"),
        ("-- lmap: 64 -> l0\nblock_0() => s0 = 1", 2, 1, "lmap header matching l parameters"),
        ("jump_0(s0) => gte(s0, 0) | call(block_1())", 1, 15, "one of eq/neq/lt/leq/gt/geq"),
        ("jump_4(s0) => eq(s0, 0) call(block_9(s0))", 1, 25, "'|'"),
        ("block_0() => md0 = 5", 1, 14, "a stack/field/local/rule-local target"),
        ("block_0(s0) => call(block_1(s0)), s0 = 1", 1, 33, "the call to end the rule"),
        ("block_0() => s0 = and(s1 s2)", 1, 26, "','"),
        ("block_0() => call(frob_1())", 1, 19, "a block_/jump_ callee"),
        ("block_0() => call -- (block_1())\n", 1, 14, "block_* or jump_* rule name"),
        ("block_0(g0 -- ) => s0 = 1", 1, 26, "')'"),
    ],
)
def test_parse_error_positions(text, line, column, expected):
    with pytest.raises(RbrSyntaxError) as err:
        parse_rbr(text)
    assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)


def test_roundtrip_corpus():
    for name, code in CORPUS.items():
        for nops in (False, True):
            rules = rules_of(code, nops=nops)
            assert parse_rbr(emit_rbr(rules)) == rules, name


def test_roundtrip_generated():
    rng = random.Random(37)
    for _ in range(20):
        rules = rules_of(gen_program(rng))
        assert parse_rbr(emit_rbr(rules)) == rules


_EDIT_ALPHABET = "bjklmsgx_019 \n(),|=>+-*/%^$\u0663"


def _edited(rng: random.Random, text: str) -> str:
    """``text`` with 1-3 random character deletions, insertions or swaps."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars))
        edit = rng.randrange(3)
        if edit == 0:
            del chars[at]
        elif edit == 1:
            chars.insert(at, rng.choice(_EDIT_ALPHABET))
        else:
            chars[at] = rng.choice(_EDIT_ALPHABET)
    return "".join(chars)


def test_parse_mutants_fail_only_with_syntax_errors():
    # 1-3 random character edits to emitted text: each parse either returns
    # rules that emit and export again, or raises RbrSyntaxError; nothing
    # else escapes.
    rng = random.Random(2018)
    texts = [emit_rbr(rules_of(code, nops=True)) for code in CORPUS.values()]
    for _ in range(3):
        rules = rules_of(gen_program(rng))
        texts += [emit_rbr(rules), export_saco(rules)]
    for _ in range(600):
        try:
            rules = parse_rbr(_edited(rng, rng.choice(texts)))
        except RbrSyntaxError:
            continue
        emit_rbr(rules)
        export_saco(rules)


def _pinned_texts(group: str) -> list[str]:
    corpus = [rules_of(code, nops=True) for code in CORPUS.values()]
    generated = [rules_of(gen_program(random.Random(seed))) for seed in range(8)]
    if group == "corpus":
        return [emit_rbr(rules) for rules in corpus]
    if group == "generated":
        return [emit_rbr(rules) for rules in generated]
    return [export_saco(rules) for rules in corpus + generated]


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse_rbr(text))
    except RbrSyntaxError as err:
        return repr((err.line, err.column, err.expected))


# Digests of the parse outcomes (the rules, or the error's line, column and
# expected text) of each group's texts and 1,500 seeded 1-3 character edits
# of them, recorded before the parser reused the result of a statement text
# it had already parsed.
_PINNED_PARSES = {
    "corpus": "d3896832fae36333",
    "generated": "b18e87b681ca093b",
    "saco": "21eca134faddb51d",
}


@pytest.mark.parametrize("group", sorted(_PINNED_PARSES))
def test_parse_outcomes_are_pinned(group):
    rng = random.Random(group)
    texts = _pinned_texts(group)
    edits = [_edited(rng, rng.choice(texts)) for _ in range(1500)]
    outcomes = "\n".join(map(_parse_outcome, texts + edits))
    assert hashlib.sha256(outcomes.encode()).hexdigest()[:16] == _PINNED_PARSES[group]


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("block_0() =>\n  s0 = s1,\n  s0 = s1,\n  s0 = s1,\n  s1 = s0",
         [Assign("s0", Var("s1"))] * 3 + [Assign("s1", Var("s0"))]),
        # The token path reads a statement on across a line break.
        ("block_0() =>\n  s0 = s1,\n  s0 = s1\n  + s2,\n  s0 = s1\n  + s2,\n  s0 = s1",
         [Assign("s0", Var("s1")), *[Assign("s0", BinOp("+", Var("s1"), Var("s2")))] * 2,
          Assign("s0", Var("s1"))]),
        ("block_0() => s0 = s1 + s2, s0 = s1 -- c\n + s2, s0 = s1",
         [*[Assign("s0", BinOp("+", Var("s1"), Var("s2")))] * 2, Assign("s0", Var("s1"))]),
        # An invalid statement after a valid one of the same shape.
        ("block_0() => s0 = s1, x0 = s1, s0 = s1",
         (1, 23, "a stack/field/local/rule-local target")),
        ("block_0() => s0 = fresh_1, s0 = fresh_, s0 = fresh_1",
         (1, 33, "a fresh_<n> variable")),
        ("block_0() => fresh_1 = s0, fresh_ = s0, fresh_1 = s0",
         (1, 28, "a stack/field/local/rule-local target")),
        pytest.param(
            "block_0() => s0 = 9, s0 = {n}, s0 = {n}", (1, 27, "a numeral of at most {d} digits"),
            marks=needs_int_digit_limit,
        ),
    ],
)
def test_parse_repeated_statement_outcomes(text, outcome):
    text = text.format(n="9" * (INT_DIGITS + 1))
    if isinstance(outcome, list):
        assert parse_rbr(text)[0].body == outcome
        return
    with pytest.raises(RbrSyntaxError) as err:
        parse_rbr(text)
    line, column, expected = outcome
    assert (err.value.line, err.value.column, err.value.expected) == (
        line, column, expected.format(d=INT_DIGITS))


def test_roundtrip_recovers_layout_tables():
    rules = rules_of(CORPUS["memory_shuffle"])
    parsed = parse_rbr(emit_rbr(rules))
    assert parsed[0].layout == rules[0].layout
    assert parsed[0].layout.lmap == {64: 0, 96: 1}


def test_saco_output_parses():
    for code in CORPUS.values():
        parse_rbr(export_saco(rules_of(code)))


def test_parse_guard_with_numeral():
    rules = parse_rbr("jump_4(s0) =>\n  eq(s0, 0) | call(block_9())")
    assert rules[0].guard.rhs == Num(0)
    assert rules[0].continuation.stack_count == 0


def test_parse_inconsistent_parameters_rejected():
    text = "block_0(g0) => s0 = 1\n\nblock_1(g0, g1) => s0 = 2"
    with pytest.raises(RbrSyntaxError):
        parse_rbr(text)


def test_parse_noncanonical_parameter_order_rejected():
    with pytest.raises(RbrSyntaxError):
        parse_rbr("block_0(g0, s0) => s0 = 1")
