"""Canonical text emission and the bit-op-forgetting export."""

import random
import re
from dataclasses import replace

import pytest

from corpus import ADD_STORE, BITOPS, CORPUS
from progen import gen_program
from test_cfg import _sweep_programs

from evmrbr.asm import disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.emit import emit_rbr, export_saco
from evmrbr.parse import parse_rbr
from evmrbr.rbr import Assign, BitOp, Call, Nop, Not, Rule, Var, VarLayout
from evmrbr.translate import translate_cfg

BITOP_FUNCTOR = re.compile(r"\b(?:and|or|xor|not)\(")


def rules_of(code: bytes, nops: bool = False):
    return translate_cfg(resolve_cfg(split_blocks(disassemble(code))), nops=nops)


def test_emit_add_store():
    text = emit_rbr(rules_of(ADD_STORE))
    assert "g0 = s0" in text
    assert "call(" not in text
    assert text.startswith("block_0(g0) =>")


def test_emit_jump_rule_shape():
    text = emit_rbr(rules_of(CORPUS["dispatcher"]))
    assert re.search(r"jump_\d+\(.*\) =>\n  eq\(s\d+, s\d+\) \| call\(block_\d+\(.*\)\)", text)


def test_emit_deterministic():
    for code in CORPUS.values():
        assert emit_rbr(rules_of(code)) == emit_rbr(rules_of(code))


def test_emit_orders_rules_by_name():
    text = emit_rbr(rules_of(CORPUS["counter_loop"]))
    heads = [line.split("(")[0] for line in text.splitlines() if line and not line.startswith(("-", " "))]
    assert heads == ["block_0", "block_4", "jump_4", "jump_4", "block_11", "block_23"]


def test_emit_header_tables():
    text = emit_rbr(rules_of(CORPUS["memory_shuffle"]))
    assert "-- lmap: 64 -> l0, 96 -> l1" in text
    text = emit_rbr(rules_of(CORPUS["calldata_env"]))
    assert "-- md: md0 = calldata[0]" in text


def test_emit_prints_markers_exactly_when_the_rules_carry_them():
    rules = rules_of(ADD_STORE, nops=True)
    assert "nop(PUSH1)" in emit_rbr(rules)
    stripped = [replace(r, body=[s for s in r.body if not isinstance(s, Nop)]) for r in rules]
    assert emit_rbr(stripped) == emit_rbr(rules_of(ADD_STORE))


def test_emitted_guard_and_call_layout():
    text = emit_rbr(rules_of(CORPUS["counter_loop"]))
    assert "block_4(s0, s1, g0) =>" in text
    assert "call(jump_4(s0, s1, s2, g0))" in text
    assert "eq(s2, 0) | call(block_23(s0, s1, g0))" in text
    assert "neq(s2, 0) | call(block_11(s0, s1, g0))" in text


def test_saco_rewrites_bitops():
    layout = VarLayout()
    rule = Rule(
        name="block_0",
        stack_params=3,
        layout=layout,
        body=[Assign("s2", BitOp("and", Var("s1"), Var("s0")))],
    )
    text = export_saco([rule])
    assert "s2 = fresh_0" in text
    assert "and(" not in text
    assert text.startswith("-- saco\n")


def test_saco_numbers_a_shared_statement_per_rule():
    # One statement object in several rules is rewritten with each rule's
    # own fresh counter.
    layout = VarLayout()
    drawn = Assign("s1", Var("fresh_3"))
    bitop = Assign("s2", BitOp("and", Var("s1"), Var("s0")))
    rules = [
        Rule("block_0", 3, layout, body=[drawn, bitop, bitop]),
        Rule("block_1", 3, layout, body=[bitop]),
        Rule("block_2", 3, layout, body=[bitop, drawn]),
    ]
    assert export_saco(rules) == (
        "-- saco\n"
        "block_0(s0, s1, s2) =>\n  s1 = fresh_3,\n  s2 = fresh_4,\n  s2 = fresh_5\n\n"
        "block_1(s0, s1, s2) =>\n  s2 = fresh_0\n\n"
        "block_2(s0, s1, s2) =>\n  s2 = fresh_4,\n  s1 = fresh_3\n"
    )


def test_emit_rules_of_two_layouts():
    rules = [
        Rule("block_0", 1, VarLayout(k=0), continuation=Call("block_1", 1)),
        Rule("block_1", 1, VarLayout(k=1)),
    ]
    assert emit_rbr(rules) == (
        "block_0(s0, g0) =>\n  call(block_1(s0, g0))\n\nblock_1(s0, g0, g1) =>\n"
    )


def test_saco_identity_without_bitops():
    rules = rules_of(ADD_STORE, nops=True)
    assert export_saco(rules) == "-- saco\n" + emit_rbr(rules_of(ADD_STORE))


def test_saco_purity_and_reparse():
    rng = random.Random(31)
    programs = list(CORPUS.values()) + [gen_program(rng) for _ in range(10)]
    for code in programs:
        exported = export_saco(rules_of(code))
        assert not BITOP_FUNCTOR.search(exported)
        parse_rbr(exported)  # must stay inside the grammar


def test_saco_fresh_indices_continue():
    text = export_saco(rules_of(BITOPS))
    assert "fresh_0" in text
    reparsed = parse_rbr(text)
    for rule in reparsed:
        fresh = [
            int(s.value.name[6:])
            for s in rule.body
            if isinstance(s.value, Var) and s.value.name.startswith("fresh_")
        ]
        assert fresh == sorted(set(fresh))
    assert fresh == [0, 1]  # BITOPS is one rule with an and and an or


def test_saco_keeps_arithmetic():
    text = export_saco(rules_of(ADD_STORE))
    assert "s0 = s1 + s0" in text


def test_empty_rules_emit_empty_text():
    assert emit_rbr([]) == ""


# --- the export against a rewrite of the rules --------------------------------

def _rewritten_saco(rules) -> str:
    """The SACO export by its definition: drop the ``nop`` markers, replace
    each bit-operation assignment by one from a new fresh variable numbered
    on from the rule's counter, then emit the rewritten rules."""
    rewritten = []
    for rule in rules:
        counter = rule.fresh_count()
        body = []
        for stmt in rule.body:
            if isinstance(stmt, Nop):
                continue
            if isinstance(stmt.value, (BitOp, Not)):
                stmt = Assign(stmt.target, Var(f"fresh_{counter}"))
                counter += 1
            body.append(stmt)
        rewritten.append(replace(rule, body=body))
    return "-- saco\n" + emit_rbr(rewritten)


@pytest.mark.parametrize("nops", [False, True])
def test_saco_export_matches_the_rewrite(nops):
    for code in [*CORPUS.values(), *_sweep_programs()]:
        rules = rules_of(code, nops=nops)
        assert export_saco(rules) == _rewritten_saco(rules)
