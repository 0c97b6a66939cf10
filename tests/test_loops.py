"""Loop detection over the rule call graph."""

import random

import pytest

from corpus import CORPUS, COUNTER_LOOP
from helpers import brute_force_loops
from progen import gen_program, make_loops
from test_cfg import _RESOLVER_PROGRAMS
from test_cli_outcomes import inputs as cli_outcome_inputs

from evmrbr.asm import disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.loops import detect_loops, rule_call_graph
from evmrbr.translate import call_graph, translate_cfg


def rules_of(code: bytes):
    return translate_cfg(resolve_cfg(split_blocks(disassemble(code))))


def test_straight_line_has_no_loops():
    assert detect_loops(rules_of(bytes.fromhex("6003565b00"))) == []


def test_counter_loop_members():
    loops = detect_loops(rules_of(COUNTER_LOOP))
    assert loops == [["block_4", "jump_4", "block_11"]]


def test_fixture_counts():
    for n in (0, 1, 2, 6):
        assert len(detect_loops(rules_of(make_loops(n)))) == n


def test_loops_sorted_by_smallest_member():
    loops = detect_loops(rules_of(make_loops(3)))
    firsts = [members[0] for members in loops]
    assert firsts == sorted(firsts, key=lambda n: int(n.split("_")[1]))


def test_matches_brute_force_on_small_rule_graphs():
    programs = [CORPUS["counter_loop"], CORPUS["two_block_jump"], make_loops(2)]
    for code in programs:
        rules = rules_of(code)
        graph = rule_call_graph(rules)
        if len(graph) > 12:
            continue
        assert [sorted(m) for m in detect_loops(rules)] == [
            sorted(m) for m in brute_force_loops(graph)
        ]


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(51)
    for _ in range(200):
        size = rng.randint(1, 10)
        names = [f"block_{i}" for i in range(size)]
        # Successors may name rules outside the graph, which are skipped.
        targets = names + [f"block_{i}" for i in range(size, size + 3)]
        graph = {
            n: {m for m in targets if rng.random() < 0.25} for n in names
        }
        from evmrbr.loops import _tarjan

        tarjan_loops = sorted(
            sorted(c)
            for c in _tarjan(graph)
            if len(c) > 1 or c[0] in graph.get(c[0], set())
        )
        assert tarjan_loops == sorted(sorted(m) for m in brute_force_loops(graph))
        assert detect_loops(graph) == sorted(
            brute_force_loops(graph), key=lambda members: int(members[0].split("_")[1])
        )


def test_self_loop_detected():
    graph = {"block_0": {"block_0"}}
    from evmrbr.loops import _tarjan

    comps = _tarjan(graph)
    assert comps == [["block_0"]]


def _call_graph_programs():
    yield from CORPUS.values()
    yield from (gen_program(random.Random(seed)) for seed in range(100))
    yield from cli_outcome_inputs().values()


@pytest.mark.parametrize("cap", [1, 4, 32])
def test_call_graph_reads_the_translated_call_graph_off_the_cfg(cap):
    programs = [*_RESOLVER_PROGRAMS.values()]
    if cap == 32:
        programs += _call_graph_programs()
    for code in programs:
        cfg = resolve_cfg(split_blocks(disassemble(code)), cap)
        graph = call_graph(cfg)
        assert graph == rule_call_graph(translate_cfg(cfg)), code.hex()
        assert detect_loops(graph) == detect_loops(translate_cfg(cfg)), code.hex()


def test_detect_loops_takes_rules_or_their_call_graph():
    for n in (0, 1, 2, 6):
        rules = rules_of(make_loops(n))
        assert detect_loops(rule_call_graph(rules)) == detect_loops(rules)
        assert len(detect_loops(rule_call_graph(rules))) == n

