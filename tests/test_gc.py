"""The pipeline makes no reference cycles.

``cli.main`` pauses the cyclic collector for the whole of a command.  That
is safe only while reference counting frees everything a stage makes:
cyclic garbage made while the collector is paused would pile up until the
command ends.  Each test here runs the stages with the collector off and
``gc.DEBUG_SAVEALL`` set, and asks a collection what it found after each.
"""

import gc
import io
import random
import sys

import pytest

from corpus import CORPUS, COUNTER_LOOP
from progen import gen_program

from evmrbr import (
    decompile,
    detect_loops,
    differential_check,
    disassemble,
    emit_rbr,
    export_saco,
    parse_rbr,
    resolve_cfg,
    split_blocks,
    translate_cfg,
)
from evmrbr.cli import main
from evmrbr.errors import EvmRbrError

PROGRAMS = {**CORPUS, **{f"gen_{seed}": gen_program(random.Random(seed)) for seed in range(3)}}


@pytest.fixture()
def cycles():
    """A function that returns the type names of the cyclic garbage made
    since its last call (or since the test began), and then frees it."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()

    def found() -> list[str]:
        # Saved garbage stays unreachable, so it must be freed by a second
        # collection without DEBUG_SAVEALL, or the next call finds it again.
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        names = sorted(type(obj).__name__ for obj in gc.garbage)
        gc.garbage.clear()
        gc.set_debug(flags)
        gc.collect()
        return names

    try:
        yield found
    finally:
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def _stages(code: bytes, cycles, n_cases: int = 3) -> dict[str, list[str]]:
    """Run every stage on ``code``: the cyclic garbage each left, by stage.

    A stage that raises ends the run, and its message goes under
    ``raised``.  Under ``freed`` is what the results left once dropped.
    """
    found = {}

    def stage(name, function, *args, **kwargs):
        result = function(*args, **kwargs)
        found[name] = cycles()
        return result

    def run():
        try:
            instructions = stage("disassemble", disassemble, code)
            blocks = stage("split_blocks", split_blocks, instructions)
            cfg = stage("resolve_cfg", resolve_cfg, blocks)
            rules = stage("translate_cfg", translate_cfg, cfg)
            with_nops = stage("translate_cfg nops", translate_cfg, cfg, nops=True)
            text = stage("emit_rbr", emit_rbr, rules)
            nops_text = stage("emit_rbr nops", emit_rbr, with_nops)
            stage("export_saco", export_saco, rules)
            stage("detect_loops", detect_loops, rules)
            assert stage("parse_rbr", parse_rbr, text) == rules
            assert stage("parse_rbr nops", parse_rbr, nops_text) == with_nops
            stage("differential_check", differential_check, code, n_cases=n_cases)
        except EvmRbrError as err:
            found["raised"] = str(err)

    cycles()  # what the test runner left since the fixture collected
    run()
    found["freed"] = cycles()
    return found


@pytest.mark.parametrize("name", PROGRAMS)
def test_stages_make_no_cycles(cycles, name):
    found = _stages(PROGRAMS[name], cycles)
    assert "raised" not in found
    assert found == dict.fromkeys(found, [])


@pytest.mark.parametrize(
    "hexstr, stages, message",
    [
        # the jump target is read back from memory: unresolved
        ("6000356000525b600051565b00", 11, "cannot check code with unresolved jumps"),
        ("5601", 11, "cannot check code with unresolved jumps"),
    ],
)
def test_raising_stages_make_no_cycles(cycles, hexstr, stages, message):
    found = _stages(bytes.fromhex(hexstr), cycles)
    assert found.pop("raised").startswith(message)
    assert len(found) == stages + 1
    assert found == dict.fromkeys(found, [])


def _flipped_guard(code: bytes):
    rules = decompile(code)
    rule = next(rule for rule in rules if rule.guard is not None)
    rule.guard = rule.guard.negated()
    return rules


@pytest.mark.parametrize("flip", [False, True], ids=["translated", "flipped-guard"])
def test_check_garbage_does_not_grow_with_cases(cycles, flip):
    rules = _flipped_guard(COUNTER_LOOP) if flip else None
    cycles()
    found = {}
    for n_cases in (1, 20):
        report = differential_check(COUNTER_LOOP, n_cases=n_cases, seed=3, rules=rules)
        rule_runs = [d.quantity for d in report.divergences].count("rule-run")
        assert rule_runs == (n_cases if flip else 0), report.text()
        del report
        found[n_cases] = cycles()
    assert found == {1: [], 20: []}


def test_a_second_cli_call_makes_no_cycles(cycles, monkeypatch):
    # The argument parser is built once per process, by the first call.
    def call(argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(COUNTER_LOOP.hex()))
        assert main(argv) == 0

    for argv in (["rbr", "-"], ["check", "-", "--runs", "3"]):
        call(argv)
        cycles()
        call(argv)
        assert cycles() == [], argv
