"""Self-tests of the benchmark: input generators, the output gate, the tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import evmrbr.cli  # noqa: E402
import evmrbr.diff  # noqa: E402
from evmrbr import decompile, detect_loops, differential_check  # noqa: E402
from progen import gen_program  # noqa: E402
from run import Clock, Session, end_to_end, per_layer  # noqa: E402
from spans import BINDINGS, BOOKKEEPING, Span, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Contract,
    InputError,
    grown_program,
    subroutine_program,
    validate,
)

SMALL = replace(WORKLOADS["decompile-24k"], target_bytes=2048)
ANY_SIZE = replace(SMALL, target_bytes=1)


def test_grown_program_is_the_shortest_past_its_target():
    contract = grown_program(7, SMALL.target_bytes)
    shape = validate(contract, SMALL, 7)
    assert shape["bytes"] >= SMALL.target_bytes
    assert len(detect_loops(decompile(contract.code))) == contract.loops
    segments = next(
        n for n in range(1, 1000) if gen_program(random.Random(7), segments=n) == contract.code
    )
    assert len(gen_program(random.Random(7), segments=segments - 1)) < SMALL.target_bytes


def test_subroutines_meet_their_invariants():
    workload = WORKLOADS["subroutines"]
    contract = subroutine_program(3, workload.target_bytes)
    shape = validate(contract, workload, 3)
    assert shape["bytes"] >= workload.target_bytes
    assert shape["cloned"] >= workload.min_clone_share * shape["blocks"]
    assert contract.loops == 0 == len(detect_loops(decompile(contract.code)))


@pytest.mark.parametrize(
    "code, workload, message",
    [
        (bytes.fromhex("600160005500"), SMALL, "below"),
        # PUSH1 0, CALLDATALOAD, JUMP: the target is input data
        (bytes.fromhex("60003556"), ANY_SIZE, "unresolved"),
        (gen_program(random.Random(1), segments=20),
         replace(ANY_SIZE, min_clone_share=0.4), "cloned"),
        # (2**256 - 1) + 1 wraps to 0 on the machine but not in the rules
        (bytes.fromhex("7f" + "ff" * 32 + "600101600055" + "00"), ANY_SIZE, "check"),
    ],
)
def test_validate_rejects_unfit_inputs(code, workload, message):
    with pytest.raises(InputError, match=message):
        validate(Contract(code, loops=0), workload, 1)


def _small_contract() -> Contract:
    code = gen_program(random.Random(5), segments=40)
    return Contract(code, len(detect_loops(decompile(code))))


def test_gate_passes_a_correct_program(tmp_path):
    contract = _small_contract()
    session = Session(contract.code, contract.loops, check_runs=5, seed=5, workdir=tmp_path)
    session.cycle()
    session.cycle()
    assert (session.attempted, session.failed) == (10, 0), session.failures


def test_gate_counts_a_flipped_guard_as_failures(tmp_path, monkeypatch):
    contract = _small_contract()
    session = Session(contract.code, contract.loops, check_runs=5, seed=5, workdir=tmp_path)
    executed = differential_check(contract.code, n_cases=5, seed=5).executed_rules
    target = next(i for i, r in enumerate(session.reference) if r.is_jump and r.name in executed)
    translate = evmrbr.cli.translate_cfg

    def flipped(cfg, **kwargs):
        rules = translate(cfg, **kwargs)
        rule = rules[target]
        rules[target] = replace(rule, guard=rule.guard.negated())
        return rules

    monkeypatch.setattr(evmrbr.cli, "translate_cfg", flipped)
    monkeypatch.setattr(evmrbr.diff, "translate_cfg", flipped)
    session.cycle()
    assert session.attempted == 5
    failed_ops = {f.split(":")[0] for f in session.failures}
    assert {"parse", "check"} <= failed_ops, session.failures
    # failed operations give no timing samples
    assert not {"parse", "check"} & session.clock.scaled.keys()


def _traced_cycle(contract, tmp_path, bindings=BINDINGS):
    session = Session(contract.code, contract.loops, check_runs=3, seed=2, workdir=tmp_path)
    tracer = Tracer()
    with tracer.wrapped(bindings):
        session.cycle(tracer)
    assert session.failed == 0, session.failures
    return tracer, layer_metrics(tracer)


def test_deterministic_counts_repeat(tmp_path):
    contract = subroutine_program(2, 1024, subs=4)
    _, first = _traced_cycle(contract, tmp_path)
    _, second = _traced_cycle(contract, tmp_path)
    rules = len(decompile(contract.code))
    for name in ("translate.rules", "emit.rbr_bytes", "cfg.blocks_cloned",
                 "cfg.resolve_calls", "evm_exec.disassemble_calls"):
        assert first[name] == second[name], name
    assert first["translate.rules"] == rules
    assert first["cfg.blocks_cloned"] > 0
    assert first["cfg.resolve_calls"] == 2
    assert first["evm_exec.disassemble_calls"] == 3


def test_missing_binding_records_zero_calls(tmp_path):
    bindings = [b for b in BINDINGS if b[:2] != ("evmrbr.evm_exec", "disassemble")]
    bindings += [("evmrbr.evm_exec", "disassemble_gone", "asm.disassemble", None),
                 ("evmrbr.no_such_module", "run", "x.run", None),
                 ("evmrbr.diff", "_make_calldata", "diff.calldata", lambda r: {"n": r.missing})]
    tracer, metrics = _traced_cycle(_small_contract(), tmp_path, bindings)
    assert metrics["evm_exec.disassemble_calls"] == 0
    assert tracer.missing == [
        "evmrbr.evm_exec.disassemble_gone",
        "evmrbr.no_such_module.run",
        "diff.calldata counts (AttributeError)",
    ]
    assert metrics["evm_exec.run_evm_s"] > 0


def test_prep_leaves_out_the_benchmarks_counting():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "diff.differential_check", None, 1, 0.0, 10.0),
        Span(1, "cfg.resolve_cfg", 0, 1, 0.0, 1.0),
        Span(2, BOOKKEEPING, 0, 1, 1.0, 3.0),
        Span(3, "evm_exec.run_evm", 0, 1, 4.0, 5.0),
        Span(4, BOOKKEEPING, 0, 1, 5.0, 6.0),
    ]
    assert layer_metrics(tracer)["diff.prep_s"] == 2.0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    session = Session(bytes.fromhex("00"), 0, check_runs=1, seed=1, workdir=tmp_path)
    session.attempted = 1
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end(session))
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer(Tracer(), Clock()))
