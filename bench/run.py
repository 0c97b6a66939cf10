"""evmrbr benchmark: seeded contracts through the CLI and the rule parser.

    python3 bench/run.py --workload decompile-24k --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/`` and the generators from ``tests/progen.py``.  One
process, one thread.  Each cycle runs, in-process through
``evmrbr.cli.main``: ``rbr <f> -o <out>``, ``saco <f> -o <out>``,
``loops <f>``, then ``parse_rbr`` on the emitted text, then
``check <f> --runs R --seed S``.  Cycles repeat until the next one would
pass ``--seconds``.  Every output is checked; the last stdout line is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics from spans (``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
# The machine's speed is measured between operations by a fixed job that
# belongs to the benchmark, and each timing is scaled to the speed at
# which that job takes CAL_REFERENCE_S.  A shared VM's speed can swing by
# 2.5x within one run (bench/README.md, "Timing").  The job runs
# CAL_REPEATS times and its median counts, so one stalled repeat cannot
# halve or double an operation's scaled time.
CAL_ITEMS = 10_000
CAL_REPEATS = 4
CAL_REFERENCE_S = 0.0125
# Stop once this many cycles ran and the next would pass --seconds.  A
# traced run alternates traced and untraced cycles, so it needs three.
MIN_CYCLES = 3
# Suffix of the clock keys of operations run while traced.
TRACED = "+trace"
_FUNCTOR = re.compile(r"\b(?:and|or|xor|not)\(")

def calibrate() -> float:
    """Median wall time of a fixed allocation-heavy pure-Python job: the current speed.

    The cyclic collector is off while it runs, so the job's time does not
    depend on how many objects the program under test keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            rng = random.Random(1)
            items = [(rng.randrange(1 << 30), str(i)) for i in range(CAL_ITEMS)]
            index = {name: value for value, name in items}
            items.sort()
            sum(index[name] & 7 for _, name in items[::3])
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Raw timings, each also scaled by the calibration runs on either side."""

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.cal = [calibrate()]

    def tick(self) -> float:
        """Calibrate again; returns the scale factor of the interval since the last tick."""
        self.cal.append(calibrate())
        return CAL_REFERENCE_S * 2 / (self.cal[-2] + self.cal[-1])

    def add(self, key: str, elapsed: float, factor: float) -> None:
        self.raw.setdefault(key, []).append(elapsed)
        self.scaled.setdefault(key, []).append(elapsed * factor)

    def median(self, key: str) -> float:
        values = self.scaled.get(key)
        return statistics.median(values) if values else 0.0


def measure_setup(clock: Clock) -> None:
    """Time a fresh interpreter running ``import evmrbr.cli`` into ``clock``.

    The time is the child's CPU time (user + system).  Its wall time on the
    VM the benchmark was tuned on comes in steps of about 50 ms, which
    track wake-up latency rather than the work done.
    """
    cmd = [sys.executable, "-c", "import evmrbr.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes the .pyc files
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, env=env, check=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        clock.add("setup", cpu, clock.tick())


class Session:
    """One contract, the cycle of commands on it, and the gate on every output.

    An operation fails on a nonzero exit, an exception, a parse result that
    differs from the rules the library builds for the contract, a bit-op
    functor in the ``saco`` export, a loop count other than the generator's,
    a check divergence, or output that differs from the same operation's
    first output.  Only operations that pass give timing samples, so a
    regression that fails fast cannot pull a median down.
    """

    OPS = ("rbr", "saco", "loops", "parse", "check")

    def __init__(self, code: bytes, loops: int, check_runs: int, seed: int, workdir: Path,
                 clock: Clock | None = None):
        from evmrbr import decompile

        self.source = workdir / "input.hex"
        self.source.write_text(code.hex())
        self.rbr_out = workdir / "out.rbr"
        self.saco_out = workdir / "out.saco"
        self.reference = decompile(code)
        self.loops = loops
        self.check_runs = check_runs
        self.seed = seed
        self.clock = clock or Clock()
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.rbr_text = ""

    def cycle(self, tracer=None) -> None:
        """Run every operation once; with a tracer, record spans of each."""
        f = str(self.source)
        self.rbr_text = ""  # parse reads what this cycle's rbr wrote
        self._cli("rbr", ["rbr", f, "-o", str(self.rbr_out)], tracer, self._gate_rbr)
        self._cli("saco", ["saco", f, "-o", str(self.saco_out)], tracer, self._gate_saco)
        self._cli("loops", ["loops", f], tracer, self._gate_loops)
        self._parse(tracer)
        argv = ["check", f, "--runs", str(self.check_runs), "--seed", str(self.seed)]
        self._cli("check", argv, tracer, self._gate_check)

    def _cli(self, op, argv, tracer, gate) -> None:
        from evmrbr import cli

        self.attempted += 1
        out = io.StringIO()
        span = tracer.span("cli.main", request=True, detail=op) if tracer else nullcontext()
        elapsed = None
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()), span:
                start = time.perf_counter()
                status = cli.main(argv)
                elapsed = time.perf_counter() - start
        except Exception as err:  # a crash is a failed operation, not a crashed benchmark
            self.failures.append(f"{op}: {type(err).__name__}: {err}")
        except SystemExit as err:  # argparse rejects arguments by exiting
            self.failures.append(f"{op}: exit {err.code}")
        factor = self.clock.tick()
        if tracer:
            tracer.scales[tracer.request] = factor
        if elapsed is None:
            return
        if status != 0:
            self.failures.append(f"{op}: exit {status}")
            return
        if self._gate(op, gate(out.getvalue())):
            self.clock.add(op + TRACED if tracer else op, elapsed, factor)

    def _gate(self, op: str, output: str | None) -> bool:
        """Record a failure unless ``output`` is valid and equals the first one."""
        if output is None:
            return False
        if self.first.setdefault(op, output) != output:
            self.failures.append(f"{op}: output differs between identical runs")
            return False
        return True

    def _gate_rbr(self, stdout: str) -> str:
        self.rbr_text = self.rbr_out.read_text()
        return stdout + self.rbr_text

    def _gate_saco(self, stdout: str) -> str | None:
        text = self.saco_out.read_text()
        if _FUNCTOR.search(text):
            self.failures.append("saco: bit-op functor in the export")
            return None
        return stdout + text

    def _gate_loops(self, stdout: str) -> str | None:
        if not stdout.startswith(f"loops: {self.loops}\n"):
            self.failures.append(f"loops: expected {self.loops} loops, got {stdout[:40]!r}")
            return None
        return stdout

    def _gate_check(self, stdout: str) -> str | None:
        if not stdout.endswith(f"divergences: 0/{self.check_runs}\n"):
            self.failures.append(f"check: {stdout.splitlines()[-1:]}")
            return None
        return stdout

    def _parse(self, tracer) -> None:
        from evmrbr import parse_rbr

        self.attempted += 1
        text = self.rbr_text
        span = tracer.span("parse.parse_rbr", request=True) if tracer else nullcontext()
        elapsed = None
        try:
            with span as s:
                start = time.perf_counter()
                rules = parse_rbr(text)
                elapsed = time.perf_counter() - start
        except Exception as err:
            self.failures.append(f"parse: {type(err).__name__}: {err}")
        factor = self.clock.tick()
        if tracer:
            tracer.scales[tracer.request] = factor
            s.counts = {"bytes": len(text)}
        if elapsed is None:
            return
        if rules != self.reference:
            self.failures.append("parse: parse_rbr(emitted text) differs from the rules")
            return
        self.clock.add("parse" + TRACED if tracer else "parse", elapsed, factor)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_cycles(session: Session, seconds: float, tracer=None) -> int:
    """Repeat cycles for ``seconds``; with a tracer, every other cycle is traced.

    Returns the number of cycles run.
    """
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        if tracer is not None and cycles % 2 == 0:
            with tracer.wrapped():
                session.cycle(tracer)
        else:
            session.cycle()
        cycles += 1
        last = time.perf_counter() - cycle_start
        if cycles >= MIN_CYCLES and time.perf_counter() - start + last > seconds:
            return cycles


def per_layer(tracer: Tracer, clock: Clock) -> dict[str, float]:
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = sum(
        clock.median(op + TRACED) - clock.median(op) for op in Session.OPS
    )
    return metrics


def end_to_end(session: Session) -> dict[str, float]:
    clock = session.clock
    return {
        "setup_s": clock.median("setup"),
        **{f"{op}_s": clock.median(op) for op in Session.OPS},
        "rbr_bytes": len(session.first.get("rbr", "").encode()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - session.failed / session.attempted,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    for needed in (ROOT / "src" / "evmrbr", ROOT / "tests" / "progen.py"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS, InputError, build, validate

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    units = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"
        ]
    }
    clock = Clock()
    if not args.trace:
        measure_setup(clock)
    contract = build(workload, args.seed)
    try:
        shape = validate(contract, workload, args.seed)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"input: {workload.name} seed {args.seed}: {shape}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        session = Session(contract.code, contract.loops, workload.check_runs, args.seed,
                          Path(workdir), clock)
        cycles = run_cycles(session, args.seconds, tracer)

    stem = f"{workload.name}-{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"samples-{stem}.json", "w") as handle:
        json.dump({"raw_s": clock.raw, "scaled_s": clock.scaled, "calibration_s": clock.cal},
                  handle)
    if tracer:
        tracer.dump(OUT_DIR / f"spans-{stem}.json")
        metrics = per_layer(tracer, clock)
    else:
        metrics = end_to_end(session)

    for failure in session.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:28} {value:>16.6g} {units[name]}")
    print(f"fail_ratio {session.failed}/{session.attempted}; "
          f"{cycles} cycles; "
          f"calibration median {statistics.median(clock.cal):.4f} s "
          f"(reference {CAL_REFERENCE_S} s)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
