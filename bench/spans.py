"""In-memory spans recorded from outside the program.

A ``Tracer`` keeps one span per call: name, start, end, parent span and
request id, plus counts taken from the call's arguments and result.  It
records spans around the benchmark's own calls (``tracer.span``) and,
while ``tracer.wrapped()`` is active, around the module bindings that the
CLI and ``differential_check`` call inside, such as
``evmrbr.diff.run_evm``.  Bindings that a later version of the program no
longer has are skipped, so their layers report 0 calls instead of failing;
counts that cannot be taken from a result that changed shape are left out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Spans named BOOKKEEPING cover the benchmark's own counting inside a traced
# call; they are excluded from every layer's self time.
BOOKKEEPING = "trace.bookkeeping"


def _cfg_counts(cfg) -> dict[str, int]:
    blocks = cfg.blocks.values()
    return {
        "blocks_live": sum(1 for b in blocks if not b.dead),
        "blocks_dead": sum(1 for b in blocks if b.dead),
        "blocks_cloned": sum(1 for bid in cfg.blocks if "_c" in bid),
        "unresolved": len(cfg.unresolved),
    }


def _translate_counts(rules) -> dict[str, int]:
    return {
        "rules": len(rules),
        "fresh_vars": sum(rule.fresh_count() for rule in rules),
        "layout_params": len(rules[0].layout.param_names()) if rules else 0,
    }


# (module, attribute, span name, counts taken from the result)
BINDINGS = (
    ("evmrbr.cli", "parse_hex", "asm.parse_hex", None),
    ("evmrbr.cli", "disassemble", "asm.disassemble", lambda r: {"instructions": len(r)}),
    ("evmrbr.cli", "split_blocks", "cfg.split_blocks", None),
    ("evmrbr.cli", "resolve_cfg", "cfg.resolve_cfg", _cfg_counts),
    ("evmrbr.cli", "translate_cfg", "translate.translate_cfg", _translate_counts),
    ("evmrbr.cli", "emit_rbr", "emit.emit_rbr", lambda r: {"bytes": len(r)}),
    ("evmrbr.cli", "export_saco", "emit.export_saco", None),
    ("evmrbr.cli", "detect_loops", "loops.detect_loops", lambda r: {"loops": len(r)}),
    ("evmrbr.cli", "differential_check", "diff.differential_check",
     lambda r: {"executed_rules": len(r.executed_rules)}),
    ("evmrbr.diff", "disassemble", "asm.disassemble", lambda r: {"instructions": len(r)}),
    ("evmrbr.diff", "split_blocks", "cfg.split_blocks", None),
    ("evmrbr.diff", "resolve_cfg", "cfg.resolve_cfg", _cfg_counts),
    ("evmrbr.diff", "translate_cfg", "translate.translate_cfg", _translate_counts),
    ("evmrbr.diff", "run_evm", "evm_exec.run_evm", lambda r: {"block_steps": len(r[1])}),
    ("evmrbr.diff", "run_rbr", "rbr_exec.run_rbr", lambda r: {"rule_steps": len(r[1])}),
    ("evmrbr.evm_exec", "disassemble", "asm.disassemble", lambda r: {"instructions": len(r)}),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    detail: str = ""
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []  # bindings not found, counts not taken
        # request id -> factor scaling its spans to the reference speed
        self.scales: dict[int, float] = {}
        self._stack: list[Span] = []
        self._request = 0

    @property
    def request(self) -> int:
        """Id of the latest request."""
        return self._request

    @contextmanager
    def span(self, name: str, request: bool = False, detail: str = ""):
        """Record a span around the block; ``request=True`` starts a new request id."""
        parent = self._stack[-1] if self._stack else None
        if request:
            self._request += 1
        req = self._request if request or parent else None
        s = Span(len(self.spans), name, parent.id if parent else None, req, time.perf_counter(),
                 detail=detail)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                # Counting runs inside the parent's interval; its own span
                # keeps it out of the parent's self time.
                with self.span(BOOKKEEPING):
                    try:
                        s.counts = counter(result)
                    except Exception as err:  # a reshaped result must not fail the call
                        self._note_missing(f"{name} counts ({type(err).__name__})")
            return result

        return traced

    @contextmanager
    def wrapped(self, bindings=BINDINGS):
        """Wrap the named module bindings for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                if module is None or not callable(getattr(module, attr, None)):
                    self._note_missing(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover,
        scaled by its request's factor."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return {sid: t * self.scales.get(self.spans[sid].request, 1.0) for sid, t in own.items()}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "missing": self.missing,
                    "request_scales": self.scales,
                    "spans": [asdict(s) for s in self.spans],
                },
                handle,
            )


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans: medians of per-call self times and counts.

    Layers with no spans report 0.
    """
    own = tracer.self_times()
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_s(name):
        return _median([own[s.id] for s in by_name.get(name, [])])

    def count(name, key):
        return _median([s.counts[key] for s in by_name.get(name, []) if key in s.counts], 0)

    def descendants(span):
        for child in children.get(span.id, []):
            yield child
            yield from descendants(child)

    checks = [s for s in by_name.get("cli.main", []) if s.detail == "check"]

    def per_check(name, parent=None):
        """Calls of ``name`` (made from a ``parent`` span, if given) per check command."""
        return _median(
            [
                sum(
                    1
                    for c in descendants(s)
                    if c.name == name and parent in (None, tracer.spans[c.parent].name)
                )
                for s in checks
            ],
            0,
        )

    # Prep runs from entry to the first case, less the benchmark's own
    # counting in that interval.
    prep = []
    for d in by_name.get("diff.differential_check", []):
        cases = [c.start for c in children.get(d.id, []) if c.name == "evm_exec.run_evm"]
        if cases:
            counting = sum(
                c.end - c.start
                for c in descendants(d)
                if c.name == BOOKKEEPING and c.end <= cases[0]
            )
            prep.append((cases[0] - d.start - counting) * tracer.scales.get(d.request, 1.0))
    rules = count("translate.translate_cfg", "rules")
    parse_rates = [
        s.counts["bytes"] / own[s.id]
        for s in by_name.get("parse.parse_rbr", [])
        if "bytes" in s.counts and own[s.id] > 0
    ]
    return {
        "asm.parse_hex_s": self_s("asm.parse_hex"),
        "asm.disassemble_s": self_s("asm.disassemble"),
        "asm.instructions": count("asm.disassemble", "instructions"),
        "cfg.split_blocks_s": self_s("cfg.split_blocks"),
        "cfg.resolve_cfg_s": self_s("cfg.resolve_cfg"),
        "cfg.resolve_calls": per_check("cfg.resolve_cfg"),
        "cfg.blocks_live": count("cfg.resolve_cfg", "blocks_live"),
        "cfg.blocks_dead": count("cfg.resolve_cfg", "blocks_dead"),
        "cfg.blocks_cloned": count("cfg.resolve_cfg", "blocks_cloned"),
        "cfg.unresolved": count("cfg.resolve_cfg", "unresolved"),
        "translate.translate_cfg_s": self_s("translate.translate_cfg"),
        "translate.rules": rules,
        "translate.fresh_vars": count("translate.translate_cfg", "fresh_vars"),
        "translate.layout_params": count("translate.translate_cfg", "layout_params"),
        "emit.emit_rbr_s": self_s("emit.emit_rbr"),
        "emit.export_saco_s": self_s("emit.export_saco"),
        "emit.rbr_bytes": count("emit.emit_rbr", "bytes"),
        "parse.parse_rbr_s": self_s("parse.parse_rbr"),
        "parse.bytes_per_s": _median(parse_rates),
        "loops.detect_loops_s": self_s("loops.detect_loops"),
        "loops.loops": count("loops.detect_loops", "loops"),
        "evm_exec.run_evm_s": self_s("evm_exec.run_evm"),
        "evm_exec.disassemble_calls": per_check("asm.disassemble", parent="evm_exec.run_evm"),
        "evm_exec.block_steps": count("evm_exec.run_evm", "block_steps"),
        "rbr_exec.run_rbr_s": self_s("rbr_exec.run_rbr"),
        "rbr_exec.rule_steps": count("rbr_exec.run_rbr", "rule_steps"),
        "diff.differential_check_s": self_s("diff.differential_check"),
        "diff.prep_s": _median(prep),
        "diff.rule_coverage": count("diff.differential_check", "executed_rules") / rules
        if rules
        else 0.0,
        "cli.main_self_s": self_s("cli.main"),
    }

