"""Differential check: concrete machine vs. translated rules.

For random input vectors (calldata, environment, initial storage) the
bytecode is executed by the concrete interpreter and the translated rules
by the rule interpreter; the two must agree on final storage at constant
keys, final tracked memory words, and the sequence of blocks visited.
Inputs are drawn below 2**16 so programs built for the check stay inside
the overflow-free regime where wrap-around and unbounded arithmetic
coincide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .asm import disassemble
from .cfg import Block, Cfg, id_sort_key, resolve_cfg, split_blocks, successors
from .errors import EvmRbrError
from .evm_exec import run_evm
from .opcodes import KINDS
from .rbr import Rule, rule_sort_key
from .rbr_exec import index_rules, run_rbr
from .translate import translate_cfg

INPUT_BOUND = 1 << 16

# Calldata is built densely up to the highest constant offset the code reads,
# so offsets are bounded; 2**24 bytes is far past any real contract's input.
CALLDATA_OFFSET_BOUND = 1 << 24

# Environment quantities drawn per case, in the order they are drawn.
_ENV_NAMES = tuple(sorted(arg for kind, arg in KINDS if kind == "env"))


@dataclass
class Divergence:
    case: int
    quantity: str
    evm: str
    rbr: str

    def line(self) -> str:
        return f"case {self.case}: {self.quantity} evm={self.evm} rbr={self.rbr}"


@dataclass
class DiffReport:
    n_cases: int
    divergences: list[Divergence] = field(default_factory=list)
    executed_rules: set[str] = field(default_factory=set)

    @property
    def agreed(self) -> bool:
        return not self.divergences

    def text(self) -> str:
        lines = [d.line() for d in self.divergences]
        lines.append(f"divergences: {len(self.divergences)}/{self.n_cases}")
        return "\n".join(lines) + "\n"


def differential_check(
    code: bytes,
    n_cases: int = 20,
    seed: int = 0,
    rules: list[Rule] | None = None,
    step_limit: int = 10**6,
    *,
    blocks: list[Block] | None = None,
) -> DiffReport:
    """Run ``n_cases`` random vectors through both interpreters.

    ``rules`` overrides the translation (used to prove the harness catches
    corrupted rule sets).  ``blocks``, when given, must be
    ``split_blocks(disassemble(code))`` of this same ``code``: a caller that
    has split it already passes its blocks, and this call resolves them
    instead of decoding and splitting ``code`` again.  The rules are indexed
    once and every case runs on that index; the concrete side runs on
    ``code`` itself, which each case disassembles again, and ``disassemble``
    copies the instructions it kept from the first decode of these bytes.
    Divergences and rule-interpreter failures are report content;
    concrete-interpreter failures raise, since they mean the program is
    outside the oracle's subset.
    """
    if blocks is None:
        blocks = split_blocks(disassemble(code))
    cfg = resolve_cfg(blocks)
    if cfg.entry is None:
        raise EvmRbrError("empty bytecode")
    if cfg.unresolved:
        raise EvmRbrError(f"cannot check code with unresolved jumps: {cfg.unresolved}")
    if rules is None:
        rules = translate_cfg(cfg)
    layout = rules[0].layout
    entry_rule = f"block_{cfg.entry}"
    pc_edges = _pc_edges(cfg)
    index = index_rules(rules)
    # Rule name -> the pc of its block; a jump rule has none.
    block_pcs = {
        name: rule_sort_key(name)[0] for name in index.entries if name.startswith("block_")
    }
    # The cases need no block, CFG or Rule object: let this call's references go.
    del blocks, cfg, rules

    rng = random.Random(seed)
    report = DiffReport(n_cases=n_cases)
    # One buffer serves every case.  It is made only when a case runs, so a
    # check of no cases never fails on the offset bound.
    calldata = _make_calldata(layout) if n_cases > 0 else bytearray()
    for case in range(n_cases):
        _draw_calldata(calldata, layout, rng)
        env = {name: rng.randrange(INPUT_BOUND) for name in _ENV_NAMES}
        storage = {i: rng.randrange(INPUT_BOUND) for i in range(layout.k + 1)}
        fresh_seed = rng.randrange(1 << 30)

        evm_state, evm_trace = run_evm(
            code, calldata, env, step_limit=step_limit, storage=dict(storage)
        )
        init = _initial_bindings(layout, calldata, env, storage)
        try:
            rbr_state, rule_trace = run_rbr(
                index, init, step_limit=step_limit, entry=entry_rule, fresh_seed=fresh_seed
            )
        except EvmRbrError as err:
            report.divergences.append(
                Divergence(case, "rule-run", "halt", f"{type(err).__name__}: {err}")
            )
            continue

        report.executed_rules.update(rule_trace)
        rule_pcs = [pc for pc in map(block_pcs.get, rule_trace) if pc is not None]
        _compare(case, layout, evm_state, evm_trace, rbr_state, rule_pcs, pc_edges, report)
    return report


def _make_calldata(layout) -> bytearray:
    """A zeroed buffer reaching 32 bytes past the highest constant offset."""
    if not layout.md_offsets:
        return bytearray()
    highest = max(layout.md_offsets)
    if highest >= CALLDATA_OFFSET_BOUND:
        raise EvmRbrError(
            f"cannot check code reading calldata at offset {highest} "
            f"(offsets must be below {CALLDATA_OFFSET_BOUND})"
        )
    return bytearray(highest + 32)


def _draw_calldata(data: bytearray, layout, rng: random.Random) -> None:
    """Write a random word at each constant offset, in layout order.

    Every case writes the same offsets in the same order, so the buffer
    holds what a freshly zeroed one would.
    """
    for offset in layout.md_offsets:
        data[offset : offset + 32] = rng.randrange(INPUT_BOUND).to_bytes(32, "big")


def _initial_bindings(layout, calldata: bytearray, env, storage) -> dict[str, int]:
    """One case's entry bindings: g from ``storage``, l zeroed, md from
    ``calldata`` at each of ``layout.md_offsets``, then the named reads."""
    init = {f"g{i}": storage[i] for i in range(layout.k + 1)}
    init.update({f"l{i}": 0 for i in range(layout.r + 1)})
    for i, offset in enumerate(layout.md_offsets):
        word = calldata[offset : offset + 32].ljust(32, b"\0")
        init[f"md{i}"] = int.from_bytes(word, "big")
    for name in layout.named_bc:
        init[name] = len(calldata) if name == "calldatasize" else env[name]
    return init


def _pc_edges(cfg: Cfg) -> set[tuple[int, int]]:
    return {
        (block.start_pc, id_sort_key(target)[0])
        for block in cfg.live_blocks()
        for target in successors(block.terminator)
    }


def _compare(case, layout, evm_state, evm_trace, rbr_state, rule_pcs, pc_edges, report):
    bindings = rbr_state.bindings
    storage, memory = evm_state.storage, evm_state.memory
    expected = [(f"g{i}", storage.get(i, 0)) for i in range(layout.k + 1)]
    expected += [(f"l{idx}", memory.get(addr, 0)) for addr, idx in sorted(layout.lmap.items())]
    for name, value in expected:
        got = bindings.get(name)
        if got != value:
            report.divergences.append(Divergence(case, name, str(value), str(got)))

    if rule_pcs != evm_trace:
        report.divergences.append(
            Divergence(case, "trace", str(evm_trace), str(rule_pcs))
        )
    if not pc_edges.issuperset(zip(evm_trace, evm_trace[1:])):
        # Some step has no edge: report the first one.
        src, dst = next(
            step for step in zip(evm_trace, evm_trace[1:]) if step not in pc_edges
        )
        report.divergences.append(Divergence(case, "trace-path", f"{src}->{dst}", "no such edge"))
