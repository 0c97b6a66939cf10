"""Interpreter for rule programs over unbounded integers.

Runs a rule set from its entry rule, following continuation calls and
picking the unique applicable rule of each guarded pair.  ``fresh_*``
variables stand for statically unknown values; reading an unbound one
draws from a seeded deterministic source, so runs are reproducible but
fresh-derived data carries no information.

Arithmetic is over unbounded integers: division and modulo truncate
toward zero and yield 0 for a zero divisor (as the machine the rules came
from does); ``not`` is the 256-bit complement, the one width-bounded
concession the bit operations need.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

from .errors import EvmRbrError, NoApplicableRule, StepLimitExceeded, UnboundVariable
from .rbr import Assign, BinOp, BitOp, Guard, Not, Num, Rule, Var

_MASK = (1 << 256) - 1


@dataclass
class RbrState:
    """Bindings of the current rule frame plus the rule it is in."""

    bindings: dict[str, int] = field(default_factory=dict)
    rule: str = ""


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - b * _trunc_div(a, b)


def _pow(a: int, b: int) -> int:
    if b < 0:
        raise EvmRbrError("negative exponent")
    return a**b


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _trunc_div,
    "%": _trunc_mod,
    "^": _pow,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}

_RELATION_TESTS = {
    "eq": operator.eq,
    "neq": operator.ne,
    "lt": operator.lt,
    "leq": operator.le,
    "gt": operator.gt,
    "geq": operator.ge,
}


@dataclass(frozen=True)
class RuleIndex:
    """Rules prepared once for any number of runs.

    ``groups`` maps each rule name to its rules, in program order, each as
    ``(guard, body, callee, args)``.  A guard is ``(test, lhs, rhs)`` and an
    assignment ``(target, op, lhs, rhs)``, where an atom is an ``int``
    literal or a ``str`` variable name and ``op`` is None for a plain copy
    of ``lhs``.  ``args`` is the callee's argument names, one tuple shared
    by all calls passing the same number of stack slots.
    """

    groups: dict[str, list[tuple]]


def _atom(atom) -> int | str:
    return atom.value if isinstance(atom, Num) else atom.name


def _assignment(stmt: Assign) -> tuple:
    expr = stmt.value
    if isinstance(expr, (Num, Var)):
        return stmt.target, None, _atom(expr), None
    if isinstance(expr, (BinOp, BitOp)):
        return stmt.target, _OPS[expr.op], _atom(expr.lhs), _atom(expr.rhs)
    if isinstance(expr, Not):
        return stmt.target, operator.xor, _atom(expr.operand), _MASK
    raise TypeError(f"not an expression: {expr!r}")


def _guard(guard: Guard | None) -> tuple | None:
    if guard is None:
        return None
    return _RELATION_TESTS[guard.relation], _atom(guard.lhs), _atom(guard.rhs)


def index_rules(rules: list[Rule]) -> RuleIndex:
    """Index ``rules`` by name, with guards and bodies as flat tuples."""
    shared_args: dict[tuple[int, int], tuple[str, ...]] = {}
    groups: dict[str, list[tuple]] = {}
    for rule in rules:
        call = rule.continuation
        callee, args = None, ()
        if call is not None:
            callee = call.target
            key = (call.stack_count, id(rule.layout))
            if key not in shared_args:
                shared_args[key] = tuple(rule.call_args(call))
            args = shared_args[key]
        body = tuple(_assignment(stmt) for stmt in rule.body if isinstance(stmt, Assign))
        groups.setdefault(rule.name, []).append((_guard(rule.guard), body, callee, args))
    return RuleIndex(groups)


def _read_unbound(name: str, rule: str, bindings: dict[str, int], fresh: random.Random) -> int:
    if name.startswith("fresh_"):
        drawn = bindings[name] = fresh.randrange(1 << 64)
        return drawn
    raise UnboundVariable(name, rule)


def run_rbr(
    rules: list[Rule] | RuleIndex,
    init: dict[str, int] | RbrState,
    step_limit: int = 10**6,
    entry: str = "block_0",
    fresh_seed: int = 0,
) -> tuple[RbrState, list[str]]:
    """Run from ``entry`` until a rule without continuation; returns the
    final state and the sequence of rule names applied.

    ``rules`` is a rule list or its :func:`index_rules` index, which a
    caller running many inputs builds once.  ``init`` must bind every
    field/local/blockchain parameter of the entry rule (the entry takes no
    stack parameters).
    """
    groups = (rules if isinstance(rules, RuleIndex) else index_rules(rules)).groups
    if entry not in groups:
        raise EvmRbrError(f"no rule named {entry}")

    bindings = dict(init.bindings if isinstance(init, RbrState) else init)
    fresh = random.Random(fresh_seed)
    name = entry
    trace: list[str] = []
    steps = 0
    while True:
        steps += 1
        if steps > step_limit:
            raise StepLimitExceeded(f"no halt within {step_limit} rule applications")
        trace.append(name)
        group = groups.get(name)
        if group is None:
            raise EvmRbrError(f"call to undefined rule {name}")
        if len(group) == 1 and group[0][0] is None:
            rule = group[0]
        else:
            applicable = []
            for candidate in group:
                if candidate[0] is None:
                    continue
                test, a, b = candidate[0]
                if a.__class__ is str:
                    a = bindings[a] if a in bindings else _read_unbound(a, name, bindings, fresh)
                if b.__class__ is str:
                    b = bindings[b] if b in bindings else _read_unbound(b, name, bindings, fresh)
                if test(a, b):
                    applicable.append(candidate)
            if len(applicable) != 1:
                raise NoApplicableRule(name, len(applicable))
            rule = applicable[0]

        _, body, callee, args = rule
        for target, op, a, b in body:
            if a.__class__ is str:
                a = bindings[a] if a in bindings else _read_unbound(a, name, bindings, fresh)
            if op is not None:
                if b.__class__ is str:
                    b = bindings[b] if b in bindings else _read_unbound(b, name, bindings, fresh)
                a = op(a, b)
            bindings[target] = a

        if callee is None:
            return RbrState(bindings=bindings, rule=name), trace
        try:
            bindings = {arg: bindings[arg] for arg in args}
        except KeyError as err:
            raise UnboundVariable(err.args[0], name) from None
        name = callee
