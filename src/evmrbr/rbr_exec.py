"""Interpreter for rule programs over unbounded integers.

Runs a rule set from its entry rule, following continuation calls and
picking the unique applicable rule of each guarded pair.  ``fresh_*``
variables stand for statically unknown values; reading an unbound one
draws from a seeded deterministic source, so runs are reproducible but
fresh-derived data carries no information.

Arithmetic is over unbounded integers: division and modulo truncate
toward zero and yield 0 for a zero divisor (as the machine the rules came
from does); ``not`` is the 256-bit complement, the one width-bounded
concession the bit operations need.  A product or power too large to
compute in bounded time raises EvmRbrError instead.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

from .errors import EvmRbrError, NoApplicableRule, StepLimitExceeded, UnboundVariable
from .opcodes import WORD
from .rbr import Assign, BinOp, BitOp, Not, Num, Rule, Var

# ``not x`` runs as ``x xor`` this word mask.
_NOT_MASK = Num(WORD)


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


# A product or power of more bits than this raises instead of taking
# unbounded time; 65535 ** 65535 (1,048,559 bits) stays below it.
_MAX_BITS = 1 << 20


def _mul(a: int, b: int) -> int:
    # a * b has at most a.bit_length() + b.bit_length() bits.
    if a.bit_length() + b.bit_length() > _MAX_BITS:
        raise EvmRbrError(f"a product of operands of more than {_MAX_BITS} bits")
    return a * b


def _pow(a: int, b: int) -> int:
    if b < 0:
        raise EvmRbrError("negative exponent")
    # a ** b has floor(b * log2|a|) + 1 bits; bases 0, 1 and -1 stay exact.
    if abs(a) > 1 and (b >= _MAX_BITS or b * math.log2(abs(a)) >= _MAX_BITS):
        raise EvmRbrError(f"a power of more than {_MAX_BITS} bits")
    return a**b


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": _mul,
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


# The value of a frame slot no assignment, call or input has bound.
UNBOUND = object()


@dataclass(frozen=True)
class RuleIndex:
    """Rules prepared once for any number of runs, over numbered variables.

    Every variable name gets one frame slot.  The layout parameters come
    first, in ``param_names()`` order, then ``s0`` up to the last stack slot
    any call passes, then every other name (``fresh_*``, ``gl``, ``gs1``,
    ``ll``, stack slots no call passes, ...).  A call passing ``c`` stack
    slots thus passes exactly the first ``len(args)`` slots, ``P + c``.
    Literals are kept in a constant pool after the variable slots and read
    by negative index, so every atom is a frame index.

    ``steps`` holds one step per rule name, ``(name, need, rules, pair)``,
    and ``entries`` maps each defined name to the index of its step.
    ``rules`` are the name's rules in program order, each ``(guard, body,
    callee, args, passed, tail, need)``.  A guard is ``(test, lhs, rhs)``
    and an assignment ``(target, op, lhs, rhs)``, where the target is a
    slot, an atom is a frame index and ``op`` is None for a plain copy of
    ``lhs``.  ``callee`` is the index of the called step, or None at a
    halt, so no step refers to another object.  ``args`` is the callee's
    argument names, one tuple shared by all calls passing the same number
    of stack slots, ``passed`` their number, and ``tail`` the unbound run
    that clears the slots after them.  A rule's ``need`` is the length of
    the frame prefix that its guard and body read before writing, and a
    step's is the largest of its rules', so a run that holds that prefix
    bound needs no per-read test.  ``pair`` is the two guards of a guarded
    pair as one flat tuple, else None.  A step that is neither one
    unguarded rule nor a guarded pair, and the step of a callee that no
    rule defines (it has no rules), need more than the frame, so they
    always take the tested path.  ``names`` holds the variable of each
    slot and ``template`` a frame with every slot unbound.
    """

    steps: tuple[tuple, ...]
    entries: dict[str, int]
    names: tuple[str, ...]
    slots: dict[str, int]
    template: tuple


def index_rules(rules: list[Rule]) -> RuleIndex:
    """Number the variables of ``rules`` and prepare one step per rule name,
    with guards and bodies as flat tuples over frame indices.

    Raises EvmRbrError when the rules do not share one parameter list, or
    when that list and the passed stack slots name one variable twice.
    """
    params: list[str] | None = None
    checked: set[int] = set()
    width = 0
    entries: dict[str, int] = {}
    for rule in rules:
        if id(rule.layout) not in checked:
            these = rule.layout.param_names()
            if params is None:
                params = these
            elif these != params:
                raise EvmRbrError("rules with different variable layouts cannot run together")
            checked.add(id(rule.layout))
        call = rule.continuation
        if call is not None and call.stack_count > width:
            width = call.stack_count
        if rule.name not in entries:
            entries[rule.name] = len(entries)
    names = (params or []) + [f"s{i}" for i in range(width)]
    slots = {name: slot for slot, name in enumerate(names)}
    if len(slots) != len(names):
        twice = next(name for slot, name in enumerate(names) if slots[name] != slot)
        raise EvmRbrError(f"rule parameters name {twice} twice")
    consts: dict[int, int] = {}

    def slot_of(name: str) -> int:
        slot = slots[name] = len(names)
        names.append(name)
        return slot

    def index_of(atom) -> int:
        if atom.__class__ is Var:
            slot = slots.get(atom.name)
            return slot_of(atom.name) if slot is None else slot
        index = consts.get(atom.value)
        if index is None:
            index = consts[atom.value] = -1 - len(consts)
        return index

    def assignment(stmt: Assign) -> tuple:
        target = slots.get(stmt.target)
        if target is None:
            target = slot_of(stmt.target)
        expr = stmt.value
        kind = expr.__class__
        if kind is BinOp or kind is BitOp:
            return target, _OPS[expr.op], index_of(expr.lhs), index_of(expr.rhs)
        if kind is Var or kind is Num:
            return target, None, index_of(expr), None
        if kind is Not:
            return target, operator.xor, index_of(expr.operand), index_of(_NOT_MASK)
        raise TypeError(f"not an expression: {expr!r}")

    # Rule bodies share statement objects; each is converted once, keyed by
    # identity while ``rules`` keeps it alive.  A repeat names no new slot
    # or constant, so the numbering stays in first-seen order.
    converted: dict[int, tuple] = {}
    # stack count -> the arguments of a call passing that many stack slots
    # and its tail, which is filled once the frame size is known
    calls: dict[int, tuple[tuple[str, ...], list]] = {}
    groups: dict[str, list[tuple]] = {}
    undefined: dict[str, int] = {}
    for rule in rules:
        guard = rule.guard
        need = 0  # one past the highest slot read before a write
        if guard is not None:
            guard = _RELATION_TESTS[guard.relation], index_of(guard.lhs), index_of(guard.rhs)
            need = max(guard[1], guard[2], -1) + 1
        body = []
        written = set()
        for stmt in rule.body:
            if stmt.__class__ is not Assign:
                continue
            step = converted.get(id(stmt))
            if step is None:
                step = converted[id(stmt)] = assignment(stmt)
            body.append(step)
            target, _, a, b = step
            if a >= need and a not in written:
                need = a + 1
            if b is not None and b >= need and b not in written:
                need = b + 1
            written.add(target)
        call = rule.continuation
        callee, args, tail = None, (), None
        if call is not None:
            callee = entries.get(call.target)
            if callee is None:
                callee = undefined.setdefault(call.target, len(entries) + len(undefined))
            shared = calls.get(call.stack_count)
            if shared is None:
                shared = calls[call.stack_count] = (tuple(rule.call_args(call)), [])
            args, tail = shared
        rule_step = (guard, tuple(body), callee, args, len(args), tail, need)
        groups.setdefault(rule.name, []).append(rule_step)

    size = len(names)
    for args, tail in calls.values():
        tail += [UNBOUND] * (size - len(args))
    steps = []
    for name, group in groups.items():
        first = group[0]
        if len(group) == 1 and first[0] is None:
            steps.append((name, first[6], group, None))
        elif len(group) == 2 and first[0] is not None and group[1][0] is not None:
            steps.append((name, max(first[6], group[1][6]), group, first[0] + group[1][0]))
        else:
            steps.append((name, size + 1, group, None))
    steps += ((name, size + 1, [], None) for name in undefined)
    template = (UNBOUND,) * size + tuple(reversed(consts))
    return RuleIndex(tuple(steps), entries, tuple(names), slots, template)


def _read_unbound(slot: int, rule: str, frame: list, names: tuple, fresh: random.Random) -> int:
    name = names[slot]
    if name.startswith("fresh_"):
        drawn = frame[slot] = fresh.randrange(1 << 64)
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
    stack parameters).  The run keeps one frame: a call checks that the
    slots it passes are bound and clears the rest.  A step whose ``need``
    lies within the frame's bound prefix reads its slots untested; any
    other step tests each read, drawing fresh values and raising
    UnboundVariable there.
    """
    index = rules if isinstance(rules, RuleIndex) else index_rules(rules)
    steps, names, slots = index.steps, index.names, index.slots
    at = index.entries.get(entry)
    if at is None:
        raise EvmRbrError(f"no rule named {entry}")

    frame = list(index.template)
    size = len(names)
    # Inputs no rule names live only as long as the entry rule's frame.
    unnamed = {}
    for key, value in (init.bindings if isinstance(init, RbrState) else init).items():
        slot = slots.get(key)
        if slot is None:
            unnamed[key] = value
        else:
            frame[slot] = value
    # frame[:bound] holds no UNBOUND
    bound = next((slot for slot in range(size) if frame[slot] is UNBOUND), size)
    fresh = random.Random(fresh_seed)
    trace: list[str] = []
    record = trace.append
    count = 0
    while True:
        count += 1
        if count > step_limit:
            raise StepLimitExceeded(f"no halt within {step_limit} rule applications")
        name, need, group, pair = steps[at]
        record(name)
        if need <= bound:
            # Every slot read before a write is bound: no read needs a test.
            if pair is None:
                _, body, callee, args, passed, tail, _ = group[0]
            else:
                test, a, b, other, c, d = pair
                taken = test(frame[a], frame[b])
                if taken == other(frame[c], frame[d]):
                    raise NoApplicableRule(name, 2 if taken else 0)
                _, body, callee, args, passed, tail, _ = group[0 if taken else 1]
            for target, op, a, b in body:
                frame[target] = frame[a] if op is None else op(frame[a], frame[b])
        else:
            if not group:
                raise EvmRbrError(f"call to undefined rule {name}")
            if len(group) == 1 and group[0][0] is None:
                rule = group[0]
            else:
                applicable = []
                for candidate in group:
                    if candidate[0] is None:
                        continue
                    test, a, b = candidate[0]
                    x = frame[a]
                    if x is UNBOUND:
                        x = _read_unbound(a, name, frame, names, fresh)
                    y = frame[b]
                    if y is UNBOUND:
                        y = _read_unbound(b, name, frame, names, fresh)
                    if test(x, y):
                        applicable.append(candidate)
                if len(applicable) != 1:
                    raise NoApplicableRule(name, len(applicable))
                rule = applicable[0]
            _, body, callee, args, passed, tail, _ = rule
            for target, op, a, b in body:
                x = frame[a]
                if x is UNBOUND:
                    x = _read_unbound(a, name, frame, names, fresh)
                if op is not None:
                    y = frame[b]
                    if y is UNBOUND:
                        y = _read_unbound(b, name, frame, names, fresh)
                    x = op(x, y)
                frame[target] = x

        if callee is None:
            bindings = {var: value for var, value in zip(names, frame) if value is not UNBOUND}
            if len(trace) == 1:
                bindings = {**unnamed, **bindings}
            return RbrState(bindings=bindings, rule=name), trace
        if passed > bound and UNBOUND in frame[bound:passed]:
            unbound = next(arg for arg in args if frame[slots[arg]] is UNBOUND)
            raise UnboundVariable(unbound, name)
        frame[passed:size] = tail
        bound = passed
        at = callee
