"""Checkers shared by several test modules."""

from __future__ import annotations

import random

from evmrbr.rbr import Assign, BinOp, BitOp, Guard, Not, Num, Rule, Var


def expr_vars(expr) -> list[str]:
    if isinstance(expr, Var):
        return [expr.name]
    if isinstance(expr, (BinOp, BitOp)):
        return expr_vars(expr.lhs) + expr_vars(expr.rhs)
    if isinstance(expr, Not):
        return expr_vars(expr.operand)
    return []


def definite_assignment_ok(rule: Rule) -> bool:
    """Every stack variable read must be a parameter or assigned earlier."""
    bound = set(rule.params())
    if rule.guard is not None:
        for atom in (rule.guard.lhs, rule.guard.rhs):
            for name in expr_vars(atom):
                if name.startswith("s") and name[1:].isdigit() and name not in bound:
                    return False
    for stmt in rule.body:
        if not isinstance(stmt, Assign):
            continue
        for name in expr_vars(stmt.value):
            if name.startswith("s") and name[1:].isdigit() and name not in bound:
                return False
        bound.add(stmt.target)
    if rule.continuation is not None:
        for name in rule.call_args(rule.continuation):
            if name.startswith("s") and name[1:].isdigit() and name not in bound:
                return False
    return True


def brute_force_sccs(graph: dict[str, set[str]]) -> list[frozenset[str]]:
    """Independent SCC oracle: mutual reachability by transitive closure."""
    nodes = sorted(graph)
    reach = {n: {n} | (graph.get(n, set()) & graph.keys()) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            extra = set()
            for m in reach[n]:
                extra |= reach[m]
            if not extra <= reach[n]:
                reach[n] |= extra
                changed = True
    components = set()
    for n in nodes:
        members = frozenset(m for m in nodes if n in reach[m] and m in reach[n])
        components.add(members)
    return sorted(components, key=lambda c: sorted(c))


def brute_force_loops(graph: dict[str, set[str]]) -> list[list[str]]:
    loops = []
    for comp in brute_force_sccs(graph):
        members = sorted(comp)
        if len(members) > 1 or members[0] in graph.get(members[0], set()):
            loops.append(members)
    return loops


def block_fuzz_codes():
    """2,000 seeded random byte strings of up to 40 bytes, half of whose
    bytes open or close a block (JUMPDEST, JUMP, JUMPI, STOP)."""
    rng = random.Random("split-blocks")
    for _ in range(2000):
        yield bytes(
            rng.choice(b"\x5b\x56\x57\x00") if rng.random() < 0.5 else rng.randrange(256)
            for _ in range(rng.randint(0, 40))
        )
