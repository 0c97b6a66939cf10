"""Structural loop detection over the rule call graph.

A loop is a non-trivial strongly connected component of the directed graph
whose nodes are rule names and whose edges follow continuation calls
(size > 1, or a single rule calling itself).
"""

from __future__ import annotations

from .rbr import Rule, rule_sort_key


def rule_call_graph(rules: list[Rule]) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for rule in rules:
        edges = graph.setdefault(rule.name, set())
        if rule.continuation is not None:
            edges.add(rule.continuation.target)
    return graph


def detect_loops(rules: list[Rule] | dict[str, set[str]]) -> list[list[str]]:
    """Return the loops, each as its member rule names in ascending order,
    sorted by smallest member.

    ``rules`` is a rule list or its call graph: ``rule_call_graph(rules)``,
    or ``translate.call_graph(cfg)``, which builds no rule.
    """
    graph = rules if isinstance(rules, dict) else rule_call_graph(rules)
    # Every member and every successor _tarjan sorts is a node of the graph.
    sort_key = {name: rule_sort_key(name) for name in graph}.__getitem__
    loops = [
        sorted(comp, key=sort_key)
        for comp in _tarjan(graph, sort_key)
        if len(comp) > 1 or comp[0] in graph[comp[0]]
    ]
    return sorted(loops, key=lambda members: sort_key(members[0]))


def _tarjan(graph: dict[str, set[str]], sort_key=rule_sort_key) -> list[list[str]]:
    """Iterative Tarjan SCC (rule graphs of large contracts get deep).

    Roots and successors are taken in ``sort_key`` order; successors that
    are not nodes of the graph are left out.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    def ordered_succs(node: str):
        return iter(sorted(graph.get(node, set()) & graph.keys(), key=sort_key))

    for root in sorted(graph, key=sort_key):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, ordered_succs(root))]
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, ordered_succs(succ)))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs
