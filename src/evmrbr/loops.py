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
    loops = [
        sorted(comp, key=rule_sort_key)
        for comp in _tarjan(graph)
        if len(comp) > 1 or comp[0] in graph[comp[0]]
    ]
    return sorted(loops, key=lambda members: rule_sort_key(members[0]))


def _tarjan(graph: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan SCC (rule graphs of large contracts get deep).

    Roots are taken in graph order and successors in set order, which
    follows the hash seed, so the order of the components and of their
    members is left to the caller: ``detect_loops`` sorts both.  Successors
    that are not nodes of the graph are left out.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    def succs_of(node: str):
        return iter(graph[node] & graph.keys())

    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, succs_of(root))]
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, succs_of(succ)))
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
