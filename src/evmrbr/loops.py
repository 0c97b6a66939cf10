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
    that are not nodes of the graph are skipped as they are met.  A node
    whose component is complete takes the index ``done``, above every index
    given, so it never lowers a low link and no on-stack set is kept.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    done = len(graph)

    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, succs = work[-1]
            for succ in succs:
                if succ in index:
                    if index[succ] < low[node]:
                        low[node] = index[succ]
                elif succ in graph:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(graph[succ])))
                    break
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        index[member] = done
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(component)
    return sccs
