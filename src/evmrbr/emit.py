"""Canonical text rendering of rule programs.

The concrete syntax is frozen as the interchange format (extension
``.rbr``): comma-separated parameters and statements, ``=>`` between head
and body, infix arithmetic, functor bit operations, ``--`` comments.  A
header comment records the memory-address and calldata-offset tables so
text can be mapped back to the bytecode-level layout.
"""

from __future__ import annotations

from dataclasses import replace

from .rbr import (
    Assign,
    BinOp,
    BitOp,
    Call,
    Expr,
    Guard,
    Nop,
    Not,
    Num,
    Rule,
    Statement,
    Var,
    highest_fresh,
    rule_sort_key,
)


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BinOp):
        return f"{format_expr(expr.lhs)} {expr.op} {format_expr(expr.rhs)}"
    if isinstance(expr, BitOp):
        return f"{expr.op}({format_expr(expr.lhs)}, {format_expr(expr.rhs)})"
    if isinstance(expr, Not):
        return f"not({format_expr(expr.operand)})"
    raise TypeError(f"not an expression: {expr!r}")


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Assign):
        return f"{stmt.target} = {format_expr(stmt.value)}"
    return f"nop({stmt.mnemonic})"


def format_guard(guard: Guard) -> str:
    return f"{guard.relation}({format_expr(guard.lhs)}, {format_expr(guard.rhs)})"


class _Printer:
    """Renders the rules of one ``emit_rbr`` call, printing each distinct
    argument list and statement once.

    An argument list is keyed by (layout, stack count).  Statements are
    keyed by identity: one ``translate_cfg`` call builds equal statements
    as one object, and the rules keep every key alive while the call runs.
    """

    def __init__(self):
        self.arg_lists: dict[tuple[int, int], str] = {}
        self.lines: dict[int, str] = {}

    def _args(self, rule: Rule, count: int) -> str:
        key = (id(rule.layout), count)
        text = self.arg_lists.get(key)
        if text is None:
            text = self.arg_lists[key] = ", ".join(rule.layout.arg_names(count))
        return text

    def _call(self, rule: Rule, call: Call) -> str:
        return f"call({call.target}({self._args(rule, call.stack_count)}))"

    def format(self, rule: Rule) -> str:
        head = f"{rule.name}({self._args(rule, rule.stack_params)}) =>"
        if rule.guard is not None:
            assert rule.continuation is not None, "guarded rule without continuation"
            return f"{head}\n  {format_guard(rule.guard)} | {self._call(rule, rule.continuation)}"
        lines = self.lines
        items = []
        for stmt in rule.body:
            line = lines.get(id(stmt))
            if line is None:
                line = lines[id(stmt)] = "  " + format_statement(stmt)
            items.append(line)
        if rule.continuation is not None:
            items.append("  " + self._call(rule, rule.continuation))
        if not items:
            return head
        return head + "\n" + ",\n".join(items)


def _header(rules: list[Rule]) -> list[str]:
    if not rules:
        return []
    layout = rules[0].layout
    lines = []
    if layout.lmap:
        by_index = sorted(layout.lmap.items(), key=lambda kv: kv[1])
        table = ", ".join(f"{addr} -> l{idx}" for addr, idx in by_index)
        lines.append(f"-- lmap: {table}")
    if layout.md_offsets:
        table = ", ".join(
            f"md{i} = calldata[{off}]" for i, off in enumerate(layout.md_offsets)
        )
        lines.append(f"-- md: {table}")
    return lines


def emit_rbr(rules: list[Rule]) -> str:
    """Render rules in ascending name order, byte-identical across runs,
    with a ``nop`` marker exactly where ``translate_cfg(nops=True)`` left one."""
    ordered = sorted(rules, key=lambda r: rule_sort_key(r.name))
    header = _header(rules)
    chunks = ["\n".join(header)] if header else []
    printer = _Printer()
    chunks += [printer.format(r) for r in ordered]
    return "\n\n".join(chunks) + "\n" if chunks else ""


def _fresh_count(body: list[Statement], highest: dict[int, int]) -> int:
    """``Rule.fresh_count`` of ``body``; ``highest`` caches each statement's
    highest ``fresh_*`` index by identity, as ``emit_rbr`` keys its lines."""
    count = 0
    for stmt in body:
        index = highest.get(id(stmt))
        if index is None:
            index = highest[id(stmt)] = highest_fresh(stmt)
        if index >= count:
            count = index + 1
    return count


def export_saco(rules: list[Rule]) -> str:
    """Render rules with every bit-operation forgotten.

    Statements whose expression involves ``and``/``or``/``xor``/``not`` are
    replaced by assignments from new fresh variables (indices continuing
    each rule's own counter); ``nop`` markers are dropped.  Each distinct
    statement is scanned for ``fresh_*`` once, each replacement is built
    once, and a rule left unchanged is not copied.
    """
    highest: dict[int, int] = {}
    forgotten: dict[tuple[str, int], Assign] = {}
    rewritten = []
    for rule in rules:
        counter = None
        body: list[Statement] = []
        for stmt in rule.body:
            if isinstance(stmt, Nop):
                continue
            if isinstance(stmt.value, (BitOp, Not)):
                if counter is None:
                    counter = _fresh_count(rule.body, highest)
                key = (stmt.target, counter)
                stmt = forgotten.get(key)
                if stmt is None:
                    stmt = forgotten[key] = Assign(key[0], Var(f"fresh_{counter}"))
                counter += 1
            body.append(stmt)
        rewritten.append(rule if body == rule.body else replace(rule, body=body))
    return "-- saco\n" + emit_rbr(rewritten)
