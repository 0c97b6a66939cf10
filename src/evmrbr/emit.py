"""Canonical text rendering of rule programs.

The concrete syntax is frozen as the interchange format (extension
``.rbr``): comma-separated parameters and statements, ``=>`` between head
and body, infix arithmetic, functor bit operations, ``--`` comments.  A
header comment records the memory-address and calldata-offset tables so
text can be mapped back to the bytecode-level layout.
"""

from __future__ import annotations

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
    """Renders the rules of one ``emit_rbr`` or ``export_saco`` call,
    printing each distinct argument list and statement once.

    An argument list is keyed by (layout, stack count).  Statements are
    keyed by identity: one ``translate_cfg`` call builds equal statements
    as one object, and the rules keep every key alive while the call runs.
    ``format`` prints every statement; ``format_forgetting`` prints for the
    SACO export, and its line memo holds None for a statement the export
    forgets: a ``nop`` marker, which it drops, or an assignment of a bit
    operation, which it replaces per occurrence by ``<target> = fresh_<n>``,
    numbered on from the rule's own counter (``_fresh_count``).
    """

    def __init__(self):
        self.arg_lists: dict[tuple[int, int], str] = {}
        self.lines: dict[int, str | None] = {}
        self.highest: dict[int, int] = {}

    def _args(self, rule: Rule, count: int) -> str:
        key = (id(rule.layout), count)
        text = self.arg_lists.get(key)
        if text is None:
            text = self.arg_lists[key] = ", ".join(rule.layout.arg_names(count))
        return text

    def _call(self, rule: Rule, call: Call) -> str:
        return f"call({call.target}({self._args(rule, call.stack_count)}))"

    def format(self, rule: Rule) -> str:
        args = self.arg_lists.get((id(rule.layout), rule.stack_params))
        if args is None:
            args = self._args(rule, rule.stack_params)
        head = f"{rule.name}({args}) =>"
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
        call = rule.continuation
        if call is not None:
            args = self.arg_lists.get((id(rule.layout), call.stack_count))
            if args is None:
                args = self._args(rule, call.stack_count)
            items.append(f"  call({call.target}({args}))")
        if not items:
            return head
        return head + "\n" + ",\n".join(items)

    def format_forgetting(self, rule: Rule) -> str:
        if rule.guard is not None:
            return self.format(rule)
        head = f"{rule.name}({self._args(rule, rule.stack_params)}) =>"
        lines = self.lines
        items = []
        counter = None
        for stmt in rule.body:
            line = lines.get(id(stmt), False)
            if line is False:
                forgotten = isinstance(stmt, Nop) or isinstance(stmt.value, (BitOp, Not))
                line = lines[id(stmt)] = None if forgotten else "  " + format_statement(stmt)
            if line is None:
                if isinstance(stmt, Nop):
                    continue
                if counter is None:
                    counter = _fresh_count(rule.body, self.highest)
                line = f"  {stmt.target} = fresh_{counter}"
                counter += 1
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
    return _render(rules, _Printer().format)


def _render(rules: list[Rule], format_rule) -> str:
    ordered = sorted(rules, key=lambda r: rule_sort_key(r.name))
    header = _header(rules)
    chunks = ["\n".join(header)] if header else []
    chunks += [format_rule(r) for r in ordered]
    return "\n\n".join(chunks) + "\n" if chunks else ""


def _fresh_count(body: list[Statement], highest: dict[int, int]) -> int:
    """``Rule.fresh_count`` of ``body``; ``highest`` caches each statement's
    highest ``fresh_*`` index by identity, as ``_Printer`` keys its lines."""
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
    printed as assignments from new fresh variables (indices continuing
    each rule's own counter); ``nop`` markers are dropped.  The rules are
    printed as they are, with no rewritten copy: each distinct statement is
    classified and printed once, and scanned for ``fresh_*`` once, when a
    rule that holds it first forgets a statement.
    """
    return "-- saco\n" + _render(rules, _Printer().format_forgetting)
