"""Parser for the canonical rule text format (inverse of emit_rbr).

Rejects anything outside the grammar; on success the parsed rules compare
structurally equal to the rules the text was emitted from.  The layout
header comments (``-- lmap:`` / ``-- md:``) are read back so the address
tables survive the round trip.

The text is read in one lazy pass: the parser scans the next token from
the text at its current offset when it needs it, and matches a whole
parameter or argument list with one regular expression.  Line and column
are computed from the offset only when an error is raised.  One scan up
front finds the first character outside the token set, so a bad character
is reported even when a grammar error comes before it.

Emitted programs repeat few statement texts many times, so each
``parse_rbr`` call keeps a memo from statement text to its ``Assign``.  A
body item that matches an assignment in the emitted spacing followed by a
comma is looked up there; on a miss the token path parses it, and the result
is stored if that parse ended where the match did.  The comma ends the
statement for the token path too, so equal texts parse equal.  A failed
parse is never stored, so every error comes from the token path at its own
offset.
"""

from __future__ import annotations

import re
import sys

from .errors import RbrSyntaxError
from .rbr import (
    Assign,
    Atom,
    BinOp,
    BitOp,
    Call,
    Expr,
    Guard,
    Nop,
    Not,
    Num,
    RELATIONS,
    Rule,
    Statement,
    Var,
    VarLayout,
)

_BIN_OPS = "+-*/%^"
# Numerals are ASCII decimal and only ASCII whitespace separates tokens, so
# every pattern using \d or \s is compiled with re.A (re.ASCII).
_SPACE = " \t\n\r\f\v"  # what \s matches under re.A
_ASSIGN_TARGET = re.compile(r"^(?:[sgl]\d+|gl|ll|gs[12]|ls[12]|fresh_\d+)$", re.A)
_RULE_ID = re.compile(r"(block|jump)_([0-9]+)(?:_c([0-9]+))?")
_FRESH = re.compile(r"fresh_([0-9]+)")
_LMAP_LINE = re.compile(r"^--\s*lmap:\s*(.*?)\s*$", re.M | re.A)
_LMAP_ENTRY = re.compile(r"^(\d+)\s*->\s*l(\d+)$", re.A)
_MD_LINE = re.compile(r"^--\s*md:\s*(.*?)\s*$", re.M | re.A)
_MD_ENTRY = re.compile(r"^md(\d+)\s*=\s*calldata\[(\d+)\]$", re.A)

# Whitespace and comments between tokens.  A comment must run to the end of
# its line, so a failed match cannot resume inside one.
_SKIP = r"\s*(?:--[^\n]*(?![^\n])\s*)*"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# Groups: 1 "=>", 2 name, 3 numeral, 4 punctuation; none at the end of text.
_TOKEN = re.compile(_SKIP + rf"(?:(=>)|({_NAME})|(\d+)|([(),|=+\-*/%^])|\Z)", re.A)
_KINDS = {None: "eof", 2: "name", 3: "num"}  # else the token text is its kind
_NEXT = {"(": re.compile(_SKIP + r"\(", re.A), "=": re.compile(_SKIP + r"=(?!>)", re.A)}
# Comments and arrows may hold any character; outside them these begin no token.
_COMMENT_OR_ARROW = re.compile(r"--[^\n]*|=>")
_OTHER = re.compile(r"[^\s\dA-Za-z_(),|=+\-*/%^]", re.A)
# A whole name list without comments; any other list takes the token path.
_NAME_LIST = re.compile(_SKIP + rf"\(\s*((?:{_NAME}\s*,\s*)*{_NAME})?\s*\)", re.A)
# An assignment in the spacing emit_rbr writes, ended by a comma: the key of
# the statement memo.  Group 1 is the statement text.
_ATOM = rf"(?:{_NAME}|\d+)"
_MEMO_KEY = re.compile(_SKIP + rf"({_NAME} = (?:(?:and|or|xor)\({_ATOM}, {_ATOM}\)"
                       rf"|not\({_ATOM}\)|{_ATOM}(?: [{re.escape(_BIN_OPS)}] {_ATOM})?))(?=,)", re.A)


def _error(text: str, offset: int, what: str) -> RbrSyntaxError:
    line = text.count("\n", 0, offset) + 1
    return RbrSyntaxError(line, offset - text.rfind("\n", 0, offset), what)


def _numeral(text: str, offset: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        limit = sys.get_int_max_str_digits()
        raise _error(text, offset, f"a numeral of at most {limit} digits") from None


def _header_table(text: str, line_re, entry_re, groups) -> list[tuple[int, ...]]:
    """The numerals in ``groups`` of each well-formed entry of the first header line."""
    table = []
    match = line_re.search(text)
    if match:
        offset = match.start(1)
        for part in match.group(1).split(","):
            entry = entry_re.match(part.strip(_SPACE))
            if entry:
                at = offset + len(part) - len(part.lstrip(_SPACE))
                table.append(tuple(
                    _numeral(text, at + entry.start(i), entry.group(i)) for i in groups
                ))
            offset += len(part) + 1
    return table


class _Parser:
    """Scans tokens from ``text`` on demand.

    ``pos`` is the offset just past the last consumed token.  ``peek``
    scans the token after it into ``kind``/``value``/``start``/``end``,
    which stay valid for that token until the next ``peek``.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.scanned = -1  # the ``pos`` the current token was scanned from
        self.layout: VarLayout | None = None
        self.params: list[str] = []  # layout.param_names(), built once
        self.statements: dict[str, Assign] = {}  # the statement memo

    def peek(self) -> str:
        if self.scanned != self.pos:
            match = _TOKEN.match(self.text, self.pos)
            group = match.lastindex
            self.scanned, self.end = self.pos, match.end()
            self.start = match.start(group) if group else self.end
            self.value = match.group(group) if group else ""
            self.kind = _KINDS.get(group, self.value)
        return self.kind

    def advance(self) -> str:
        self.peek()
        self.pos = self.end
        return self.value

    def expect(self, kind: str, what: str) -> str:
        if self.peek() != kind:
            raise self.fail(what)
        return self.advance()

    def next_is(self, kind: str) -> bool:
        """Whether the token after the current one is ``(`` or ``=``."""
        self.peek()
        return _NEXT[kind].match(self.text, self.end) is not None

    def fail(self, what: str, offset: int | None = None) -> RbrSyntaxError:
        self.peek()
        return _error(self.text, self.start if offset is None else offset, what)

    def name_list(self) -> list[str]:
        match = _NAME_LIST.match(self.text, self.pos)
        if match:
            self.pos = match.end()
            return _NAME_RE.findall(match.group(1) or "")
        self.expect("(", "'('")
        names = []
        if self.peek() != ")":
            while True:
                names.append(self.expect("name", "a variable name"))
                if self.peek() != ",":
                    break
                self.advance()
        self.expect(")", "')'")
        return names


def parse_rbr(text: str) -> list[Rule]:
    """Parse rule text; raises RbrSyntaxError outside the grammar."""
    lmap = dict(_header_table(text, _LMAP_LINE, _LMAP_ENTRY, (1, 2)))
    md_offsets = tuple(off for off, in _header_table(text, _MD_LINE, _MD_ENTRY, (2,)))
    # Blank out comments and arrows, keeping offsets, and look for what is left.
    bad = _OTHER.search(_COMMENT_OR_ARROW.sub(lambda m: " " * len(m.group()), text))
    if bad:
        raise _error(text, bad.start(), f"a token (found {text[bad.start()]!r})")
    parser = _Parser(text)
    rules: list[Rule] = []
    while parser.peek() != "eof":
        rules.append(_parse_rule(parser, lmap, md_offsets))
    return rules


def _parse_rule(parser, lmap, md_offsets) -> Rule:
    name = parser.expect("name", "a rule name")
    at = parser.start
    rule_id = _indexed_name(parser, _RULE_ID, name, at, "block_* or jump_* rule name")
    stack_count, rest = _split_stack_run(parser.name_list())
    parser.expect("=>", "'=>'")

    if parser.layout is None:
        parser.layout = _layout_from_params(rest, lmap, md_offsets, parser, at)
        parser.params = parser.layout.param_names()
    elif rest != parser.params:
        raise parser.fail("parameters consistent across rules", at)

    if rule_id.group(1) == "jump":
        guard = _parse_guard(parser)
        parser.expect("|", "'|'")
        return Rule(name, stack_count, parser.layout, guard, [], _parse_call(parser))
    body, call = _parse_body(parser)
    return Rule(name, stack_count, parser.layout, None, body, call)


def _indexed_name(parser, pattern, name: str, at: int, what: str):
    """``name`` matched in full by ``pattern``, each digit group int-sized."""
    match = pattern.fullmatch(name)
    if match is None:
        raise parser.fail(what, at)
    for group, digits in enumerate(match.groups(), 1):
        if digits and digits.isascii() and digits.isdigit():
            _numeral(parser.text, at + match.start(group), digits)
    return match


def _split_stack_run(params: list[str]) -> tuple[int, list[str]]:
    count = 0
    while count < len(params) and params[count] == f"s{count}":
        count += 1
    return count, params[count:]


def _layout_from_params(rest, lmap, md_offsets, parser, at) -> VarLayout:
    pos = 0

    def run(prefix: str) -> int:
        nonlocal pos
        n = 0
        while pos < len(rest) and rest[pos] == f"{prefix}{n}":
            n += 1
            pos += 1
        return n

    g = run("g")
    locals_ = run("l")
    md = run("md")
    named = tuple(rest[pos:])
    if any(n.startswith(("s", "g", "l", "md")) and n[-1] in "0123456789" for n in named):
        raise parser.fail("parameters in canonical order", at)
    if len(set(named)) != len(named):
        raise parser.fail("distinct parameter names", at)
    if lmap:
        if sorted(lmap.values()) != list(range(locals_)):
            raise parser.fail("lmap header matching l parameters", at)
    if md_offsets and len(md_offsets) != md:
        raise parser.fail("md header matching md parameters", at)
    return VarLayout(
        k=g - 1,
        r=locals_ - 1,
        lmap=lmap,
        md_offsets=md_offsets,
        md_count=md,
        named_bc=named,
    )


def _parse_body(parser) -> tuple[list[Statement], Call | None]:
    body: list[Statement] = []
    call: Call | None = None

    def parse_item(required: bool) -> bool:
        nonlocal call
        key = _MEMO_KEY.match(parser.text, parser.pos)
        if key:
            stmt = parser.statements.get(key.group(1))
            if stmt is None:
                stmt = _parse_assign(parser)
                if parser.pos == key.end():
                    parser.statements[key.group(1)] = stmt
            else:
                parser.pos = key.end()
            body.append(stmt)
            return True
        if parser.peek() == "name":
            word = parser.value
            if word == "call" and parser.next_is("("):
                call = _parse_call(parser)
                return True
            if word == "nop" and parser.next_is("("):
                parser.advance()
                parser.expect("(", "'('")
                body.append(Nop(parser.expect("name", "a mnemonic")))
                parser.expect(")", "')'")
                return True
            if parser.next_is("="):
                body.append(_parse_assign(parser))
                return True
        if required:
            raise parser.fail("a statement or call")
        return False  # empty body: here starts the next rule (or eof)

    if not parse_item(required=False):
        return body, call
    while parser.peek() == ",":
        if call is not None:
            raise parser.fail("the call to end the rule")
        parser.advance()
        parse_item(required=True)
    return body, call


def _parse_assign(parser) -> Assign:
    target = parser.expect("name", "an assignment target")
    if not _ASSIGN_TARGET.match(target):
        raise parser.fail("a stack/field/local/rule-local target", parser.start)
    if target.startswith("fresh_"):
        _indexed_name(parser, _FRESH, target, parser.start, "a fresh_<n> variable")
    parser.expect("=", "'='")
    return Assign(target, _parse_expr(parser))


def _parse_expr(parser) -> Expr:
    word = parser.value if parser.peek() == "name" else None
    if word in ("and", "or", "xor") and parser.next_is("("):
        parser.advance()
        parser.expect("(", "'('")
        lhs = _parse_atom(parser)
        parser.expect(",", "','")
        rhs = _parse_atom(parser)
        parser.expect(")", "')'")
        return BitOp(word, lhs, rhs)
    if word == "not" and parser.next_is("("):
        parser.advance()
        parser.expect("(", "'('")
        operand = _parse_atom(parser)
        parser.expect(")", "')'")
        return Not(operand)
    lhs = _parse_atom(parser)
    if parser.peek() in _BIN_OPS:
        op = parser.advance()
        return BinOp(op, lhs, _parse_atom(parser))
    return lhs


def _parse_atom(parser) -> Atom:
    kind = parser.peek()
    if kind == "num":
        return Num(_numeral(parser.text, parser.start, parser.advance()))
    if kind == "name":
        if parser.value.startswith("fresh_"):
            _indexed_name(parser, _FRESH, parser.value, parser.start, "a fresh_<n> variable")
        return Var(parser.advance())
    raise parser.fail("a number or variable")


def _parse_guard(parser) -> Guard:
    relation = parser.expect("name", "a guard relation")
    if relation not in RELATIONS:
        raise parser.fail("one of " + "/".join(RELATIONS), parser.start)
    parser.expect("(", "'('")
    lhs = _parse_atom(parser)
    parser.expect(",", "','")
    rhs = _parse_atom(parser)
    parser.expect(")", "')'")
    return Guard(relation, lhs, rhs)


def _parse_call(parser) -> Call:
    if parser.expect("name", "'call'") != "call":
        raise parser.fail("'call'", parser.start)
    parser.expect("(", "'('")
    target = parser.expect("name", "a callee name")
    at = parser.start
    _indexed_name(parser, _RULE_ID, target, at, "a block_/jump_ callee")
    stack_count, rest = _split_stack_run(parser.name_list())
    parser.expect(")", "')'")
    if rest != parser.params:
        raise parser.fail("canonical call arguments", at)
    return Call(target, stack_count)
