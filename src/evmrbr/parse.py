"""Parser for the canonical rule text format (inverse of emit_rbr).

Rejects anything outside the grammar; on success the parsed rules compare
structurally equal to the rules the text was emitted from.  The layout
header comments (``-- lmap:`` / ``-- md:``) are read back so the address
tables survive the round trip.

Two readers share no state.  ``_read_emitted`` reads only the exact shape
``emit_rbr`` and ``export_saco`` write: header comment lines, then rules
separated by blank lines, each line matched in full by one pattern that
admits nothing the token reader would reject.  Its memos map each list,
statement and guard text to what it stands for.  On any other text it
returns None and never raises.  Then the whole text is searched for a bad
character (one outside comments that begins no token) and read by
``_read_tokens``, which scans one token at a time.  The token reader is the
reference for the grammar and the only source of errors; line and column
are computed from the offset only when an error is raised.  Every memo
lives in one ``parse_rbr`` call.
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
# every pattern using \d, \s or \w is compiled with re.A (re.ASCII).
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
# Outside comments these begin no token, except "-" (also the start of a
# comment) and the ">" of "=>".  One character class, so search is fast.
_SUSPECT = re.compile(r"[^\s\dA-Za-z_(),|=+*/%^]", re.A)

# The lines emit_rbr writes, each matched in full.  A digit run has at most
# 99 digits, far below any int-string limit, and the only fresh_ names are
# fresh_<n>, so a match passes every check the token reader makes.
_ID = r"((?:block|jump)_\d{1,99}(?:_c\d{1,99})?)"
_ARG = r"((?!fresh_)[A-Za-z_]\w*|fresh_\d{1,99}|\d{1,99})"
_CALLS = rf"call\({_ID}\(([^()]*)\)\)"  # groups: callee, list text
_EMITTED_HEAD = re.compile(rf"{_ID}\(([^()]*)\) =>", re.A)
_EMITTED_CALL = re.compile("  " + _CALLS, re.A)
# Groups: 1 guard text, 2 relation, 3-4 operands, then the call's.
_EMITTED_JUMP = re.compile(rf"  (({'|'.join(RELATIONS)})\({_ARG}, {_ARG}\)) \| {_CALLS}", re.A)
# Groups: 1 target; 2-4 a functor and its operands, 5 a negated operand, or
# 6-8 an operand with an optional operator and second operand; 9 a nop
# marker's mnemonic.
_EMITTED_STATEMENT = re.compile(
    rf"  (?:((?:[sgl]|fresh_)\d{{1,99}}|gl|ll|gs[12]|ls[12]) = (?:(and|or|xor)\({_ARG}, {_ARG}\)"
    rf"|not\({_ARG}\)|{_ARG}(?: ([{re.escape(_BIN_OPS)}]) {_ARG})?)|nop\(({_NAME})\))",
    re.A,
)


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


def parse_rbr(text: str) -> list[Rule]:
    """Parse rule text; raises RbrSyntaxError outside the grammar."""
    tables = _layout_tables(text)
    # Text with \r\n line endings is the emitted shape once they read \n; the
    # header tables are the same either way.  Errors are found in ``text``.
    rules = _read_emitted(text.replace("\r\n", "\n") if "\r" in text else text, *tables)
    if rules is None:
        bad = _search_bad(text, 0, len(text))
        if bad >= 0:
            raise _error(text, bad, f"a token (found {text[bad]!r})")
        rules = _read_tokens(text, *tables)
    return rules


def _layout_tables(text: str) -> tuple[dict[int, int], tuple[int, ...]]:
    """The lmap and the md offsets of the header comments."""
    lmap = dict(_header_table(text, _LMAP_LINE, _LMAP_ENTRY, (1, 2)))
    return lmap, tuple(off for off, in _header_table(text, _MD_LINE, _MD_ENTRY, (2,)))


def _read_emitted(text: str, lmap, md_offsets) -> list[Rule] | None:
    """The rules of ``text`` if it has exactly the shape that ``emit_rbr``
    and ``export_saco`` write, else None."""
    start = 0
    while text.startswith("--", start):  # the header comment lines
        start = text.find("\n", start) + 1
        if not start:
            return None
    start += text.startswith("\n", start)  # and the blank line after them
    if start == len(text):
        return []
    if not text.endswith("\n"):
        return None
    # Memos from a list text to its stack count and other names, from a
    # statement line to its statement and from a guard text to its guard.
    lists: dict[str, tuple[int, list[str]]] = {}
    statements: dict[str, Statement] = {}
    guards: dict[str, Guard] = {}
    layout = params = None
    rules = []
    end = len(text) - 1  # the last newline
    while start <= end:  # one rule at a time, so no copy of the text is made
        stop = text.find("\n\n", start, end)
        if stop < 0:
            stop = end
        head, _, body_text = text[start:stop].partition("\n")
        start = stop + 2
        match = _EMITTED_HEAD.fullmatch(head)
        split = match and _emitted_list(lists, match.group(2), params)
        if not split:
            return None
        name, (stack_count, rest) = match.group(1), split
        if layout is None:
            try:
                layout = _layout_from_params(rest, lmap, md_offsets, text, 0)
            except RbrSyntaxError:
                return None
            params = rest  # held by the list memo, so lists equal to it are it
        elif rest is not params:
            return None
        items = body_text.split(",\n") if body_text else []
        if name[0] == "j":
            match = len(items) == 1 and _EMITTED_JUMP.fullmatch(items[0])
            call = match and _emitted_call(lists, params, *match.group(5, 6))
            if not call:
                return None
            guard_text, relation, lhs, rhs = match.group(1, 2, 3, 4)
            guard = guards.get(guard_text)
            if guard is None:
                guard = guards[guard_text] = Guard(relation, _atom(lhs), _atom(rhs))
            rules.append(Rule(name, stack_count, layout, guard, [], call))
            continue
        call = None
        if items and items[-1].startswith("  call("):
            match = _EMITTED_CALL.fullmatch(items.pop())
            call = match and _emitted_call(lists, params, *match.groups())
            if not call:
                return None
        body = []
        for item in items:
            stmt = statements.get(item)
            if stmt is None:
                match = _EMITTED_STATEMENT.fullmatch(item)
                if match is None:
                    return None
                stmt = statements[item] = _emitted_statement(*match.groups())
            body.append(stmt)
        rules.append(Rule(name, stack_count, layout, None, body, call))
    return rules


def _emitted_list(lists, key: str, params) -> tuple[int, list[str]] | None:
    """The stack count and other names of the list text ``key`` if it is
    names joined by ``", "``, else None.  Other names equal to ``params``
    are ``params`` itself."""
    split = lists.get(key)
    if split is None:
        names = key.split(", ") if key else []
        if not all(map(_NAME_RE.fullmatch, names)):
            return None
        split = _split_stack_run(names)
        if split[1] == params:
            split = split[0], params
        lists[key] = split
    return split


def _emitted_call(lists, params, callee: str, key: str) -> Call | None:
    split = _emitted_list(lists, key, params)
    if split is None or split[1] is not params:
        return None
    return Call(callee, split[0])


def _emitted_statement(target, functor, a, b, operand, lhs, op, rhs, mnemonic) -> Statement:
    if mnemonic:
        return Nop(mnemonic)
    if functor:
        return Assign(target, BitOp(functor, _atom(a), _atom(b)))
    if operand:
        return Assign(target, Not(_atom(operand)))
    if op:
        return Assign(target, BinOp(op, _atom(lhs), _atom(rhs)))
    return Assign(target, _atom(lhs))


def _atom(text: str) -> Atom:
    return Num(int(text)) if text[0] in "0123456789" else Var(text)


def _search_bad(text: str, at: int, end: int) -> int:
    """The offset of the first character in ``text[at:end]`` outside
    comments that begins no token (a ``>`` after ``=`` ends an arrow), or
    -1.  ``at`` and ``end`` must not fall inside a comment."""
    while True:
        match = _SUSPECT.search(text, at, end)
        if match is None:
            return -1
        start = match.start()
        char = text[start]
        if char == "-" and text.startswith("--", start):
            at = text.find("\n", start)  # past the comment
            if at < 0:
                return -1
        elif char == "-" or char == ">" and start and text[start - 1] == "=":
            at = start + 1
        else:
            return start


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

    def name_list(self) -> tuple[int, list[str]]:
        """The stack count and the other names of the parenthesised list."""
        self.expect("(", "'('")
        names = []
        if self.peek() != ")":
            while True:
                names.append(self.expect("name", "a variable name"))
                if self.peek() != ",":
                    break
                self.advance()
        self.expect(")", "')'")
        return _split_stack_run(names)


def _read_tokens(text: str, lmap, md_offsets) -> list[Rule]:
    """The rules of ``text``, read token by token; raises RbrSyntaxError.
    ``text`` holds no bad character (``_search_bad`` finds none)."""
    parser = _Parser(text)
    layout = params = None
    rules: list[Rule] = []
    while parser.peek() != "eof":
        name = parser.expect("name", "a rule name")
        at = parser.start
        _indexed_name(parser, _RULE_ID, name, at, "block_* or jump_* rule name")
        stack_count, rest = parser.name_list()
        parser.expect("=>", "'=>'")
        if layout is None:
            layout, params = _layout_from_params(rest, lmap, md_offsets, text, at), rest
        elif rest != params:
            raise parser.fail("parameters consistent across rules", at)
        if name.startswith("jump"):
            guard = _parse_guard(parser)
            parser.expect("|", "'|'")
            rules.append(Rule(name, stack_count, layout, guard, [], _parse_call(parser, params)))
        else:
            body, call = _parse_body(parser, params)
            rules.append(Rule(name, stack_count, layout, None, body, call))
    return rules


def _indexed_name(parser, pattern, name: str, at: int, what: str) -> None:
    """Check that ``pattern`` matches ``name`` in full, each digit group int-sized."""
    match = pattern.fullmatch(name)
    if match is None:
        raise parser.fail(what, at)
    for group, digits in enumerate(match.groups(), 1):
        if digits and digits.isascii() and digits.isdigit():
            _numeral(parser.text, at + match.start(group), digits)


def _split_stack_run(params: list[str]) -> tuple[int, list[str]]:
    count = 0
    while count < len(params) and params[count] == f"s{count}":
        count += 1
    return count, params[count:]


def _layout_from_params(rest, lmap, md_offsets, text: str, at: int) -> VarLayout:
    """The layout of the non-stack parameters ``rest`` of the head at ``at``."""
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
        raise _error(text, at, "parameters in canonical order")
    if len(set(named)) != len(named):
        raise _error(text, at, "distinct parameter names")
    if lmap:
        if sorted(lmap.values()) != list(range(locals_)):
            raise _error(text, at, "lmap header matching l parameters")
    if md_offsets and len(md_offsets) != md:
        raise _error(text, at, "md header matching md parameters")
    return VarLayout(
        k=g - 1,
        r=locals_ - 1,
        lmap=lmap,
        md_offsets=md_offsets,
        md_count=md,
        named_bc=named,
    )


def _parse_body(parser, params) -> tuple[list[Statement], Call | None]:
    body: list[Statement] = []
    required = False  # a comma came before this item
    while True:
        word = parser.value if parser.peek() == "name" else None
        if word == "call" and parser.next_is("("):
            call = _parse_call(parser, params)
            if parser.peek() == ",":
                raise parser.fail("the call to end the rule")
            return body, call
        if word == "nop" and parser.next_is("("):
            parser.advance()
            parser.expect("(", "'('")
            body.append(Nop(parser.expect("name", "a mnemonic")))
            parser.expect(")", "')'")
        elif word is not None and parser.next_is("="):
            body.append(_parse_assign(parser))
        elif required:
            raise parser.fail("a statement or call")
        else:
            return body, None  # empty body: here starts the next rule (or eof)
        if parser.peek() != ",":
            return body, None
        parser.advance()
        required = True


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


def _parse_call(parser, params) -> Call:
    if parser.expect("name", "'call'") != "call":
        raise parser.fail("'call'", parser.start)
    parser.expect("(", "'('")
    target = parser.expect("name", "a callee name")
    at = parser.start
    _indexed_name(parser, _RULE_ID, target, at, "a block_/jump_ callee")
    stack_count, rest = parser.name_list()
    parser.expect(")", "')'")
    if rest != params:
        raise parser.fail("canonical call arguments", at)
    return Call(target, stack_count)
