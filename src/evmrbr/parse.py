"""Parser for the canonical rule text format (inverse of emit_rbr).

Rejects anything outside the grammar; on success the parsed rules compare
structurally equal to the rules the text was emitted from.  The layout
header comments (``-- lmap:`` / ``-- md:``) are read back so the address
tables survive the round trip.

The text is read in one lazy pass.  Line and column are computed from the
offset only when an error is raised.  A check up front finds the first
character outside comments that begins no token (a ``>`` only ends an
arrow), so a bad character is reported even when a grammar error comes
before it.  A search loop, which restarts after each ``-`` and ``>``,
runs only up to the end of the line of the last ``--``: the header
comments of emitted text.  The rest holds no comment, and a linear
prescan tells whether it is clean: it is ASCII, a search for a ``>``
after anything but ``=`` finds none, and deleting the token characters,
``-`` and ``>`` from its bytes (one ``bytes.translate`` call) leaves
nothing.  Only when the prescan fails does the loop go on, so the offset
it reports is the one it always reported.

The token path scans the next token at the current offset when it needs
it.  It is the only source of errors.  The shape ``emit_rbr`` writes is
read in larger units, each of which either stands for exactly what the
token path would read there or falls back to it at the same offset:

* A rule head's name is read by one match up to its ``(``, and `` =>``
  where the emitted text puts it.
* A parameter or argument list runs to the first ``)``.  Each
  ``parse_rbr`` call keeps a memo from the text inside the parentheses to
  its stack count and other names; a text that is not a plain name list
  (a comment, say) is stored as such and takes the token path.  Emitted
  programs have one list text per stack height.  A memo entry whose names
  equal the layout's parameters holds the parser's own list of them, so
  heads and calls compare it by identity.
* A guard and its ``|`` in the emitted spacing are read by one match, and
  the guard text is looked up in a memo of guards.
* A body statement in the emitted spacing, an assignment or a ``nop``
  marker, is read together with its comma by one match, and its text is
  looked up in a memo of statements.  On a miss the statement is built
  from the match.  Where a check could fail (a target outside the
  grammar, a ``fresh_`` name, a numeral past the int-string limit) the
  token path parses it at the same offset instead.
* A call is read up to its argument list by one match, and each rule or
  callee name is checked once per call of ``parse_rbr``.  One more match
  tells whether a ``,`` follows the call.

A guard or statement that the token path parsed is stored in its memo only
if that parse ended where the unit did.  On the benchmark's 24 KB contract
at seed 1 (2,226 rules, 890 guards of 8 distinct texts, 15,051 statements
of 1,649 distinct texts) the token path scans 49 tokens of the plain text
and 53 of the ``--nops`` text: the last statement of each halting rule, an
empty body, the end of the text.

Every memo lives in one ``_Parser``, so nothing is carried from one
``parse_rbr`` call to the next.
"""

from __future__ import annotations

import re
import string
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
# Outside comments these begin no token, except "-" (also the start of a
# comment) and the ">" of "=>".  One character class, so search is fast.
_SUSPECT = re.compile(r"[^\s\dA-Za-z_(),|=+*/%^]", re.A)
# The ASCII characters that _SUSPECT passes, "-" and ">".
_TOKEN_BYTES = (_SPACE + string.digits + string.ascii_letters + "_(),|=+*/%^->").encode()
# Characters of the tail that the prescan encodes and translates at a time,
# which bounds the copies it makes.
_PRESCAN_PIECE = 1 << 16
# A ">" that ends no arrow.  The literal first, so search skips to each ">".
_LONE_GT = re.compile(">(?<!=>)")
# A statement in the spacing emit_rbr writes, with its comma: one unit of a
# body.  Group 1 is the statement text, the key of the statement memo.  An
# assignment's target is group 2; its value is a functor and two operands
# (3-5), a negated operand (6), or an operand with an optional operator and
# second operand (7-9).  A nop marker's mnemonic is group 10.
_ATOM = rf"(?:{_NAME}|\d+)"
_UNIT = re.compile(_SKIP + rf"(({_NAME}) = (?:(and|or|xor)\(({_ATOM}), ({_ATOM})\)|not\(({_ATOM})\)"
                   rf"|({_ATOM})(?: ([{re.escape(_BIN_OPS)}]) ({_ATOM}))?)|nop\(({_NAME})\)),", re.A)
# A guard in the emitted spacing with its "|"; group 1 is the guard text.
_GUARD = re.compile(_SKIP + rf"({_NAME}\({_ATOM}, {_ATOM}\)) \|", re.A)
# A rule name where a head starts; a call up to its argument list.  Group 1
# is the rule name or the callee.
_HEAD = re.compile(_SKIP + rf"({_NAME})(?=\()", re.A)
_CALL = re.compile(_SKIP + rf"call\(({_NAME})(?=\()", re.A)
_COMMA = re.compile(_SKIP + ",", re.A)


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
        self.params: list[str] = []  # equal to layout.param_names(), see name_list
        self.lists: dict[str, tuple] = {}  # the list memo, see name_list
        self.rule_ids: set[str] = set()  # rule and callee names checked so far
        self.statements: dict[str, Statement] = {}  # the statement memo
        self.guards: dict[str, Guard] = {}  # the guard memo

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

    def take(self, punct: str) -> None:
        """Consume ``(`` or ``)`` where it stands, else as the next token."""
        if self.text.startswith(punct, self.pos):
            self.pos += 1
        else:
            self.expect(punct, f"'{punct}'")

    def next_is(self, kind: str) -> bool:
        """Whether the token after the current one is ``(`` or ``=``."""
        self.peek()
        return _NEXT[kind].match(self.text, self.end) is not None

    def fail(self, what: str, offset: int | None = None) -> RbrSyntaxError:
        self.peek()
        return _error(self.text, self.start if offset is None else offset, what)

    def name_list(self) -> tuple[int, list[str]]:
        """The stack count and the other names of the parenthesised list.

        The text up to the first ``)`` is looked up in the list memo; a
        text that is not a plain name list takes the token path.
        """
        text = self.text
        self.take("(")
        end = text.find(")", self.pos)
        if end >= 0:
            key = text[self.pos:end]
            split = self.lists.get(key)
            if split is None:
                split = _plain_list(key)
                if split and split[1] == self.params:
                    split = split[0], self.params  # compared by identity first
                self.lists[key] = split
            if split:
                self.pos = end + 1
                return split
        names = []
        if self.peek() != ")":
            while True:
                names.append(self.expect("name", "a variable name"))
                if self.peek() != ",":
                    break
                self.advance()
        self.expect(")", "')'")
        return _split_stack_run(names)


def _plain_list(text: str) -> tuple:
    """``_split_stack_run`` of ``text`` if it is a comma-separated list of
    names without comments, else ``()``."""
    if not text.strip(_SPACE):
        return 0, []
    names = [part.strip(_SPACE) for part in text.split(",")]
    if all(_NAME_RE.fullmatch(name) for name in names):
        return _split_stack_run(names)
    return ()


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


def _first_bad_character(text: str) -> int:
    """``_search_bad`` over all of ``text``.

    The search runs only up to the end of the line of the last ``--``.
    Past it no comment starts, so each ``-`` is a minus, and the rest is
    clean exactly when it is ASCII, each ``>`` in it follows a ``=``, and
    it holds nothing but token characters, ``-`` and ``>``.  Only if not
    does the search go on, to find the offset.
    """
    last = text.rfind("--")
    cut = 0 if last < 0 else text.find("\n", last) + 1 or len(text)
    bad = _search_bad(text, 0, cut)
    if bad >= 0 or cut == len(text):
        return bad
    if text.isascii() and _LONE_GT.search(text, cut) is None and all(
        not text[at : at + _PRESCAN_PIECE].encode("ascii").translate(None, _TOKEN_BYTES)
        for at in range(cut, len(text), _PRESCAN_PIECE)
    ):
        return -1
    return _search_bad(text, cut, len(text))


def parse_rbr(text: str) -> list[Rule]:
    """Parse rule text; raises RbrSyntaxError outside the grammar."""
    lmap = dict(_header_table(text, _LMAP_LINE, _LMAP_ENTRY, (1, 2)))
    md_offsets = tuple(off for off, in _header_table(text, _MD_LINE, _MD_ENTRY, (2,)))
    bad = _first_bad_character(text)
    if bad >= 0:
        raise _error(text, bad, f"a token (found {text[bad]!r})")
    parser = _Parser(text)
    rules: list[Rule] = []
    while True:
        head = _HEAD.match(text, parser.pos)
        if head is None and parser.peek() == "eof":
            return rules
        rules.append(_parse_rule(parser, head, lmap, md_offsets))


def _parse_rule(parser, head, lmap, md_offsets) -> Rule:
    """The rule at ``pos``; ``head`` is ``_HEAD``'s match there, if any."""
    if head:
        parser.pos = head.end()
        name, at = head.group(1), head.start(1)
    else:
        name = parser.expect("name", "a rule name")
        at = parser.start
    _check_rule_id(parser, name, at, "block_* or jump_* rule name")
    stack_count, rest = parser.name_list()
    if parser.text.startswith(" =>", parser.pos):
        parser.pos += 3
    else:
        parser.expect("=>", "'=>'")

    if parser.layout is None:
        parser.layout = _layout_from_params(rest, lmap, md_offsets, parser, at)
        parser.params = rest  # equal to layout.param_names(), and held by the list memo
    elif rest is not parser.params and rest != parser.params:
        raise parser.fail("parameters consistent across rules", at)

    if name.startswith("jump"):
        guard = _read_guard(parser)
        call = _parse_call(parser, _CALL.match(parser.text, parser.pos))
        return Rule(name, stack_count, parser.layout, guard, [], call)
    body, call = _parse_body(parser)
    return Rule(name, stack_count, parser.layout, None, body, call)


def _indexed_name(parser, pattern, name: str, at: int, what: str) -> None:
    """Check that ``pattern`` matches ``name`` in full, each digit group int-sized."""
    match = pattern.fullmatch(name)
    if match is None:
        raise parser.fail(what, at)
    for group, digits in enumerate(match.groups(), 1):
        if digits and digits.isascii() and digits.isdigit():
            _numeral(parser.text, at + match.start(group), digits)


def _check_rule_id(parser, name: str, at: int, what: str) -> None:
    """Check ``name`` as ``(block|jump)_<pc>[_c<n>]``, once per parse."""
    if name not in parser.rule_ids:
        _indexed_name(parser, _RULE_ID, name, at, what)
        parser.rule_ids.add(name)


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
    text, statements, match = parser.text, parser.statements, _UNIT.match
    body: list[Statement] = []
    required = False  # a comma came before this item
    while True:
        unit = match(text, parser.pos)
        while unit:
            key = unit.group(1)
            stmt = statements.get(key)
            if stmt is None:
                end = unit.end(1)
                stmt = _unit_statement(parser, unit)
                if parser.pos != end:  # the token path ended elsewhere
                    body.append(stmt)
                    break
                statements[key] = stmt
            body.append(stmt)
            required = True
            parser.pos = unit.end()  # past the unit's comma
            unit = match(text, parser.pos)
        if unit is None:  # not a statement unit
            fast = _CALL.match(text, parser.pos)
            word = parser.value if fast is None and parser.peek() == "name" else None
            if fast or word == "call" and parser.next_is("("):
                call = _parse_call(parser, fast)
                if _COMMA.match(text, parser.pos):
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


def _unit_atom(text: str) -> Atom:
    return Num(int(text)) if text[0] in "0123456789" else Var(text)


def _unit_statement(parser, unit) -> Statement:
    """The statement of ``unit``, a ``_UNIT`` match at ``pos``, built from
    its groups.  The token path reads it instead where a check could fail:
    a target outside ``_ASSIGN_TARGET``, a ``fresh_`` name, or a numeral
    past the int-string limit."""
    if unit.group(10):
        parser.pos = unit.end(1)
        return Nop(unit.group(10))
    if not _ASSIGN_TARGET.match(unit.group(2)) or "fresh_" in unit.group(1):
        return _parse_assign(parser)
    op, a, b, operand, lhs, bin_op, rhs = unit.group(3, 4, 5, 6, 7, 8, 9)
    try:
        if op:
            value = BitOp(op, _unit_atom(a), _unit_atom(b))
        elif operand:
            value = Not(_unit_atom(operand))
        elif bin_op:
            value = BinOp(bin_op, _unit_atom(lhs), _unit_atom(rhs))
        else:
            value = _unit_atom(lhs)
    except ValueError:  # a numeral past the int-string limit
        return _parse_assign(parser)
    parser.pos = unit.end(1)
    return Assign(unit.group(2), value)


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


def _read_guard(parser) -> Guard:
    """The guard and ``|`` at ``pos``.  A guard in the emitted spacing is
    looked up in the guard memo; on a miss the token path parses it, and
    the result is stored if that parse ended where the unit's guard did."""
    unit = _GUARD.match(parser.text, parser.pos)
    if unit:
        guard = parser.guards.get(unit.group(1))
        if guard is not None:
            parser.pos = unit.end()
            return guard
    guard = _parse_guard(parser)
    if unit and parser.pos == unit.end(1):
        parser.guards[unit.group(1)] = guard
        parser.pos = unit.end()
    else:
        parser.expect("|", "'|'")
    return guard


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


def _parse_call(parser, fast) -> Call:
    """The call at ``pos``; ``fast`` is ``_CALL``'s match there, if any."""
    if fast:
        parser.pos = fast.end()
        target, at = fast.group(1), fast.start(1)
    else:
        if parser.expect("name", "'call'") != "call":
            raise parser.fail("'call'", parser.start)
        parser.expect("(", "'('")
        target = parser.expect("name", "a callee name")
        at = parser.start
    _check_rule_id(parser, target, at, "a block_/jump_ callee")
    stack_count, rest = parser.name_list()
    parser.take(")")
    if rest is not parser.params and rest != parser.params:
        raise parser.fail("canonical call arguments", at)
    return Call(target, stack_count)
