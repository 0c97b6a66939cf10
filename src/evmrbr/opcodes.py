"""Opcode table for one fixed EVM instruction-set revision (Constantinople).

Every byte value decodes to exactly one opcode: bytes without an assigned
meaning map to a synthetic halting opcode named ``INVALID_xx`` so that
disassembly is total (deployed contracts routinely carry metadata trailers
that are not code).

The module also holds ``Record`` and ``Value``, the bases of the package's
record classes: it imports no other module of the package, so every module
can import them from here.
"""

from __future__ import annotations

import sys
from functools import cached_property
from operator import attrgetter
from typing import Callable


class _DataclassFields:
    """``__dataclass_fields__`` of a record class, for callers of
    ``dataclasses.replace``, ``fields``, ``asdict`` and ``astuple``.

    The fields are made on first read, and only when ``dataclasses`` is
    loaded already, as it is for any caller of those helpers; the package
    itself never loads it.  They carry no types or defaults.
    """

    def __init__(self):
        self.made: dict[type, dict] = {}

    def __get__(self, record, cls):
        fields = self.made.get(cls)
        if fields is None:
            dataclasses = sys.modules.get("dataclasses")
            if dataclasses is None:
                raise AttributeError("__dataclass_fields__")
            twin = dataclasses.make_dataclass(cls.__name__, cls.__match_args__)
            fields = self.made[cls] = twin.__dataclass_fields__
        return fields


class Record:
    """Base of the package's records: value equality, and a repr that reads
    ``Name(field=value, ...)``.

    A subclass names its fields, in constructor order, in ``__match_args__``
    (and, unless it needs a ``__dict__``, in ``__slots__`` too).  Two records
    are equal when they are of one type and their fields are equal.  A record
    does not hash, and copies, deep copies and pickles are rebuilt through
    its constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # The fields of a record: a tuple, or the value of its one field.
    _values = staticmethod(lambda record: ())
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__match_args__:
            cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


class Value(Record):
    """An immutable record: no field can be set or deleted, and equal values
    hash equal.  A subclass's ``__init__`` sets each field with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))


class Opcode(Value):
    """One opcode: byte value, stack effect and inline-data size.

    ``delta`` is the number of stack items consumed, ``alpha`` the number
    produced.  ``immediate_len`` is nonzero only for PUSH1..PUSH32.  The
    opcode keeps a ``__dict__`` for its cached properties.
    """

    __match_args__ = ("mnemonic", "code", "delta", "alpha", "immediate_len")

    def __init__(self, mnemonic: str, code: int, delta: int, alpha: int, immediate_len: int = 0):
        object.__setattr__(self, "mnemonic", mnemonic)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "immediate_len", immediate_len)

    @property
    def is_push(self) -> bool:
        return 0x60 <= self.code <= 0x7F

    @property
    def is_dup(self) -> bool:
        return 0x80 <= self.code <= 0x8F

    @property
    def is_swap(self) -> bool:
        return 0x90 <= self.code <= 0x9F

    @property
    def pair_index(self) -> int:
        """N of PUSHN/DUPN/SWAPN/LOGN."""
        if self.is_push:
            return self.code - 0x5F
        if self.is_dup:
            return self.code - 0x7F
        if self.is_swap:
            return self.code - 0x8F
        if 0xA0 <= self.code <= 0xA4:
            return self.code - 0xA0
        raise ValueError(f"{self.mnemonic} has no numeric suffix")

    @cached_property
    def is_invalid_class(self) -> bool:
        return self.mnemonic == "INVALID" or self.mnemonic.startswith("INVALID_")

    @cached_property
    def halts(self) -> bool:
        return self.mnemonic in _HALTING or self.is_invalid_class

    @cached_property
    def is_terminator(self) -> bool:
        """True when the opcode ends a basic block."""
        return self.mnemonic in ("JUMP", "JUMPI") or self.halts


_HALTING = frozenset({"STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"})

# (code, mnemonic, delta, alpha) for everything outside the PUSH/DUP/SWAP/LOG
# ranges, which are generated below.
_BASE = [
    (0x00, "STOP", 0, 0),
    (0x01, "ADD", 2, 1),
    (0x02, "MUL", 2, 1),
    (0x03, "SUB", 2, 1),
    (0x04, "DIV", 2, 1),
    (0x05, "SDIV", 2, 1),
    (0x06, "MOD", 2, 1),
    (0x07, "SMOD", 2, 1),
    (0x08, "ADDMOD", 3, 1),
    (0x09, "MULMOD", 3, 1),
    (0x0A, "EXP", 2, 1),
    (0x0B, "SIGNEXTEND", 2, 1),
    (0x10, "LT", 2, 1),
    (0x11, "GT", 2, 1),
    (0x12, "SLT", 2, 1),
    (0x13, "SGT", 2, 1),
    (0x14, "EQ", 2, 1),
    (0x15, "ISZERO", 1, 1),
    (0x16, "AND", 2, 1),
    (0x17, "OR", 2, 1),
    (0x18, "XOR", 2, 1),
    (0x19, "NOT", 1, 1),
    (0x1A, "BYTE", 2, 1),
    (0x1B, "SHL", 2, 1),
    (0x1C, "SHR", 2, 1),
    (0x1D, "SAR", 2, 1),
    (0x20, "SHA3", 2, 1),
    (0x30, "ADDRESS", 0, 1),
    (0x31, "BALANCE", 1, 1),
    (0x32, "ORIGIN", 0, 1),
    (0x33, "CALLER", 0, 1),
    (0x34, "CALLVALUE", 0, 1),
    (0x35, "CALLDATALOAD", 1, 1),
    (0x36, "CALLDATASIZE", 0, 1),
    (0x37, "CALLDATACOPY", 3, 0),
    (0x38, "CODESIZE", 0, 1),
    (0x39, "CODECOPY", 3, 0),
    (0x3A, "GASPRICE", 0, 1),
    (0x3B, "EXTCODESIZE", 1, 1),
    (0x3C, "EXTCODECOPY", 4, 0),
    (0x3D, "RETURNDATASIZE", 0, 1),
    (0x3E, "RETURNDATACOPY", 3, 0),
    (0x3F, "EXTCODEHASH", 1, 1),
    (0x40, "BLOCKHASH", 1, 1),
    (0x41, "COINBASE", 0, 1),
    (0x42, "TIMESTAMP", 0, 1),
    (0x43, "NUMBER", 0, 1),
    (0x44, "DIFFICULTY", 0, 1),
    (0x45, "GASLIMIT", 0, 1),
    (0x50, "POP", 1, 0),
    (0x51, "MLOAD", 1, 1),
    (0x52, "MSTORE", 2, 0),
    (0x53, "MSTORE8", 2, 0),
    (0x54, "SLOAD", 1, 1),
    (0x55, "SSTORE", 2, 0),
    (0x56, "JUMP", 1, 0),
    (0x57, "JUMPI", 2, 0),
    (0x58, "PC", 0, 1),
    (0x59, "MSIZE", 0, 1),
    (0x5A, "GAS", 0, 1),
    (0x5B, "JUMPDEST", 0, 0),
    (0xF0, "CREATE", 3, 1),
    (0xF1, "CALL", 7, 1),
    (0xF2, "CALLCODE", 7, 1),
    (0xF3, "RETURN", 2, 0),
    (0xF4, "DELEGATECALL", 6, 1),
    (0xF5, "CREATE2", 4, 1),
    (0xFA, "STATICCALL", 6, 1),
    (0xFD, "REVERT", 2, 0),
    (0xFE, "INVALID", 0, 0),
    (0xFF, "SELFDESTRUCT", 1, 0),
]


def _build_table() -> dict[int, Opcode]:
    table = {}
    for code, name, delta, alpha in _BASE:
        table[code] = Opcode(name, code, delta, alpha)
    for n in range(1, 33):
        code = 0x5F + n
        table[code] = Opcode(f"PUSH{n}", code, 0, 1, immediate_len=n)
    for n in range(1, 17):
        code = 0x7F + n
        table[code] = Opcode(f"DUP{n}", code, n, n + 1)
        code = 0x8F + n
        table[code] = Opcode(f"SWAP{n}", code, n + 1, n + 1)
    for n in range(0, 5):
        code = 0xA0 + n
        table[code] = Opcode(f"LOG{n}", code, n + 2, 0)
    return table


TABLE: dict[int, Opcode] = _build_table()

_INVALID_CLASS: dict[int, Opcode] = {
    b: Opcode(f"INVALID_{b:02x}", b, 0, 0) for b in range(256) if b not in TABLE
}

BY_NAME: dict[str, Opcode] = {
    op.mnemonic: op for op in (*TABLE.values(), *_INVALID_CLASS.values())
}


# PUSH0 (EIP-3855, Shanghai) is later than this table, so its byte decodes
# as INVALID_5f, a halt.
PUSH0 = 0x5F
JUMPDEST = 0x5B


def for_byte(b: int) -> Opcode:
    """Decode one byte value; total over 0x00..0xFF."""
    return TABLE.get(b) or _INVALID_CLASS[b]


# Opcodes reading one quantity of the transaction or chain environment,
# mapped to the variable name under which that quantity is threaded
# through the rules.  CALLDATASIZE is threaded too, but has a kind of its
# own in KINDS: its value is the calldata's size.
BLOCKCHAIN_READS: dict[str, str] = {
    "GAS": "gas",
    "NUMBER": "number",
    "TIMESTAMP": "timestamp",
    "CALLER": "caller",
    "CALLVALUE": "callvalue",
    "ADDRESS": "address",
    "ORIGIN": "origin",
    "GASPRICE": "gasprice",
    "COINBASE": "coinbase",
    "DIFFICULTY": "difficulty",
    "GASLIMIT": "gaslimit",
}


WORD = (1 << 256) - 1


def _to_signed(x: int) -> int:
    """Two's-complement reading of a 256-bit word."""
    return x - (1 << 256) if x >= (1 << 255) else x


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    a, b = _to_signed(a), _to_signed(b)
    q = abs(a) // abs(b)
    return (-q if (a < 0) != (b < 0) else q) & WORD


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    a, b = _to_signed(a), _to_signed(b)
    r = abs(a) % abs(b)
    return (-r if a < 0 else r) & WORD


def _signextend(b: int, x: int) -> int:
    if b >= 31:
        return x
    bit = 8 * b + 7
    low = (1 << (bit + 1)) - 1
    return x | (WORD ^ low) if x & (1 << bit) else x & low


# The word operations: mnemonic -> function over the popped operands, top
# of stack first; the opcode's ``delta`` is its arity.  Operands are
# 256-bit words and so is every result, wrapped as the machine wraps it.
# The resolver folds constants with these and the concrete interpreter
# executes them.
WORD_OPS: dict[str, Callable[..., int]] = {
    "ADD": lambda a, b: (a + b) & WORD,
    "MUL": lambda a, b: (a * b) & WORD,
    "SUB": lambda a, b: (a - b) & WORD,
    "DIV": lambda a, b: a // b if b else 0,
    "SDIV": _sdiv,
    "MOD": lambda a, b: a % b if b else 0,
    "SMOD": _smod,
    "ADDMOD": lambda a, b, n: (a + b) % n if n else 0,
    "MULMOD": lambda a, b, n: (a * b) % n if n else 0,
    "EXP": lambda a, b: pow(a, b, 1 << 256),
    "SIGNEXTEND": _signextend,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "SLT": lambda a, b: int(_to_signed(a) < _to_signed(b)),
    "SGT": lambda a, b: int(_to_signed(a) > _to_signed(b)),
    "EQ": lambda a, b: int(a == b),
    "ISZERO": lambda a: int(a == 0),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ WORD,
    "BYTE": lambda i, x: (x >> (8 * (31 - i))) & 0xFF if i < 32 else 0,
    "SHL": lambda a, b: (b << a) & WORD if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "SAR": lambda a, b: (_to_signed(b) >> min(a, 255)) & WORD,
}


# A word operation's form in the rules: an arithmetic operator, a functor,
# the relation a comparison opening a JUMPI's guard window gives the taken
# branch (signed ones coincide with the unsigned on the values the rules are
# meant for), or ISZERO's negation, which swaps a guard pair.  Other word
# operations, and these outside a guard window, translate to fresh_* values.
RULE_FORMS: dict[str, tuple[str, str | None]] = {
    "ADD": ("arith", "+"), "SUB": ("arith", "-"), "MUL": ("arith", "*"), "DIV": ("arith", "/"),
    "MOD": ("arith", "%"), "EXP": ("arith", "^"), "NOT": ("functor", "not"),
    "AND": ("functor", "and"), "OR": ("functor", "or"), "XOR": ("functor", "xor"),
    "LT": ("guard", "lt"), "GT": ("guard", "gt"), "EQ": ("guard", "eq"), "SLT": ("guard", "lt"),
    "SGT": ("guard", "gt"), "ISZERO": ("negation", None),
}


# Copy-style memory writers: index of the (destination, length) operands;
# a length of None is one byte.
_MEMORY_COPIES = {
    "CALLDATACOPY": (0, 2),
    "CODECOPY": (0, 2),
    "RETURNDATACOPY": (0, 2),
    "EXTCODECOPY": (1, 3),
    "MSTORE8": (0, None),
}

# Opcodes whose kind is their mnemonic in lower case, with no argument.
_NAMED_KINDS = frozenset(
    ("PC", "JUMPDEST", "JUMP", "JUMPI", "POP", "CALLDATALOAD", "MLOAD", "MSTORE", "SLOAD", "SSTORE")
)


def _kind(op: Opcode) -> tuple[str, object]:
    name = op.mnemonic
    if op.is_push:
        return "push", None
    if op.is_dup:
        return "dup", op.pair_index
    if op.is_swap:
        return "swap", op.pair_index
    if name in WORD_OPS:
        return "word", (WORD_OPS[name], RULE_FORMS.get(name))
    if name in BLOCKCHAIN_READS:
        return "env", BLOCKCHAIN_READS[name]
    if name == "CALLDATASIZE":
        return "calldatasize", "calldatasize"
    if name in _MEMORY_COPIES:
        return "memcopy", _MEMORY_COPIES[name]
    if name in _NAMED_KINDS:
        return name.lower(), None
    if op.halts and name != "SELFDESTRUCT":  # its effect lies outside the model
        return "halt", None
    return "opaque", None


# Opcode byte -> (kind, argument): the one classification of what an
# instruction does.  The resolver, the translator and the concrete
# interpreter each map the kinds to their own actions.  Arguments: the N of
# dup and swap, the (WORD_OPS function, RULE_FORMS form or None) pair of
# word, the threaded name of env and of calldatasize, and the (destination,
# length) operand indices of memcopy.  halt is every opcode that halts but
# SELFDESTRUCT: STOP, RETURN, REVERT and the INVALID class.  opaque is every
# effect outside the model: hashing, calls, logs, SELFDESTRUCT.  The other
# kinds, push, pc, jumpdest, jump, jumpi, pop, calldataload, mload, mstore,
# sload and sstore, take no argument.
KINDS: list[tuple[str, object]] = [_kind(for_byte(b)) for b in range(256)]
