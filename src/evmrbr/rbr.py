"""Data model of the guarded rule-based representation.

A program is a sequence of rules.  ``block_<id>`` rules carry straight-line
assignments and at most one continuation call; ``jump_<id>`` rules come in
complementary guarded pairs encoding the two outcomes of a conditional
jump.  Every rule threads the same flat variable families: stack slots
``s0..sn`` (top at the highest index), contract fields ``g0..gk``, local
memory words ``l0..lr``, and blockchain data (``md*`` calldata words plus
named quantities such as ``gas``).
"""

from __future__ import annotations

from typing import Optional, Union

from .opcodes import Record, Value


class Num(Value):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class Var(Value):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


Atom = Union[Num, Var]


class BinOp(Value):
    """Arithmetic over two atoms; op is one of + - * / % ^."""

    __slots__ = __match_args__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Atom, rhs: Atom):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class BitOp(Value):
    """Bit operation functor; op is one of and, or, xor."""

    __slots__ = __match_args__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Atom, rhs: Atom):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Not(Value):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Atom):
        object.__setattr__(self, "operand", operand)


Expr = Union[Num, Var, BinOp, BitOp, Not]


class Assign(Value):
    __slots__ = __match_args__ = ("target", "value")

    def __init__(self, target: str, value: Expr):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "value", value)


class Nop(Value):
    """Marker recording one original bytecode mnemonic for cost accounting."""

    __slots__ = __match_args__ = ("mnemonic",)

    def __init__(self, mnemonic: str):
        object.__setattr__(self, "mnemonic", mnemonic)


Statement = Union[Assign, Nop]

RELATIONS = ("eq", "neq", "lt", "leq", "gt", "geq")

COMPLEMENT = {
    "eq": "neq",
    "neq": "eq",
    "lt": "geq",
    "geq": "lt",
    "gt": "leq",
    "leq": "gt",
}


class Guard(Value):
    __slots__ = __match_args__ = ("relation", "lhs", "rhs")

    def __init__(self, relation: str, lhs: Atom, rhs: Atom):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def negated(self) -> "Guard":
        return Guard(COMPLEMENT[self.relation], self.lhs, self.rhs)


class Call(Value):
    """Continuation: the callee name plus how many stack slots are passed.

    The argument list is always ``s0..s<stack_count-1>`` followed by the
    shared field/local/blockchain variables, so the count fixes it fully.
    """

    __slots__ = __match_args__ = ("target", "stack_count")

    def __init__(self, target: str, stack_count: int):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "stack_count", stack_count)


class VarLayout(Record):
    """Variable families shared by every rule of one translated program.

    ``k`` is the highest constant storage key seen and ``r`` the highest
    local index (-1 when the family is empty).  ``lmap`` maps constant
    memory addresses to local indices 0..r, ``md_offsets`` the ascending
    constant calldata offsets backing md0..md<q>, and ``named_bc`` the
    alphabetically sorted names of environment quantities the code reads.
    ``md_count`` equals ``len(md_offsets)`` for translator-built layouts;
    layouts recovered from text keep the widths even when the address
    tables are unavailable.
    """

    __slots__ = __match_args__ = ("k", "r", "lmap", "md_offsets", "md_count", "named_bc")

    def __init__(
        self,
        k: int = -1,
        r: int = -1,
        lmap: dict[int, int] | None = None,
        md_offsets: tuple[int, ...] = (),
        md_count: int = 0,
        named_bc: tuple[str, ...] = (),
    ):
        self.k = k
        self.r = r
        self.lmap = {} if lmap is None else lmap
        self.md_offsets = md_offsets
        self.md_count = md_count
        self.named_bc = named_bc

    def bc_names(self) -> list[str]:
        return [f"md{i}" for i in range(self.md_count)] + list(self.named_bc)

    def param_names(self) -> list[str]:
        """Non-stack parameters, in canonical order."""
        return (
            [f"g{i}" for i in range(self.k + 1)]
            + [f"l{i}" for i in range(self.r + 1)]
            + self.bc_names()
        )

    def arg_names(self, stack_count: int) -> list[str]:
        """Parameters of a rule, or arguments of a call, passing
        ``stack_count`` stack slots: ``s0..s<stack_count-1>``, then the
        non-stack parameters."""
        return [f"s{i}" for i in range(stack_count)] + self.param_names()


class Rule(Record):
    """One rule: ``name(params) => [guard |] body [, call(...)]``."""

    __slots__ = __match_args__ = ("name", "stack_params", "layout", "guard", "body", "continuation")

    def __init__(
        self,
        name: str,
        stack_params: int,
        layout: VarLayout,
        guard: Optional[Guard] = None,
        body: list[Statement] | None = None,
        continuation: Optional[Call] = None,
    ):
        self.name = name
        self.stack_params = stack_params
        self.layout = layout
        self.guard = guard
        self.body = [] if body is None else body
        self.continuation = continuation

    @property
    def is_jump(self) -> bool:
        return self.name.startswith("jump_")

    def params(self) -> list[str]:
        return self.layout.arg_names(self.stack_params)

    def call_args(self, call: Call) -> list[str]:
        return self.layout.arg_names(call.stack_count)

    def fresh_count(self) -> int:
        """Number of fresh_* variables used (next free index)."""
        return max(map(highest_fresh, self.body), default=-1) + 1


def highest_fresh(stmt: Statement) -> int:
    """Highest index of a fresh_* variable in ``stmt``; -1 when it has none."""
    highest = -1
    if isinstance(stmt, Assign):
        for name in _names_of(stmt.value) + [stmt.target]:
            if name.startswith("fresh_"):
                highest = max(highest, int(name[6:]))
    return highest


def _names_of(expr: Expr) -> list[str]:
    if isinstance(expr, Var):
        return [expr.name]
    if isinstance(expr, (BinOp, BitOp)):
        return _names_of(expr.lhs) + _names_of(expr.rhs)
    if isinstance(expr, Not):
        return _names_of(expr.operand)
    return []


def id_sort_key(block_id: str) -> tuple[int, int]:
    """Numeric ordering for block ids ``<pc>[_c<n>]``: by PC, then clone index."""
    pc, _, suffix = block_id.partition("_c")
    return int(pc), int(suffix) if suffix else -1


def rule_sort_key(name: str) -> tuple[int, int, int]:
    """Numeric ordering for rule names: their block id's, block before jump."""
    kind, _, block_id = name.partition("_")
    pc, clone = id_sort_key(block_id)
    return pc, clone, 1 if kind == "jump" else 0
