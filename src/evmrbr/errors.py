"""Exception types shared across the pipeline."""

from __future__ import annotations


class EvmRbrError(Exception):
    """Base class for all errors raised by this package."""


class HexError(EvmRbrError):
    """Malformed hex input (an input error, not a pipeline error)."""


class OddDigitCount(HexError):
    def __init__(self) -> None:
        super().__init__("odd number of hex digits")


class NonHexCharacter(HexError):
    def __init__(self, position: int, char: str) -> None:
        super().__init__(f"non-hex character {char!r} at position {position}")
        self.position = position
        self.char = char


class InconsistentOffsets(EvmRbrError):
    def __init__(self, offset: int, expected: int) -> None:
        super().__init__(f"instruction at offset {offset}, expected {expected}")
        self.offset = offset
        self.expected = expected


class StackUnderflow(EvmRbrError):
    """Translation-time underflow: block entry heights are inconsistent."""

    def __init__(self, block_id: str, offset: int) -> None:
        super().__init__(f"stack underflow in block {block_id} at offset {offset}")
        self.block_id = block_id
        self.offset = offset


class RbrSyntaxError(EvmRbrError):
    def __init__(self, line: int, column: int, expected: str) -> None:
        super().__init__(f"line {line}, column {column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class EvmFault(EvmRbrError):
    """Exceptional halt in the concrete interpreter (bad jump, underflow...)."""


class StepLimitExceeded(EvmRbrError):
    pass


class UnsupportedOpcode(EvmRbrError):
    def __init__(self, mnemonic: str) -> None:
        super().__init__(f"opcode {mnemonic} is outside the interpreted subset")
        self.mnemonic = mnemonic


class NoApplicableRule(EvmRbrError):
    def __init__(self, name: str, applicable: int) -> None:
        super().__init__(f"{applicable} guards of {name} applicable, expected exactly 1")
        self.name = name
        self.applicable = applicable


class UnboundVariable(EvmRbrError):
    def __init__(self, name: str, rule: str) -> None:
        super().__init__(f"variable {name} read before assignment in {rule}")
        self.name = name
        self.rule = rule
