"""Decode raw bytecode into typed instructions and back.

Decoding is total: every byte value is an opcode (unknown ones are
INVALID-class, see :mod:`evmrbr.opcodes`), and a PUSH whose immediate
bytes run past the end of the code reads the missing bytes as zeros, as
the EVM does.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InconsistentOffsets, NonHexCharacter, OddDigitCount
from .opcodes import Opcode, for_byte


class Instruction(NamedTuple):
    """One decoded instruction at a fixed byte offset.

    ``immediate`` is the unsigned big-endian value of the inline bytes and
    is None exactly when the opcode carries no immediate.
    """

    offset: int
    opcode: Opcode
    immediate: int | None = None

    @property
    def size(self) -> int:
        return 1 + self.opcode.immediate_len

    @property
    def mnemonic(self) -> str:
        return self.opcode.mnemonic

    def __str__(self) -> str:
        if self.immediate is None:
            return f"{self.offset}: {self.mnemonic}"
        return f"{self.offset}: {self.mnemonic} 0x{self.immediate:x}"


_WHITESPACE = " \t\r\n\f\v"
_NON_HEX = re.compile(f"[^0-9a-fA-F{_WHITESPACE}]")
_DROP_WHITESPACE = str.maketrans("", "", _WHITESPACE)


def parse_hex(text: str) -> bytes:
    """Parse hex text into bytes.

    Accepts an optional leading ``0x`` and ignores ASCII whitespace.  An odd
    digit count or any other character is rejected.
    """
    start = len(text) - len(text.lstrip(_WHITESPACE))
    if text.startswith(("0x", "0X"), start):
        start += 2
    bad = _NON_HEX.search(text, start)
    if bad:
        raise NonHexCharacter(bad.start(), bad.group())
    digits = text[start:].translate(_DROP_WHITESPACE)
    if len(digits) % 2 != 0:
        raise OddDigitCount()
    return bytes.fromhex(digits)


# (opcode, immediate width) of each byte value, looked up once.
_DECODE = [(op, op.immediate_len) for op in map(for_byte, range(256))]


# The last bytes ``disassemble`` decoded and their instructions.
_last: tuple[bytes, tuple[Instruction, ...]] = (b"", ())


def disassemble(code: bytes) -> list[Instruction]:
    """Decode every byte of ``code`` into an instruction stream; this never
    fails.

    A PUSH cut off by the end of the code is padded with zero bytes: its
    ``offset + size`` lies past the code, and its immediate is the bytes
    present shifted left.  Returns a new list on every call.  The last
    bytes decoded and their instructions are kept until different bytes are
    decoded, so decoding the same code again (as each case of a check does)
    copies that result.
    """
    global _last
    code = bytes(code)
    saved_code, saved = _last
    if code == saved_code:
        return list(saved)
    instrs = _decode(code)
    _last = (code, tuple(instrs))
    return instrs


def _decode(code: bytes) -> list[Instruction]:
    instrs: list[Instruction] = []
    append = instrs.append
    new = tuple.__new__  # skips the keyword-handling constructor
    offset = 0
    n = len(code)
    code = code + bytes(32)  # the EVM reads code past its end as zeros
    while offset < n:
        op, width = _DECODE[code[offset]]
        if width:
            end = offset + 1 + width
            append(new(Instruction, (offset, op, int.from_bytes(code[offset + 1 : end], "big"))))
            offset = end
        else:
            append(new(Instruction, (offset, op, None)))
            offset += 1
    return instrs


def assemble(instrs: list[Instruction]) -> bytes:
    """Encode an instruction stream back to bytes.

    The offset chain must be consistent (first at 0, each following the
    previous) so that the result disassembles to the same stream.
    """
    out = bytearray()
    expected = 0
    for ins in instrs:
        if ins.offset != expected:
            raise InconsistentOffsets(ins.offset, expected)
        out.append(ins.opcode.code)
        if ins.opcode.immediate_len:
            if ins.immediate is None or not 0 <= ins.immediate < (
                1 << (8 * ins.opcode.immediate_len)
            ):
                raise ValueError(f"immediate out of range at offset {ins.offset}")
            out += ins.immediate.to_bytes(ins.opcode.immediate_len, "big")
        expected += ins.size
    return bytes(out)


def format_listing(instrs: list[Instruction]) -> str:
    """Human-readable listing, one instruction per line."""
    return "\n".join(str(i) for i in instrs)
