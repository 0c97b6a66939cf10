"""Disassembler/assembler behaviour and round-trip properties."""

import random

import pytest

from evmrbr.asm import Instruction, assemble, disassemble, format_listing, parse_hex
from evmrbr.errors import InconsistentOffsets, NonHexCharacter, OddDigitCount, TruncatedPush
from evmrbr.opcodes import BY_NAME, for_byte


def test_disassemble_push():
    instrs = disassemble(bytes.fromhex("6005"))
    assert len(instrs) == 1
    assert instrs[0].mnemonic == "PUSH1"
    assert instrs[0].immediate == 5
    assert instrs[0].offset == 0


def test_disassemble_add_program():
    instrs = disassemble(bytes.fromhex("600560040100"))
    assert [(i.offset, i.mnemonic) for i in instrs] == [
        (0, "PUSH1"), (2, "PUSH1"), (4, "ADD"), (5, "STOP"),
    ]
    assert instrs[0].immediate == 5 and instrs[1].immediate == 4


def test_truncated_push():
    with pytest.raises(TruncatedPush) as err:
        disassemble(bytes.fromhex("60"))
    assert err.value.offset == 0


def test_truncated_push_late():
    with pytest.raises(TruncatedPush) as err:
        disassemble(bytes.fromhex("00611234600055" + "62ffff"))
    assert err.value.offset == 7


def test_every_byte_consumed_once():
    code = bytes(range(256))
    # 0x60..0x7f swallow immediates, so decode a stream around them instead.
    instrs = disassemble(code[:0x60])
    assert sum(i.size for i in instrs) == 0x60
    offsets = [i.offset for i in instrs]
    assert offsets == sorted(set(offsets))


def test_unknown_bytes_are_invalid_class():
    instrs = disassemble(bytes.fromhex("0c"))
    assert instrs[0].mnemonic == "INVALID_0c"
    assert instrs[0].size == 1


def test_parse_hex_basic():
    assert parse_hex("0x00") == b"\x00"
    assert parse_hex("60 05\n") == bytes.fromhex("6005")
    assert parse_hex("  0xDeadBeef") == bytes.fromhex("deadbeef")
    assert parse_hex("") == b""


def test_parse_hex_odd():
    with pytest.raises(OddDigitCount):
        parse_hex("0x0")


def test_parse_hex_bad_character():
    with pytest.raises(NonHexCharacter) as err:
        parse_hex("60z5")
    assert err.value.position == 2
    assert err.value.char == "z"


@pytest.mark.parametrize("text", ["\x1c0x00", "\xa00x00", "\xa06001", "\u20030x00"])
def test_parse_hex_rejects_unicode_whitespace_before_prefix(text):
    # Only ASCII whitespace is ignored, before a 0x prefix as anywhere else.
    with pytest.raises(NonHexCharacter) as err:
        parse_hex(text)
    assert (err.value.position, err.value.char) == (0, text[0])


def test_parse_hex_ascii_whitespace_before_prefix():
    assert parse_hex(" \t\r\n\f\v0x60 0\n5") == bytes.fromhex("6005")
    with pytest.raises(NonHexCharacter) as err:
        parse_hex("\n0x0x00")
    assert (err.value.position, err.value.char) == (4, "x")


def test_assemble_examples():
    assert assemble([Instruction(0, BY_NAME["STOP"])]) == b"\x00"
    stream = [
        Instruction(0, BY_NAME["PUSH1"], 3),
        Instruction(2, BY_NAME["JUMP"]),
        Instruction(3, BY_NAME["JUMPDEST"]),
        Instruction(4, BY_NAME["STOP"]),
    ]
    assert assemble(stream) == bytes.fromhex("6003565b00")


def test_assemble_inconsistent_offsets():
    stream = [Instruction(0, BY_NAME["PUSH1"], 3), Instruction(1, BY_NAME["STOP"])]
    with pytest.raises(InconsistentOffsets):
        assemble(stream)


def test_assemble_immediate_out_of_range():
    with pytest.raises(ValueError):
        assemble([Instruction(0, BY_NAME["PUSH1"], 256)])


def random_stream(rng: random.Random, max_len: int = 40) -> list[Instruction]:
    instrs = []
    offset = 0
    for _ in range(rng.randint(0, max_len)):
        op = for_byte(rng.randrange(256))
        immediate = None
        if op.immediate_len:
            immediate = rng.randrange(1 << (8 * op.immediate_len))
        instrs.append(Instruction(offset, op, immediate))
        offset += 1 + op.immediate_len
    return instrs


@pytest.mark.parametrize("seed", range(20))
def test_roundtrip_random_streams(seed):
    rng = random.Random(seed)
    for _ in range(10):
        stream = random_stream(rng)
        assert disassemble(assemble(stream)) == stream


def test_listing_format():
    listing = format_listing(disassemble(bytes.fromhex("600501")))
    assert listing == "0: PUSH1 0x5\n2: ADD"


def test_instruction_is_a_named_tuple():
    push = Instruction(offset=4, opcode=BY_NAME["PUSH2"], immediate=0x1234)
    assert push == Instruction(4, BY_NAME["PUSH2"], 0x1234) == (4, BY_NAME["PUSH2"], 0x1234)
    assert hash(push) == hash((4, BY_NAME["PUSH2"], 0x1234))
    assert len({push, Instruction(4, BY_NAME["PUSH2"], 0x1234)}) == 1
    assert str(push) == "4: PUSH2 0x1234"
    assert (push.size, push.mnemonic) == (3, "PUSH2")
    stop = Instruction(offset=5, opcode=BY_NAME["STOP"])
    assert stop.immediate is None and str(stop) == "5: STOP" and stop.size == 1
    assert push._replace(offset=9) == Instruction(9, BY_NAME["PUSH2"], 0x1234)
    # disassembly builds the same class, without the keyword constructor
    assert type(disassemble(b"\x00")[0]) is Instruction
