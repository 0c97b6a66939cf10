"""Opcode table invariants."""

from evmrbr.opcodes import BY_NAME, KINDS, RULE_FORMS, TABLE, WORD_OPS, for_byte

# Stack effects of every instruction, written out independently of the
# implementation table: mnemonic -> (consumed, produced).
REFERENCE_EFFECTS = {
    "STOP": (0, 0), "ADD": (2, 1), "MUL": (2, 1), "SUB": (2, 1), "DIV": (2, 1),
    "SDIV": (2, 1), "MOD": (2, 1), "SMOD": (2, 1), "ADDMOD": (3, 1),
    "MULMOD": (3, 1), "EXP": (2, 1), "SIGNEXTEND": (2, 1),
    "LT": (2, 1), "GT": (2, 1), "SLT": (2, 1), "SGT": (2, 1), "EQ": (2, 1),
    "ISZERO": (1, 1), "AND": (2, 1), "OR": (2, 1), "XOR": (2, 1), "NOT": (1, 1),
    "BYTE": (2, 1), "SHL": (2, 1), "SHR": (2, 1), "SAR": (2, 1),
    "SHA3": (2, 1),
    "ADDRESS": (0, 1), "BALANCE": (1, 1), "ORIGIN": (0, 1), "CALLER": (0, 1),
    "CALLVALUE": (0, 1), "CALLDATALOAD": (1, 1), "CALLDATASIZE": (0, 1),
    "CALLDATACOPY": (3, 0), "CODESIZE": (0, 1), "CODECOPY": (3, 0),
    "GASPRICE": (0, 1), "EXTCODESIZE": (1, 1), "EXTCODECOPY": (4, 0),
    "RETURNDATASIZE": (0, 1), "RETURNDATACOPY": (3, 0), "EXTCODEHASH": (1, 1),
    "BLOCKHASH": (1, 1), "COINBASE": (0, 1), "TIMESTAMP": (0, 1),
    "NUMBER": (0, 1), "DIFFICULTY": (0, 1), "GASLIMIT": (0, 1),
    "POP": (1, 0), "MLOAD": (1, 1), "MSTORE": (2, 0), "MSTORE8": (2, 0),
    "SLOAD": (1, 1), "SSTORE": (2, 0), "JUMP": (1, 0), "JUMPI": (2, 0),
    "PC": (0, 1), "MSIZE": (0, 1), "GAS": (0, 1), "JUMPDEST": (0, 0),
    "CREATE": (3, 1), "CALL": (7, 1), "CALLCODE": (7, 1), "RETURN": (2, 0),
    "DELEGATECALL": (6, 1), "CREATE2": (4, 1), "STATICCALL": (6, 1),
    "REVERT": (2, 0), "INVALID": (0, 0), "SELFDESTRUCT": (1, 0),
}
REFERENCE_EFFECTS.update({f"PUSH{n}": (0, 1) for n in range(1, 33)})
REFERENCE_EFFECTS.update({f"DUP{n}": (n, n + 1) for n in range(1, 17)})
REFERENCE_EFFECTS.update({f"SWAP{n}": (n + 1, n + 1) for n in range(1, 17)})
REFERENCE_EFFECTS.update({f"LOG{n}": (n + 2, 0) for n in range(0, 5)})


def test_every_byte_decodes():
    seen = set()
    for b in range(256):
        op = for_byte(b)
        assert op.code == b
        assert op.mnemonic not in seen
        seen.add(op.mnemonic)


def test_stack_effects_match_reference():
    assert set(op.mnemonic for op in TABLE.values()) == set(REFERENCE_EFFECTS)
    for op in TABLE.values():
        assert (op.delta, op.alpha) == REFERENCE_EFFECTS[op.mnemonic], op.mnemonic


def test_immediates_only_on_push():
    for b in range(256):
        op = for_byte(b)
        if 0x60 <= b <= 0x7F:
            assert op.immediate_len == b - 0x5F
        else:
            assert op.immediate_len == 0


def test_invalid_class_halts():
    unknown = for_byte(0xF8)
    assert unknown.mnemonic == "INVALID_f8"
    assert unknown.halts and unknown.is_terminator
    assert (unknown.delta, unknown.alpha) == (0, 0)
    assert BY_NAME["INVALID_f8"] is unknown


def test_pair_indices():
    assert BY_NAME["PUSH32"].pair_index == 32
    assert BY_NAME["DUP16"].pair_index == 16
    assert BY_NAME["SWAP1"].pair_index == 1
    assert BY_NAME["LOG0"].pair_index == 0


def test_terminators():
    for name in ("JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"):
        assert BY_NAME[name].is_terminator, name
    for name in ("ADD", "JUMPDEST", "PUSH1", "SSTORE"):
        assert not BY_NAME[name].is_terminator, name


def test_every_rule_form_reaches_the_kind_table():
    # A form keyed by anything but a word operation would be dropped.
    for name, form in RULE_FORMS.items():
        assert KINDS[BY_NAME[name].code] == ("word", (WORD_OPS[name], form)), name
        assert form[0] in ("arith", "functor", "guard", "negation"), name
