"""Per-opcode pins of the resolver, the translator and the concrete oracle.

For every one of the 256 opcode bytes, three digests record what each
consumer of the opcode table does with that one instruction:

* the resolver: ``_simulate`` on four stacks of constants and on unknown
  operands, and the terminator ``split_blocks`` gives a block ending in it;
* the translator: the layout ``build_layout`` collects from it, and what
  ``tau`` emits (statements, stack cursor, fresh counter, warnings) with
  the popped operands tracked constants, untracked constants and unknown,
  with ``nops`` on and off;
* the oracle: ``run_evm``'s final state and trace, or its exception, on a
  minimal program that pushes the operands, runs the opcode and stops, for
  six sets of operands.

The digests were recorded before the three consumers read one shared
classification table, so a change to any opcode's meaning shows here.
"""

import hashlib
import logging

import pytest

from evmrbr.asm import Instruction
from evmrbr.cfg import Block, Cfg, Halt, _simulate, split_blocks
from evmrbr.diff import _ENV_NAMES
from evmrbr.errors import EvmRbrError
from evmrbr.evm_exec import run_evm
from evmrbr.opcodes import WORD, for_byte
from evmrbr.rbr import VarLayout
from evmrbr.translate import TranslationState, build_layout, tau

# Constants the layout below tracks: address 2 is l0 and 64 is l1, key 2 is
# a field, offset 2 is md0.  CALLDATACOPY-style writers get destination 2
# and length 40; EXTCODECOPY destination 64 and length 64.
_TRACKED = (2, 64, 40, 64) + tuple(range(5, 20))
_UNTRACKED = tuple(range(1000, 1019))
_LAYOUT = VarLayout(k=3, r=2, lmap={2: 0, 64: 1, 96: 2}, md_offsets=(2, 4), md_count=2)

# Stacks of 20 words, top last: ascending, descending, alternating in sign,
# and all equal, so that the word operations give distinct results.
_WORDS = tuple((i * 7919 + 13) ** 3 for i in range(20))
_ENTRIES = (
    _WORDS,
    _WORDS[::-1],
    tuple(w if i % 2 else WORD - w for i, w in enumerate(_WORDS)),
    (5,) * 20,
)


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _resolver_digest(byte: int) -> str:
    op = for_byte(byte)
    ins = Instruction(7, op, 0x2A if op.immediate_len else None)
    block = Block(id="7", start_pc=7, instrs=[ins], terminator=Halt())
    parts = [split_blocks([ins])[0].terminator]
    for entry in (*_ENTRIES, (None,) * 20):
        parts.append(_simulate(block, entry))
    return _digest(parts)


def _translator_digest(byte: int, caplog) -> str:
    op = for_byte(byte)
    ins = Instruction(7, op, 0x2A if op.immediate_len else None)
    block = Block(
        id="7",
        start_pc=7,
        instrs=[ins],
        terminator=Halt(),
        entry_height=op.delta + 2,
        const_operands=[_TRACKED[: op.delta]],
    )
    parts: list = [build_layout(Cfg(blocks={"7": block}, entry="7"))]
    for popped in (_TRACKED[: op.delta], _UNTRACKED[: op.delta], None):
        for nops in (False, True):
            caplog.clear()
            consts = {} if popped is None else {7: popped}
            state = TranslationState(m=op.delta + 1, block_id="7", nops=nops, consts=consts)
            stmts = tau(ins, state, _LAYOUT)
            parts.append((stmts, state.m, state.fresh_counter, list(caplog.messages)))
    return _digest(parts)


def _oracle_digest(byte: int) -> str:
    op = for_byte(byte)
    # PUSH32 x_{d-1} .. PUSH32 x_0, the opcode (PUSH data 0x2a..), JUMPDEST,
    # STOP.  In the first two runs x_0 is the JUMPDEST's offset, so a JUMP or
    # a JUMPI lands there, and x_1 decides a JUMPI.
    target = 33 * op.delta + 1 + op.immediate_len
    env = {name: 300 + i for i, name in enumerate(_ENV_NAMES)}
    parts = []
    tops = (
        (target, 3),
        (target, 0),
        (WORD - 12345, (1 << 255) + 99),
        (WORD - 5, 7),
        (0, 0),
        (31, 0xABCD),
    )
    for top in tops:
        operands = (*top, *_WORDS[2:])[: op.delta]
        code = b"".join(b"\x7f" + x.to_bytes(32, "big") for x in reversed(operands))
        code += bytes([byte]) + b"\x2a" * op.immediate_len + b"\x5b\x00"
        try:
            state, trace = run_evm(
                code,
                calldata=bytes(range(1, 70)),
                env=env,
                storage={target: 77, 3: 88},
                step_limit=100,
            )
        except EvmRbrError as exc:
            parts.append((type(exc).__name__, str(exc)))
        else:
            parts.append((state.stack, state.memory, state.storage, state.pc, trace))
    return _digest(parts)


@pytest.mark.parametrize("byte", range(256), ids=lambda b: f"{b:02x}")
def test_opcode_meaning_is_pinned(byte, caplog):
    caplog.set_level(logging.WARNING, logger="evmrbr")
    got = (_resolver_digest(byte), _translator_digest(byte, caplog), _oracle_digest(byte))
    assert got == _PINNED_OPCODE_DIGESTS[byte], for_byte(byte).mnemonic


# byte: (resolver, translator, oracle)
_PINNED_OPCODE_DIGESTS = {
    0x00: ("56c60cb227b1d45d", "9520c624c0ead614", "e84962b099774454"),  # STOP
    0x01: ("e4f32745b64e4805", "cfdaf960a55f1d52", "9b4851851109c149"),  # ADD
    0x02: ("0f880e756093b2d3", "17affc7f10204bdf", "a4e8848c18679225"),  # MUL
    0x03: ("ec9cb9257b9fa1bd", "748cca55cb663a09", "3e430f841e02db73"),  # SUB
    0x04: ("5d82a354633181ec", "b2702f1b8faecd4c", "07ea3ffc4e6b7628"),  # DIV
    0x05: ("bbef6edf21335d48", "ff5935bb80d104aa", "b2ecbd0415a9433d"),  # SDIV
    0x06: ("9963e92f64941af2", "bef151431ee258fc", "b2ad2173547fbdee"),  # MOD
    0x07: ("6f60e520b48c0420", "18b9d58c2af0467d", "cadaf1c330394a3b"),  # SMOD
    0x08: ("24475a4cafae64a4", "21dd657079818161", "4e4c2d07fb76ecc6"),  # ADDMOD
    0x09: ("a9806acdc107df7e", "5620d5ca1ddb416d", "6967bfd58f56d514"),  # MULMOD
    0x0a: ("a2fc589a5a7f01fd", "9cfabc699a3acc3b", "5b8a52203a1e6a8d"),  # EXP
    0x0b: ("b009faa128f6dfdf", "ca6061a3456bd781", "a6500d72e7042f93"),  # SIGNEXTEND
    0x0c: ("56c60cb227b1d45d", "e29b749c98f41d3f", "e84962b099774454"),  # INVALID_0c
    0x0d: ("56c60cb227b1d45d", "607948b3869e61a6", "e84962b099774454"),  # INVALID_0d
    0x0e: ("56c60cb227b1d45d", "1492c4184d6e2c34", "e84962b099774454"),  # INVALID_0e
    0x0f: ("56c60cb227b1d45d", "b62317cc4e6cf26c", "e84962b099774454"),  # INVALID_0f
    0x10: ("a6582e3ae38ac24e", "30b731742c977f85", "8a80c96f59e717e7"),  # LT
    0x11: ("284729fcd7c60748", "699cccedeb90cb6b", "c86673a98643c884"),  # GT
    0x12: ("5dffce3aa45a71dd", "4463044b37f549c7", "a3935475e1422873"),  # SLT
    0x13: ("94a0257c55ff5be6", "2640c122730e6d7c", "2d638b4b9eb7e8e3"),  # SGT
    0x14: ("7b08a469bbd7a9f4", "696a868b44829542", "3f7a0c7b089d497c"),  # EQ
    0x15: ("6f6d2736f3380b98", "d0977c2d36a62d64", "b366f8ff53102e8a"),  # ISZERO
    0x16: ("54de42485b1d427c", "cb469c0f3aff1b44", "e44537ac7ca8ebfd"),  # AND
    0x17: ("78e12936236a056e", "c87cb3ef1451b3fa", "e8c774b1aed59b03"),  # OR
    0x18: ("63aa5b8db2f30d95", "34486239494a775c", "898269a47e199520"),  # XOR
    0x19: ("130677ccc300dc2a", "59cba0be8f77c8f0", "dbcbf4956c7daf2b"),  # NOT
    0x1a: ("4718f575063772c4", "c56e526808f90e84", "4761694c1602080c"),  # BYTE
    0x1b: ("61a5492ad6aaa91b", "da11c79a1639e851", "e54a685309895fdb"),  # SHL
    0x1c: ("4718f575063772c4", "b8dc4362780b9a03", "f82589ea76911e3a"),  # SHR
    0x1d: ("f66e7a85b95173b4", "f802facbce557cc9", "94ffdc15f2516b76"),  # SAR
    0x1e: ("56c60cb227b1d45d", "6b65a9a8ec9da598", "e84962b099774454"),  # INVALID_1e
    0x1f: ("56c60cb227b1d45d", "6ab76ec6264b75fc", "e84962b099774454"),  # INVALID_1f
    0x20: ("07a49d2ae5bbf56d", "d01ea32c4be3d70d", "7184a9eb3023a68e"),  # SHA3
    0x21: ("56c60cb227b1d45d", "31e4e0be8ed12a0e", "e84962b099774454"),  # INVALID_21
    0x22: ("56c60cb227b1d45d", "7232bb373fa93c42", "e84962b099774454"),  # INVALID_22
    0x23: ("56c60cb227b1d45d", "0286ea394606a816", "e84962b099774454"),  # INVALID_23
    0x24: ("56c60cb227b1d45d", "58d1b7445129c7d9", "e84962b099774454"),  # INVALID_24
    0x25: ("56c60cb227b1d45d", "1714692ac0a7d5f9", "e84962b099774454"),  # INVALID_25
    0x26: ("56c60cb227b1d45d", "6f39ea314e7243f3", "e84962b099774454"),  # INVALID_26
    0x27: ("56c60cb227b1d45d", "f9de6278e87ea552", "e84962b099774454"),  # INVALID_27
    0x28: ("56c60cb227b1d45d", "a4fc9ea0a887921f", "e84962b099774454"),  # INVALID_28
    0x29: ("56c60cb227b1d45d", "3bccdf010be28b86", "e84962b099774454"),  # INVALID_29
    0x2a: ("56c60cb227b1d45d", "2a4a188cb42e1a3b", "e84962b099774454"),  # INVALID_2a
    0x2b: ("56c60cb227b1d45d", "b637a435ee98841a", "e84962b099774454"),  # INVALID_2b
    0x2c: ("56c60cb227b1d45d", "23a8d8fa81c474a8", "e84962b099774454"),  # INVALID_2c
    0x2d: ("56c60cb227b1d45d", "b21f55ef49d36886", "e84962b099774454"),  # INVALID_2d
    0x2e: ("56c60cb227b1d45d", "383238d73ec8793d", "e84962b099774454"),  # INVALID_2e
    0x2f: ("56c60cb227b1d45d", "b4ac758a9217a0d1", "e84962b099774454"),  # INVALID_2f
    0x30: ("4ea02372a1121825", "7dce9f8a5ced739e", "da9f748fbe21b77f"),  # ADDRESS
    0x31: ("d12732bfab81580c", "ff458ea6464381a4", "1d6ea310575150a0"),  # BALANCE
    0x32: ("4ea02372a1121825", "44788cdca77231b9", "0e42989fc1a6c92d"),  # ORIGIN
    0x33: ("4ea02372a1121825", "30ca3c4b98b69ec7", "95db78431c1f5e0d"),  # CALLER
    0x34: ("4ea02372a1121825", "79cb47280c78833e", "0f083b051cf4250b"),  # CALLVALUE
    0x35: ("d12732bfab81580c", "7af9944c4714ad8b", "c5b5f1dc74493270"),  # CALLDATALOAD
    0x36: ("4ea02372a1121825", "559119f5eef967ba", "79738d74a34e42ec"),  # CALLDATASIZE
    0x37: ("92f67fcf3b9c5b0c", "b1d548f603390cc0", "4454ce295544b3d8"),  # CALLDATACOPY
    0x38: ("4ea02372a1121825", "afa37dcecae4e749", "457aaffc914f2398"),  # CODESIZE
    0x39: ("92f67fcf3b9c5b0c", "683e1d19009d19c3", "bda8e1cf0d4e25f7"),  # CODECOPY
    0x3a: ("4ea02372a1121825", "075840399808607c", "ab1d1dd4b9786e69"),  # GASPRICE
    0x3b: ("d12732bfab81580c", "4153144542c8855a", "aa58b355c22fd921"),  # EXTCODESIZE
    0x3c: ("7353f17d83d11afd", "0fd620f5c284aee9", "5efb4ad430a465f0"),  # EXTCODECOPY
    0x3d: ("4ea02372a1121825", "51e4fcfba1739ffb", "668384b034e67717"),  # RETURNDATASIZE
    0x3e: ("92f67fcf3b9c5b0c", "f9cc6fccbf96f29f", "5cbf6f131d184613"),  # RETURNDATACOPY
    0x3f: ("d12732bfab81580c", "d12a7219695a2b3d", "8c5f1bfa127a3139"),  # EXTCODEHASH
    0x40: ("d12732bfab81580c", "db4d6f1c6f754349", "73e9aa472edf0b91"),  # BLOCKHASH
    0x41: ("4ea02372a1121825", "9762068f0d46ab69", "7a90b971f6a20071"),  # COINBASE
    0x42: ("4ea02372a1121825", "8a10758393132b76", "7b5e04f2b8a17c32"),  # TIMESTAMP
    0x43: ("4ea02372a1121825", "df74923b1bbd5dc0", "34f887812b2ef5d3"),  # NUMBER
    0x44: ("4ea02372a1121825", "5c03ab8dce54b582", "ac6842a3f42b8d8e"),  # DIFFICULTY
    0x45: ("4ea02372a1121825", "a5bf8b44bcf67a96", "8ca464885eb5d159"),  # GASLIMIT
    0x46: ("56c60cb227b1d45d", "c3509ef6973fde92", "e84962b099774454"),  # INVALID_46
    0x47: ("56c60cb227b1d45d", "a5b7dd555fc53d2b", "e84962b099774454"),  # INVALID_47
    0x48: ("56c60cb227b1d45d", "e035e01e03f4e164", "e84962b099774454"),  # INVALID_48
    0x49: ("56c60cb227b1d45d", "296fbb736ff5e3d2", "e84962b099774454"),  # INVALID_49
    0x4a: ("56c60cb227b1d45d", "40152d1276fb7a14", "e84962b099774454"),  # INVALID_4a
    0x4b: ("56c60cb227b1d45d", "e95de146e09b3fa7", "e84962b099774454"),  # INVALID_4b
    0x4c: ("56c60cb227b1d45d", "fb5d65ca83b67856", "e84962b099774454"),  # INVALID_4c
    0x4d: ("56c60cb227b1d45d", "dab3e197304ae590", "e84962b099774454"),  # INVALID_4d
    0x4e: ("56c60cb227b1d45d", "2e4900a30292a200", "e84962b099774454"),  # INVALID_4e
    0x4f: ("56c60cb227b1d45d", "effbce6935cc915d", "e84962b099774454"),  # INVALID_4f
    0x50: ("914ea16e3c887384", "0a7cc7637ea4dd7a", "762db3d38ce7b8fc"),  # POP
    0x51: ("d12732bfab81580c", "312126874b863460", "dcf1d4c9ab450bf2"),  # MLOAD
    0x52: ("3cc45f906fa81a53", "0e2f8559646d4a49", "b07bcbb5274f8df5"),  # MSTORE
    0x53: ("3cc45f906fa81a53", "22f8499cc5196936", "6b0098bec91ba236"),  # MSTORE8
    0x54: ("d12732bfab81580c", "3586ef3cd9582b52", "ace8f29b1b35c06b"),  # SLOAD
    0x55: ("3cc45f906fa81a53", "28c6a7b53a93216c", "53c9c65e8cbc5f44"),  # SSTORE
    0x56: ("42c39fe92f93ceaa", "e8a97a79fc695b92", "fcadd5dd9f6e8ded"),  # JUMP
    0x57: ("00d279a6d2caa0ba", "3be181ec79d0791f", "8f1a2b9e80c6b32d"),  # JUMPI
    0x58: ("f0fa5d32420bbec4", "0b2fca44c83dcf4b", "89a4dcd61e4b1e86"),  # PC
    0x59: ("4ea02372a1121825", "58872a55d5643fb3", "3a36a55bf60fc8f8"),  # MSIZE
    0x5a: ("4ea02372a1121825", "a9b9d3681fb4a958", "3434fc638bedee0d"),  # GAS
    0x5b: ("19778bab52cb5b87", "0b3d6c68811be94a", "cfbefe1fff59c9b3"),  # JUMPDEST
    0x5c: ("56c60cb227b1d45d", "7accb6d3f925c53b", "e84962b099774454"),  # INVALID_5c
    0x5d: ("56c60cb227b1d45d", "776d966015c51b3b", "e84962b099774454"),  # INVALID_5d
    0x5e: ("56c60cb227b1d45d", "273018ef53dfecf3", "e84962b099774454"),  # INVALID_5e
    0x5f: ("56c60cb227b1d45d", "447db79ca4903c8b", "e84962b099774454"),  # INVALID_5f
    0x60: ("5006e29ed080934b", "30b293a7d708a127", "28350de352f78f40"),  # PUSH1
    0x61: ("f00b76e9aa981f43", "05b9ad5e611ec387", "4b09bf326b7d7d78"),  # PUSH2
    0x62: ("ec36cfbb15a1d67d", "e98d5e812aad7aa0", "4462d53b5d79bbc2"),  # PUSH3
    0x63: ("0a3c86361dc1d8a8", "3770c0a2fc0ff1a4", "644b03aa6a6c43ba"),  # PUSH4
    0x64: ("259a21f5cfd07dfd", "1cefa7e5ba9ec750", "abdf4ce0cb78e643"),  # PUSH5
    0x65: ("d46b7711754bb0e7", "51d1e06754afcfa9", "062a6dcbe0d99ce9"),  # PUSH6
    0x66: ("be80727e554ed99a", "ab2d485872e53d59", "8d29b6da1f91287e"),  # PUSH7
    0x67: ("4287e13ad0f6fc57", "487ef0bab244469f", "f4d0386978219cfa"),  # PUSH8
    0x68: ("9640da552f751551", "222bdb3ac82f9489", "712d88bba05a9945"),  # PUSH9
    0x69: ("3c1901d094515305", "d7949ce912c18579", "9bcb973661a58e12"),  # PUSH10
    0x6a: ("d69e447c07f6072d", "e22e456e97dba227", "4f92a6e616b061a6"),  # PUSH11
    0x6b: ("8dfbafc892c18ea5", "e21c218b10e41b2e", "d0aca8db69bfa6c4"),  # PUSH12
    0x6c: ("9aae0258c4d61882", "72b09b191cb50cfd", "7697063ccc4a4fc9"),  # PUSH13
    0x6d: ("8195d4d60499ef53", "052c0e48c9640c62", "f0f69219bf46a287"),  # PUSH14
    0x6e: ("51d02800059b17e0", "4c74220c9c0d78aa", "219e3c155145721a"),  # PUSH15
    0x6f: ("7d1c113b22ce0123", "99e8e46ab60f0ea9", "554222cd79f02e6d"),  # PUSH16
    0x70: ("12fae5ea1ddc41e1", "ce194dfc962bbc34", "7293daa6614db3d2"),  # PUSH17
    0x71: ("d806f4422082381f", "d7de6587bf763c14", "15ce92ecab97e7d2"),  # PUSH18
    0x72: ("3218d9689b90877e", "189de3ca95e1d454", "a8bc0f705e2a620f"),  # PUSH19
    0x73: ("6d91e9c0d6bfa45d", "354b666c2e47e97a", "a8368ed7e6012f16"),  # PUSH20
    0x74: ("d3a4a2073a7b30b0", "7cf54fa656efc3ce", "140884d9ae387932"),  # PUSH21
    0x75: ("147444732c906581", "3aa85fee2c542ad3", "d7d435752a683fdb"),  # PUSH22
    0x76: ("9137bc512e6e7298", "b80b0f343042f9fd", "7e8de7169b612a1b"),  # PUSH23
    0x77: ("14466d307b5dab0a", "1b5e684778722301", "8db8b84fb2018707"),  # PUSH24
    0x78: ("00dbde073a7a5c62", "be7306de7ab25f63", "4e2a091bbb55cc1a"),  # PUSH25
    0x79: ("ed8f2b80baa4e2e0", "c1a9081a52b162f4", "6399ac3a613e1d6f"),  # PUSH26
    0x7a: ("a556affa5a76418c", "5809c75221055d56", "fc941e56e3d7e11f"),  # PUSH27
    0x7b: ("daa000837abb7415", "09bf2f19d5aeb516", "12f77faf0ab13d39"),  # PUSH28
    0x7c: ("bf59246a2821fd33", "9e731e1575fd004f", "86956f05c707eec2"),  # PUSH29
    0x7d: ("0c8f474205c18db9", "2a1766dec0c4db6d", "76d6807deb5d485d"),  # PUSH30
    0x7e: ("b0aa2b2dcd13a741", "9a2d1133853b607e", "3b4e5be7f28c147b"),  # PUSH31
    0x7f: ("dd4f503cc5f32db7", "ac3fcfced2cb2f3f", "3c5fb529f1f83bfa"),  # PUSH32
    0x80: ("38c08f0aad2c30c0", "6becc3c0743c52f7", "4770f5d29a8237d0"),  # DUP1
    0x81: ("1bece117ea37b407", "eb46d4554ef8e33e", "9226417e4ecd6bee"),  # DUP2
    0x82: ("c8b87116847a4e8b", "b5e0a6951b3ab45e", "87cbbed2e954e8de"),  # DUP3
    0x83: ("7b104b469b10f1dc", "5710283644420bb3", "220642e8ec059ae9"),  # DUP4
    0x84: ("e4bbaf430a203045", "680265ef970984d6", "1ab5248d5abda4dc"),  # DUP5
    0x85: ("451dd0c4e257310b", "a71da9dc3ebc033b", "854c778aa22a40a7"),  # DUP6
    0x86: ("af1417385496b6c6", "ee1098392d7e3306", "b7ad525554725997"),  # DUP7
    0x87: ("d90d1231fb03b6fe", "c3f10f81a0f26607", "4ee59e6854b99f76"),  # DUP8
    0x88: ("f6a45cb82170f1af", "ea3b5b02120107cb", "17f29dede8ef8fbd"),  # DUP9
    0x89: ("6f0c7460d3ebf946", "12a3c592d1bab710", "dedfdc0fc7361c5c"),  # DUP10
    0x8a: ("6eb28b6bf69179af", "2c620d48d5508a24", "9cee21b4ebd4b94b"),  # DUP11
    0x8b: ("d3754a123db89551", "2306a460f3fefdbf", "506d42b2f67736c3"),  # DUP12
    0x8c: ("aaf805211e654bf8", "2c7c1b3210bcc0ac", "87e8feb33dbab693"),  # DUP13
    0x8d: ("d08273b0bc802f9b", "ebd27bdea4a6f5a5", "f84159b02dcecf48"),  # DUP14
    0x8e: ("8e0f85b2adb8fb91", "3b872f6b2ba9a64e", "98f63ff8da006784"),  # DUP15
    0x8f: ("ec7a1a1b7203ba55", "9488907c4f52cc2d", "8fd557987a6d2b3a"),  # DUP16
    0x90: ("22daa5d95cc0e942", "e1be3ebe34a01d68", "1f3ea562ed9f9bb8"),  # SWAP1
    0x91: ("4a592d7a8dd0f4cb", "c392b49431ac248f", "7fb9c001b4dde3fa"),  # SWAP2
    0x92: ("2ad1800ffdb1f8b4", "2332cb39b93f308f", "2475f1ddf8653734"),  # SWAP3
    0x93: ("cb04dc3fa0b5a8ff", "366350fdd4ace102", "a79907ca35325b36"),  # SWAP4
    0x94: ("7ab66002859c308e", "453a29c4e341a78e", "783ff7a0e8af2fd5"),  # SWAP5
    0x95: ("941164130ea2c08e", "af255e8fc3773900", "f2b09b9eba09641e"),  # SWAP6
    0x96: ("4e16d88edc264ead", "ba88ca280dfc9726", "b30e5b9dfcb7a0e8"),  # SWAP7
    0x97: ("8629d5ddab5032db", "5fadcc8f2e2e21d2", "6941fc5f2a9dd11f"),  # SWAP8
    0x98: ("950c9270695557ce", "f228fd160ac3fb2f", "cd29fce3f6bbab37"),  # SWAP9
    0x99: ("0a993afd82166281", "05a781fc4e324dcd", "6caeda3b469df715"),  # SWAP10
    0x9a: ("6e3c331bf6e5c2eb", "bb7aada207143d57", "da399f6d8c072944"),  # SWAP11
    0x9b: ("05f3272f10864c2d", "3ab91e89263a6953", "0f38febeee7c7e25"),  # SWAP12
    0x9c: ("4de1cc3a292a151a", "914a085ca22a8b90", "b68e661c87bae670"),  # SWAP13
    0x9d: ("1c7ea6227cea87ce", "36b8136b3d317a5b", "4faa802b6f5bd215"),  # SWAP14
    0x9e: ("b1b4f0a89bc54661", "618f88ec10a5647f", "6b7d9d7bd7fc3aab"),  # SWAP15
    0x9f: ("2a51f997dadc3bff", "f79a7e0c26714151", "df1db83f0b2cf3c7"),  # SWAP16
    0xa0: ("3cc45f906fa81a53", "b2dbb6156e3ed744", "ba4e1487a1fa33ac"),  # LOG0
    0xa1: ("92f67fcf3b9c5b0c", "66780146d966234b", "395e0d336ff9f488"),  # LOG1
    0xa2: ("7353f17d83d11afd", "5d57457666af3c2e", "4bec03499dcc7b23"),  # LOG2
    0xa3: ("fed76c8262bfef6b", "f2fac98256734945", "295ff6734302227e"),  # LOG3
    0xa4: ("40b9e690f0e8f708", "481a40fee2771e0a", "dad60e7b016c161b"),  # LOG4
    0xa5: ("56c60cb227b1d45d", "cf4e2534aa5efcbb", "e84962b099774454"),  # INVALID_a5
    0xa6: ("56c60cb227b1d45d", "ac84d79f75813f56", "e84962b099774454"),  # INVALID_a6
    0xa7: ("56c60cb227b1d45d", "680af8a193ddf6a5", "e84962b099774454"),  # INVALID_a7
    0xa8: ("56c60cb227b1d45d", "95600baeedc6de5e", "e84962b099774454"),  # INVALID_a8
    0xa9: ("56c60cb227b1d45d", "1e46127222cdcf81", "e84962b099774454"),  # INVALID_a9
    0xaa: ("56c60cb227b1d45d", "bf061c78920ab70f", "e84962b099774454"),  # INVALID_aa
    0xab: ("56c60cb227b1d45d", "0cdc2bb6e6b41efb", "e84962b099774454"),  # INVALID_ab
    0xac: ("56c60cb227b1d45d", "054cb147fd27ca67", "e84962b099774454"),  # INVALID_ac
    0xad: ("56c60cb227b1d45d", "9c02ab3c7435d4cc", "e84962b099774454"),  # INVALID_ad
    0xae: ("56c60cb227b1d45d", "ccd614578b2680c3", "e84962b099774454"),  # INVALID_ae
    0xaf: ("56c60cb227b1d45d", "844a33b6468119c1", "e84962b099774454"),  # INVALID_af
    0xb0: ("56c60cb227b1d45d", "5e1d774315f302e5", "e84962b099774454"),  # INVALID_b0
    0xb1: ("56c60cb227b1d45d", "172d617ec9c93949", "e84962b099774454"),  # INVALID_b1
    0xb2: ("56c60cb227b1d45d", "4f8380309eba8e04", "e84962b099774454"),  # INVALID_b2
    0xb3: ("56c60cb227b1d45d", "d7f74c0233b8dffe", "e84962b099774454"),  # INVALID_b3
    0xb4: ("56c60cb227b1d45d", "bd5ca78d924318e0", "e84962b099774454"),  # INVALID_b4
    0xb5: ("56c60cb227b1d45d", "07a4ca7790469e44", "e84962b099774454"),  # INVALID_b5
    0xb6: ("56c60cb227b1d45d", "c4b55f03ea69cdfc", "e84962b099774454"),  # INVALID_b6
    0xb7: ("56c60cb227b1d45d", "f042869ff25d749a", "e84962b099774454"),  # INVALID_b7
    0xb8: ("56c60cb227b1d45d", "bbf45dbebbc4deb5", "e84962b099774454"),  # INVALID_b8
    0xb9: ("56c60cb227b1d45d", "6fdbef62b367ab9b", "e84962b099774454"),  # INVALID_b9
    0xba: ("56c60cb227b1d45d", "154d8297d03912dd", "e84962b099774454"),  # INVALID_ba
    0xbb: ("56c60cb227b1d45d", "35e914aa8590d417", "e84962b099774454"),  # INVALID_bb
    0xbc: ("56c60cb227b1d45d", "7710f59e6cb9cc20", "e84962b099774454"),  # INVALID_bc
    0xbd: ("56c60cb227b1d45d", "5f4990116f16aee5", "e84962b099774454"),  # INVALID_bd
    0xbe: ("56c60cb227b1d45d", "945aee0e7ad4cfaf", "e84962b099774454"),  # INVALID_be
    0xbf: ("56c60cb227b1d45d", "b1a9b448aeeafda7", "e84962b099774454"),  # INVALID_bf
    0xc0: ("56c60cb227b1d45d", "6eb345aebc1935e7", "e84962b099774454"),  # INVALID_c0
    0xc1: ("56c60cb227b1d45d", "4f63b10b553474be", "e84962b099774454"),  # INVALID_c1
    0xc2: ("56c60cb227b1d45d", "60a3d3aadd60e00f", "e84962b099774454"),  # INVALID_c2
    0xc3: ("56c60cb227b1d45d", "4afd9b14ac38b37c", "e84962b099774454"),  # INVALID_c3
    0xc4: ("56c60cb227b1d45d", "535b52a8545440fd", "e84962b099774454"),  # INVALID_c4
    0xc5: ("56c60cb227b1d45d", "46af3d1ce8d8ba5f", "e84962b099774454"),  # INVALID_c5
    0xc6: ("56c60cb227b1d45d", "27f9f3f5dcde3fab", "e84962b099774454"),  # INVALID_c6
    0xc7: ("56c60cb227b1d45d", "11b972e18144f9bc", "e84962b099774454"),  # INVALID_c7
    0xc8: ("56c60cb227b1d45d", "fe4727e893cf03dd", "e84962b099774454"),  # INVALID_c8
    0xc9: ("56c60cb227b1d45d", "58c141b5576131a5", "e84962b099774454"),  # INVALID_c9
    0xca: ("56c60cb227b1d45d", "d4c00d75ddb7ee42", "e84962b099774454"),  # INVALID_ca
    0xcb: ("56c60cb227b1d45d", "7d98bec97744da5f", "e84962b099774454"),  # INVALID_cb
    0xcc: ("56c60cb227b1d45d", "635d4dec9c7f8857", "e84962b099774454"),  # INVALID_cc
    0xcd: ("56c60cb227b1d45d", "eb9313d9f49d31b3", "e84962b099774454"),  # INVALID_cd
    0xce: ("56c60cb227b1d45d", "cf0c065b32e3dd76", "e84962b099774454"),  # INVALID_ce
    0xcf: ("56c60cb227b1d45d", "a01ac0f5de1eff79", "e84962b099774454"),  # INVALID_cf
    0xd0: ("56c60cb227b1d45d", "e4578f5714558971", "e84962b099774454"),  # INVALID_d0
    0xd1: ("56c60cb227b1d45d", "626b8acc4d702519", "e84962b099774454"),  # INVALID_d1
    0xd2: ("56c60cb227b1d45d", "9bdd5f1a36819024", "e84962b099774454"),  # INVALID_d2
    0xd3: ("56c60cb227b1d45d", "81c447e29ce763d9", "e84962b099774454"),  # INVALID_d3
    0xd4: ("56c60cb227b1d45d", "7746af12d9bd66cc", "e84962b099774454"),  # INVALID_d4
    0xd5: ("56c60cb227b1d45d", "3809787b2b32f828", "e84962b099774454"),  # INVALID_d5
    0xd6: ("56c60cb227b1d45d", "eb1ef349c129dd05", "e84962b099774454"),  # INVALID_d6
    0xd7: ("56c60cb227b1d45d", "3a4ddc316419e107", "e84962b099774454"),  # INVALID_d7
    0xd8: ("56c60cb227b1d45d", "13e160125213ed04", "e84962b099774454"),  # INVALID_d8
    0xd9: ("56c60cb227b1d45d", "adec0700ecdbd966", "e84962b099774454"),  # INVALID_d9
    0xda: ("56c60cb227b1d45d", "36d1e34948df8766", "e84962b099774454"),  # INVALID_da
    0xdb: ("56c60cb227b1d45d", "2617565166bde5fd", "e84962b099774454"),  # INVALID_db
    0xdc: ("56c60cb227b1d45d", "4370e4c7ea1b60be", "e84962b099774454"),  # INVALID_dc
    0xdd: ("56c60cb227b1d45d", "d1ee91b888a8696e", "e84962b099774454"),  # INVALID_dd
    0xde: ("56c60cb227b1d45d", "fdec2b8bc40f83f7", "e84962b099774454"),  # INVALID_de
    0xdf: ("56c60cb227b1d45d", "0cb74f8270c6e909", "e84962b099774454"),  # INVALID_df
    0xe0: ("56c60cb227b1d45d", "59b722985a79c46a", "e84962b099774454"),  # INVALID_e0
    0xe1: ("56c60cb227b1d45d", "d422275cbf85fe4e", "e84962b099774454"),  # INVALID_e1
    0xe2: ("56c60cb227b1d45d", "1b1a5bd21f7cf8f6", "e84962b099774454"),  # INVALID_e2
    0xe3: ("56c60cb227b1d45d", "949c761627a9772f", "e84962b099774454"),  # INVALID_e3
    0xe4: ("56c60cb227b1d45d", "d11c24ed0cc2ad2a", "e84962b099774454"),  # INVALID_e4
    0xe5: ("56c60cb227b1d45d", "b0bead4ad3823ab1", "e84962b099774454"),  # INVALID_e5
    0xe6: ("56c60cb227b1d45d", "e4036b11a1e6ce74", "e84962b099774454"),  # INVALID_e6
    0xe7: ("56c60cb227b1d45d", "4220ca50abab492a", "e84962b099774454"),  # INVALID_e7
    0xe8: ("56c60cb227b1d45d", "51dbbae39c30a6e7", "e84962b099774454"),  # INVALID_e8
    0xe9: ("56c60cb227b1d45d", "116080764e74bef5", "e84962b099774454"),  # INVALID_e9
    0xea: ("56c60cb227b1d45d", "14bfb6c1417bc3a7", "e84962b099774454"),  # INVALID_ea
    0xeb: ("56c60cb227b1d45d", "6ba1c2ea7d93d64b", "e84962b099774454"),  # INVALID_eb
    0xec: ("56c60cb227b1d45d", "494ac9dd3ceb576f", "e84962b099774454"),  # INVALID_ec
    0xed: ("56c60cb227b1d45d", "2a516cb8590e9803", "e84962b099774454"),  # INVALID_ed
    0xee: ("56c60cb227b1d45d", "7266759c146d6423", "e84962b099774454"),  # INVALID_ee
    0xef: ("56c60cb227b1d45d", "5bf035e497dbdb2a", "e84962b099774454"),  # INVALID_ef
    0xf0: ("414d1d1dc3bb1abc", "9da0d734a78b011f", "d6cff60ae90031ff"),  # CREATE
    0xf1: ("99e8d4931b5cbe20", "8d9f6fe52819c25f", "0ce39c496a5dd85c"),  # CALL
    0xf2: ("99e8d4931b5cbe20", "a409ac8368108ab5", "a100858c58a46912"),  # CALLCODE
    0xf3: ("901a1d943fcd2e5e", "8363dc495f326ac1", "da688b38906186ac"),  # RETURN
    0xf4: ("73e5f123bca87b40", "06b4e167c5eb01b8", "604b353fde206f4c"),  # DELEGATECALL
    0xf5: ("19bd00923fcda3dc", "fce506bdb922a488", "7d40b3adea106a54"),  # CREATE2
    0xf6: ("56c60cb227b1d45d", "a3d4a20304f6b21c", "e84962b099774454"),  # INVALID_f6
    0xf7: ("56c60cb227b1d45d", "b816e1c9955eaed2", "e84962b099774454"),  # INVALID_f7
    0xf8: ("56c60cb227b1d45d", "901e452debb279d1", "e84962b099774454"),  # INVALID_f8
    0xf9: ("56c60cb227b1d45d", "c36bb471a4529ba5", "e84962b099774454"),  # INVALID_f9
    0xfa: ("73e5f123bca87b40", "0ba4b2aedae94298", "18a81acda3bd6b33"),  # STATICCALL
    0xfb: ("56c60cb227b1d45d", "83da2bfc2bee6d18", "e84962b099774454"),  # INVALID_fb
    0xfc: ("56c60cb227b1d45d", "8c7fb11e29769a84", "e84962b099774454"),  # INVALID_fc
    0xfd: ("901a1d943fcd2e5e", "1ce9f4003aa7cae3", "da688b38906186ac"),  # REVERT
    0xfe: ("56c60cb227b1d45d", "21a2d6149af88225", "e84962b099774454"),  # INVALID
    0xff: ("d008a62575b29921", "85968e9a9b0ae244", "03ecdce668df2359"),  # SELFDESTRUCT
}
