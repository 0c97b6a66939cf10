"""Block splitting, jump resolution, cloning, and DOT output."""

import random

from corpus import CORPUS, TWO_CALLER_CLONE
from progen import Asm, gen_program

from evmrbr.asm import disassemble
from evmrbr.cfg import (
    FallThrough,
    Halt,
    Jump,
    JumpI,
    block_leaders,
    emit_dot,
    id_sort_key,
    resolve_cfg,
    split_blocks,
)
from evmrbr.evm_exec import run_evm


def blocks_of(hexstr: str):
    return split_blocks(disassemble(bytes.fromhex(hexstr)))


def cfg_of(code: bytes, clone_cap: int = 32):
    return resolve_cfg(split_blocks(disassemble(code)), clone_cap)


def test_block_leaders_start_the_split_blocks():
    assert block_leaders([]) == set()
    # PUSH1 3, JUMP | JUMPDEST, STOP | PUSH1 0
    assert block_leaders(disassemble(bytes.fromhex("6003565b006000"))) == {0, 3, 5}
    for code in CORPUS.values():
        instrs = disassemble(code)
        assert block_leaders(instrs) == {b.start_pc for b in split_blocks(instrs)}


def test_split_jump_program():
    blocks = blocks_of("6003565b00")
    assert [b.start_pc for b in blocks] == [0, 3]
    assert [i.mnemonic for i in blocks[0].instrs] == ["PUSH1", "JUMP"]
    assert [i.mnemonic for i in blocks[1].instrs] == ["JUMPDEST", "STOP"]
    assert isinstance(blocks[0].terminator, Jump)
    assert isinstance(blocks[1].terminator, Halt)


def test_split_jumpi_program():
    blocks = blocks_of("6001600657005b00")
    assert [b.start_pc for b in blocks] == [0, 5, 6]
    assert isinstance(blocks[0].terminator, JumpI)
    assert blocks[0].terminator.fallthrough == "5"
    assert [i.mnemonic for i in blocks[1].instrs] == ["STOP"]
    assert [i.mnemonic for i in blocks[2].instrs] == ["JUMPDEST", "STOP"]


def test_split_single_halt():
    blocks = blocks_of("00")
    assert len(blocks) == 1
    assert isinstance(blocks[0].terminator, Halt)


def test_split_partitions_stream():
    rng = random.Random(7)
    for _ in range(20):
        code = gen_program(rng)
        instrs = disassemble(code)
        blocks = split_blocks(instrs)
        rebuilt = [ins for b in blocks for ins in b.instrs]
        assert rebuilt == instrs


def test_resolve_constant_jump():
    cfg = cfg_of(bytes.fromhex("6003565b00"))
    assert cfg.unresolved == []
    assert cfg.blocks["0"].terminator == Jump("3")
    assert cfg.entry == "0"
    assert cfg.blocks["0"].entry_height == 0


def test_resolve_jumpi_edges():
    cfg = cfg_of(bytes.fromhex("6001600657005b00"))
    assert cfg.blocks["0"].terminator == JumpI(taken="6", fallthrough="5")
    assert cfg.unresolved == []


def test_resolve_fallthrough_end_of_code_halts():
    cfg = cfg_of(bytes.fromhex("6005"))  # push then run off the end
    assert cfg.blocks["0"].terminator == Halt()
    assert cfg.unresolved == []


def test_unknown_target_unresolved():
    # PUSH1 0, CALLDATALOAD, JUMP: target depends on input
    cfg = cfg_of(bytes.fromhex("60003556"))
    assert cfg.blocks["0"].terminator == Halt()
    assert any("unknown" in reason for _, reason in cfg.unresolved)


def test_non_jumpdest_target_unresolved():
    # PUSH1 3, JUMP, STOP: 3 holds STOP, not JUMPDEST
    cfg = cfg_of(bytes.fromhex("60035600"))
    assert any("not a JUMPDEST" in reason for _, reason in cfg.unresolved)
    assert cfg.blocks["0"].terminator == Halt()


def test_unresolved_branch_keeps_fallthrough():
    # JUMPI whose taken target (pc 1) is not a block start: the branch edge
    # is dropped but the fall edge survives
    asm = Asm()
    asm.push(0).op("CALLDATALOAD").push(1).op("JUMPI")
    asm.push(9).push(0).op("SSTORE").op("STOP")
    cfg = cfg_of(asm.assemble())
    entry = cfg.blocks[cfg.entry]
    assert isinstance(entry.terminator, FallThrough)
    assert cfg.unresolved


def test_data_dependent_branch_target_unresolved():
    # taken target loaded from calldata: unknown at resolution time
    asm = Asm()
    asm.push(0).op("CALLDATALOAD").push(1).op("SWAP1").op("JUMPI")
    asm.op("STOP")
    cfg = cfg_of(asm.assemble())
    assert isinstance(cfg.blocks[cfg.entry].terminator, FallThrough)
    assert any("unknown" in reason for _, reason in cfg.unresolved)


def test_trailing_data_is_dead():
    cfg = cfg_of(bytes.fromhex("0060ff"))  # STOP then a metadata-ish trailer
    assert cfg.blocks["0"].dead is False
    dead = [b for b in cfg.blocks.values() if b.dead]
    assert dead and dead[0].start_pc == 1
    assert dead[0].entry_height is None


def test_two_caller_block_is_cloned():
    cfg = cfg_of(TWO_CALLER_CLONE)
    clones = [bid for bid in cfg.blocks if bid.startswith("13_c")]
    assert sorted(clones) == ["13_c0", "13_c1"]
    assert cfg.unresolved == []
    assert cfg.blocks["13_c0"].terminator == Jump("5")
    assert cfg.blocks["13_c1"].terminator == Jump("11")
    assert cfg.blocks["13_c0"].entry_height == 1
    # clones replicate the original instructions verbatim
    assert cfg.blocks["13_c0"].instrs == cfg.blocks["13_c1"].instrs


def test_clone_cap_records_unresolved():
    asm = Asm()
    sub = "sub"
    returns = [f"r{i}" for i in range(4)]
    for ret in returns:
        asm.push_label(ret)
        asm.push_label(sub)
        asm.op("JUMP")
        asm.label(ret).op("JUMPDEST")
    asm.op("STOP")
    asm.label(sub).op("JUMPDEST")
    asm.op("JUMP")
    code = asm.assemble()
    roomy = cfg_of(code, clone_cap=8)
    assert roomy.unresolved == []
    assert sum(1 for bid in roomy.blocks if "_c" in bid) == 4
    capped = cfg_of(code, clone_cap=2)
    assert any("clone cap" in reason for _, reason in capped.unresolved)


def test_entry_height_bookkeeping():
    rng = random.Random(11)
    for _ in range(25):
        cfg = cfg_of(gen_program(rng))
        assert cfg.unresolved == []
        for block in cfg.live_blocks():
            delta_sum = sum(i.opcode.alpha - i.opcode.delta for i in block.instrs)
            exit_height = block.entry_height + delta_sum
            term = block.terminator
            succs = []
            if isinstance(term, Jump):
                succs = [term.target]
            elif isinstance(term, JumpI):
                succs = [term.taken, term.fallthrough]
            elif isinstance(term, FallThrough):
                succs = [term.target]
            for succ in succs:
                assert cfg.blocks[succ].entry_height == exit_height, block.id


def test_jump_targets_start_with_jumpdest():
    rng = random.Random(13)
    for _ in range(25):
        cfg = cfg_of(gen_program(rng))
        for block in cfg.live_blocks():
            term = block.terminator
            targets = []
            if isinstance(term, Jump):
                targets = [term.target]
            elif isinstance(term, JumpI):
                targets = [term.taken]
            for target in targets:
                assert cfg.blocks[target].instrs[0].mnemonic == "JUMPDEST"


def test_concrete_trace_is_cfg_path():
    rng = random.Random(17)
    programs = [gen_program(rng) for _ in range(15)] + list(CORPUS.values())
    for code in programs:
        cfg = cfg_of(code)
        edges = set()
        for block in cfg.live_blocks():
            term = block.terminator
            targets = []
            if isinstance(term, Jump):
                targets = [term.target]
            elif isinstance(term, JumpI):
                targets = [term.taken, term.fallthrough]
            elif isinstance(term, FallThrough):
                targets = [term.target]
            edges |= {(block.start_pc, id_sort_key(t)[0]) for t in targets}
        calldata = bytes(range(1, 129))
        env = {"gas": 7, "number": 3}
        _, trace = run_evm(code, calldata=calldata, env=env)
        assert trace[0] == 0
        for src, dst in zip(trace, trace[1:]):
            assert (src, dst) in edges, (src, dst)


def test_folded_arithmetic_jump_target():
    # target computed on the stack: 4 + 3 = 7
    code = bytes.fromhex("60046003" + "0156" + "00" + "5b600160005500")
    cfg = cfg_of(code)
    assert cfg.unresolved == []
    assert cfg.blocks["0"].terminator == Jump("7")
    _, trace = run_evm(code)
    assert trace == [0, 7]


def test_folding_wraps_like_the_machine():
    # (2**256 - 1) + 38 wraps to 37, the JUMPDEST offset
    code = bytes.fromhex("7f" + "ff" * 32 + "6026" + "0156" + "5b600160005500")
    cfg = cfg_of(code)
    assert cfg.unresolved == []
    assert cfg.blocks["0"].terminator == Jump("37")
    state, trace = run_evm(code)
    assert trace == [0, 37]
    assert state.storage[0] == 1


def test_branch_to_its_own_fallthrough():
    # JUMPI whose constant target is the next instruction: both edges agree
    code = bytes.fromhex("600035600657" + "5b600160005500")
    # offsets: 0 PUSH1 0, 2 CALLDATALOAD, 3 PUSH1 6, 5 JUMPI, 6 JUMPDEST ...
    cfg = cfg_of(code)
    term = cfg.blocks["0"].terminator
    assert isinstance(term, JumpI)
    assert term.taken == "6" and term.fallthrough == "6"


def test_dot_single_block():
    dot = emit_dot(cfg_of(b"\x00"))
    assert dot.startswith("digraph cfg {")
    assert '"0"' in dot
    assert "->" not in dot


def test_dot_jump_edge():
    dot = emit_dot(cfg_of(bytes.fromhex("6003565b00")))
    assert dot.count("->") == 1
    assert '"0" -> "3" [label="jump"];' in dot


def test_dot_branch_labels_and_determinism():
    code = bytes.fromhex("6001600657005b00")
    first = emit_dot(cfg_of(code))
    second = emit_dot(cfg_of(code))
    assert first == second
    assert 'label="true"' in first and 'label="false"' in first


def test_dot_deterministic_on_generated():
    rng = random.Random(23)
    for _ in range(5):
        code = gen_program(rng)
        assert emit_dot(cfg_of(code)) == emit_dot(cfg_of(code))


def test_id_sort_key():
    ids = ["10", "2", "10_c1", "10_c0", "3"]
    assert sorted(ids, key=id_sort_key) == ["2", "3", "10", "10_c0", "10_c1"]
