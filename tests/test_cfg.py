"""Block splitting, jump resolution, cloning, and DOT output."""

import hashlib
import random
import re

import pytest

from corpus import CORPUS, TWO_CALLER_CLONE
from helpers import block_fuzz_codes
from progen import Asm, gen_program

import evmrbr.cfg
from evmrbr.asm import Instruction, disassemble
from evmrbr.cfg import (
    Block,
    FallThrough,
    Halt,
    Jump,
    JumpI,
    _simulate,
    emit_dot,
    id_sort_key,
    resolve_cfg,
    split_blocks,
    successors,
)
from evmrbr.cli import _cfg_summary
from evmrbr.evm_exec import run_evm
from evmrbr.opcodes import JUMPDEST, for_byte


def blocks_of(hexstr: str):
    return split_blocks(disassemble(bytes.fromhex(hexstr)))


def cfg_of(code: bytes, clone_cap: int = 32):
    return resolve_cfg(split_blocks(disassemble(code)), clone_cap)


def test_block_leaders_start_the_split_blocks():
    assert split_blocks([]) == []
    # PUSH1 3, JUMP | JUMPDEST, STOP | PUSH1 0
    assert [b.start_pc for b in blocks_of("6003565b006000")] == [0, 3, 5]
    # The leaders are offset 0, every JUMPDEST and every instruction after a
    # terminator: inside a block no JUMPDEST opens and no terminator closes.
    # tests/test_evm_exec.py checks them against the oracle's own cut.
    for code in [*CORPUS.values(), *block_fuzz_codes()]:
        instrs = disassemble(code)
        blocks = split_blocks(instrs)
        assert [ins for b in blocks for ins in b.instrs] == instrs, code.hex()
        for block in blocks:
            opcodes = [ins.opcode for ins in block.instrs]
            assert JUMPDEST not in [op.code for op in opcodes[1:]], code.hex()
            assert not any(op.is_terminator for op in opcodes[:-1]), code.hex()
        for before, after in zip(blocks, blocks[1:]):
            assert (
                before.instrs[-1].opcode.is_terminator
                or after.instrs[0].opcode.code == JUMPDEST
            ), code.hex()


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


def _subroutine_calls() -> bytes:
    """Two single-block subroutines, each called from three sites."""
    asm = Asm()
    for i in range(6):
        ret = asm.fresh_label("ret")
        asm.push_label(ret).push(i).push_label(f"sub{i % 2}").op("JUMP")
        asm.label(ret).op("JUMPDEST").push(i).op("SSTORE")
    asm.op("STOP")
    for i in range(2):
        asm.label(f"sub{i}").op("JUMPDEST").push(3 + i).op("MUL").op("SWAP1").op("JUMP")
    return asm.assemble()


@pytest.mark.parametrize(
    "code", [gen_program(random.Random(24)), _subroutine_calls()], ids=["progen-24", "subroutine-clones"]
)
def test_resolve_simulates_each_block_entry_once_per_call(code, monkeypatch):
    simulated = []

    def counted(block, entry):
        simulated.append((block.start_pc, entry))
        return _simulate(block, entry)

    monkeypatch.setattr(evmrbr.cfg, "_simulate", counted)
    instrs = disassemble(code)
    first = resolve_cfg(split_blocks(instrs))
    once = list(simulated)
    assert len(once) == len(set(once))
    # Nothing outlives a call: a second one simulates every entry again.
    simulated.clear()
    second = resolve_cfg(split_blocks(instrs))
    assert simulated == once
    assert _cfg_digest(second) == _cfg_digest(first)


# Programs whose disassembly and resolved CFG are pinned below: the corpus,
# five generated programs, cloned subroutines, and programs left with
# unresolved jumps for eight of the reasons the resolver gives.
_PINNED_PROGRAMS = {
    **CORPUS,
    **{f"progen-{seed}": gen_program(random.Random(seed)) for seed in (3, 11, 29, 47, 83)},
    "subroutine-clones": _subroutine_calls(),
    "stack-underflow": bytes.fromhex("6003565b0160005500"),
    "clone-cap": TWO_CALLER_CLONE,
    "not-a-jumpdest": bytes.fromhex("60035600600160005500"),
    "not-a-block-start": bytes.fromhex("6006565b600160005500"),
    "unknown-target": bytes.fromhex("60003556"),
    "branch-off-code-end": bytes.fromhex("600035600057"),
    "pc-dup-swap-invalid": bytes.fromhex("5860090180905056fe5b6001600055000c"),
    "target-lost-when-joining": bytes.fromhex("600260086007565b01565b6001600960075600"),
}

# (digest of the disassembly, digest of the resolved CFG), recorded before
# Instruction became a tuple and _simulate ran on a per-opcode table;
# target-lost-when-joining was recorded later, before the resolver kept its
# unresolved-jump records in one pass, and again once the resolver marked
# the variants it leaves unreachable dead.
_PINNED_DIGESTS = {
    "add_store": ("ef6eff76e35e0109", "6a276df819af9495"),
    "bitops": ("f6416f283b02a3bc", "39730616963c13ae"),
    "branch-off-code-end": ("4fd0e3fb9ccac4cf", "969c5dd033c67578"),
    "calldata_env": ("514c051e6ea1e4b9", "2df566d81a6a9bbe"),
    "clone-cap": ("05ed566f521d2ef2", "68d7779437209222"),
    "counter_loop": ("9a0607cf3411e592", "ba0e4a1dc03f185d"),
    "dispatcher": ("29d6e3ce4129e156", "978400757bd320ce"),
    "iszero_chain": ("b7419cdbc0956c06", "7926c7bb1a0f9e28"),
    "jumpi_const": ("3522b833ea39d910", "cded8cca7acf24d1"),
    "memory_shuffle": ("099d5322cd528eeb", "1880d5ad0a475e95"),
    "not-a-block-start": ("81b2e3f14e0c1b1a", "2193df0ef4aa518c"),
    "not-a-jumpdest": ("8c5f670263fd61da", "ea2df8ecd2b27c86"),
    "not_store": ("87cb9a7944bec14f", "ceb9eb12d7284f8a"),
    "pc-dup-swap-invalid": ("0e6a07098c8269a6", "261ac3b000db4fe2"),
    "progen-11": ("87ed52946239ab20", "45211963c3f0bdfa"),
    "progen-29": ("ad088abfe6cb7898", "f18f4eb438119470"),
    "progen-3": ("6df0cee0d98cea21", "66d9d0e255884ad5"),
    "progen-47": ("cf81fad97c26cad4", "86c119e72c37d6ae"),
    "progen-83": ("0dcc2c78fb0294a6", "c1b9194382694aad"),
    "six_loops": ("ccf2fa5323e89024", "06a9816d7cba54bf"),
    "stack-underflow": ("e013494c762310d9", "1ca70fc160af9c9f"),
    "subroutine-clones": ("5c07ccdc0eff14a7", "ebe62361eb61f9f5"),
    "target-lost-when-joining": ("d10b354c86ee4bec", "2b5aebc61b8b251c"),
    "two_block_jump": ("4315c059e020dbee", "08be8eda3565dd16"),
    "two_caller_clone": ("05ed566f521d2ef2", "dd41663486ee78cc"),
    "unknown-target": ("89074be14c15b463", "c9836ae7f3dafeb7"),
}


def _listing_digest(instrs) -> str:
    text = "\n".join(f"{i.offset} {i.opcode.code} {i.immediate}" for i in instrs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cfg_digest(cfg) -> str:
    lines = [
        f"{b.id} {b.start_pc} {b.terminator!r} {b.entry_height} {b.dead} {b.const_operands!r}"
        for b in cfg.blocks.values()
    ]
    lines.append(f"entry {cfg.entry} unresolved {cfg.unresolved!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_PINNED_PROGRAMS))
def test_disassembly_and_cfg_are_pinned(name):
    code = _PINNED_PROGRAMS[name]
    instrs = disassemble(code)
    cfg = resolve_cfg(split_blocks(instrs), clone_cap=1 if name == "clone-cap" else 32)
    assert (_listing_digest(instrs), _cfg_digest(cfg)) == _PINNED_DIGESTS[name]


@pytest.mark.parametrize("byte", range(256))
def test_one_instruction_stack_effect(byte):
    op = for_byte(byte)
    ins = Instruction(7, op, 1 if op.immediate_len else None)
    entry = tuple(range(100, 100 + op.delta + 1))
    block = Block(id="7", start_pc=7, instrs=[ins], terminator=Halt())
    consts, exit_stack = _simulate(block, entry)
    # the popped operands, top of stack first
    assert consts == [entry[len(entry) - op.delta :][::-1]]
    if op.mnemonic in ("JUMP", "JUMPI"):
        assert exit_stack == entry
    else:
        assert len(exit_stack) == len(entry) - op.delta + op.alpha
        assert exit_stack[0] == entry[0]  # the item below the operands stays
    if op.is_push:
        assert exit_stack[-1] == 1
    elif op.mnemonic == "PC":
        assert exit_stack[-1] == 7
    elif op.is_dup:
        assert exit_stack[-1] == entry[-op.pair_index]
    elif op.is_swap:
        n = op.pair_index
        assert (exit_stack[-1], exit_stack[-1 - n]) == (entry[-1 - n], entry[-1])


# Programs whose clone cap refuses a successor of a resolved jump, so that
# _build_cfg drops the edge: (code, clone cap, Cfg.unresolved, terminators
# of the blocks that lost an edge).
_DROPPED_EDGES = {
    "branch target dropped": (
        "5b60016000356000570000",
        4,
        [("0", "clone cap 4 exceeded"), ("0_c3", "branch target dropped")],
        {"0_c3": FallThrough("9_c3")},
    ),
    "branch targets dropped": (
        "600035600f575b60016000356006575b00",
        32,
        [
            ("6", "clone cap 32 exceeded"),
            ("15", "clone cap 32 exceeded"),
            ("6_c31", "branch targets dropped"),
        ],
        {"6_c31": Halt()},
    ),
    "fall target dropped": (
        "6000356012575b60016000356006576000505b00",
        32,
        [
            ("6", "clone cap 32 exceeded"),
            ("18", "clone cap 32 exceeded"),
            ("6_c31", "branch target dropped"),
            ("15_c31", "fall target dropped"),
        ],
        {"6_c31": FallThrough("15_c31"), "15_c31": Halt()},
    ),
    "jump target dropped": (
        "5b6001600035600057600056",
        32,
        [
            ("0", "clone cap 32 exceeded"),
            ("0_c31", "branch target dropped"),
            ("9_c31", "jump target dropped"),
        ],
        {"0_c31": FallThrough("9_c31"), "9_c31": Halt()},
    ),
    "unresolved branch fall dropped": (
        "6005600d565b600b600d565b005b600035600035575b56",
        1,
        [
            ("13", "jump target unknown"),
            ("21", "clone cap 1 exceeded"),
            ("13", "fall target dropped"),
        ],
        {"13": Halt()},
    ),
}


@pytest.mark.parametrize("name", sorted(_DROPPED_EDGES))
def test_clone_cap_drops_resolved_edges(name):
    code, cap, unresolved, terminators = _DROPPED_EDGES[name]
    cfg = cfg_of(bytes.fromhex(code), clone_cap=cap)
    assert cfg.unresolved == unresolved
    assert {bid: cfg.blocks[bid].terminator for bid in terminators} == terminators


@pytest.mark.parametrize("cap", [0, -3])
def test_clone_cap_below_one_is_refused(cap):
    blocks = blocks_of("600560040160005500")
    with pytest.raises(ValueError, match=f"clone cap must be at least 1, not {cap}"):
        resolve_cfg(blocks, clone_cap=cap)
    with pytest.raises(ValueError):
        evmrbr.decompile(bytes.fromhex("600560040160005500"), clone_cap=cap)


def test_clone_cap_record_names_the_refused_pc():
    cfg = cfg_of(bytes.fromhex("5b60016000356000570000"), clone_cap=4)
    assert cfg.unresolved[0] == ("0", "clone cap 4 exceeded")
    assert "0" not in cfg.blocks
    assert [bid for bid in cfg.blocks if bid.startswith("0")] == ["0_c0", "0_c1", "0_c2", "0_c3"]


def _pinned_resolves(name: str, code: bytes) -> list:
    """``code`` and the first 25 mutants of it that do not end inside a
    PUSH, each overwriting 1-3 bytes (seeded by ``name``), each resolved at
    clone caps 1, 4 and 32.  The sample was drawn when such a PUSH failed to
    decode."""
    rng = random.Random(name)
    listings = [disassemble(code)]
    while len(listings) < 26:
        mutant = bytearray(code)
        for _ in range(rng.randint(1, 3)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        instrs = disassemble(bytes(mutant))
        if instrs[-1].offset + instrs[-1].size <= len(mutant):
            listings.append(instrs)
    return [resolve_cfg(split_blocks(instrs), cap) for instrs in listings for cap in (1, 4, 32)]


_RESOLVER_PROGRAMS = {
    **_PINNED_PROGRAMS,
    **{name: bytes.fromhex(code) for name, (code, *_) in _DROPPED_EDGES.items()},
}

# Digests of the _cfg_digest of each of _pinned_resolves on each of
# _RESOLVER_PROGRAMS, recorded before the resolver kept its unresolved-jump
# records in one pass; "unresolved branch fall dropped" was recorded once an
# unresolved branch whose fall edge the clone cap refused got its record.
# That entry and target-lost-when-joining were recorded again once the
# resolver marked the variants it leaves unreachable dead.
_PINNED_RESOLVES = {
    "add_store": "4bce1e3f7d106018",
    "bitops": "9ca0f4e6495d8edd",
    "branch target dropped": "46169304c30824dc",
    "branch targets dropped": "1856a31fceb88a88",
    "branch-off-code-end": "8bc8e0123dbc4e48",
    "calldata_env": "a399a5a1f6d9bd04",
    "clone-cap": "c0fb986e2ddd12cd",
    "counter_loop": "4eed0bc88146b5ff",
    "dispatcher": "3c9093065ec7a5dc",
    "fall target dropped": "7ac302d478b28674",
    "iszero_chain": "b89ab6e254e73360",
    "jump target dropped": "846664208b232f56",
    "jumpi_const": "450330460704aac8",
    "memory_shuffle": "0075a8a60388c009",
    "not-a-block-start": "fad905e2e504e8ba",
    "not-a-jumpdest": "c5ce591d9bf89e77",
    "not_store": "5cf08faf07ec369f",
    "pc-dup-swap-invalid": "88643a8f11ca584d",
    "progen-11": "5b83aca59fe5a52f",
    "progen-29": "13a45aaaa7c59c43",
    "progen-3": "92e68949509bcbd7",
    "progen-47": "f5590d5079596ea3",
    "progen-83": "758f41e19a3bcd51",
    "six_loops": "42cab38ff0938e16",
    "stack-underflow": "64c9166ae68513fd",
    "subroutine-clones": "430fb2aa9531c761",
    "target-lost-when-joining": "28d452606b78e988",
    "two_block_jump": "8e5a836e776e7ac9",
    "two_caller_clone": "05ad40370a5f9d6a",
    "unknown-target": "3d28e74427a203be",
    "unresolved branch fall dropped": "9d0bb04942860dc6",
}


@pytest.mark.parametrize("name", sorted(_PINNED_RESOLVES))
def test_resolver_runs_are_pinned(name):
    cfgs = _pinned_resolves(name, _RESOLVER_PROGRAMS[name])
    digest = hashlib.sha256("\n".join(map(_cfg_digest, cfgs)).encode()).hexdigest()[:16]
    assert digest == _PINNED_RESOLVES[name]


def test_pinned_resolves_reach_every_reason():
    reasons = {
        re.sub(r"\d+", "N", reason)
        for name, code in _RESOLVER_PROGRAMS.items()
        for cfg in _pinned_resolves(name, code)
        for _, reason in cfg.unresolved
    }
    assert reasons == {
        "jump target unknown",
        "jump target N is not a block start",
        "jump target N is not a JUMPDEST",
        "fall target off code end",
        "stack underflow at offset N",
        "clone cap N exceeded",
        "target lost when joining contexts",
        "jump target dropped",
        "branch target dropped",
        "branch targets dropped",
        "fall target dropped",
    }


def _reached_from_entry(cfg) -> set[str]:
    reached = {cfg.entry} if cfg.entry is not None else set()
    stack = list(reached)
    while stack:
        for target in successors(cfg.blocks[stack.pop()].terminator):
            if target not in reached:
                reached.add(target)
                stack.append(target)
    return reached


@pytest.mark.parametrize("cap", [1, 4, 32])
def test_every_live_block_is_reachable_from_the_entry(cap):
    codes = [*_RESOLVER_PROGRAMS.values(), *block_fuzz_codes()]
    for code in codes:
        cfg = cfg_of(code, clone_cap=cap)
        reached = _reached_from_entry(cfg)
        live = {bid for bid, block in cfg.blocks.items() if not block.dead}
        assert live <= reached, (code.hex(), sorted(live - reached))
        # A reached block is dead only when its entry stack underflows.
        for bid in reached - live:
            assert cfg.blocks[bid].terminator == Halt(), (code.hex(), bid)


@pytest.mark.parametrize("cap", [1, 4, 32])
def test_blocks_come_in_id_order(cap):
    # Cfg.blocks order is what every reader of the CFG prints in.
    for code in [*_RESOLVER_PROGRAMS.values(), *block_fuzz_codes()]:
        cfg = cfg_of(code, clone_cap=cap)
        assert list(cfg.blocks) == sorted(cfg.blocks, key=id_sort_key), code.hex()


def test_a_variant_a_join_left_unreachable_is_dead():
    # Block 13 first falls to 21_c0 with the target 5 on the stack.  Block 5
    # enters 13 again, the join leaves the target unknown, and 13 then falls
    # to 21_c1: 21_c0 and block 5 are left unreachable and dead, and only
    # the reached blocks become rules.
    code = bytes.fromhex("6005600d565b600b600d565b005b600035600035575b56")
    cfg = cfg_of(code)
    assert {bid for bid, block in cfg.blocks.items() if block.dead} == {"5", "11", "21_c0"}
    assert cfg.blocks["21_c0"].terminator == Jump("5")
    assert cfg.unresolved == [("13", "jump target unknown"), ("21_c1", "jump target unknown")]
    assert [rule.name for rule in evmrbr.decompile(code)] == [
        "block_0", "block_13", "block_21_c1"
    ]


@pytest.mark.xfail(
    strict=True, reason="the clone cap still counts a variant that a join left unreachable"
)
def test_the_clone_cap_counts_only_reachable_variants():
    # At cap 1 the pre-join variant of pc 21 takes the one slot, so the edge
    # that execution takes from block 13 into pc 21 is refused and 13 halts.
    code = bytes.fromhex("6005600d565b600b600d565b005b600035600035575b56")
    cfg = cfg_of(code, clone_cap=1)
    term = cfg.blocks["13"].terminator
    assert isinstance(term, FallThrough)
    target = cfg.blocks[term.target]
    assert (target.start_pc, target.dead) == (21, False)
    reasons = {reason for _, reason in cfg.unresolved}
    assert not reasons & {"clone cap 1 exceeded", "fall target dropped"}


# Digests of emit_dot plus the `cfg` summary of each of _pinned_resolves on
# each of _RESOLVER_PROGRAMS, recorded before both renderers read
# successors(); "unresolved branch fall dropped" was recorded after.  That
# entry and target-lost-when-joining were recorded again once the resolver
# marked the variants it leaves unreachable dead.
_PINNED_RENDERS = {
    "add_store": "660bafcf5a4832ab",
    "bitops": "addeb1e41c1bded8",
    "branch target dropped": "00a6edecc42bb1ce",
    "branch targets dropped": "94b0c233148dd233",
    "branch-off-code-end": "addff5539b94f253",
    "calldata_env": "32faedc595a639c4",
    "clone-cap": "602cff30028dfdb1",
    "counter_loop": "d6ed398fd73cefdc",
    "dispatcher": "433e99e8af0a60b7",
    "fall target dropped": "09081ebc4093d555",
    "iszero_chain": "2da8b9f0310f579a",
    "jump target dropped": "c68cb4cab2405665",
    "jumpi_const": "d6d3c8ad749b9d70",
    "memory_shuffle": "62b93957f28b1bc7",
    "not-a-block-start": "55972d6ff28e3b71",
    "not-a-jumpdest": "92e4ac012e5addf5",
    "not_store": "2b6ae4efe6498ca4",
    "pc-dup-swap-invalid": "7ed768eb67b3dca1",
    "progen-11": "0163d183cb76e492",
    "progen-29": "ec776ecc31809983",
    "progen-3": "ede4cfdca3ce013b",
    "progen-47": "ae0b8cae56061f71",
    "progen-83": "8a47a83755cf0623",
    "six_loops": "d748246447cb0d53",
    "stack-underflow": "ef7613beafd5fdaa",
    "subroutine-clones": "26ae3ce8ef635786",
    "target-lost-when-joining": "1838985c95f7a035",
    "two_block_jump": "ce7cccbfc5ccc2d9",
    "two_caller_clone": "681814dc1c6bd1fa",
    "unknown-target": "18ed262bc8992a11",
    "unresolved branch fall dropped": "9058964aa181d606",
}


@pytest.mark.parametrize("name", sorted(_PINNED_RENDERS))
def test_cfg_renderers_are_pinned(name):
    code = _RESOLVER_PROGRAMS[name]
    cfgs = _pinned_resolves(name, code)
    # Every mutant has the length of ``code``.
    text = "".join(emit_dot(cfg) + _cfg_summary(cfg, code) for cfg in cfgs)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _PINNED_RENDERS[name]
