"""Translation of blocks into rules: tau, guards, layouts, rule shapes."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from corpus import ADD_STORE, CORPUS
from helpers import definite_assignment_ok
from progen import Asm, gen_program
from test_cfg import _RESOLVER_PROGRAMS, _pinned_resolves, _sweep_programs

from evmrbr.asm import Instruction, disassemble
from evmrbr.cfg import resolve_cfg, split_blocks
from evmrbr.cli import main
from evmrbr.emit import emit_rbr, export_saco
from evmrbr.errors import EvmRbrError, StackUnderflow
from evmrbr.evm_exec import run_evm
from evmrbr.opcodes import BY_NAME
from evmrbr.rbr import Assign, BinOp, Guard, Nop, Num, Var
from evmrbr.translate import (
    FIELD_KEY_BOUND,
    TranslationState,
    UnsupportedGuard,
    build_layout,
    tau,
    tau_G,
    translate_block,
    translate_cfg,
)


def cfg_of(code: bytes):
    return resolve_cfg(split_blocks(disassemble(code)))


def rules_of(code: bytes, nops: bool = False):
    return translate_cfg(cfg_of(code), nops=nops)


def ins(mnemonic: str, immediate=None, offset: int = 0) -> Instruction:
    return Instruction(offset, BY_NAME[mnemonic], immediate)


# --- layout -----------------------------------------------------------------

def test_layout_lmap_first_seen_order():
    asm = Asm()
    asm.push(1).push(0x40).op("MSTORE")
    asm.push(2).push(0x60).op("MSTORE")
    asm.op("STOP")
    layout = build_layout(cfg_of(asm.assemble()))
    assert layout.lmap == {0x40: 0, 0x60: 1}
    assert layout.r == 1


def test_layout_field_count_covers_highest_key():
    asm = Asm()
    asm.push(9).push(2).op("SSTORE").op("STOP")
    layout = build_layout(cfg_of(asm.assemble()))
    assert layout.k == 2
    assert layout.param_names() == ["g0", "g1", "g2"]


def test_layout_fields_stop_below_the_key_bound(caplog):
    asm = Asm()
    asm.push(9).push(FIELD_KEY_BOUND - 1).op("SSTORE").op("STOP")
    with caplog.at_level("WARNING"):
        layout = build_layout(cfg_of(asm.assemble()))
    assert layout.k == FIELD_KEY_BOUND - 1
    assert not caplog.records


def test_layout_key_at_the_bound_is_non_constant(caplog):
    asm = Asm()
    asm.push(9).push(FIELD_KEY_BOUND).op("SSTORE")
    asm.push(1 << 255).op("SLOAD").push(2).op("SSTORE")
    asm.push(FIELD_KEY_BOUND).op("SLOAD").op("STOP")
    with caplog.at_level("WARNING"):
        rules = rules_of(asm.assemble())
    assert rules[0].layout.k == 2
    assert [rec.message for rec in caplog.records] == [
        f"2 constant storage key(s) at or above {FIELD_KEY_BOUND} translated as non-constant"
    ]
    assigns = [s for s in rules[0].body if isinstance(s, Assign)]
    assert [s.target for s in assigns] == [
        "s0", "s1", "gs1", "gs2", "s0", "gl", "s0", "s1", "g2", "s0", "gl", "s0",
    ]


def test_layout_bc_vars_sorted():
    asm = Asm()
    asm.op("GAS").op("POP").op("NUMBER").op("POP").op("STOP")
    layout = build_layout(cfg_of(asm.assemble()))
    assert layout.named_bc == ("gas", "number")
    assert layout.param_names() == ["gas", "number"]


def test_layout_md_ranked_by_offset():
    asm = Asm()
    asm.push(36).op("CALLDATALOAD").op("POP")
    asm.push(4).op("CALLDATALOAD").op("POP")
    asm.op("STOP")
    layout = build_layout(cfg_of(asm.assemble()))
    assert layout.md_offsets == (4, 36)
    assert layout.bc_names() == ["md0", "md1"]


# --- tau --------------------------------------------------------------------

def test_tau_push_on_empty_stack():
    state = TranslationState(m=-1)
    stmts = tau(ins("PUSH1", 7), state, build_layout(cfg_of(b"\x00")))
    assert stmts == [Assign("s0", Num(7))]
    assert state.m == 0


def test_tau_swap1():
    state = TranslationState(m=1)
    stmts = tau(ins("SWAP1"), state, build_layout(cfg_of(b"\x00")))
    assert stmts == [
        Assign("s2", Var("s1")),
        Assign("s1", Var("s0")),
        Assign("s0", Var("s2")),
    ]
    assert state.m == 1


def test_tau_sload_unknown_key():
    state = TranslationState(m=0)
    stmts = tau(ins("SLOAD"), state, build_layout(cfg_of(b"\x00")))
    assert stmts == [Assign("gl", Var("s0")), Assign("s0", Var("fresh_0"))]
    assert state.m == 0


def test_tau_dup2():
    state = TranslationState(m=1)
    stmts = tau(ins("DUP2"), state, build_layout(cfg_of(b"\x00")))
    assert stmts == [Assign("s2", Var("s0"))]
    assert state.m == 2


def test_tau_arithmetic_shape():
    state = TranslationState(m=3)
    stmts = tau(ins("SUB"), state, build_layout(cfg_of(b"\x00")))
    assert stmts == [Assign("s2", BinOp("-", Var("s3"), Var("s2")))]
    assert state.m == 2


def test_tau_underflow_is_hard_failure():
    state = TranslationState(m=0, block_id="7")
    with pytest.raises(StackUnderflow):
        tau(ins("ADD"), state, build_layout(cfg_of(b"\x00")))


def test_tau_opaque_pushes_fresh():
    state = TranslationState(m=1)
    stmts = tau(ins("SHA3"), state, build_layout(cfg_of(b"\x00")))
    assert stmts == [Assign("s0", Var("fresh_0"))]
    assert state.m == 0


# --- tau_G ------------------------------------------------------------------

def test_tau_g_gt_window():
    state = TranslationState(m=3)
    taken, fall = tau_G([ins("GT")], state)
    assert taken == Guard("gt", Var("s3"), Var("s2"))
    assert fall == Guard("leq", Var("s3"), Var("s2"))
    assert state.m == 1


def test_tau_g_eq_iszero_window():
    state = TranslationState(m=1)
    taken, fall = tau_G([ins("EQ"), ins("ISZERO")], state)
    assert taken == Guard("neq", Var("s1"), Var("s0"))
    assert fall == Guard("eq", Var("s1"), Var("s0"))


def test_tau_g_rejects_other_windows():
    with pytest.raises(UnsupportedGuard):
        tau_G([ins("AND")], TranslationState(m=3))
    with pytest.raises(UnsupportedGuard):
        tau_G([], TranslationState(m=3))


def _relation_holds(relation: str, a: int, b: int) -> bool:
    return {
        "eq": a == b, "neq": a != b, "lt": a < b,
        "leq": a <= b, "gt": a > b, "geq": a >= b,
    }[relation]


def _concrete_branch(window, stack: list[int]) -> bool:
    """Independent oracle: execute the window and read the branch condition."""
    values = list(stack)
    for instruction in window:
        name = instruction.mnemonic
        if name == "ISZERO":
            values.append(int(values.pop() == 0))
        else:
            a, b = values.pop(), values.pop()
            values.append({
                "GT": int(a > b), "LT": int(a < b), "EQ": int(a == b),
                "SGT": int(a > b), "SLT": int(a < b),
            }[name])
    return values.pop() != 0


@pytest.mark.parametrize("chain_len", [1, 2, 3, 4])
def test_tau_g_iszero_chains_match_concrete_evaluation(chain_len):
    window = [ins("ISZERO")] * chain_len
    state = TranslationState(m=0)
    taken, fall = tau_G(window, state)
    assert state.m == -1
    for value in (0, 1, 2):
        expected = _concrete_branch(window, [value])
        assert _relation_holds(taken.relation, value, 0) == expected
        assert _relation_holds(fall.relation, value, 0) == (not expected)


@pytest.mark.parametrize("cmp_name", ["GT", "LT", "EQ", "SGT", "SLT"])
@pytest.mark.parametrize("chain_len", [0, 1, 2])
def test_tau_g_comparison_chains_match_concrete_evaluation(cmp_name, chain_len):
    window = [ins(cmp_name)] + [ins("ISZERO")] * chain_len
    state = TranslationState(m=1)
    taken, _ = tau_G(window, state)
    assert state.m == -1
    for a, b in itertools.product((0, 1, 2, 65536), repeat=2):
        expected = _concrete_branch(window, [b, a])  # a is the stack top
        assert _relation_holds(taken.relation, a, b) == expected, (cmp_name, a, b)


# --- translate_block / translate_cfg ----------------------------------------

def test_halt_block_translation():
    rules = rules_of(bytes.fromhex("6005600401" + "00"))
    assert len(rules) == 1
    rule = rules[0]
    assert rule.name == "block_0"
    assert rule.continuation is None
    assert rule.body == [
        Assign("s0", Num(5)),
        Assign("s1", Num(4)),
        Assign("s0", BinOp("+", Var("s1"), Var("s0"))),
    ]
    # cross-check against the concrete machine
    state, _ = run_evm(bytes.fromhex("600560040160005500"))
    assert state.storage[0] == 9


def test_sstore_constant_key():
    rules = rules_of(ADD_STORE)
    assert rules[0].body[-1] == Assign("g0", Var("s0"))
    assert rules[0].layout.k == 0


def test_jump_rule_counts():
    assert len(rules_of(bytes.fromhex("6003565b00"))) == 2
    assert len(rules_of(bytes.fromhex("6001600657005b00"))) == 5  # 3 + halt + halt


def test_jumpi_produces_guard_pair():
    asm = Asm()
    taken_l = asm.fresh_label("t")
    asm.push(0).op("CALLDATALOAD").push(4).op("CALLDATALOAD").op("GT")
    asm.push_label(taken_l).op("JUMPI")
    asm.op("STOP")
    asm.label(taken_l).op("JUMPDEST").op("STOP")
    rules = rules_of(asm.assemble())
    jumps = [r for r in rules if r.is_jump]
    assert len(jumps) == 2
    taken, fall = jumps
    assert taken.guard.relation == "gt" and fall.guard.relation == "leq"
    assert (taken.guard.lhs, taken.guard.rhs) == (fall.guard.lhs, fall.guard.rhs)
    assert taken.body == [] and fall.body == []
    assert taken.continuation.target != fall.continuation.target


def test_guard_operands_at_depth():
    # two untouched slots below the compared pair: guard reads s3/s2 and the
    # continuations pass only the surviving s0/s1
    asm = Asm()
    taken_l = asm.fresh_label("t")
    asm.push(1).push(2)
    asm.push(0).op("CALLDATALOAD").push(32).op("CALLDATALOAD").op("GT")
    asm.push_label(taken_l).op("JUMPI")
    asm.op("STOP")
    asm.label(taken_l).op("JUMPDEST").op("STOP")
    jumps = [r for r in rules_of(asm.assemble()) if r.is_jump]
    assert jumps[0].guard == Guard("gt", Var("s3"), Var("s2"))
    assert jumps[0].stack_params == 4
    assert jumps[0].continuation.stack_count == 2


def test_rule_count_formula_on_generated_programs():
    rng = random.Random(5)
    for _ in range(30):
        cfg = cfg_of(gen_program(rng))
        rules = translate_cfg(cfg)
        live = cfg.live_blocks()
        jumpis = sum(1 for b in live if b.instrs[-1].mnemonic == "JUMPI")
        assert len(rules) == 3 * jumpis + (len(live) - jumpis)


def test_guard_complementarity_exhaustive():
    rng = random.Random(6)
    programs = list(CORPUS.values()) + [gen_program(rng) for _ in range(10)]
    for code in programs:
        rules = rules_of(code)
        jumps = [r for r in rules if r.is_jump]
        for first, second in zip(jumps[::2], jumps[1::2]):
            assert first.name == second.name
            assert (first.guard.lhs, first.guard.rhs) == (second.guard.lhs, second.guard.rhs)
            for a, b in itertools.product((0, 1, 2, 65536), repeat=2):
                assignment = {first.guard.lhs: a, first.guard.rhs: b}

                def val(atom):
                    return atom.value if isinstance(atom, Num) else assignment[atom]

                lhs, rhs = val(first.guard.lhs), val(first.guard.rhs)
                holds_first = _relation_holds(first.guard.relation, lhs, rhs)
                holds_second = _relation_holds(second.guard.relation, lhs, rhs)
                assert holds_first != holds_second


def test_definite_assignment_everywhere():
    rng = random.Random(8)
    programs = list(CORPUS.values()) + [gen_program(rng) for _ in range(20)]
    for code in programs:
        for rule in rules_of(code):
            assert definite_assignment_ok(rule), rule.name


def test_height_discipline():
    rng = random.Random(9)
    for _ in range(20):
        cfg = cfg_of(gen_program(rng))
        rules = translate_cfg(cfg)
        by_name = {}
        for rule in rules:
            by_name.setdefault(rule.name, []).append(rule)
        for rule in rules:
            if rule.continuation is None:
                continue
            for callee in by_name[rule.continuation.target]:
                assert callee.stack_params == rule.continuation.stack_count
        for block in cfg.live_blocks():
            for rule in by_name[f"block_{block.id}"]:
                assert rule.stack_params == block.entry_height


def test_stack_delta_agreement_on_straightline_blocks():
    rng = random.Random(10)
    for _ in range(20):
        cfg = cfg_of(gen_program(rng))
        rules = {r.name: r for r in translate_cfg(cfg)}
        for block in cfg.live_blocks():
            if block.instrs[-1].mnemonic in ("JUMP", "JUMPI"):
                continue
            rule = rules[f"block_{block.id}"]
            if rule.continuation is None:
                continue
            delta_sum = sum(i.opcode.alpha - i.opcode.delta for i in block.instrs)
            assert rule.continuation.stack_count - rule.stack_params == delta_sum


def test_nop_stripping_equivalence():
    rng = random.Random(12)
    programs = list(CORPUS.values()) + [gen_program(rng) for _ in range(10)]
    for code in programs:
        plain = rules_of(code, nops=False)
        wrapped = rules_of(code, nops=True)
        assert any(
            isinstance(s, Nop) for r in wrapped for s in r.body
        )
        for with_nops, without in zip(wrapped, plain):
            stripped = [s for s in with_nops.body if not isinstance(s, Nop)]
            assert stripped == without.body
            assert with_nops.continuation == without.continuation
            assert with_nops.guard == without.guard


def test_nop_mode_covers_every_instruction():
    rules = rules_of(CORPUS["counter_loop"], nops=True)
    cfg = cfg_of(CORPUS["counter_loop"])
    by_name = {r.name: r for r in rules if not r.is_jump}
    for block in cfg.live_blocks():
        rule = by_name[f"block_{block.id}"]
        nops = [s.mnemonic for s in rule.body if isinstance(s, Nop)]
        assert nops == [i.mnemonic for i in block.instrs]


def test_fresh_names_unique_per_rule():
    rng = random.Random(14)
    programs = list(CORPUS.values()) + [gen_program(rng) for _ in range(10)]
    for code in programs:
        for rule in rules_of(code):
            fresh_targets = [
                s.target for s in rule.body
                if isinstance(s, Assign) and s.target.startswith("fresh_")
            ]
            assert len(fresh_targets) == len(set(fresh_targets))


def test_guard_fallback_on_raw_condition(caplog):
    rules = rules_of(bytes.fromhex("6001600657005b00"))
    jumps = [r for r in rules if r.is_jump]
    assert jumps[0].guard == Guard("neq", Var("s0"), Num(0))
    assert jumps[1].guard == Guard("eq", Var("s0"), Num(0))


def test_degraded_branch_translates_as_fallthrough():
    # taken target invalid: the block keeps its fall edge and the trailing
    # JUMPI just consumes its two operands
    asm = Asm()
    asm.push(0).op("CALLDATALOAD").push(1).op("JUMPI")
    asm.push(9).push(0).op("SSTORE").op("STOP")
    cfg = cfg_of(asm.assemble())
    rules = translate_cfg(cfg)
    entry_rule = rules[0]
    assert entry_rule.guard is None
    assert entry_rule.continuation.stack_count == 0
    assert definite_assignment_ok(entry_rule)


def test_calldatacopy_havocs_tracked_words():
    asm = Asm()
    asm.push(1).push(0x40).op("MSTORE")  # registers 0x40 as l0
    asm.push(32).push(0).push(0x40).op("CALLDATACOPY")
    asm.op("STOP")
    rules = rules_of(asm.assemble())
    assigns = [s for s in rules[0].body if isinstance(s, Assign) and s.target == "l0"]
    assert len(assigns) == 2
    assert assigns[1].value.name.startswith("fresh_")


@pytest.mark.parametrize(
    "dest, length, havocs",
    [(70, 10, True), (55, 10, True), (95, 1, True), (54, 10, False), (96, 32, False),
     (70, 0, False)],
)
def test_copy_havocs_the_tracked_words_it_overlaps(dest, length, havocs):
    asm = Asm()
    asm.push(42).push(0x40).op("MSTORE")  # l0, the word at bytes 64..95
    asm.push(length).push(0).push(dest).op("CALLDATACOPY")
    asm.push(0x40).op("MLOAD").push(0).op("SSTORE").op("STOP")
    body = rules_of(asm.assemble())[0].body
    assert (Assign("l0", Var("fresh_0")) in body) == havocs


@pytest.mark.parametrize("dest, havocs", [(64, True), (69, True), (95, True), (63, False), (96, False)])
def test_mstore8_havocs_the_tracked_word_it_lands_in(dest, havocs):
    asm = Asm()
    asm.push(42).push(0x40).op("MSTORE")
    asm.push(0xFF).push(dest).op("MSTORE8")
    asm.push(0x40).op("MLOAD").push(0).op("SSTORE").op("STOP")
    body = rules_of(asm.assemble())[0].body
    assert (Assign("l0", Var("fresh_0")) in body) == havocs


def test_calldatacopy_nonconstant_range_warns(caplog):
    asm = Asm()
    asm.push(1).push(0x40).op("MSTORE")
    asm.push(32).push(0).push(0).op("CALLDATALOAD").op("CALLDATACOPY")
    asm.op("STOP")
    with caplog.at_level("WARNING"):
        rules = rules_of(asm.assemble())
    assert any("not modeled" in rec.message for rec in caplog.records)
    l0_assigns = [
        s for s in rules[0].body if isinstance(s, Assign) and s.target == "l0"
    ]
    assert len(l0_assigns) == 1  # only the MSTORE writes; the copy is opaque


def test_clone_rules_use_clone_names():
    rules = rules_of(CORPUS["two_caller_clone"])
    names = [r.name for r in rules]
    assert "block_13_c0" in names and "block_13_c1" in names
    by_name = {r.name: r for r in rules}
    assert by_name["block_13_c0"].continuation.target == "block_5"
    assert by_name["block_13_c1"].continuation.target == "block_11"


# PUSH1 1, PUSH1 8, DUP1, POP, JUMPI, STOP, JUMPDEST, STOP: the JUMPI target
# resolves but is not pushed just before the jump, so it is dropped from the
# stack and the condition is tested raw.
_STACK_CARRIED_TARGET = "60016008805057005b00"


def test_stack_carried_jumpi_target(caplog, capsys, tmp_path):
    with caplog.at_level("WARNING"):
        rules = rules_of(bytes.fromhex(_STACK_CARRIED_TARGET))
    assert emit_rbr(rules) == (
        "block_0() =>\n"
        "  s0 = 1,\n"
        "  s1 = 8,\n"
        "  s2 = s1,\n"
        "  call(jump_0(s0))\n"
        "\n"
        "jump_0(s0) =>\n"
        "  neq(s0, 0) | call(block_8())\n"
        "\n"
        "jump_0(s0) =>\n"
        "  eq(s0, 0) | call(block_7())\n"
        "\n"
        "block_7() =>\n"
        "\n"
        "block_8() =>\n"
    )
    assert [rec.getMessage() for rec in caplog.records] == [
        "block 0: no guard pattern, testing the raw condition"
    ]
    path = tmp_path / "code.hex"
    path.write_text(_STACK_CARRIED_TARGET)
    assert main(["check", str(path), "--runs", "5"]) == 0
    assert capsys.readouterr().out == "divergences: 0/5\n"


def _translation_digest(cfgs, caplog) -> str:
    """Digest of the nop-marked rules, the SACO export and the logged
    warnings (or the error) of translating each of ``cfgs``."""
    parts = []
    for cfg in cfgs:
        caplog.clear()
        try:
            parts.append(emit_rbr(translate_cfg(cfg, nops=True)))
            parts.append(export_saco(translate_cfg(cfg)))
        except EvmRbrError as err:
            parts.append(f"error {type(err).__name__}: {err}")
        parts.extend(rec.getMessage() for rec in caplog.records)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


_TRANSLATED_PROGRAMS = {
    **_RESOLVER_PROGRAMS,
    "stack-carried-target": bytes.fromhex(_STACK_CARRIED_TARGET),
}

# Digests of _translation_digest over _pinned_resolves of each of
# _TRANSLATED_PROGRAMS: every tail shape (halt, fall-through, a jump with a
# pushed or a stack-carried target, a conditional jump with a comparison
# window, an ISZERO-only window, no window or a stack-carried target) at
# clone caps 1, 4 and 32.  Recorded before translate_block split every
# block's tail in one place; target-lost-when-joining was recorded again once
# the resolver marked the variants it leaves unreachable dead.
_PINNED_TRANSLATIONS = {
    "add_store": "97d1d3b3d5316279",
    "bitops": "1146d6cb1b53085d",
    "branch target dropped": "d58272436af0d9cb",
    "branch targets dropped": "ec89e0054d21b6d6",
    "branch-off-code-end": "eacd0dd2aa0ad802",
    "calldata_env": "fb7da4b86fe84b9f",
    "clone-cap": "fd11f958ee0707b2",
    "counter_loop": "232bd0efdebe0c8c",
    "dispatcher": "b6801bb907b0b3cc",
    "fall target dropped": "6e92b2d1da7de23e",
    "iszero_chain": "cb9baf442170f354",
    "jump target dropped": "59bf090699eca12e",
    "jumpi_const": "edc7b1d2e5d34f66",
    "memory_shuffle": "ef2176c39700d9df",
    "not-a-block-start": "d6877f2447f63a5c",
    "not-a-jumpdest": "4207fe28827a14c1",
    "not_store": "1538a4662c4ae224",
    "pc-dup-swap-invalid": "949315034e903229",
    "progen-11": "44c1c27b769130e7",
    "progen-29": "a33c32bfa2964b6a",
    "progen-3": "dfdb33565c3874f0",
    "progen-47": "2a0432c56397090f",
    "progen-83": "03c217074fa10ed0",
    "six_loops": "981855a971a1ca80",
    "stack-carried-target": "2a2f852520bde1d0",
    "stack-underflow": "ede109bc083e8285",
    "subroutine-clones": "1f8509355f41826a",
    "target-lost-when-joining": "a9d4f647d7a6c1dd",
    "two_block_jump": "47059751d1cf14b8",
    "two_caller_clone": "bf060dcf8b59e09d",
    "unknown-target": "b3a0d12d9bf3c058",
}


@pytest.mark.parametrize("name", sorted(_PINNED_TRANSLATIONS))
def test_translation_is_pinned(name, caplog):
    cfgs = _pinned_resolves(name, _TRANSLATED_PROGRAMS[name])
    with caplog.at_level("WARNING"):
        assert _translation_digest(cfgs, caplog) == _PINNED_TRANSLATIONS[name]


def _plain_emission_digest(cfgs) -> str:
    """Digest of the rules ``rbr`` writes without ``--nops`` and of the
    nop-marked rules emitted with their markers stripped (or the error) for
    each of ``cfgs``."""
    parts = []
    for cfg in cfgs:
        try:
            parts.append(emit_rbr(translate_cfg(cfg)))
            marked = translate_cfg(cfg, nops=True)
            parts.append(emit_rbr([
                replace(r, body=[s for s in r.body if not isinstance(s, Nop)]) for r in marked
            ]))
        except EvmRbrError as err:
            parts.append(f"error {type(err).__name__}: {err}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


# Digests of _plain_emission_digest over _pinned_resolves of each of
# _TRANSLATED_PROGRAMS.  Recorded before translate_cfg and emit_rbr shared
# equal statements and parameter lists within one call; target-lost-when-joining
# was recorded again once the resolver marked the variants it leaves
# unreachable dead.
_PINNED_PLAIN_EMISSIONS = {
    "add_store": "d5df4938f237147d",
    "bitops": "75fe7614fdf7aa99",
    "branch target dropped": "3e087b65802eba27",
    "branch targets dropped": "f52ab7d5e5bbcd20",
    "branch-off-code-end": "7381062e94c437b7",
    "calldata_env": "dd884476a5bcb98f",
    "clone-cap": "9f2e4f08b757126a",
    "counter_loop": "3750245e1c0b4440",
    "dispatcher": "c50d0f12f4b81714",
    "fall target dropped": "e6a7b24e1f96ccb3",
    "iszero_chain": "5206536cad2345b5",
    "jump target dropped": "9c7e9b6f4f25e820",
    "jumpi_const": "ccf892a669d4630d",
    "memory_shuffle": "655442885399c40d",
    "not-a-block-start": "8050bf959ed41d16",
    "not-a-jumpdest": "fd927173ae921948",
    "not_store": "3626c3514c2035d0",
    "pc-dup-swap-invalid": "2bb50ccee6b2bcbc",
    "progen-11": "8b1b867e50f46099",
    "progen-29": "58d18301becdf4a2",
    "progen-3": "4ad075dd668809ca",
    "progen-47": "30b416de6e5c2dd0",
    "progen-83": "14fa7b759c3c57e6",
    "six_loops": "61ff626f56e7f850",
    "stack-carried-target": "1e4b226e3c091d8b",
    "stack-underflow": "d742a0b84c5e36e3",
    "subroutine-clones": "d003838e64719fc5",
    "target-lost-when-joining": "e3a42849c373fe4c",
    "two_block_jump": "20234055f6287dea",
    "two_caller_clone": "08aa72e7194c3ae4",
    "unknown-target": "610cce2ccd9189bb",
}


@pytest.mark.parametrize("name", sorted(_PINNED_TRANSLATIONS))
def test_plain_emission_is_pinned(name):
    cfgs = _pinned_resolves(name, _TRANSLATED_PROGRAMS[name])
    assert _plain_emission_digest(cfgs) == _PINNED_PLAIN_EMISSIONS[name]


def _rule_sweep_parts(code: bytes, cap: int) -> list[str]:
    """The nop-marked and plain rule texts and the SACO export of ``code``
    resolved at clone cap ``cap``, or the error its translation raised."""
    cfg = resolve_cfg(split_blocks(disassemble(code)), cap)
    try:
        return [
            emit_rbr(translate_cfg(cfg, nops=True)),
            emit_rbr(translate_cfg(cfg)),
            export_saco(translate_cfg(cfg)),
        ]
    except EvmRbrError as err:
        return [f"error {type(err).__name__}: {err}"]


# The digest of _rule_sweep_parts over test_cfg._sweep_programs and one
# 25 KB generated program, each at clone caps 1, 2 and 32, recorded before
# the translation loop read popped constants by position and the SACO export
# forgot statements while printing.
_PINNED_RULE_SWEEP = "9c3b7de79f449613"


def test_rule_sweep_is_pinned():
    programs = [*_sweep_programs(), gen_program(random.Random(1), segments=1200)]
    parts = [part for code in programs for cap in (1, 2, 32) for part in _rule_sweep_parts(code, cap)]
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16] == _PINNED_RULE_SWEEP


# --- statements shared within one translation --------------------------------

@pytest.mark.parametrize("nops", [False, True])
def test_translate_cfg_equals_translate_block_per_block(nops):
    programs = [*CORPUS.values(), *(gen_program(random.Random(seed)) for seed in range(8))]
    for code in programs:
        cfg = cfg_of(code)
        layout = build_layout(cfg)
        per_block = [
            rule for block in cfg.live_blocks() for rule in translate_block(block, layout, nops=nops)
        ]
        assert translate_cfg(cfg, nops=nops) == per_block


def test_translate_block_reads_operands_it_is_not_given_as_unknown():
    # ADD_STORE stores at the constant key 0; without its operands the
    # SSTORE translates as one at a non-constant key.
    cfg = cfg_of(ADD_STORE)
    layout = build_layout(cfg)
    block = cfg.live_blocks()[0]
    unknown = [(None,) * ins.opcode.delta for ins in block.instrs]
    expected = translate_block(replace(block, const_operands=unknown), layout)
    assert expected != translate_block(block, layout)
    assert translate_block(replace(block, const_operands=None), layout) == expected
    assert translate_block(replace(block, const_operands=unknown[:2]), layout) == expected


def _twice_through_a_jump(body) -> bytes:
    """``body`` on the empty stack, POPs back to it, a jump, and ``body``
    again on the empty stack: two rules whose bodies start equal."""
    asm = Asm()
    for at_end in (False, True):
        for mnemonic, value in body:
            if mnemonic == "PUSH":
                asm.push(value)
            else:
                asm.op(mnemonic)
        if at_end:
            asm.op("STOP")
        else:
            asm.op("POP").op("POP").push_label("next").op("JUMP")
            asm.label("next").op("JUMPDEST")
    return asm.assemble()


def test_equal_statements_of_one_translation_are_one_object():
    body = [("PUSH", 1), ("PUSH", 2), ("ADD", None), ("DUP1", None), ("SWAP1", None)]
    first, second = rules_of(_twice_through_a_jump(body))
    assert first.body[:6] == second.body[:6]
    assert [s.value for s in first.body[:3]] == [Num(1), Num(2), BinOp("+", Var("s1"), Var("s0"))]
    assert all(a is b for a, b in zip(first.body[:6], second.body[:6]))


def test_nop_markers_are_one_object_per_mnemonic():
    for code in (*CORPUS.values(), gen_program(random.Random(5))):
        markers = [s for r in rules_of(code, nops=True) for s in r.body if isinstance(s, Nop)]
        assert len({id(s) for s in markers}) <= len({s.mnemonic for s in markers})


def test_shared_statements_survive_mutated_lists():
    push = ins("PUSH1", 7)
    layout = build_layout(cfg_of(b"\x00"))
    stmts = tau(push, TranslationState(m=-1), layout)
    stmts.append(Nop("MUTATED"))
    assert tau(push, TranslationState(m=-1), layout) == [Assign("s0", Num(7))]

    code = _twice_through_a_jump([("PUSH", 1), ("PUSH", 2), ("ADD", None), ("DUP1", None)])
    cfg = cfg_of(code)
    expected = emit_rbr(translate_cfg(cfg))
    first, second = translate_cfg(cfg)
    first.body.clear()
    first.body.append(Assign("s0", Num(99)))
    assert second.body[:2] == [Assign("s0", Num(1)), Assign("s1", Num(2))]
    assert emit_rbr(translate_cfg(cfg)) == expected


def test_constant_reads_and_fresh_draws_are_not_shared():
    # SLOAD at keys 0 and 1, CALLDATALOAD at a constant and an unknown
    # offset, and two opaque results: each pair at the same stack top.
    asm = Asm()
    asm.push(0).op("SLOAD").op("POP")
    asm.push(0).op("CALLDATALOAD").op("POP")
    asm.op("CALLER").op("BALANCE").op("POP")
    asm.push_label("next").op("JUMP")
    asm.label("next").op("JUMPDEST")
    asm.push(1).op("SLOAD").op("POP")
    asm.op("CALLER").op("CALLDATALOAD").op("POP")
    asm.op("CALLER").op("BALANCE").op("POP")
    asm.op("CALLER").op("BALANCE").op("STOP")
    first, second = rules_of(asm.assemble())
    reads = [s for s in first.body + second.body if s.target == "s0" and not isinstance(s.value, Num)]
    assert [s.value for s in reads] == [
        Var("g0"), Var("md0"), Var("caller"), Var("fresh_0"),
        Var("g1"), Var("caller"), Var("fresh_0"), Var("caller"), Var("fresh_1"),
        Var("caller"), Var("fresh_2"),
    ]



def _ops(*ops):
    """A ``_twice_through_a_jump`` body from mnemonics and ints to push."""
    return [("PUSH", op) if isinstance(op, int) else (op, None) for op in ops]


def _draws(rule):
    """The statements of ``rule`` that record an address or draw a value."""
    return [
        s for s in rule.body
        if isinstance(s, Assign)
        and (s.target in ("gl", "ll") or isinstance(s.value, Var) and s.value.name.startswith("fresh_"))
    ]


@pytest.mark.parametrize("nops", [False, True])
def test_constant_key_accesses_at_one_stack_top_are_one_object(nops):
    body = _ops(0, "SLOAD", "POP", 5, 1, "SSTORE", 64, "MLOAD", 7, 64, "MSTORE", 4, "CALLDATALOAD")
    first, second = rules_of(_twice_through_a_jump(body), nops=nops)
    accesses = [
        Assign("s0", Var("g0")), Assign("g1", Var("s0")), Assign("s0", Var("l0")),
        Assign("l0", Var("s1")), Assign("s1", Var("md0")),
    ]
    for access in accesses:
        assert [s for s in first.body if s == access] == [access]
        assert next(s for s in first.body if s == access) is next(s for s in second.body if s == access)


@pytest.mark.parametrize("nops", [False, True])
def test_non_constant_reads_are_built_per_rule(nops):
    body = _ops("CALLER", "SLOAD", "CALLER", "MLOAD", "POP", "CALLER", "CALLDATALOAD")
    first, second = rules_of(_twice_through_a_jump(body), nops=nops)
    assert _draws(first) == _draws(second) == [
        Assign("gl", Var("s0")), Assign("s0", Var("fresh_0")),
        Assign("ll", Var("s1")), Assign("s1", Var("fresh_1")),
        Assign("s1", Var("fresh_2")),
    ]
    assert not any(a is b for a, b in zip(_draws(first), _draws(second)))


@pytest.mark.parametrize("nops", [False, True])
def test_fresh_numbering_does_not_depend_on_the_memo(nops):
    # The second rule takes its constant-key statements from the memo and
    # draws between them; it numbers its draws as if translated alone.
    body = _ops(0, "CALLDATALOAD", "POP", 0, "SLOAD", "POP", "CALLER", "SLOAD", "POP",
                0, "MLOAD", 9, 0, "MSTORE", "CALLER", "MLOAD", "CALLER", "BALANCE", "POP")
    cfg = cfg_of(_twice_through_a_jump(body))
    first, second = translate_cfg(cfg, nops=nops)
    assert [second] == translate_block(cfg.live_blocks()[1], build_layout(cfg), nops=nops)
    assert [s.value for s in _draws(second) if s.target not in ("gl", "ll")] == [
        Var("fresh_0"), Var("fresh_1"), Var("fresh_2"),
    ]
    from_memo = [s for s in second.body if any(s is t for t in first.body)]
    for access in (Assign("s0", Var("md0")), Assign("s0", Var("g0")), Assign("l0", Var("s1"))):
        assert access in from_memo
