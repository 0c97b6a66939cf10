"""Value semantics of the package's record classes.

Terminators, statements, atoms, guards, calls and opcodes are immutable
values: equal fields make equal objects of one type, equal objects hash
equal, and no field can be set or deleted.  Blocks, rules, layouts and the
interpreters' states are mutable records with value equality that cannot be
hashed.  Every record prints as ``Name(field=value, ...)`` and is built from
its fields in order, positionally or by keyword.
"""

import copy
import dataclasses
import pickle

import pytest

from evmrbr.cfg import Block, Cfg, FallThrough, Halt, Jump, JumpI
from evmrbr.diff import DiffReport, Divergence
from evmrbr.evm_exec import MachineState
from evmrbr.opcodes import Opcode
from evmrbr.rbr import Assign, BinOp, BitOp, Call, Guard, Nop, Not, Num, Rule, Var, VarLayout
from evmrbr.rbr_exec import RbrState, RuleIndex
from evmrbr.translate import TranslationState

# (class, field names in constructor order, sample field values, repr of the sample)
FROZEN = [
    (Num, ("value",), (5,), "Num(value=5)"),
    (Var, ("name",), ("s0",), "Var(name='s0')"),
    (BinOp, ("op", "lhs", "rhs"), ("+", Var("s1"), Num(2)),
     "BinOp(op='+', lhs=Var(name='s1'), rhs=Num(value=2))"),
    (BitOp, ("op", "lhs", "rhs"), ("and", Var("s1"), Num(2)),
     "BitOp(op='and', lhs=Var(name='s1'), rhs=Num(value=2))"),
    (Not, ("operand",), (Var("s0"),), "Not(operand=Var(name='s0'))"),
    (Assign, ("target", "value"), ("s0", Num(1)), "Assign(target='s0', value=Num(value=1))"),
    (Nop, ("mnemonic",), ("ADD",), "Nop(mnemonic='ADD')"),
    (Guard, ("relation", "lhs", "rhs"), ("lt", Var("s1"), Num(2)),
     "Guard(relation='lt', lhs=Var(name='s1'), rhs=Num(value=2))"),
    (Call, ("target", "stack_count"), ("block_3", 2), "Call(target='block_3', stack_count=2)"),
    (Jump, ("target",), ("7",), "Jump(target='7')"),
    (JumpI, ("taken", "fallthrough"), ("7", "9"), "JumpI(taken='7', fallthrough='9')"),
    (FallThrough, ("target",), ("7",), "FallThrough(target='7')"),
    (Halt, (), (), "Halt()"),
    (Opcode, ("mnemonic", "code", "delta", "alpha", "immediate_len"), ("PUSH2", 0x61, 0, 1, 2),
     "Opcode(mnemonic='PUSH2', code=97, delta=0, alpha=1, immediate_len=2)"),
    (RuleIndex, ("steps", "entries", "names", "slots", "template"), ((), {}, (), {}, ()),
     "RuleIndex(steps=(), entries={}, names=(), slots={}, template=())"),
]

MUTABLE = [
    (VarLayout, ("k", "r", "lmap", "md_offsets", "md_count", "named_bc"),
     (1, 0, {64: 0}, (4,), 1, ("caller",)),
     "VarLayout(k=1, r=0, lmap={64: 0}, md_offsets=(4,), md_count=1, named_bc=('caller',))"),
    (Rule, ("name", "stack_params", "layout", "guard", "body", "continuation"),
     ("jump_5", 1, VarLayout(), Guard("eq", Var("s0"), Num(0)), [], Call("block_9", 0)),
     "Rule(name='jump_5', stack_params=1, layout=VarLayout(k=-1, r=-1, lmap={}, md_offsets=(), "
     "md_count=0, named_bc=()), guard=Guard(relation='eq', lhs=Var(name='s0'), rhs=Num(value=0)), "
     "body=[], continuation=Call(target='block_9', stack_count=0))"),
    (Block, ("id", "start_pc", "instrs", "terminator", "entry_height", "dead", "const_operands"),
     ("5", 5, [], Jump("9"), 2, False, []),
     "Block(id='5', start_pc=5, instrs=[], terminator=Jump(target='9'), entry_height=2, "
     "dead=False, const_operands=[])"),
    (Cfg, ("blocks", "entry", "unresolved"), ({}, "0", [("5", "clone cap")]),
     "Cfg(blocks={}, entry='0', unresolved=[('5', 'clone cap')])"),
    (Divergence, ("case", "quantity", "evm", "rbr"), (0, "storage[0]", "1", "2"),
     "Divergence(case=0, quantity='storage[0]', evm='1', rbr='2')"),
    (DiffReport, ("n_cases", "divergences", "executed_rules"), (3, [], {"block_0"}),
     "DiffReport(n_cases=3, divergences=[], executed_rules={'block_0'})"),
    (RbrState, ("bindings", "rule"), ({"s0": 1}, "block_0"),
     "RbrState(bindings={'s0': 1}, rule='block_0')"),
    (MachineState, ("stack", "memory", "storage", "calldata", "env", "halted", "pc"),
     ([1], {0: 2}, {1: 3}, b"\x01", {"caller": 4}, True, 7),
     "MachineState(stack=[1], memory={0: 2}, storage={1: 3}, calldata=b'\\x01', "
     "env={'caller': 4}, halted=True, pc=7)"),
    (TranslationState, ("m", "block_id", "fresh_counter", "nops", "consts"),
     (0, "5", 2, True, {3: (None,)}),
     "TranslationState(m=0, block_id='5', fresh_counter=2, nops=True, consts={3: (None,)})"),
]

ALL = FROZEN + MUTABLE
# RuleIndex is frozen, but its dict fields make hashing it raise.
HASHABLE = [case for case in FROZEN if case[0] is not RuleIndex]


def _ids(cases):
    return [case[0].__name__ for case in cases]


def _sample(cls, values):
    # Mutable field values are copied, so no two samples share a list or dict.
    return cls(*copy.deepcopy(values))


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_position = _sample(cls, values)
    by_keyword = cls(**dict(zip(names, copy.deepcopy(values))))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert [getattr(by_keyword, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_repr_names_every_field(cls, names, values, text):
    assert repr(_sample(cls, values)) == text


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_fields_are_the_match_args(cls, names, values, text):
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_each_field_takes_part_in_equality(cls, names, values, text):
    sample = _sample(cls, values)
    for i in range(len(names)):
        changed = list(copy.deepcopy(values))
        changed[i] = object()
        other = cls(*changed)
        assert sample != other and other != sample
        assert not sample == other


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_a_record_never_equals_a_tuple_of_its_fields(cls, names, values, text):
    sample = _sample(cls, values)
    assert sample != tuple(values)
    assert sample != None  # noqa: E711


@pytest.mark.parametrize(
    "a, b",
    [
        (Jump("1"), FallThrough("1")),
        (BinOp("+", Var("s0"), Num(1)), BitOp("+", Var("s0"), Num(1))),
        (BinOp("eq", Var("s0"), Num(1)), Guard("eq", Var("s0"), Num(1))),
        (BitOp("and", Var("s0"), Num(1)), Guard("and", Var("s0"), Num(1))),
        (Num(0), Var(0)),
        (Var("s0"), Nop("s0")),
        (RbrState({}, "block_0"), Rule("block_0", 0, VarLayout())),
    ],
    ids=lambda x: type(x).__name__,
)
def test_equal_fields_of_different_types_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("cls, names, values, text", HASHABLE, ids=_ids(HASHABLE))
def test_equal_frozen_values_hash_equal(cls, names, values, text):
    a, b = _sample(cls, values), _sample(cls, values)
    assert a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1


def test_a_rule_index_does_not_hash():
    with pytest.raises(TypeError):
        hash(RuleIndex((), {}, (), {}, ()))


@pytest.mark.parametrize("cls, names, values, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_fields_cannot_be_set_or_deleted(cls, names, values, text):
    sample = _sample(cls, values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(sample, name, 0)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    with pytest.raises(AttributeError):
        sample.unknown = 0
    assert [getattr(sample, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, names, values, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_do_not_hash(cls, names, values, text):
    with pytest.raises(TypeError):
        hash(_sample(cls, values))


@pytest.mark.parametrize("cls, names, values, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_record_fields_can_be_set(cls, names, values, text):
    sample, twin = _sample(cls, values), _sample(cls, values)
    for name in names:
        marker = object()
        setattr(sample, name, marker)
        assert getattr(sample, name) is marker
    assert sample != twin


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_copies_and_pickles_are_equal(cls, names, values, text):
    sample = _sample(cls, values)
    for twin in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
        assert type(twin) is cls
        assert twin == sample


def test_a_deep_copy_keeps_shared_parts_shared():
    layout = VarLayout(0, -1, {}, (), 0, ())
    rules = [Rule("block_0", 0, layout), Rule("block_1", 0, layout)]
    copied = copy.deepcopy(rules)
    assert copied == rules
    assert copied[0].layout is copied[1].layout
    assert copied[0].layout is not layout


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=_ids(ALL))
def test_dataclass_helpers_see_the_fields(cls, names, values, text):
    # A library caller may have used dataclasses.replace on rules or statements.
    sample = _sample(cls, values)
    assert tuple(f.name for f in dataclasses.fields(sample)) == names
    if names:
        marker = object()
        changed = dataclasses.replace(sample, **{names[0]: marker})
        assert type(changed) is cls
        assert getattr(changed, names[0]) is marker
        assert [getattr(changed, name) for name in names[1:]] == list(values[1:])


def test_defaults():
    layout = VarLayout()
    assert (layout.k, layout.r, layout.lmap, layout.md_offsets, layout.md_count,
            layout.named_bc) == (-1, -1, {}, (), 0, ())
    rule = Rule("block_0", 2, layout)
    assert (rule.guard, rule.body, rule.continuation) == (None, [], None)
    assert rule.layout is layout
    assert Opcode("ADD", 0x01, 2, 1).immediate_len == 0
    block = Block("0", 0, [], Halt())
    assert (block.entry_height, block.dead, block.const_operands) == (None, False, None)
    assert Cfg({}, None).unresolved == []
    report = DiffReport(4)
    assert (report.divergences, report.executed_rules) == ([], set())
    assert (RbrState().bindings, RbrState().rule) == ({}, "")
    state = MachineState()
    assert (state.stack, state.memory, state.storage, state.calldata, state.env, state.halted,
            state.pc) == ([], {}, {}, b"", {}, False, 0)
    cursor = TranslationState(3)
    assert (cursor.m, cursor.block_id, cursor.fresh_counter, cursor.nops, cursor.consts) == (
        3, "?", 0, False, {})


@pytest.mark.parametrize(
    "make, names",
    [
        (VarLayout, ("lmap",)),
        (lambda: Rule("block_0", 0, VarLayout()), ("body",)),
        (lambda: Cfg({}, None), ("unresolved",)),
        (lambda: DiffReport(1), ("divergences", "executed_rules")),
        (RbrState, ("bindings",)),
        (MachineState, ("stack", "memory", "storage", "env")),
        (lambda: TranslationState(0), ("consts",)),
    ],
    ids=["VarLayout", "Rule", "Cfg", "DiffReport", "RbrState", "MachineState", "TranslationState"],
)
def test_each_record_gets_its_own_default_containers(make, names):
    a, b = make(), make()
    for name in names:
        assert getattr(a, name) is not getattr(b, name)


def test_blocks_share_no_list():
    a = Block("0", 0, [], Halt())
    b = Block("0", 0, [], Halt())
    a.instrs.append(None)
    assert b.instrs == [] and a != b


def test_patterns_match_by_field_order():
    match Assign("s1", BinOp("+", Var("s0"), Num(3))):
        case Assign(target, BinOp(op, Var(name), Num(value))):
            assert (target, op, name, value) == ("s1", "+", "s0", 3)
        case _:
            pytest.fail("no match")


def test_opcode_properties_are_cached_on_a_frozen_opcode():
    op = Opcode("INVALID_0c", 0x0C, 0, 0)
    assert op.halts and op.is_terminator and op.is_invalid_class
    assert op == Opcode("INVALID_0c", 0x0C, 0, 0)
    with pytest.raises(AttributeError):
        op.halts = False
