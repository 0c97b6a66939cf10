"""The SACO export against a rewrite of the rules, on drawn rule lists."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_emit import _rewritten_saco

from evmrbr.emit import export_saco
from evmrbr.rbr import RELATIONS, Assign, BinOp, BitOp, Call, Guard, Nop, Not, Num, Rule, Var, VarLayout

_ATOMS = st.one_of(
    st.sampled_from([Var(name) for name in ("s0", "s1", "s2", "g0", "fresh_0", "fresh_3", "fresh_9")]),
    st.builds(Num, st.integers(0, 2**256 - 1)),
)
_STATEMENTS = st.one_of(
    st.builds(Nop, st.sampled_from(["PUSH1", "AND", "JUMPI"])),
    st.builds(
        Assign,
        st.sampled_from(["s0", "s1", "s2", "g0", "fresh_1"]),
        st.one_of(
            _ATOMS,
            st.builds(BinOp, st.sampled_from("+-*/%^"), _ATOMS, _ATOMS),
            st.builds(BitOp, st.sampled_from(["and", "or", "xor"]), _ATOMS, _ATOMS),
            st.builds(Not, _ATOMS),
        ),
    ),
)


@st.composite
def _rule_lists(draw):
    """Rules over one layout whose bodies draw from one pool of statement
    objects, so rules share them; a block may end in a guarded pair, and
    the list comes in any order."""
    pool = draw(st.lists(_STATEMENTS, min_size=1, max_size=8))
    layout = VarLayout(k=draw(st.integers(-1, 1)))
    rules = []
    for n in draw(st.lists(st.integers(0, 40), unique=True, max_size=6)):
        body = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))]
        if draw(st.booleans()):
            taken = Guard(draw(st.sampled_from(RELATIONS)), Var("s1"), Num(0))
            rules += [
                Rule(f"block_{n}", 2, layout, None, body, Call(f"jump_{n}", 2)),
                Rule(f"jump_{n}", 2, layout, taken, [], Call(f"block_{n + 1}", 0)),
                Rule(f"jump_{n}", 2, layout, taken.negated(), [], Call(f"block_{n + 2}", 0)),
            ]
        else:
            call = draw(st.none() | st.builds(Call, st.just(f"block_{n + 1}"), st.integers(0, 3)))
            rules.append(Rule(f"block_{n}", draw(st.integers(0, 3)), layout, None, body, call))
    return draw(st.permutations(rules))


_AND = Assign("s1", BitOp("and", Var("s1"), Var("s0")))
_LAYOUT = VarLayout()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rules=_rule_lists())
# a body of nothing but nop markers
@example(rules=[Rule("block_0", 0, _LAYOUT, body=[Nop("PUSH1"), Nop("AND"), Nop("STOP")])])
# one forgotten statement in two rules whose counters differ
@example(rules=[
    Rule("block_0", 2, _LAYOUT, body=[Assign("s0", Var("fresh_1")), _AND]),
    Rule("block_1", 2, _LAYOUT, body=[_AND, Nop("AND"), _AND]),
])
# a body that already uses fresh_3, so the first replacement is fresh_4
@example(rules=[Rule("block_0", 2, _LAYOUT, body=[_AND, Assign("s0", Var("fresh_3")), _AND])])
# a not
@example(rules=[Rule("block_0", 1, _LAYOUT, body=[Assign("s0", Not(Var("s0")))])])
# a guarded pair, listed out of name order
@example(rules=[
    Rule("jump_0", 2, _LAYOUT, Guard("lt", Var("s1"), Var("s0")), [], Call("block_5", 0)),
    Rule("block_5", 0, _LAYOUT, body=[Nop("STOP")]),
    Rule("block_0", 2, _LAYOUT, body=[_AND], continuation=Call("jump_0", 2)),
    Rule("jump_0", 2, _LAYOUT, Guard("geq", Var("s1"), Var("s0")), [], Call("block_1", 0)),
])
def test_saco_export_matches_the_rewrite_on_drawn_rules(rules):
    assert export_saco(rules) == _rewritten_saco(rules)
