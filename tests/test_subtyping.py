"""Normal forms, the constant-type table, the subtype relation, and the
hash-consed representation of types."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from otlc.subtyping import (
    CONSTANT_TYPES,
    REFINING,
    UndeclaredRefinement,
    overlap,
    refinement_base,
    subtype,
)
from otlc.syntax import (
    BOOLEAN,
    BOT,
    FALSE_T,
    NUM,
    TOP,
    TRUE_T,
    Arrow,
    Constant,
    Refine,
    Type,
    UnionT,
    parse_type,
    print_type,
)

EMPTY = frozenset()
PARITY = frozenset({Constant.EVEN_P, Constant.ODD_P})
R_EVEN = Refine(Constant.EVEN_P)
R_ODD = Refine(Constant.ODD_P)


# ---------------------------------------------------------------------------
# The constant-type table, exact

EXPECTED_CONSTANT_TYPES = {
    Constant.ADD1: "(-> Number Number)",
    Constant.NOT: "(-> Top Boolean)",
    Constant.NUMBER_P: "(-> Top Boolean : Number)",
    Constant.BOOLEAN_P: "(-> Top Boolean : Boolean)",
    Constant.PROCEDURE_P: "(-> Top Boolean : (-> (U) Top))",
    Constant.EVEN_P: "(-> Number Boolean : (Refinement even?))",
    Constant.ODD_P: "(-> Number Boolean : (Refinement odd?))",
}


@pytest.mark.parametrize("c,expected", sorted(EXPECTED_CONSTANT_TYPES.items(),
                                              key=lambda kv: kv[0].value))
def test_constant_type_table(c, expected):
    assert CONSTANT_TYPES[c] == parse_type(expected)


def test_refining_constants_are_the_parity_tests_in_table_order():
    assert REFINING == (Constant.EVEN_P, Constant.ODD_P)


def test_refinement_base_is_the_constant_domain():
    assert refinement_base(Constant.EVEN_P) == NUM
    assert refinement_base(Constant.ODD_P) == NUM


# ---------------------------------------------------------------------------
# Normal form: every type is built in it


def test_normalize_flattens_and_dedups():
    t = parse_type("(U Number (U Number Boolean))")
    assert t is UnionT((NUM, TRUE_T, FALSE_T))
    assert t.members == (NUM, TRUE_T, FALSE_T)


def test_normalize_collapses_singleton_union():
    assert UnionT((NUM,)) is NUM


def test_normalize_recurses_into_arrows():
    t = parse_type("(-> (U Number Number) (U Boolean) : (U Top Top))")
    assert t is Arrow(NUM, BOOLEAN, TOP)


def test_normalize_keeps_empty_union():
    assert BOT.members == ()
    assert parse_type("(U Bot (U))") is BOT


def test_type_equal_up_to_normalization():
    assert parse_type("(U Number Number)") is NUM
    assert NUM != BOOLEAN


# ---------------------------------------------------------------------------
# subtype: base facts


def test_top_is_maximal():
    for t in (NUM, BOOLEAN, TRUE_T, Arrow(NUM, NUM, None), R_EVEN, BOT):
        assert subtype(PARITY, t, TOP)
    assert not subtype(EMPTY, TOP, NUM)


def test_bot_is_minimal():
    for t in (NUM, BOOLEAN, TOP, Arrow(NUM, NUM, None)):
        assert subtype(EMPTY, BOT, t)
    assert not subtype(EMPTY, NUM, BOT)


def test_union_subtyping():
    assert subtype(EMPTY, TRUE_T, BOOLEAN)
    assert subtype(EMPTY, BOOLEAN, parse_type("(U Number Boolean)"))
    assert not subtype(EMPTY, parse_type("(U Number Boolean)"), NUM)
    # A union on the left needs every member below the right side, and that
    # must be checked before splitting a union on the right.
    assert subtype(EMPTY, parse_type("(U Number Boolean)"),
                   parse_type("(U Boolean Number)"))


def test_arrow_subtyping_contra_co():
    assert subtype(EMPTY, Arrow(TOP, TRUE_T, None), Arrow(NUM, BOOLEAN, None))
    assert not subtype(EMPTY, Arrow(NUM, NUM, None), Arrow(TOP, NUM, None))
    assert not subtype(EMPTY, Arrow(NUM, TOP, None), Arrow(NUM, NUM, None))


def test_arrow_latent_dropping():
    with_latent = Arrow(TOP, BOOLEAN, NUM)
    without = Arrow(TOP, BOOLEAN, None)
    assert subtype(EMPTY, with_latent, without)
    assert not subtype(EMPTY, without, with_latent)
    # Same latent on both sides is fine; a different one is not.
    assert subtype(EMPTY, with_latent, Arrow(TOP, BOOLEAN, NUM))
    assert not subtype(EMPTY, with_latent, Arrow(TOP, BOOLEAN, BOOLEAN))


# ---------------------------------------------------------------------------
# subtype: refinements


def test_refinement_below_base():
    assert subtype(PARITY, R_EVEN, NUM)
    assert subtype(PARITY, R_EVEN, parse_type("(U Number Boolean)"))
    assert subtype(PARITY, R_EVEN, TOP)


def test_base_not_below_refinement():
    assert not subtype(PARITY, NUM, R_EVEN)


def test_refinements_incomparable():
    assert not subtype(PARITY, R_EVEN, R_ODD)
    assert not subtype(PARITY, R_ODD, R_EVEN)
    assert subtype(PARITY, R_EVEN, R_EVEN)


def test_undeclared_refinement_raises():
    with pytest.raises(UndeclaredRefinement):
        subtype(EMPTY, R_EVEN, NUM)
    with pytest.raises(UndeclaredRefinement):
        subtype(frozenset({Constant.ODD_P}), R_EVEN, NUM)


@pytest.mark.parametrize("s,t", [(NUM, R_EVEN), (R_EVEN, R_EVEN),
                                 (NUM, UnionT((TOP, R_EVEN)))])
def test_undeclared_refinement_raises_however_decided(s, t):
    # Deciding these never reaches the refinement's base (s == t, or a
    # union member that already fits), yet the refinement is undeclared.
    with pytest.raises(UndeclaredRefinement, match="even[?] is not declared"):
        subtype(EMPTY, s, t)


# ---------------------------------------------------------------------------
# overlap: can two types share a value?


@pytest.mark.parametrize("s,t,expected", [
    ("Top", "Top", True),
    ("Top", "Number", True),
    ("Top", "(-> Number Number)", True),
    ("(U)", "Top", False),
    ("(U)", "(U)", False),
    ("Number", "(Refinement even?)", True),
    ("(Refinement even?)", "(Refinement odd?)", True),
    ("True", "False", False),
    ("True", "Boolean", True),
    ("False", "Boolean", True),
    ("Boolean", "Number", False),
    ("(Refinement even?)", "Boolean", False),
    # (-> (U) Top) is the latent of procedure?
    ("(-> Number Number)", "(-> (U) Top)", True),
    ("(-> Top Boolean : Number)", "(-> (U) Top)", True),
    ("Number", "(-> (U) Top)", False),
    ("Boolean", "(-> (U) Top)", False),
    ("(U Number True)", "(U False (-> Number Number))", False),
    ("(U Number True)", "(U False Number)", True),
    ("(U Top Number)", "False", True),
])
def test_overlap(s, t, expected):
    s, t = parse_type(s), parse_type(t)
    assert overlap(s, t) is expected
    assert overlap(t, s) is expected


OVERLAP_SAMPLES = [parse_type(s) for s in (
    "Top", "Number", "True", "False", "Boolean", "(U)", "(Refinement even?)",
    "(Refinement odd?)", "(U Number True)", "(U False (-> Number Number))",
    "(-> Number Number)", "(-> Top Boolean : Number)", "(-> (U) Top)")]


def test_a_type_with_a_value_overlaps_its_supertypes():
    for s in OVERLAP_SAMPLES:
        for t in OVERLAP_SAMPLES:
            if s != BOT and subtype(PARITY, s, t):
                assert overlap(s, t), (print_type(s), print_type(t))


# ---------------------------------------------------------------------------
# Properties

_types = st.deferred(lambda: st.one_of(
    st.sampled_from([TOP, NUM, TRUE_T, FALSE_T, BOOLEAN, BOT, R_EVEN, R_ODD]),
    st.builds(lambda ms: UnionT(tuple(ms)), st.lists(_types, max_size=3)),
    st.builds(Arrow, _types, _types, st.one_of(st.none(), _types)),
))


@settings(max_examples=100, deadline=None)
@given(_types)
def test_subtype_reflexive(t):
    assert subtype(PARITY, t, t)


@settings(max_examples=150, deadline=None)
@given(_types, _types, _types)
def test_subtype_transitive(a, b, c):
    if subtype(PARITY, a, b) and subtype(PARITY, b, c):
        assert subtype(PARITY, a, c)


# ---------------------------------------------------------------------------
# Hash-consing: one live object per type


def _rebuild(x):
    """A copy of `x` built node by node, bottom-up, from its fields."""
    if isinstance(x, tuple):
        return tuple(_rebuild(m) for m in x)
    if isinstance(x, Type):
        return type(x)(*(_rebuild(getattr(x, f)) for f in x.__match_args__))
    return x


def _nodes(t):
    """`t` and every type inside it."""
    yield t
    for f in t.__match_args__:
        x = getattr(t, f)
        for u in x if isinstance(x, tuple) else (x,):
            if isinstance(u, Type):
                yield from _nodes(u)


def _shape(x):
    """The structure of `x` as nested tuples, with no type objects in it."""
    if isinstance(x, tuple):
        return tuple(_shape(m) for m in x)
    if isinstance(x, Type):
        return (type(x),) + tuple(_shape(getattr(x, f)) for f in x.__match_args__)
    return x


@settings(max_examples=100, deadline=None)
@given(_types)
def test_rebuilt_type_is_the_original(t):
    copy = _rebuild(t)
    assert copy is t
    p = print_type(t)
    assert parse_type(p) is t
    # Every spelling of a type builds the one object ...
    assert UnionT((t,)) is t
    for respelled in (f"(U {p} {p})", f"(U Bot {p})", f"(U (U {p}) {p})"):
        assert parse_type(respelled) is t
    # ... and that object is in normal form.
    for u in _nodes(t):
        if isinstance(u, UnionT):
            assert len(u.members) != 1
            assert len(set(u.members)) == len(u.members)
            assert not any(isinstance(m, UnionT) for m in u.members)


@settings(max_examples=100, deadline=None)
@given(_types, _types)
def test_types_are_equal_exactly_when_identical(s, t):
    assert (s == t) == (s is t) == (_shape(s) == _shape(t))
    assert s != object()


def test_type_table_holds_types_weakly():
    # A shape no other test builds, so no cache holds it.
    t = Arrow(UnionT((R_ODD, NUM, R_ODD, TOP, R_ODD)), Arrow(BOT, UnionT((TOP,) * 7)))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
