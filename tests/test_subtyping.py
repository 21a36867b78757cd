"""Normal forms, the constant-type table, the subtype relation, and the
hash-consed representation of types."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from otlc.subtyping import (
    CONSTANT_TYPES,
    REFINING,
    constant_types,
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


def test_constant_types_under_delta():
    # Under every refining constant the table is the table itself; outside
    # Δ a refining constant is a plain predicate, and the rest stay as they are.
    assert constant_types(frozenset(REFINING)) == CONSTANT_TYPES
    table = constant_types(frozenset({Constant.ODD_P}))
    assert table[Constant.EVEN_P] is Arrow(NUM, BOOLEAN)
    assert all(table[c] is CONSTANT_TYPES[c] for c in CONSTANT_TYPES if c != Constant.EVEN_P)


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
        assert subtype(t, TOP)
    assert not subtype(TOP, NUM)


def test_bot_is_minimal():
    for t in (NUM, BOOLEAN, TOP, Arrow(NUM, NUM, None)):
        assert subtype(BOT, t)
    assert not subtype(NUM, BOT)


def test_union_subtyping():
    assert subtype(TRUE_T, BOOLEAN)
    assert subtype(BOOLEAN, parse_type("(U Number Boolean)"))
    assert not subtype(parse_type("(U Number Boolean)"), NUM)
    # A union on the left needs every member below the right side, and that
    # must be checked before splitting a union on the right.
    assert subtype(parse_type("(U Number Boolean)"),
                   parse_type("(U Boolean Number)"))


def test_arrow_subtyping_contra_co():
    assert subtype(Arrow(TOP, TRUE_T, None), Arrow(NUM, BOOLEAN, None))
    assert not subtype(Arrow(NUM, NUM, None), Arrow(TOP, NUM, None))
    assert not subtype(Arrow(NUM, TOP, None), Arrow(NUM, NUM, None))


def test_arrow_latent_dropping():
    with_latent = Arrow(TOP, BOOLEAN, NUM)
    without = Arrow(TOP, BOOLEAN, None)
    assert subtype(with_latent, without)
    assert not subtype(without, with_latent)
    # Same latent on both sides is fine; a different one is not.
    assert subtype(with_latent, Arrow(TOP, BOOLEAN, NUM))
    assert not subtype(with_latent, Arrow(TOP, BOOLEAN, BOOLEAN))


# ---------------------------------------------------------------------------
# subtype: refinements


def test_refinement_below_base():
    assert subtype(R_EVEN, NUM)
    assert subtype(R_EVEN, parse_type("(U Number Boolean)"))
    assert subtype(R_EVEN, TOP)


def test_base_not_below_refinement():
    assert not subtype(NUM, R_EVEN)


def test_refinements_incomparable():
    assert not subtype(R_EVEN, R_ODD)
    assert not subtype(R_ODD, R_EVEN)
    assert subtype(R_EVEN, R_EVEN)


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
    # A refinement holds its base's kinds of value; boolean? refines Top.
    ("(Refinement boolean?)", "Boolean", True),
    ("(Refinement boolean?)", "Number", True),
    ("(Refinement procedure?)", "(-> Number Number)", True),
    ("(U (Refinement odd?) True)", "(Refinement boolean?)", True),
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
            if s != BOT and subtype(s, t):
                assert overlap(s, t), (print_type(s), print_type(t))


# ---------------------------------------------------------------------------
# Properties

# A random type of at most 12 leaves.  test_syntax's round trips draw
# from it too.
types = st.recursive(
    st.sampled_from([TOP, NUM, TRUE_T, FALSE_T, BOOLEAN, BOT, R_EVEN, R_ODD]),
    lambda inner: st.one_of(
        st.builds(lambda ms: UnionT(tuple(ms)), st.lists(inner, max_size=3)),
        st.builds(Arrow, inner, inner, st.one_of(st.none(), inner))),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(types)
def test_subtype_reflexive(t):
    assert subtype(t, t)


def normal_types(size):
    """Every type in normal form of at most `size` nodes.  An arrow is 1
    node plus its parts, and a union 1 plus its members, which are
    distinct, not unions, and ordered."""
    by_size = {1: [TOP, NUM, TRUE_T, FALSE_T, BOT, R_EVEN, R_ODD]}

    def members(total):
        """Every tuple of distinct non-union types of `total` nodes in all."""
        if total == 0:
            yield ()
        for k in range(1, total + 1):
            for m in by_size.get(k, ()):
                if not isinstance(m, UnionT):
                    yield from ((m,) + ms for ms in members(total - k) if m not in ms)

    for n in range(2, size + 1):
        arrows = [Arrow(a, r, latent)
                  for na in range(1, n - 1) for nr in range(1, n - na)
                  for a in by_size.get(na, ()) for r in by_size.get(nr, ())
                  for latent in ([None] if na + nr == n - 1
                                 else by_size.get(n - 1 - na - nr, ()))]
        by_size[n] = arrows + [UnionT(ms) for ms in members(n - 1) if len(ms) > 1]
    return [t for ts in by_size.values() for t in ts]


def test_subtype_transitive():
    # Every chain s <: t <: u of normal types of at most 4 nodes, 3.47
    # million of them: all that are above t are above s.
    ts = normal_types(4)
    assert len(set(ts)) == len(ts) == 549
    above = {t: frozenset(u for u in ts if subtype(t, u)) for t in ts}
    for s in ts:
        for t in above[s]:
            assert above[t] <= above[s], (print_type(s), print_type(t))


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
@given(types)
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
@given(types, types)
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
