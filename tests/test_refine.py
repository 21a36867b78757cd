"""The erasure homomorphisms, erasure commutation, the constant tables
under Δ, and Δ on programs without refinements."""

import itertools
import random
import re
from pathlib import Path

import pytest

from otlc.checker import Mode, TypeCheckError, typecheck
from otlc.harness import check_subject_reduction, gen_typed_term
from otlc.refine import erase_expr, erase_type
from otlc.semantics import Stepped, Value, evaluate, step, trace
from otlc.subtyping import REFINING, constant_types, subtype
from otlc.syntax import (
    App,
    Bool,
    Constant,
    If,
    Num,
    apply_constant,
    fold,
    free_vars,
    is_value,
    parse_expr,
    parse_program,
    parse_type,
    print_expr,
    print_pred,
    print_type,
)

BOTH = frozenset(REFINING)
CORPUS = sorted(Path(__file__).parent.glob("corpus/*.lts"))


# ---------------------------------------------------------------------------
# erasure metafunctions


@pytest.mark.parametrize("src,expected", [
    ("(Refinement even?)", "Number"),
    ("(Refinement odd?)", "Number"),
    ("(-> Number Boolean : (Refinement even?))", "(-> Number Boolean : Number)"),
    ("(-> (Refinement even?) (Refinement odd?))", "(-> Number Number)"),
    ("(U (Refinement even?) Boolean)", "(U Number Boolean)"),
    ("Number", "Number"),
    ("Top", "Top"),
    ("(-> Top Boolean : Number)", "(-> Top Boolean : Number)"),
])
def test_erase_type(src, expected):
    assert erase_type(parse_type(src)) == parse_type(expected)


def test_erase_expr_rewrites_only_annotations():
    e = parse_expr("(lambda (f : (-> (Refinement even?) Number)) f)")
    assert print_expr(erase_expr(e)) == \
        "(lambda (f : (-> Number Number)) f)"
    plain = parse_expr("(if (even? 2) 1 0)")
    assert erase_expr(plain) == plain


def test_erase_idempotent():
    for src in ["(Refinement even?)", "(-> (Refinement odd?) Number)",
                "(U Number (Refinement even?))", "Top"]:
        t = erase_type(parse_type(src))
        assert erase_type(t) == t


def test_erasure_leaves_no_refinement():
    t = erase_type(parse_type("(-> (U (Refinement even?) (Refinement odd?)) "
                              "(Refinement even?) : (Refinement odd?))"))
    assert "Refinement" not in print_type(t)


def test_erasure_preserves_value_and_free_vars():
    e = parse_expr("(lambda (n : (Refinement even?)) (add1 x))")
    assert is_value(erase_expr(e)) == is_value(e)
    assert free_vars(erase_expr(e)) == free_vars(e)


def _node_ids(terms) -> set[int]:
    seen: set[int] = set()
    for t in terms:
        fold(t, lambda x: seen.add(id(x)), lambda x, kids: seen.add(id(x)))
    return seen


def test_memoized_erasure_erases_a_shared_node_once():
    lam = parse_expr("(lambda (x : (Refinement even?)) x)")
    a, b = App(lam, Num(2)), If(Bool(True), lam, lam)
    memo: dict = {}
    ea, eb = erase_expr(a, memo), erase_expr(b, memo)
    assert ea == erase_expr(a) and eb == erase_expr(b)
    assert ea.rator is eb.then is eb.els
    assert erase_expr(a).rator is not erase_expr(b).then
    folded = []
    fold(b, lambda x: x, lambda x, kids: folded.append(x), memo={})
    assert folded == [lam, b]


def test_memoized_erasure_agrees_and_keeps_sharing_along_runs():
    rich = 0
    for i in range(500):
        e = gen_typed_term(random.Random(f"erase-memo:{i}"), 6, frozenset(REFINING))
        tr = trace(e, 1000)[0]
        memo: dict = {}
        shared = [erase_expr(t, memo) for t in tr]
        assert shared == [erase_expr(t) for t in tr]
        # One erased node per node of the run: shared nodes stay shared.
        assert len(_node_ids(shared)) == len(_node_ids(tr))
        rich += shared[0] is not e and len(tr) > 1
    assert rich > 50


# ---------------------------------------------------------------------------
# Δ without refinements


def _verdict(delta, e, mode):
    try:
        j = typecheck(delta, {}, e, mode)
    except TypeCheckError as err:
        return str(err)
    return j.type, j.pred


@pytest.mark.parametrize("mode", list(Mode))
def test_delta_is_moot_without_refinements(mode):
    # `otlc` gives a file that declares nothing Δ = {even?, odd?}.  Δ only
    # matters to an annotation that names a refinement, to the latent of a
    # parity test and, in the extended rules, to the type of a numeric
    # literal.  A plain term has none of the first two, and erasing its
    # extended type under Δ undoes the third.
    programs = [parse_program(p.read_text(encoding="utf-8")) for p in CORPUS]
    terms = [e for decls, e in programs if not decls]
    terms += [gen_typed_term(random.Random(f"moot:{i}"), 6, frozenset()) for i in range(300)]
    plain = [e for e in terms if not re.search(r"Refinement|even\?|odd\?", print_expr(e))]
    assert len(plain) > 300
    for e in plain:
        verdict = _verdict(frozenset(REFINING), e, mode)
        if mode is Mode.EXTENDED and isinstance(verdict, tuple):
            verdict = erase_type(verdict[0]), verdict[1]
        assert _verdict(frozenset(), e, mode) == verdict


@pytest.mark.parametrize("src", [
    "(lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0))",
    "(add1 5)",
    "(if #t 1 2)",
])
def test_erase_expr_is_identity_without_refinements(src):
    e = parse_expr(src)
    assert erase_expr(e) == e


# ---------------------------------------------------------------------------
# refined typability does not carry over to the erasure


def _judged(src, mode, delta=frozenset()):
    j = typecheck(delta, {}, parse_expr(src), mode)
    return f"{print_type(j.type)} ; {print_pred(j.pred)}"


# The two smallest fuzzed shapes whose erasure has no judgment under the
# empty Δ below the erasure of their own: the test (even? x) on an even x
# makes the branch x dead, and the base system must still type it.
DEAD_BRANCH = "(lambda (x : (Refinement even?)) ((lambda (b : Boolean) x) (if (even? x) #f x)))"
DEAD_BRANCH_RESULT = "(lambda (x : (Refinement even?)) (if (even? x) #f x))"


def test_a_dead_branch_types_in_the_refined_system_only():
    assert _judged(DEAD_BRANCH, Mode.PRIMARY, BOTH) == "(-> (Refinement even?) (Refinement even?)) ; tt"
    with pytest.raises(TypeCheckError, match=r"\(U Boolean Number\) is not a subtype of Boolean"):
        typecheck(frozenset(), {}, erase_expr(parse_expr(DEAD_BRANCH)), Mode.PRIMARY)


def test_a_dead_branch_widens_the_erased_result():
    assert _judged(DEAD_BRANCH_RESULT, Mode.PRIMARY, BOTH) == "(-> (Refinement even?) Boolean) ; tt"
    erased = print_expr(erase_expr(parse_expr(DEAD_BRANCH_RESULT)))
    assert _judged(erased, Mode.PRIMARY) == "(-> Number (U Boolean Number)) ; tt"


@pytest.mark.parametrize("shape", [DEAD_BRANCH, DEAD_BRANCH_RESULT])
def test_a_dead_branch_applied_to_an_even_number_reduces_soundly(shape):
    # The primary rules type 4 as Number, so (shape 4) is reached through a
    # parity guard; the extended rules judge every term of its run.
    e = parse_expr(f"((lambda (n : Number) (if (even? n) ({shape} n) 0)) 4)")
    assert App(parse_expr(shape), Num(4)) in trace(e, 100)[0]
    assert check_subject_reduction(e, 100, BOTH, typecheck(BOTH, {}, e, Mode.PRIMARY)) == []


# ---------------------------------------------------------------------------
# the constant tables under Δ


def test_parity_test_on_a_value_is_undecided_under_the_empty_delta():
    # Under the empty Δ even? is a plain predicate with no latent, so the
    # extended rules leave (even? 99) undecided; the evaluator says #f.
    assert evaluate(parse_expr("(even? 99)"), 10) == Value(Bool(False))
    assert _judged("(even? 99)", Mode.EXTENDED) == "Boolean ; none"


def test_chain_table_gives_parity_tests_no_variable_predicate():
    # Under the empty Δ even? is a plain predicate, so a λ applying it is no test.
    assert _judged("(lambda (n : Number) (even? n))", Mode.EXTENDED) == "(-> Number Boolean) ; tt"


# Values of every kind: numbers of both parities, the Booleans, each
# constant and a λ.
VALUES = [*map(str, range(-10, 11)), "#t", "#f", *(c.value for c in Constant),
          "(lambda (x : Top) x)"]


def _latent_disagreements(delta):
    """Each application (c v) where v's extended type fits c's argument type
    and is below c's latent, but δ answers #f, or the other way round."""
    found = []
    for c, t in constant_types(delta).items():
        if t.latent is None:
            continue
        for src in VALUES:
            v = parse_expr(src)
            vt = typecheck(delta, {}, v, Mode.EXTENDED).type
            if subtype(vt, t.arg) and subtype(vt, t.latent) != (apply_constant(c, v) == Bool(True)):
                found.append(f"({c.value} {src})")
    return found


SUBSETS = [frozenset(s) for n in range(len(REFINING) + 1)
           for s in itertools.combinations(REFINING, n)]


@pytest.mark.parametrize("delta", SUBSETS, ids=lambda d: ",".join(c.value for c in REFINING if c in d) or "empty")
def test_latents_agree_with_delta(delta):
    # A value's extended type is exact in kind, so it is below a latent
    # exactly when the test answers #t; extended T-AppPredFalse rests on it.
    assert _latent_disagreements(delta) == []


# ---------------------------------------------------------------------------
# erasure/step commutation


@pytest.mark.parametrize("src", [
    "((lambda (n : (Refinement even?)) (add1 n)) 4)",
    "(if (even? 3) 1 0)",
    "((lambda (f : (-> (Refinement even?) Number)) 0) (lambda (n : (Refinement even?)) 1))",
    "(even? (add1 1))",
])
def test_erasure_commutes_with_step(src):
    e = parse_expr(src)
    while True:
        r = step(e)
        if not isinstance(r, Stepped):
            break
        re = step(erase_expr(e))
        assert isinstance(re, Stepped)
        assert re.next == erase_expr(r.next)
        e = r.next
