"""Terms of any depth: the reader, the checker, the printers, erasure, the
machine, subject reduction, the shrinker's positions, and `==`, `hash`
and `repr` on terms do not recurse on the nesting depth of a term, and
`print_type` does not recurse on the nesting depth of a type."""

import pytest

from otlc.checker import Mode, TypeCheckError, typecheck
from otlc.harness import _positions, check_subject_reduction
from otlc.refine import erase_expr
from otlc.semantics import trace
from otlc.subtyping import REFINING
from otlc.syntax import NUM, Arrow, parse_expr, print_expr, print_pred, print_type

EMPTY = frozenset()


def add1_tower(depth, base="1"):
    return "(add1 " * depth + base + ")" * depth


@pytest.fixture(scope="module")
def tower():
    depth = 10**5
    text = add1_tower(depth)
    return depth, text, parse_expr(text)


@pytest.mark.parametrize("mode", list(Mode))
def test_deep_tower_typechecks(tower, mode):
    depth, _, e = tower
    coverage = {}
    j = typecheck(EMPTY, {}, e, mode, coverage=coverage)
    assert (print_type(j.type), print_pred(j.pred)) == ("Number", "none")
    assert coverage == {"T-Const": depth, "T-App": depth, "T-Num": 1}


def test_deep_tower_prints_back_its_text(tower):
    _, text, e = tower
    assert print_expr(e) == text


def test_deep_tower_erases(tower):
    _, _, e = tower
    # Nothing to erase, so nothing is rebuilt.
    assert erase_expr(e) is e


def test_deep_tower_traces(tower):
    depth, _, e = tower
    ts, _ = trace(e, 2)
    assert [print_expr(t) for t in ts[1:]] == [
        add1_tower(depth - 1, "2"), add1_tower(depth - 2, "3")]


def test_deep_tower_subject_reduction(tower):
    # Every step is judged; the only verdict is that two steps of fuel do
    # not reach the value.
    _, _, e = tower
    fails = check_subject_reduction(e, 2, EMPTY, typecheck(EMPTY, {}, e, Mode.PRIMARY))
    assert [(f.kind, f.step, f.detail) for f in fails] == [
        ("fuel-exhausted", 2, "no value after 2 steps")]


def test_deep_tower_subject_reduction_with_refinements(tower):
    # The erasure-commutation clause too: it compares the erased run
    # with the erased chain by `==`, term by term.
    _, _, e = tower
    delta = frozenset(REFINING)
    fails = check_subject_reduction(e, 2, delta, typecheck(delta, {}, e, Mode.PRIMARY))
    assert [(f.kind, f.step, f.detail) for f in fails] == [
        ("fuel-exhausted", 2, "no value after 2 steps")]


def test_deep_towers_compare_and_hash(tower):
    depth, text, e = tower
    twin = parse_expr(text)
    assert twin is not e
    assert twin == e and hash(twin) == hash(e)
    other = parse_expr(add1_tower(depth, "2"))
    assert other != e


def test_deep_tower_repr_reads_back(tower):
    # A failing assertion on a deep term shows its repr.
    _, text, e = tower
    try:
        shown = repr(e)
    except RecursionError:
        # Not left to pytest: its report of a deep RecursionError compares
        # the locals of the frames, deep terms, pairwise.
        shown = "RecursionError"
    assert shown == f"parse_expr({text!r})"


def test_deep_tower_positions(tower):
    depth, _, e = tower
    assert len(_positions(e)) == 2 * depth + 1


def test_deep_if_tower_narrows_at_every_level():
    depth = 10**4
    text = ("(lambda (x : Top) " + "(if (number? x) " * depth + "(add1 x)"
            + " 0)" * depth + ")")
    e = parse_expr(text)
    for mode in Mode:
        j = typecheck(EMPTY, {}, e, mode)
        assert (print_type(j.type), print_pred(j.pred)) == ("(-> Top Number)", "tt")
    assert print_expr(e) == text


def lambda_tower(depth, body):
    return ("".join(f"(lambda (x{i} : Number) " for i in range(depth)) + body
            + ")" * depth)


def test_deep_lambda_tower_judgment():
    # The type is an arrow nested as deep as the term; `print_type` and a
    # loop read it.
    depth = 10**4
    j = typecheck(EMPTY, {}, parse_expr(lambda_tower(depth, "x0")))
    assert print_pred(j.pred) == "tt"
    assert print_type(j.type) == "(-> Number " * depth + "Number" + ")" * depth
    t = j.type
    for _ in range(depth):
        assert isinstance(t, Arrow) and t.arg is NUM and t.latent is None
        t = t.res
    assert t is NUM


def test_deep_lambda_tower_passed_to_top():
    # The operand's arrow type, nested as deep as the tower, is below Top at
    # once, and only the annotation Top is checked against Δ.
    e = parse_expr(f"((lambda (f : Top) 0) {lambda_tower(1000, 'x0')})")
    j = typecheck(EMPTY, {}, e)
    assert (print_type(j.type), print_pred(j.pred)) == ("Number", "none")


def test_deep_lambda_tower_error_trail():
    depth = 10**4
    with pytest.raises(TypeCheckError) as info:
        typecheck(EMPTY, {}, parse_expr(lambda_tower(depth, "(add1 #t)")))
    err = info.value
    assert print_expr(err.expr) == "(add1 #t)"
    assert err.trail == ["T-App"] + ["T-Abs"] * depth
