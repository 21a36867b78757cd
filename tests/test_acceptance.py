"""The eight acceptance criteria, one test (or test group) each.

Criteria 4 and 5 run 10,000 fuzzed terms apiece and dominate the suite's
wall-clock time; everything else is fast.
"""

import random
import time

import pytest

from otlc.checker import (
    Mode,
    TypeCheckError,
    combfilter,
    env_minus,
    env_plus,
    typecheck,
)
from otlc.harness import FuzzConfig, run_fuzz
from otlc.semantics import Value, evaluate, trace
from otlc.subtyping import CONSTANT_TYPES, subtype
from otlc.syntax import (
    Constant,
    FF,
    TT,
    TypeOfPred,
    VarPred,
    parse_expr,
    parse_pred,
    parse_type,
    print_expr,
    print_pred,
    print_type,
)

EMPTY = frozenset()
EVEN = frozenset({Constant.EVEN_P})


def check(src, mode=Mode.PRIMARY, delta=EMPTY, env=None):
    return typecheck(delta, env or {}, parse_expr(src), mode)


# ---------------------------------------------------------------------------
# 1. Golden judgments


def test_criterion_1_golden_judgments():
    j = check("(lambda (x : Top) (if (number? x) #t (boolean? x)))")
    assert f"{print_type(j.type)} ; {print_pred(j.pred)}" == \
        "(-> Top Boolean : (U Number Boolean)) ; tt"

    j2 = check("(lambda (x : (U Number Boolean)) "
               "(if (number? x) (add1 x) (not x)))")
    assert print_type(j2.type) == "(-> (U Number Boolean) (U Number Boolean))"
    # the branch environments behind that judgment
    g = {"x": parse_type("(U Number Boolean)")}
    p = parse_pred("Number @ x")
    assert env_plus(EMPTY, g, p) == {"x": parse_type("Number")}
    assert env_minus(EMPTY, g, p) == {"x": parse_type("Boolean")}

    with pytest.raises(TypeCheckError):
        check("(lambda (x : (U Number Boolean)) (add1 x))")


# ---------------------------------------------------------------------------
# 2. Dead-branch counterexample


def test_criterion_2_counterexample():
    src = "(if (number? #f) (add1 #f) (not #f))"
    with pytest.raises(TypeCheckError):
        check(src, Mode.PRIMARY)
    je = check(src, Mode.EXTENDED)
    assert print_type(je.type) == "Boolean"
    steps = trace(parse_expr(src), 5)
    assert print_expr(steps[-1]) == "#t"
    assert len(steps) - 1 <= 5
    assert evaluate(parse_expr(src), 5) == Value(parse_expr("#t"))


# ---------------------------------------------------------------------------
# 3. Refinement example and subtype facts


def test_criterion_3_refinements():
    good = ("(lambda (f : (-> (Refinement even?) Number)) "
            "(lambda (n : Number) (if (even? n) (f n) n)))")
    check(good, delta=EVEN)

    unguarded = ("(lambda (f : (-> (Refinement even?) Number)) "
                 "(lambda (n : Number) (f n)))")
    with pytest.raises(TypeCheckError):
        check(unguarded, delta=EVEN)

    r_even = parse_type("(Refinement even?)")
    r_odd = parse_type("(Refinement odd?)")
    num = parse_type("Number")
    both = frozenset({Constant.EVEN_P, Constant.ODD_P})
    assert subtype(both, r_even, num)
    assert not subtype(both, num, r_even)
    assert not subtype(both, r_even, r_odd)
    assert not subtype(both, r_odd, r_even)


# ---------------------------------------------------------------------------
# 4. Fuzz soundness at scale


FIG2_RULES = ("T-Var", "T-Num", "T-Const", "T-True", "T-False",
              "T-Abs", "T-AbsPred", "T-App", "T-AppPred", "T-If")


def test_criterion_4_fuzz_soundness():
    start = time.monotonic()
    rep = run_fuzz(FuzzConfig(count=10_000, seed=1, max_depth=6, fuel=1000))
    elapsed = time.monotonic() - start
    assert rep.generated == 10_000
    assert rep.preservation_failures == []
    assert rep.progress_failures == []
    assert rep.erasure_failures == []
    assert rep.roundtrip_failures == []
    for rule in FIG2_RULES:
        assert rep.coverage.get(rule, 0) > 0, f"rule {rule} never exercised"
    assert elapsed < 300, f"fuzz run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. Erasure lemmas at scale


def test_criterion_5_erasure_lemmas():
    rep = run_fuzz(FuzzConfig(count=10_000, seed=1, max_depth=6, fuel=1000,
                              with_refinements=True))
    assert rep.generated == 10_000
    assert rep.erasure_failures == []
    assert rep.preservation_failures == []
    assert rep.progress_failures == []


# ---------------------------------------------------------------------------
# 6. Oracle equivalence (depth <= 4, two-variable environment)


def test_criterion_6_oracle_equivalence():
    from oracle import derive
    from test_checker_oracle import GAMMA, agree, depth2_terms, random_terms

    for mode in (Mode.PRIMARY, Mode.EXTENDED):
        for e in depth2_terms():
            agree(e, mode)
        for e in random_terms(count=800, seed=41):
            agree(e, mode)


# ---------------------------------------------------------------------------
# 7. Metafunction unit vectors


def test_criterion_7_combfilter_clauses():
    P = parse_pred
    # clause 1: equal branch predicates
    assert combfilter(P("Number @ x"), VarPred("z"), VarPred("z")) == \
        VarPred("z")
    # clause 2: union of facts about one variable
    assert combfilter(P("Number @ x"), TT, P("Boolean @ x")) == \
        TypeOfPred(parse_type("(U Number Boolean)"), "x")
    # clause 3: true test
    assert combfilter(TT, P("Number @ y"), FF) == P("Number @ y")
    # clause 4: false test
    assert combfilter(FF, P("Number @ y"), P("Boolean @ z")) == \
        P("Boolean @ z")
    # clause 5: branches reflect the test
    assert combfilter(P("Number @ x"), TT, FF) == P("Number @ x")
    # clause 6: fallthrough
    assert combfilter(P("Number @ x"), P("Boolean @ x"), VarPred("y")) == \
        parse_pred("none")


def test_criterion_7_env_ops_worked_example():
    g = {"x": parse_type("(U Number Boolean)")}
    p = parse_pred("Number @ x")
    assert env_plus(EMPTY, g, p) == {"x": parse_type("Number")}
    assert env_minus(EMPTY, g, p) == {"x": parse_type("Boolean")}
    assert env_minus(EMPTY, {"x": parse_type("Top")}, VarPred("x")) == \
        {"x": parse_type("False")}


def test_criterion_7_constant_type_table():
    expected = {
        Constant.ADD1: "(-> Number Number)",
        Constant.NOT: "(-> Top Boolean)",
        Constant.NUMBER_P: "(-> Top Boolean : Number)",
        Constant.BOOLEAN_P: "(-> Top Boolean : Boolean)",
        Constant.PROCEDURE_P: "(-> Top Boolean : (-> Bot Top))",
        Constant.EVEN_P: "(-> Number Boolean : (Refinement even?))",
        Constant.ODD_P: "(-> Number Boolean : (Refinement odd?))",
    }
    for c, s in expected.items():
        assert print_type(CONSTANT_TYPES[c]) == s


# ---------------------------------------------------------------------------
# 8. Round-trip


def test_criterion_8_roundtrip_corpus_and_fuzz():
    from pathlib import Path

    from otlc.harness import gen_typed_term
    from otlc.syntax import parse_program

    corpus = sorted((Path(__file__).parent / "corpus").glob("*.lts"))
    assert len(corpus) == 50
    for path in corpus:
        _, expr = parse_program(path.read_text(encoding="utf-8"))
        assert parse_expr(print_expr(expr)) == expr, path.name

    for i in range(500):
        rng = random.Random(f"rt:{i}")
        e = gen_typed_term(rng, 6, EMPTY)
        assert parse_expr(print_expr(e)) == e
