"""Checker tests: metafunction vectors, golden judgments, error reporting,
and cross-mode properties."""

import pytest

from otlc.checker import (
    Mode,
    TypeCheckError,
    combfilter,
    env_minus,
    env_plus,
    is_subpred,
    remove,
    restrict,
    typecheck,
)
from otlc.subtyping import subtype
from otlc.syntax import (
    BOT,
    Constant,
    FF,
    NONE_PRED,
    TT,
    TypeOfPred,
    VarPred,
    is_value,
    parse_expr,
    parse_pred,
    parse_type,
    print_pred,
    print_type,
)

EMPTY = frozenset()
EVEN = frozenset({Constant.EVEN_P})


def T(s):
    return parse_type(s)


def P(s):
    return parse_pred(s)


def check(src, mode=Mode.PRIMARY, env=None, delta=EMPTY):
    return typecheck(delta, env or {}, parse_expr(src), mode)


# ---------------------------------------------------------------------------
# restrict / remove


@pytest.mark.parametrize("s,t,expected", [
    ("(U Number Boolean)", "Number", "Number"),
    ("Number", "Number", "Number"),
    ("Top", "Number", "Number"),
    ("(U Number Boolean)", "Boolean", "Boolean"),
    ("Boolean", "True", "True"),
])
def test_restrict(s, t, expected):
    assert restrict(EMPTY, T(s), T(t)) == T(expected)


def test_restrict_refinement():
    assert restrict(EVEN, T("Number"), T("(Refinement even?)")) == \
        T("(Refinement even?)")


@pytest.mark.parametrize("s,t,expected", [
    ("(U Number Boolean)", "Number", "Boolean"),
    ("Number", "Number", "Bot"),
    ("Boolean", "False", "True"),
    ("Top", "Number", "Top"),
])
def test_remove(s, t, expected):
    assert remove(EMPTY, T(s), T(t)) == T(expected)


def test_remove_refinement_does_not_narrow():
    # A refinement test must leave the else branch at the base type: a
    # Number that fails the even? test is still a Number.
    assert remove(EVEN, T("Number"), T("(Refinement even?)")) == T("Number")


def test_restrict_remove_partition_unions():
    u = T("(U Number True False (-> Number Number))")
    assert restrict(EMPTY, u, T("Boolean")) == T("Boolean")
    assert remove(EMPTY, u, T("Boolean")) == \
        T("(U Number (-> Number Number))")


# ---------------------------------------------------------------------------
# env_plus / env_minus


def test_env_plus_typeof():
    g = {"x": T("(U Number Boolean)")}
    assert env_plus(EMPTY, g, P("Number @ x")) == {"x": T("Number")}


def test_env_minus_typeof():
    g = {"x": T("(U Number Boolean)")}
    assert env_minus(EMPTY, g, P("Number @ x")) == {"x": T("Boolean")}


def test_env_plus_varp_removes_false():
    g = {"x": T("Top")}
    assert env_plus(EMPTY, g, VarPred("x")) == {"x": T("Top")}
    g2 = {"x": T("Boolean")}
    assert env_plus(EMPTY, g2, VarPred("x")) == {"x": T("True")}


def test_env_minus_varp_sets_false():
    assert env_minus(EMPTY, {"x": T("Top")}, VarPred("x")) == {"x": T("False")}


@pytest.mark.parametrize("p", [TT, FF, NONE_PRED])
def test_env_ops_identity_on_tt_ff_none(p):
    g = {"x": T("Top"), "y": T("Number")}
    assert env_plus(EMPTY, g, p) == g
    assert env_minus(EMPTY, g, p) == g


def test_env_ops_do_not_mutate():
    g = {"x": T("(U Number Boolean)")}
    env_plus(EMPTY, g, P("Number @ x"))
    env_minus(EMPTY, g, P("Number @ x"))
    assert g == {"x": T("(U Number Boolean)")}


# ---------------------------------------------------------------------------
# combfilter — one vector per clause, first match wins


def test_combfilter_clause1_equal_branches():
    assert combfilter(P("Number @ x"), VarPred("z"), VarPred("z")) == VarPred("z")


def test_combfilter_clause1_up_to_normalize():
    assert combfilter(TT, P("(U True False) @ x"), P("Boolean @ x")) == \
        TypeOfPred(T("Boolean"), "x")


def test_combfilter_clause2_union_of_facts():
    got = combfilter(P("Number @ x"), TT, P("Boolean @ x"))
    assert got == TypeOfPred(T("(U Number Boolean)"), "x")


def test_combfilter_clause2_requires_same_variable():
    assert combfilter(P("Number @ x"), TT, P("Boolean @ y")) == NONE_PRED


def test_combfilter_clause3_true_test():
    assert combfilter(TT, P("Number @ y"), FF) == P("Number @ y")


def test_combfilter_clause4_false_test():
    assert combfilter(FF, P("Number @ y"), P("Boolean @ z")) == P("Boolean @ z")


def test_combfilter_clause5_boolean_reflection():
    assert combfilter(P("Number @ x"), TT, FF) == P("Number @ x")
    assert combfilter(VarPred("x"), TT, FF) == VarPred("x")


def test_combfilter_clause6_fallthrough():
    assert combfilter(P("Number @ x"), P("Boolean @ x"), VarPred("y")) == NONE_PRED


# ---------------------------------------------------------------------------
# subpred


@pytest.mark.parametrize("p,q,expected", [
    (TT, P("Number @ x"), True),
    (FF, TT, False),
    (P("Number @ x"), NONE_PRED, True),
    (TT, TT, True),
    (FF, FF, True),
    (TT, FF, False),
    (FF, P("Number @ x"), True),
    (VarPred("x"), VarPred("x"), True),
    (VarPred("x"), VarPred("y"), False),
    (NONE_PRED, TT, False),
    (P("Number @ x"), P("Number @ x"), True),
    (P("Number @ x"), P("Boolean @ x"), False),
])
def test_subpred(p, q, expected):
    assert is_subpred(p, q) is expected


def test_subpred_typeof_up_to_normalize():
    assert is_subpred(P("(U True False) @ x"), P("Boolean @ x"))


# ---------------------------------------------------------------------------
# typecheck — golden judgments


def test_bool_or_number_predicate():
    j = check("(lambda (x : Top) (if (number? x) #t (boolean? x)))")
    assert print_type(j.type) == "(-> Top Boolean : (U Number Boolean))"
    assert j.pred == TT


def test_occurrence_narrowing_both_branches():
    j = check("(lambda (x : (U Number Boolean)) "
              "(if (number? x) (add1 x) (not x)))")
    assert print_type(j.type) == "(-> (U Number Boolean) (U Number Boolean))"
    assert j.pred == TT


def test_dead_then_branch_rejected_in_primary():
    with pytest.raises(TypeCheckError) as exc:
        check("(if (number? #f) (add1 #f) (not #f))", Mode.PRIMARY)
    assert exc.value.rule == "T-App"
    assert "(add1 #f)" in str(exc.value)


def test_dead_then_branch_skipped_in_extended():
    j = check("(if (number? #f) (add1 #f) (not #f))", Mode.EXTENDED)
    assert print_type(j.type) == "Boolean"


def test_refinement_guarded_call():
    j = check("(lambda (f : (-> (Refinement even?) Number)) "
              "(lambda (n : Number) (if (even? n) (f n) n)))",
              delta=EVEN)
    assert print_type(j.type) == \
        "(-> (-> (Refinement even?) Number) (-> Number Number))"
    inner = check("(if (even? n) (f n) n)", delta=EVEN,
                  env={"f": T("(-> (Refinement even?) Number)"),
                       "n": T("Number")})
    assert inner.type == T("Number")


def test_var_judgment_names_the_variable():
    j = check("x", env={"x": T("Top")})
    assert j.type == T("Top")
    assert j.pred == VarPred("x")


def test_literal_judgments():
    assert check("5").type == T("Number")
    assert check("5").pred == TT
    assert check("#t") == check("#t")
    assert check("#t").type == T("Boolean")
    assert check("#t").pred == TT
    assert check("#f").type == T("Boolean")
    assert check("#f").pred == FF
    assert check("add1").type == T("(-> Number Number)")
    assert check("add1").pred == TT


def test_abspred_promotes_body_fact_to_latent():
    j = check("(lambda (x : Top) (number? x))")
    assert print_type(j.type) == "(-> Top Boolean : Number)"


def test_abs_without_fact_has_no_latent():
    j = check("(lambda (x : Top) (add1 5))")
    assert print_type(j.type) == "(-> Top Number)"


def test_apppred_turns_latent_into_fact():
    j = check("(number? x)", env={"x": T("Top")})
    assert j.pred == P("Number @ x")


def test_app_without_latent_has_no_fact():
    j = check("(add1 x)", env={"x": T("Number")})
    assert j.pred == NONE_PRED


def test_extended_app_pred_true_false_on_values():
    assert check("(number? 5)", Mode.EXTENDED).pred == TT
    assert check("(number? #t)", Mode.EXTENDED).pred == FF
    # Primary mode never decides the test statically.
    assert check("(number? 5)", Mode.PRIMARY).pred == NONE_PRED
    assert check("(number? #t)", Mode.PRIMARY).pred == NONE_PRED


def test_extended_app_keeps_variable_fact():
    # A latent applied to a variable yields the per-variable fact in both
    # modes, even when the variable's type already decides the test.
    j = check("(number? x)", Mode.EXTENDED, env={"x": T("Number")})
    assert j.pred == P("Number @ x")


def test_if_joins_branch_types():
    j = check("(if x 1 #t)", env={"x": T("Top")})
    assert print_type(j.type) == "(U Number Boolean)"


# ---------------------------------------------------------------------------
# typecheck — errors carry rule names and breadcrumbs


def test_unbound_variable():
    with pytest.raises(TypeCheckError) as exc:
        check("x")
    assert exc.value.rule == "T-Var"
    assert "unbound" in exc.value.detail


def test_non_arrow_operator():
    with pytest.raises(TypeCheckError) as exc:
        check("(5 5)")
    assert exc.value.rule == "T-App"


def test_union_of_arrows_rejected_as_operator():
    with pytest.raises(TypeCheckError):
        check("(f 5)", env={"f": T("(U (-> Number Number) (-> Top Number))")})


def test_argument_subtype_failure_breadcrumb():
    with pytest.raises(TypeCheckError) as exc:
        check("(lambda (x : Boolean) (add1 x))")
    msg = str(exc.value)
    assert "T-App" in msg and "(add1 x)" in msg and "T-Abs" in msg


@pytest.mark.parametrize("src,mode,trail", [
    ("(lambda (x : Top) (if (number? x) (add1 #t) 0))", Mode.PRIMARY,
     "[via T-Abs > T-If > T-App]"),
    ("(if #t (add1 #t) 0)", Mode.EXTENDED, "[via T-IfTrue > T-App]"),
    ("(if #f 0 (add1 #t))", Mode.EXTENDED, "[via T-IfFalse > T-App]"),
    ("((lambda (y : Number) y) (if (add1 #t) 1 2))", Mode.PRIMARY,
     "[via T-App > T-If > T-App]"),
])
def test_error_trail_names_each_enclosing_rule(src, mode, trail):
    with pytest.raises(TypeCheckError) as exc:
        check(src, mode)
    assert str(exc.value).endswith(
        f"argument type Boolean is not a subtype of Number at (add1 #t) {trail}")


# ---------------------------------------------------------------------------
# cross-mode and value properties


CLOSED_VALUES = ["0", "42", "#t", "#f", "add1", "not", "number?",
                 "(lambda (x : Top) x)", "(lambda (x : Number) (add1 x))"]


@pytest.mark.parametrize("src", CLOSED_VALUES)
def test_closed_value_pred_is_tt_unless_false(src):
    e = parse_expr(src)
    assert is_value(e)
    j = typecheck(EMPTY, {}, e, Mode.EXTENDED)
    assert j.pred == (FF if src == "#f" else TT)


MONOTONICITY_SAMPLES = [
    "(lambda (x : Top) (if (number? x) (add1 x) 0))",
    "(if (number? 5) 1 2)",
    "((lambda (x : (U Number Boolean)) (if (number? x) x 0)) 3)",
    "(if x (if (boolean? x) 1 2) 3)",
    "(not (number? 4))",
    "(procedure? (lambda (x : Top) x))",
]


@pytest.mark.parametrize("src", MONOTONICITY_SAMPLES)
def test_mode_monotonicity(src):
    # Whatever the primary rules accept, the extended rules accept at a
    # type and predicate at least as precise.
    env = {"x": T("Top")}
    jp = typecheck(EMPTY, env, parse_expr(src), Mode.PRIMARY)
    je = typecheck(EMPTY, env, parse_expr(src), Mode.EXTENDED)
    assert subtype(EMPTY, je.type, jp.type)
    assert is_subpred(je.pred, jp.pred)


def test_result_pred_mentions_only_free_vars():
    j = check("(lambda (x : Top) (number? x))")
    assert j.pred == TT  # x is bound; no fact about it may escape
    j2 = check("(if (number? x) #t #f)", env={"x": T("Top")})
    assert j2.pred == P("Number @ x")


def test_typecheck_deterministic():
    src = "(lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0))"
    js = [check(src) for _ in range(3)]
    assert js[0] == js[1] == js[2]
