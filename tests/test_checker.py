"""Checker tests: metafunction vectors, golden judgments, error reporting,
and cross-mode properties."""

import pytest

from otlc.checker import (
    Judgment,
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
    App,
    Const,
    Constant,
    FF,
    NONE_PRED,
    TT,
    TypeOfPred,
    VarPred,
    is_value,
    parse_expr,
    parse_type,
    print_pred,
    print_type,
)

EMPTY = frozenset()
EVEN = frozenset({Constant.EVEN_P})
PARITY = frozenset({Constant.EVEN_P, Constant.ODD_P})


def T(s):
    return parse_type(s)


def P(t, x):
    """The predicate that variable `x` is of type `t`."""
    return TypeOfPred(parse_type(t), x)


def check(src, mode=Mode.PRIMARY, env=None, delta=EMPTY):
    return typecheck(delta, env or {}, parse_expr(src), mode)


def show(j):
    return f"{print_type(j.type)} ; {print_pred(j.pred)}"


# ---------------------------------------------------------------------------
# restrict / remove


@pytest.mark.parametrize("s,t,expected", [
    ("(U Number Boolean)", "Number", "Number"),
    ("Number", "Number", "Number"),
    ("Top", "Number", "Number"),
    ("(U Number Boolean)", "Boolean", "Boolean"),
    ("Boolean", "True", "True"),
    # a part that cannot overlap the target narrows to Bot, not to the target
    ("Number", "(-> Bot Top)", "Bot"),
    ("(U Number True)", "Boolean", "True"),
])
def test_restrict(s, t, expected):
    assert restrict(T(s), T(t)) == T(expected)


def test_restrict_refinement():
    assert restrict(T("Number"), T("(Refinement even?)")) == \
        T("(Refinement even?)")


@pytest.mark.parametrize("s,t,expected", [
    ("(U Number Boolean)", "Number", "Boolean"),
    ("Number", "Number", "Bot"),
    ("Boolean", "False", "True"),
    ("Top", "Number", "Top"),
])
def test_remove(s, t, expected):
    assert remove(T(s), T(t)) == T(expected)


def test_remove_refinement_does_not_narrow():
    # A refinement test must leave the else branch at the base type: a
    # Number that fails the even? test is still a Number.
    assert remove(T("Number"), T("(Refinement even?)")) == T("Number")


def test_restrict_remove_partition_unions():
    u = T("(U Number True False (-> Number Number))")
    assert restrict(u, T("Boolean")) == T("Boolean")
    assert remove(u, T("Boolean")) == \
        T("(U Number (-> Number Number))")


# ---------------------------------------------------------------------------
# env_plus / env_minus


def test_env_plus_typeof():
    g = {"x": T("(U Number Boolean)")}
    assert env_plus(g, P("Number", "x")) == {"x": T("Number")}


def test_env_minus_typeof():
    g = {"x": T("(U Number Boolean)")}
    assert env_minus(g, P("Number", "x")) == {"x": T("Boolean")}


def test_env_plus_varp_removes_false():
    g = {"x": T("Top")}
    assert env_plus(g, VarPred("x")) == {"x": T("Top")}
    g2 = {"x": T("Boolean")}
    assert env_plus(g2, VarPred("x")) == {"x": T("True")}


def test_env_minus_varp_sets_false():
    assert env_minus({"x": T("Top")}, VarPred("x")) == {"x": T("False")}


@pytest.mark.parametrize("p", [TT, FF, NONE_PRED])
def test_env_ops_identity_on_tt_ff_none(p):
    g = {"x": T("Top"), "y": T("Number")}
    assert env_plus(g, p) == g
    assert env_minus(g, p) == g


def test_env_ops_do_not_mutate():
    g = {"x": T("(U Number Boolean)")}
    env_plus(g, P("Number", "x"))
    env_minus(g, P("Number", "x"))
    assert g == {"x": T("(U Number Boolean)")}


# ---------------------------------------------------------------------------
# combfilter — one vector per clause, first match wins


def test_combfilter_clause1_equal_branches():
    assert combfilter(P("Number", "x"), VarPred("z"), VarPred("z")) == VarPred("z")


def test_combfilter_clause1_up_to_normalize():
    assert combfilter(TT, P("(U True False)", "x"), P("Boolean", "x")) == \
        TypeOfPred(T("Boolean"), "x")


def test_combfilter_clause2_union_of_facts():
    got = combfilter(P("Number", "x"), TT, P("Boolean", "x"))
    assert got == TypeOfPred(T("(U Number Boolean)"), "x")


def test_combfilter_clause2_requires_same_variable():
    assert combfilter(P("Number", "x"), TT, P("Boolean", "y")) == NONE_PRED


def test_combfilter_clause3_true_test():
    assert combfilter(TT, P("Number", "y"), FF) == P("Number", "y")


def test_combfilter_clause4_false_test():
    assert combfilter(FF, P("Number", "y"), P("Boolean", "z")) == P("Boolean", "z")


def test_combfilter_clause5_boolean_reflection():
    assert combfilter(P("Number", "x"), TT, FF) == P("Number", "x")
    assert combfilter(VarPred("x"), TT, FF) == VarPred("x")


def test_combfilter_clause6_fallthrough():
    assert combfilter(P("Number", "x"), P("Boolean", "x"), VarPred("y")) == NONE_PRED


# ---------------------------------------------------------------------------
# subpred


@pytest.mark.parametrize("p,q,expected", [
    (TT, P("Number", "x"), True),
    (FF, TT, False),
    (P("Number", "x"), NONE_PRED, True),
    (TT, TT, True),
    (FF, FF, True),
    (TT, FF, False),
    (FF, P("Number", "x"), True),
    (VarPred("x"), VarPred("x"), True),
    (VarPred("x"), VarPred("y"), False),
    (NONE_PRED, TT, False),
    (P("Number", "x"), P("Number", "x"), True),
    (P("Number", "x"), P("Boolean", "x"), False),
])
def test_subpred(p, q, expected):
    assert is_subpred(p, q) is expected


def test_subpred_typeof_up_to_normalize():
    assert is_subpred(P("(U True False)", "x"), P("Boolean", "x"))


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


def test_impossible_type_test_narrows_to_bot():
    # (procedure? n) cannot hold of a Number, so its then branch is dead.
    j = check("(lambda (n : Number) (if (procedure? n) n 0))")
    assert print_type(j.type) == "(-> Number Number)"


def test_refinement_holds_the_kinds_of_its_base():
    # boolean? refines Top, so x may be #t: the test narrows x to Boolean
    # and both branches are live.
    j = check("(lambda (x : (Refinement boolean?)) (if (boolean? x) x 0))",
              delta=frozenset({Constant.BOOLEAN_P}))
    assert show(j) == "(-> (Refinement boolean?) (U Boolean Number)) ; tt"


# ---------------------------------------------------------------------------
# Δ: an annotation names only declared refinements, and a refining constant
# outside Δ is a plain predicate


ODD = frozenset({Constant.ODD_P})


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("delta", [EMPTY, ODD], ids=["empty", "odd"])
@pytest.mark.parametrize("annot", ["(Refinement even?)", "(U Top (Refinement even?))",
                                   "(-> (Refinement even?) Number)"])
def test_annotation_outside_delta_is_rejected_at_t_abs(annot, delta, mode):
    # The parameter is never used: the annotation is checked where it is written.
    src = f"(lambda (x : {annot}) 1)"
    with pytest.raises(TypeCheckError) as exc:
        check(src, mode, delta=delta)
    assert str(exc.value) == \
        f"T-Abs: refinement predicate even? is not declared at {src} [via T-Abs]"


@pytest.mark.parametrize("delta,expected", [
    (ODD, "(-> Number Boolean) ; tt"),
    (EVEN, "(-> Number Boolean : (Refinement even?)) ; tt"),
], ids=["odd", "even"])
def test_parity_test_has_its_latent_only_in_delta(delta, expected):
    assert show(check("(lambda (n : Number) (even? n))", delta=delta)) == expected


def test_parity_test_outside_delta_does_not_narrow():
    j = check("(lambda (n : Number) (if (even? n) 1 0))", delta=ODD)
    assert show(j) == "(-> Number Number) ; tt"


@pytest.mark.parametrize("mode", list(Mode))
def test_parity_test_outside_delta_on_a_literal(mode):
    assert show(check("(even? 4)", mode, delta=ODD)) == "Boolean ; none"


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
    assert j.pred == P("Number", "x")


def test_app_without_latent_has_no_fact():
    j = check("(add1 x)", env={"x": T("Number")})
    assert j.pred == NONE_PRED


def test_extended_app_pred_true_false_on_values():
    assert check("(number? 5)", Mode.EXTENDED).pred == TT
    assert check("(number? #t)", Mode.EXTENDED).pred == FF
    # Primary mode never decides the test statically.
    assert check("(number? 5)", Mode.PRIMARY).pred == NONE_PRED
    assert check("(number? #t)", Mode.PRIMARY).pred == NONE_PRED


def test_extended_literals_are_singletons():
    # The primary rules type both at Boolean (test_literal_judgments).
    assert check("#t", Mode.EXTENDED) == Judgment(T("True"), TT)
    assert check("#f", Mode.EXTENDED) == Judgment(T("False"), FF)


def test_extended_app_pred_false_on_compound_operands():
    # An operand whose type cannot overlap the latent decides the test false,
    # value or not.
    assert check("(number? (if #t #f #t))", Mode.EXTENDED).pred == FF
    assert check("(procedure? (add1 1))", Mode.EXTENDED).pred == FF
    assert check("(number? (not 1))", Mode.EXTENDED).pred == FF
    assert check("(number? (if #t #f #t))").pred == NONE_PRED


def test_extended_numeric_literals_take_a_refinement_of_delta():
    # The refinement whose δ holds on the literal, if Δ declares it; the
    # primary rules type every numeric literal at Number.
    assert show(check("98", Mode.EXTENDED, delta=PARITY)) == "(Refinement even?) ; tt"
    assert show(check("-9", Mode.EXTENDED, delta=PARITY)) == "(Refinement odd?) ; tt"
    assert show(check("99", Mode.EXTENDED, delta=EVEN)) == "Number ; tt"
    assert show(check("98", Mode.EXTENDED, delta=EMPTY)) == "Number ; tt"
    assert show(check("98", delta=PARITY)) == "Number ; tt"


@pytest.mark.parametrize("src,pred", [("(even? 98)", TT), ("(even? 99)", FF)],
                         ids=["(even? 98)", "(even? 99)"])
def test_extended_parity_tests_are_decided_by_delta(src, pred):
    # Under Δ = {even?, odd?} the literal's type is the refinement its δ
    # holds on, so the extended rules decide the test as δ does: true when
    # it is below the latent, false for a value that is not.  Under
    # Δ = {odd?}, even? has no latent, and the primary rules decide nothing.
    assert check(src, Mode.EXTENDED, delta=PARITY).pred == pred
    assert check(src, Mode.EXTENDED, delta=EVEN).pred == pred
    assert check(src, Mode.EXTENDED, delta=frozenset({Constant.ODD_P})).pred == NONE_PRED
    assert check(src, delta=PARITY).pred == NONE_PRED


def test_extended_applies_an_operator_of_type_bot():
    # Subsumption gives Bot the type (-> Top Bot); the primary rules reject it.
    env = {"f": T("Bot")}
    assert check("(f #t)", Mode.EXTENDED, env=env) == Judgment(T("Bot"), NONE_PRED)
    with pytest.raises(TypeCheckError, match="non-function type"):
        check("(f #t)", env=env)


def test_extended_app_keeps_variable_fact():
    # A latent applied to a variable yields the per-variable fact in both
    # modes, even when the variable's type already decides the test.
    j = check("(number? x)", Mode.EXTENDED, env={"x": T("Number")})
    assert j.pred == P("Number", "x")


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


@pytest.mark.parametrize("src,mode,trail,literal", [
    ("(lambda (x : Top) (if (number? x) (add1 #t) 0))", Mode.PRIMARY,
     "[via T-Abs > T-If > T-App]", "Boolean"),
    ("(if #t (add1 #t) 0)", Mode.EXTENDED, "[via T-IfTrue > T-App]", "True"),
    ("(if #f 0 (add1 #t))", Mode.EXTENDED, "[via T-IfFalse > T-App]", "True"),
    ("((lambda (y : Number) y) (if (add1 #t) 1 2))", Mode.PRIMARY,
     "[via T-App > T-If > T-App]", "Boolean"),
])
def test_error_trail_names_each_enclosing_rule(src, mode, trail, literal):
    # `literal` is the type the rule set gives #t.
    with pytest.raises(TypeCheckError) as exc:
        check(src, mode)
    assert str(exc.value).endswith(
        f"argument type {literal} is not a subtype of Number at (add1 #t) {trail}")


@pytest.mark.parametrize("src,mode,delta,message", [
    # each raising rule under each kind of pending rule
    ("(lambda (x : Top) (if (number? x) 1 (y x)))", Mode.PRIMARY, EMPTY,
     "T-Var: unbound variable y at y [via T-Abs > T-If > T-App > T-Var]"),
    ("((lambda (f : Top) (f 1)) 2)", Mode.PRIMARY, EMPTY,
     "T-App: operator has non-function type Top at (f 1) [via T-App > T-Abs > T-App]"),
    ("(if #t ((lambda (n : (Refinement even?)) n) 2) 0)", Mode.EXTENDED, EMPTY,
     "T-Abs: refinement predicate even? is not declared at "
     "(lambda (n : (Refinement even?)) n) [via T-IfTrue > T-App > T-Abs]"),
    ("(if #f 0 (z 1))", Mode.EXTENDED, EMPTY,
     "T-Var: unbound variable z at z [via T-IfFalse > T-App > T-Var]"),
    ("(if (lambda (n : (Refinement odd?)) n) 1 2)", Mode.PRIMARY, EVEN,
     "T-Abs: refinement predicate odd? is not declared at "
     "(lambda (n : (Refinement odd?)) n) [via T-If > T-Abs]"),
    ("((add1 #t) 1)", Mode.PRIMARY, EMPTY,
     "T-App: argument type Boolean is not a subtype of Number at (add1 #t) [via T-App > T-App]"),
    ("(if #t 1 q)", Mode.PRIMARY, EMPTY, "T-Var: unbound variable q at q [via T-If > T-Var]"),
    ("(lambda (x : Number) (x 1))", Mode.EXTENDED, EMPTY,
     "T-App: operator has non-function type Number at (x 1) [via T-Abs > T-App]"),
    ("(not (lambda (x : (U Number (Refinement even?))) x))", Mode.PRIMARY, EMPTY,
     "T-Abs: refinement predicate even? is not declared at "
     "(lambda (x : (U Number (Refinement even?))) x) [via T-App > T-Abs]"),
    ("((lambda (b : Boolean) b) (if #t 1 2))", Mode.EXTENDED, EMPTY,
     "T-App: argument type Number is not a subtype of Boolean at "
     "((lambda (b : Boolean) b) (if #t 1 2)) [via T-App]"),
    ("w", Mode.PRIMARY, EMPTY, "T-Var: unbound variable w at w [via T-Var]"),
])
def test_error_trail_under_each_pending_rule(src, mode, delta, message):
    with pytest.raises(TypeCheckError) as exc:
        check(src, mode, delta=delta)
    assert str(exc.value) == message
    assert exc.value.trail[0] == exc.value.rule


def test_error_trail_of_a_non_expression():
    with pytest.raises(TypeCheckError) as exc:
        typecheck(EMPTY, {}, App(Const(Constant.ADD1), "junk"))
    assert exc.value.trail == ["T-?", "T-App"]
    assert exc.value.detail == "not an expression: 'junk'"


def test_memo_stores_no_error():
    # The operator concludes under the empty environment and is stored; the
    # operand fails, and fails the same way through the memo's hit.
    e = parse_expr("((lambda (x : Number) x) (add1 #t))")
    memo = {}
    shown = []
    for _ in range(2):
        with pytest.raises(TypeCheckError) as exc:
            typecheck(EMPTY, {}, e, Mode.EXTENDED, memo=memo)
        shown.append((str(exc.value), exc.value.trail))
        assert list(memo) == [id(e.rator)]
    assert shown[0] == shown[1] == (
        "T-App: argument type True is not a subtype of Number at (add1 #t) [via T-App > T-App]",
        ["T-App", "T-App"])


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
    assert subtype(je.type, jp.type)
    assert is_subpred(je.pred, jp.pred)


def test_result_pred_mentions_only_free_vars():
    j = check("(lambda (x : Top) (number? x))")
    assert j.pred == TT  # x is bound; no fact about it may escape
    j2 = check("(if (number? x) #t #f)", env={"x": T("Top")})
    assert j2.pred == P("Number", "x")


def test_typecheck_deterministic():
    src = "(lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0))"
    js = [check(src) for _ in range(3)]
    assert js[0] == js[1] == js[2]


def test_memo_is_refused_with_coverage():
    # A memo hit counts no rules, so the two cannot be combined.
    with pytest.raises(ValueError):
        typecheck(EMPTY, {}, parse_expr("(add1 1)"), memo={}, coverage={})


def test_judgment_is_immutable_and_compares_by_its_fields():
    j = check("(lambda (x : Top) (number? x))")
    with pytest.raises(AttributeError):
        j.type = T("Number")
    with pytest.raises(AttributeError):
        j.pred = TT
    same = Judgment(T("(-> Top Boolean : Number)"), TT)
    assert j == same and hash(j) == hash(same)
    assert j != Judgment(j.type, FF) and j != Judgment(T("Top"), j.pred)
    assert len({j, same, Judgment(j.type, FF)}) == 2
