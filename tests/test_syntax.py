"""Parser, printer, and term-manipulation tests for otlc.syntax."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from otlc.syntax import (
    BOOLEAN,
    FALSE_T,
    FF,
    NONE_PRED,
    NUM,
    TOP,
    TRUE_T,
    TT,
    Abs,
    App,
    Arrow,
    Bool,
    Const,
    Constant,
    If,
    Num,
    ParseError,
    Refine,
    UnionT,
    Var,
    free_vars,
    is_value,
    parse_expr,
    parse_program,
    parse_type,
    print_expr,
    print_pred,
    print_type,
    substitute,
)

from test_subtyping import types

# ---------------------------------------------------------------------------
# Parsing


def test_parse_literals():
    assert parse_expr("42") == Num(42)
    assert parse_expr("-7") == Num(-7)
    assert parse_expr("#t") == Bool(True)
    assert parse_expr("#f") == Bool(False)
    assert parse_expr("add1") == Const(Constant.ADD1)
    assert parse_expr("x") == Var("x")


def test_parse_compound():
    e = parse_expr("(lambda (x : Top) (if (number? x) #t (boolean? x)))")
    assert e == Abs("x", TOP,
                    If(App(Const(Constant.NUMBER_P), Var("x")),
                       Bool(True),
                       App(Const(Constant.BOOLEAN_P), Var("x"))))


def test_parse_types():
    assert parse_type("Number") == NUM
    assert parse_type("(U Number Boolean)") == UnionT((NUM, TRUE_T, FALSE_T))
    assert parse_type("(-> Number Number)") == Arrow(NUM, NUM, None)
    assert parse_type("(-> Top Boolean : Number)") == Arrow(TOP, BOOLEAN, NUM)
    assert parse_type("(Refinement even?)") == Refine(Constant.EVEN_P)
    assert parse_type("(U)") == UnionT(())


def test_parse_program_directives():
    declared, e = parse_program(
        "(declare-refinement even?)\n(declare-refinement odd?)\n(even? 2)")
    assert frozenset(declared) == frozenset({Constant.EVEN_P, Constant.ODD_P})
    assert e == App(Const(Constant.EVEN_P), Num(2))


def test_comments_and_whitespace():
    assert parse_expr("; a comment\n  42 ; trailing") == Num(42)


@pytest.mark.parametrize("text,loc", [
    ("(if", "1:4"),
    ("(lambda (x) x)", "1:11"),
    (")", "1:1"),
    ("(add1 1))", "1:9"),
    ("", "1:1"),
    ("(if 1 2)", "1:8"),
    # end of input after a trailing comment is reported at the comment
    ("(add1 1 ; trailing comment", "1:9"),
    ("(add1\t#q)", "1:7"),
    ("(add1 1)\r\n)", "2:1"),
    ("; c1\n; c2\n  (if #t 1)", "3:11"),
    ("(lambda (x : Number)\n\t  x", "2:5"),
    ("((add1 1) ;c\n  2) 3", "2:6"),
])
def test_parse_errors_carry_positions(text, loc):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert str(exc.value).startswith(loc)


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_too_long_integer_literal_is_a_parse_error_at_it(sign):
    # The limit is on digits: a sign does not count.
    limit = sys.get_int_max_str_digits()
    longest = sign + "7" * (limit - 1)
    assert parse_expr(f"(add1 {longest})").rand == Num(int(longest))
    with pytest.raises(ParseError) as exc:
        parse_expr(f"(add1\n  {sign}{'7' * limit})")
    assert str(exc.value) == f"2:3: integer literal too long (at most {limit - 1} digits)"
    assert (exc.value.line, exc.value.col) == (2, 3)


def test_unknown_identifier_is_a_variable_not_a_constant():
    assert parse_expr("frobnicate") == Var("frobnicate")


# ---------------------------------------------------------------------------
# Printing and the Boolean union convention


def test_print_boolean_folding():
    # True and False adjacent in a union print as Boolean ...
    assert print_type(UnionT((NUM, TRUE_T, FALSE_T))) == "(U Number Boolean)"
    # ... and Boolean inside a union parses back to its two members.
    assert parse_type("(U Number Boolean)") == UnionT((NUM, TRUE_T, FALSE_T))
    # A literal nested Boolean member stays structurally distinct.
    nested = UnionT((NUM, BOOLEAN))
    assert parse_type(print_type(nested)) == nested


@pytest.mark.parametrize("t", (TOP, NUM, TRUE_T, FALSE_T), ids=lambda t: t.name)
def test_type_atom_reads_and_prints_by_its_name(t):
    assert parse_type(t.name) is t
    assert print_type(t) == t.name


@pytest.mark.parametrize("p", (TT, FF, NONE_PRED), ids=lambda p: p.name)
def test_pred_atom_prints_by_its_name(p):
    assert print_pred(p) == p.name


def test_print_expr_examples():
    text = "(lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0))"
    assert print_expr(parse_expr(text)) == text


# ---------------------------------------------------------------------------
# Round-trip properties

_expr_strategy = st.deferred(lambda: st.one_of(
    st.builds(Num, st.integers(-1000, 1000)),
    st.builds(Bool, st.booleans()),
    st.builds(Const, st.sampled_from(list(Constant))),
    st.builds(Var, st.sampled_from(["x", "y", "weird-name", "v1"])),
    st.builds(Abs, st.sampled_from(["x", "y"]), types, _expr_strategy),
    st.builds(App, _expr_strategy, _expr_strategy),
    st.builds(If, _expr_strategy, _expr_strategy, _expr_strategy),
))


@settings(max_examples=150, deadline=None)
@given(types)
def test_type_roundtrip(t):
    assert parse_type(print_type(t)) == t


@settings(max_examples=150, deadline=None)
@given(_expr_strategy)
def test_expr_roundtrip(e):
    assert parse_expr(print_expr(e)) == e


# ---------------------------------------------------------------------------
# Values, free variables, substitution


def test_is_value():
    assert is_value(Num(1))
    assert is_value(Bool(False))
    assert is_value(Const(Constant.NOT))
    assert is_value(Abs("x", TOP, Var("x")))
    assert not is_value(Var("x"))
    assert not is_value(App(Const(Constant.ADD1), Num(1)))
    assert not is_value(If(Bool(True), Num(1), Num(2)))


def test_free_vars():
    e = parse_expr("(lambda (x : Top) (f (if x y x)))")
    assert free_vars(e) == {"f", "y"}
    assert free_vars(parse_expr("42")) == frozenset()
    # A binder hides its name only inside its own body.
    assert free_vars(parse_expr("((lambda (x : Top) x) x)")) == {"x"}
    assert free_vars(parse_expr("(lambda (x : Top) ((lambda (x : Top) x) x))")) == frozenset()


def test_substitute_respects_binding():
    e = parse_expr("(lambda (x : Top) (f x))")
    got = substitute(e, {"f": Const(Constant.ADD1)})
    assert got == parse_expr("(lambda (x : Top) (add1 x))")
    # The bound occurrence is untouched.
    assert substitute(e, {"x": Num(1)}) == e
    # With several bindings, a binder hides only its own name.
    e = parse_expr("(x (lambda (x : Top) (x y)))")
    assert substitute(e, {"x": Num(1), "y": Num(2)}) == parse_expr("(1 (lambda (x : Top) (x 2)))")


def test_substitute_in_if_and_app():
    e = parse_expr("(if x (x 1) x)")
    v = Const(Constant.NOT)
    assert substitute(e, {"x": v}) == parse_expr("(if not (not 1) not)")
