"""Small-step semantics: δ table, single steps, determinism, stuck states,
bounded evaluation, and traces."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import otlc.semantics as semantics
import otlc.syntax as syntax
from otlc.checker import Mode, typecheck
from otlc.harness import gen_typed_term
from otlc.semantics import (
    DEFAULT_FUEL,
    FuelExhausted,
    Stepped,
    StuckAt,
    Value,
    apply_constant,
    evaluate,
    step,
    trace,
)
from otlc.syntax import (
    Abs,
    App,
    Arrow,
    Bool,
    Const,
    Constant,
    If,
    NUM,
    Num,
    TOP,
    Var,
    parse_expr,
    parse_program,
    print_expr,
)


def E(src):
    return parse_expr(src)


# ---------------------------------------------------------------------------
# δ table


DELTA_TABLE = [
    (Constant.ADD1, Num(41), Num(42)),
    (Constant.ADD1, Num(-1), Num(0)),
    (Constant.ADD1, Bool(True), None),
    (Constant.ADD1, Const(Constant.NOT), None),
    (Constant.NOT, Bool(False), Bool(True)),
    (Constant.NOT, Bool(True), Bool(False)),
    (Constant.NOT, Num(0), Bool(False)),       # only #f counts as false
    (Constant.NOT, Const(Constant.ADD1), Bool(False)),
    (Constant.NUMBER_P, Num(7), Bool(True)),
    (Constant.NUMBER_P, Bool(False), Bool(False)),
    (Constant.BOOLEAN_P, Bool(False), Bool(True)),
    (Constant.BOOLEAN_P, Num(7), Bool(False)),
    (Constant.PROCEDURE_P, Const(Constant.ADD1), Bool(True)),
    (Constant.PROCEDURE_P, parse_expr("(lambda (x : Top) x)"), Bool(True)),
    (Constant.PROCEDURE_P, Num(3), Bool(False)),
    (Constant.EVEN_P, Num(-4), Bool(True)),
    (Constant.EVEN_P, Num(99), Bool(False)),
    (Constant.EVEN_P, Bool(True), None),
    (Constant.ODD_P, Num(-3), Bool(True)),
    (Constant.ODD_P, Num(0), Bool(False)),
    (Constant.ODD_P, Const(Constant.NOT), None),
]


@pytest.mark.parametrize("c,v,expected", DELTA_TABLE)
def test_delta_table(c, v, expected):
    assert apply_constant(c, v) == expected


def test_delta_parity_matches_arithmetic():
    for n in range(-10, 11):
        assert apply_constant(Constant.EVEN_P, Num(n)) == Bool(n % 2 == 0)
        assert apply_constant(Constant.ODD_P, Num(n)) == Bool(n % 2 != 0)


def test_delta_rejects_non_values():
    with pytest.raises(ValueError):
        apply_constant(Constant.ADD1, E("(add1 1)"))


# ---------------------------------------------------------------------------
# step


@pytest.mark.parametrize("src,expected", [
    ("(if 5 1 2)", "1"),                      # any non-#f value is true
    ("(if #f 1 2)", "2"),
    ("(if #t 1 2)", "1"),
    ("((lambda (x : Top) (number? x)) #f)", "(number? #f)"),
    ("(add1 41)", "42"),
    ("((lambda (x : Number) x) 3)", "3"),
    # leftmost-innermost: the operator position reduces first
    ("((if #t add1 not) (add1 1))", "(add1 (add1 1))"),
    ("(add1 (add1 1))", "(add1 2)"),
    ("(if (number? 1) 1 2)", "(if #t 1 2)"),
])
def test_step(src, expected):
    got = step(E(src))
    assert isinstance(got, Stepped)
    assert print_expr(got.next) == expected


@pytest.mark.parametrize("src", ["5", "#t", "#f", "add1",
                                 "(lambda (x : Top) (x x))"])
def test_values_are_normal_forms(src):
    assert step(E(src)) == Value(E(src))


@pytest.mark.parametrize("src,reason", [
    ("(5 5)", "operator not applicable"),
    ("(#t 5)", "operator not applicable"),
    ("(add1 #t)", "add1 is not defined on this operand"),
    ("(even? #f)", "even? is not defined on this operand"),
])
def test_stuck_states(src, reason):
    assert step(E(src)) == StuckAt(E(src), reason)


def test_stuck_propagates_from_inner_redex():
    # The answer holds the whole term, as `evaluate`'s does.
    e = E("(if (add1 #t) 1 2)")
    assert step(e) == StuckAt(e, "add1 is not defined on this operand")
    assert evaluate(e) == step(e)


def test_step_requires_closed_term():
    with pytest.raises(ValueError):
        step(E("(add1 x)"))


def test_step_deterministic():
    e = E("((lambda (x : Number) (add1 x)) (add1 1))")
    assert step(e) == step(e)


# ---------------------------------------------------------------------------
# evaluate / trace


def test_evaluate_counterexample_value():
    assert evaluate(E("(if (number? #f) (add1 #f) (not #f))"), 100) == \
        Value(E("#t"))


def test_evaluate_value_needs_no_fuel():
    assert evaluate(E("42"), 0) == Value(E("42"))


def test_evaluate_stuck():
    out = evaluate(E("(add1 (5 5))"))
    assert isinstance(out, StuckAt)
    assert out.reason == "operator not applicable"


def test_evaluate_fuel_exhausted():
    out = evaluate(E("(add1 (add1 (add1 0)))"), 1)
    assert out == FuelExhausted(E("(add1 (add1 1))"))


def test_evaluate_rejects_negative_fuel():
    with pytest.raises(ValueError):
        evaluate(E("5"), -1)


def test_trace_lists_every_term():
    terms, outcome = trace(E("(add1 (add1 1))"), 10)
    assert [print_expr(t) for t in terms] == ["(add1 (add1 1))", "(add1 2)", "3"]
    assert outcome == Value(E("3"))


def test_trace_of_value_is_singleton():
    assert trace(E("7")) == ([E("7")], Value(E("7")))


def test_trace_respects_fuel():
    terms, outcome = trace(E("(add1 (add1 (add1 0)))"), 1)
    assert len(terms) == 2
    assert outcome == FuelExhausted(terms[-1])


def test_trace_rejects_negative_fuel_and_open_terms():
    with pytest.raises(ValueError):
        trace(E("5"), -1)
    with pytest.raises(ValueError, match="not closed"):
        trace(E("(add1 x)"), 0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(st.integers(-1000, 1000))
def test_add1_is_successor(n):
    assert evaluate(E(f"(add1 {n})")) == Value(Num(n + 1))


def test_primary_typed_terms_do_not_get_stuck():
    # Spot-check of Progress on a few hand-picked primary-typed terms.
    for src in [
        "((lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0)) #t)",
        "((lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0)) 5)",
        "(if ((lambda (x : Top) (boolean? x)) 3) #f 9)",
    ]:
        e = E(src)
        typecheck(frozenset(), {}, e, Mode.PRIMARY)
        assert isinstance(evaluate(e), Value)


# ---------------------------------------------------------------------------
# the refocusing machine against the loop over `step`


def reference_evaluate(e, fuel):
    """`evaluate` as a plain loop over `step`: the definition that the
    machine in `evaluate` must agree with."""
    for steps in range(fuel + 1):
        res = step(e)
        if not isinstance(res, Stepped):
            return res
        if steps == fuel:
            return FuelExhausted(e)
        e = res.next
    return FuelExhausted(e)


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.lts"))


def _machine_terms():
    for path in CORPUS:
        yield path.name, parse_program(path.read_text(encoding="utf-8"))[1]
    for i in range(200):
        e = gen_typed_term(random.Random(f"machine:{i}"), 6, frozenset())
        yield f"gen:{i}", e
    parity = frozenset({Constant.EVEN_P, Constant.ODD_P})
    for i in range(200):
        e = gen_typed_term(random.Random(f"machine-refine:{i}"), 6, parity)
        yield f"gen-refine:{i}", e
    for src in [
        "(add1 (5 5))",
        "(if (add1 #t) 1 2)",
        "((add1 #t) (add1 1))",
        "((lambda (x : Number) (x 1)) (add1 1))",
        "(if (if #f 1 #f) (add1 (add1 1)) (not (even? #t)))",
        "((lambda (f : Top) (f (f 1))) (if #t add1 not))",
        "(add1 (add1 (add1 (add1 (add1 (add1 (add1 (add1 0))))))))",
        # A closure as the value, and a binder inside it that shadows.
        "((lambda (x : Number) (lambda (y : Top) x)) 5)",
        "((lambda (x : Number) (lambda (x : Top) x)) 5)",
        "((lambda (x : Number) (lambda (y : Top) ((lambda (x : Top) x) x))) 5)",
        # A captured closure applied twice.
        "((lambda (k : Number) ((lambda (f : (-> Number Number)) (f (f 1))) "
        "(lambda (y : Number) (if (even? y) k (add1 y))))) 4)",
        # Stuck, and out of fuel, under a non-empty environment, with
        # closures and pending subterms in the context.
        "((lambda (x : Top) (add1 x)) #t)",
        "((lambda (x : Top) ((lambda (g : Top) (if (g x) x (add1 x))) (lambda (z : Top) x))) #f)",
        "((lambda (x : Number) ((lambda (y : Number) (if (even? y) (lambda (z : Top) (add1 x)) y)) "
        "(add1 (add1 x)))) 2)",
    ]:
        yield src, E(src)


def reference_trace(e, fuel):
    """`trace` as a plain loop over `step`."""
    out = [e]
    for _ in range(fuel):
        res = step(e)
        if not isinstance(res, Stepped):
            break
        e = res.next
        out.append(e)
    return out


def test_evaluate_matches_loop_over_step_at_every_fuel():
    # `trace` runs on the same machine, so it is checked here too.
    for name, e in _machine_terms():
        terms = reference_trace(e, DEFAULT_FUEL)
        for fuel in range(len(terms) + 2):
            outcome = evaluate(e, fuel)
            assert outcome == reference_evaluate(e, fuel), (name, fuel)
            assert trace(e, fuel) == (terms[:fuel + 1], outcome), (name, fuel)


def add1_tower(e, depth):
    for _ in range(depth):
        e = App(Const(Constant.ADD1), e)
    return e


def unwind_add1_tower(e):
    """The depth of an `add1` tower and the term at its base, found by a
    loop: `==` on terms recurses on the depth."""
    depth = 0
    while isinstance(e, App) and e.rator == Const(Constant.ADD1):
        depth, e = depth + 1, e.rand
    return depth, e


def let_chain(n, body=None):
    """`x1` bound to 7, each later `xi` to `(add1 x(i-1))`, and `body`, by
    default `xn`, as nested applied λs built as an AST."""
    body = Var(f"x{n}") if body is None else body
    for i in range(n, 0, -1):
        bound = Num(7) if i == 1 else App(Const(Constant.ADD1), Var(f"x{i - 1}"))
        body = App(Abs(f"x{i}", NUM, body), bound)
    return body


def test_evaluate_deep_add1_tower():
    n, depth = 7, 10**5
    assert evaluate(add1_tower(Num(n), depth), depth) == Value(Num(n + depth))


def test_evaluate_deep_let_chain():
    n = 10**4
    assert evaluate(let_chain(n), 2 * n) == Value(Num(7 + n - 1))


def test_trace_substitutes_into_a_deep_body():
    depth = 10**4
    e = App(Abs("x", NUM, add1_tower(Var("x"), depth)), Num(5))
    ts, _ = trace(e, 2)
    assert len(ts) == 3
    assert unwind_add1_tower(ts[1]) == (depth, Num(5))
    assert unwind_add1_tower(ts[2]) == (depth - 1, Num(6))


def nodes(e):
    n, todo = 0, [e]
    while todo:
        e = todo.pop()
        n += 1
        if isinstance(e, App):
            todo += (e.rator, e.rand)
        elif isinstance(e, If):
            todo += (e.test, e.then, e.els)
        elif isinstance(e, Abs):
            todo.append(e.body)
    return n


def test_evaluate_walks_a_let_chain_in_linear_time(monkeypatch):
    # β binds instead of substituting, so no step walks the rest of the
    # chain; substituting at each β walks Θ(n²) nodes in all, 624,750
    # here.
    walked = 0
    real_substitute = semantics.substitute

    def counting_substitute(body, *rest):
        nonlocal walked
        walked += nodes(body)
        return real_substitute(body, *rest)

    monkeypatch.setattr(semantics, "substitute", counting_substitute)
    n = 500
    # The value is a closure over the last binding, so it is read back.
    out = evaluate(let_chain(n, Abs("y", TOP, Var(f"x{n}"))), 2 * n)
    assert out == Value(Abs("y", TOP, Num(7 + n - 1)))
    assert walked < 4 * n


def test_read_back_folds_the_body_once_for_all_bindings(monkeypatch):
    # The value is a closure whose body mentions n outer variables, the
    # last one also bound inside it, so reading it back replaces n names
    # in one fold of the body.  A fold per binding would visit Θ(n²)
    # nodes, 8,006,000 here, where one fold visits 4,003.
    visited = 0
    real_fold = syntax.fold

    def counting_fold(e, *rest, **kwargs):
        nonlocal visited
        visited += nodes(e)
        return real_fold(e, *rest, **kwargs)

    monkeypatch.setattr(syntax, "fold", counting_fold)
    n = 2000
    body = expected = Abs(f"x{n}", TOP, Var(f"x{n}"))
    for i in range(n, 0, -1):
        body = App(Var(f"x{i}"), body)
        expected = App(Num(7 + i - 1), expected)
    out = evaluate(let_chain(n, Abs("y", TOP, body)), 2 * n)
    assert out == Value(Abs("y", TOP, expected))
    assert visited < 4 * n


def closure_chain(n, last=None):
    """`f1` bound to `(lambda (y : Number) (add1 y))`, each later `fi` to
    `(lambda (y : Number) (f(i-1) y))`, and `last`, by default `fn`."""
    body = Var(f"f{n}") if last is None else last
    for i in range(n, 0, -1):
        rator = Const(Constant.ADD1) if i == 1 else Var(f"f{i - 1}")
        body = App(Abs(f"f{i}", Arrow(NUM, NUM), body), Abs("y", NUM, App(rator, Var("y"))))
    return body


def count_walked(monkeypatch, *names):
    """A list whose one item counts the nodes passed to the `syntax`
    functions `names` from now on."""
    walked = [0]
    for name in names:
        def counting(e, *rest, real=getattr(syntax, name), **kwargs):
            walked[0] += nodes(e)
            return real(e, *rest, **kwargs)

        monkeypatch.setattr(syntax, name, counting)
    return walked


def test_read_back_of_a_closure_chain_walks_each_closure_once(monkeypatch):
    # Each closure read back is closed, so it is not walked again for a
    # closedness check when it is put into the next: walking it there visits
    # Θ(n²) nodes, 6,006,995 here, where the fold of each closure's body
    # visits 7,996.
    walked = count_walked(monkeypatch, "fold", "free_vars")
    n = 2000
    expected = parse_expr("(lambda (y : Number) (add1 y))")
    for _ in range(n - 1):
        expected = Abs("y", NUM, App(expected, Var("y")))
    out = evaluate(closure_chain(n), 2 * n)
    assert out == Value(expected)
    assert walked[0] < 5 * n


def calls_chain(n, f):
    """`g` bound to `f`, then each `ri` to `(g i)`, and `rn`."""
    body = Var(f"r{n}")
    for i in range(n, 0, -1):
        body = App(Abs(f"r{i}", TOP, body), App(Var("g"), Num(i)))
    return App(Abs("g", TOP, body), f)


def test_evaluate_keeps_closures_lazy(monkeypatch):
    # A λ reached under a non-empty environment stays a closure until its
    # term is needed, which here it never is.  Closing each one as it is
    # made folds 7,996 nodes on the chain and 2,002,000 on the calls.
    walked = count_walked(monkeypatch, "fold")
    n = 2000
    out = evaluate(closure_chain(n, App(Var(f"f{n}"), Num(1))), 3 * n)
    assert out == Value(Num(2))
    assert walked[0] < n
    walked[0], n = 0, 1000
    f = Abs("x", NUM, App(Const(Constant.PROCEDURE_P), Abs("z", TOP, add1_tower(Var("x"), n))))
    assert evaluate(calls_chain(n, f), 4 * n) == Value(Bool(True))
    assert walked[0] < n
