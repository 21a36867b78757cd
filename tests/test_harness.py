"""Fuzzing harness: generator soundness, determinism, subject-reduction
checking, shrinking, and a mutation sanity check."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

import otlc.cli as cli
import otlc.harness as harness
import otlc.semantics as semantics
from otlc.checker import Judgment, Mode, TypeCheckError, typecheck
from otlc.harness import (
    FuzzConfig,
    FuzzFailure,
    check_subject_reduction,
    gen_typed_term,
    run_fuzz,
    shrink_failure,
)
from otlc.semantics import Value, evaluate, trace
from otlc.subtyping import REFINING
from otlc.syntax import (
    FALSE_T,
    FF,
    Abs,
    App,
    Bool,
    Constant,
    If,
    Num,
    free_vars,
    parse_expr,
    parse_program,
    print_expr,
)

EMPTY = frozenset()
BOTH = frozenset({Constant.EVEN_P, Constant.ODD_P})
CORPUS = sorted(Path(__file__).parent.glob("corpus/*.lts"))


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    c = FuzzConfig(count=10, seed=1)
    assert (c.max_depth, c.fuel, c.with_refinements) == (6, 1000, False)


@pytest.mark.parametrize("kwargs", [
    {"count": 0, "seed": 1},
    {"count": -5, "seed": 1},
    {"count": 1, "seed": 1, "max_depth": 0},
    {"count": 1, "seed": 1, "max_depth": 17},
    {"count": 1, "seed": 1, "fuel": -1},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FuzzConfig(**kwargs)


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize("refinements", [False, True])
def test_generated_terms_are_closed_and_primary_typed(refinements):
    delta = BOTH if refinements else EMPTY
    for i in range(150):
        rng = random.Random(f"gen:{i}")
        e = gen_typed_term(rng, 5, delta)
        assert not free_vars(e)
        typecheck(delta, {}, e, Mode.PRIMARY)  # must not raise


def test_generation_deterministic():
    a = [print_expr(gen_typed_term(random.Random(f"d:{i}"), 5, EMPTY))
         for i in range(30)]
    b = [print_expr(gen_typed_term(random.Random(f"d:{i}"), 5, EMPTY))
         for i in range(30)]
    assert a == b


# SHA-256 of the printed terms of 300 seeds per mode, one per line.  Any
# change to the generator's random draws, or to their order, changes it.
STREAM_SHA256 = {
    False: "081744278b1517dd6de86acfdd0901e8e272c26f0f0967337b1d68b5aad01e97",
    True: "1d02ca0559f9a60fb71b4693dc102c9feccaef9819d1a9a237d65e158b4d187d",
}


@functools.cache
def _stream(refinements: bool) -> tuple:
    delta = BOTH if refinements else EMPTY
    return tuple(gen_typed_term(random.Random(f"stream:{i}"), 6, delta) for i in range(300))


@pytest.mark.parametrize("refinements", [False, True])
def test_generator_stream_is_pinned(refinements):
    h = hashlib.sha256()
    for term in _stream(refinements):
        h.update(print_expr(term).encode() + b"\n")
    assert h.hexdigest() == STREAM_SHA256[refinements]


@pytest.mark.parametrize("refinements", [False, True])
def test_stream_terms_typecheck_in_the_primary_rules(refinements):
    # `gen_typed_term` takes no judgment of its own: the generator is
    # checked here, and by the judgment `run_fuzz` takes of every term.
    delta = BOTH if refinements else EMPTY
    for term in _stream(refinements):
        typecheck(delta, {}, term, Mode.PRIMARY)  # must not raise


@pytest.mark.parametrize("c", REFINING, ids=lambda c: c.value)
def test_refinement_stream_mentions_every_refinement(c):
    # Annotations and parity guards are drawn from every predicate of Δ.
    assert any(f"(Refinement {c.value})" in print_expr(term) for term in _stream(True))


def test_gen_rejects_bad_depth():
    with pytest.raises(ValueError):
        gen_typed_term(random.Random(0), 0, EMPTY)


def test_draw_is_the_choices_draw():
    # `_draw` replaces `rng.choices(range(4), left)[0]` in `_Gen.expr`: on
    # every deck reachable in _BUILDER_TRIES draws it picks the same card
    # and consumes the same random numbers.
    start = tuple(harness._BUILDERS.values())
    decks = [tuple(n - k.count(i) for i, n in enumerate(start))
             for tries in range(harness._BUILDER_TRIES)
             for k in itertools.combinations_with_replacement(range(len(start)), tries)]
    assert len(decks) == len(set(decks)) == 330
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        for deck in decks:
            assert harness._draw(a, list(deck)) == b.choices(range(len(deck)), deck)[0]
        assert a.getstate() == b.getstate()


def _recording_gen(monkeypatch) -> list:
    """Make `harness.gen_typed_term` record the terms it returns, in order."""
    terms = []
    real = harness.gen_typed_term

    def gen(*args):
        terms.append(real(*args))
        return terms[-1]

    monkeypatch.setattr(harness, "gen_typed_term", gen)
    return terms


@pytest.mark.parametrize("refinements", [False, True])
def test_run_fuzz_coverage_is_the_generated_terms_judgments(monkeypatch, refinements):
    delta = BOTH if refinements else EMPTY
    terms = _recording_gen(monkeypatch)
    rep = run_fuzz(FuzzConfig(count=60, seed=11, max_depth=5, with_refinements=refinements))
    assert len(terms) == 60 and not rep.failures
    want: dict = {}
    for e in terms:
        typecheck(delta, {}, e, Mode.PRIMARY, coverage=want)
    assert rep.coverage == want


@pytest.mark.parametrize("refinements", [False, True])
def test_run_fuzz_takes_one_primary_judgment_per_term(monkeypatch, refinements):
    # The judgment `run_fuzz` takes is handed to `check_subject_reduction`,
    # which derives none of its own.
    terms = _recording_gen(monkeypatch)
    judged = []

    def spy(delta, g, e, mode=Mode.PRIMARY, **kw):
        if mode is Mode.PRIMARY:
            judged.append(e)
        return typecheck(delta, g, e, mode, **kw)

    monkeypatch.setattr(harness, "typecheck", spy)
    rep = run_fuzz(FuzzConfig(count=200, seed=12, with_refinements=refinements))
    assert len(terms) == 200 and not rep.failures
    assert [sum(x is e for x in judged) for e in terms] == [1] * 200


def test_run_fuzz_raises_on_an_ill_typed_term(monkeypatch):
    # Terms are well typed by construction, so an ill-typed one is a
    # generator bug: it must surface, not be retried or replaced.
    monkeypatch.setattr(harness._Gen, "expr",
                        lambda *args: parse_expr("(add1 #t)"))
    with pytest.raises(TypeCheckError):
        run_fuzz(FuzzConfig(count=5, seed=1))


def _nodes(e) -> int:
    match e:
        case Abs(_, _, body):
            return 1 + _nodes(body)
        case App(rator, rand):
            return 1 + _nodes(rator) + _nodes(rand)
        case If(test, then, els):
            return 1 + _nodes(test) + _nodes(then) + _nodes(els)
    return 1


@pytest.mark.parametrize("refinements,min_nodes,min_steps", [
    (False, 18, 3.0),
    (True, 21, 3.4),
])
def test_generated_terms_are_not_trivial(refinements, min_nodes, min_steps):
    """A generator that got faster by producing trivial terms fails this."""
    delta = BOTH if refinements else EMPTY
    sizes, steps = [], []
    for i in range(2000):
        e = gen_typed_term(random.Random(f"dist:{i}"), 6, delta)
        sizes.append(_nodes(e))
        steps.append(len(trace(e, 1000)[0]) - 1)
    assert sum(sizes) / len(sizes) >= min_nodes
    assert sum(steps) / len(steps) >= min_steps
    assert sizes.count(1) / len(sizes) <= 0.37
    assert steps.count(0) / len(steps) <= 0.42


# ---------------------------------------------------------------------------
# subject reduction on hand-picked terms


def _subject_reduction(e, fuel, delta):
    """`check_subject_reduction` on `e`, handed its primary judgment under `delta`."""
    return check_subject_reduction(e, fuel, delta, typecheck(delta, {}, e, Mode.PRIMARY))


@pytest.mark.parametrize("src", [
    "((lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0)) 5)",
    "((lambda (x : (U Number Boolean)) (if (number? x) (add1 x) 0)) #f)",
    "(if (number? #t) 1 2)",
    "((lambda (x : Top) (if (boolean? x) #t (number? x))) 7)",
])
def test_subject_reduction_holds(src):
    assert _subject_reduction(parse_expr(src), 100, EMPTY) == []


def test_subject_reduction_refinements():
    src = ("((lambda (f : (-> (Refinement even?) Number)) "
           "((lambda (n : Number) (if (even? n) (f n) n)) 4)) "
           "(lambda (m : (Refinement even?)) (add1 m)))")
    assert _subject_reduction(parse_expr(src), 100, BOTH) == []


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_subject_reduction_holds_on_the_corpus(path):
    # Every clause, erasure commutation under the file's Δ among them, on
    # each corpus program that has a primary judgment to hand on.
    declared, e = parse_program(path.read_text(encoding="utf-8"))
    delta = frozenset(declared or REFINING)
    try:
        j = typecheck(delta, {}, e, Mode.PRIMARY)
    except TypeCheckError:  # an ill-typed program has nothing to check
        return
    assert check_subject_reduction(e, 1000, delta, j) == []


def test_subject_reduction_flags_ill_terms(monkeypatch):
    # An untypeable chain is reported before the progress check fires.
    # The term itself is typed, so force an untypeable step 1, (add1 #t),
    # by a δ that takes (add1 40) to #t.
    real_apply = semantics.apply_constant

    def broken_apply(c, v):
        return Bool(True) if c == Constant.ADD1 and v == Num(40) else real_apply(c, v)

    monkeypatch.setattr(semantics, "apply_constant", broken_apply)
    fails = _subject_reduction(parse_expr("(add1 (add1 40))"), 10, EMPTY)
    assert [(f.kind, f.step) for f in fails] == [("preservation", 1)]
    assert "untypeable" in fails[0].detail


def test_subject_reduction_flags_fuel_exhaustion():
    e = parse_expr("(add1 (add1 (add1 1)))")
    fails = _subject_reduction(e, 1, frozenset())
    assert [f.kind for f in fails] == ["fuel-exhausted"]
    assert _subject_reduction(e, 1000, frozenset()) == []


def test_subject_reduction_flags_stuck_terms(monkeypatch):
    # Progress violations cannot arise from well-typed terms, so force one
    # by making the evaluator refuse a δ-step.
    real_apply = semantics.apply_constant

    def broken_apply(c, v):
        if c == Constant.ADD1 and v == Num(41):
            return None
        return real_apply(c, v)

    monkeypatch.setattr(semantics, "apply_constant", broken_apply)
    fails = _subject_reduction(parse_expr("(add1 (add1 40))"), 10, EMPTY)
    assert any(f.kind == "progress" for f in fails)


@pytest.mark.parametrize("delta", [EMPTY, BOTH], ids=["EMPTY", "BOTH"])
def test_subject_reduction_flags_an_extended_judgment_above_the_primary(delta):
    # Mode monotonicity: handed a primary judgment below the term's own
    # extended one, the check reports exactly that, at step 0.
    fails = check_subject_reduction(Bool(True), 10, delta, Judgment(FALSE_T, FF))
    assert fails == [FuzzFailure("monotonicity", "#t", 0,
                                 "extended judgment True ; tt is not below the primary False ; ff")]


@pytest.mark.parametrize("src,at", [("(add1 41)", 0), ("(add1 (add1 40))", 1)])
def test_subject_reduction_flags_erasure_that_does_not_commute(monkeypatch, src, at):
    # An erasure that maps 42 to 41 no longer commutes with the step to 42.
    real_erase = harness.erase_expr

    def bad_erase(e, memo=None):
        return Num(41) if e == Num(42) else real_erase(e, memo)

    monkeypatch.setattr(harness, "erase_expr", bad_erase)
    fails = _subject_reduction(parse_expr(src), 10, BOTH)
    assert [(f.kind, f.step) for f in fails] == [("erasure-commutation", at)]


@pytest.mark.parametrize("delta,calls", [(EMPTY, 0), (BOTH, 3)], ids=["EMPTY-0", "BOTH-3"])
def test_subject_reduction_erases_the_term_once(monkeypatch, delta, calls):
    # The chain is the run of the term itself; only erasure commutation
    # erases, its run term by term, the term itself once, as the run's
    # first term.
    real_erase = harness.erase_expr
    erased = []

    def counting_erase(e, memo=None):
        erased.append(e)
        return real_erase(e, memo)

    monkeypatch.setattr(harness, "erase_expr", counting_erase)
    e = parse_expr("(add1 (add1 1))")
    assert _subject_reduction(e, 10, delta) == []
    assert len(erased) == calls
    assert erased == trace(e, 10)[0][:calls]
    assert [t is e for t in erased] == [True, False, False][:calls]


# Each term fails subject reduction, in the extended mode the chains are
# re-judged in, without the rule or narrowing named beside it.  Class D
# also needs the chain judged under the term's own Δ.


@pytest.mark.parametrize("src,delta", [
    # class A: T-AppPredFalse now fires on the compound operand of step 1
    ("((lambda (v1 : Top) (boolean? (if #t v1 #f))) 5)", EMPTY),
    # class B: T-True types the #t substituted for v1 at True, as v1 was
    ("((lambda (v1 : Boolean) (if v1 v1 0)) #t)", EMPTY),
    # T-AppPredFalse on an operand that is not a value
    ("((lambda (v3 : (U Number Boolean)) (procedure? (if (boolean? v3) v3 v3))) #t)", EMPTY),
    # class C: restrict narrows the Number n to Bot under (p n), not to
    # procedure?'s latent, which step 1 substitutes for p
    ("((lambda (p : (-> Top Boolean)) ((lambda (f : (-> Number Number)) #t) "
     "(lambda (n : Number) (if (p n) n 0)))) procedure?)", EMPTY),
    # the chain narrows f to Bot in a dead branch that the primary rules do
    # not narrow; an operator of type Bot applies by subsumption
    ("((lambda (f : (-> Number Number)) (if (if #f #f (number? f)) (f 1) 0)) add1)", EMPTY),
    # class D: under Δ, even? narrows x to Bot in the else branch, as the
    # primary rules do; under the empty Δ it has no latent, so x stays a
    # Number there and the if is no Boolean
    ("(lambda (x : (Refinement even?)) ((lambda (b : Boolean) #t) (if (even? x) #f x)))",
     BOTH),
], ids=["class-A", "class-B", "compound-operand", "class-C", "bot-operator", "class-D"])
def test_closed_gap(src, delta):
    # The bot-operator term has no primary judgment; under the empty Δ no
    # clause reads the judgment handed in, so the extended one stands in.
    e = parse_expr(src)
    j = typecheck(delta, {}, e, Mode.PRIMARY if delta else Mode.EXTENDED)
    assert check_subject_reduction(e, 100, delta, j) == []


def test_base_generation_judges_in_the_primary_rules_only(monkeypatch):
    # In both modes: the generator keeps no filter of its own.
    modes = set()

    def spy(delta, g, e, mode=Mode.PRIMARY, **kw):
        modes.add(mode)
        return typecheck(delta, g, e, mode, **kw)

    monkeypatch.setattr(harness, "typecheck", spy)
    for i in range(100):
        gen_typed_term(random.Random(f"modes:{i}"), 6, EMPTY)
    assert modes == {Mode.PRIMARY}
    for i in range(100):
        gen_typed_term(random.Random(f"modes:{i}"), 6, BOTH)
    assert modes == {Mode.PRIMARY}


# ---------------------------------------------------------------------------
# memoized and uncached chain judgments agree


def _chain_judgments(terms, delta, memo):
    """The extended judgment of each term under `delta`, or the rule, trail
    and message of its error."""
    out = []
    for t in terms:
        try:
            out.append(typecheck(delta, {}, t, Mode.EXTENDED, memo=memo))
        except TypeCheckError as err:
            out.append((err.rule, err.trail, str(err)))
    return out


def _assert_memo_agrees(e, delta):
    tr = trace(e, 1000)[0]
    assert _chain_judgments(tr, delta, {}) == _chain_judgments(tr, delta, None)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_memoized_chain_judgments_agree_on_the_corpus(path):
    declared, e = parse_program(path.read_text(encoding="utf-8"))
    _assert_memo_agrees(e, frozenset(declared or REFINING))


def test_memoized_chain_judgments_agree_on_the_closed_gaps():
    # The terms of `test_closed_gap`.
    for src, delta in test_closed_gap.pytestmark[0].args[1]:
        _assert_memo_agrees(parse_expr(src), delta)


@pytest.mark.parametrize("delta", [EMPTY, BOTH], ids=["EMPTY", "BOTH"])
def test_memoized_chain_judgments_agree_on_generated_terms(delta):
    for i in range(500):
        _assert_memo_agrees(gen_typed_term(random.Random(f"memo:{i}"), 6, delta), delta)


def test_memoized_chain_judgments_agree_on_an_ill_typed_reduct(monkeypatch):
    # Force an ill-typed reduct, as in test_subject_reduction_flags_stuck_terms.
    real_apply = semantics.apply_constant

    def broken_apply(c, v):
        return Bool(True) if c == Constant.ADD1 and v == Num(40) else real_apply(c, v)

    monkeypatch.setattr(semantics, "apply_constant", broken_apply)
    tr = trace(parse_expr("(if (add1 (add1 (add1 40))) add1 (lambda (x : Number) x))"), 10)[0]
    got = _chain_judgments(tr, EMPTY, {})
    assert got == _chain_judgments(tr, EMPTY, None)
    assert got[-1][:2] == ("T-App", ["T-App", "T-App", "T-If"])


# ---------------------------------------------------------------------------
# run_fuzz


def test_run_fuzz_small_clean():
    rep = run_fuzz(FuzzConfig(count=200, seed=5))
    assert rep.generated == 200
    assert rep.all_failures() == []
    assert rep.coverage.get("T-AppPred", 0) > 0


def test_run_fuzz_deterministic():
    def snapshot():
        d = run_fuzz(FuzzConfig(count=60, seed=9)).to_dict()
        d.pop("elapsed_ms")
        return d
    assert snapshot() == snapshot()


def test_report_json_schema():
    rep = run_fuzz(FuzzConfig(count=25, seed=2, with_refinements=True))
    d = json.loads(rep.to_json())
    assert set(d) == {"generated", "failures", "coverage", "seed",
                      "elapsed_ms"}
    assert d["generated"] == 25
    assert d["seed"] == 2
    assert isinstance(d["coverage"], dict)
    for f in d["failures"]:
        assert set(f) == {"kind", "term", "step", "detail"}


# Per term of a six-term run: the failure kinds its check reports, and
# whether its print/parse round trip fails.
_SCRIPTED = [(["progress", "preservation"], False), (["erasure-commutation"], True),
             ([], False), (["soundness", "fuel-exhausted"], False),
             (["monotonicity"], True), (["preservation"], False)]


def _script_failures(monkeypatch):
    """Make the next six-term `run_fuzz` find the failures of `_SCRIPTED`."""
    terms = itertools.count()
    round_trips = itertools.count()

    def check(e, fuel, delta, primary):
        i = next(terms)
        return [FuzzFailure(kind, f"t{i}", i, f"{kind} in t{i}") for kind in _SCRIPTED[i][0]]

    def parse(text):
        return None if _SCRIPTED[next(round_trips)][1] else parse_expr(text)

    monkeypatch.setattr(harness, "check_subject_reduction", check)
    # Nothing shrinks, so the first verdicts stand.
    monkeypatch.setattr(harness, "shrink_failure",
                        lambda e, failures, delta, check: (e, failures))
    monkeypatch.setattr(harness, "parse_expr", parse)


def test_report_lists_failures_by_bucket(monkeypatch):
    _script_failures(monkeypatch)
    rep = run_fuzz(FuzzConfig(count=6, seed=1))
    got = [(f["kind"], f["step"], f["detail"]) for f in rep.to_dict()["failures"]]
    assert got == [
        ("preservation", 0, "preservation in t0"),
        ("soundness", 3, "soundness in t3"),
        ("monotonicity", 4, "monotonicity in t4"),
        ("preservation", 5, "preservation in t5"),
        ("progress", 0, "progress in t0"),
        ("fuel-exhausted", 3, "fuel-exhausted in t3"),
        ("erasure-commutation", 1, "erasure-commutation in t1"),
        ("roundtrip", 0, "printing then parsing changed the term"),
        ("roundtrip", 0, "printing then parsing changed the term"),
    ]


def test_fuzz_cli_counts_failures_by_bucket(monkeypatch):
    _script_failures(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["fuzz", "--count", "6", "--seed", "1"]) == cli.EXIT_FAILURE
    assert out.getvalue().splitlines()[1:5] == [
        "preservation failures: 4",
        "progress failures:     2",
        "erasure failures:      1",
        "round-trip failures:   2",
    ]


def test_coverage_counts_rules():
    rep = run_fuzz(FuzzConfig(count=300, seed=3))
    for rule in ("T-Var", "T-Num", "T-Abs", "T-App", "T-AppPred", "T-If"):
        assert rep.coverage.get(rule, 0) > 0, rule


# ---------------------------------------------------------------------------
# shrinking


def test_shrink_preserves_failure_and_typing():
    # A stuck-but-typeable shape cannot be generated, so drive the
    # shrinker directly with a synthetic check, which is handed each
    # candidate's primary judgment.
    e = parse_expr("(if #t (add1 (add1 40)) 0)")

    def check(t, j):
        assert j == typecheck(EMPTY, {}, t, Mode.PRIMARY)
        out = evaluate(t, 100)
        return [print_expr(t)] if isinstance(out, Value) and out.v == parse_expr("42") else []

    small, fails = shrink_failure(e, ["the unshrunk failure"], EMPTY, check)
    assert fails == [print_expr(small)]
    assert len(print_expr(small)) <= len(print_expr(e))


def test_shrink_keeps_the_failures_when_nothing_shrinks():
    e = parse_expr("(add1 (add1 40))")
    assert shrink_failure(e, ["original"], EMPTY, lambda t, j: []) == (e, ["original"])


def test_shrink_respects_budget(monkeypatch):
    calls = 0

    def probe(t, j):
        nonlocal calls
        calls += 1
        return ["still failing"]

    monkeypatch.setattr(harness, "SHRINK_BUDGET", 7)
    shrink_failure(parse_expr("(if (number? 1) (add1 1) (add1 2))"),
                   ["failing"], EMPTY, probe)
    assert calls <= 7


# ---------------------------------------------------------------------------
# mutation sanity: a broken semantics must be caught


def test_swapped_if_branches_are_detected(monkeypatch):
    # The `if` rule takes the branch `_is_false` picks; invert it.
    real_is_false = semantics._is_false
    monkeypatch.setattr(semantics, "_is_false", lambda v: not real_is_false(v))

    rep = run_fuzz(FuzzConfig(count=250, seed=4))
    assert rep.all_failures(), "mutated semantics went unnoticed"


# The shrunk failures of 60 terms of seed 4 under swapped `if` branches, per
# mode: their count, the first one, and the sha256 of the JSON of them all.
_SHRUNK_UNDER_SWAPPED_IFS = {
    False: (24, {
        "kind": "preservation",
        "term": "(if #t (if #f ((lambda (v1 : Number) #f) 26) #t) #f)",
        "step": 1,
        "detail": "type widened from (if #t (if #f ((lambda (v1 : Number) #f) 26) #t) #f) to #f",
    }, "30b9c357fa12ba39a8f41d2f2460be7e51a96eaf79b3868323c3a34bbba67161"),
    True: (30, {
        "kind": "preservation",
        "term": "(if 0 0 ((lambda (v5 : Boolean) #f) (if (if ((lambda (v6 : (-> (Refinement odd?) "
                "Number)) #f) add1) #f (if #t #t #t)) (if #t ((lambda (v7 : (-> Top Boolean)) #f) "
                "number?) (if #t #f #t)) (if (if #f #t #f) (not #f) #f))))",
        "step": 1,
        "detail": "type widened from (if 0 0 ((lambda (v5 : Boolean) #f) (if (if ((lambda (v6 : "
                  "(-> (Refinement odd?) Number)) #f) add1) #f (if #t #t #t)) (if #t ((lambda (v7 : "
                  "(-> Top Boolean)) #f) number?) (if #t #f #t)) (if (if #f #t #f) (not #f) #f)))) "
                  "to ((lambda (v5 : Boolean) #f) (if (if ((lambda (v6 : (-> (Refinement odd?) "
                  "Number)) #f) add1) #f (if #t #t #t)) (if #t ((lambda (v7 : (-> Top Boolean)) #f) "
                  "number?) (if #t #f #t)) (if (if #f #t #f) (not #f) #f)))",
    }, "d6d7cf5c7f2772ed49a89335b6e5296eebb1c1fd8ad136e45123d69a59212f20"),
}


@pytest.mark.parametrize("refinements", [False, True], ids=["base", "refinements"])
def test_shrunk_failures_under_swapped_if_branches(monkeypatch, refinements):
    # The reports of a broken semantics pin the shrinker's path byte for byte.
    real_is_false = semantics._is_false
    monkeypatch.setattr(semantics, "_is_false", lambda v: not real_is_false(v))

    rep = run_fuzz(FuzzConfig(count=60, seed=4, with_refinements=refinements))
    failures = rep.to_dict()["failures"]
    count, first, digest = _SHRUNK_UNDER_SWAPPED_IFS[refinements]
    assert (len(failures), failures[0]) == (count, first)
    assert hashlib.sha256(json.dumps(failures).encode()).hexdigest() == digest


@pytest.mark.parametrize("refinements", [False, True], ids=["base", "refinements"])
def test_run_fuzz_checks_each_term_once(monkeypatch, refinements):
    # Once per generated term and once per shrink candidate: a shrunk
    # term's failures are those its candidate check found.
    real_is_false = semantics._is_false
    monkeypatch.setattr(semantics, "_is_false", lambda v: not real_is_false(v))
    checked, candidates = [], []

    def spy(e, fuel, delta, primary):
        checked.append(e)
        return check_subject_reduction(e, fuel, delta, primary)

    def counting_shrink(e, failures, delta, check):
        def counted(t, j):
            candidates.append(t)
            return check(t, j)
        return shrink_failure(e, failures, delta, counted)

    monkeypatch.setattr(harness, "check_subject_reduction", spy)
    monkeypatch.setattr(harness, "shrink_failure", counting_shrink)
    rep = run_fuzz(FuzzConfig(count=20, seed=4, with_refinements=refinements))
    assert rep.failures and candidates
    assert len(checked) == 20 + len(candidates)
