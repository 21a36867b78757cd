"""Checker vs. brute-force oracle: over a corpus of small terms (every
depth-2 term over a fixed atom set, plus seeded random terms of depth at
most 4) under Γ = {x: Top, y: (U Number Boolean)}, the checker accepts
exactly the terms with a nonempty derivation set, and its judgment is a
member of that set.  Random terms over the parity tests and refinement
annotations are compared too, under each Δ, and so are the fuzzer's
generated terms, their reduction chains and literal replacements in them."""

import random
import re

import pytest

from otlc.checker import Mode, TypeCheckError, typecheck
from otlc.harness import FuzzConfig, _positions, _replace, gen_typed_term
from otlc.semantics import trace
from otlc.subtyping import REFINING
from otlc.syntax import (
    Abs,
    App,
    Bool,
    Const,
    Constant,
    If,
    Num,
    Var,
    parse_type,
    print_expr,
)

from oracle import derive

GAMMA = {"x": parse_type("Top"), "y": parse_type("(U Number Boolean)")}
DELTA = frozenset()

ATOMS = [
    Var("x"), Var("y"), Var("z"),          # z is unbound: ill-typed leaf
    Num(0), Num(1), Bool(True), Bool(False),
    Const(Constant.ADD1), Const(Constant.NOT),
    Const(Constant.NUMBER_P), Const(Constant.BOOLEAN_P),
    Const(Constant.PROCEDURE_P),
]

ANNOTS = [parse_type(s) for s in
          ("Top", "Number", "Boolean", "(U Number Boolean)")]


def depth2_terms():
    yield from ATOMS
    for a in ATOMS:
        for b in ATOMS:
            yield App(a, b)
    for a in ATOMS:
        for b in ATOMS:
            for c in ATOMS:
                yield If(a, b, c)
    for x in ("x", "y"):
        for t in ANNOTS:
            for b in ATOMS:
                yield Abs(x, t, b)


def random_term(rng, depth, atoms=ATOMS, annots=ANNOTS):
    if depth <= 1 or rng.random() < 0.3:
        return rng.choice(atoms)
    match rng.randrange(3):
        case 0:
            return App(random_term(rng, depth - 1, atoms, annots),
                       random_term(rng, depth - 1, atoms, annots))
        case 1:
            return If(random_term(rng, depth - 1, atoms, annots),
                      random_term(rng, depth - 1, atoms, annots),
                      random_term(rng, depth - 1, atoms, annots))
        case _:
            return Abs(rng.choice(("x", "y")), rng.choice(annots),
                       random_term(rng, depth - 1, atoms, annots))


def random_terms(count=1500, seed=0, atoms=ATOMS, annots=ANNOTS):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_term(rng, 4, atoms, annots)


def agree(e, mode, delta=DELTA, gamma=GAMMA):
    """Whether the checker types `e`, having asserted that the oracle agrees."""
    judgments = derive(delta, gamma, e, mode)
    try:
        j = typecheck(delta, dict(gamma), e, mode)
    except TypeCheckError:
        assert not judgments, (
            f"oracle derives {judgments} for rejected term {print_expr(e)}")
        return False
    assert judgments, f"checker accepts underivable term {print_expr(e)}"
    got = (j.type, j.pred)
    assert got in judgments, (
        f"checker judgment {got} for {print_expr(e)} not among oracle "
        f"judgments {judgments}")
    return True


@pytest.mark.parametrize("mode", [Mode.PRIMARY, Mode.EXTENDED])
def test_oracle_equivalence_exhaustive_depth2(mode):
    for e in depth2_terms():
        agree(e, mode)


@pytest.mark.parametrize("mode", [Mode.PRIMARY, Mode.EXTENDED])
def test_oracle_equivalence_random_depth4(mode):
    for e in random_terms():
        agree(e, mode)


PARITY_GAMMA = {**GAMMA, "n": parse_type("Number")}
PARITY_ATOMS = ATOMS + [Var("n"), Const(Constant.EVEN_P), Const(Constant.ODD_P)]
PARITY_ANNOTS = ANNOTS + [parse_type(s) for s in
                          ("(Refinement even?)", "(Refinement odd?)",
                           "(-> (Refinement even?) Number)")]


@pytest.mark.parametrize("mode", [Mode.PRIMARY, Mode.EXTENDED])
@pytest.mark.parametrize("delta", [frozenset(), frozenset({Constant.EVEN_P}),
                                   frozenset(REFINING)], ids=["empty", "even", "both"])
def test_oracle_equivalence_parity(delta, mode):
    # Typed terms that mention a parity test or a refinement: 116 to 320 of
    # the 1,500, by Δ and mode.
    parity = sum(bool(re.search(r"Refinement|even\?|odd\?", print_expr(e)))
                 for e in random_terms(atoms=PARITY_ATOMS, annots=PARITY_ANNOTS)
                 if agree(e, mode, delta, PARITY_GAMMA))
    assert parity > 100


@pytest.mark.parametrize("refinements", [False, True], ids=["base", "refinements"])
def test_oracle_agrees_on_fuzzed_terms(refinements):
    # For each generated root: its primary judgment, and the extended
    # judgment of every term of its reduction chain, are derivable.  With a
    # #t at its middle node, the primary checker rejects it exactly when
    # nothing is derivable.  The extended checker is not held to the other
    # half: it keeps T-AppPred on a variable operand where T-AppPredFalse
    # would decide the test, so it rejects a few derivable terms, such as
    # (lambda (v : Boolean) (add1 (if (number? v) #t 0))).
    delta = frozenset(REFINING if refinements else ())
    rejected = 0
    for i in range(500):
        e = gen_typed_term(random.Random(f"oracle:{refinements}:{i}"), 6, delta)
        j = typecheck(delta, {}, e, Mode.PRIMARY)
        assert (j.type, j.pred) in derive(delta, {}, e, Mode.PRIMARY), print_expr(e)
        chain, _ = trace(e, FuzzConfig.fuel)
        memo = {}
        for t in chain:
            j = typecheck(delta, {}, t, Mode.EXTENDED, memo=memo)
            assert (j.type, j.pred) in derive(delta, {}, t, Mode.EXTENDED), print_expr(t)
        replaced = _replace(e, len(_positions(e)) // 2, Bool(True))
        rejected += not agree(replaced, Mode.PRIMARY, delta, {})
    assert rejected > 100
