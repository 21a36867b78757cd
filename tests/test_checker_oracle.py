"""Checker vs. brute-force oracle: over a corpus of small terms (every
depth-2 term over a fixed atom set, plus seeded random terms of depth at
most 4) under Γ = {x: Top, y: (U Number Boolean)}, the checker accepts
exactly the terms with a nonempty derivation set, and its judgment is a
member of that set."""

import random

import pytest

from otlc.checker import Mode, TypeCheckError, typecheck
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


def random_term(rng, depth):
    if depth <= 1 or rng.random() < 0.3:
        return rng.choice(ATOMS)
    match rng.randrange(3):
        case 0:
            return App(random_term(rng, depth - 1),
                       random_term(rng, depth - 1))
        case 1:
            return If(random_term(rng, depth - 1),
                      random_term(rng, depth - 1),
                      random_term(rng, depth - 1))
        case _:
            return Abs(rng.choice(("x", "y")), rng.choice(ANNOTS),
                       random_term(rng, depth - 1))


def random_terms(count=1500, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_term(rng, 4)


def agree(e, mode):
    judgments = derive(DELTA, GAMMA, e, mode)
    try:
        j = typecheck(DELTA, dict(GAMMA), e, mode)
    except TypeCheckError:
        assert not judgments, (
            f"oracle derives {judgments} for rejected term {print_expr(e)}")
        return
    assert judgments, f"checker accepts underivable term {print_expr(e)}"
    got = (j.type, j.pred)
    assert got in judgments, (
        f"checker judgment {got} for {print_expr(e)} not among oracle "
        f"judgments {judgments}")


@pytest.mark.parametrize("mode", [Mode.PRIMARY, Mode.EXTENDED])
def test_oracle_equivalence_exhaustive_depth2(mode):
    for e in depth2_terms():
        agree(e, mode)


@pytest.mark.parametrize("mode", [Mode.PRIMARY, Mode.EXTENDED])
def test_oracle_equivalence_random_depth4(mode):
    for e in random_terms():
        agree(e, mode)
