"""Randomized soundness testing.

Generates well-typed closed terms, reduces them, and checks that the
root's extended judgment is below its primary one, and per step that
typing is preserved (type shrinks, predicate is a sub-predicate), that
non-values always step, that terminating runs of base-typed terms end in
a suitably typed value, and, in refinement mode (a non-empty Δ of declared
refinement predicates, which the generator draws from), that erasure
commutes with reduction.  The refined system's soundness is checked
directly: each term of a run is judged in the extended rules under Δ.

The generator neither vets nor filters its terms, and judges only in the
primary rules: which predicates survive substitution is for the checker's
extended rules to say, under the term's own Δ.  `run_fuzz` takes each
term's primary judgment once, counting its rules, and hands it to
`check_subject_reduction`, which derives no judgment itself.  The
shrinker hands each candidate's judgment in likewise and hands back the
failures of the last check that found any, so no term is checked twice.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from bisect import bisect
from dataclasses import asdict, dataclass, field

from .checker import (
    Judgment,
    Mode,
    TypeCheckError,
    env_minus,
    env_plus,
    is_subpred,
    typecheck,
)
from .refine import erase_expr
from .semantics import FuelExhausted, StuckAt, Value, trace
from .subtyping import CONSTANT_TYPES, REFINING, constant_types, subtype
from .syntax import (
    BOOLEAN,
    FALSE_T,
    NUM,
    TOP,
    TRUE_T,
    Abs,
    App,
    Arrow,
    Bool,
    Const,
    Constant,
    Expr,
    If,
    Num,
    Refine,
    UnionT,
    Var,
    _rebuild,
    fold,
    parse_expr,
    print_expr,
    print_pred,
    print_type,
)

NUM_OR_BOOL = UnionT((NUM, TRUE_T, FALSE_T))

# A parity guard's function type per refining constant, held so it is built once.
_GUARDED = {c: Arrow(Refine(c), NUM) for c in REFINING}

_PREDICATE_CONSTANTS = tuple(c for c, t in CONSTANT_TYPES.items()
                             if t.res == BOOLEAN and c not in REFINING)

# The builder methods of `_Gen`, each with its count in a 100-card deck.
# `_Gen.expr` tries at most _BUILDER_TRIES of them, drawn one at a time
# without replacement: the law of the first cards of a shuffled deck.
_BUILDERS = {"leaf": 30, "cond": 30, "app": 25, "lam": 15}
_BUILDER_TRIES = 8

# The generator's expected term size grows exponentially with depth:
# twenty terms take seconds at depth 20 and over 90 s at depth 32.
MAX_FUZZ_DEPTH = 16


@dataclass
class FuzzConfig:
    count: int
    seed: int
    max_depth: int = 6
    fuel: int = 1000
    with_refinements: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not 1 <= self.max_depth <= MAX_FUZZ_DEPTH:
            raise ValueError(f"max_depth must be between 1 and {MAX_FUZZ_DEPTH}")
        if self.fuel < 0:
            raise ValueError("fuel must be nonnegative")


@dataclass
class FuzzFailure:
    kind: str
    term: str
    step: int
    detail: str


BUCKETS = ("preservation", "progress", "erasure", "round-trip")

_KIND_BUCKET = {"preservation": "preservation", "soundness": "preservation",
                "monotonicity": "preservation",
                "progress": "progress", "fuel-exhausted": "progress",
                "erasure-commutation": "erasure", "roundtrip": "round-trip"}


@dataclass
class FuzzReport:
    generated: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)  # in the order found
    coverage: dict[str, int] = field(default_factory=dict)
    seed: int = 0
    elapsed_ms: float = 0.0

    def bucket(self, name: str) -> list[FuzzFailure]:
        """The failures whose kind falls in bucket `name` of `BUCKETS`."""
        return [f for f in self.failures if _KIND_BUCKET[f.kind] == name]

    def all_failures(self) -> list[FuzzFailure]:
        """The failures in bucket order, each bucket in the order found."""
        return [f for b in BUCKETS for f in self.bucket(b)]

    def to_dict(self) -> dict:
        return {
            "generated": self.generated,
            "failures": [asdict(f) for f in self.all_failures()],
            "coverage": dict(sorted(self.coverage.items())),
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# Type-directed term generation


class _GenFail(Exception):
    pass


def _draw(rng: random.Random, weights: list[int]) -> int:
    """The index `rng.choices(range(len(weights)), weights)[0]` picks, from
    the same one `rng.random()`, without `choices`' generic path."""
    cum = list(itertools.accumulate(weights))
    return bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)


class _Gen:
    def __init__(self, rng: random.Random, delta: frozenset):
        self.rng = rng
        self.delta = delta
        self.parity_tests = tuple(c for c in REFINING if c in delta)
        self.counter = 0
        self.goals = [NUM, BOOLEAN, TOP, NUM_OR_BOOL]
        self.annots = [TOP, NUM, BOOLEAN, NUM_OR_BOOL, Arrow(NUM, NUM), Arrow(TOP, BOOLEAN),
                       *(_GUARDED[c] for c in self.parity_tests)]

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def expr(self, env: dict, goal, depth: int) -> Expr:
        if depth <= 1:
            return self.leaf(env, goal)
        names = list(_BUILDERS)
        left = list(_BUILDERS.values())
        for _ in range(_BUILDER_TRIES):
            k = _draw(self.rng, left)
            left[k] -= 1
            try:
                return getattr(self, names[k])(env, goal, depth)
            except _GenFail:
                continue
        return self.leaf(env, goal)

    def fitting(self, env: dict, goal) -> list[str]:
        """The variables of `env` whose types fit `goal`."""
        return [x for x, t in env.items() if subtype(t, goal)]

    def abstraction(self, env: dict, annot, goal, depth: int) -> Abs:
        """A λ over a fresh variable of type `annot`, its body fitting `goal`."""
        x = self.fresh()
        return Abs(x, annot, self.expr({**env, x: annot}, goal, depth))

    def leaf(self, env: dict, goal, depth: int = 1) -> Expr:
        """A variable or literal fitting `goal`; `depth`, as every builder has, is unused."""
        usable = self.fitting(env, goal)
        if usable and self.rng.random() < 0.5:
            return Var(self.rng.choice(usable))
        return self.literal(env, goal)

    def literal(self, env: dict, g) -> Expr:
        # A normal union has no union members: each narrowing is needed once at most.
        if isinstance(g, UnionT):
            if g == BOOLEAN:
                return Bool(self.rng.random() < 0.5)
            if not g.members:
                raise _GenFail
            g = self.rng.choice(g.members)
        if g is TOP:
            pick = self.rng.random()
            if pick < 0.35:
                return Num(self.rng.randint(-10, 99))
            if pick < 0.6:
                return Bool(self.rng.random() < 0.5)
            if pick < 0.8:
                return Const(self.rng.choice([c for c in Constant if c not in REFINING]))
            g = Arrow(NUM, NUM)
        if g is NUM:
            return Num(self.rng.randint(-10, 99))
        if g is TRUE_T or g is FALSE_T:
            return Bool(g is TRUE_T)
        if isinstance(g, Arrow):
            for c, t in constant_types(self.delta).items():
                if subtype(t, g) and self.rng.random() < 0.4:
                    return Const(c)
            return self.abstraction(env, g.arg, g.res, 1)
        usable = self.fitting(env, g)  # a Refine
        if not usable:
            raise _GenFail
        return Var(self.rng.choice(usable))

    def cond(self, env: dict, goal, depth: int) -> Expr:
        test = self.make_test(env, depth)
        pred = typecheck(self.delta, env, test, Mode.PRIMARY).pred
        then = self.expr(env_plus(env, pred), goal, depth - 1)
        els = self.expr(env_minus(env, pred), goal, depth - 1)
        return If(test, then, els)

    def make_test(self, env: dict, depth: int) -> Expr:
        narrowable = [x for x, t in env.items() if t is TOP or isinstance(t, UnionT)]
        if narrowable and self.rng.random() < 0.6:
            x = self.rng.choice(narrowable)
            c = self.rng.choice((Constant.NUMBER_P, Constant.BOOLEAN_P))
            return App(Const(c), Var(x))
        if self.parity_tests:
            nums = self.fitting(env, NUM)
            if nums and self.rng.random() < 0.5:
                c = self.rng.choice(self.parity_tests)
                return App(Const(c), Var(self.rng.choice(nums)))
        return self.expr(env, BOOLEAN, depth - 1)

    def app(self, env: dict, goal, depth: int) -> Expr:
        options = []
        if subtype(NUM, goal):
            options.append("add1")
        if subtype(BOOLEAN, goal):
            options.append("predicate")
        arrows = [x for x, t in env.items()
                  if isinstance(t, Arrow) and subtype(t.res, goal)]
        if arrows:
            options.append("call")
        options.append("beta")
        if self.parity_tests and subtype(NUM, goal):
            options.append("parity-guard")
        match self.rng.choice(options):
            case "add1":
                return App(Const(Constant.ADD1), self.operand(env, NUM, depth))
            case "predicate":
                c = self.rng.choice(_PREDICATE_CONSTANTS)
                return App(Const(c), self.operand(env, CONSTANT_TYPES[c].arg, depth))
            case "call":
                f = self.rng.choice(arrows)
                return App(Var(f), self.operand(env, env[f].arg, depth))
            case "parity-guard":
                return self.parity_guard(env, depth)
            case _:
                sigma = self.rng.choice(self.annots)
                fn = self.abstraction(env, sigma, goal, depth - 1)
                return App(fn, self.operand(env, sigma, depth))

    def operand(self, env: dict, want, depth: int) -> Expr:
        """Argument expression fitting `want`."""
        usable = self.fitting(env, want)
        if usable and self.rng.random() < 0.6:
            return Var(self.rng.choice(usable))
        return self.expr(env, want, depth - 1)

    def parity_guard(self, env: dict, depth: int) -> Expr:
        """A function guarded by a parity test c of Δ, applied to concrete
        values: ((lambda (f : (-> (Refinement c) Number))
           (lambda (n : Number) (if (c n) (f n) n))) v_f) v_n."""
        c = self.rng.choice(self.parity_tests)
        f, n, m = self.fresh(), self.fresh(), self.fresh()
        guarded = Abs(
            f, _GUARDED[c],
            Abs(n, NUM, If(App(Const(c), Var(n)), App(Var(f), Var(n)), Var(n))))
        fn_arg = Abs(m, NUM, self.operand({**env, m: NUM}, NUM, depth - 1))
        num_arg = self.operand(env, NUM, depth - 1)
        return App(App(guarded, fn_arg), num_arg)

    def lam(self, env: dict, goal, depth: int) -> Expr:
        if isinstance(goal, Arrow):
            return self.abstraction(env, goal.arg, goal.res, depth - 1)
        if goal is TOP:
            sigma = self.rng.choice(self.annots)
            return self.abstraction(env, sigma, self.rng.choice(self.goals), depth - 1)
        raise _GenFail


def gen_typed_term(rng: random.Random, max_depth: int, delta: frozenset) -> Expr:
    """A closed term that typechecks with the primary rules under `delta`,
    its annotations naming only refinements of `delta`.  The generator
    builds terms by the typing rules, so each is well typed by
    construction, and the term is not judged here: `run_fuzz` takes its
    primary judgment, where a failing one raises `TypeCheckError`, as the
    generator bug it is."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    gen = _Gen(rng, delta)
    return gen.expr({}, rng.choice(gen.goals), max_depth)


# ---------------------------------------------------------------------------
# Subject reduction


def check_subject_reduction(e: Expr, fuel: int, delta: frozenset,
                            primary: Judgment) -> list[FuzzFailure]:
    """Per-step verdicts for one closed term whose judgment in the primary
    rules under `delta` is `primary`; empty list means every clause held.
    Each term of the run is judged by the extended rules under `delta`,
    and the term's own extended judgment must be below `primary` (mode
    monotonicity).  A non-empty `delta` adds the erasure-commutation
    clause.  The terms of a run share most of their nodes, so the run is
    judged with one memo and erased with another, both kept valid by
    `tr`, which holds every node alive: each closed node is judged once,
    and each node erased once."""
    failures: list[FuzzFailure] = []

    def fail(kind: str, i: int, detail: str):
        failures.append(FuzzFailure(kind, print_expr(e), i, detail))

    tr, outcome = trace(e, fuel)

    judgments = []
    judged: dict = {}
    for i, term in enumerate(tr):
        try:
            judgments.append(typecheck(delta, {}, term, Mode.EXTENDED, memo=judged))
        except TypeCheckError as err:
            fail("preservation", i, f"intermediate term untypeable: {err}")
            return failures

    ext = judgments[0]
    if not (subtype(ext.type, primary.type) and is_subpred(ext.pred, primary.pred)):
        fail("monotonicity", 0,
             f"extended judgment {print_type(ext.type)} ; {print_pred(ext.pred)} is not "
             f"below the primary {print_type(primary.type)} ; {print_pred(primary.pred)}")

    for i in range(1, len(judgments)):
        prev, cur = judgments[i - 1], judgments[i]
        if not subtype(cur.type, prev.type):
            fail("preservation", i,
                 f"type widened from {print_expr(tr[i-1])} to {print_expr(tr[i])}")
        if not is_subpred(cur.pred, prev.pred):
            fail("preservation", i,
                 f"predicate not preserved from {print_expr(tr[i-1])} to {print_expr(tr[i])}")

    match outcome:
        case StuckAt(_, reason):
            fail("progress", len(tr) - 1, f"stuck: {reason}")
        case FuelExhausted():
            fail("fuel-exhausted", len(tr) - 1, f"no value after {fuel} steps")
        case Value() if subtype(judgments[0].type, NUM_OR_BOOL):
            if not subtype(judgments[-1].type, judgments[0].type):
                fail("soundness", len(tr) - 1, "final value type exceeds the initial type")
            if not is_subpred(judgments[-1].pred, judgments[0].pred):
                fail("soundness", len(tr) - 1, "final value predicate exceeds the initial one")

    if delta:
        erasures: dict = {}
        erased = [erase_expr(t, erasures) for t in tr]
        # The erased run must be the erased chain, term by term and no
        # longer.  A term with nothing to erase runs as itself: `trace` is
        # deterministic.
        run = tr if erased[0] is e else trace(erased[0], fuel)[0]
        if run != erased:
            i = next((i for i, (a, b) in enumerate(zip(run, erased)) if a != b),
                     min(len(run), len(erased)))
            fail("erasure-commutation", i - 1, "erasure does not commute with reduction")

    return failures


# ---------------------------------------------------------------------------
# Shrinking


def _positions(e: Expr) -> list[int]:
    """The nodes of `e` in pre-order, each named by its post-order index.
    A subtree holds the post-order indices from its first leaf's to its
    root's, so pre-order sorts by the first one, the larger subtree (the
    ancestor) first."""
    spans: list[tuple[int, int]] = []  # (first index, -size) per node, in post-order

    def visit(x, sizes=()):
        size = 1 + sum(sizes)
        spans.append((len(spans) + 1 - size, -size))
        return size

    fold(e, visit, visit)
    return sorted(range(len(spans)), key=spans.__getitem__)


def _replace(e: Expr, pos: int, repl: Expr) -> Expr:
    """`e` with its node at post-order index `pos` replaced by `repl`."""
    index = itertools.count()

    def visit(x, kids=()):
        return repl if next(index) == pos else _rebuild(x, kids)

    return fold(e, visit, visit)


# The most checks `shrink_failure` runs on one failing term: each re-runs
# the reduction chain, so unbounded shrinking could dominate a fuzz run.
SHRINK_BUDGET = 200


def shrink_failure(e: Expr, failures: list[FuzzFailure], delta: frozenset,
                   check) -> tuple[Expr, list[FuzzFailure]]:
    """Greedily replace subterms of `e`, whose `check` found `failures`,
    with literals while the term stays primary-typed under `delta` and
    `check(term, judgment)`, given the term's primary judgment, still
    finds failures.  Returns the minimal term with the failures its check
    found, `e` with `failures` if no candidate fails, after at most
    `SHRINK_BUDGET` checks."""
    candidates = (Num(0), Bool(True), Bool(False))
    budget = SHRINK_BUDGET
    changed = True
    # A literal has nothing left to shrink.
    while changed and budget > 0 and not isinstance(e, (Num, Bool)):
        changed = False
        for pos in _positions(e):
            for lit in candidates:
                cand = _replace(e, pos, lit)
                if cand == e:
                    continue
                try:
                    j = typecheck(delta, {}, cand, Mode.PRIMARY)
                except TypeCheckError:
                    continue
                budget -= 1
                if found := check(cand, j):
                    e, failures = cand, found
                    changed = True
                    break
                if budget <= 0:
                    return e, failures
            if changed:
                break
    return e, failures


# ---------------------------------------------------------------------------
# The driver


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Deterministic for a given config; failures are data, not errors."""
    start = time.monotonic()
    delta = frozenset(REFINING if config.with_refinements else ())
    report = FuzzReport(seed=config.seed)

    def check(t: Expr, j: Judgment) -> list[FuzzFailure]:
        return check_subject_reduction(t, config.fuel, delta, j)

    for i in range(config.count):
        rng = random.Random(f"{config.seed}:{i}")
        e = gen_typed_term(rng, config.max_depth, delta)
        j = typecheck(delta, {}, e, Mode.PRIMARY, coverage=report.coverage)
        report.generated += 1

        if parse_expr(print_expr(e)) != e:
            report.failures.append(
                FuzzFailure("roundtrip", print_expr(e), 0,
                            "printing then parsing changed the term"))

        if fails := check(e, j):
            report.failures += shrink_failure(e, fails, delta, check)[1]
    report.elapsed_ms = (time.monotonic() - start) * 1000.0
    return report
