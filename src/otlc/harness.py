"""Randomized soundness testing.

Generates well-typed closed terms, reduces them, and checks per step that
typing is preserved (type shrinks, predicate is a sub-predicate), that
non-values always step, that terminating runs of base-typed terms end in
a suitably typed value, and, when refinements are enabled, that erasure
commutes with reduction and preserves typability.

Subject-reduction judgments are taken on the refinement-erased terms:
refinement soundness is established by erasure, and the predicates of
refinement tests on literals are not stable step-to-step in the unerased
system.  Without refinements erasure is the identity, so this is the
plain check.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .checker import (
    Judgment,
    Mode,
    TypeCheckError,
    env_minus,
    env_plus,
    is_subpred,
    typecheck,
)
from .refine import (
    CHAIN_CONSTANT_TYPES,
    erase_env,
    erase_expr,
    erase_pred,
    erase_type,
    erased_judgment_holds,
)
from .semantics import FuelExhausted, StuckAt, evaluate, trace
from .subtyping import CONSTANT_TYPES, UndeclaredRefinement, subtype
from .syntax import (
    BOOLEAN,
    FALSE_T,
    NONE_PRED,
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
    TrueT,
    FalseT,
    NumT,
    UnionT,
    Var,
    VarPred,
    free_vars,
    is_value,
    parse_expr,
    print_expr,
)

NUM_OR_BOOL = UnionT((NUM, TRUE_T, FALSE_T))
REFINE_EVEN = Refine(Constant.EVEN_P)

_PREDICATE_CONSTANTS = (
    Constant.NOT, Constant.NUMBER_P, Constant.BOOLEAN_P, Constant.PROCEDURE_P,
)

# How many of each builder a 100-card deck holds.  `_Gen.expr` tries at most
# _BUILDER_TRIES builders, drawn one at a time without replacement: the law
# of the first cards of a shuffled deck, without shuffling the whole deck.
_BUILDERS = {"leaf": 30, "if": 30, "app": 25, "lam": 15}
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


@dataclass
class FuzzReport:
    generated: int = 0
    preservation_failures: list[FuzzFailure] = field(default_factory=list)
    progress_failures: list[FuzzFailure] = field(default_factory=list)
    erasure_failures: list[FuzzFailure] = field(default_factory=list)
    roundtrip_failures: list[FuzzFailure] = field(default_factory=list)
    coverage: dict[str, int] = field(default_factory=dict)
    seed: int = 0
    elapsed_ms: float = 0.0

    def all_failures(self) -> list[FuzzFailure]:
        return (self.preservation_failures + self.progress_failures
                + self.erasure_failures + self.roundtrip_failures)

    def to_dict(self) -> dict:
        return {
            "generated": self.generated,
            "failures": [
                {"kind": f.kind, "term": f.term, "step": f.step, "detail": f.detail}
                for f in self.all_failures()
            ],
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


class _Gen:
    def __init__(self, rng: random.Random, delta: frozenset, with_refinements: bool):
        self.rng = rng
        self.delta = delta
        self.with_refinements = with_refinements
        self.counter = 0
        self.goals = [NUM, BOOLEAN, TOP, NUM_OR_BOOL]
        self.annots = [TOP, NUM, BOOLEAN, NUM_OR_BOOL, Arrow(NUM, NUM), Arrow(TOP, BOOLEAN)]
        if with_refinements:
            self.annots.append(Arrow(REFINE_EVEN, NUM))

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def fits(self, t, goal) -> bool:
        try:
            return subtype(self.delta, t, goal)
        except UndeclaredRefinement:
            return False

    def expr(self, env: dict, goal, depth: int) -> Expr:
        if depth <= 1:
            return self.leaf(env, goal)
        names = list(_BUILDERS)
        left = list(_BUILDERS.values())
        for _ in range(_BUILDER_TRIES):
            k = self.rng.choices(range(len(left)), left)[0]
            left[k] -= 1
            name = names[k]
            try:
                if name == "leaf":
                    return self.leaf(env, goal)
                if name == "if":
                    return self.cond(env, goal, depth)
                if name == "app":
                    return self.app(env, goal, depth)
                return self.lam(env, goal, depth)
            except _GenFail:
                continue
        return self.leaf(env, goal)

    def leaf(self, env: dict, goal) -> Expr:
        usable = [x for x, t in env.items() if self.fits(t, goal)]
        if usable and self.rng.random() < 0.5:
            return Var(self.rng.choice(usable))
        return self.literal(env, goal)

    def literal(self, env: dict, g) -> Expr:
        match g:
            case NumT():
                return Num(self.rng.randint(-10, 99))
            case TrueT():
                return Bool(True)
            case FalseT():
                return Bool(False)
            case UnionT(members):
                if g == BOOLEAN:
                    return Bool(self.rng.random() < 0.5)
                if not members:
                    raise _GenFail
                return self.literal(env, self.rng.choice(members))
            case Arrow(arg, res, latent):
                if latent is None:
                    for c in Constant:
                        if self.fits(CONSTANT_TYPES[c], g) and self.rng.random() < 0.4:
                            return Const(c)
                x = self.fresh()
                body = self.expr({**env, x: arg}, res, 1)
                e = Abs(x, arg, body)
                # the inferred latent must match; revalidation catches misses
                return e
            case Refine(_):
                usable = [x for x, t in env.items() if self.fits(t, g)]
                if not usable:
                    raise _GenFail
                return Var(self.rng.choice(usable))
            case _:  # Top
                pick = self.rng.random()
                if pick < 0.35:
                    return Num(self.rng.randint(-10, 99))
                if pick < 0.6:
                    return Bool(self.rng.random() < 0.5)
                if pick < 0.8:
                    return Const(self.rng.choice(list(Constant)[:5]))
                return self.literal(env, Arrow(NUM, NUM))

    def vet(self, env: dict, e: Expr) -> tuple[Judgment, Judgment]:
        """Primary judgment of `e` plus its judgment in the system used to
        re-judge reduction chains (erased, extended, `CHAIN_CONSTANT_TYPES`).
        The chain-side predicate must agree with the erasure of the primary
        one or be plain `none`; otherwise the narrowing assumed while
        generating the surrounding term will not match the narrowing seen
        when the chain is re-judged.  Bare-variable predicates are out
        entirely: a Boolean variable narrowed to True does not cover the
        value #t (typed at Boolean) substituted for it."""
        try:
            j = typecheck(self.delta, env, e, Mode.PRIMARY)
            je = typecheck(frozenset(), erase_env(env), erase_expr(e),
                           Mode.EXTENDED, constants=CHAIN_CONSTANT_TYPES)
        except (TypeCheckError, UndeclaredRefinement):
            raise _GenFail from None
        if isinstance(j.pred, VarPred) and not isinstance(e, Var):
            raise _GenFail
        if je.pred != NONE_PRED and erase_pred(j.pred) != je.pred:
            raise _GenFail
        return j, je

    def cond(self, env: dict, goal, depth: int) -> Expr:
        test = self.make_test(env, depth)
        j1, je1 = self.vet(env, test)
        if isinstance(j1.pred, VarPred):
            raise _GenFail
        try:
            env_then = env_plus(self.delta, env, j1.pred)
            env_else = env_minus(self.delta, env, j1.pred)
            erased = erase_env(env)
            chain_then = env_plus(frozenset(), erased, je1.pred)
            chain_else = env_minus(frozenset(), erased, je1.pred)
        except (TypeCheckError, UndeclaredRefinement):
            raise _GenFail from None
        # Branches are generated under the primary narrowing; they stay
        # typeable when re-judged only if the chain-side narrowing is at
        # least as strong pointwise (a dead branch narrowed to the empty
        # union has no chain-side counterpart, for example).
        for mine, chain in ((env_then, chain_then), (env_else, chain_else)):
            if not all(subtype(frozenset(), chain[x], erase_type(mine[x]))
                       for x in mine):
                raise _GenFail
        then = self.expr(env_then, goal, depth - 1)
        els = self.expr(env_else, goal, depth - 1)
        return If(test, then, els)

    def make_test(self, env: dict, depth: int) -> Expr:
        narrowable = [x for x, t in env.items() if t == TOP or isinstance(t, UnionT)]
        if narrowable and self.rng.random() < 0.6:
            x = self.rng.choice(narrowable)
            c = self.rng.choice((Constant.NUMBER_P, Constant.BOOLEAN_P))
            return App(Const(c), Var(x))
        if self.with_refinements:
            nums = [x for x, t in env.items() if self.fits(t, NUM)]
            if nums and self.rng.random() < 0.5:
                c = self.rng.choice((Constant.EVEN_P, Constant.ODD_P))
                return App(Const(c), Var(self.rng.choice(nums)))
        return self.expr(env, BOOLEAN, depth - 1)

    def app(self, env: dict, goal, depth: int) -> Expr:
        options = []
        if self.fits(NUM, goal):
            options.append("add1")
        if self.fits(BOOLEAN, goal):
            options.append("predicate")
        arrows = [x for x, t in env.items()
                  if isinstance(t, Arrow) and self.fits(t.res, goal)]
        if arrows:
            options.append("call")
        options.append("beta")
        if self.with_refinements and self.fits(NUM, goal):
            options.append("even-guard")
        match self.rng.choice(options):
            case "add1":
                return App(Const(Constant.ADD1), self.operand(env, NUM, depth))
            case "predicate":
                c = self.rng.choice(_PREDICATE_CONSTANTS)
                arg = CONSTANT_TYPES[c].arg
                strict = CONSTANT_TYPES[c].latent is not None
                return App(Const(c), self.operand(env, arg, depth, strict=strict))
            case "call":
                f = self.rng.choice(arrows)
                ft = env[f]
                return App(Var(f), self.operand(env, ft.arg, depth,
                                                strict=ft.latent is not None))
            case "even-guard":
                return self.even_guard(env, depth)
            case _:
                sigma = self.rng.choice(self.annots)
                x = self.fresh()
                body = self.expr({**env, x: sigma}, goal, depth - 1)
                fn = Abs(x, sigma, body)
                try:
                    lat = typecheck(self.delta, env, fn, Mode.PRIMARY).type.latent
                except (TypeCheckError, UndeclaredRefinement):
                    raise _GenFail from None
                arg = self.operand(env, sigma, depth, strict=lat is not None)
                return App(fn, arg)

    def operand(self, env: dict, want, depth: int, strict: bool = False) -> Expr:
        """Argument expression fitting `want`.  When the operator carries a
        latent predicate (`strict`), the application's predicate is built
        from the operand's, so a compound operand must pass `vet`."""
        usable = [x for x, t in env.items() if self.fits(t, want)]
        if usable and self.rng.random() < 0.6:
            return Var(self.rng.choice(usable))
        e = self.expr(env, want, depth - 1)
        if strict and not isinstance(e, Var):
            self.vet(env, e)
        return e

    def even_guard(self, env: dict, depth: int) -> Expr:
        """A function guarded by a parity test, applied to concrete values:
        ((lambda (f : (-> (Refinement even?) Number))
           (lambda (n : Number) (if (even? n) (f n) n))) v_f) v_n."""
        f, n, m = self.fresh(), self.fresh(), self.fresh()
        guarded = Abs(
            f, Arrow(REFINE_EVEN, NUM),
            Abs(n, NUM, If(App(Const(Constant.EVEN_P), Var(n)),
                           App(Var(f), Var(n)), Var(n))))
        fn_arg = Abs(m, NUM, self.operand({**env, m: NUM}, NUM, depth - 1))
        num_arg = self.operand(env, NUM, depth - 1)
        return App(App(guarded, fn_arg), num_arg)

    def lam(self, env: dict, goal, depth: int) -> Expr:
        if isinstance(goal, Arrow):
            if goal.latent is not None:
                raise _GenFail  # inferred latents rarely line up; let leaves handle it
            x = self.fresh()
            return Abs(x, goal.arg, self.expr({**env, x: goal.arg}, goal.res, depth - 1))
        if goal == TOP:
            sigma = self.rng.choice(self.annots)
            x = self.fresh()
            res = self.rng.choice(self.goals)
            return Abs(x, sigma, self.expr({**env, x: sigma}, res, depth - 1))
        raise _GenFail


def gen_typed_term(rng: random.Random, max_depth: int, delta: frozenset,
                   with_refinements: bool = False,
                   coverage: dict[str, int] | None = None) -> Expr:
    """A closed term that typechecks with the primary rules under `delta`.
    `coverage`, when given, counts the rules of the term's primary
    judgment, as `typecheck` does; the judgment is taken once, here."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    delta = frozenset(delta)
    for attempt in range(60):
        depth = max(1, max_depth - attempt // 20)
        gen = _Gen(rng, delta, with_refinements)
        goal = rng.choice(gen.goals)
        try:
            e = gen.expr({}, goal, depth)
        except _GenFail:
            continue
        if free_vars(e):
            continue
        rules = None if coverage is None else {}
        try:
            typecheck(delta, {}, e, Mode.PRIMARY, coverage=rules)
        except (TypeCheckError, UndeclaredRefinement):
            continue
        if rules:
            for rule, n in rules.items():
                coverage[rule] = coverage.get(rule, 0) + n
        return e
    e = Num(rng.randint(0, 9))
    typecheck(delta, {}, e, Mode.PRIMARY, coverage=coverage)
    return e


# ---------------------------------------------------------------------------
# Subject reduction


def _is_base(t) -> bool:
    t = erase_type(t)
    if isinstance(t, (NumT, TrueT, FalseT)):
        return True
    if isinstance(t, UnionT):
        return all(_is_base(m) for m in t.members)
    return False


def check_subject_reduction(e: Expr, fuel: int, delta: frozenset,
                            with_refinements: bool = False) -> list[FuzzFailure]:
    """Per-step verdicts for one primary-typed closed term; empty list
    means every clause held."""
    delta = frozenset(delta)
    failures: list[FuzzFailure] = []

    def fail(kind: str, i: int, detail: str):
        failures.append(FuzzFailure(kind, print_expr(e), i, detail))

    tr = trace(e, fuel)

    erased = []
    judgments = []
    for i, term in enumerate(tr):
        erased.append(erase_expr(term))
        try:
            judgments.append(
                typecheck(frozenset(), {}, erased[i], Mode.EXTENDED,
                          constants=CHAIN_CONSTANT_TYPES))
        except TypeCheckError as err:
            fail("preservation", i, f"intermediate term untypeable: {err}")
            return failures

    for i in range(1, len(judgments)):
        prev, cur = judgments[i - 1], judgments[i]
        if not subtype(frozenset(), cur.type, prev.type):
            fail("preservation", i,
                 f"type widened from {print_expr(tr[i-1])} to {print_expr(tr[i])}")
        if not is_subpred(cur.pred, prev.pred):
            fail("preservation", i,
                 f"predicate not preserved from {print_expr(tr[i-1])} to {print_expr(tr[i])}")

    last = tr[-1]
    match evaluate(last, 0):
        case StuckAt(_, reason):
            fail("progress", len(tr) - 1, f"stuck: {reason}")
        case FuelExhausted():
            fail("fuel-exhausted", len(tr) - 1, f"no value after {fuel} steps")

    if is_value(last) and _is_base(judgments[0].type):
        if not subtype(frozenset(), judgments[-1].type, judgments[0].type):
            fail("soundness", len(tr) - 1, "final value type exceeds the initial type")
        if not is_subpred(judgments[-1].pred, judgments[0].pred):
            fail("soundness", len(tr) - 1, "final value predicate exceeds the initial one")

    if with_refinements:
        if not erased_judgment_holds(delta, {}, e):
            fail("erased-typing", 0, "erased term does not carry the erased judgment")
        # The erased run must be the erased chain, term by term and no longer.
        erased_run = trace(erased[0], fuel)
        if erased_run != erased:
            i = next((i for i, (a, b) in enumerate(zip(erased_run, erased)) if a != b),
                     min(len(erased_run), len(erased)))
            fail("erasure-commutation", i - 1, "erasure does not commute with reduction")

    return failures


# ---------------------------------------------------------------------------
# Shrinking


def _positions(e: Expr, path=()) -> list[tuple]:
    out = [path]
    match e:
        case Abs(_, _, body):
            out += _positions(body, path + ("body",))
        case App(rator, rand):
            out += _positions(rator, path + ("rator",))
            out += _positions(rand, path + ("rand",))
        case If(test, then, els):
            out += _positions(test, path + ("test",))
            out += _positions(then, path + ("then",))
            out += _positions(els, path + ("els",))
    return out


def _replace(e: Expr, path: tuple, repl: Expr) -> Expr:
    if not path:
        return repl
    head, rest = path[0], path[1:]
    match e:
        case Abs(param, annot, body):
            return Abs(param, annot, _replace(body, rest, repl))
        case App(rator, rand):
            if head == "rator":
                return App(_replace(rator, rest, repl), rand)
            return App(rator, _replace(rand, rest, repl))
        case If(test, then, els):
            if head == "test":
                return If(_replace(test, rest, repl), then, els)
            if head == "then":
                return If(test, _replace(then, rest, repl), els)
            return If(test, then, _replace(els, rest, repl))
    return repl


def shrink_failure(e: Expr, delta: frozenset, still_fails, budget: int = 200) -> Expr:
    """Greedily replace subterms with literals while the term stays
    primary-typed and `still_fails` keeps holding.  `budget` caps the
    number of `still_fails` evaluations (each one re-runs the reduction
    chain, so unbounded shrinking can dominate a fuzz run)."""
    candidates = (Num(0), Bool(True), Bool(False))
    changed = True
    while changed and budget > 0:
        changed = False
        for path in _positions(e):
            if not path and isinstance(e, (Num, Bool)):
                continue
            for lit in candidates:
                cand = _replace(e, path, lit)
                if cand == e:
                    continue
                try:
                    typecheck(delta, {}, cand, Mode.PRIMARY)
                except (TypeCheckError, UndeclaredRefinement):
                    continue
                budget -= 1
                if still_fails(cand):
                    e = cand
                    changed = True
                    break
                if budget <= 0:
                    return e
            if changed:
                break
    return e


# ---------------------------------------------------------------------------
# The driver


_KIND_BUCKET = {
    "preservation": "preservation_failures",
    "soundness": "preservation_failures",
    "progress": "progress_failures",
    "fuel-exhausted": "progress_failures",
    "erased-typing": "erasure_failures",
    "erasure-commutation": "erasure_failures",
}


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Deterministic for a given config; failures are data, not errors."""
    start = time.monotonic()
    delta = (frozenset({Constant.EVEN_P, Constant.ODD_P})
             if config.with_refinements else frozenset())
    report = FuzzReport(seed=config.seed)
    for i in range(config.count):
        rng = random.Random(f"{config.seed}:{i}")
        e = gen_typed_term(rng, config.max_depth, delta, config.with_refinements,
                           coverage=report.coverage)
        report.generated += 1

        if parse_expr(print_expr(e)) != e:
            report.roundtrip_failures.append(
                FuzzFailure("roundtrip", print_expr(e), 0,
                            "printing then parsing changed the term"))

        fails = check_subject_reduction(e, config.fuel, delta, config.with_refinements)
        if fails:
            def still_fails(t):
                return bool(check_subject_reduction(
                    t, config.fuel, delta, config.with_refinements))

            minimal = shrink_failure(e, delta, still_fails)
            min_fails = check_subject_reduction(
                minimal, config.fuel, delta, config.with_refinements) or fails
            for f in min_fails:
                getattr(report, _KIND_BUCKET[f.kind]).append(f)
    report.elapsed_ms = (time.monotonic() - start) * 1000.0
    return report
