"""The occurrence-typing judgment: environment narrowing, predicate
combination, and the syntax-directed typechecker, one generator function
per compound typing rule, which `typecheck` runs on an explicit stack.

Two rule sets are supported.  The primary rules are what a programmer
sees.  The extended rules keep every intermediate term of a reduction
sequence typeable: they type #t and #f at True and False and a numeric
literal at the refinement of Δ its δ holds on (`literal_type`), skip a
branch whose test is decided, decide a predicate applied to an operand
other than a variable (true when its type is below the latent, false when
the two cannot overlap or the operand is a value, whose type is exact),
and apply an operator of type Bot as (-> Top Bot).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .syntax import (
    BOOLEAN,
    BOT,
    FALSE_T,
    FF,
    NONE_PRED,
    NUM,
    TOP,
    TRUE_T,
    TT,
    Abs,
    App,
    Bool,
    Const,
    Arrow,
    Expr,
    If,
    Num,
    Pred,
    Type,
    TypeOfPred,
    UnionT,
    Var,
    VarPred,
    is_value,
    print_expr,
    print_type,
)
from .subtyping import constant_types, literal_type, overlap, subtype, undeclared

TypeEnv = dict  # identifier -> Type; treated as immutable


class Mode(Enum):
    PRIMARY = "primary"
    EXTENDED = "extended"


class Judgment(NamedTuple):
    type: Type
    pred: Pred


class TypeCheckError(Exception):
    def __init__(self, rule: str, expr: Expr, detail: str):
        super().__init__(detail)
        self.rule, self.expr, self.detail, self.trail = rule, expr, detail, [rule]

    def __str__(self) -> str:
        via = " > ".join(reversed(self.trail))
        return f"{self.rule}: {self.detail} at {print_expr(self.expr)} [via {via}]"


def restrict(s: Type, t: Type) -> Type:
    """Narrow s to the portion that is a subtype of t: a part of s that is
    not becomes t, or Bot if it cannot overlap t."""
    if subtype(s, t):
        return s
    if isinstance(s, UnionT):
        return UnionT(tuple(m if subtype(m, t) else t if overlap(m, t) else BOT
                            for m in s.members))
    return t if overlap(s, t) else BOT


def remove(s: Type, t: Type) -> Type:
    """Narrow s to the portion that is not a subtype of t."""
    if subtype(s, t):
        return BOT
    if isinstance(s, UnionT):
        return UnionT(tuple(BOT if subtype(m, t) else m for m in s.members))
    return s


def env_plus(g: TypeEnv, p: Pred) -> TypeEnv:
    """Refine `g` for the then branch of a test of predicate `p` on `g`'s variables."""
    match p:
        case TypeOfPred(t, x):
            return {**g, x: restrict(g[x], t)}
        case VarPred(x):
            return {**g, x: remove(g[x], FALSE_T)}
        case _:
            return g


def env_minus(g: TypeEnv, p: Pred) -> TypeEnv:
    """Refine `g` for the else branch of a test of predicate `p` on `g`'s variables."""
    match p:
        case TypeOfPred(t, x):
            return {**g, x: remove(g[x], t)}
        case VarPred(x):
            return {**g, x: FALSE_T}
        case _:
            return g


def combfilter(p1: Pred, p2: Pred, p3: Pred) -> Pred:
    """The predicate of a conditional, from its test and branch predicates.
    First matching clause wins."""
    if p2 == p3:
        return p2
    if (isinstance(p1, TypeOfPred) and p2 is TT
            and isinstance(p3, TypeOfPred) and p1.var == p3.var):
        return TypeOfPred(UnionT((p1.type, p3.type)), p1.var)
    if p1 is TT:
        return p2
    if p1 is FF:
        return p3
    if p2 is TT and p3 is FF:
        return p1
    return NONE_PRED


def is_subpred(p1: Pred, p2: Pred) -> bool:
    """The ordering on visible predicates used by subject reduction."""
    if p1 == p2 or p2 is NONE_PRED:
        return True
    if p1 is TT:
        return p2 is not FF
    if p1 is FF:
        return p2 is not TT
    return False


def _app(e: App, g: TypeEnv, delta: frozenset, extended: bool):
    """T-App, or by the operator's latent T-AppPred, T-AppPredTrue or T-AppPredFalse."""
    op_type = (yield "T-App", e.rator, g).type
    arg = yield "T-App", e.rand, g
    if extended and op_type is BOT:
        # A narrowing can leave an operator in a dead branch at Bot, which
        # subsumption makes a function type.
        op_type = Arrow(TOP, BOT)
    if not isinstance(op_type, Arrow):
        raise TypeCheckError("T-App", e, f"operator has non-function type {print_type(op_type)}")
    if not subtype(arg.type, op_type.arg):
        raise TypeCheckError("T-App", e, f"argument type {print_type(arg.type)} is not a "
                             f"subtype of {print_type(op_type.arg)}")
    # A variable operand keeps its per-variable predicate: the constant-
    # predicate rules, which keep reducts typeable, would make the extended
    # judgment diverge there from the primary one inside binders.
    latent, rule, pred = op_type.latent, "T-App", NONE_PRED
    if latent is not None and isinstance(arg.pred, VarPred):
        rule, pred = "T-AppPred", TypeOfPred(latent, arg.pred.var)
    elif extended and latent is not None:
        if subtype(arg.type, latent):
            rule, pred = "T-AppPredTrue", TT
        elif not overlap(arg.type, latent) or is_value(e.rand):
            rule, pred = "T-AppPredFalse", FF
    yield rule, Judgment(op_type.res, pred)


def _if(e: If, g: TypeEnv, delta: frozenset, extended: bool):
    """T-If, or the extended T-IfTrue and T-IfFalse, which judge only the branch taken."""
    test = (yield "T-If", e.test, g).pred
    if extended and (test is TT or test is FF):
        rule = "T-IfTrue" if test is TT else "T-IfFalse"
        yield rule, (yield rule, e.then if test is TT else e.els, g)
    else:
        then = yield "T-If", e.then, env_plus(g, test)
        els = yield "T-If", e.els, env_minus(g, test)
        # Equal branch types join to themselves: no union to look up.
        t = then.type if then.type is els.type else UnionT((then.type, els.type))
        yield "T-If", Judgment(t, combfilter(test, then.pred, els.pred))


def _abs(e: Abs, g: TypeEnv, delta: frozenset, extended: bool):
    """T-Abs, or T-AbsPred when the body's predicate is about the parameter."""
    if (c := undeclared(delta, e.annot)) is not None:
        raise TypeCheckError("T-Abs", e, f"refinement predicate {c.value} is not declared")
    body = yield "T-Abs", e.body, {**g, e.param: e.annot}
    if isinstance(body.pred, TypeOfPred) and body.pred.var == e.param:
        yield "T-AbsPred", Judgment(Arrow(e.annot, body.type, body.pred.type), TT)
    else:
        yield "T-Abs", Judgment(Arrow(e.annot, body.type), TT)


# The rule function of each compound term.  It yields `(rule, premise, env)`
# for each premise in the order the rule judges them, and is sent back the
# premise's judgment; after the side conditions it yields `(rule, judgment)`.
_RULES = {App: _app, If: _if, Abs: _abs}


def typecheck(delta: frozenset, g: TypeEnv, e: Expr, mode: Mode = Mode.PRIMARY,
              coverage: dict[str, int] | None = None,
              memo: dict[int, Judgment] | None = None) -> Judgment:
    """Derive the type and visible predicate of `e` under `g`: a leaf here,
    a compound term by its rule function in `_RULES`, run on an explicit
    stack of pending rules so that a term of any depth checks.  `delta`
    declares the refinement predicates, which T-Abs checks annotations
    against and `constant_types` types the constants by.  `coverage`, when
    given, counts how often each typing rule fires.  `memo`, when given,
    holds by `id` the judgment of each node reached under the empty
    environment, which under a closed root is each node outside every
    binder, so the node alone is the key.  Errors are not stored.  Share a
    memo only between calls with the same `delta` and `mode`, and only
    while every node it names is alive.  A hit counts no rules, so `memo`
    and `coverage` exclude each other."""
    if memo is not None and coverage is not None:
        raise ValueError("typecheck: a memo hit counts no rules; pass memo or coverage, not both")
    constants = constant_types(delta)
    extended = mode is Mode.EXTENDED

    # Per pending rule, (its rule function, the rule its premise is judged
    # under, its memo key or None); off the stack while the rule concludes.
    stack: list[tuple] = []
    try:
        while True:
            cls = e.__class__
            if memo is not None and not g and id(e) in memo:
                rule, j = None, memo[id(e)]  # no rule to count: there is no coverage
            elif (rule_of := _RULES.get(cls)) is not None:
                key = id(e) if memo is not None and not g else None
                gen = rule_of(e, g, delta, extended)
                rule, e, g = gen.send(None)
                stack.append((gen, rule, key))
                continue
            elif cls is Var:
                if (t := g.get(e.name)) is None:
                    raise TypeCheckError("T-Var", e, f"unbound variable {e.name}")
                rule, j = "T-Var", Judgment(t, VarPred(e.name))
            elif cls is Num:
                rule, j = "T-Num", Judgment(literal_type(delta, e.value) if extended else NUM, TT)
            elif cls is Const:
                rule, j = "T-Const", Judgment(constants[e.c], TT)
            elif cls is Bool:
                rule, t, pred = ("T-True", TRUE_T, TT) if e.value else ("T-False", FALSE_T, FF)
                j = Judgment(t if extended else BOOLEAN, pred)
            else:
                raise TypeCheckError("T-?", e, f"not an expression: {e!r}")
            # Send `j` to the pending rules until one yields a premise.
            while True:
                if coverage is not None:
                    coverage[rule] = coverage.get(rule, 0) + 1
                if not stack:
                    return j
                gen, _, key = stack.pop()
                step = gen.send(j)
                if len(step) == 3:
                    rule, e, g = step
                    stack.append((gen, rule, key))
                    break
                rule, j = step
                next(gen, None)  # run it to its end, which is cheaper than closing it
                if key is not None:
                    memo[key] = j
    except TypeCheckError as err:
        err.trail += [entry[1] for entry in reversed(stack)]
        raise
