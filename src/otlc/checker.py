"""The occurrence-typing judgment: environment narrowing, predicate
combination, and the syntax-directed typechecker.

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
        self.rule = rule
        self.expr = expr
        self.detail = detail
        self.trail = [rule]
        super().__init__(detail)

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


def _lookup(g: TypeEnv, x: str, e: Expr) -> Type:
    try:
        return g[x]
    except KeyError:
        raise TypeCheckError("T-Var", e, f"unbound variable {x}") from None


def env_plus(g: TypeEnv, p: Pred) -> TypeEnv:
    """Refine the environment for the then branch of a conditional."""
    match p:
        case TypeOfPred(t, x):
            return {**g, x: restrict(_lookup(g, x, Var(x)), t)}
        case VarPred(x):
            return {**g, x: remove(_lookup(g, x, Var(x)), FALSE_T)}
        case _:
            return g


def env_minus(g: TypeEnv, p: Pred) -> TypeEnv:
    """Refine the environment for the else branch of a conditional."""
    match p:
        case TypeOfPred(t, x):
            return {**g, x: remove(_lookup(g, x, Var(x)), t)}
        case VarPred(x):
            _lookup(g, x, Var(x))
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


def typecheck(
    delta: frozenset,
    g: TypeEnv,
    e: Expr,
    mode: Mode = Mode.PRIMARY,
    coverage: dict[str, int] | None = None,
    memo: dict[int, Judgment] | None = None,
) -> Judgment:
    """Derive the type and visible predicate of `e` under `g`, with an
    explicit stack of premise frames, so a term of any depth checks.

    T-Abs rejects an annotation naming a refinement outside `delta`, the
    declared refinement predicates.  `coverage`, when given, counts how
    often each typing rule fires.  Each constant has its type in the
    table under `delta`, `constant_types`.

    `memo`, when given, holds by `id` the judgment of each node reached
    under the empty environment, which under a closed root is each node
    outside every binder, so the node alone is the key.  Errors are not
    stored.  Share a memo only between calls with the same `delta` and
    `mode`, and only while every node it names is alive.  A hit counts no
    rules, so `memo` and `coverage` exclude each other.
    """
    if memo is not None and coverage is not None:
        raise ValueError("typecheck: a memo hit counts no rules; pass memo or coverage, not both")
    constants = constant_types(delta)
    extended = mode is Mode.EXTENDED

    # One frame per judgment waiting on a premise: (the rule the premise is
    # judged under, the node, the node's environment, the judgments of its
    # premises so far).  A frame is off the stack while its node concludes,
    # so an error's trail names the rules of the frames above that node.
    frames: list[tuple] = []
    try:
        while True:
            # Descend to the leftmost premise not yet judged.
            cls = e.__class__
            if memo is not None and not g and id(e) in memo:
                rule, j = None, memo[id(e)]  # no rule to count: there is no coverage
            elif cls is App:
                frames.append(("T-App", e, g, ()))
                e = e.rator
                continue
            elif cls is If:
                frames.append(("T-If", e, g, ()))
                e = e.test
                continue
            elif cls is Abs:
                if (c := undeclared(delta, e.annot)) is not None:
                    raise TypeCheckError(
                        "T-Abs", e, f"refinement predicate {c.value} is not declared")
                frames.append(("T-Abs", e, g, ()))
                e, g = e.body, {**g, e.param: e.annot}
                continue
            elif cls is Var:
                rule, j = "T-Var", Judgment(_lookup(g, e.name, e), VarPred(e.name))
            elif cls is Num:
                rule, j = "T-Num", Judgment(literal_type(delta, e.value) if extended else NUM, TT)
            elif cls is Const:
                rule, j = "T-Const", Judgment(constants[e.c], TT)
            elif cls is Bool:
                rule, t, pred = ("T-True", TRUE_T, TT) if e.value else ("T-False", FALSE_T, FF)
                j = Judgment(t if extended else BOOLEAN, pred)
            else:
                raise TypeCheckError("T-?", e, f"not an expression: {e!r}")
            if coverage is not None:
                coverage[rule] = coverage.get(rule, 0) + 1
            # Hand `j` up to the first frame with a premise left, which
            # becomes `e` under `g`.
            while frames:
                rule, node, env, js = frames.pop()
                js += (j,)
                if rule == "T-App":
                    if len(js) == 1:
                        frames.append((rule, node, env, js))
                        e, g = node.rand, env
                        break
                    op_type = js[0].type
                    if extended and op_type is BOT:
                        # A narrowing can leave an operator in a dead branch
                        # at Bot, which subsumption makes a function type.
                        op_type = Arrow(TOP, BOT)
                    if not isinstance(op_type, Arrow):
                        raise TypeCheckError(
                            "T-App", node, f"operator has non-function type {print_type(op_type)}")
                    if not subtype(j.type, op_type.arg):
                        raise TypeCheckError(
                            "T-App", node,
                            f"argument type {print_type(j.type)} is not a subtype of "
                            f"{print_type(op_type.arg)}")
                    # A variable operand keeps the informative per-variable
                    # predicate; letting the constant-predicate rules win
                    # there makes the extended judgment diverge from the
                    # primary one inside binders.  On other operands they
                    # are the rules that keep reducts typeable.
                    latent, rule, pred = op_type.latent, "T-App", NONE_PRED
                    if latent is not None and isinstance(j.pred, VarPred):
                        rule, pred = "T-AppPred", TypeOfPred(latent, j.pred.var)
                    elif extended and latent is not None:
                        if subtype(j.type, latent):
                            rule, pred = "T-AppPredTrue", TT
                        elif not overlap(j.type, latent) or is_value(node.rand):
                            rule, pred = "T-AppPredFalse", FF
                    j = Judgment(op_type.res, pred)
                elif rule == "T-If":
                    if len(js) == 1 and extended and (j.pred is TT or j.pred is FF):
                        taken = j.pred is TT
                        frames.append(("T-IfTrue" if taken else "T-IfFalse", node, env, js))
                        e, g = node.then if taken else node.els, env
                        break
                    # the narrowed environments only mention variables of
                    # `env`, so building them cannot fail
                    if len(js) < 3:
                        e, g = ((node.then, env_plus(env, j.pred)) if len(js) == 1
                                else (node.els, env_minus(env, js[0].pred)))
                        frames.append((rule, node, env, js))
                        break
                    # Equal branch types join to themselves: no union to look up.
                    t = j.type if js[1].type is j.type else UnionT((js[1].type, j.type))
                    j = Judgment(t, combfilter(*(x.pred for x in js)))
                elif rule == "T-Abs":
                    pred = j.pred
                    latent = pred.type if isinstance(pred, TypeOfPred) and pred.var == node.param else None
                    rule = "T-Abs" if latent is None else "T-AbsPred"
                    j = Judgment(Arrow(node.annot, j.type, latent), TT)
                # T-IfTrue and T-IfFalse conclude with the taken branch's `j`.
                if coverage is not None:
                    coverage[rule] = coverage.get(rule, 0) + 1
                if memo is not None and not env:
                    memo[id(node)] = j
            else:
                return j
    except TypeCheckError as err:
        err.trail += [frame[0] for frame in reversed(frames)]
        raise
