"""The occurrence-typing judgment: environment narrowing, predicate
combination, and the syntax-directed typechecker.

Two rule sets are supported.  The primary rules are what a programmer
sees.  The extended rules additionally let the checker skip a conditional
branch whose test is statically known true or false, and assign constant
truth predicates to applications of predicates to closed values; they
exist so that every intermediate term of a reduction sequence stays
typeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .syntax import (
    BOOLEAN,
    BOT,
    FALSE_T,
    FF,
    NONE_PRED,
    NonePred,
    NUM,
    TT,
    Abs,
    App,
    Bool,
    Const,
    Constant,
    Arrow,
    Expr,
    FalsePred,
    If,
    Num,
    Pred,
    TruePred,
    Type,
    TypeOfPred,
    UnionT,
    Var,
    VarPred,
    free_vars,
    is_value,
    print_expr,
    print_type,
)
from .subtyping import CONSTANT_TYPES, subtype

TypeEnv = dict  # identifier -> Type; treated as immutable


class Mode(Enum):
    PRIMARY = "primary"
    EXTENDED = "extended"


@dataclass(frozen=True)
class Judgment:
    type: Type
    pred: Pred


class TypeCheckError(Exception):
    def __init__(self, rule: str, expr: Expr, detail: str):
        self.rule = rule
        self.expr = expr
        self.detail = detail
        self.trail = [rule]
        super().__init__(detail)

    def push(self, rule: str):
        self.trail.append(rule)

    def __str__(self) -> str:
        via = " > ".join(reversed(self.trail))
        return f"{self.rule}: {self.detail} at {print_expr(self.expr)} [via {via}]"


def restrict(delta: frozenset, s: Type, t: Type) -> Type:
    """Narrow s to the portion that is a subtype of t."""
    if subtype(delta, s, t):
        return s
    if isinstance(s, UnionT):
        return UnionT(tuple(restrict(delta, m, t) for m in s.members))
    return t


def remove(delta: frozenset, s: Type, t: Type) -> Type:
    """Narrow s to the portion that is not a subtype of t."""
    if subtype(delta, s, t):
        return BOT
    if isinstance(s, UnionT):
        return UnionT(tuple(remove(delta, m, t) for m in s.members))
    return s


def _lookup(g: TypeEnv, x: str, e: Expr) -> Type:
    try:
        return g[x]
    except KeyError:
        raise TypeCheckError("T-Var", e, f"unbound variable {x}") from None


def env_plus(delta: frozenset, g: TypeEnv, p: Pred) -> TypeEnv:
    """Refine the environment for the then branch of a conditional."""
    match p:
        case TypeOfPred(t, x):
            return {**g, x: restrict(delta, _lookup(g, x, Var(x)), t)}
        case VarPred(x):
            return {**g, x: remove(delta, _lookup(g, x, Var(x)), FALSE_T)}
        case _:
            return g


def env_minus(delta: frozenset, g: TypeEnv, p: Pred) -> TypeEnv:
    """Refine the environment for the else branch of a conditional."""
    match p:
        case TypeOfPred(t, x):
            return {**g, x: remove(delta, _lookup(g, x, Var(x)), t)}
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
    if (isinstance(p1, TypeOfPred) and isinstance(p2, TruePred)
            and isinstance(p3, TypeOfPred) and p1.var == p3.var):
        return TypeOfPred(UnionT((p1.type, p3.type)), p1.var)
    if isinstance(p1, TruePred):
        return p2
    if isinstance(p1, FalsePred):
        return p3
    if isinstance(p2, TruePred) and isinstance(p3, FalsePred):
        return p1
    return NONE_PRED


def is_subpred(p1: Pred, p2: Pred) -> bool:
    """The ordering on visible predicates used by subject reduction."""
    if p1 == p2:
        return True
    if isinstance(p2, NonePred):
        return True
    if isinstance(p1, TruePred):
        return not isinstance(p2, FalsePred)
    if isinstance(p1, FalsePred):
        return not isinstance(p2, TruePred)
    return False


def typecheck(
    delta: frozenset | set,
    g: TypeEnv,
    e: Expr,
    mode: Mode = Mode.PRIMARY,
    coverage: dict[str, int] | None = None,
    constants: dict[Constant, Arrow] = CONSTANT_TYPES,
) -> Judgment:
    """Derive the type and visible predicate of `e` under `g`.

    `coverage`, when given, counts how often each typing rule fires.
    `constants` gives the type of each constant: `CONSTANT_TYPES`, or one
    of the erased tables of `otlc.refine`.
    """
    delta = frozenset(delta)

    def hit(rule: str):
        if coverage is not None:
            coverage[rule] = coverage.get(rule, 0) + 1

    def under(rule: str, g: TypeEnv, e: Expr) -> Judgment:
        """Judge a premise of `rule`, adding `rule` to the trail of its error."""
        try:
            return check(g, e)
        except TypeCheckError as err:
            err.push(rule)
            raise

    def check(g: TypeEnv, e: Expr) -> Judgment:
        match e:
            case Var(name):
                t = _lookup(g, name, e)
                hit("T-Var")
                return Judgment(t, VarPred(name))
            case Num(_):
                hit("T-Num")
                return Judgment(NUM, TT)
            case Const(c):
                hit("T-Const")
                return Judgment(constants[c], TT)
            case Bool(value):
                hit("T-True" if value else "T-False")
                return Judgment(BOOLEAN, TT if value else FF)
            case Abs(param, annot, body):
                jb = under("T-Abs", {**g, param: annot}, body)
                if isinstance(jb.pred, TypeOfPred) and jb.pred.var == param:
                    hit("T-AbsPred")
                    return Judgment(Arrow(annot, jb.type, jb.pred.type), TT)
                hit("T-Abs")
                return Judgment(Arrow(annot, jb.type, None), TT)
            case App(rator, rand):
                return check_app(g, e, rator, rand)
            case If(test, then, els):
                return check_if(g, e, test, then, els)
        raise TypeCheckError("T-?", e, f"not an expression: {e!r}")

    def check_app(g: TypeEnv, e: Expr, rator: Expr, rand: Expr) -> Judgment:
        j1 = under("T-App", g, rator)
        j2 = under("T-App", g, rand)
        op_type = j1.type
        if not isinstance(op_type, Arrow):
            raise TypeCheckError(
                "T-App", e, f"operator has non-function type {print_type(j1.type)}")
        if not subtype(delta, j2.type, op_type.arg):
            raise TypeCheckError(
                "T-App", e,
                f"argument type {print_type(j2.type)} is not a subtype of "
                f"{print_type(op_type.arg)}")
        latent = op_type.latent
        # A variable operand keeps the informative per-variable predicate;
        # letting the constant-predicate rules win there makes the extended
        # judgment diverge from the primary one inside binders.  On value
        # operands they are the rules that keep reducts typeable.
        if latent is not None and isinstance(j2.pred, VarPred):
            hit("T-AppPred")
            return Judgment(op_type.res, TypeOfPred(latent, j2.pred.var))
        if mode is Mode.EXTENDED and latent is not None:
            if subtype(delta, j2.type, latent):
                hit("T-AppPredTrue")
                return Judgment(op_type.res, TT)
            if is_value(rand) and not free_vars(rand):
                hit("T-AppPredFalse")
                return Judgment(op_type.res, FF)
        hit("T-App")
        return Judgment(op_type.res, NONE_PRED)

    def check_if(g: TypeEnv, e: Expr, test: Expr, then: Expr, els: Expr) -> Judgment:
        j1 = under("T-If", g, test)
        if mode is Mode.EXTENDED:
            if isinstance(j1.pred, TruePred):
                j2 = under("T-IfTrue", g, then)
                hit("T-IfTrue")
                return j2
            if isinstance(j1.pred, FalsePred):
                j3 = under("T-IfFalse", g, els)
                hit("T-IfFalse")
                return j3
        # the narrowed environments only mention variables of `g`, so
        # building them cannot fail
        j2 = under("T-If", env_plus(delta, g, j1.pred), then)
        j3 = under("T-If", env_minus(delta, g, j1.pred), els)
        hit("T-If")
        return Judgment(UnionT((j2.type, j3.type)),
                        combfilter(j1.pred, j2.pred, j3.pred))

    return check(dict(g), e)

