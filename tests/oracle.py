"""Brute-force derivation enumerator used as an oracle for the checker.

Every typing rule is tried independently wherever its premises hold, and
the full set of derivable (type, predicate) judgments is returned.  The
metafunctions (restrict, remove, environment updates, predicate
combination) are re-implemented here from scratch so that a bug in the
checker's copies cannot hide; only the subtype relation and the type
constructors, which build every type in normal form, are shared, since the
typing rules take them as given.
"""

from __future__ import annotations

from otlc.checker import Mode
from otlc.subtyping import CONSTANT_TYPES, subtype
from otlc.syntax import (
    FALSE_T,
    FF,
    NONE_PRED,
    NUM,
    TT,
    Abs,
    App,
    Arrow,
    Bool,
    BOOLEAN,
    Const,
    Expr,
    FalsePred,
    If,
    Num,
    NonePred,
    TruePred,
    TypeOfPred,
    UnionT,
    Var,
    VarPred,
    free_vars,
    is_value,
)

BOT = UnionT(())


def o_restrict(delta, s, t):
    if subtype(delta, s, t):
        return s
    if isinstance(s, UnionT):
        return UnionT(tuple(o_restrict(delta, m, t) for m in s.members))
    return t


def o_remove(delta, s, t):
    if subtype(delta, s, t):
        return BOT
    if isinstance(s, UnionT):
        return UnionT(tuple(o_remove(delta, m, t) for m in s.members))
    return s


def o_env_plus(delta, g, p):
    match p:
        case TypeOfPred(t, x):
            return {**g, x: o_restrict(delta, g[x], t)}
        case VarPred(x):
            return {**g, x: o_remove(delta, g[x], FALSE_T)}
        case _:
            return dict(g)


def o_env_minus(delta, g, p):
    match p:
        case TypeOfPred(t, x):
            return {**g, x: o_remove(delta, g[x], t)}
        case VarPred(x):
            return {**g, x: FALSE_T}
        case _:
            return dict(g)


def o_combfilter(p1, p2, p3):
    if p2 == p3:
        return p2
    if (isinstance(p1, TypeOfPred) and p2 == TT and isinstance(p3, TypeOfPred)
            and p1.var == p3.var):
        return TypeOfPred(UnionT((p1.type, p3.type)), p1.var)
    if p1 == TT:
        return p2
    if p1 == FF:
        return p3
    if p2 == TT and p3 == FF:
        return p1
    return NONE_PRED


def o_subpred(p1, p2) -> bool:
    if p1 == p2:
        return True
    if isinstance(p2, NonePred):
        return True
    if p1 == TT and p2 != FF:
        return True
    if p1 == FF and p2 != TT:
        return True
    return False


def derive(delta, g: dict, e: Expr, mode: Mode) -> frozenset:
    """All (type, pred) pairs derivable for `e` under `g`."""
    out = set()
    match e:
        case Var(x):
            if x in g:
                out.add((g[x], VarPred(x)))
        case Num(_):
            out.add((NUM, TT))
        case Const(c):
            out.add((CONSTANT_TYPES[c], TT))
        case Bool(v):
            out.add((BOOLEAN, TT if v else FF))
        case Abs(x, sigma, body):
            for (tb, pb) in derive(delta, {**g, x: sigma}, body, mode):
                out.add((Arrow(sigma, tb, None), TT))
                if isinstance(pb, TypeOfPred) and pb.var == x:
                    out.add((Arrow(sigma, tb, pb.type), TT))
        case App(e1, e2):
            for (arrow, _) in derive(delta, g, e1, mode):
                if not isinstance(arrow, Arrow):
                    continue
                for (t2, p2) in derive(delta, g, e2, mode):
                    if not subtype(delta, t2, arrow.arg):
                        continue
                    res = arrow.res
                    out.add((res, NONE_PRED))
                    if arrow.latent is not None:
                        if isinstance(p2, VarPred):
                            out.add((res, TypeOfPred(arrow.latent, p2.var)))
                        if mode is Mode.EXTENDED:
                            if subtype(delta, t2, arrow.latent):
                                out.add((res, TT))
                            elif is_value(e2) and not free_vars(e2):
                                out.add((res, FF))
        case If(e1, e2, e3):
            for (_, p1) in derive(delta, g, e1, mode):
                if mode is Mode.EXTENDED and p1 == TT:
                    out |= derive(delta, g, e2, mode)
                if mode is Mode.EXTENDED and p1 == FF:
                    out |= derive(delta, g, e3, mode)
                then_env = o_env_plus(delta, g, p1)
                else_env = o_env_minus(delta, g, p1)
                for (t2, p2) in derive(delta, then_env, e2, mode):
                    for (t3, p3) in derive(delta, else_env, e3, mode):
                        out.add((UnionT((t2, t3)),
                                 o_combfilter(p1, p2, p3)))
    return frozenset(out)
