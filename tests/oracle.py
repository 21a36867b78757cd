"""Brute-force derivation enumerator used as an oracle for the checker.

Every typing rule is tried independently wherever its premises hold, and
the full set of derivable (type, predicate) judgments is returned.  The
metafunctions (overlap, restrict, remove, environment updates, predicate
combination) are re-implemented here from scratch so that a bug in the
checker's copies cannot hide; only the subtype relation and the type
constructors, which build every type in normal form, are shared, since the
typing rules take them as given.  The rule for the declared refinement
predicates Δ is re-implemented too: a refining constant outside Δ has no
latent, and a λ whose annotation names a predicate outside Δ has no
derivation.  So are the extended rules that read δ: a numeric literal
has the type of each refinement of Δ whose test it passes, or Number if
none, with the parity tests spelled here, and a latent applied to a value
whose type is not below it is decided false.
"""

from __future__ import annotations

from otlc.checker import Mode
from otlc.subtyping import CONSTANT_TYPES, subtype
from otlc.syntax import (
    FALSE_T,
    FF,
    NONE_PRED,
    NUM,
    TOP,
    TRUE_T,
    TT,
    Abs,
    App,
    Arrow,
    Bool,
    BOOLEAN,
    Const,
    Constant,
    Expr,
    If,
    Num,
    Refine,
    TypeOfPred,
    UnionT,
    Var,
    VarPred,
)

BOT = UnionT(())

# The tests of the refinement predicates, on an integer.
O_PASSES = {Constant.EVEN_P: lambda n: n % 2 == 0, Constant.ODD_P: lambda n: n % 2 == 1}


def o_number_types(delta, mode, n):
    """The types of the numeric literal n."""
    if mode is Mode.EXTENDED:
        refined = {Refine(c) for c in delta if O_PASSES[c](n)}
        if refined:
            return refined
    return {NUM}


def o_is_value(e):
    return isinstance(e, (Num, Bool, Const, Abs))


def o_kinds(t):
    """The kinds of value t holds: numbers, #t, #f and procedures.  A
    refinement holds those of its predicate's argument type."""
    match t:
        case _ if t is TOP:
            return {"number", "#t", "#f", "procedure"}
        case UnionT(members):
            return set().union(*map(o_kinds, members))
        case Arrow():
            return {"procedure"}
        case Refine(c):
            return o_kinds(CONSTANT_TYPES[c].arg)
        case _ if t is NUM:
            return {"number"}
        case _ if t is TRUE_T:
            return {"#t"}
        case _ if t is FALSE_T:
            return {"#f"}


def o_overlap(s, t):
    return bool(o_kinds(s) & o_kinds(t))


def o_preds(t):
    """The refinement predicates t names."""
    match t:
        case Refine(c):
            return {c}
        case UnionT(members):
            return set().union(*map(o_preds, members))
        case Arrow(arg, res, latent):
            return o_preds(arg) | o_preds(res) | (set() if latent is None else o_preds(latent))
    return set()


def o_constant_type(delta, c):
    t = CONSTANT_TYPES[c]
    if isinstance(t.latent, Refine) and t.latent.pred not in delta:
        return Arrow(t.arg, t.res)
    return t


def o_restrict(s, t):
    if subtype(s, t):
        return s
    if isinstance(s, UnionT):
        return UnionT(tuple(o_restrict(m, t) for m in s.members))
    return t if o_overlap(s, t) else BOT


def o_remove(s, t):
    if subtype(s, t):
        return BOT
    if isinstance(s, UnionT):
        return UnionT(tuple(o_remove(m, t) for m in s.members))
    return s


def o_env_plus(g, p):
    match p:
        case TypeOfPred(t, x):
            return {**g, x: o_restrict(g[x], t)}
        case VarPred(x):
            return {**g, x: o_remove(g[x], FALSE_T)}
        case _:
            return dict(g)


def o_env_minus(g, p):
    match p:
        case TypeOfPred(t, x):
            return {**g, x: o_remove(g[x], t)}
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
    if p2 is NONE_PRED:
        return True
    if p1 == TT and p2 != FF:
        return True
    if p1 == FF and p2 != TT:
        return True
    return False


def derive(delta, g: dict, e: Expr, mode: Mode, memo: dict | None = None) -> frozenset:
    """All (type, pred) pairs derivable for `e` under `g`.  The calls under
    one root share `memo`, keyed by node identity, Γ, Δ and mode: the If
    rule derives its branches once per judgment of its test, and the else
    branch once per judgment of the then branch, so without it the calls
    grow exponentially with the nesting of `if`s."""
    if memo is None:
        memo = {}
    key = (id(e), frozenset(g.items()), delta, mode)
    if key in memo:
        return memo[key]
    out = set()
    match e:
        case Var(x):
            if x in g:
                out.add((g[x], VarPred(x)))
        case Num(n):
            out |= {(t, TT) for t in o_number_types(delta, mode, n)}
        case Const(c):
            out.add((o_constant_type(delta, c), TT))
        case Bool(v):
            if mode is Mode.EXTENDED:
                out.add((TRUE_T if v else FALSE_T, TT if v else FF))
            else:
                out.add((BOOLEAN, TT if v else FF))
        case Abs(x, sigma, body) if o_preds(sigma) <= delta:
            for (tb, pb) in derive(delta, {**g, x: sigma}, body, mode, memo):
                out.add((Arrow(sigma, tb, None), TT))
                if isinstance(pb, TypeOfPred) and pb.var == x:
                    out.add((Arrow(sigma, tb, pb.type), TT))
        case App(e1, e2):
            for (arrow, _) in derive(delta, g, e1, mode, memo):
                if mode is Mode.EXTENDED and arrow == BOT:
                    arrow = Arrow(TOP, BOT)
                if not isinstance(arrow, Arrow):
                    continue
                for (t2, p2) in derive(delta, g, e2, mode, memo):
                    if not subtype(t2, arrow.arg):
                        continue
                    res = arrow.res
                    out.add((res, NONE_PRED))
                    if arrow.latent is not None:
                        if isinstance(p2, VarPred):
                            out.add((res, TypeOfPred(arrow.latent, p2.var)))
                        if mode is Mode.EXTENDED:
                            if subtype(t2, arrow.latent):
                                out.add((res, TT))
                            elif not o_overlap(t2, arrow.latent) or o_is_value(e2):
                                out.add((res, FF))
        case If(e1, e2, e3):
            for (_, p1) in derive(delta, g, e1, mode, memo):
                if mode is Mode.EXTENDED and p1 == TT:
                    out |= derive(delta, g, e2, mode, memo)
                if mode is Mode.EXTENDED and p1 == FF:
                    out |= derive(delta, g, e3, mode, memo)
                then_env = o_env_plus(g, p1)
                else_env = o_env_minus(g, p1)
                for (t2, p2) in derive(delta, then_env, e2, mode, memo):
                    for (t3, p3) in derive(delta, else_env, e3, mode, memo):
                        out.add((UnionT((t2, t3)),
                                 o_combfilter(p1, p2, p3)))
    memo[key] = result = frozenset(out)
    return result
