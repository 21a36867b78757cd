"""The subtype relation and the constant type tables.

Types are hash-consed and built in normal form (see `otlc.syntax`), so the
caches keyed on them hash and compare in O(1), and the relation needs no
normalization step.  The subtype relation takes no Δ, the set of constants
declared usable as refinement predicates: Δ is a well-formedness condition
on annotations, checked where a type is written (T-Abs, `undeclared`), and
it chooses the constant table (`constant_types`), so a judgment under Δ
meets no refinement outside it.  `CONSTANT_TYPES` is the table under every
refining constant; `REFINING` is derived from it.
"""

from __future__ import annotations

from functools import lru_cache

from .syntax import (
    BOOLEAN,
    BOT,
    FALSE_T,
    NUM,
    TOP,
    TRUE_T,
    Arrow,
    Bool,
    Constant,
    Num,
    Refine,
    Type,
    UnionT,
    apply_constant,
)


CONSTANT_TYPES: dict[Constant, Arrow] = {
    Constant.ADD1: Arrow(NUM, NUM),
    Constant.NOT: Arrow(TOP, BOOLEAN),
    Constant.NUMBER_P: Arrow(TOP, BOOLEAN, NUM),
    Constant.BOOLEAN_P: Arrow(TOP, BOOLEAN, BOOLEAN),
    Constant.PROCEDURE_P: Arrow(TOP, BOOLEAN, Arrow(BOT, TOP)),
    Constant.EVEN_P: Arrow(NUM, BOOLEAN, Refine(Constant.EVEN_P)),
    Constant.ODD_P: Arrow(NUM, BOOLEAN, Refine(Constant.ODD_P)),
}

# The constants whose latent predicate is a refinement, in table order.
REFINING = tuple(c for c, t in CONSTANT_TYPES.items() if isinstance(t.latent, Refine))


def refinement_base(c: Constant) -> Type:
    """The base type refined by predicate `c`: its own argument type."""
    return CONSTANT_TYPES[c].arg


@lru_cache(maxsize=None)
def constant_types(delta: frozenset[Constant]) -> dict[Constant, Arrow]:
    """The constant table under Δ: a refining constant outside `delta` is a
    plain predicate, typed without its latent.  Shared: do not mutate."""
    return {c: Arrow(t.arg, t.res) if c in REFINING and c not in delta else t
            for c, t in CONSTANT_TYPES.items()}


@lru_cache(maxsize=None)
def literal_type(delta: frozenset[Constant], n: int) -> Type:
    """The extended type of the numeric literal `n` under Δ: (Refinement c)
    for the first c of `REFINING` in Δ whose δ answers #t on `n`, else Number."""
    return next((Refine(c) for c in REFINING
                 if c in delta and apply_constant(c, Num(n)) == Bool(True)), NUM)


@lru_cache(maxsize=None)
def undeclared(delta: frozenset[Constant], t: Type | None) -> Constant | None:
    """The leftmost refinement predicate in `t` outside `delta`, if any."""
    if isinstance(t, Refine):
        return None if t.pred in delta else t.pred
    for u in (t.members if isinstance(t, UnionT)
              else (t.arg, t.res, t.latent) if isinstance(t, Arrow) else ()):
        if (c := undeclared(delta, u)) is not None:
            return c
    return None


def normalize(t: Type) -> Type:
    """The identity: every type is already built in normal form.  Kept only
    because `bench/run.py` still reads `subtyping.normalize`."""
    return t


# The kinds of value a type holds, a bit each: number, #t, #f and
# procedure, the one kind of an arrow (8).  Top holds every kind, and a
# (Refinement c) those of its base, a constant's argument type and so no
# refinement.
_KINDS = {NUM: 1, TRUE_T: 2, FALSE_T: 4, TOP: 15}


def _kinds(t: Type) -> int:
    kinds = 0
    for m in t.members if isinstance(t, UnionT) else (t,):
        if m.__class__ is Refine:
            m = refinement_base(m.pred)
        kinds |= 8 if m.__class__ is Arrow else _KINDS[m]
    return kinds


def overlap(s: Type, t: Type) -> bool:
    """Whether s and t can share a value, by the kinds of value they hold.
    A union holds its members' kinds, and a normal union has no union
    members.  So two arrows, or two refinements, always overlap."""
    return bool(_kinds(s) & _kinds(t))


@lru_cache(maxsize=None)
def subtype(s: Type, t: Type) -> bool:
    """Decide s <= t."""
    if s is t or t is TOP:
        return True
    if isinstance(s, UnionT):
        return all(subtype(m, t) for m in s.members)
    if isinstance(t, UnionT):
        return any(subtype(s, m) for m in t.members)
    if isinstance(s, Arrow) and isinstance(t, Arrow):
        latent_ok = t.latent is None or s.latent == t.latent
        return latent_ok and subtype(t.arg, s.arg) and subtype(s.res, t.res)
    if isinstance(s, Refine):
        return subtype(refinement_base(s.pred), t)
    return False
