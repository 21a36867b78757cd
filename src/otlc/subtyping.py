"""The subtype relation and the constant type table.

The subtype judgment is parameterized by the set of constants declared
usable as refinement predicates: a query whose types mention a refinement
whose predicate is undeclared raises `UndeclaredRefinement`, whatever its
answer would be.  Types are hash-consed and built in normal form (see
`otlc.syntax`), so the caches keyed on them hash and compare in O(1), and
the relation needs no normalization step.  `CONSTANT_TYPES` is the table the
checker types constants with by default; `otlc.refine` derives the
erased tables from it.
"""

from __future__ import annotations

from functools import lru_cache

from .syntax import (
    BOOLEAN,
    BOT,
    NUM,
    TOP,
    Arrow,
    Constant,
    Refine,
    TopT,
    Type,
    UnionT,
)


class UndeclaredRefinement(Exception):
    """A refinement type was compared before its predicate was declared."""

    def __init__(self, c: Constant):
        super().__init__(f"refinement predicate {c.value} is not declared")
        self.constant = c


CONSTANT_TYPES: dict[Constant, Arrow] = {
    Constant.ADD1: Arrow(NUM, NUM),
    Constant.NOT: Arrow(TOP, BOOLEAN),
    Constant.NUMBER_P: Arrow(TOP, BOOLEAN, NUM),
    Constant.BOOLEAN_P: Arrow(TOP, BOOLEAN, BOOLEAN),
    Constant.PROCEDURE_P: Arrow(TOP, BOOLEAN, Arrow(BOT, TOP)),
    Constant.EVEN_P: Arrow(NUM, BOOLEAN, Refine(Constant.EVEN_P)),
    Constant.ODD_P: Arrow(NUM, BOOLEAN, Refine(Constant.ODD_P)),
}


def refinement_base(c: Constant) -> Type:
    """The base type refined by predicate `c`: its own argument type."""
    return CONSTANT_TYPES[c].arg


def normalize(t: Type) -> Type:
    """The identity: every type is already built in normal form.  Kept only
    because `bench/run.py` still reads `subtyping.normalize`."""
    return t


def subtype(delta: frozenset[Constant] | set[Constant], s: Type, t: Type) -> bool:
    """Decide s <= t under the declared refinement predicates `delta`.
    Raises UndeclaredRefinement if s or t mentions a refinement outside it."""
    return _subtype(frozenset(delta), s, t)


@lru_cache(maxsize=None)
def _subtype(delta: frozenset[Constant], s: Type, t: Type) -> bool:
    # One cache lookup per call.  _sub may decide without meeting a refinement
    # (s == t, a union member that fits), so _declared checks them all: after
    # _sub, so that a query _sub rejects names the predicate _sub names.
    result = _sub(delta, s, t)
    _declared(delta, s)
    _declared(delta, t)
    return result


@lru_cache(maxsize=None)
def _declared(delta: frozenset[Constant], t: Type | None) -> None:
    """Raise UndeclaredRefinement at the leftmost undeclared refinement in t."""
    if isinstance(t, Refine) and t.pred not in delta:
        raise UndeclaredRefinement(t.pred)
    for u in (t.members if isinstance(t, UnionT)
              else (t.arg, t.res, t.latent) if isinstance(t, Arrow) else ()):
        _declared(delta, u)


@lru_cache(maxsize=None)
def _sub(delta: frozenset[Constant], s: Type, t: Type) -> bool:
    if s == t:
        return True
    if isinstance(t, TopT):
        return True
    if isinstance(s, UnionT):
        return all(_sub(delta, m, t) for m in s.members)
    if isinstance(t, UnionT):
        return any(_sub(delta, s, m) for m in t.members)
    if isinstance(s, Arrow) and isinstance(t, Arrow):
        latent_ok = t.latent is None or s.latent == t.latent
        return latent_ok and _sub(delta, t.arg, s.arg) and _sub(delta, s.res, t.res)
    if isinstance(s, Refine):
        if s.pred not in delta:
            raise UndeclaredRefinement(s.pred)
        return _sub(delta, refinement_base(s.pred), t)
    return False
