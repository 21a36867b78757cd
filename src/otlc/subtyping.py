"""Union normalization, the subtype relation, and the constant type table.

The subtype judgment is parameterized by the set of constants declared
usable as refinement predicates: a refinement type may only be compared
once its predicate has been declared.  `CONSTANT_TYPES` is the table the
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


def constant_type(c: Constant) -> Arrow:
    return CONSTANT_TYPES[c]


def refinement_base(c: Constant) -> Type:
    """The base type refined by predicate `c`: its own argument type."""
    return CONSTANT_TYPES[c].arg


@lru_cache(maxsize=None)
def normalize(t: Type) -> Type:
    """Flatten nested unions, drop empty members, deduplicate, and collapse
    one-member unions.  Idempotent; recurs into arrows."""
    match t:
        case Arrow(arg, res, latent):
            return Arrow(normalize(arg), normalize(res),
                         None if latent is None else normalize(latent))
        case UnionT(members):
            flat: list[Type] = []
            for m in members:
                n = normalize(m)
                if isinstance(n, UnionT):
                    flat.extend(n.members)
                elif n not in flat:
                    flat.append(n)
            # a nested union's members are already normalized and deduped
            # against each other but not against earlier members
            out: list[Type] = []
            for m in flat:
                if m not in out:
                    out.append(m)
            if len(out) == 1:
                return out[0]
            return UnionT(tuple(out))
        case _:
            return t


def type_equal(s: Type, t: Type) -> bool:
    return normalize(s) == normalize(t)


def subtype(delta: frozenset[Constant] | set[Constant], s: Type, t: Type) -> bool:
    """Decide s <= t under the declared refinement predicates `delta`."""
    return _subtype(frozenset(delta), s, t)


@lru_cache(maxsize=None)
def _subtype(delta: frozenset[Constant], s: Type, t: Type) -> bool:
    # One cache lookup per call: hashing a type walks all of it, and
    # looking up normalize(s), normalize(t) and _sub would hash each twice.
    return _sub(delta, normalize(s), normalize(t))


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
