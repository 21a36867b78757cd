"""Refinement erasure: the erasure homomorphisms on types and terms.

Erasure deletes every refinement constructor from types and annotations.
It commutes with reduction: the run of an erased term is the erasure of
the term's run, term by term.  It does not carry typability over: a
refinement can make a branch dead that the base system must still type,
so the erasure of a well-typed term need not check under the empty Δ.
The refined system's soundness is checked directly, by judging each term
of a run in the extended rules under Δ (`otlc.harness`).
"""

from __future__ import annotations

from functools import lru_cache

from .subtyping import refinement_base
from .syntax import (
    Abs,
    Arrow,
    Expr,
    Refine,
    Type,
    UnionT,
    _rebuild,
    fold,
)


@lru_cache(maxsize=None)
def erase_type(t: Type) -> Type:
    """`t` without refinements, memoized: a hash-consed key costs O(1)."""
    match t:
        case Refine(c):
            return refinement_base(c)
        case Arrow(arg, res, latent):
            return Arrow(erase_type(arg), erase_type(res),
                         None if latent is None else erase_type(latent))
        case UnionT(members):
            return UnionT(tuple(erase_type(m) for m in members))
        case _:
            return t


def _erase_node(e: Expr, kids: list) -> Expr:
    e = _rebuild(e, kids)
    if e.__class__ is Abs and (annot := erase_type(e.annot)) is not e.annot:
        return Abs(e.param, annot, e.body)
    return e


def erase_expr(e: Expr, memo: dict | None = None) -> Expr:
    """`e` with refinements erased from its annotations; a subterm with
    nothing to erase is shared, not rebuilt.  `memo`, shared between the
    terms of a run while they are alive, erases each node once, so a node
    the terms share is erased to one shared node."""
    return fold(e, lambda x: x, _erase_node, memo)
