"""Refinement erasure: the erasure homomorphisms, the erased constant
table, and the erased-judgment check.

Erasure deletes every refinement constructor from types, annotations and
predicates.  It reduces soundness of the refined system to soundness of
the base system: an erased well-typed term is well-typed at the erased
type, and erasure commutes with reduction.
"""

from __future__ import annotations

from functools import lru_cache

from .checker import Judgment, Mode, TypeCheckError, is_subpred, typecheck
from .subtyping import CONSTANT_TYPES, refinement_base, subtype
from .syntax import (
    Abs,
    Arrow,
    Constant,
    Expr,
    Pred,
    Refine,
    Type,
    TypeOfPred,
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


# The erased judgment types each constant at the erasure of its type, so
# it keeps the parity latents, erased to Number: it checks erasure
# structurally.  That leaves even? claiming to be a test for Number, which
# the evaluator contradicts, (even? 99) being #f, and the erasure lemma
# (`erased_judgment_holds`) rests on this table.  Reduction chains are
# judged by the extended rules under Δ, whose latents agree with δ.
ERASED_CONSTANT_TYPES: dict[Constant, Arrow] = {
    c: erase_type(t) for c, t in CONSTANT_TYPES.items()}


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


def erase_pred(p: Pred) -> Pred:
    if isinstance(p, TypeOfPred):
        return TypeOfPred(erase_type(p.type), p.var)
    return p


def erased_judgment(erased: Expr) -> Judgment:
    """Type the erased closed term `erased`, with constants typed at their
    erased types."""
    return typecheck(frozenset(), {}, erased, Mode.PRIMARY, constants=ERASED_CONSTANT_TYPES)


def erased_judgment_holds(primary: Judgment, erased: Expr) -> bool:
    """Check that `erased`, the erasure of a closed term whose primary
    judgment is `primary`, carries a judgment at least as strong as the
    erasure of `primary`.

    Strict equality does not hold in general: erasure can make type-test
    narrowing sharper (for example remove(Number, (Refinement odd?)) is
    Number, while its erasure remove(Number, Number) is the empty union),
    so the erased derivation may conclude a subtype of the erased type and
    a sub-predicate of the erased predicate.
    """
    try:
        je = erased_judgment(erased)
    except TypeCheckError:
        return False
    return (subtype(je.type, erase_type(primary.type))
            and is_subpred(je.pred, erase_pred(primary.pred)))
