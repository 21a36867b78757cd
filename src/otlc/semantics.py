"""Call-by-value small-step semantics: constant application, single
steps over evaluation contexts, bounded multi-step, and traces.

`step`, `evaluate` and `trace` share one iterative engine: `_split` finds
the redex of a term and the evaluation-context frames around it,
`_contract` applies the δ, β or `if` rule, and `_plug` rebuilds the term.
`evaluate` and `trace` refocus: after a contraction they continue from the
current frames instead of plugging the term back and splitting it again
from the root.  This is the only module that reduces terms."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs,
    App,
    Bool,
    Const,
    Constant,
    Expr,
    If,
    Num,
    free_vars,
    is_value,
    substitute,
)

DEFAULT_FUEL = 10_000


@dataclass(frozen=True)
class Stepped:
    next: Expr


@dataclass(frozen=True)
class AlreadyValue:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str
    redex: Expr


StepResult = Stepped | AlreadyValue | Stuck


@dataclass(frozen=True)
class Value:
    v: Expr


@dataclass(frozen=True)
class FuelExhausted:
    last: Expr
    steps: int


@dataclass(frozen=True)
class StuckAt:
    e: Expr
    reason: str


EvalOutcome = Value | FuelExhausted | StuckAt


def apply_constant(c: Constant, v: Expr) -> Expr | None:
    """The delta rules; None when no rule covers (c, v)."""
    if not is_value(v):
        raise ValueError("apply_constant: operand is not a value")
    match c:
        case Constant.ADD1:
            return Num(v.value + 1) if isinstance(v, Num) else None
        case Constant.NOT:
            return Bool(isinstance(v, Bool) and v.value is False)
        case Constant.NUMBER_P:
            return Bool(isinstance(v, Num))
        case Constant.BOOLEAN_P:
            return Bool(isinstance(v, Bool))
        case Constant.PROCEDURE_P:
            return Bool(isinstance(v, (Abs, Const)))
        case Constant.EVEN_P:
            return Bool(v.value % 2 == 0) if isinstance(v, Num) else None
        case Constant.ODD_P:
            return Bool(v.value % 2 != 0) if isinstance(v, Num) else None
    return None


def _is_false(v: Expr) -> bool:
    return isinstance(v, Bool) and v.value is False


# An evaluation context is a list of frames, outermost first.  A frame is
# the node whose evaluation position holds the hole, tagged with which
# position that is; the node's other children are the frame's contents.
_RATOR, _RAND, _TEST = range(3)


def _split(e: Expr, frames: list) -> Expr:
    """Descend from the non-value `e` to its redex, pushing a frame for
    every node passed on the way."""
    while True:
        if isinstance(e, App):
            if not is_value(e.rator):
                frames.append((_RATOR, e))
                e = e.rator
            elif not is_value(e.rand):
                frames.append((_RAND, e))
                e = e.rand
            else:
                return e
        elif isinstance(e, If) and not is_value(e.test):
            frames.append((_TEST, e))
            e = e.test
        else:
            return e


def _fill(frame: tuple, e: Expr) -> Expr:
    """Put `e` into the hole of one frame."""
    kind, node = frame
    if kind == _RATOR:
        return App(e, node.rand)
    if kind == _RAND:
        return App(node.rator, e)
    return If(e, node.then, node.els)


def _plug(frames: list, e: Expr) -> Expr:
    for frame in reversed(frames):
        e = _fill(frame, e)
    return e


def _contract(redex: Expr) -> Expr | Stuck:
    """The δ, β and `if` rules: the contractum of `redex`, or why it has none."""
    match redex:
        case App(Const(c), rand):
            out = apply_constant(c, rand)
            if out is None:
                return Stuck(f"{c.value} is not defined on this operand", redex)
            return out
        case App(Abs(param, _, body), rand):
            return substitute(body, param, rand)
        case App():
            return Stuck("operator not applicable", redex)
        case If(test, then, els):
            return els if _is_false(test) else then
    return Stuck("no reduction rule", redex)


def _check_closed(e: Expr, who: str) -> None:
    if free_vars(e):
        raise ValueError(f"{who}: term is not closed")


def step(e: Expr) -> StepResult:
    """One step of the leftmost-innermost call-by-value reduction."""
    _check_closed(e, "step")
    if is_value(e):
        return AlreadyValue()
    frames: list = []
    redex = _split(e, frames)
    out = _contract(redex)
    if isinstance(out, Stuck):
        return out
    return Stepped(_plug(frames, out))


def _reduce(e: Expr, fuel: int, who: str, record=None) -> EvalOutcome:
    """The refocusing loop behind `evaluate` and `trace`: reduce `e` for at
    most `fuel` steps, with the outcome of repeated `step` calls.  Reduction
    keeps a term closed, so closedness is checked once.  After each
    contraction the loop continues from the current frames; the whole term
    is rebuilt only to hand it to `record`, or for a stuck or out-of-fuel
    outcome."""
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    _check_closed(e, who)
    frames: list = []
    steps = 0
    while True:
        if is_value(e):
            if not frames:
                return Value(e)
            e = _fill(frames.pop(), e)
            continue
        redex = _split(e, frames)
        out = _contract(redex)
        if isinstance(out, Stuck):
            return StuckAt(_plug(frames, redex), out.reason)
        if steps == fuel:
            return FuelExhausted(_plug(frames, redex), fuel)
        steps += 1
        e = out
        if record is not None:
            record(_plug(frames, e))


def evaluate(e: Expr, fuel: int = DEFAULT_FUEL) -> EvalOutcome:
    """Reduce `e` for at most `fuel` steps, with the outcome of repeated
    `step` calls."""
    return _reduce(e, fuel, "evaluate")


def trace(e: Expr, fuel: int = DEFAULT_FUEL) -> list[Expr]:
    """Every term of the reduction sequence, first and last included: at
    most `fuel` steps, stopping early at a value or a stuck term."""
    out = [e]
    _reduce(e, fuel, "trace", out.append)
    return out
