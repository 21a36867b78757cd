"""Call-by-value small-step semantics: single steps over evaluation
contexts, bounded multi-step, and traces.  The δ rules, `apply_constant`,
sit next to the constants in `otlc.syntax`, where the checker reads them.

A run ends at a `Value`, `StuckAt` a redex no rule contracts, or with
`FuelExhausted`.  `step` is the reference relation, on terms: it answers
`Stepped`, or the `Value` or `StuckAt` its term already is.  `_split`
finds the redex of a term and the evaluation-context frames around it,
`_contract` applies the δ, β or `if` rule, substituting for β, and
`_plug` rebuilds the term.

`evaluate` and `trace` run one environment machine, `_reduce`, derived
from that relation by refocusing (Danvy & Nielsen 2004) and by closing
terms with environments instead of substituting (Biernacka & Danvy 2007).
Its control is a term and the environment that closes it; β binds the
parameter and continues in the body, so a let chain of n bindings reduces
in O(n) where substitution walks O(n²) nodes.  Each machine transition
that contracts is one step of `step`, so fuel and step counts agree.  Terms
are read back with `_plug` and `_substitute`, `substitute` without its
closedness guard, as every value is closed.  This is the only module that
reduces terms."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs,
    App,
    Bool,
    Const,
    Expr,
    If,
    Num,
    Var,
    _substitute,
    apply_constant,
    free_vars,
    is_value,
    substitute,
)

DEFAULT_FUEL = 10_000


@dataclass(frozen=True)
class Stepped:
    next: Expr


@dataclass(frozen=True)
class Value:
    v: Expr


@dataclass(frozen=True)
class FuelExhausted:
    last: Expr


@dataclass(frozen=True)
class StuckAt:
    e: Expr
    reason: str


StepResult = Stepped | Value | StuckAt
EvalOutcome = Value | FuelExhausted | StuckAt


def _is_false(v: Expr) -> bool:
    return isinstance(v, Bool) and v.value is False


# An evaluation context is a list of frames, outermost first.  A frame is
# (kind, node, x): `node` is the application or conditional whose
# evaluation position holds the hole, and `kind` says which position that
# is.  For _RATOR and _TEST, `x` is the environment of the node's pending
# subterms; for _RAND it is the operator's value.
_RATOR, _RAND, _TEST = range(3)

# Machine values.  An environment is a linked list of bindings
# (name, value, rest), innermost first, or None when empty: a binding is
# added in O(1) and shared by every closure that captures it.  A value is
# a closed value term, or a closure (λ, environment) when the λ was reached
# under a non-empty environment.  A variable, a literal, a constant and a λ
# are atomic: under an environment each denotes a value, with no step.
_ATOMIC = frozenset((Var, Num, Bool, Const, Abs))


def _value(e: Expr, env) -> Expr | tuple:
    """The value of the atomic term `e` under `env`."""
    cls = e.__class__
    if cls is Var:
        return _lookup(env, e.name)
    if cls is Abs and env is not None:
        return (e, env)
    return e


def _lookup(env, name: str) -> Expr | tuple:
    while env[0] != name:
        env = env[2]
    return env[1]


def _close(e: Expr, env) -> Expr:
    """Read back: the closed term of `e` under `env`, each free variable
    replaced by the term of its value.  The closures those values hold are
    read back first, with an explicit stack, each once; being closed, as the
    run's entry check makes every value, they skip `substitute`'s guard."""
    if env is None:
        return e
    root = (e, env)
    terms: dict[int, Expr] = {}  # id of a closure -> its term
    todo = [root]
    while todo:
        c = todo[-1]
        if id(c) in terms:
            todo.pop()
            continue
        t, tenv = c
        binds, waiting = {}, []
        for name in free_vars(t):
            v = _lookup(tenv, name)
            if v.__class__ is tuple:
                if id(v) not in terms:
                    waiting.append(v)
                    continue
                v = terms[id(v)]
            binds[name] = v
        if waiting:
            todo += waiting
            continue
        todo.pop()
        terms[id(c)] = _substitute(t, binds)
    return terms[id(root)]


def _read_back(v: Expr | tuple) -> Expr:
    """The closed term of a machine value."""
    return _close(*v) if v.__class__ is tuple else v


def _split(e: Expr, frames: list) -> Expr:
    """Descend from the closed non-value `e` to its redex, pushing a frame
    for every node passed on the way."""
    while True:
        if isinstance(e, App):
            if not is_value(e.rator):
                frames.append((_RATOR, e, None))
                e = e.rator
            elif not is_value(e.rand):
                frames.append((_RAND, e, e.rator))
                e = e.rand
            else:
                return e
        elif isinstance(e, If) and not is_value(e.test):
            frames.append((_TEST, e, None))
            e = e.test
        else:
            return e


def _plug(frames: list, e: Expr) -> Expr:
    """Put `e` into the hole of `frames`, reading every frame back."""
    for kind, node, x in reversed(frames):
        if kind == _RAND:
            e = App(_read_back(x), e)
        elif kind == _RATOR:
            e = App(e, _close(node.rand, x))
        else:
            e = If(e, _close(node.then, x), _close(node.els, x))
    return e


def _delta(f: Expr, v: Expr) -> Expr | str:
    """The δ rule for an operator `f` that is not a λ: the result of
    applying it to the value `v`, or why there is none."""
    if f.__class__ is not Const:
        return "operator not applicable"
    out = apply_constant(f.c, v)
    return f"{f.c.value} is not defined on this operand" if out is None else out


def _contract(redex: Expr) -> Expr | str:
    """The δ, β and `if` rules: the contractum of `redex`, or why it has none."""
    match redex:
        case App(Abs(param, _, body), rand):
            return substitute(body, {param: rand})
        case App(rator, rand):
            return _delta(rator, rand)
        case If(test, then, els):
            return els if _is_false(test) else then
    return "no reduction rule"


def _check_closed(e: Expr) -> None:
    if free_vars(e):
        raise ValueError("term is not closed")


def step(e: Expr) -> StepResult:
    """One step of the leftmost-innermost call-by-value reduction: the next
    term, or the outcome `e` already is."""
    _check_closed(e)
    if is_value(e):
        return Value(e)
    frames: list = []
    out = _contract(_split(e, frames))
    if isinstance(out, str):
        return StuckAt(e, out)
    return Stepped(_plug(frames, out))


def _reduce(e: Expr, fuel: int, record=None) -> EvalOutcome:
    """The environment machine behind `evaluate` and `trace`: reduce `e` for
    at most `fuel` steps, with the outcome of repeated `step` calls.

    The control is a term and the environment that closes it.  β binds the
    parameter in the operator's environment and continues in the body, so
    no step walks the rest of the term; δ and `if` are the rules of
    `step`.  Each contraction is one step.  Reduction keeps a term closed,
    so closedness is checked once.  Terms are read back only for the final
    value, a stuck or out-of-fuel term, and `record`.  With `record` the
    machine continues after every contraction from the term it read back,
    under the empty environment, so every frame stays closed and a β costs
    one walk of its body."""
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    _check_closed(e)
    frames: list = []
    env = None
    steps = 0
    while True:
        cls = e.__class__
        if cls is App:
            if e.rator.__class__ in _ATOMIC:
                frames.append((_RAND, e, _value(e.rator, env)))
                e = e.rand
            else:
                frames.append((_RATOR, e, env))
                e = e.rator
            continue
        if cls is If:
            frames.append((_TEST, e, env))
            e = e.test
            continue
        v = _value(e, env)
        if not frames:
            return Value(_read_back(v))
        kind, node, x = frames.pop()
        if kind == _RATOR:
            frames.append((_RAND, node, v))
            e, env = node.rand, x
            continue
        if kind == _TEST:
            if steps == fuel:
                redex = If(_read_back(v), _close(node.then, x), _close(node.els, x))
                return FuelExhausted(_plug(frames, redex))
            e, env = (node.els if _is_false(v) else node.then), x
        else:  # `x` is the operator's value and `v` the operand's
            f = x[0] if x.__class__ is tuple else x
            out = None if f.__class__ is Abs else _delta(f, v[0] if v.__class__ is tuple else v)
            if out.__class__ is str or steps == fuel:
                last = _plug(frames, App(_read_back(x), _read_back(v)))
                return StuckAt(last, out) if out.__class__ is str else FuelExhausted(last)
            if out is not None:
                e = out
            elif record is None:
                e, env = f.body, (f.param, v, x[1] if x is not f else None)
            else:
                e = substitute(f.body, {f.param: v})
        steps += 1
        if record is not None:
            record(_plug(frames, e))


def evaluate(e: Expr, fuel: int = DEFAULT_FUEL) -> EvalOutcome:
    """Reduce `e` for at most `fuel` steps, with the outcome of repeated
    `step` calls."""
    return _reduce(e, fuel)


def trace(e: Expr, fuel: int = DEFAULT_FUEL) -> tuple[list[Expr], EvalOutcome]:
    """Every term of the reduction sequence, first and last included, and
    how it ends: at most `fuel` steps, stopping early at a value or a stuck
    term.  The outcome is `evaluate(e, fuel)`."""
    terms = [e]
    return terms, _reduce(e, fuel, terms.append)
