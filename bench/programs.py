"""Seeded source programs with answers fixed by construction.

Every program is built together with its expected `otlc check` output
("type ; predicate"), its value as printed by `otlc eval`, and the length
of its reduction.  Two families:

* reduction-heavy: let chains written as nested applied lambdas, and
  towers of `add1`.  Long texts and long reductions; parsing, `step` and
  `substitute` dominate.
* type-heavy: chains of occurrence dispatches over wide `(U ...)`
  parameters, tested with `number?`/`boolean?`/`procedure?`, some ending
  in the paper's `even?`-guarded function under
  `(declare-refinement even?)`.  Many distinct union and arrow types;
  cold subtyping caches dominate.

The size schedule of a round is fixed; the seed picks names, literals,
annotations and which union members appear.  So every seed gives rounds
of the same shape and different text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes of one round.  Let chains and towers cost time quadratic in their
# length today, so the largest entries set item_ms_p99 and the many small
# ones set item_ms_p50.
LET_CHAINS = (4, 6, 8, 10, 12, 16, 20, 24, 32, 48)
ADD1_TOWERS = (8, 16, 24, 32, 48, 64, 96, 128)
DISPATCH_CHAINS = (1, 2, 2, 3, 3, 4, 4, 5, 6, 8)   # bindings
UNION_WIDTHS = (3, 4, 5, 6, 7, 8)
REDUCTION_REPEATS = 3
DISPATCH_REPEATS = 6

# Types with a canonical inhabitant; printed exactly as otlc prints them.
_ARGS = ("Number", "Boolean", "Top", "(U Number Boolean)", "True", "False")
_RESULTS = ("Number", "Boolean", "Top", "(U Number Boolean)")


@dataclass(frozen=True)
class Program:
    family: str
    text: str
    expected_check: str   # "type ; predicate"
    expected_value: str   # printed value
    steps: int            # reduction length


def _inhabitant(t: str, rng: random.Random, var: str) -> str:
    """A closed value whose primary type is a subtype of arrow or base `t`,
    with no latent predicate unless `t` names one."""
    if t == "Number":
        return str(rng.randint(-50, 999))
    if t == "Boolean":
        return rng.choice(("#t", "#f"))
    if t in ("Top", "(U Number Boolean)"):
        return str(rng.randint(0, 9))
    arg, res, latent = _ARROWS[t]
    if latent == "Number":
        return f"(lambda ({var} : {arg}) (number? {var}))"
    if latent == "Boolean":
        return f"(lambda ({var} : {arg}) (boolean? {var}))"
    return f"(lambda ({var} : {arg}) {_inhabitant(res, rng, var + 'z')})"


def _arrow_table() -> dict[str, tuple[str, str, str | None]]:
    table = {}
    for a in _ARGS:
        for r in _RESULTS:
            table[f"(-> {a} {r})"] = (a, r, None)
        if a in ("Top", "(U Number Boolean)"):
            table[f"(-> {a} Boolean : Number)"] = (a, "Boolean", "Number")
            table[f"(-> {a} Boolean : Boolean)"] = (a, "Boolean", "Boolean")
    return table


_ARROWS = _arrow_table()
_ARROW_NAMES = tuple(_ARROWS)


def _union(rng: random.Random, width: int) -> list[str]:
    """Distinct members, Number always among them.  At most one of
    Boolean/True/False, so that no member can merge with another and the
    union prints exactly as written."""
    members = ["Number"]
    if rng.random() < 0.7:
        members.append(rng.choice(("Boolean", "Boolean", "True", "False")))
    members += rng.sample(_ARROW_NAMES, width - len(members))
    rng.shuffle(members)
    return members


def _dispatch(x: str, a: int, b: int, c: int, d: int) -> str:
    return (f"(if (number? {x}) (add1 {x}) "
            f"(if (boolean? {x}) (if {x} {a} {b}) "
            f"(if (procedure? {x}) {c} {d})))")


def _dispatch_result(v: str, a: int, b: int, c: int) -> tuple[int, int]:
    """Value and step count of `_dispatch` applied to the value text `v`."""
    if v.lstrip("-").isdigit():
        return int(v) + 1, 3
    if v in ("#t", "#f"):
        return (a if v == "#t" else b), 5
    return c, 6


_GUARD = ("((lambda (f : (-> (Refinement even?) Number)) "
          "(lambda (n : Number) (if (even? n) (f n) n))) "
          "(lambda (m : (Refinement even?)) (add1 m)))")


def let_chain(rng: random.Random, k: int, tag: str) -> Program:
    names = [f"{tag}{i}" for i in range(1, k + 1)]
    n0 = rng.randint(-50, 999)
    body = names[-1]
    for i in range(k - 1, -1, -1):
        bound = str(n0) if i == 0 else f"(add1 {names[i - 1]})"
        body = f"((lambda ({names[i]} : Number) {body}) {bound})"
    return Program("let-chain", body, "Number ; none", str(n0 + k - 1),
                   1 + 2 * (k - 1))


def add1_tower(rng: random.Random, d: int) -> Program:
    n0 = rng.randint(-50, 999)
    return Program("add1-tower", "(add1 " * d + str(n0) + ")" * d,
                   "Number ; none", str(n0 + d), d)


def dispatch_chain(rng: random.Random, k: int, width: int, tag: str) -> Program:
    """x1 : U1 bound to an inhabitant of one of U1's members; each later
    x(i+1) : U(i+1) bound to the dispatch on x(i); the body ends the chain
    in one of four ways."""
    unions = [_union(rng, width) for _ in range(k)]
    names = [f"{tag}{i}" for i in range(1, k + 1)]
    pick = rng.choice([m for m in unions[0] if m not in ("True", "False")])
    v = _inhabitant(pick, rng, tag + "v")
    consts = [tuple(rng.randint(0, 99) for _ in range(4)) for _ in range(k + 1)]

    steps = 1  # binding x1
    value: str = v
    for i in range(1, k):
        value, n = _dispatch_result(value, *consts[i][:3])
        value = str(value)
        steps += n + 1
    ending = rng.choice(("var", "dispatch", "test", "guard"))
    last, decl = names[-1], ""
    if ending == "var":
        body, check = last, "(U " + " ".join(unions[-1]) + ") ; none"
    elif ending == "test":
        body, check = f"(number? {last})", "Boolean ; none"
        value = "#t" if value.lstrip("-").isdigit() else "#f"
        steps += 1
    else:
        body, check = _dispatch(last, *consts[k]), "Number ; none"
        value, n = _dispatch_result(value, *consts[k][:3])
        steps += n
        if ending == "guard":
            decl = "(declare-refinement even?)\n"
            body = f"({_GUARD} {body})"
            steps += 4 if value % 2 else 6
            value += 0 if value % 2 else 1
        value = str(value)
    for i in range(k - 1, -1, -1):
        bound = v if i == 0 else _dispatch(names[i - 1], *consts[i])
        annot = "(U " + " ".join(unions[i]) + ")"
        body = f"((lambda ({names[i]} : {annot}) {body}) {bound})"
    return Program("dispatch", decl + body, check, value, steps)


def build_round(seed: int) -> list[Program]:
    """One round of programs, the same shape for every seed."""
    rng = random.Random(f"programs:{seed}")
    out: list[Program] = []
    for r in range(REDUCTION_REPEATS):
        out += [let_chain(rng, k, f"x{r}_") for k in LET_CHAINS]
        out += [add1_tower(rng, d) for d in ADD1_TOWERS]
    for r in range(DISPATCH_REPEATS):
        for j, k in enumerate(DISPATCH_CHAINS):
            out.append(dispatch_chain(rng, k, UNION_WIDTHS[(j + r) % len(UNION_WIDTHS)],
                                      f"y{r}{j}_"))
    rng.shuffle(out)
    return out
