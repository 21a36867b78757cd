#!/usr/bin/env python3
"""Print the distribution of the terms `gen_typed_term` generates, as JSON.

Term `i` of seed `s` is drawn from `random.Random(f"dist:{s}:{i}")`.  The
statistics are the mean node count, the mean number of reduction steps,
the share of single-node terms (atoms), the share of terms that take no
step, for each refinement predicate c of Δ the share of terms that
mention `(Refinement c)`, and how often each primary typing rule fires on
the terms.  Compare two versions of the generator by running the same
command on each.

Example:
    python3 scripts/gen_stats.py --count 5000 --seeds 1 2 3 4 --refinements
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otlc.checker import Mode, typecheck  # noqa: E402
from otlc.harness import FuzzConfig, gen_typed_term  # noqa: E402
from otlc.semantics import trace  # noqa: E402
from otlc.subtyping import REFINING  # noqa: E402
from otlc.syntax import fold, print_expr  # noqa: E402


def nodes(e) -> int:
    return fold(e, lambda x: 1, lambda x, kids: 1 + sum(kids))


def stats(count: int, seeds: list[int], depth: int, fuel: int,
          refinements: bool) -> dict:
    delta = frozenset(REFINING if refinements else ())
    sizes, steps, coverage = [], [], {}
    refined = {c: 0 for c in REFINING if c in delta}  # terms mentioning (Refinement c)
    for seed in seeds:
        for i in range(count):
            e = gen_typed_term(random.Random(f"dist:{seed}:{i}"), depth, delta)
            typecheck(delta, {}, e, Mode.PRIMARY, coverage=coverage)
            sizes.append(nodes(e))
            steps.append(len(trace(e, fuel)[0]) - 1)
            text = print_expr(e)
            for c in refined:
                refined[c] += f"(Refinement {c.value})" in text
    terms = len(sizes)
    return {
        "mode": "refinements" if refinements else "base",
        "terms": terms,
        "depth": depth,
        "mean_nodes": round(sum(sizes) / terms, 3),
        "mean_steps": round(sum(steps) / terms, 3),
        "atom_pct": round(100 * sizes.count(1) / terms, 2),
        "zero_step_pct": round(100 * steps.count(0) / terms, 2),
        "refinement_pct": {c.value: round(100 * n / terms, 2) for c, n in refined.items()},
        "coverage": dict(sorted(coverage.items())),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=2000, help="terms per seed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--depth", type=int, default=FuzzConfig.max_depth)
    ap.add_argument("--fuel", type=int, default=FuzzConfig.fuel)
    ap.add_argument("--refinements", action="store_true")
    args = ap.parse_args()
    try:
        FuzzConfig(count=args.count, seed=0, max_depth=args.depth, fuel=args.fuel)
    except ValueError as err:
        ap.error(str(err))
    print(json.dumps(stats(args.count, args.seeds, args.depth, args.fuel,
                           args.refinements), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
