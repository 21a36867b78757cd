#!/usr/bin/env python3
"""Time each stage of otlc in two checkouts, in one process, on one
seeded corpus.

Both checkouts' `otlc` packages are loaded side by side, under the
names `otlc_parent` and `otlc_change`.  The corpus is COUNT terms per
mode, base and refinements, each drawn by the change's `gen_typed_term`
from `random.Random(f"ab:{mode}:{i}")` at the fuzzer's depth, and kept
as text.  The stages, each over the whole corpus:

    gen      gen_typed_term, from each term's seed
    parse    parse_expr on each term's text
    print    print_expr on each parsed term
    subtype  subtype on each distinct pair the primary judgments ask
    check    typecheck, primary and extended
    trace    trace, at the fuzzer's fuel
    sr       check_subject_reduction, given the primary judgment

Each stage runs ROUNDS times on each side, alternating which side goes
first, and the best round counts; the subtype cache is cleared before
every timed run.  For each stage the script prints µs per item on each
side, the change's wins (rounds in which it was faster), and a sha256 of
the stage's outputs on each side: equal hashes show that the same work
was timed.  `--json PATH` writes the same table.

Example:
    python3 scripts/ab.py ../parent . --count 300 --rounds 11
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def load(checkout: Path, name: str):
    """The package `otlc` of `checkout`, imported as `name`."""
    src = checkout / "src" / "otlc"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def corpus(pkg, count: int) -> list[tuple[str, bool, str]]:
    """(seed, refinements, text) of `count` generated terms per mode."""
    h, syntax = pkg.harness, pkg.syntax
    depth = h.FuzzConfig.max_depth
    out = []
    for refinements in (False, True):
        delta = frozenset(pkg.subtyping.REFINING if refinements else ())
        for i in range(count):
            seed = f"ab:{'refinements' if refinements else 'base'}:{i}"
            out.append((seed, refinements,
                        syntax.print_expr(h.gen_typed_term(random.Random(seed), depth, delta))))
    return out


class Side:
    """One checkout's package and its own copy of the corpus's inputs."""

    def __init__(self, pkg, items, pair_texts):
        self.pkg = pkg
        s = pkg.syntax
        refining = pkg.subtyping.REFINING
        self.items = [(seed, frozenset(refining if r else ()), text, s.parse_expr(text))
                      for seed, r, text in items]
        self.pairs = [(s.parse_type(a), s.parse_type(b)) for a, b in pair_texts]
        self.primary = [pkg.checker.typecheck(d, {}, e) for _, d, _, e in self.items]

    # Each stage returns its outputs; `show` turns them into text for the hash.

    def gen(self):
        h = self.pkg.harness
        return [h.gen_typed_term(random.Random(seed), h.FuzzConfig.max_depth, d)
                for seed, d, _, _ in self.items]

    def parse(self):
        parse = self.pkg.syntax.parse_expr
        return [parse(text) for _, _, text, _ in self.items]

    def print(self):
        show = self.pkg.syntax.print_expr
        return [show(e) for _, _, _, e in self.items]

    def subtype(self):
        subtype = self.pkg.subtyping.subtype
        return [subtype(s, t) for s, t in self.pairs]

    def check(self):
        c = self.pkg.checker
        out = []
        for _, d, _, e in self.items:
            for mode in c.Mode:
                try:
                    out.append(c.typecheck(d, {}, e, mode))
                except c.TypeCheckError as err:
                    out.append(err)
        return out

    def trace(self):
        fuel = self.pkg.harness.FuzzConfig.fuel
        trace = self.pkg.semantics.trace
        return [trace(e, fuel) for _, _, _, e in self.items]

    def sr(self):
        h = self.pkg.harness
        fuel = h.FuzzConfig.fuel
        return [h.check_subject_reduction(e, fuel, d, j)
                for (_, d, _, e), j in zip(self.items, self.primary)]

    def show(self, stage: str, outputs) -> str:
        s = self.pkg.syntax
        if stage in ("gen", "parse"):
            return "\n".join(map(s.print_expr, outputs))
        if stage == "check":
            return "\n".join(f"{s.print_type(j.type)} ; {s.print_pred(j.pred)}"
                             if isinstance(j, tuple) else f"error: {j}" for j in outputs)
        if stage == "trace":
            return "\n".join(" -> ".join(map(s.print_expr, terms)) + f" => {outcome!r}"
                             for terms, outcome in outputs)
        return "\n".join(map(repr, outputs))


STAGES = ("gen", "parse", "print", "subtype", "check", "trace", "sr")


def asked_pairs(pkg, items) -> list[tuple[str, str]]:
    """The distinct (s, t) texts of the `subtype` calls that the primary
    judgments of `items` make, in order."""
    c, s = pkg.checker, pkg.syntax
    pairs: dict = {}
    subtype = c.subtype

    def record(a, b):
        pairs[s.print_type(a), s.print_type(b)] = None
        return subtype(a, b)

    c.subtype = record
    try:
        for _, r, text in items:
            c.typecheck(frozenset(pkg.subtyping.REFINING if r else ()), {}, s.parse_expr(text))
    finally:
        c.subtype = subtype
    return list(pairs)


def timed(side: Side, stage: str):
    side.pkg.subtyping.subtype.cache_clear()
    gc.collect()
    t0 = time.perf_counter()
    outputs = getattr(side, stage)()
    return time.perf_counter() - t0, outputs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--count", type=int, default=200, help="terms per mode")
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("--json", type=Path, default=None, help="write the table here")
    args = ap.parse_args(argv)
    if args.count < 1 or args.rounds < 1:
        ap.error("--count and --rounds must be positive")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "otlc" / "__init__.py").is_file():
            ap.error(f"{checkout} has no src/otlc")

    pkgs = {name: load(path, f"otlc_{name}")
            for name, path in zip(SIDES, (args.parent, args.change))}
    items = corpus(pkgs["change"], args.count)
    pair_texts = asked_pairs(pkgs["change"], items)
    sides = {name: Side(pkg, items, pair_texts) for name, pkg in pkgs.items()}

    table = {}
    print(f"{len(items)} terms, {len(pair_texts)} subtype pairs, best of {args.rounds}")
    print(f"{'stage':8s} {'items':>6s} {'parent µs':>10s} {'change µs':>10s} {'ratio':>6s}"
          f" {'wins':>6s}  {'parent hash':12s} {'change hash':12s}")
    for stage in STAGES:
        best = dict.fromkeys(SIDES, float("inf"))
        wins = 0
        for r in range(args.rounds):
            times = {}
            for name in SIDES if r % 2 == 0 else SIDES[::-1]:
                times[name], outputs = timed(sides[name], stage)
                best[name] = min(best[name], times[name])
                if r == 0:
                    n = len(outputs)
                    text = sides[name].show(stage, outputs)
                    table.setdefault(stage, {"items": n})[f"{name}_sha256"] = \
                        hashlib.sha256(text.encode()).hexdigest()
            wins += times["change"] < times["parent"]
        row = table[stage]
        row.update({f"{name}_us": best[name] / row["items"] * 1e6 for name in SIDES})
        row["wins"] = wins
        print(f"{stage:8s} {row['items']:6d} {row['parent_us']:10.2f} {row['change_us']:10.2f}"
              f" {row['change_us'] / row['parent_us']:6.3f} {wins:3d}/{args.rounds:<2d}"
              f"  {row['parent_sha256'][:12]} {row['change_sha256'][:12]}")
    if args.json:
        args.json.write_text(json.dumps({"rounds": args.rounds, "count": args.count,
                                         "stages": table}, indent=1), encoding="utf-8")
    differ = [s for s, row in table.items() if row["parent_sha256"] != row["change_sha256"]]
    if differ:
        print(f"outputs differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
