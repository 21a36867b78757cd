#!/usr/bin/env python3
"""Compare two checkouts of otlc on one benchmark workload, in pairs of runs.

For each seed, runs `bench/run.py --workload W --seed N --seconds S
--trace 0` once in each checkout, alternating which side goes first, and
then prints, for every end-to-end metric, each side's median and quartiles
and how many pairs the change won.  Ties count for neither side.  Which
direction is better comes from CHANGE_DIR's BENCHMARK.json.

Every run gets a fresh, empty PYTHONPYCACHEPREFIX, so both sides compile
their sources from scratch whatever `__pycache__` directories the
checkouts hold; memory figures such as `peak_rss_mb` include that
compilation.  Nothing in either checkout is written.

Example:
    python3 scripts/bench_pairs.py ../parent . --workload programs --seeds 31-40 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object `bench/run.py` prints last, for one run."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=3 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: seed {seed}: no result, exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive, or one seed")
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as err:
        ap.error(f"--seeds: {err}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    for side in (args.parent, args.change):
        if not (side / "bench" / "run.py").is_file():
            ap.error(f"{side} has no bench/run.py")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            r = run(sides[name], args.workload, seed, args.seconds)
            results[name].append(r)
            shown = {k: round(m["value"], 4) for k, m in r["metrics"].items()}
            print(f"seed {seed} {name}: correct {r['correct']}, failed {r['failed']}"
                  f"/{r['attempted']}, exit {r['exit']}: {json.dumps(shown)}", flush=True)

    n = len(seeds)
    print(f"\n{args.workload}: {n} pairs of {args.seconds:g} s runs, seeds {args.seeds}")
    print(f"{'metric':22s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}"
          f" {'wins':>6s}")
    for metric, direction in better.items():
        p = [r["metrics"][metric]["value"] for r in results["parent"]]
        c = [r["metrics"][metric]["value"] for r in results["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        print(f"{metric:22s} {' / '.join(f'{x:9.4g}' for x in pq):>32s}"
              f" {' / '.join(f'{x:9.4g}' for x in cq):>32s} {wins:>3d}/{n}")
    bad = [(name, r["exit"]) for name, rs in results.items() for r in rs
           if r["exit"] or not r["correct"] or r["failed"]]
    if bad:
        print(f"runs not correct or with failed operations: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
