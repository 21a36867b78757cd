#!/usr/bin/env python3
"""Run a grid of fuzzing configurations and write one JSON report each.

Example:
    python3 scripts/fuzz_grid.py --out reports --counts 2000 --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otlc.harness import FuzzConfig, run_fuzz  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reports", help="report directory")
    ap.add_argument("--counts", type=int, nargs="+", default=[1000])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--depths", type=int, nargs="+", default=[FuzzConfig.max_depth])
    ap.add_argument("--fuel", type=int, default=FuzzConfig.fuel)
    args = ap.parse_args()
    try:
        grid = [FuzzConfig(count=count, seed=seed, max_depth=depth,
                           fuel=args.fuel, with_refinements=refs)
                for count in args.counts for seed in args.seeds
                for depth in args.depths for refs in (False, True)]
    except ValueError as err:
        ap.error(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    bad = 0
    for cfg in grid:
        rep = run_fuzz(cfg)
        tag = (f"c{cfg.count}_s{cfg.seed}_d{cfg.max_depth}_"
               f"{'refine' if cfg.with_refinements else 'base'}")
        (out / f"{tag}.json").write_text(rep.to_json(), encoding="utf-8")
        n = len(rep.all_failures())
        bad += n
        print(f"{tag}: {rep.generated} terms, {n} failures, "
              f"{rep.elapsed_ms:.0f} ms")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
