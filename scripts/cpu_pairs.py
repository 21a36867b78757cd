#!/usr/bin/env python3
"""Compare two checkouts of otlc by process time, in alternating fresh
subprocesses, on the inputs of one benchmark workload.

Round i runs once in each checkout, alternating which side goes first,
and times the median of 9 fresh imports (`load_otlc`, the `setup_s`
path) and then `run_fuzz` on CHUNKS of the benchmark's chunk seeds
`10**9 + seed*10**4 + k` (seed SEED + i), or one checked `programs`
round.  It prints each side's median and quartiles, the change's wins,
and per round a hash of the `run_fuzz` reports (or program texts): equal
hashes show both sides ran the same terms.

Example:
    python3 scripts/cpu_pairs.py ../parent . --workload fuzz-refine --rounds 10
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import quartiles


def child(checkout: Path, workload: str, seed: int, chunks: int) -> dict:
    sys.path.insert(0, str(checkout / "bench"))
    import run  # the checkout's bench/run.py

    imports = []
    for _ in range(run.SETUP_REPEATS):
        t0 = time.process_time()
        mods = run.load_otlc()
        imports.append(time.process_time() - t0)
    digest = hashlib.sha256()
    if workload == "programs":
        round_ = run.programs.build_round(seed)
        t0 = time.process_time()
        tally = run.Tally()
        run.ProgramsWorkload(mods, round_).unit(tally, None)
        cpu = time.process_time() - t0
        for p in round_:
            digest.update(p.text.encode())
        bad = len(tally.errors) + tally.failed
    else:
        harness = mods["harness"]
        t0 = time.process_time()
        reports = [harness.run_fuzz(harness.FuzzConfig(
            count=run.FUZZ_CHUNK, seed=run.fuzz_seed(seed, k), max_depth=run.FUZZ_DEPTH,
            fuel=run.FUZZ_FUEL, with_refinements=workload == "fuzz-refine"))
            for k in range(chunks)]
        cpu = time.process_time() - t0
        for rep in reports:
            d = rep.to_dict()
            d.pop("elapsed_ms")
            digest.update(json.dumps(d, sort_keys=True).encode())
        bad = sum(len(rep.failures) for rep in reports)
    return {"cpu_s": cpu, "import_s": statistics.median(imports),
            "hash": digest.hexdigest()[:16], "bad": bad}


def spawn(checkout: Path, workload: str, seed: int, chunks: int) -> dict:
    cmd = [sys.executable, __file__, str(checkout), str(checkout), "--workload", workload,
           "--seed", str(seed), "--chunks", str(chunks), "--child"]
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path, help="checkout of the parent commit")
    ap.add_argument("new", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("fuzz-base", "fuzz-refine", "programs"))
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed of the first round")
    ap.add_argument("--chunks", type=int, default=40, help="fuzz chunks per run")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.old.resolve(), args.workload, args.seed, args.chunks)))
        return 0
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    got: dict[str, list[dict]] = {"old": [], "new": []}
    for i in range(args.rounds):
        for name in (("old", "new") if i % 2 == 0 else ("new", "old")):
            r = spawn(sides[name], args.workload, args.seed + i, args.chunks)
            got[name].append(r)
            print(f"round {i} {name}: {json.dumps(r)}", flush=True)
    for metric in ("cpu_s", "import_s"):
        old, new = ([r[metric] for r in got[s]] for s in ("old", "new"))
        wins = sum(b < a for a, b in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        print(f"{metric}: old median {omed:.4f} (q1 {oq1:.4f}, q3 {oq3:.4f}), "
              f"new median {nmed:.4f} (q1 {nq1:.4f}, q3 {nq3:.4f}), "
              f"new wins {wins}/{args.rounds}")
    same = [a["hash"] == b["hash"] for a, b in zip(got["old"], got["new"])]
    print(f"same hash in {sum(same)}/{args.rounds} rounds; failures old "
          f"{sum(r['bad'] for r in got['old'])}, new {sum(r['bad'] for r in got['new'])}")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
