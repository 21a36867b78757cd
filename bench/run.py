#!/usr/bin/env python3
"""The otlc benchmark.

    python3 bench/run.py --workload fuzz-base --seed 1 --seconds 30 --trace 0

runs one workload in this process for `--seconds` seconds, checks every
output, and prints one JSON object as its last line: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced run with
`--trace 1`.  It exits 1 when a check fails or an operation fails.

    python3 bench/run.py

(`--workload all`) runs the self-test, then every workload untraced and
traced, each in a fresh process, one after another, and prints every
metric.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import programs
import reference
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("fuzz-base", "fuzz-refine", "programs")
SETUP_REPEATS = 9
FUZZ_CHUNK = 50          # terms per run_fuzz call
FUZZ_DEPTH = 6           # as `otlc fuzz` and tier-1
FUZZ_FUEL = 1000
EVAL_FUEL = 10_000       # `otlc eval` default
SAMPLE_EVERY = 8         # about one fuzz term in 8 is evaluated by otlc too
FINDINGS_PER_TERM = 1e-3  # more soundness failures than this, and more than one, fail a run
FIG2_RULES = ("T-Var", "T-Num", "T-Const", "T-True", "T-False",
              "T-Abs", "T-AbsPred", "T-App", "T-AppPred", "T-If")
HIST_NODES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
HIST_STEPS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def fuzz_seed(seed: int, chunk: int) -> int:
    """Seed of one run_fuzz chunk; far from the small seeds tier-1 uses."""
    return 10**9 + seed * 10**4 + chunk


# ---------------------------------------------------------------------------
# Set-up


def load_otlc() -> dict:
    """Import the package afresh from src/ and return its layer modules."""
    if not (SRC / "otlc" / "__init__.py").is_file():
        raise SystemExit(f"otlc sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "otlc" or m.startswith("otlc.")]:
        del sys.modules[name]
    importlib.import_module("otlc")
    return {layer: sys.modules[f"otlc.{layer}"] for layer in LAYERS}


def set_up(workload: str, seed: int):
    """Median time of SETUP_REPEATS fresh imports, each followed by building
    the inputs; the modules and inputs of the last repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = load_otlc()
        inputs = programs.build_round(seed) if workload == "programs" else None
        times.append(time.perf_counter() - t0)
    return statistics.median(times), mods, inputs


class CacheStats:
    """Hits and misses of `normalize`'s cache over the traced units; both
    stay 0 if `normalize` has no `cache_info`."""

    def __init__(self, mods: dict):
        self.info = getattr(mods["subtyping"].normalize, "cache_info", None)
        self.hits = self.misses = 0
        self._at = (0, 0)

    def _now(self):
        if self.info is None:
            return 0, 0
        i = self.info()
        return i.hits, i.misses

    def begin(self):
        self._at = self._now()

    def end(self):
        h, m = self._now()
        self.hits += h - self._at[0]
        self.misses += m - self._at[1]


# ---------------------------------------------------------------------------
# Workloads.  A unit of work adds what it completed to a Tally and checks
# it, outside the timed part.  A traced run alternates untraced and traced
# units so that both see the same cache state.


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings = 0                  # terms run_fuzz reported unsound
        self.item_ms: list[float] = []     # per completed item
        self.nodes: list[int] = []
        self.steps: list[int] = []
        # (lo, hi, seconds, contention): items lo:hi took seconds
        self.units: list[tuple[int, int, float, float]] = []
        self.coverage: dict[str, int] = {}
        self.errors: list[str] = []

    @property
    def items(self) -> int:
        return len(self.item_ms)


class FuzzWorkload:
    """run_fuzz in chunks of FUZZ_CHUNK terms, as `otlc fuzz` runs it; each
    chunk has a seed of its own."""

    def __init__(self, mods: dict, seed: int, refine: bool):
        self.mods = mods
        self.seed = seed
        self.refine = refine
        self.chunk = 0
        self.cache = CacheStats(mods)
        self.sample = random.Random(f"sample:{seed}")

    def unit(self, tally: Tally, tracer: Tracer | None) -> tuple[int, float]:
        harness = self.mods["harness"]
        cfg = harness.FuzzConfig(count=FUZZ_CHUNK, seed=fuzz_seed(self.seed, self.chunk),
                                 max_depth=FUZZ_DEPTH, fuel=FUZZ_FUEL,
                                 with_refinements=self.refine)
        self.chunk += 1
        tested, stamps = [], []
        if tracer:
            tracer.install()
            self.cache.begin()
        gen = harness.gen_typed_term

        def recording_gen(*args, **kwargs):
            stamps.append(time.perf_counter())
            e = gen(*args, **kwargs)
            tested.append(e)
            return e

        harness.gen_typed_term = recording_gen
        run = harness.run_fuzz
        t0 = time.perf_counter()
        try:
            rep = run(cfg)
        finally:
            t1 = time.perf_counter()
            harness.gen_typed_term = gen
            if tracer:
                self.cache.end()
                tracer.uninstall()
        stamps.append(t1)
        lo = tally.items
        tally.item_ms += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        tally.attempted += rep.generated
        for f in rep.all_failures():
            print(f"finding: [{f.kind}] step {f.step}: {f.term}: {f.detail}", file=sys.stderr)
        tally.findings += len({f.term for f in rep.all_failures()})
        for rule, n in rep.coverage.items():
            tally.coverage[rule] = tally.coverage.get(rule, 0) + n
        if rep.generated != FUZZ_CHUNK or len(tested) != FUZZ_CHUNK:
            tally.errors.append(f"chunk {cfg.seed}: {rep.generated} generated, "
                                f"{len(tested)} recorded, {FUZZ_CHUNK} asked")
        for e in tested:
            nodes, steps, errs = term_facts(self.mods, e,
                                            self.sample.randrange(SAMPLE_EVERY) == 0)
            tally.nodes.append(nodes)
            tally.steps.append(steps)
            tally.errors += errs
        return lo, t1 - t0

    def check_run(self, tally: Tally):
        """Every Fig. 2 rule fired, and soundness failures stay rare.

        A report's failures are the fuzzer's findings, not failed
        operations: on some seeds the generator reaches the extended-mode
        preservation gap (see CHANGES.md), about once in 10^5 terms, so a
        zero count would depend on the seed and on how far the run got."""
        missing = [r for r in FIG2_RULES if not tally.coverage.get(r)]
        if missing:
            tally.errors.append(f"rules never exercised: {missing}")
        if tally.findings > max(1, FINDINGS_PER_TERM * tally.attempted):
            tally.errors.append(f"{tally.findings} unsound terms in {tally.attempted}")

    @staticmethod
    def typical_ms(units, item_ms) -> float:
        """Median over units of a chunk's mean time per term.  The median
        term sits in a steep gap between atoms and larger terms, where a
        1% change in the mix moves it by 15%; a chunk's mean does not."""
        return statistics.median(1e3 * secs / (hi - lo) for lo, hi, secs, _ in units)


def term_facts(mods: dict, e, compare: bool) -> tuple[int, int, list[str]]:
    """Nodes and reduction steps of a fuzz term by the reference evaluator;
    with `compare`, also whether otlc's evaluator reaches the same value."""
    syntax, semantics = mods["syntax"], mods["semantics"]
    text = syntax.print_expr(e)
    try:
        term = reference.read_term(text)
        value, steps = reference.evaluate(term)
    except reference.RefError as err:
        return 0, 0, [f"reference failed on {text}: {err}"]
    errs = []
    if compare:
        out = semantics.evaluate(e, FUZZ_FUEL)
        got = syntax.print_expr(out.v) if isinstance(out, semantics.Value) else repr(out)
        if got != reference.show(value):
            errs.append(f"{text}: otlc gives {got}, reference {reference.show(value)}")
    return reference.size(term), steps, errs


# Where the functions `otlc check` and `otlc eval` call live.
PIPELINE = {"parse_program": "syntax", "typecheck": "checker", "print_type": "syntax",
            "print_pred": "syntax", "evaluate": "semantics", "print_expr": "syntax"}


def run_program(mods: dict, api: dict, text: str, coverage: dict) -> tuple[str, str]:
    """What `otlc check` and then `otlc eval` print for one program text."""
    decls, e = api["parse_program"](text)
    j = api["typecheck"](frozenset(decls), {}, e, mods["checker"].Mode.PRIMARY,
                         coverage=coverage)
    checked = f"{api['print_type'](j.type)} ; {api['print_pred'](j.pred)}"
    out = api["evaluate"](e, EVAL_FUEL)
    if not isinstance(out, mods["semantics"].Value):
        return checked, f"no value: {out!r}"
    return checked, api["print_expr"](out.v)


def output_errors(p: programs.Program, checked: str, value: str) -> list[str]:
    """How what otlc printed differs from the program's answer."""
    errs = []
    if checked != p.expected_check:
        errs.append(f"check printed {checked!r}, expected {p.expected_check!r}")
    if value != p.expected_value:
        errs.append(f"eval printed {value!r}, expected {p.expected_value!r}")
    return errs


def reference_check(p: programs.Program) -> tuple[int, list[str]]:
    """The program's size, and how the reference evaluator's value and step
    count differ from the program's answer."""
    try:
        _, term = reference.read_program(p.text)
        value, steps = reference.evaluate(term)
    except reference.RefError as err:
        return 0, [f"reference failed on a {p.family} program: {err}"]
    errs = []
    if reference.show(value) != p.expected_value:
        errs.append(f"reference value {reference.show(value)!r}, "
                    f"expected {p.expected_value!r}")
    if steps != p.steps:
        errs.append(f"reference took {steps} steps, expected {p.steps}")
    return reference.size(term), errs


class ProgramsWorkload:
    """Rounds of seeded programs, each checked and evaluated from a cold
    start: every lru cache in otlc is cleared before each program, as each
    `otlc` invocation is a fresh process."""

    def __init__(self, mods: dict, round_: list[programs.Program]):
        self.mods = mods
        self.round = round_
        self.cache = CacheStats(mods)
        self.caches = [fn for mod in mods.values() for fn in vars(mod).values()
                       if callable(getattr(fn, "cache_clear", None))]
        self.api = {n: getattr(mods[layer], n) for n, layer in PIPELINE.items()}
        self.traced_api = None
        self.sizes: dict[int, int] = {}   # node count of each program checked so far

    def unit(self, tally: Tally, tracer: Tracer | None) -> tuple[int, float]:
        api, pipeline = self.api, run_program
        if tracer:
            if self.traced_api is None:
                # otlc's printers call themselves, so they are not rebound
                # in their own module; the benchmark's calls still get spans.
                self.traced_api = {n: tracer.wrap(f"{PIPELINE[n]}.{n}", fn)
                                   for n, fn in self.api.items()}
                self.traced_pipeline = tracer.wrap("bench.program", run_program)
            api, pipeline = self.traced_api, self.traced_pipeline
            tracer.install()
        lo, busy, done = tally.items, 0.0, []
        try:
            for i, p in enumerate(self.round):
                for fn in self.caches:
                    fn.cache_clear()
                if tracer:
                    self.cache.begin()
                tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    checked, value = pipeline(self.mods, api, p.text, tally.coverage)
                except Exception as err:  # a failed operation: counted, not checked
                    tally.failed += 1
                    print(f"failed: {p.family}: {type(err).__name__}: {err}", file=sys.stderr)
                    continue
                finally:
                    t1 = time.perf_counter()
                    busy += t1 - t0
                    if tracer:
                        self.cache.end()
                tally.item_ms.append((t1 - t0) * 1e3)
                done.append((i, checked, value))
        finally:
            if tracer:
                tracer.uninstall()
        for i, checked, value in done:
            p = self.round[i]
            tally.errors += output_errors(p, checked, value)
            if i not in self.sizes:
                self.sizes[i], errs = reference_check(p)
                tally.errors += errs
            tally.nodes.append(self.sizes[i])
            tally.steps.append(p.steps)
        return lo, busy

    def check_run(self, tally: Tally):
        pass

    @staticmethod
    def typical_ms(units, item_ms) -> float:
        return _percentile(sorted(x for lo, hi, _, _ in units for x in item_ms[lo:hi]), 0.50)


# ---------------------------------------------------------------------------
# Metrics


def _percentile(sorted_xs: list[float], q: float) -> float:
    return sorted_xs[min(len(sorted_xs) - 1, int(q * len(sorted_xs)))] if sorted_xs else 0.0


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not use
    otlc: how fast the machine runs at this moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def contended(tally: Tally) -> list[tuple[int, int, float, float]]:
    """The quarter of a run's units during which the probe ran slowest.

    On a shared host the same work runs up to twice as fast while other
    tenants are idle, in phases of seconds to minutes.  The slow, contended
    state is the common one, so timings taken in it repeat far better from
    run to run than timings over the whole run.  The probe, not the unit's
    own time, picks the units, so the pick does not favour units whose
    inputs happen to be cheap."""
    units = sorted(tally.units, key=lambda u: -u[3])
    return units[:max(1, len(units) // 4)]


def end_to_end(tally: Tally, setup_s: float, typical_ms) -> dict:
    units = contended(tally)
    secs = sum(u[2] for u in units)
    ms = sorted(x for lo, hi, _, _ in units for x in tally.item_ms[lo:hi])
    n = max(1, tally.items)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(ms) / secs, "1/s"),
        "nodes_per_s": (sum(sum(tally.nodes[lo:hi]) for lo, hi, _, _ in units) / secs, "1/s"),
        "steps_per_s": (sum(sum(tally.steps[lo:hi]) for lo, hi, _, _ in units) / secs, "1/s"),
        "item_ms_p50": (typical_ms(units, tally.item_ms), "ms"),
        "item_ms_p99": (_percentile(ms, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_term_nodes": (sum(tally.nodes) / n, "count"),
        "mean_reduction_steps": (sum(tally.steps) / n, "count"),
        "rules_covered": (len(tally.coverage), "count"),
    }


def _rate(tally: Tally) -> float:
    return statistics.median((hi - lo) / secs for lo, hi, secs, _ in tally.units) if tally.units else 0.0


SPAN_METRICS = (
    ("harness.gen_typed_term", "us_per_call"),
    ("harness.gen_typed_term", "self_ms"),
    ("harness.check_subject_reduction", "us_per_call"),
    ("harness.shrink_failure", "calls"),
    ("refine.erase_expr", "calls"),
    ("refine.erased_judgment_holds", "us_per_call"),
    ("checker.typecheck", "calls"),
    ("checker.typecheck", "self_ms"),
    ("checker.typecheck", "us_per_call"),
    ("subtyping.subtype", "calls"),
    ("subtyping.subtype", "self_ms"),
    ("subtyping.normalize", "calls"),
    ("semantics.step", "calls"),
    ("semantics.step", "self_ms"),
    ("semantics.evaluate", "us_per_call"),
    ("syntax.free_vars", "calls"),
    ("syntax.substitute", "calls"),
    ("syntax.substitute", "self_ms"),
    ("syntax.parse_expr", "us_per_call"),
    ("syntax.parse_program", "us_per_call"),
    ("syntax.print_expr", "us_per_call"),
)
_UNITS = {"calls": "count", "self_ms": "ms", "us_per_call": "us"}


def _hist(prefix: str, xs: list[int], edges: tuple[int, ...]) -> dict:
    """Share of xs in each bucket [edge, next edge), in percent."""
    out = {}
    n = max(1, len(xs))
    for lo, hi in zip(edges, edges[1:] + (None,)):
        label = f"{lo}-inf" if hi is None else (str(lo) if hi == lo + 1 else f"{lo}-{hi - 1}")
        k = sum(1 for x in xs if x >= lo and (hi is None or x < hi))
        out[f"{prefix}.{label}"] = (100.0 * k / n, "%")
    return out


def per_layer(tracer: Tracer, cache: CacheStats, traced: Tally, plain: Tally) -> dict:
    tot = tracer.totals(within="harness.gen_typed_term")
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "calls_within": 0}
    out = {}
    for name, kind in SPAN_METRICS:
        rec = tot.get(name, empty)
        if kind == "calls":
            v = rec["calls"]
        elif kind == "self_ms":
            v = rec["self_ns"] / 1e6
        else:
            v = rec["total_ns"] / 1e3 / rec["calls"] if rec["calls"] else 0.0
        out[f"{name}.{kind}"] = (v, _UNITS[kind])
    gens = tot.get("harness.gen_typed_term", empty)["calls"]
    vetting = tot.get("checker.typecheck", empty)["calls_within"]
    n = max(1, len(traced.nodes))
    parse_ns = sum(tot.get(p, empty)["total_ns"]
                   for p in ("syntax.parse_expr", "syntax.parse_program"))
    plain_rate, traced_rate = _rate(plain), _rate(traced)
    out.update({
        "harness.gen.typecheck_calls_per_term": (vetting / gens if gens else 0.0, "calls/term"),
        "harness.gen.atom_terms": (100.0 * sum(1 for x in traced.nodes if x == 1) / n, "%"),
        "harness.gen.zero_step_terms": (100.0 * sum(1 for x in traced.steps if x == 0) / n, "%"),
        "subtyping.normalize.cache_hits": (cache.hits, "count"),
        "subtyping.normalize.cache_misses": (cache.misses, "count"),
        "syntax.parse.chars_per_s": (tracer.chars / (parse_ns / 1e9) if parse_ns else 0.0,
                                     "chars/s"),
        "trace.items": (traced.items, "count"),
        "trace.spans": (len(tracer.name), "count"),
        "trace.untraced_items_per_s": (plain_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (plain_rate / traced_rate - 1) if traced_rate else 0.0,
                               "%"),
    })
    out.update(_hist("hist.term_nodes", traced.nodes, HIST_NODES))
    out.update(_hist("hist.reduction_steps", traced.steps, HIST_STEPS))
    return out


# ---------------------------------------------------------------------------
# One workload in this process


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    setup_s, mods, inputs = set_up(workload, seed)
    if workload == "programs":
        wl = ProgramsWorkload(mods, inputs)
    else:
        wl = FuzzWorkload(mods, seed, refine=(workload == "fuzz-refine"))
    tracer = Tracer(mods) if traced else None
    plain, spanned = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    before = probe()
    while time.perf_counter() < deadline:
        tally = spanned if tracer and len(plain.units) > len(spanned.units) else plain
        lo, secs = wl.unit(tally, tracer if tally is spanned else None)
        after = probe()
        tally.units.append((lo, tally.items, secs, before + after))
        before = after

    tallies = (plain, spanned) if traced else (plain,)
    for t in tallies:
        wl.check_run(t)
    if traced:
        metrics = per_layer(tracer, wl.cache, spanned, plain)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}.tsv.gz")
    else:
        metrics = end_to_end(plain, setup_s, wl.typical_ms)
    errors = [e for t in tallies for e in t.errors]
    failed = sum(t.failed for t in tallies)
    for e in errors[:10]:
        print(f"error: {e}", file=sys.stderr)
    correct = not errors and all(t.items > 0 for t in tallies)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and not failed else 1


# ---------------------------------------------------------------------------
# Every workload, each in its own process


def run_all(seed: int, seconds: float) -> int:
    py = sys.executable
    bad = subprocess.run([py, str(HERE / "selftest.py")]).returncode != 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [py, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=3 * seconds + 300)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            kind = "traced" if trace else "untraced"
            summary[f"{workload} {kind}"] = result
            if result is None:
                print(f"\n{workload} ({kind}): no result, exit {proc.returncode}")
                bad = True
                continue
            bad |= proc.returncode != 0
            print(f"\n{workload} ({kind}): attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name:45s} {m['value']:14.4f} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
