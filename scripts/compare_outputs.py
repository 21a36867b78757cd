#!/usr/bin/env python3
"""Print, as one JSON document, the observable outputs of the tree this
script sits in, so two versions of otlc can be compared byte for byte.

The document holds the stdout, stderr and exit code of `otlc check`,
`check --extended`, `eval` and `trace` on every file of `tests/corpus`,
and of `eval --fuel 0`, `eval --fuel 1`, `trace --fuel 1` and `eval
--unchecked` there, which read back stuck and out-of-fuel terms,
the `run_fuzz` reports, without `elapsed_ms`, of 400 terms for seeds 1-3
in base and refinement mode, and the reports of 250 terms for seeds 1-5
in both modes under broken semantics, the `if` rule's branches swapped,
so that failures reach the shrinker.

Example, comparing a checkout of the parent commit with this one:
    python3 /path/to/parent/scripts/compare_outputs.py > parent.json
    python3 scripts/compare_outputs.py > change.json
    diff parent.json change.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from otlc import semantics  # noqa: E402
from otlc.cli import main  # noqa: E402
from otlc.harness import FuzzConfig, run_fuzz  # noqa: E402

COMMANDS = {"check": ["check"], "check --extended": ["check", "--extended"],
            "eval": ["eval"], "trace": ["trace"],
            "eval --fuel 0": ["eval", "--fuel", "0"], "eval --fuel 1": ["eval", "--fuel", "1"],
            "trace --fuel 1": ["trace", "--fuel", "1"], "eval --unchecked": ["eval", "--unchecked"]}


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def fuzz_reports(seeds, count: int) -> dict:
    reports = {}
    for refinements in (False, True):
        for seed in seeds:
            report = run_fuzz(FuzzConfig(count=count, seed=seed,
                                         with_refinements=refinements)).to_dict()
            del report["elapsed_ms"]
            reports[f"{'refinements' if refinements else 'base'}:{seed}"] = report
    return reports


def broken_fuzz_reports() -> dict:
    """The reports under semantics whose `if` takes the other branch."""
    is_false = semantics._is_false
    semantics._is_false = lambda v: not is_false(v)
    try:
        return fuzz_reports(range(1, 6), 250)
    finally:
        semantics._is_false = is_false


def outputs() -> dict:
    corpus = {}
    for path in sorted((ROOT / "tests" / "corpus").glob("*.lts")):
        corpus[path.name] = {name: run_cli([*argv, str(path)])
                             for name, argv in COMMANDS.items()}
    return {"corpus": corpus, "fuzz": fuzz_reports((1, 2, 3), 400),
            "broken-fuzz": broken_fuzz_reports()}


if __name__ == "__main__":
    print(json.dumps(outputs(), indent=1, sort_keys=True))
