#!/usr/bin/env python3
"""Self-test of the benchmark's checks: right answers pass, wrong ones fail.

    python3 bench/selftest.py

For one program of each family it shows that otlc's output matches the
answer fixed by construction and the reference evaluator agrees; then that
a wrong expected value, type or step count is reported, and that a wrong
value from otlc's evaluator on a fuzz term is reported.  Exits 1 if any
check fails to catch what it should.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import programs
import run


def main() -> int:
    mods = run.load_otlc()
    api = {n: getattr(mods[layer], n) for n, layer in run.PIPELINE.items()}
    failures = []

    def expect(cond: bool, what: str):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    by_family = {}
    for p in programs.build_round(0):
        by_family.setdefault(p.family, p)
    for family, p in sorted(by_family.items()):
        checked, value = run.run_program(mods, api, p.text, {})
        expect(run.output_errors(p, checked, value) == [], f"{family}: otlc matches the answer")
        expect(run.reference_check(p)[1] == [], f"{family}: reference matches the answer")
        wrong_value = dataclasses.replace(p, expected_value=p.expected_value + "1")
        expect(run.output_errors(wrong_value, checked, value) != [],
               f"{family}: a wrong expected value fails the output check")
        expect(run.reference_check(wrong_value)[1] != [],
               f"{family}: a wrong expected value fails the reference check")
        wrong_type = dataclasses.replace(p, expected_check="Top ; none")
        expect(run.output_errors(wrong_type, checked, value) != [],
               f"{family}: a wrong expected type fails the output check")
        wrong_steps = dataclasses.replace(p, steps=p.steps + 1)
        expect(run.reference_check(wrong_steps)[1] != [],
               f"{family}: a wrong step count fails the reference check")

    harness, semantics = mods["harness"], mods["semantics"]
    terms = (harness.gen_typed_term(random.Random(f"selftest:{i}"), 6, frozenset())
             for i in range(100))
    e = next(t for t in terms if run.term_facts(mods, t, False)[1] > 0)
    expect(run.term_facts(mods, e, True)[2] == [], "fuzz term: otlc agrees with the reference")
    real = semantics.evaluate
    semantics.evaluate = lambda term, fuel: semantics.Value(mods["syntax"].Num(-12345))
    try:
        expect(run.term_facts(mods, e, True)[2] != [],
               "fuzz term: a wrong value from otlc fails the reference check")
    finally:
        semantics.evaluate = real

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
