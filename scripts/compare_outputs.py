#!/usr/bin/env python3
"""Print, as one JSON document, the observable outputs of the tree this
script sits in, so two versions of otlc can be compared byte for byte.

The document holds the stdout, stderr and exit code of `otlc check`,
`check --extended`, `eval` and `trace` on every file of `tests/corpus`,
and of `eval --fuel 0`, `eval --fuel 1`, `trace --fuel 1` and `eval
--unchecked` there, which read back stuck and out-of-fuel terms.  It
holds those of `eval --unchecked`, `eval --unchecked --fuel 2` and
`trace --unchecked` on seven programs whose runs read back terms under a
non-empty environment, three stuck, three ending in a closure and one in
a number; in two of them an inner binder shadows one of several
bindings, and two build a chain of closures that each call the one
before.  It holds
the `run_fuzz` reports, without `elapsed_ms`, of 400 terms for seeds 1-3
in base and refinement mode, and the reports of 250 terms for seeds 1-5
in both modes under broken semantics, the `if` rule's branches swapped,
so that failures reach the shrinker.  And it holds the checker's primary
and extended judgment of 300 generated terms per mode and of up to 3
copies of each with a #t in place of a node, which are often ill typed:
the printed judgment, or the error's rule, trail and text, and the rule
counts in the order counted.  It also holds those of `check` on 300
seeded token mutations of the corpus files, nearly all of them parse
errors, with each file's path shown by its name alone.

Example, comparing a checkout of the parent commit with this one:
    python3 /path/to/parent/scripts/compare_outputs.py > parent.json
    python3 scripts/compare_outputs.py > change.json
    diff parent.json change.json
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from otlc import semantics  # noqa: E402
from otlc.checker import Mode, TypeCheckError, typecheck  # noqa: E402
from otlc.cli import main  # noqa: E402
from otlc.harness import (  # noqa: E402
    FuzzConfig, _positions, _replace, gen_typed_term, run_fuzz)
from otlc.subtyping import REFINING  # noqa: E402
from otlc.syntax import Bool, print_expr, print_pred, print_type  # noqa: E402

CORPUS = sorted((ROOT / "tests" / "corpus").glob("*.lts"))
COMMANDS = {"check": ["check"], "check --extended": ["check", "--extended"],
            "eval": ["eval"], "trace": ["trace"],
            "eval --fuel 0": ["eval", "--fuel", "0"], "eval --fuel 1": ["eval", "--fuel", "1"],
            "trace --fuel 1": ["trace", "--fuel", "1"], "eval --unchecked": ["eval", "--unchecked"]}


# Stuck, and out of fuel, under a non-empty environment, with closures and
# pending subterms in the context (tests/test_semantics.py).
STUCK = ["((lambda (x : Top) (add1 x)) #t)",
         "((lambda (x : Top) ((lambda (g : Top) (if (g x) x (add1 x))) (lambda (z : Top) x))) #f)",
         "((lambda (x : Number) ((lambda (y : Number) (if (even? y) (lambda (z : Top) (add1 x)) "
         "y)) (add1 (add1 x)))) 2)",
         # Several bindings, one of them shadowed by an inner binder.
         "((lambda (x : Number) ((lambda (y : Number) (lambda (z : Top) ((lambda (x : Top) "
         "(if x y x)) x))) 2)) 1)",
         "((lambda (x : Top) ((lambda (y : Top) (if (add1 y) (lambda (x : Top) (if x y x)) x)) "
         "#t)) 1)",
         # A chain of closures, each calling the one before it, read back
         # whole or applied.
         *(f"((lambda (f1 : (-> Number Number)) ((lambda (f2 : (-> Number Number)) ((lambda (f3 : "
           f"(-> Number Number)) {last}) (lambda (y : Number) (f2 y)))) (lambda (y : Number) (f1 y)))) "
           f"(lambda (y : Number) (add1 y)))" for last in ("f3", "(f3 1)"))]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


# A comment or a token, and what a mutation inserts: each mark, each
# keyword and each kind of atom, a bad one among them, and a comment.
WORDS = re.compile(r";[^\n]*|[():]|[^\s():;]+")
INSERTS = ["(", ")", ":", "lambda", "if", "U", "->", "Refinement", "declare-refinement",
           "Number", "Boolean", "Bot", "x", "#t", "#q", "7", "add1", "even?", ";c\n"]


def mutants(count: int, seed, sources: list[str]):
    """`count` seeded mutations of texts from `sources`: one to three tokens
    deleted, inserted, duplicated or swapped, the tokens then joined by
    spaces, newlines and tabs."""
    rng = random.Random(seed)
    for _ in range(count):
        toks = WORDS.findall(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("delete", "insert", "duplicate", "swap"))
            i = rng.randrange(len(toks)) if toks else 0
            if op == "insert" or not toks:
                toks.insert(i, rng.choice(INSERTS))
            elif op == "delete":
                del toks[i]
            elif op == "duplicate":
                toks.insert(i, toks[i])
            else:
                j = rng.randrange(len(toks))
                toks[i], toks[j] = toks[j], toks[i]
        yield "".join(tok + rng.choice((" ", " ", "\n", "\t ")) for tok in toks)


def parse_errors() -> dict:
    """`check` on 300 mutations of the corpus files, each file's path shown
    by its name alone."""
    sources = [p.read_text(encoding="utf-8") for p in CORPUS]
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, text in enumerate(mutants(300, "parse-errors", sources)):
            path = Path(tmp) / f"mutant{n}.lts"
            path.write_text(text, encoding="utf-8")
            run = run_cli(["check", str(path)])
            run["stderr"] = run["stderr"].replace(str(path), path.name)
            runs[path.name] = {"text": text, **run}
    return runs


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


def stuck_runs() -> dict:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(STUCK):
            path = Path(tmp) / f"stuck{i}.lts"
            path.write_text(src, encoding="utf-8")
            runs[src] = {" ".join(argv): run_cli([*argv, str(path)]) for argv in (
                ["eval", "--unchecked"], ["eval", "--unchecked", "--fuel", "2"],
                ["trace", "--unchecked"])}
    return runs


def judge(delta: frozenset, e, mode: Mode) -> dict:
    coverage: dict[str, int] = {}
    try:
        j = typecheck(delta, {}, e, mode, coverage=coverage)
        out = {"judgment": f"{print_type(j.type)} ; {print_pred(j.pred)}"}
    except TypeCheckError as err:
        out = {"rule": err.rule, "trail": err.trail, "error": str(err)}
    return {**out, "coverage": list(coverage.items())}


def judgments() -> dict:
    out = {}
    for refinements in (False, True):
        delta = frozenset(REFINING if refinements else ())
        mode_name = "refinements" if refinements else "base"
        for i in range(300):
            e = gen_typed_term(random.Random(f"cmp:{mode_name}:{i}"), 6, delta)
            n = len(_positions(e))
            positions = sorted({n // 4, n // 2, 3 * n // 4})
            terms = [e, *(_replace(e, pos, Bool(True)) for pos in positions)]
            out[f"{mode_name}:{i}"] = [
                {"term": print_expr(t), **{m.value: judge(delta, t, m) for m in Mode}}
                for t in terms]
    return out


def outputs() -> dict:
    corpus = {}
    for path in CORPUS:
        corpus[path.name] = {name: run_cli([*argv, str(path)])
                             for name, argv in COMMANDS.items()}
    return {"corpus": corpus, "stuck": stuck_runs(), "parse-errors": parse_errors(),
            "judgments": judgments(),
            "fuzz": fuzz_reports((1, 2, 3), 400), "broken-fuzz": broken_fuzz_reports()}


if __name__ == "__main__":
    print(json.dumps(outputs(), indent=1, sort_keys=True))
