"""Command line front end: check, eval, trace, and fuzz.

Exit codes: 0 success, 1 type or evaluation failure (an open program run
`--unchecked` among them), 2 usage or parse error: bad flags (a negative
`--fuel` among them), a file that cannot be read or is not UTF-8, a
`--json` report that cannot be written, or input nested too deeply for
the recursive reader and checker.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checker import Mode, TypeCheckError, typecheck
from .harness import FuzzConfig, run_fuzz
from .refine import uses_refinements
from .semantics import FuelExhausted, StuckAt, Value, evaluate, trace
from .subtyping import UndeclaredRefinement
from .syntax import (
    CONSTANT_BY_NAME,
    Constant,
    ParseError,
    free_vars,
    parse_program,
    print_expr,
    print_pred,
    print_type,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_program(path: str, delta_flag: str | None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(f"cannot read {path}: {err}", EXIT_USAGE) from None
    try:
        declared, expr = parse_program(text)
    except ParseError as err:
        raise _CliError(f"{path}:{err}", EXIT_USAGE) from None
    delta = set(declared)
    if delta_flag:
        for name in delta_flag.split(","):
            c = CONSTANT_BY_NAME.get(name.strip())
            if c is None:
                raise _CliError(f"unknown constant in --delta: {name.strip()}", EXIT_USAGE)
            delta.add(c)
    if not delta and uses_refinements(expr):
        delta = {Constant.EVEN_P, Constant.ODD_P}
    return frozenset(delta), expr


def cmd_check(args) -> int:
    delta, expr = _load_program(args.file, args.delta)
    mode = Mode.EXTENDED if args.extended else Mode.PRIMARY
    try:
        j = typecheck(delta, {}, expr, mode)
    except (TypeCheckError, UndeclaredRefinement) as err:
        print(f"type error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"{print_type(j.type)} ; {print_pred(j.pred)}")
    return EXIT_OK


def _check_before_run(delta, expr, unchecked: bool) -> int | None:
    """The exit code of a program that must not run: one that is ill-typed
    or, unchecked, open."""
    if unchecked:
        free = free_vars(expr)
        if not free:
            return None
        print(f"cannot run an open program: unbound variable {', '.join(sorted(free))}",
              file=sys.stderr)
        return EXIT_FAILURE
    try:
        typecheck(delta, {}, expr, Mode.PRIMARY)
    except (TypeCheckError, UndeclaredRefinement) as err:
        print(f"type error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    return None


def cmd_eval(args) -> int:
    delta, expr = _load_program(args.file, args.delta)
    bad = _check_before_run(delta, expr, args.unchecked)
    if bad is not None:
        return bad
    outcome = evaluate(expr, args.fuel)
    match outcome:
        case Value(v):
            print(print_expr(v))
            return EXIT_OK
        case StuckAt(e, reason):
            print(f"stuck: {reason} at {print_expr(e)}", file=sys.stderr)
            return EXIT_FAILURE
        case FuelExhausted(last, steps):
            print(f"fuel exhausted after {steps} steps at {print_expr(last)}",
                  file=sys.stderr)
            return EXIT_FAILURE
    return EXIT_FAILURE


def cmd_trace(args) -> int:
    delta, expr = _load_program(args.file, args.delta)
    bad = _check_before_run(delta, expr, args.unchecked)
    if bad is not None:
        return bad
    steps = trace(expr, args.fuel)
    for i, term in enumerate(steps):
        print(f"{i}: {print_expr(term)}")
    match evaluate(steps[-1], 0):
        case Value():
            return EXIT_OK
        case StuckAt(e, reason):
            print(f"stuck: {reason} at {print_expr(e)}", file=sys.stderr)
            return EXIT_FAILURE
        case _:
            print("fuel exhausted", file=sys.stderr)
            return EXIT_FAILURE


def cmd_fuzz(args) -> int:
    try:
        config = FuzzConfig(count=args.count, seed=args.seed,
                            max_depth=args.depth, fuel=args.fuel,
                            with_refinements=args.refinements)
    except ValueError as err:
        print(f"bad flags: {err}", file=sys.stderr)
        return EXIT_USAGE
    report = run_fuzz(config)
    failures = report.all_failures()
    print(f"generated {report.generated} terms "
          f"(seed {report.seed}, {report.elapsed_ms:.0f} ms)")
    print(f"preservation failures: {len(report.preservation_failures)}")
    print(f"progress failures:     {len(report.progress_failures)}")
    print(f"erasure failures:      {len(report.erasure_failures)}")
    print(f"round-trip failures:   {len(report.roundtrip_failures)}")
    print("rule coverage:")
    for rule, count in sorted(report.coverage.items()):
        print(f"  {rule}: {count}")
    for f in failures[:20]:
        print(f"FAIL [{f.kind}] step {f.step}: {f.term}\n  {f.detail}")
    if args.json:
        try:
            Path(args.json).write_text(report.to_json(), encoding="utf-8")
        except OSError as err:
            raise _CliError(f"cannot write {args.json}: {err}", EXIT_USAGE) from None
    return EXIT_OK if not failures else EXIT_FAILURE


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otlc",
        description="Typechecker, evaluator and soundness fuzzer for an "
                    "occurrence-typed lambda calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program file")
    p_check.add_argument("file")
    p_check.add_argument("--extended", action="store_true",
                         help="also use the proof-technical rules")
    p_check.add_argument("--delta", default=None,
                         help="comma-separated refinement predicates")
    p_check.set_defaults(func=cmd_check)

    for name, func in (("eval", cmd_eval), ("trace", cmd_trace)):
        p = sub.add_parser(name, help=f"{name} a program file")
        p.add_argument("file")
        p.add_argument("--fuel", type=int, default=10_000)
        p.add_argument("--unchecked", action="store_true",
                       help="skip the typecheck before running")
        p.add_argument("--delta", default=None)
        p.set_defaults(func=func)

    p_fuzz = sub.add_parser("fuzz", help="randomized soundness testing")
    p_fuzz.add_argument("--count", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--depth", type=int, default=6)
    p_fuzz.add_argument("--fuel", type=int, default=1000)
    p_fuzz.add_argument("--refinements", action="store_true")
    p_fuzz.add_argument("--json", default=None, help="write a JSON report here")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    if getattr(args, "fuel", 0) < 0:
        print("bad flags: fuel must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except RecursionError:
        print(f"{args.file}: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
