"""Command line front end: check, eval, trace, and fuzz.

A program's Δ, its refinement predicates, is what its file declares plus
`--delta`, or every refining constant when that is empty.  Only a
refining constant, one whose latent is its own refinement, may be
declared: no test puts a value in the refinement of any other.

Exit codes: 0 success, 1 type or evaluation failure (an open program run
`--unchecked` among them), 2 usage or parse error: bad flags (a negative
`--fuel` among them), a file that cannot be read or is not UTF-8, a
`--json` report that cannot be written, a constant declared as a
refinement that is not a refining one, or input too deep for a recursive
type walker: a type annotation nested about 1,000 levels deep, or two
types that `subtype` compares nested about 100 levels deep.  Terms of
any depth are accepted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checker import Mode, TypeCheckError, typecheck
from .harness import BUCKETS, FuzzConfig, run_fuzz
from .semantics import DEFAULT_FUEL, FuelExhausted, StuckAt, Value, evaluate, trace
from .subtyping import CONSTANT_TYPES, REFINING
from .syntax import (
    CONSTANT_BY_NAME,
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
    if bad := [c.value for c in CONSTANT_TYPES if c in delta and c not in REFINING]:
        raise _CliError(f"not a refinement predicate: {', '.join(bad)}", EXIT_USAGE)
    return frozenset(delta or REFINING), expr


def _judge(delta, expr, mode: Mode):
    try:
        return typecheck(delta, {}, expr, mode)
    except TypeCheckError as err:
        raise _CliError(f"type error: {err}", EXIT_FAILURE) from None


def cmd_check(args) -> int:
    delta, expr = _load_program(args.file, args.delta)
    j = _judge(delta, expr, Mode.EXTENDED if args.extended else Mode.PRIMARY)
    print(f"{print_type(j.type)} ; {print_pred(j.pred)}")
    return EXIT_OK


def _runnable(args):
    """The program of `args`, which must be well typed or, run unchecked,
    closed."""
    delta, expr = _load_program(args.file, args.delta)
    if not args.unchecked:
        _judge(delta, expr, Mode.PRIMARY)
    elif free := free_vars(expr):
        raise _CliError(f"cannot run an open program: unbound variable {', '.join(sorted(free))}",
                        EXIT_FAILURE)
    return expr


def cmd_eval(args) -> int:
    match evaluate(_runnable(args), args.fuel):
        case Value(v):
            print(print_expr(v))
            return EXIT_OK
        case StuckAt(e, reason):
            raise _CliError(f"stuck: {reason} at {print_expr(e)}", EXIT_FAILURE)
        case FuelExhausted(last):
            raise _CliError(f"fuel exhausted after {args.fuel} steps at {print_expr(last)}",
                            EXIT_FAILURE)


def cmd_trace(args) -> int:
    terms, outcome = trace(_runnable(args), args.fuel)
    for i, term in enumerate(terms):
        print(f"{i}: {print_expr(term)}")
    match outcome:
        case Value():
            return EXIT_OK
        case StuckAt(e, reason):
            raise _CliError(f"stuck: {reason} at {print_expr(e)}", EXIT_FAILURE)
        case _:
            raise _CliError("fuel exhausted", EXIT_FAILURE)


def cmd_fuzz(args) -> int:
    try:
        config = FuzzConfig(count=args.count, seed=args.seed,
                            max_depth=args.depth, fuel=args.fuel,
                            with_refinements=args.refinements)
    except ValueError as err:
        raise _CliError(f"bad flags: {err}", EXIT_USAGE) from None
    try:
        out = open(args.json, "w", encoding="utf-8") if args.json else None
    except OSError as err:
        raise _CliError(f"cannot write {args.json}: {err}", EXIT_USAGE) from None
    report = run_fuzz(config)
    failures = report.all_failures()
    print(f"generated {report.generated} terms "
          f"(seed {report.seed}, {report.elapsed_ms:.0f} ms)")
    for b in BUCKETS:
        print(f"{b + ' failures:':23}{len(report.bucket(b))}")
    print("rule coverage:")
    for rule, count in sorted(report.coverage.items()):
        print(f"  {rule}: {count}")
    for f in failures[:20]:
        print(f"FAIL [{f.kind}] step {f.step}: {f.term}\n  {f.detail}")
    if out is not None:
        with out:
            out.write(report.to_json())
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
        p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
        p.add_argument("--unchecked", action="store_true",
                       help="skip the typecheck before running")
        p.add_argument("--delta", default=None)
        p.set_defaults(func=func)

    p_fuzz = sub.add_parser("fuzz", help="randomized soundness testing")
    p_fuzz.add_argument("--count", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--depth", type=int, default=FuzzConfig.max_depth)
    p_fuzz.add_argument("--fuel", type=int, default=FuzzConfig.fuel)
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
    try:
        if getattr(args, "fuel", 0) < 0:
            raise _CliError("bad flags: fuel must be nonnegative", EXIT_USAGE)
        return args.func(args)
    except _CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except RecursionError:
        print(f"{args.file}: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
