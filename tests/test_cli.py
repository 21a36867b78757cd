"""Command line interface: exit codes, output formats, and flags."""

import json

import pytest

from otlc.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def program(tmp_path):
    def write(text, name="prog.lts"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)
    return write


# ---------------------------------------------------------------------------
# check


def test_check_prints_judgment(program, capsys):
    path = program("(lambda (x : Top) (if (number? x) #t (boolean? x)))")
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "(-> Top Boolean : (U Number Boolean)) ; tt"


def test_check_type_error_exit_1(program, capsys):
    path = program("(if (number? #f) (add1 #f) (not #f))")
    assert main(["check", path]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("type error:")
    assert "T-App" in err


def test_check_extended_accepts_counterexample(program, capsys):
    path = program("(if (number? #f) (add1 #f) (not #f))")
    assert main(["check", "--extended", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("Boolean ;")


@pytest.mark.parametrize("command,annot,expected", [
    ("check", "(U Number (U True False) Number)",
     "(-> (U Number Boolean) (U Number Boolean)) ; tt"),
    ("trace", "(U Number)", "0: (lambda (x : Number) x)"),
])
def test_unions_print_in_normal_form(program, capsys, command, annot, expected):
    body = "(if (number? x) (add1 x) x)" if command == "check" else "x"
    path = program(f"(lambda (x : {annot}) {body})")
    assert main([command, path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == expected


def test_check_parse_error_exit_2(program, capsys):
    path = program("(if 1 2")
    assert main(["check", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err


def test_check_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/prog.lts"]) == EXIT_USAGE


def test_check_undecodable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "prog.lts"
    path.write_bytes(b"(add1 \xff)")
    assert main(["check", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}: ")
    assert len(err.splitlines()) == 1


def test_check_delta_flag(program, capsys):
    path = program("(lambda (n : (Refinement even?)) (add1 n))")
    assert main(["check", "--delta", "even?", path]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "(-> (Refinement even?) Number) ; tt"


def test_check_unknown_delta_name(program, capsys):
    path = program("5")
    assert main(["check", "--delta", "prime?", path]) == EXIT_USAGE
    assert "unknown constant" in capsys.readouterr().err


def test_check_refinement_default_delta(program, capsys):
    # Files using refinement syntax default to {even?, odd?}.
    path = program("(lambda (n : Number) (if (even? n) 1 0))")
    assert main(["check", path]) == EXIT_OK


def test_check_declare_directive(program, capsys):
    path = program("(declare-refinement even?)\n"
                   "(lambda (n : (Refinement even?)) n)")
    assert main(["check", path]) == EXIT_OK


@pytest.mark.parametrize("operand", ["(lambda (m : (Refinement even?)) 7)",
                                     "(lambda (m : Number) 7)"])
def test_check_undeclared_refinement_exit_1(program, capsys, operand):
    # even? is undeclared: the verdict must not depend on whether the
    # operand's type is the parameter's type itself.
    path = program("(declare-refinement odd?)\n"
                   f"((lambda (f : (-> (Refinement even?) Number)) 1) {operand})")
    assert main(["check", path]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "type error: refinement predicate even? is not declared"


# ---------------------------------------------------------------------------
# eval / trace


def test_eval_prints_value(program, capsys):
    path = program("(if (number? #f) (add1 #f) (not #f))")
    assert main(["eval", path]) == EXIT_FAILURE  # primary rejects it
    assert main(["eval", "--unchecked", path]) == EXIT_OK
    outs = capsys.readouterr().out.strip()
    assert outs == "#t"


def test_eval_simple(program, capsys):
    path = program("((lambda (x : Number) (add1 x)) 41)")
    assert main(["eval", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "42"


def test_eval_stuck_exit_1(program, capsys):
    path = program("(5 5)")
    assert main(["eval", "--unchecked", path]) == EXIT_FAILURE
    assert "stuck: operator not applicable" in capsys.readouterr().err


def test_eval_fuel_exhausted(program, capsys):
    path = program("(add1 (add1 (add1 0)))")
    assert main(["eval", "--fuel", "1", path]) == EXIT_FAILURE
    assert "fuel exhausted" in capsys.readouterr().err


def test_trace_numbered_lines(program, capsys):
    path = program("(add1 (add1 1))")
    assert main(["trace", path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0: (add1 (add1 1))", "1: (add1 2)", "2: 3"]


def test_trace_stuck_unchecked_exit_1(program, capsys):
    path = program("(add1 #t)")
    assert main(["trace", "--unchecked", path]) == EXIT_FAILURE
    out = capsys.readouterr()
    assert out.out == "0: (add1 #t)\n"
    assert out.err == "stuck: add1 is not defined on this operand at (add1 #t)\n"


def test_trace_fuel_exhausted(program, capsys):
    path = program("(add1 (add1 (add1 0)))")
    assert main(["trace", "--fuel", "1", path]) == EXIT_FAILURE
    out = capsys.readouterr()
    assert out.out == "0: (add1 (add1 (add1 0)))\n1: (add1 (add1 1))\n"
    assert out.err == "fuel exhausted\n"


@pytest.mark.parametrize("command", ["eval", "trace", "fuzz"])
def test_negative_fuel_is_a_usage_error(program, capsys, command):
    args = [command, "--fuel", "-1"] + ([] if command == "fuzz" else [program("5")])
    assert main(args) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "bad flags: fuel must be nonnegative\n"


@pytest.mark.parametrize("command", ["eval", "trace"])
def test_open_program_unchecked_exit_1(program, capsys, command):
    path = program("((lambda (x : Number) y) 1)")
    assert main([command, "--unchecked", path]) == EXIT_FAILURE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "cannot run an open program: unbound variable y\n"


def test_trace_rejects_ill_typed_without_unchecked(program, capsys):
    path = program("(add1 #t)")
    assert main(["trace", path]) == EXIT_FAILURE
    assert "type error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_summary_and_exit_0(capsys):
    assert main(["fuzz", "--count", "40", "--seed", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "generated 40 terms" in out
    assert "preservation failures: 0" in out
    assert "rule coverage:" in out


def test_fuzz_bad_count_exit_2(capsys):
    assert main(["fuzz", "--count", "0"]) == EXIT_USAGE
    assert "bad flags" in capsys.readouterr().err


def test_fuzz_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["fuzz", "--count", "30", "--seed", "8",
                 "--json", str(out_path)]) == EXIT_OK
    d = json.loads(out_path.read_text(encoding="utf-8"))
    assert d["generated"] == 30
    assert d["seed"] == 8
    assert d["failures"] == []
    assert d["coverage"]


def test_fuzz_unwritable_json_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert main(["fuzz", "--count", "2", "--json", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_fuzz_refinements_flag(capsys):
    assert main(["fuzz", "--count", "30", "--seed", "7",
                 "--refinements"]) == EXIT_OK


# ---------------------------------------------------------------------------
# usage


def test_no_command_exit_2(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exit_0(capsys):
    assert main(["--help"]) == EXIT_OK


# ---------------------------------------------------------------------------
# deeply nested input


def _tower(depth):
    return "(add1 " * depth + "1" + ")" * depth


@pytest.mark.parametrize("command", ["check", "eval", "trace"])
@pytest.mark.parametrize("depth", [10**3, 10**5])
def test_deep_input_is_a_clean_usage_error(program, capsys, command, depth):
    path = program(_tower(depth))
    assert main([command, path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"{path}: input nested too deeply\n"
    assert "Traceback" not in err


def test_fuzz_too_deep_is_a_clean_usage_error(capsys):
    assert main(["fuzz", "--depth", "1000", "--count", "3", "--seed", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "bad flags: max_depth must be between 1 and 16\n"


@pytest.mark.parametrize("command", ["check", "eval", "trace"])
def test_moderately_deep_input_runs(program, capsys, command):
    assert main([command, program(_tower(300))]) == EXIT_OK
    assert capsys.readouterr().err == ""
