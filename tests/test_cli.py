"""Command line interface: exit codes, output formats, and flags."""

import json
import sys
from collections import Counter

import pytest

from otlc.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from otlc.subtyping import subtype

from test_syntax import PROGRAMS, mutants


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


def test_check_extended_decides_a_parity_test_by_delta(program, capsys):
    # Under the default Δ the extended rules type 98 at (Refinement even?),
    # so they decide (even? 98) true, as eval, which prints #t, does.
    path = program("(even? 98)")
    assert main(["check", "--extended", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Boolean ; tt"
    assert main(["eval", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "#t"


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


@pytest.mark.parametrize("command,text,col", [
    # a literal `int` cannot read, and one `add1` takes past what `str` prints
    ("check", "9" * 5000, 1),
    ("eval", "(add1 " + "9" * 4300 + ")", 7),
])
def test_huge_integer_literal_exit_2(program, capsys, command, text, col):
    path = program(text)
    assert main([command, path]) == EXIT_USAGE
    got = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert got.err == f"{path}:1:{col}: integer literal too long (at most {limit - 1} digits)\n"
    assert got.out == ""


def test_longest_integer_literal_runs(program, capsys):
    # A literal one digit short of the limit: `add1` may take it to the
    # limit, which still prints.
    digits = sys.get_int_max_str_digits() - 1
    assert main(["eval", program("(add1 " + "9" * digits + ")")]) == EXIT_OK
    assert capsys.readouterr().out == "1" + "0" * digits + "\n"


def test_check_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/prog.lts"]) == EXIT_USAGE


def test_check_undecodable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "prog.lts"
    path.write_bytes(b"(add1 \xff)")
    assert main(["check", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "eval"])
def test_byte_order_mark_is_skipped(program, capsys, command):
    # A UTF-8 file may begin with the invisible U+FEFF, which is not a token.
    plain = program("(add1 1)")
    assert main([command, plain]) == EXIT_OK
    expected = capsys.readouterr()
    marked = program("\ufeff(add1 1)", name="bom.lts")
    assert main([command, marked]) == EXIT_OK
    assert capsys.readouterr() == expected


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
    # A file that declares nothing gets {even?, odd?}.
    path = program("(lambda (n : Number) (if (even? n) 1 0))")
    assert main(["check", path]) == EXIT_OK


def test_check_declare_directive(program, capsys):
    path = program("(declare-refinement even?)\n"
                   "(lambda (n : (Refinement even?)) n)")
    assert main(["check", path]) == EXIT_OK


@pytest.mark.parametrize("operand", ["(lambda (m : (Refinement even?)) 7)",
                                     "(lambda (m : Number) 7)"])
def test_check_undeclared_refinement_exit_1(program, capsys, operand):
    # even? is undeclared: the annotation is rejected where it is written,
    # whether or not the operand's type is the parameter's type itself.
    path = program("(declare-refinement odd?)\n"
                   f"((lambda (f : (-> (Refinement even?) Number)) 1) {operand})")
    assert main(["check", path]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "type error: T-Abs: refinement predicate even? is not declared at "
        "(lambda (f : (-> (Refinement even?) Number)) 1) [via T-App > T-Abs]")


@pytest.mark.parametrize("how,c", [("directive", "add1"), ("flag", "add1"),
                                   ("directive", "number?"), ("flag", "number?")],
                         ids=["directive", "flag", "directive-number?", "flag-number?"])
def test_check_non_predicate_refinement_exit_2(program, capsys, how, c):
    # Only a refining constant may be declared.  add1 answers a Number, not
    # a Boolean, and number?'s latent is Number, not its own refinement: no
    # test puts a value in the refinement of either.
    src = f"(lambda (x : (Refinement {c})) x)"
    argv = (["check", program(f"(declare-refinement {c})\n{src}")] if how == "directive"
            else ["check", "--delta", c, program(src)])
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"not a refinement predicate: {c}"


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


# odd? refines the parameter of f, so Δ must declare it.
ODD_REFINED = ("((lambda (f : (-> (Refinement odd?) Number)) ((lambda (n : Number) "
               "(if (odd? n) (f n) n)) 3)) (lambda (m : (Refinement odd?)) (add1 m)))")


def test_eval_with_default_delta(program, capsys):
    assert main(["eval", program(ODD_REFINED)]) == EXIT_OK
    assert capsys.readouterr().out == "4\n"


def test_eval_delta_flag_without_the_refinement_exit_1(program, capsys):
    assert main(["eval", "--delta", "even?", program(ODD_REFINED)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "type error: T-Abs: refinement predicate odd? is not declared at "
        "(lambda (f : (-> (Refinement odd?) Number)) ((lambda (n : Number) "
        "(if (odd? n) (f n) n)) 3)) [via T-App > T-Abs]")


def test_trace_delta_flag(program, capsys):
    assert main(["trace", "--delta", "odd?", program(ODD_REFINED)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"0: {ODD_REFINED}"
    assert lines[-1] == "6: 4"


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
    out, err = capsys.readouterr()
    assert out == ""  # found before any term is generated
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
def test_deep_term_runs(program, capsys, command, depth):
    # The reader, the checker, the machine and the printer take terms of
    # any depth.
    path = program(_tower(depth))
    out = {"check": EXIT_OK, "eval": EXIT_OK, "trace": EXIT_FAILURE}
    flags = {"check": [], "eval": ["--fuel", str(depth)], "trace": ["--fuel", "2"]}
    assert main([command, path, *flags[command]]) == out[command]
    got = capsys.readouterr()
    if command == "check":
        assert got.out == "Number ; none\n"
    elif command == "eval":
        assert got.out == f"{depth + 1}\n"
    else:
        lines = got.out.splitlines()
        assert [line[:3] for line in lines] == ["0: ", "1: ", "2: "]
        assert lines[0] == f"0: {_tower(depth)}"
        assert lines[2] == "2: " + "(add1 " * (depth - 2) + "3" + ")" * (depth - 2)
        assert got.err == "fuel exhausted\n"


@pytest.mark.parametrize("command", ["check", "eval", "trace"])
@pytest.mark.parametrize("depth", [10**3, 10**5])
def test_deep_input_is_a_clean_usage_error(program, capsys, command, depth):
    # The reader takes an annotation of any depth, but `undeclared`, which
    # looks in it for a refinement outside Δ, recurses: an annotation
    # nested `depth` deep is too deep for it.
    path = program("(lambda (x : " + "(-> " * depth + "Number" + " Number)" * depth + ") x)")
    assert main([command, path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"{path}: input nested too deeply\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "trace"])
def test_deep_annotation_runs_unchecked(program, capsys, command):
    # Unchecked, nothing walks the annotation but the reader and printer.
    annot = "(-> " * 10**5 + "Number" + " Number)" * 10**5
    text = f"(lambda (x : {annot}) x)"
    assert main([command, "--unchecked", program(text)]) == EXIT_OK
    assert capsys.readouterr() == (text + "\n" if command == "eval" else f"0: {text}\n", "")


def test_deep_lambda_tower_checks(program, capsys):
    # The checker builds an arrow type nested as deep as the term, and
    # `print_type` prints it.
    depth = 3000
    path = program("".join(f"(lambda (x{i} : Number) " for i in range(depth)) + "x0"
                   + ")" * depth)
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr() == ("(-> Number " * depth + "Number" + ")" * depth + " ; tt\n", "")


@pytest.mark.parametrize("depth", [200, 800, 1000, 1100])
def test_deep_arrow_checked_against_its_annotation(program, capsys, depth):
    # A λ tower passed to a parameter annotated with its own arrow type
    # exits as the annotation alone does, only because hash-consing makes
    # the tower's type and the annotation one object, which `subtype`
    # accepts without recursing.  Where `undeclared` gives up depends on
    # the stack already in use, so only the ends of the range are pinned.
    annotated = "(lambda (f : " + "(-> Number " * depth + "Number" + ")" * depth + ") 0)"
    tower = ("".join(f"(lambda (x{i} : Number) " for i in range(depth)) + "x0"
             + ")" * depth)
    alone = main(["check", program(annotated, "alone.lts")])
    applied = main(["check", program(f"({annotated} {tower})", "applied.lts")])
    capsys.readouterr()
    assert applied == alone
    assert alone == {200: EXIT_OK, 1100: EXIT_USAGE}.get(depth, alone)


def _nested_arrows(depth, base):
    """`depth` nested (-> (U Number …) Number) around `base`."""
    return "(-> (U Number " * depth + base + ") Number)" * depth


@pytest.mark.parametrize("depth,code", [(50, EXIT_FAILURE), (100, EXIT_USAGE)])
def test_deep_subtype_check(program, capsys, depth, code):
    # Two different types are compared level by level, at five Python
    # frames a level, so `subtype` overflows on types a tenth as deep as
    # the reader takes.  A warm cache would answer without recursing.
    subtype.cache_clear()
    s, s2 = _nested_arrows(depth, "Number"), _nested_arrows(depth, "True")
    path = program(f"((lambda (f : (-> {s2} Number)) 0) (lambda (g : {s}) 0))")
    assert main(["check", path]) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert err == f"{path}: input nested too deeply\n"
    else:
        assert err.startswith("type error: T-App: argument type")


def test_deep_lambda_tower_passed_to_top_checks(program, capsys):
    depth = 1000
    path = program("((lambda (f : Top) 0) "
                   + "".join(f"(lambda (x{i} : Number) " for i in range(depth)) + "x0"
                   + ")" * depth + ")")
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr() == ("Number ; none\n", "")


def test_fuzz_too_deep_is_a_clean_usage_error(capsys):
    assert main(["fuzz", "--depth", "1000", "--count", "3", "--seed", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "bad flags: max_depth must be between 1 and 16\n"


@pytest.mark.parametrize("command", ["check", "eval", "trace"])
def test_moderately_deep_input_runs(program, capsys, command):
    assert main([command, program(_tower(300))]) == EXIT_OK
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# mutated programs


def test_mutated_programs_exit_cleanly(tmp_path, capsys):
    # Seeded token mutations of the corpus reach every exit code, and each
    # is an exit code, not a traceback.
    codes = Counter()
    for i, text in enumerate(mutants(400, 3, PROGRAMS)):
        path = tmp_path / f"m{i}.lts"
        path.write_text(text, encoding="utf-8")
        for argv in (["check"], ["eval", "--unchecked"]):
            code = main([*argv, str(path)])
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE), (argv, text)
            assert "Traceback" not in err
            codes[code] += 1
    assert set(codes) == {EXIT_OK, EXIT_FAILURE, EXIT_USAGE}
