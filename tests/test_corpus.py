"""Corpus round-trip, typeability and respelling checks over
tests/corpus/*.lts."""

from pathlib import Path

import pytest

from otlc.checker import Mode, TypeCheckError, typecheck
from otlc.syntax import Abs, App, If, parse_expr, parse_program, print_expr, print_type

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.lts"))


def test_corpus_has_fifty_files():
    assert len(CORPUS) == 50


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_roundtrip(path):
    declared, expr = parse_program(path.read_text(encoding="utf-8"))
    assert parse_expr(print_expr(expr)) == expr


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_reprint_is_fixed_point(path):
    _, expr = parse_program(path.read_text(encoding="utf-8"))
    once = print_expr(expr)
    assert print_expr(parse_expr(once)) == once


@pytest.mark.parametrize(
    "path", [p for p in CORPUS if p.name != "hand_12.lts"],
    ids=lambda p: p.name)
def test_corpus_typechecks_primary(path):
    # hand_12 is the dead-branch counterexample, typeable only in the
    # extended mode; everything else is primary-typed.
    declared, expr = parse_program(path.read_text(encoding="utf-8"))
    typecheck(frozenset(declared), {}, expr, Mode.PRIMARY)


def test_counterexample_file_typechecks_extended():
    path = Path(__file__).parent / "corpus" / "hand_12.lts"
    _, expr = parse_program(path.read_text(encoding="utf-8"))
    with pytest.raises(Exception):
        typecheck(frozenset(), {}, expr, Mode.PRIMARY)
    typecheck(frozenset(), {}, expr, Mode.EXTENDED)


def _respelled(e) -> str:
    """The text of `e` with every annotation t spelled (U t t)."""
    match e:
        case Abs(param, annot, body):
            t = print_type(annot)
            return f"(lambda ({param} : (U {t} {t})) {_respelled(body)})"
        case App(rator, rand):
            return f"({_respelled(rator)} {_respelled(rand)})"
        case If(test, then, els):
            return f"(if {_respelled(test)} {_respelled(then)} {_respelled(els)})"
    return print_expr(e)


def _judge(declared, expr, mode):
    try:
        return typecheck(frozenset(declared), {}, expr, mode)
    except TypeCheckError as err:
        return str(err)


@pytest.mark.parametrize("mode", [Mode.PRIMARY, Mode.EXTENDED])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_respelled_annotations_judge_the_same(path, mode):
    # Types are built in normal form, so (U t t) is t itself: the respelled
    # program is the same term and its judgment holds the same type object.
    declared, expr = parse_program(path.read_text(encoding="utf-8"))
    respelled = parse_expr(_respelled(expr))
    assert respelled == expr
    j, jr = _judge(declared, expr, mode), _judge(declared, respelled, mode)
    if isinstance(j, str):
        assert jr == j
    else:
        assert jr.type is j.type
        assert jr.pred == j.pred
