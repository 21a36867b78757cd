"""Module layering: every import sits at module level, each module of the
package imports only from the layers below it, no module normalizes
types, which are built in normal form, only `syntax` builds an atom, so
a test for one is identity with its constant, no function but a type
walker calls itself, and refinement mode has one spelling: the refining
constants are written out only in `subtyping`, Δ is the harness's only
refinement switch, and no relation on types takes Δ."""

import ast
from pathlib import Path

import pytest

import otlc

# Lowest first; the package's __init__ sits above them all.
LAYERS = ("syntax", "subtyping", "checker", "refine", "semantics", "harness", "cli",
          "__init__")
PACKAGE = Path(otlc.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS)


def test_package_binds_only_layer_modules():
    # Every public name is imported from the module that defines it; the
    # package itself only imports the layers.
    public = {name: value for name, value in vars(otlc).items() if not name.startswith("_")}
    strays = sorted(name for name, value in public.items()
                    if name not in LAYERS or getattr(value, "__name__", None) != f"otlc.{name}")
    assert strays == [], f"otlc binds {strays}"


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_at_module_level(module):
    tree = _tree(module)
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == [], f"{module}.py imports below module level on lines {nested}"


@pytest.mark.parametrize("module", MODULES)
def test_relative_imports_name_lower_layers(module):
    rank = LAYERS.index(module)
    upward = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [a.name for a in node.names]
            upward += [t for t in targets if LAYERS.index(t) >= rank]
    assert upward == [], f"{module}.py imports from layers at or above it: {upward}"


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("semantics", "__init__")])
def test_only_semantics_reduces_with_step(module):
    # `step` is the one-step relation the tests compare the engine against;
    # the rest of the package reduces with `evaluate` and `trace`.
    names = [a.name for node in ast.walk(_tree(module))
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert "step" not in names, f"{module}.py imports step"


@pytest.mark.parametrize("module", MODULES)
def test_no_module_normalizes_types(module):
    # Every type is built in normal form, so `subtyping.normalize` is the
    # identity; a call to it would bring a second spelling of types back.
    calls = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call)
             and "normalize" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == [], f"{module}.py calls normalize on lines {calls}"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "syntax"])
def test_only_syntax_builds_atoms(module):
    # The atoms are the constants `syntax` defines (TOP, NUM, TRUE_T,
    # FALSE_T, TT, FF and NONE_PRED), and every test for one is identity.
    # Types are hash-consed, but predicates are not: a second AtomPred
    # would be equal to its constant without being it.
    calls = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call)
             and {"AtomT", "AtomPred"} & {getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None)}]
    assert calls == [], f"{module}.py builds an atom on lines {calls}"


# Walkers over types, whose depth is the nesting of an annotation.  Terms
# of any depth are walked with explicit stacks, and a walker over the
# members of a normal union, which has no union members, needs no recursion.
RECURSIVE_BY_DESIGN = {"erase_type", "undeclared", "subtype"}


def _self_calls(tree):
    """Names of the functions in `tree` that call themselves by name,
    directly or as a method; `super()` calls aside."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Call) \
                    and getattr(f.value.func, "id", None) == "super":
                continue
            if fn.name in (getattr(f, "id", None), getattr(f, "attr", None)):
                found.add(fn.name)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_term_walker_recurses(module):
    recursive = _self_calls(_tree(module)) - RECURSIVE_BY_DESIGN
    assert recursive == set(), \
        f"{module}.py has functions that call themselves: {sorted(recursive)}"


def test_recursive_by_design_are_recursive():
    # A walker that stops recursing leaves the list.
    recursive = set().union(*(_self_calls(_tree(m)) for m in MODULES))
    assert RECURSIVE_BY_DESIGN <= recursive


def _spells_refining_set(node) -> bool:
    """A tuple, list or set display holding both parity tests, or a slice of
    `list(Constant)`."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        named = {e.attr for e in node.elts if isinstance(e, ast.Attribute)
                 and getattr(e.value, "id", None) == "Constant"}
        return {"EVEN_P", "ODD_P"} <= named
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "list"
            and [getattr(a, "id", None) for a in node.value.args] == ["Constant"])


def _names_a_parity_test(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in ("EVEN_P", "ODD_P")
            and getattr(node.value, "id", None) == "Constant")


SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))
# Besides `subtyping`'s table, only the constants' definition and their δ
# rules name the parity tests one by one.
NAMES_PARITY_TESTS = ("syntax", "semantics")


@pytest.mark.parametrize("path", [PACKAGE / f"{m}.py" for m in MODULES if m != "subtyping"]
                         + SCRIPTS, ids=lambda p: p.name)
def test_only_subtyping_spells_the_refining_set(path):
    # `subtyping.REFINING` is read off the constant table; everything else
    # uses it or its complement.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    may_name = path.stem in NAMES_PARITY_TESTS
    lines = [node.lineno for node in ast.walk(tree) if _spells_refining_set(node)
             or not may_name and _names_a_parity_test(node)]
    assert lines == [], f"{path.name} spells the refining set on lines {lines}"


def test_harness_has_no_refinement_flag():
    # Refinement mode is a non-empty Δ; only `FuzzConfig` carries the flag.
    params = [(fn.name, a.arg) for fn in ast.walk(_tree("harness"))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
              if a.arg == "with_refinements"]
    assert params == []


# Δ is checked where a type is written and chooses the constant table; the
# relations on types and the narrowings built on them do not take it.
DELTA_FREE = {"subtype", "overlap", "restrict", "remove", "env_plus", "env_minus"}


def test_relations_take_no_delta():
    params = {fn.name: [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
              for m in ("subtyping", "checker") for fn in ast.walk(_tree(m))
              if isinstance(fn, ast.FunctionDef) and fn.name in DELTA_FREE}
    assert set(params) == DELTA_FREE
    assert [name for name, args in params.items() if "delta" in args] == []
