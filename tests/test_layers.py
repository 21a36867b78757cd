"""Module layering: every import sits at module level, each module of the
package imports only from the layers below it, and no module normalizes
types, which are built in normal form."""

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
