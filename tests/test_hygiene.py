"""Source hygiene of the package, checked on its syntax trees.

Every imported name is used, and the arithmetic stays exact: no float
literal, no ``float(...)`` call, and no import of ``random`` or ``numpy``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "prymspin").glob("*.py"))
FORBIDDEN_MODULES = {"random", "numpy"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, imported module) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or ""


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted({name for name, _ in _imports(tree)} - used)
    assert not unused, f"{path.name} imports unused names {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_arithmetic_is_exact(path):
    tree = _tree(path)
    floats = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"]
    assert not floats, f"{path.name}: float at lines {floats}"
    modules = {module.split(".")[0] for _, module in _imports(tree)}
    assert not modules & FORBIDDEN_MODULES, f"{path.name} imports {modules & FORBIDDEN_MODULES}"


def test_checks_catch_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = float(2)\ny = 0.5\n")
    with pytest.raises(AssertionError, match=r"\['random'\]"):
        test_every_import_is_used(bad)
    with pytest.raises(AssertionError, match=r"float at lines \[2, 3\]"):
        test_arithmetic_is_exact(bad)
    bad.write_text("import numpy as np\nnp.zeros(1)\n")
    with pytest.raises(AssertionError, match="numpy"):
        test_arithmetic_is_exact(bad)
