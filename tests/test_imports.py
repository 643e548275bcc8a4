"""Import structure of the package: restrictlab modules import each other at
module top only, the couplings that were dropped stay dropped, and no module
imports scipy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "restrictlab"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def test_no_relative_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path.name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert found == []


@pytest.mark.parametrize("module,imported", [
    ("measures", "frequency"), ("spherical", "geometry"), ("measures", "sampling")])
def test_module_does_not_import(module, imported):
    found = [node.lineno for node in ast.walk(_tree(f"{module}.py"))
             if isinstance(node, ast.ImportFrom) and node.level > 0
             and (node.module or "").split(".")[0] == imported]
    assert found == []


def test_no_module_imports_scipy():
    # scipy is a test dependency only; ast.walk also reaches function-local imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
                     else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
