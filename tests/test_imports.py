"""Import structure of the package: restrictlab modules import each other at
module top only, and `measures` does not depend on `frequency`."""

import ast
from pathlib import Path

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


def test_measures_does_not_import_frequency():
    found = [node.lineno for node in ast.walk(_tree("measures.py"))
             if isinstance(node, ast.ImportFrom) and node.level > 0
             and (node.module or "").split(".")[0] == "frequency"]
    assert found == []
