"""Import structure of the package: restrictlab modules import each other at
module top only, the couplings that were dropped stay dropped, no module
imports a package of the test extra, and numpy's FFT is reached from one
module only."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "restrictlab"
PYPROJECT = (ROOT / "pyproject.toml").read_text()


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


def _requirements(key: str) -> set[str]:
    """Distribution names in pyproject.toml's `key = [...]` list."""
    listed = re.search(rf"^{key} = \[(.*?)\]", PYPROJECT, re.M | re.S).group(1)
    return {re.match(r'\s*"([\w.-]+)', item).group(1)
            for item in listed.split(",") if item.strip()}


@pytest.mark.parametrize("package", sorted(_requirements("test") - _requirements("dependencies")))
def test_no_module_imports_test_extra(package):
    # the test extra is for the tests only; ast.walk also reaches
    # function-local imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
                     else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == package]
    assert found == []


def test_only_sampling_reaches_numpy_fft():
    # every transform is one sampling.convolve_valid: no other module names
    # np.fft or numpy.fft, nor imports from it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sampling.py":
            continue
        for node in ast.walk(_tree(path.name)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
                     else [])
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                    or any(name.startswith("numpy.fft") for name in names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
