"""README statements that restate the code: the resource budgets, the
constants of the "one owner" list and the experiment list."""

import ast
import importlib
import re
from pathlib import Path

from restrictlab import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SRC = ROOT / "src" / "restrictlab"


def _budget_constants() -> dict:
    """{'module.NAME': value} of every module-level *_BUDGET in src/restrictlab."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_BUDGET"):
                        module = importlib.import_module(f"restrictlab.{path.stem}")
                        found[f"{path.stem}.{target.id}"] = getattr(module, target.id)
    return found


def test_readme_lists_every_budget_with_its_value():
    listed = {name: 2 ** int(k) for name, k in
              re.findall(r"^- `(\w+\.\w+_BUDGET)` \(2\^(\d+)\)", README, re.M)}
    assert listed == _budget_constants()
    assert len(listed) == 15


def test_readme_owner_constants_match_the_code():
    listed = re.findall(r"^- `(\w+)\.(\w+)` \((\d+)\):", README, re.M)
    assert len(listed) == 5
    for module, name, value in listed:
        assert getattr(importlib.import_module(f"restrictlab.{module}"), name) == int(value)


def test_readme_lists_the_experiments_in_order():
    sentence = re.search(r"Experiments:(.*?)\.\s", README, re.S).group(1)
    assert tuple(re.findall(r"`([\w-]+)`", sentence)) == cli.EXPERIMENTS
