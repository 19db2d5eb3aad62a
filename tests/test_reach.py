"""Every public function and class of the library is reached by a run.

A top-level name counts as reached when the library itself, the
benchmark (perfbench/) or the acceptance suite names it: as a
variable, an attribute or an import.  Code that only unit tests call
belongs in tests/oracles.py (a reference form) or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "gracetree").glob("*.py"))
RUNNERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

# Shape constructors that no trial reaches yet: the roadmap's stage-time
# benchmark (random, path and broom trees) and its degree-frontier study
# (spiders, brooms and caterpillars) build their tree matrices from them.
EXEMPT = {"broom_tree", "caterpillar_tree", "spider_tree"}


def _public_defs(path):
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names(path):
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_is_reached():
    assert LIBRARY and all(p.exists() for p in RUNNERS)
    named = set().union(*map(_names, RUNNERS))
    unreached = sorted(
        f"{path.name}:{name}" for path in LIBRARY
        for name in _public_defs(path)
        if name not in named and name not in EXEMPT)
    assert unreached == []
