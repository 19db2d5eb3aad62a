"""Every public function, class and method of the library is reached by
a run.

A top-level name of module M counts as reached when the library itself,
the benchmark (perfbench/) or the acceptance suite imports it from M,
names it as an attribute of M, or uses it inside M outside its own
definition.  Another name with the same spelling, such as a method or
a local variable, does not count.  A public method counts when some
attribute of that spelling is read outside the method's own body; a
class's __init__ counts when a runner calls the class.  Code that only
unit tests call belongs in tests/oracles.py (a reference form) or
nowhere.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "gracetree"
LIBRARY = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
RUNNERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

# Shape constructors that no trial reaches yet: the roadmap's stage-time
# benchmark (random, path and broom trees) and its degree-frontier study
# (spiders, brooms and caterpillars) build their tree matrices from them.
EXEMPT = {"broom_tree", "caterpillar_tree", "spider_tree"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


class _Scope:
    """What the names of one file refer to: modules is local name ->
    library module, names is local name -> (module, top-level name)."""

    def __init__(self, tree, own, stems):
        self.own, self.stems = own, stems
        self.modules, self.names = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    stem = self.module(a.name)
                    if stem and a.asname:
                        self.modules[a.asname] = stem
            elif isinstance(node, ast.ImportFrom):
                base = PACKAGE if node.level else node.module
                if node.level and node.module:
                    base = f"{PACKAGE}.{node.module}"
                stem = self.module(base)
                for a in node.names:
                    local = a.asname or a.name
                    if stem:
                        self.names[local] = (stem, a.name)
                    elif base == PACKAGE and a.name in stems:
                        self.modules[local] = a.name

    def module(self, dotted):
        """The library module that dotted names, or None."""
        if dotted in self.modules:
            return self.modules[dotted]
        head, _, stem = (dotted or "").partition(".")
        return stem if head == PACKAGE and stem in self.stems else None

    def ref(self, node):
        """(module, top-level name) that a Name or Attribute refers to."""
        if isinstance(node, ast.Name):
            if node.id in self.names:
                return self.names[node.id]
            return (self.own, node.id) if self.own else None
        if isinstance(node, ast.Attribute):
            stem = self.module(_dotted(node.value))
            return stem and (stem, node.attr)
        return None


def _uses(node, scope):
    """Counter of what node reads: ("top", module, name) for a
    library-level name, ("attr", name) for an attribute of any object,
    ("call", module, name) for a call of a library-level name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom):
            for a in n.names:
                ref = scope.names.get(a.asname or a.name)
                if ref:
                    out["top", *ref] += 1
        elif isinstance(n, (ast.Name, ast.Attribute)):
            if isinstance(n, ast.Attribute):
                out["attr", n.attr] += 1
            ref = scope.ref(n)
            if ref:
                out["top", *ref] += 1
        elif isinstance(n, ast.Call):
            ref = scope.ref(n.func)
            if ref:
                out["call", *ref] += 1
    return out


def unreached(library, runners, exempt=()):
    """Definitions of library (module -> source) that runners (file name
    -> source, the library's own modules by module name) never reach,
    as "module:name" or "module:Class.method"."""
    trees = {name: ast.parse(text) for name, text in runners.items()}
    scopes = {name: _Scope(tree, name if name in library else None,
                           set(library))
              for name, tree in trees.items()}
    used = sum((_uses(tree, scopes[name]) for name, tree in trees.items()),
               Counter())

    def reached(key, node, stem):
        return (used - _uses(node, scopes[stem]))[key] > 0

    out = []
    for stem in library:
        for node in trees[stem].body:
            if not isinstance(node, DEFS) or node.name in exempt:
                continue
            if (not node.name.startswith("_")
                    and not reached(("top", stem, node.name), node, stem)):
                out.append(f"{stem}:{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in node.body:
                if not isinstance(meth, DEFS):
                    continue
                if meth.name == "__init__":
                    key = ("call", stem, node.name)
                elif meth.name.startswith("_"):
                    continue
                else:
                    key = ("attr", meth.name)
                if not reached(key, meth, stem):
                    out.append(f"{stem}:{node.name}.{meth.name}")
    return sorted(out)


def test_every_public_name_is_reached():
    assert LIBRARY and all(p.exists() for p in RUNNERS)
    library = {p.stem: p.read_text() for p in LIBRARY}
    runners = dict(library)
    runners.update((str(p.relative_to(ROOT)), p.read_text())
                   for p in RUNNERS if p not in LIBRARY)
    assert unreached(library, runners, EXEMPT) == []


BITS = """
class Bits:
    def __init__(self, x):
        self.x = x

    def window(self, lo):
        return self.x >> lo

    def spare(self):
        return self.window(0)


def window(x, lo):
    return x >> lo


def helper(x):
    return helper(x - 1) if x else 0
"""
LOOP = """
from .bits import Bits


def run(b: Bits):
    return b.window(3)
"""


def test_same_spelling_does_not_reach():
    # the top-level window shares its name with a live method, helper
    # calls only itself, spare is read nowhere, and no runner calls Bits
    library = {"bits": BITS, "loop": LOOP}
    assert unreached(library, library) == [
        "bits:Bits.__init__", "bits:Bits.spare", "bits:helper",
        "bits:window", "loop:run"]
    caller = ("from gracetree import loop\nimport gracetree.bits as bits\n"
              "loop.run(bits.Bits(1).spare())\nbits.window(1, 0)\n"
              "bits.helper(1)\n")
    assert unreached(library, {**library, "caller.py": caller}) == []
