"""The package imports nothing beyond the standard library, numpy and itself:
numpy is its one declared dependency, so any other import would pass where
that package happens to be installed and fail for users.  And it holds what
the system runs: a public name that only tests call belongs in the tests
(ROADMAP aim 2)."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stagenet"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stagenet"}
# the files whose code counts as the system calling a name
SYSTEM = sorted((ROOT / "src").rglob("*.py")) + [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
# public names that the system does not call, each with why it stays: the
# caller that will, or the use outside the system that keeps it on purpose
EXEMPT = {
    "data.load_cifar": "ROADMAP item 1's `--cifar` run",
    "data.cifar_available": "ROADMAP item 1's `--cifar` run",
    "layers.Layer.astype": "the float64 casts of `tests/gradcheck.py`, which ROADMAP aim 2 keeps",
}
# a read of one of these may be an array's, so it proves no method of that name called
ARRAY_ATTRIBUTES = set(dir(np.ndarray))


def imported_roots(tree: ast.Module):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_stay_inside_stdlib_numpy_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [f"{path.name}:{line} imports {root}"
               for line, root in imported_roots(tree) if root not in ALLOWED]
    assert outside == []


def test_a_foreign_import_is_caught():
    tree = ast.parse("import numpy as np\nfrom scipy import linalg\nfrom . import layers\n")
    assert [root for _, root in imported_roots(tree) if root not in ALLOWED] == ["scipy"]


def names_used(tree, skip=None):
    """Every name and attribute that code in ``tree`` reads, outside the
    ``skip`` node; an import or an ``__all__`` string is not a read."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def public_definitions(tree):
    """(qualified name, node) of every public module-level function and
    class in ``tree``, and of every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def uncalled(tree, used_elsewhere):
    """Qualified names of ``tree``'s public definitions that neither
    ``used_elsewhere`` nor ``tree`` outside the definition itself reads, and
    of its public methods named like an ``np.ndarray`` attribute."""
    return [name for name, node in public_definitions(tree)
            if node.name not in used_elsewhere | names_used(tree, skip=node)
            or ("." in name and node.name in ARRAY_ATTRIBUTES)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_public_name_is_called_by_the_system(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    elsewhere = set().union(*(names_used(ast.parse(p.read_text(encoding="utf-8")))
                              for p in SYSTEM if p != path))
    exempt = {name for name in EXEMPT if name.startswith(f"{path.stem}.")}
    # an exempt name that the system calls must leave the table
    assert {f"{path.stem}.{name}" for name in uncalled(tree, elsewhere)} == exempt


def test_an_uncalled_function_or_method_is_caught():
    tree = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def open(self): return used()\n"
        "    def shut(self): pass\n"
        "    def copy(self): pass\n"
        "Box().open()\n"
        "used().copy()\n")
    assert uncalled(tree, set()) == ["unused", "Box.shut", "Box.copy"]
