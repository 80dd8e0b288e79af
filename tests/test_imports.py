"""The package imports nothing beyond the standard library, numpy and itself:
numpy is its one declared dependency, so any other import would pass where
that package happens to be installed and fail for users."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stagenet"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stagenet"}


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
