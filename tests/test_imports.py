"""The package and its tests import nothing beyond the standard library,
numpy and pytest, the only packages CI installs: an import of scipy, say,
would pass wherever scipy happens to be installed and fail only in CI.

Imports are read from each module's syntax tree, so a name that appears only
in a string or a comment, as in this file, does not count."""

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "pytest", "seqdetect"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


MODULES = sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(REPO)))
def test_imports_only_what_ci_installs(path):
    outside = imported_packages(path) - ALLOWED - sys.stdlib_module_names
    assert not outside, f"{path.relative_to(REPO)} imports {sorted(outside)}"


def test_scipy_import_is_caught(tmp_path):
    module = tmp_path / "stray.py"
    module.write_text("import numpy\nfrom scipy.linalg import eigh\n")
    assert imported_packages(module) - ALLOWED - sys.stdlib_module_names == {"scipy"}
