"""The runtime needs only the standard library: every import in the package is
either a standard-library module or gbgeom itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gbgeom").glob("*.py"))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_sources_are_found():
    assert "coefficients.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_gbgeom(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        f"{path.name}:{line} imports {name}"
        for line, name in imported_modules(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"gbgeom"}
    ]
    assert not outside
