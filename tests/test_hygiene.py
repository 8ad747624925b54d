"""Source hygiene: every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

import diagcat

MODULES = sorted(
    p for p in Path(diagcat.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
