"""Packaging: every third-party module the library imports is declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_levels() -> set[str]:
    """Top-level names of every absolute import under ``src/repro``."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
        for dep in project.get("dependencies", [])
    }
    undeclared = sorted(
        name for name in _imported_top_levels()
        if name != "repro"
        and name not in sys.stdlib_module_names
        and name.lower() not in declared
    )
    assert not undeclared, (
        f"imported but not in pyproject dependencies: {undeclared}"
    )
