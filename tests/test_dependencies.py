"""The package imports no third-party module it does not declare."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "histrepair"

# declared distribution -> the top-level module it provides
RUNTIME = {"pyyaml": "yaml", "requests": "requests"}


def _third_party_imports() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__", "histrepair"}


def test_package_imports_only_its_runtime_dependencies():
    assert _third_party_imports() == set(RUNTIME.values())


def test_pyproject_declares_exactly_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert declared == set(RUNTIME)
