"""The package and its tests import no third-party module they do not declare."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "histrepair"
TESTS = ROOT / "tests"

# declared distribution -> the top-level module it provides
RUNTIME: dict[str, str] = {}
# the `test` extra: the runner, the oracles the statistics tests use, and
# the one the campaign-file reader is checked against
TEST_EXTRA = {"numpy": "numpy", "pytest": "pytest", "pyyaml": "yaml", "scipy": "scipy"}


def _imported_modules(root: Path) -> set[str]:
    """Every module an absolute import under `root` names, dotted."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module)
    return found


def _third_party_imports(root: Path) -> set[str]:
    found = {name.split(".")[0] for name in _imported_modules(root)}
    return found - set(sys.stdlib_module_names) - {"__future__", "histrepair"}


def _declared(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in requirements}


def test_package_imports_only_its_runtime_dependencies():
    assert _third_party_imports(PACKAGE) == set(RUNTIME.values())


def test_package_does_not_import_dataclasses():
    # importing it loads inspect, ast, dis and tokenize, and each class it
    # builds costs several NamedTuples; the records are NamedTuples and
    # plain classes, also in modules no CLI call loads, such as synth
    assert "dataclasses" not in _imported_modules(PACKAGE)


def test_tests_import_only_declared_dependencies():
    # a module the tests import but nothing declares fails only on the
    # machines that happen to lack it
    local = {path.stem for path in TESTS.glob("*.py")}
    undeclared = (_third_party_imports(TESTS) - local
                  - set(RUNTIME.values()) - set(TEST_EXTRA.values()))
    assert undeclared == set()


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_pyproject_declares_exactly_the_runtime_dependencies():
    assert _declared(_project()["dependencies"]) == set(RUNTIME)


def test_pyproject_test_extra_declares_what_the_tests_may_import():
    assert _declared(_project()["optional-dependencies"]["test"]) == set(TEST_EXTRA)
