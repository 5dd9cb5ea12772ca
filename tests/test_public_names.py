"""Every public top-level name in the package has a caller outside tests."""

import ast
from pathlib import Path

import pytest

import histrepair

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "histrepair"
CALLER_DIRS = ("src", "demos", "perfbench")

# public names allowed to have no caller yet, each with its reason
ALLOWED = {
    ("metrics", "stratify"): "the report will export it as strata.json; "
                             "the README promises stratified quartiles",
    ("gitio", "snapshot_worktree"): "the acceptance tests apply patches in it; "
                                    "moved into a test file it would be no shorter",
}


def _references(tree: ast.AST) -> set[str]:
    """Names a module reads, calls, imports or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def _uncalled_public_names() -> set[tuple[str, str]]:
    referenced = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text(), str(path)))
    uncalled = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in referenced):
                uncalled.add((path.stem, node.name))
    return uncalled


def test_every_public_name_has_a_caller_outside_tests():
    uncalled = _uncalled_public_names()
    stray = sorted(f"{mod}.{name}" for mod, name in uncalled - set(ALLOWED))
    assert not stray, f"public names only tests call (delete them): {stray}"
    stale = sorted(f"{mod}.{name}" for mod, name in set(ALLOWED) - uncalled)
    assert not stale, f"allowlisted names that now have a caller: {stale}"


def test_every_exported_name_resolves():
    # the package imports its exports on first access, not at import time
    for name in histrepair.__all__:
        assert getattr(histrepair, name) is not None, name
    assert set(histrepair.__all__) <= set(dir(histrepair))
    with pytest.raises(AttributeError):
        histrepair.no_such_name
