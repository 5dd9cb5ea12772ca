"""Every public name in the package has a caller outside tests.

Two guards: top-level functions and classes need a reference, and the
fields, properties and methods of each class need a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "histrepair"
CALLER_DIRS = ("src", "demos", "perfbench")

# public top-level names allowed to have no caller yet, each with its reason
ALLOWED = {
    ("metrics", "stratify"): "the report will export it as strata.json; "
                             "the README promises stratified quartiles",
}


def _caller_trees() -> list[ast.AST]:
    return [ast.parse(path.read_text(), str(path))
            for directory in CALLER_DIRS
            for path in sorted((ROOT / directory).rglob("*.py"))]


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
    referenced = set().union(*map(_references, _caller_trees()))
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


# public class members allowed to have no read yet, each with its reason
ALLOWED_MEMBERS = {
    ("blame", "JudgeCandidate.subject"): "the judge interface that tests stub; "
                                         "a model-backed judge reads it",
    ("blame", "JudgeCandidate.contexts"): "the judge interface that tests stub; "
                                          "a model-backed judge reads it",
    ("gitio", "BlameLine.headers"): "the tests' porcelain parse oracle",
    ("patches", "Hunk.old_line_numbers"): "the tests' hunk parse oracle",
    ("metrics", "Strata.n"): "stratified quartiles for the allowlisted stratify",
    ("metrics", "Strata.q1"): "stratified quartiles for the allowlisted stratify",
    ("metrics", "Strata.q3"): "stratified quartiles for the allowlisted stratify",
    ("sandbox", "CommandResult.duration"): "per-step durations will go into the "
                                           "run record",
    ("synth", "GroundTruthRepo.executable_lines"): "the construction truth the "
                                                   "tests check sourcetext against",
    ("synth", "GroundTruthRepo.expected_anchor"): "the construction truth the "
                                                  "tests check fallback blame against",
}


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names a module reads, plus its string constants.

    A string constant covers a member reached by name, as in
    getattr(row, "steps").
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unread_public_members() -> set[tuple[str, str]]:
    read = set().union(*map(_reads, _caller_trees()))
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                else:
                    continue
                if not name.startswith("_") and name not in read:
                    unread.add((path.stem, f"{cls.name}.{name}"))
    return unread


def test_every_public_member_is_read_outside_tests():
    unread = _unread_public_members()
    stray = sorted(f"{mod}.{name}" for mod, name in unread - set(ALLOWED_MEMBERS))
    assert not stray, f"class members only tests read (delete them): {stray}"
    stale = sorted(f"{mod}.{name}" for mod, name in set(ALLOWED_MEMBERS) - unread)
    assert not stale, f"allowlisted members that are now read: {stale}"
