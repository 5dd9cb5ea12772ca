"""Every public name in the package has a caller outside tests.

Two guards: top-level functions and classes need a reference, and the
fields, properties and methods of each class need a read. A member read
counts for the receiver's class wherever the AST makes that class
plain, so a dead member is not hidden by a read of a namesake.
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
    ("gitio", "BlameLine.headers"): "the tests' porcelain parse oracle",
    ("patches", "Hunk.old_line_numbers"): "the tests' hunk parse oracle",
    ("metrics", "Strata.n"): "stratified quartiles for the allowlisted stratify",
    ("metrics", "Strata.median"): "stratified quartiles for the allowlisted stratify",
    ("metrics", "Strata.q1"): "stratified quartiles for the allowlisted stratify",
    ("metrics", "Strata.q3"): "stratified quartiles for the allowlisted stratify",
    ("sandbox", "CommandResult.duration"): "per-step durations will go into the "
                                           "run record",
    ("synth", "GroundTruthRepo.executable_lines"): "the construction truth the "
                                                   "tests check sourcetext against",
    ("synth", "GroundTruthRepo.expected_anchor"): "the construction truth the "
                                                  "tests check fallback blame against",
}


def _class_named(expr: ast.AST, classes) -> str | None:
    """The package class an annotation or a callee names, if plain.

    `K`, `mod.K` and `K | None` name K; anything else names none.
    """
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        sides = [e for e in (expr.left, expr.right)
                 if not (isinstance(e, ast.Constant) and e.value is None)]
        return _class_named(sides[0], classes) if len(sides) == 1 else None
    name = getattr(expr, "id", getattr(expr, "attr", None))
    return name if name in classes else None


def _own_nodes(scope: ast.AST):
    """The nodes of a function body, not those of scopes nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _receiver_classes(tree: ast.AST, classes) -> dict[ast.Attribute, str]:
    """Attribute reads whose receiver's class the AST makes plain.

    A receiver is plain when it is a name that every binding in its
    function gives one package class: `self` in that class's method, a
    parameter annotated with the class, or an assignment from a call
    of the class.
    """
    methods = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound: dict[str, set] = {}
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for i, arg in enumerate(params):
            if i == 0 and fn in methods and arg.arg in ("self", "cls"):
                bound.setdefault(arg.arg, set()).add(methods[fn])
            else:
                bound.setdefault(arg.arg, set()).add(
                    arg.annotation and _class_named(arg.annotation, classes))
        constructed = {}
        for node in _own_nodes(fn):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                constructed[node.targets[0]] = _class_named(node.value.func, classes)
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, set()).add(constructed.get(node))
        for node in _own_nodes(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and len(bound.get(node.value.id, ())) == 1):
                (cls,) = bound[node.value.id]
                if cls is not None:
                    found[node] = cls
    return found


def _reads(tree: ast.AST, classes) -> tuple[set[tuple[str, str]], set[str]]:
    """(class, member) pairs a module reads, and the member names it may read.

    A read through a receiver whose class is plain counts for that
    class only. A read through any other receiver may reach any class,
    except a read through a module the file imports. A string constant
    covers a member reached by name, as in getattr(row, "steps").
    """
    modules = {(alias.asname or alias.name).split(".")[0]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.name not in classes}
    plain = _receiver_classes(tree, classes)
    keyed, named = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node in plain:
                keyed.add((plain[node], node.attr))
            elif not (isinstance(node.value, ast.Name) and node.value.id in modules):
                named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    return keyed, named


def _members(cls: ast.ClassDef) -> list[str]:
    """The fields, properties and methods a class body defines."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
    return names


def _unread_members(trees: list[ast.AST], sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, Class.member) of each public member no tree reads.

    `sources` maps a module name to its text. A read through a class
    counts for the nearest class in its bases that defines the member.
    """
    defined = {(stem, cls) for stem, text in sources.items()
               for cls in ast.walk(ast.parse(text)) if isinstance(cls, ast.ClassDef)}
    bases = {cls.name: [getattr(b, "id", getattr(b, "attr", "")) for b in cls.bases]
             for _, cls in defined}
    members = {cls.name: _members(cls) for _, cls in defined}

    def definer(cls, attr):
        if attr in members.get(cls, ()):
            return cls
        return next((d for b in bases.get(cls, ()) if (d := definer(b, attr))), None)

    keyed, named = set(), set()
    for tree in trees:
        k, n = _reads(tree, bases)
        keyed |= {(definer(cls, attr), attr) for cls, attr in k}
        named |= n
    return {(stem, f"{cls.name}.{name}") for stem, cls in defined for name in _members(cls)
            if not (name.startswith("_") or name in named or (cls.name, name) in keyed)}


def _unread_public_members() -> set[tuple[str, str]]:
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    return _unread_members(_caller_trees(), sources)


def test_every_public_member_is_read_outside_tests():
    unread = _unread_public_members()
    stray = sorted(f"{mod}.{name}" for mod, name in unread - set(ALLOWED_MEMBERS))
    assert not stray, f"class members only tests read (delete them): {stray}"
    stale = sorted(f"{mod}.{name}" for mod, name in set(ALLOWED_MEMBERS) - unread)
    assert not stale, f"allowlisted members that are now read: {stale}"


def test_member_guard_counts_a_read_for_the_receivers_class_only():
    sources = {"m": (
        "class A:\n    x: int\n    y: int\n    z: int\n    w: int\n\n"
        "class B(A):\n    x: int\n\n"
        "    def total(self):\n        return self.x + self.w\n"
    )}
    caller = ast.parse(
        "import itertools\nfrom m import A, B\n\n"
        "def use(b: B, a: A | None):\n    made = A()\n"
        "    return b.total(), itertools.y, made.z\n"
    )
    # B's read of self.x leaves A.x unread, a module's y is no member,
    # and B's read of the inherited w counts for A
    unread = _unread_members([ast.parse(sources["m"]), caller], sources)
    assert unread == {("m", "A.x"), ("m", "A.y")}
