"""Synthetic fixtures: repositories with known ground truth, plus a
bundled toy campaign for end-to-end runs.

The ground-truth builder constructs a repository commit by commit while
recording, for every line, which commit last touched it and whether the
line was built as executable code. That record is construction
knowledge, independent of the blame pipeline and of the executable-line
classifier, so tests can compare implementation output against it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from .bugs import BugSpec, FaultLocation, LocalizedLine

BASE_TIME = 1_600_000_000


def git_env(seq: int) -> dict:
    """Deterministic identity and timestamps for reproducible commits."""
    stamp = f"{BASE_TIME + seq * 86_400} +0000"
    env = dict(os.environ)
    env.update({
        "GIT_AUTHOR_NAME": "Fixture Author",
        "GIT_AUTHOR_EMAIL": "fixture@example.invalid",
        "GIT_COMMITTER_NAME": "Fixture Author",
        "GIT_COMMITTER_EMAIL": "fixture@example.invalid",
        "GIT_AUTHOR_DATE": stamp,
        "GIT_COMMITTER_DATE": stamp,
    })
    return env


def _git(repo: Path, *args: str, seq: int = 0) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True, text=True, env=git_env(seq), check=True,
    )
    return proc.stdout


def init_repo(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    _git(path, "init", "--quiet", "--initial-branch=main")
    return path


def commit_all(repo: Path, message: str, seq: int) -> str:
    _git(repo, "add", "-A", seq=seq)
    _git(repo, "commit", "--quiet", "-m", message, seq=seq)
    return _git(repo, "rev-parse", "HEAD", seq=seq).strip()


@dataclass
class TrackedLine:
    text: str
    owner: str        # sha of the commit that last touched this line
    executable: bool  # by construction, not by classification


@dataclass
class GroundTruthRepo:
    """A built repository plus its per-line construction record."""

    path: Path
    head: str = ""
    commits: list[str] = field(default_factory=list)
    files: dict[str, list[TrackedLine]] = field(default_factory=dict)
    author_times: dict[str, int] = field(default_factory=dict)
    file_add_commit: dict[str, str] = field(default_factory=dict)

    def line_owner(self, path: str, line: int) -> str:
        return self.files[path][line - 1].owner

    def executable_lines(self, path: str) -> set[int]:
        return {
            i + 1 for i, tl in enumerate(self.files[path]) if tl.executable
        }

    def expected_anchor(self, path: str, insert_line: int) -> int | None:
        """Nearest constructed-executable line above the insertion."""
        for cand in range(insert_line - 1, 0, -1):
            if self.files[path][cand - 1].executable:
                return cand
        return None


_COUNTER = 0


def _code_line(indent: int = 0) -> tuple[str, bool]:
    global _COUNTER
    _COUNTER += 1
    return " " * indent + f"int value_{_COUNTER} = {_COUNTER};", True


def _comment_line() -> tuple[str, bool]:
    global _COUNTER
    _COUNTER += 1
    return f"// note {_COUNTER}", False


def _symbol_line() -> tuple[str, bool]:
    return "}", False


def _write_tracked(repo: Path, name: str, lines: list[TrackedLine]) -> None:
    (repo / name).write_text("\n".join(tl.text for tl in lines) + "\n")


def build_ground_truth_repo(path: Path, rng: random.Random,
                            n_files: int = 2,
                            n_commits: int = 5) -> GroundTruthRepo:
    """Grow a repository while tracking every line's last-touch commit.

    Lines are only appended or modified in place, never deleted or
    moved, so tracked indices equal final line numbers.
    """
    repo = init_repo(path)
    gt = GroundTruthRepo(path=repo)
    seq = 0

    # initial commit: every file starts with a few mixed lines
    pending: dict[str, list[tuple[str, bool]]] = {}
    for i in range(n_files):
        name = f"src_{i}.c"
        rows = []
        for _ in range(rng.randint(3, 8)):
            kind = rng.random()
            if kind < 0.6:
                rows.append(_code_line())
            elif kind < 0.85:
                rows.append(_comment_line())
            else:
                rows.append(_symbol_line())
        pending[name] = rows
    for name, rows in pending.items():
        (repo / name).write_text("\n".join(t for t, _ in rows) + "\n")
    sha = commit_all(repo, "initial layout", seq)
    gt.commits.append(sha)
    gt.author_times[sha] = BASE_TIME
    for name, rows in pending.items():
        gt.files[name] = [TrackedLine(t, sha, ex) for t, ex in rows]
        gt.file_add_commit[name] = sha

    for _ in range(n_commits - 1):
        seq += 1
        name = rng.choice(sorted(gt.files))
        lines = gt.files[name]
        op = rng.random()
        touched: list[int] = []
        appended: list[tuple[str, bool]] = []
        if op < 0.55 and lines:
            for idx in rng.sample(range(len(lines)),
                                  k=min(len(lines), rng.randint(1, 3))):
                text, ex = _code_line()
                lines[idx] = TrackedLine(text, "", ex)
                touched.append(idx)
        else:
            for _ in range(rng.randint(1, 4)):
                kind = rng.random()
                appended.append(_code_line() if kind < 0.7 else _comment_line())
        for text, ex in appended:
            lines.append(TrackedLine(text, "", ex))
            touched.append(len(lines) - 1)
        _write_tracked(repo, name, lines)
        sha = commit_all(repo, f"edit {name} step {seq}", seq)
        gt.commits.append(sha)
        gt.author_times[sha] = BASE_TIME + seq * 86_400
        for idx in touched:
            lines[idx].owner = sha

    gt.head = gt.commits[-1]
    return gt


def make_blameable_spec(gt: GroundTruthRepo, rng: random.Random,
                        bug_id: str) -> tuple[BugSpec, set[str]]:
    """A random modified/deleted-lines spec plus its expected commits."""
    name = rng.choice(sorted(gt.files))
    lines = gt.files[name]
    count = min(len(lines), rng.randint(1, 4))
    numbers = sorted(rng.sample(range(1, len(lines) + 1), k=count))
    localized = tuple(
        LocalizedLine(line=n, kind=rng.choice(("modified", "deleted")))
        for n in numbers
    )
    expected = {gt.line_owner(name, n) for n in numbers}
    spec = BugSpec(
        bug_id=bug_id,
        snapshot_ref=gt.head,
        locations=(FaultLocation(file_path=name, lines=localized),),
        failing_tests=(f"{bug_id}::test",),
        bug_report=f"synthetic bug {bug_id}",
    )
    return spec, expected


def make_insertion_spec(gt: GroundTruthRepo, rng: random.Random,
                        bug_id: str) -> tuple[BugSpec, str, int]:
    """An add-only spec plus (file, insertion line) for oracle lookup."""
    name = rng.choice(sorted(gt.files))
    total = len(gt.files[name])
    insert_at = rng.randint(2, total + 1)
    spec = BugSpec(
        bug_id=bug_id,
        snapshot_ref=gt.head,
        locations=(FaultLocation(
            file_path=name,
            lines=(LocalizedLine(line=insert_at, kind="insertion_point"),),
        ),),
        failing_tests=(f"{bug_id}::test",),
        bug_report=f"synthetic add-only bug {bug_id}",
    )
    return spec, name, insert_at


# ---------------------------------------------------------------------------
# the bundled toy campaign

TOY_BUG_ID = "toy-001"

_CALC_V1 = '''"""Tiny calculator used by the demo project."""


def add(a, b):
    return a + b


def sub(a, b):
    return a - b
'''

_CALC_BUGGY_LINE = "    return a - b  # fast path"

_RUN_TESTS = '''"""Minimal test runner printing a parseable failure block."""

import calc


def test_add():
    assert calc.add(2, 3) == 5
    assert calc.add(-1, 1) == 0


def test_sub():
    assert calc.sub(5, 3) == 2


TESTS = [test_add, test_sub]

failures = []
for t in TESTS:
    try:
        t()
    except AssertionError:
        failures.append(t.__name__)

print(f"Failing tests: {len(failures)}")
for name in failures:
    print(f"  - {name}")
raise SystemExit(1 if failures else 0)
'''

_BUG_REPORT = """add() returns wrong results: add(2, 3) gives -1 instead of 5.
The regression appeared after the recent "fast path" change to the
calculator module. sub() is unaffected.
"""


def _scripted_replies(sentinel: str) -> list[dict]:
    fix = f"sed -i 's/return a - b  # fast path/return a + b/' calc.py"
    return [
        {"text": "Let me inspect the faulty function first.\n"
                 "```bash\nsed -n '1,12p' calc.py\n```",
         "input_tokens": 900, "output_tokens": 30},
        {"text": "The add function subtracts instead of adding. "
                 "Restoring the correct operator.\n"
                 f"```bash\n{fix}\n```",
         "input_tokens": 1100, "output_tokens": 45},
        {"text": "Now verifying the fix.\n```bash\ntest -r\n```",
         "input_tokens": 1200, "output_tokens": 20},
        {"text": "All tests pass.\n"
                 f"```bash\necho {sentinel}\n```",
         "input_tokens": 1300, "output_tokens": 18},
    ]


def build_toy_campaign(root: Path,
                       sentinel: str = "COMPLETE_REPAIR_SIGNAL") -> dict:
    """Create the toy project, manifest, scripts and campaign YAML.

    Returns the important paths. The project has one real failing test;
    the scripted provider repairs it in four steps under any heuristic.
    """
    root = Path(root)
    repo = init_repo(root / "toyrepo")
    (repo / "calc.py").write_text(_CALC_V1)
    (repo / "run_tests.py").write_text(_RUN_TESTS)
    (repo / ".gitignore").write_text("__pycache__/\n*.pyc\n")
    commit_all(repo, "add calculator and test runner", 0)

    buggy = _CALC_V1.replace("    return a + b", _CALC_BUGGY_LINE, 1)
    (repo / "calc.py").write_text(buggy)
    snapshot = commit_all(repo, "micro-optimize add with a fast path", 1)

    buggy_line_number = buggy.splitlines().index(_CALC_BUGGY_LINE) + 1

    # the developer fix: exactly the reverse one-line change
    import difflib
    fix_diff = "".join(difflib.unified_diff(
        buggy.splitlines(keepends=True),
        _CALC_V1.splitlines(keepends=True),
        fromfile="a/calc.py", tofile="b/calc.py", n=3,
    ))
    (root / "fix.patch").write_text(fix_diff)
    (root / "bug_report.txt").write_text(_BUG_REPORT)

    manifest = root / "manifest.jsonl"
    manifest.write_text(json.dumps({
        "bug_id": TOY_BUG_ID,
        "repo_path": "toyrepo",
        "snapshot_ref": snapshot,
        "locations": [{
            "file": "calc.py",
            "lines": [{"line": buggy_line_number, "kind": "modified"}],
        }],
        "failing_tests": ["test_add"],
        "bug_report_path": "bug_report.txt",
        "fix_patch_path": "fix.patch",
    }) + "\n")

    scripts = root / "scripts"
    scripts.mkdir(exist_ok=True)
    for config in ("non_history", "fn_all", "fn_pair", "fl_diff"):
        script = scripts / f"{TOY_BUG_ID}__{config}.jsonl"
        script.write_text("\n".join(
            json.dumps(reply) for reply in _scripted_replies(sentinel)
        ) + "\n")

    campaign = root / "campaign.yaml"
    campaign.write_text(f"""\
manifest: manifest.jsonl
out_dir: out
configs: [non_history, fn_all, fn_pair, fl_diff]
adapter: local-python
backend: local
language: python
workers: 1
sentinel: {sentinel}
provider:
  mode: scripted
  model: scripted-model
  scripts_dir: scripts
  pricing:
    scripted-model:
      input_per_million: "0.28"
      output_per_million: "0.42"
guards:
  max_steps: 50
  max_cost: "1.00"
  max_wall_time: 3600
  per_command_timeout: 60
""")
    return {
        "root": root,
        "repo": repo,
        "manifest": manifest,
        "campaign": campaign,
        "scripts": scripts,
        "snapshot": snapshot,
        "buggy_line": buggy_line_number,
    }
