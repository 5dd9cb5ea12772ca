"""Seeded synthetic campaigns with construction ground truth.

`build(workload, seed, root)` writes a complete campaign under `root`
(git repositories, manifest, fix patches, bug reports, scripted replies
and the campaign YAML). The returned Campaign's `truth` holds the
expected result of every output the pipeline produces from it. The expectation comes from how the
campaign was built, never from running histrepair: which commit last
touched each line, which function holds it, which lines are executable,
and what every scripted reply does to the checkout.

Two workloads:

* history-large: c_family repositories with 1k, 5k and 10k-line files
  under Apache-style headers, several tuning commits (so blame spans
  many commits and the judge runs), insertion-only bugs below long
  comments, and a short scripted loop per job. Three bugs carry fixed
  ids because they reproduce known hot spots (see HOT_SPOTS).
* repair-many: many small Python bugs whose scripted replies pass,
  fail their tests, hit each guard, send malformed actions, or run out
  of replies. Step counts differ per config so `report` runs Friedman
  and Wilcoxon.

The seed picks functions, constants and reply orders; the amount of
work is the same for every seed so timings compare across seeds.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import subprocess
from pathlib import Path
from typing import NamedTuple

from histrepair import synth

WORKLOADS = ("history-large", "repair-many")
CONFIGS = ("non_history", "fn_all", "fn_pair", "fl_diff")
# batch configs per workload. history-large keeps one history config,
# fn_pair (the one that diffs file versions), because each history
# config re-runs blame on every bug and a run must stay short; `context`
# still builds all three payloads for its designated bug.
WORKLOAD_CONFIGS = {"history-large": ("non_history", "fn_pair"),
                    "repair-many": CONFIGS}
SENTINEL = "COMPLETE_REPAIR_SIGNAL"
MAX_STEPS = 10
MAX_COST = "0.05"

HOT_INSERT_HEADER = "hl-ins-header"   # insertion just below a 1000-line header
HOT_FNPAIR_10K = "hl-fnpair-10k"      # fn_pair pre-image in a 10k-line file
HOT_SPANS_10K = "hl-spans-10k"        # span scan of a 10k-line file
HOT_SPOTS = (HOT_INSERT_HEADER, HOT_FNPAIR_10K, HOT_SPANS_10K)

# the bug whose three history contexts `context` builds, per workload
DESIGNATED = {"history-large": HOT_FNPAIR_10K, "repair-many": "rm-mfmh-1"}

# hunks of a unified diff with 3 context lines merge when two changed
# lines are at most this far apart
_HUNK_GAP = 6

RUNNER = '''"""Evaluates the cases in checks.json and prints a failing block."""
import importlib
import json
import sys

sys.path.insert(0, ".")
failures = []
with open("checks.json") as fh:
    cases = json.load(fh)
for case in cases:
    try:
        if case["kind"] == "lines":
            ok = True
            for path, n, text in case["expect"]:
                with open(path) as src:
                    lines = src.read().splitlines()
                ok = ok and 0 < n <= len(lines) and lines[n - 1] == text
        else:
            fn = getattr(importlib.import_module(case["module"]), case["func"])
            ok = fn(*case["args"]) == case["expect"]
    except Exception:
        ok = False
    if not ok:
        failures.append(case["name"])
print(f"Failing tests: {len(failures)}")
for name in failures:
    print(f"  - {name}")
raise SystemExit(1 if failures else 0)
'''

APACHE_HEADER = [
    "/*",
    " * Licensed to the Apache Software Foundation (ASF) under one",
    " * or more contributor license agreements.  See the NOTICE file",
    " * distributed with this work for additional information",
    " * regarding copyright ownership.  The ASF licenses this file",
    " * to you under the Apache License, Version 2.0 (the",
    ' * "License"); you may not use this file except in compliance',
    " * with the License.  You may obtain a copy of the License at",
    " *",
    " *   http://www.apache.org/licenses/LICENSE-2.0",
    " *",
    " * Unless required by applicable law or agreed to in writing,",
    " * software distributed under the License is distributed on an",
    ' * "AS IS" BASIS, WITHOUT WARRANTIES OR CONDITIONS OF ANY',
    " * KIND, either express or implied.  See the License for the",
    " * specific language governing permissions and limitations",
    " * under the License.",
    " */",
]

_PHRASES = (
    "clamp the score window", "fold the running total", "rebalance the bucket",
    "adjust the retry budget", "scale the sample weight", "trim the queue depth",
)


class Line(NamedTuple):
    """One line of a constructed file and what construction knows of it."""

    text: str
    owner: str = ""    # sha of the commit that last touched the line
    exe: bool = False  # executable by construction
    fn: str = ""       # enclosing function, "" outside every function
    slot: str = ""     # tunable constant this line carries: c1/c2 (C), k1/k2 (Python)


# ---------------------------------------------------------------------------
# file construction


def _c_function(name: str, c1: int, c2: int, rng: random.Random,
                note_lines: int = 0) -> list[Line]:
    if note_lines:
        doc = ["/*"] + [f" * Design note {i + 1} for {name}: keep the window "
                        "monotone under retries." for i in range(note_lines - 2)] + [" */"]
    else:
        doc = ["/*", f" * {name}: {rng.choice(_PHRASES)}.", " */"]
    rows = [Line(t) for t in doc]
    rows += [
        Line(f"static int {name}(int a, int b) {{", exe=True, fn=name),
        Line(f"    int r = a + {c1};", exe=True, fn=name, slot="c1"),
        Line(f"    if (r > {c2}) {{", exe=True, fn=name, slot="c2"),
        Line("        r = r - b;", exe=True, fn=name),
        Line("    }", fn=name),
        Line("    return r;", exe=True, fn=name),
        Line("}", fn=name),
        Line(""),
    ]
    return rows


def c_slot_text(slot: str, value: int) -> str:
    return f"    int r = a + {value};" if slot == "c1" else f"    if (r > {value}) {{"


def c_file(prefix: str, total_lines: int, rng: random.Random,
           header_lines: int = 0, long_note_at: int | None = None) -> list[Line]:
    """A C file of about `total_lines` lines of small functions.

    The file opens with the Apache header, stretched into a change log
    of `header_lines` lines when given. Function `long_note_at` gets a
    24-line comment instead of its three-line doc comment.
    """
    head = list(APACHE_HEADER[:-1])
    if header_lines:
        head.append(" * Change log:")
        entry = 0
        while len(head) < header_lines - 1:
            entry += 1
            head.append(f" * r{entry}: {rng.choice(_PHRASES)}.")
    head.append(" */")
    rows = [Line(t) for t in head]
    k = 0
    while len(rows) + 11 <= total_lines or k == 0:
        note = 24 if k == long_note_at else 0
        rows += _c_function(f"{prefix}_{k:04d}", rng.randint(1, 99),
                            rng.randint(100, 999), rng, note_lines=note)
        k += 1
    return rows


def py_eval(k1: int, k2: int, k3: int, a: int, b: int) -> int:
    """What the generated Python function computes, by construction."""
    r = a * k1 + b
    if r > k2:
        r -= k3
    return r


def py_slot_text(slot: str, value: int) -> str:
    return f"    r = a * {value} + b" if slot == "k1" else f"    if r > {value}:"


def py_module(prefix: str, count: int, rng: random.Random) -> list[Line]:
    """A module of `count` small functions."""
    rows = [Line(f'"""Generated module {prefix}."""', exe=True), Line(""), Line("")]
    for k in range(count):
        name = f"{prefix}_{k:02d}"
        k1, k2, k3 = rng.randint(2, 9), rng.randint(20, 60), rng.randint(1, 9)
        rows += [
            Line(f"def {name}(a, b):", exe=True, fn=name),
            Line(f'    """{rng.choice(_PHRASES).capitalize()}."""', exe=True, fn=name),
            Line(py_slot_text("k1", k1), exe=True, fn=name, slot="k1"),
            Line(py_slot_text("k2", k2), exe=True, fn=name, slot="k2"),
            Line(f"        r -= {k3}", exe=True, fn=name),
            Line("    return r", exe=True, fn=name),
            Line(""),
            Line(""),
        ]
    return rows


# ---------------------------------------------------------------------------
# repositories with per-line ownership


class RepoModel:
    """A git repository built commit by commit, with every line's owner.

    Base history goes on `main`. Each bug gets its own branch from the
    base head, so every snapshot differs from the base only by its bug.
    """

    def __init__(self, path: Path):
        self.path = synth.init_repo(path)
        self.files: dict[str, list[Line]] = {}
        self.committed: dict[str, list[str]] = {}
        self.seq = 0
        self.messages: dict[str, str] = {}
        self.seq_of: dict[str, int] = {}
        self.changed: dict[str, list[str]] = {}
        self.added_by: dict[str, str] = {}
        self.models: dict[str, dict[str, list[Line]]] = {}
        self.head = ""

    def put(self, name: str, lines: list[Line]) -> None:
        self.files[name] = lines
        target = self.path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(ln.text for ln in lines) + "\n")

    def set_slot(self, name: str, idx: int, text: str) -> None:
        lines = list(self.files[name])
        lines[idx] = lines[idx]._replace(text=text)
        self.put(name, lines)

    def commit(self, subject: str, body: str) -> str:
        message = f"{subject}\n\n{body}"
        sha = synth.commit_all(self.path, message, self.seq)
        changed = []
        for name, lines in self.files.items():
            before = self.committed.get(name)
            if before is None:
                self.added_by[name] = sha
            if before != [ln.text for ln in lines]:
                changed.append(name)
                self.files[name] = [
                    ln._replace(owner=sha)
                    if before is None or i >= len(before) or before[i] != ln.text else ln
                    for i, ln in enumerate(lines)
                ]
            self.committed[name] = [ln.text for ln in self.files[name]]
        self.messages[sha] = message
        self.seq_of[sha] = self.seq
        self.changed[sha] = sorted(changed)
        self.models[sha] = dict(self.files)
        self.seq += 1
        self.head = sha
        return sha

    def git(self, *args: str) -> None:
        subprocess.run(["git", "-C", str(self.path), *args], check=True,
                       capture_output=True, env=synth.git_env(self.seq))

    def bug_branch(self, bug_id: str, steps) -> str:
        """Commit `steps` on a branch off the base head; return to main after.

        Each step is (subject, edit) where edit(repo) changes files.
        Returns the snapshot sha; its file model is in `models`.
        """
        base = (dict(self.files), dict(self.committed), self.seq, self.head)
        self.git("checkout", "-q", "-b", f"bug/{bug_id}", self.head)
        for subject, edit in steps:
            edit(self)
            self.commit(subject, f"Bug fixture {bug_id}.")
        snapshot = self.head
        self.git("checkout", "-q", "main")
        self.files, self.committed, self.seq, self.head = base
        return snapshot


# ---------------------------------------------------------------------------
# bugs: locations, fix, truth


def _slot_index(lines: list[Line], fn: str, slot: str) -> int:
    for i, ln in enumerate(lines):
        if ln.fn == fn and ln.slot == slot:
            return i
    raise KeyError(f"{fn}.{slot}")


def _sig_index(lines: list[Line], fn: str) -> int:
    return next(i for i, ln in enumerate(lines) if ln.fn == fn)


def fn_names(lines: list[Line]) -> list[str]:
    seen: list[str] = []
    for ln in lines:
        if ln.fn and (not seen or seen[-1] != ln.fn):
            seen.append(ln.fn)
    return seen


def _category(edits: list[dict]) -> str:
    hunks = 0
    for name in sorted({e["file"] for e in edits}):
        numbers = sorted(e["line"] for e in edits if e["file"] == name)
        hunks += 1 + sum(1 for a, b in zip(numbers, numbers[1:]) if b - a > _HUNK_GAP)
    files = len({e["file"] for e in edits})
    if files >= 2:
        return "MFMH"
    if hunks >= 2:
        return "SFMH"
    return "SL" if len(edits) == 1 else "SH"


def _fix_patch(model: dict[str, list[Line]], edits: list[dict]) -> str:
    """The developer fix as a unified diff, built from the edit list."""
    out = []
    for name in sorted({e["file"] for e in edits}):
        old = [ln.text for ln in model[name]]
        new = list(old)
        # bottom-up so insertions do not shift earlier edits
        for e in sorted((e for e in edits if e["file"] == name),
                        key=lambda e: e["line"], reverse=True):
            if e["kind"] == "insertion_point":
                new.insert(e["line"] - 1, e["new"])
            else:
                new[e["line"] - 1] = e["new"]
        out.append("".join(difflib.unified_diff(
            [t + "\n" for t in old], [t + "\n" for t in new],
            fromfile=f"a/{name}", tofile=f"b/{name}", n=3,
        )))
    return "".join(out)


def _sed(edits: list[dict], key: str = "new") -> str:
    """One shell command applying `edits` (line numbers of the snapshot)."""
    parts = []
    for name in sorted({e["file"] for e in edits}):
        exprs = []
        for e in sorted((e for e in edits if e["file"] == name), key=lambda e: e["line"]):
            if e["kind"] == "insertion_point":
                exprs.append(f"-e '{e['line']}i\\{e[key]}'")
            else:
                exprs.append(f"-e '{e['line']}s/.*/{e[key]}/'")
        parts.append(f"sed -i {' '.join(exprs)} {name}")
    return " && ".join(parts)


def _patch_truth(edits: list[dict], key: str = "new") -> dict:
    """Expected final patch: per file, removed and added line texts."""
    out: dict[str, dict] = {}
    for e in sorted(edits, key=lambda e: (e["file"], e["line"])):
        side = out.setdefault(e["file"], {"removed": [], "added": []})
        if e["kind"] != "insertion_point":
            side["removed"].append(e["old"])
        side["added"].append(e[key])
    return out


def _resolution(repo: RepoModel, model: dict[str, list[Line]],
                edits: list[dict]) -> dict:
    """Expected blame outcome of one bug, from line ownership."""
    # manifest order: by file, then line
    blamed = [(e["file"], e["line"], model[e["file"]][e["line"] - 1].owner)
              for e in sorted(edits, key=lambda e: (e["file"], e["line"]))
              if e["kind"] != "insertion_point"]
    ordered: list[str] = []
    for _, _, owner in blamed:
        if owner not in ordered:
            ordered.append(owner)
    if len(ordered) == 1:
        resolved, method = ordered[0], "single"
        anchor = blamed[0][:2]
    elif ordered:
        resolved = max(ordered, key=lambda sha: (repo.seq_of[sha], -ordered.index(sha)))
        method = "judge"
        anchor = next((f, n) for f, n, o in blamed if o == resolved)
    else:
        (ins,) = edits
        lines = model[ins["file"]]
        above = [n for n in range(ins["line"] - 1, 0, -1) if lines[n - 1].exe]
        if above:
            anchor = (ins["file"], above[0])
            resolved = lines[above[0] - 1].owner
        else:
            anchor = (ins["file"], 1)
            resolved = repo.added_by[ins["file"]]
        method = "fallback"
    return {"resolved": resolved, "method": method, "unique": len(ordered),
            "anchor": anchor}


def _context_truth(repo: RepoModel, res: dict) -> dict:
    """Expected payload facts of each history heuristic for one bug."""
    sha = res["resolved"]
    at = repo.models[sha]
    changed = repo.changed[sha]
    file, line = res["anchor"]
    fn = at[file][line - 1].fn if line <= len(at[file]) else ""
    parent_has = repo.seq_of[repo.added_by[file]] < repo.seq_of[sha]
    if not fn:
        pair = None
    else:
        pair = {"before": fn if parent_has else None, "after": fn}
    return {
        "commit": sha,
        "message": repo.messages[sha],
        "changed": changed,
        "names": {name: fn_names(at[name]) for name in changed},
        "fn_pair": pair,
    }


def _bug_truth(repo: RepoModel, snapshot: str, edits: list[dict], failing: list[str]) -> dict:
    res = _resolution(repo, repo.models[snapshot], edits)
    return {
        "category": _category(edits),
        "blameability": ("Blameless" if all(e["kind"] == "insertion_point" for e in edits)
                         else "Blameable"),
        "resolution_method": res["method"],
        "resolved_commit": res["resolved"],
        "unique_commit_count": res["unique"],
        "context": _context_truth(repo, res),
        "failing_tests": failing,
    }


# ---------------------------------------------------------------------------
# scripted replies


def _reply(text: str, command: str | None, tokens: int = 1000) -> dict:
    body = text if command is None else f"{text}\n```bash\n{command}\n```"
    return {"text": body, "input_tokens": tokens, "output_tokens": 40}


def _inspect(edits: list[dict]) -> dict:
    e = edits[0]
    lo = max(1, e["line"] - 4)
    return _reply("Reading the code around the fault.",
                  f"sed -n '{lo},{e['line'] + 4}p' {e['file']}")


MALFORMED_NONE = _reply("The arithmetic looks off; I will look closer.", None)
MALFORMED_TWO = _reply("Two options:\n```bash\nls\n```\nor\n```bash\npwd\n```", None)
TEST = _reply("Running the relevant tests.", "test -r")
DONE = _reply("All tests pass.", f"echo {SENTINEL}")


def _pass_steps(edits: list[dict], extra: int) -> list[dict]:
    return [_inspect(edits)] * extra + [
        _reply("Applying the fix.", _sed(edits)), TEST, DONE]


def job_script(kind: str, edits: list[dict], extra: int = 0) -> tuple[list[dict], dict]:
    """Scripted replies for one job and the run outcome they must give.

    Kinds: pass, pass_retry (one malformed reply, the retry parses),
    malformed_twice (reply and retry both malformed, a charged step),
    fail_tests (wrong fix, tests fail, run ends at the step limit),
    step_limit (right fix, then reading until the step limit),
    cost_limit (an expensive reply trips the cost guard before any fix),
    exhaust (right fix, tests pass, then the script runs out).
    """
    fixed = _patch_truth(edits)
    if kind == "pass":
        return _pass_steps(edits, extra), _outcome("CompletedSignal", True, extra + 3, fixed)
    if kind == "pass_retry":
        return ([MALFORMED_NONE] + _pass_steps(edits, extra),
                _outcome("CompletedSignal", True, extra + 3, fixed))
    if kind == "malformed_twice":
        return ([MALFORMED_NONE, MALFORMED_TWO] + _pass_steps(edits, extra),
                _outcome("CompletedSignal", True, extra + 4, fixed))
    if kind == "fail_tests":
        wrong = [edits[0]]
        replies = [_inspect(edits), _reply("Trying a tweak.", _sed(wrong, "wrong")),
                   TEST, DONE] + [TEST] * (MAX_STEPS - 4)
        return replies, _outcome("StepLimit", False, MAX_STEPS, _patch_truth(wrong, "wrong"))
    if kind == "step_limit":
        replies = [_inspect(edits), _reply("Applying the fix.", _sed(edits))]
        replies += [_inspect(edits)] * (MAX_STEPS - 2)
        return replies, _outcome("StepLimit", True, MAX_STEPS, fixed)
    if kind == "cost_limit":
        replies = [_inspect(edits),
                   _reply("Reading the whole module.", f"cat {edits[0]['file']}",
                          tokens=200_000)]
        return replies, _outcome("CostLimit", False, 2, {})
    if kind == "exhaust":
        replies = [_inspect(edits), _reply("Applying the fix.", _sed(edits)), TEST]
        return replies, _outcome("ProviderError", True, 3, fixed)
    raise ValueError(f"unknown job kind {kind!r}")


def _outcome(termination: str, passed: bool, steps: int, patch: dict) -> dict:
    return {"termination": termination, "tests_passed_at_end": passed,
            "steps_taken": steps, "patch": patch}


# ---------------------------------------------------------------------------
# campaign assembly


class Campaign:
    """Where a built campaign lives and what every output must be."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.manifest: list[dict] = []
        self.configs = WORKLOAD_CONFIGS[workload]
        self.truth: dict = {"workload": workload, "seed": seed, "heads": {},
                            "designated": DESIGNATED[workload], "configs": list(self.configs),
                            "bugs": {}, "jobs": {}}

    @property
    def yaml(self) -> Path:
        return self.root / "campaign.yaml"

    def add_bug(self, bug_id: str, repo: RepoModel, edits: list[dict], cases: list[dict],
                steps: list, jobs: dict[str, tuple[list[dict], dict]]) -> None:
        """Commit the bug's branch and write its manifest row, patch and scripts.

        `steps` are the (subject, edit) commits that inject the fault; a
        last commit records the failing checks.
        """
        snapshot = repo.bug_branch(bug_id, steps + [
            (f"Record the failing checks of {bug_id}", _checks_edit(cases))])
        truth = _bug_truth(repo, snapshot, edits, sorted({c["name"] for c in cases}))
        patch = self.root / "patches" / f"{bug_id}.patch"
        patch.parent.mkdir(parents=True, exist_ok=True)
        patch.write_text(_fix_patch(repo.models[snapshot], edits))
        report = self.root / "reports" / f"{bug_id}.txt"
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(f"Synthetic bug {bug_id}: the checks in checks.json fail.\n")
        locations: dict[str, list[dict]] = {}
        for e in sorted(edits, key=lambda e: (e["file"], e["line"])):
            locations.setdefault(e["file"], []).append({"line": e["line"], "kind": e["kind"]})
        self.manifest.append({
            "bug_id": bug_id,
            "repo_path": os.path.relpath(repo.path, self.root),
            "snapshot_ref": snapshot,
            "locations": [{"file": f, "lines": ls} for f, ls in locations.items()],
            "failing_tests": truth["failing_tests"],
            "bug_report_path": os.path.relpath(report, self.root),
            "fix_patch_path": os.path.relpath(patch, self.root),
        })
        self.truth["bugs"][bug_id] = truth
        scripts = self.root / "scripts"
        scripts.mkdir(exist_ok=True)
        for config, (replies, outcome) in jobs.items():
            (scripts / f"{bug_id}__{config}.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in replies))
            self.truth["jobs"][f"{bug_id}__{config}"] = outcome

    def finish(self, language: str, workers: int) -> None:
        (self.root / "manifest.jsonl").write_text(
            "".join(json.dumps(m) + "\n" for m in self.manifest))
        self.yaml.write_text(f"""\
manifest: manifest.jsonl
out_dir: out
configs: [{", ".join(self.configs)}]
adapter: local-python
backend: local
language: {language}
workers: {workers}
sentinel: {SENTINEL}
provider:
  mode: scripted
  model: scripted-model
  scripts_dir: scripts
  pricing:
    scripted-model:
      input_per_million: "0.28"
      output_per_million: "0.42"
guards:
  max_steps: {MAX_STEPS}
  max_cost: "{MAX_COST}"
  max_wall_time: 3600
  per_command_timeout: 60
""")
        report: dict[str, list[int]] = {}
        for job, outcome in self.truth["jobs"].items():
            bug, config = job.split("__")
            category = self.truth["bugs"][bug]["category"]
            for key in (f"{category}/{config}", f"ALL/{config}"):
                cell = report.setdefault(key, [0, 0])
                cell[0] += int(outcome["tests_passed_at_end"])
                cell[1] += 1
        self.truth["report"] = dict(sorted(report.items()))
        (self.root / "truth.json").write_text(json.dumps(self.truth, indent=1) + "\n")


def _base_repo(path: Path) -> RepoModel:
    repo = RepoModel(path)
    repo.put("run_tests.py", [Line(t) for t in RUNNER.splitlines()])
    repo.put("checks.json", [Line("[]")])
    repo.put(".gitignore", [Line("__pycache__/"), Line("*.pyc")])
    repo.commit("Add the check runner", "Checks live in checks.json.")
    return repo


def _tune(repo: RepoModel, rng: random.Random, subject: str,
          picks: list[tuple[str, str, str]]) -> None:
    """One history commit retuning the constants of (file, fn, slot) picks."""
    for name, fn, slot in picks:
        idx = _slot_index(repo.files[name], fn, slot)
        old = text = repo.files[name][idx].text
        while text == old:
            if slot in ("c1", "c2"):
                text = c_slot_text(slot, rng.randint(*((1, 99) if slot == "c1" else (100, 999))))
            else:
                text = py_slot_text(slot, rng.randint(*((2, 9) if slot == "k1" else (20, 60))))
        repo.set_slot(name, idx, text)
    repo.commit(subject, f"Retunes {len(picks)} constants after profiling.")


def _spaced_picks(rng: random.Random, repo: RepoModel, name: str, count: int,
                  reserved: set[str]) -> list[tuple[str, str, str]]:
    """`count` evenly spaced functions from a seeded offset.

    Even spacing keeps the shape of each tuning diff, and so the cost of
    diffing it, the same for every seed.
    """
    names = [n for n in fn_names(repo.files[name]) if n not in reserved]
    step = len(names) // count
    return [(name, fn, rng.choice(("c1", "c2")))
            for fn in names[rng.randrange(step)::step][:count]]


def _checks_edit(cases: list[dict]):
    def edit(repo: RepoModel) -> None:
        repo.put("checks.json", [Line(t) for t in json.dumps(cases, indent=1).splitlines()])
    return edit


def _c_edit(model, name, fn, slot, rng) -> dict:
    idx = _slot_index(model[name], fn, slot)
    old = model[name][idx].text
    new = old
    while new == old:
        new = c_slot_text(slot, rng.randint(*((1, 99) if slot == "c1" else (100, 999))))
    return {"file": name, "line": idx + 1, "kind": "modified", "old": old, "new": new}


def _history_large(camp: Campaign, rng: random.Random) -> None:
    root = camp.root / "repos"
    engine = _base_repo(root / "engine")
    engine.put("src/big.c", c_file("big", 10_000, rng))
    engine.put("src/small.c", c_file("small", 1_000, rng))
    engine.commit("engine: add the scoring core", "Initial import of big.c and small.c.")
    long_note = 200
    engine.put("src/mid.c", c_file("mid", 5_000, rng, long_note_at=long_note))
    engine.put("src/license_log.c", c_file("log", 1_100, rng, header_lines=1_000))
    engine.commit("engine: add window helpers and the log module",
                  "Adds mid.c and license_log.c.")

    big = fn_names(engine.files["src/big.c"])
    mid = fn_names(engine.files["src/mid.c"])
    small = fn_names(engine.files["src/small.c"])
    fn_a, fn_b = rng.sample(big[5:-5], 2)
    fn_c, fn_d = rng.sample(mid[:long_note - 5:4], 2)
    fn_e = rng.choice(small)
    fn_f = rng.choice(mid[long_note + 5:])
    reserved = {fn_a, fn_b, fn_c, fn_d, fn_e, fn_f}
    # (file retuned, random picks, forced picks that fix the blame owners)
    for step, (name, count, forced) in enumerate([
        ("src/big.c", 40, [("src/big.c", fn_a, "c1")]),
        ("src/mid.c", 30, [("src/mid.c", fn_c, "c1")]),
        ("src/small.c", 15, [("src/small.c", fn_e, "c2")]),
        ("src/big.c", 20, []),
        ("src/mid.c", 10, [("src/mid.c", fn_f, "c2")]),
    ], start=1):
        picks = _spaced_picks(rng, engine, name, count, reserved) + forced
        _tune(engine, rng, f"engine: retune {name} (pass {step})", picks)

    codec = _base_repo(root / "codec")
    codec.put("src/pack.c", c_file("pack", 1_000, rng))
    codec.commit("codec: add the packer", "Initial import.")
    fn_i = rng.choice(fn_names(codec.files["src/pack.c"]))
    _tune(codec, rng, "codec: retune pack.c (pass 1)",
          _spaced_picks(rng, codec, "src/pack.c", 12, {fn_i}) + [("src/pack.c", fn_i, "c1")])
    _tune(codec, rng, "codec: retune pack.c (pass 2)",
          _spaced_picks(rng, codec, "src/pack.c", 12, {fn_i}) + [("src/pack.c", fn_i, "c2")])

    em, cm = engine.files, codec.files
    log_doc = _sig_index(em["src/license_log.c"], "log_0000") - 2
    note_sig = _sig_index(em["src/mid.c"], mid[long_note])
    bugs = [
        (HOT_INSERT_HEADER, engine, [{
            "file": "src/license_log.c", "line": log_doc + 1, "kind": "insertion_point",
            "new": "static const int log_guard = 1;"}]),
        (HOT_FNPAIR_10K, engine, [_c_edit(em, "src/big.c", fn_a, "c1", rng)]),
        (HOT_SPANS_10K, engine, [_c_edit(em, "src/big.c", fn_b, "c1", rng),
                                 _c_edit(em, "src/big.c", fn_b, "c2", rng)]),
        ("hl-judge-5k", engine, [_c_edit(em, "src/mid.c", fn_c, "c1", rng),
                                 _c_edit(em, "src/mid.c", fn_d, "c1", rng)]),
        ("hl-mfmh", engine, [_c_edit(em, "src/small.c", fn_e, "c2", rng),
                             _c_edit(em, "src/mid.c", fn_f, "c2", rng)]),
        ("hl-ins-comment", engine, [{
            "file": "src/mid.c", "line": note_sig + 1, "kind": "insertion_point",
            "new": "static const int note_guard = 2;"}]),
        ("hl-codec-sh", codec, [_c_edit(cm, "src/pack.c", fn_i, "c1", rng),
                                _c_edit(cm, "src/pack.c", fn_i, "c2", rng)]),
    ]
    for bug_id, repo, edits in bugs:
        cases = [{"name": f"check_{bug_id.replace('-', '_')}", "kind": "lines",
                  "expect": [[e["file"], e["line"], e["new"]] for e in edits]}]
        # the fix is the snapshot minus the fault: snapshot lines already
        # hold the `old` text, so the bug branch only records the checks
        jobs = {config: job_script("pass", edits, extra=int(config == "non_history"))
                for config in camp.configs}
        camp.add_bug(bug_id, repo, edits, cases, [], jobs)
    camp.truth["heads"] = {"engine": engine.head, "codec": codec.head}


# repair-many: per category, three bugs every config passes (step counts
# fall from non_history to fl_diff, so Friedman has an effect to find)
# and one bug whose four jobs end in the four other outcomes
_MATCHED_EXTRA = {"non_history": 3, "fn_all": 2, "fn_pair": 1, "fl_diff": 0}
_MATCHED_KINDS = {
    "non_history": ["pass", "pass_retry", "malformed_twice"],
    "fn_all": ["pass", "pass", "pass_retry"],
    "fn_pair": ["pass", "pass", "pass_retry"],
    "fl_diff": ["pass", "pass", "pass"],
}
_MIXED_KINDS = ["fail_tests", "step_limit", "cost_limit", "exhaust"]
RM_MATCHED, RM_MIXED = 3, 1
RM_FUNCTIONS = 8


def _py_consts(lines: list[Line]) -> dict[str, dict[str, int]]:
    """Each function's constants, read back from its lines."""
    out: dict[str, dict[str, int]] = {}
    for ln in lines:
        if ln.fn:
            words = ln.text.split()
            if ln.slot == "k1":
                out.setdefault(ln.fn, {})["k1"] = int(words[-3])
            elif ln.slot == "k2":
                out.setdefault(ln.fn, {})["k2"] = int(words[-1].rstrip(":"))
            elif words[:1] == ["r"] and words[1] == "-=":
                out.setdefault(ln.fn, {})["k3"] = int(words[-1])
    return out


def _py_value(consts: dict, fn: str, override: dict, a: int, b: int) -> int:
    c = {**consts[fn], **override.get(fn, {})}
    return py_eval(c["k1"], c["k2"], c["k3"], a, b)


def _fails(cases: list[dict], consts: dict, override: dict) -> bool:
    return any(_py_value(consts, c["func"], override, *c["args"]) != c["expect"]
               for c in cases)


def _repair_many(camp: Campaign, rng: random.Random) -> None:
    for category in ("SL", "SH", "SFMH", "MFMH"):
        repo = _base_repo(camp.root / "repos" / f"py_{category.lower()}")
        repo.put("pkg/__init__.py", [Line('"""Generated package."""', exe=True)])
        repo.put("pkg/mod_a.py", py_module("calc", RM_FUNCTIONS, rng))
        repo.put("pkg/mod_b.py", py_module("util", RM_FUNCTIONS, rng))
        repo.commit("Add the calc and util modules", "Initial import.")
        _tune(repo, rng, "Retune calc", [
            ("pkg/mod_a.py", fn, "k2")
            for fn in rng.sample(fn_names(repo.files["pkg/mod_a.py"]), 4)])
        consts = {**_py_consts(repo.files["pkg/mod_a.py"]),
                  **_py_consts(repo.files["pkg/mod_b.py"])}

        a_names = rng.sample(fn_names(repo.files["pkg/mod_a.py"]), RM_FUNCTIONS)
        b_names = rng.sample(fn_names(repo.files["pkg/mod_b.py"]), RM_FUNCTIONS)
        kinds = {c: rng.sample(ks, len(ks)) for c, ks in _MATCHED_KINDS.items()}
        mixed = rng.sample(_MIXED_KINDS, len(_MIXED_KINDS))

        for i in range(RM_MATCHED + RM_MIXED):
            bug_id = f"rm-{category.lower()}-{i}"
            if category == "SL" and i == 0:
                # insertion-only: the function lacks a statement the test
                # expects, so blame takes the fallback path
                fn = a_names[0]
                lines = repo.files["pkg/mod_a.py"]
                ret = next(k for k, ln in enumerate(lines) if ln.fn == fn and ln.text == "    return r")
                edits = [{"file": "pkg/mod_a.py", "line": ret + 1, "kind": "insertion_point",
                          "new": "    r = r * 2"}]
                a, b = rng.randrange(1, 10), rng.randrange(10)
                cases = [{"name": f"test_{fn}", "kind": "call", "module": "pkg.mod_a", "func": fn,
                          "args": [a, b], "expect": 2 * _py_value(consts, fn, {}, a, b)}]
                camp.add_bug(bug_id, repo, edits, cases, [], {
                    config: job_script(kinds[config][i], edits, _MATCHED_EXTRA[config])
                    for config in camp.configs})
                continue
            if category == "SL":
                groups = [[("pkg/mod_a.py", a_names[i], "k1")]]
            elif category == "SH":
                groups = [[("pkg/mod_a.py", a_names[i], "k1"), ("pkg/mod_a.py", a_names[i], "k2")]]
            elif category == "SFMH":
                groups = [[("pkg/mod_a.py", a_names[2 * i], "k1")],
                          [("pkg/mod_a.py", a_names[2 * i + 1], "k1")]]
            else:
                groups = [[("pkg/mod_a.py", a_names[i], "k1")],
                          [("pkg/mod_b.py", b_names[i], "k1")]]
            bad: dict[str, dict[str, int]] = {}
            edits = []
            for name, fn, slot in (p for grp in groups for p in grp):
                right = consts[fn][slot]
                value = right + rng.randint(1, 3)
                bad.setdefault(fn, {})[slot] = value
                edits.append({"file": name, "line": _slot_index(repo.files[name], fn, slot) + 1,
                              "kind": "modified", "fn": fn, "slot": slot,
                              "old": py_slot_text(slot, value), "new": py_slot_text(slot, right)})
            cases = []
            for e in edits:
                if any(c["func"] == e["fn"] for c in cases):
                    continue
                inputs = [(a, b) for a in range(1, 10) for b in range(10)]
                a, b = next(p for p in rng.sample(inputs, len(inputs))
                            if _py_value(consts, e["fn"], bad, *p) != _py_value(consts, e["fn"], {}, *p))
                cases.append({"name": f"test_{e['fn']}", "kind": "call",
                              "module": e["file"][:-3].replace("/", "."), "func": e["fn"],
                              "args": [a, b], "expect": _py_value(consts, e["fn"], {}, a, b)})
            # the wrong fix of fail_tests jobs: first fault line, still failing
            fn0, slot0 = edits[0]["fn"], edits[0]["slot"]
            wrong = consts[fn0][slot0] + 4
            while wrong == bad[fn0][slot0] or not _fails(
                    cases, consts, {**bad, fn0: {**bad[fn0], slot0: wrong}}):
                wrong += 1
            edits[0]["wrong"] = py_slot_text(slot0, wrong)

            def inject(group):
                def edit(r: RepoModel) -> None:
                    for name, fn, slot in group:
                        idx = _slot_index(r.files[name], fn, slot)
                        r.set_slot(name, idx, py_slot_text(slot, bad[fn][slot]))
                return edit
            steps = [(f"{bug_id}: tweak {', '.join(fn for _, fn, _ in grp)}", inject(grp))
                     for grp in groups]
            jobs = {}
            for config in camp.configs:
                if i < RM_MATCHED:
                    jobs[config] = job_script(kinds[config][i], edits, _MATCHED_EXTRA[config])
                else:
                    jobs[config] = job_script(mixed.pop(), edits)
            camp.add_bug(bug_id, repo, edits, cases, steps, jobs)
        camp.truth["heads"][repo.path.name] = repo.head


def build(workload: str, seed: int, root: Path, workers: int = 2) -> Campaign:
    """Generate the campaign for `workload` and `seed` under `root`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    camp = Campaign(root, workload, seed)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "history-large":
        _history_large(camp, rng)
        camp.finish("c_family", workers)
    else:
        _repair_many(camp, rng)
        camp.finish("python", workers)
    return camp
