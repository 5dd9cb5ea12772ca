"""Correctness gate: compare pipeline outputs with construction truth.

Every check is one operation. `Gate.op` counts it as attempted and, when
it fails, as failed with a one-line reason, so a run's
`ops_failed_frac` covers subcommands, study bugs, batch jobs and
mismatches alike.
"""

from __future__ import annotations

import json
from pathlib import Path

CATEGORIES = ("SL", "SH", "SFMH", "MFMH", "ALL")
STUDY_FIELDS = ("category", "blameability", "resolution_method",
                "resolved_commit", "unique_commit_count")


class Gate:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(reason)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def patch_lines(text: str) -> dict:
    """Removed and added line texts per file of a git diff."""
    out: dict[str, dict] = {}
    current = None
    in_hunk = False
    for line in text.splitlines():
        if line.startswith("diff --git "):
            current, in_hunk = None, False
        elif not in_hunk and line.startswith("+++ "):
            path = line[4:]
            current = path[2:] if path.startswith("b/") else path
            out.setdefault(current, {"removed": [], "added": []})
        elif line.startswith("@@"):
            in_hunk = True
        elif in_hunk and current is not None and line[:1] in ("-", "+"):
            out[current]["removed" if line[0] == "-" else "added"].append(line[1:])
    return out


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(raw) for raw in path.read_text().splitlines() if raw.strip()]


def check_study(gate: Gate, study_dir: Path, truth: dict) -> None:
    path = study_dir / "availability_records.jsonl"
    rows = {r["bug_id"]: r for r in _jsonl(path)} if path.exists() else {}
    for bug, want in truth["bugs"].items():
        row = rows.get(bug)
        if not gate.op(row is not None and "excluded" not in row,
                       f"study: {bug} missing or excluded: {(row or {}).get('excluded')}"):
            continue
        wrong = [f"{k}={row.get(k)!r} (want {want[k]!r})" for k in STUDY_FIELDS
                 if row.get(k) != want[k]]
        gate.op(not wrong, f"study: {bug}: {', '.join(wrong)}")


def _context_problem(ctx_dir: Path, bug: str, heuristic: str, want: dict) -> str:
    stem = ctx_dir / f"{bug}__{heuristic}"
    path = Path(f"{stem}.context.json")
    if heuristic == "fn_pair" and want["fn_pair"] is None:
        user = Path(f"{stem}.user.txt")
        if path.exists():
            return "fn_pair built although no function holds the anchor"
        if not user.exists() or "historical context unavailable" not in user.read_text():
            return "fn_pair unavailability notice missing from the user prompt"
        return ""
    if not path.exists():
        return "context sidecar missing"
    obj = json.loads(path.read_text())
    if (obj["kind"], obj["commit_id"]) != (heuristic, want["commit"]):
        return f"kind/commit {obj['kind']}/{obj['commit_id']} (want {heuristic}/{want['commit']})"
    if obj["commit_message"] != want["message"]:
        return "commit message differs"
    payload = obj["payload"]
    if heuristic == "fn_all":
        paths = [e["file_path"] for e in payload["entries"]]
        if paths != want["changed"][:len(paths)] or (
                not obj["truncated"] and len(paths) != len(want["changed"])):
            return f"fn_all files {paths} (want {want['changed']})"
        for e in payload["entries"]:
            if not e["note"] and e["names"] != want["names"][e["file_path"]]:
                return f"fn_all names of {e['file_path']} differ"
    elif heuristic == "fn_pair":
        got = {side: (payload[side] or {}).get("name") for side in ("before", "after")}
        if got != want["fn_pair"]:
            return f"fn_pair sides {got} (want {want['fn_pair']})"
    elif not payload["diff_text"].startswith(f"diff --git a/{want['changed'][0]} "):
        return "fl_diff does not open with the first changed file"
    return ""


def check_contexts(gate: Gate, ctx_dir: Path, truth: dict, bugs, heuristics) -> None:
    for bug in bugs:
        for heuristic in heuristics:
            problem = _context_problem(ctx_dir, bug, heuristic, truth["bugs"][bug]["context"])
            gate.op(not problem, f"context: {bug} {heuristic}: {problem}")


def check_batch(gate: Gate, out_dir: Path, stdout: str, truth: dict) -> int:
    """Check every job's record; returns the number of complete records."""
    failed_lines = {line.split()[1] + "__" + line.split()[2].rstrip(":")
                    for line in stdout.splitlines() if ": FAILED " in line}
    complete = 0
    for job, want in truth["jobs"].items():
        path = out_dir / "records" / f"{job}.jsonl"
        lines = _jsonl(path) if path.exists() else []
        done = bool(lines) and lines[-1].get("type") == "result"
        complete += done
        if not gate.op(done and job not in failed_lines, f"batch: {job} failed or incomplete"):
            continue
        result = lines[-1]
        got = {"termination": result["termination"],
               "tests_passed_at_end": result["tests_passed_at_end"],
               "steps_taken": result["steps_taken"],
               "patch": patch_lines(result["final_patch"])}
        wrong = [f"{k}={got[k]!r} (want {want[k]!r})" for k in got if got[k] != want[k]]
        gate.op(not wrong, f"record: {job}: {', '.join(wrong)}")
    return complete


def report_counts(table: str) -> dict:
    """Pass counts per category/config (and ALL/config) from metrics_table.txt."""
    counts = {}
    for line in table.splitlines():
        words = line.split()
        if len(words) >= 4 and words[0] in CATEGORIES and words[2].isdigit():
            counts[f"{words[0]}/{words[1]}"] = [int(words[2]), int(words[3])]
    return dict(sorted(counts.items()))


def check_report(gate: Gate, report_dir: Path, truth: dict) -> None:
    table = report_dir / "metrics_table.txt"
    got = report_counts(table.read_text()) if table.exists() else {}
    gate.op(got == truth["report"], f"report: pass counts {got} (want {truth['report']})")


def report_files(report_dir: Path) -> dict:
    # the frozen config names the output directory, which differs per repeat
    return {p.name: p.read_bytes() for p in sorted(report_dir.iterdir())
            if p.is_file() and p.name != "effective_config.json"}


def check_same_records(gate: Gate, jobs, first: Path, other: Path, label: str) -> None:
    from histrepair.loop import comparable_record_lines

    differ = []
    for job in jobs:
        a, b = first / f"{job}.jsonl", other / f"{job}.jsonl"
        if not (a.exists() and b.exists()) or (
                comparable_record_lines(a) != comparable_record_lines(b)):
            differ.append(job)
    gate.op(not differ, f"{label}: records differ for {differ}")


def check_same_report(gate: Gate, first: Path, other: Path, label: str) -> None:
    a, b = report_files(first), report_files(other)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    gate.op(not differ, f"{label}: report files differ: {differ}")
