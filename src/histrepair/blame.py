"""Blame resolution: map each bug to the historical commit that explains it.

For lines the fix modifies or deletes, the explaining commit is the one
blame reports for that line. Add-only fixes have no such lines; those
anchor on the nearest executable line above each insertion point, found
with one read and one scan of the file and blamed with one git call. An
anchor more than 5 lines above the insertion carries a note saying how
far the window had to extend. A file with no executable line above the
insertion at all anchors on the commit that added the file.

When several distinct commits share the blame, a judge picks one. The
judge is a callable, so tests can stub it. It sees only each
candidate's commit id and author time, both from the blame itself; the
shipped judge picks the newest candidate by author time. The CLI
resolves each bug once per call and reuses that commit for every
history config.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

from . import gitio
from .bugs import CATEGORIES, BugRecord, BugSpec, FaultLocation, categorize_bug
from .errors import (
    FileNotInSnapshot,
    JudgeError,
    NewFileNoHistory,
    NoFallbackAnchor,
)
from .patches import Patch
from .sourcetext import executable_line_numbers

# an anchor farther than this above its insertion carries an anchor_note
FALLBACK_WINDOW = 5


class BlameEntry(NamedTuple):
    """One localized line attributed to a commit."""

    file_path: str
    line_number: int
    commit_id: str
    author_time: int
    is_fallback: bool = False
    anchor_note: str = ""   # set when the anchor lies beyond FALLBACK_WINDOW
    commit_line: int = 0    # the line's number in commit_id's file version
    commit_path: str = ""   # the file's path in commit_id's version


class JudgeCandidate(NamedTuple):
    """What the judge sees for one candidate commit."""

    commit_id: str
    author_time: int


# a judge maps the candidate list to an index into it
CommitJudge = Callable[[list[JudgeCandidate]], int]


def most_recent_judge_factory(repo: Path | str) -> CommitJudge:
    """Deterministic stub judge: newest candidate by author time wins.

    The candidates carry their author times, so the judge reads nothing
    from `repo`.
    """

    def judge(candidates: list[JudgeCandidate]) -> int:
        return max(range(len(candidates)),
                   key=lambda i: (candidates[i].author_time, -i))

    return judge


class BlameSummary(NamedTuple):
    """Blame outcome for one bug."""

    bug_id: str
    entries: list[BlameEntry]
    blameability: str            # Blameable | Blameless
    unique_commits: frozenset[str]
    resolved_commit: str
    resolution_method: str       # single | judge | fallback


def _entry(bl: gitio.BlameLine, path: str, **fallback) -> BlameEntry:
    return BlameEntry(file_path=path, line_number=bl.final_line, commit_id=bl.commit_id,
                      author_time=bl.author_time, commit_line=bl.orig_line,
                      commit_path=bl.orig_filename or path, **fallback)


def blame_lines(repo: Path | str, ref: str,
                location: FaultLocation) -> list[BlameEntry]:
    """Blame the modified/deleted lines of one location.

    Insertion points yield no entry here; they are handled by the
    fallback path.
    """
    targets = [ln.line for ln in location.blameable_lines]
    if not targets:
        return []
    raw = gitio.blame_file_lines(repo, ref, location.file_path, targets)
    by_line = {bl.final_line: bl for bl in raw}
    return [_entry(by_line[num], location.file_path) for num in targets]


def fallback_blame(repo: Path | str, ref: str, path: str,
                   insert_line: int) -> BlameEntry:
    """Anchor an insertion point on the nearest executable line above it.

    Scans insert_line-1 up to line 1 and blames the first executable
    line found; one more than FALLBACK_WINDOW lines away gets an
    anchor_note. Raises NoFallbackAnchor when no line above the
    insertion is executable, NewFileNoHistory when the file is absent
    from the snapshot.
    """
    try:
        text = gitio.file_at(repo, ref, path)
    except FileNotInSnapshot:
        raise NewFileNoHistory(f"{path} does not exist in {ref}") from None
    numbers = executable_line_numbers(text)
    anchor = next((n for n in range(insert_line - 1, 0, -1) if n in numbers), None)
    if anchor is None:
        raise NoFallbackAnchor(f"{path}: no executable line above {insert_line}")
    gap = insert_line - anchor
    note = "" if gap <= FALLBACK_WINDOW else f"window extended to {gap} lines"
    return _entry(gitio.blame_file_lines(repo, ref, path, [anchor])[0], path,
                  is_fallback=True, anchor_note=note)


def resolve_insertion(repo: Path | str, ref: str, path: str,
                      insert_line: int) -> BlameEntry:
    """fallback_blame, or the file's add commit when it finds no anchor.

    If nothing above the insertion is executable, the anchor is the
    commit that added the file.
    """
    try:
        return fallback_blame(repo, ref, path, insert_line)
    except NoFallbackAnchor:
        pass
    add_commit, add_time = gitio.file_add_commit(repo, ref, path)
    return BlameEntry(file_path=path, line_number=1, commit_id=add_commit,
                      author_time=add_time, is_fallback=True,
                      anchor_note="no executable line above insertion; using file add commit")


def summarize_blame(repo: Path | str, spec: BugSpec,
                    judge: CommitJudge | None = None) -> BlameSummary:
    """Resolve one bug to a single explaining commit.

    Resolution is single when exactly one commit is blamed, judge when
    several are, and fallback when the fix only inserts code.
    """
    ref = spec.snapshot_ref
    entries: list[BlameEntry] = []
    for loc in spec.locations:
        entries.extend(blame_lines(repo, ref, loc))

    # first-appearance order keeps judging deterministic; blame reports
    # one author time per commit
    times = {e.commit_id: e.author_time for e in entries}
    unique = frozenset(times)
    blameability = "Blameless" if spec.all_insertion else "Blameable"

    if len(unique) == 1:
        resolved, method = entries[0].commit_id, "single"
    elif len(unique) >= 2:
        candidates = [JudgeCandidate(sha, t) for sha, t in times.items()]
        if judge is None:
            judge = most_recent_judge_factory(repo)
        shas = ", ".join(times)
        try:
            idx = judge(candidates)
        except Exception as exc:
            raise JudgeError(f"{exc} (candidates: {shas})") from exc
        if not isinstance(idx, int) or not 0 <= idx < len(candidates):
            raise JudgeError(
                f"judge answered {idx!r}, expected an index in "
                f"[0, {len(candidates) - 1}] (candidates: {shas})"
            )
        resolved, method = candidates[idx].commit_id, "judge"
    else:
        for loc in spec.locations:
            for ln in loc.insertion_lines:
                entries.append(resolve_insertion(repo, ref, loc.file_path, ln.line))
        # the commit with the most anchors, then the newest
        anchors = [e for e in entries if e.is_fallback]
        counts = Counter(e.commit_id for e in anchors)
        times = {e.commit_id: e.author_time for e in anchors}
        resolved = max(counts, key=lambda sha: (counts[sha], times[sha], sha))
        method = "fallback"

    return BlameSummary(
        bug_id=spec.bug_id,
        entries=entries,
        blameability=blameability,
        unique_commits=unique,
        resolved_commit=resolved,
        resolution_method=method,
    )


class StudyRow(NamedTuple):
    """Per-bug line of the availability study records file."""

    bug_id: str
    category: str
    blameability: str
    resolution_method: str
    resolved_commit: str
    unique_commit_count: int


class AvailabilityReport(NamedTuple):
    """Outcome of the availability study over a dataset."""

    rows: list[StudyRow]
    exclusions: list[tuple[str, str]]  # (bug_id, reason)

    def counts(self) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {
            cat: {"Blameable": 0, "Blameless": 0}
            for cat in CATEGORIES
        }
        for row in self.rows:
            table[row.category][row.blameability] += 1
        return table

    def histogram(self) -> dict[int, int]:
        """Bugs per number of unique blame commits (0 = blameless)."""
        hist: Counter = Counter(r.unique_commit_count for r in self.rows)
        return dict(sorted(hist.items()))

    @property
    def dataset_size(self) -> int:
        return len(self.rows) + len(self.exclusions)


def run_availability_study(records: list[BugRecord],
                           patches: dict[str, Patch]) -> AvailabilityReport:
    """Summarize and categorize every bug; failures become exclusions.

    `patches` maps bug_id to its parsed fix patch, which
    `categorize_bug` sorts into a category. A bug without one is
    excluded.
    """
    report = AvailabilityReport(rows=[], exclusions=[])
    for rec in records:
        bug_id = rec.spec.bug_id
        try:
            category = categorize_bug(patches[bug_id])
            summary = summarize_blame(rec.repo_path, rec.spec)
        except KeyError:
            report.exclusions.append((bug_id, "no fix patch in manifest"))
            continue
        except Exception as exc:
            report.exclusions.append((bug_id, f"{type(exc).__name__}: {exc}"))
            continue
        report.rows.append(StudyRow(
            bug_id=bug_id,
            category=category,
            blameability=summary.blameability,
            resolution_method=summary.resolution_method,
            resolved_commit=summary.resolved_commit,
            unique_commit_count=len(summary.unique_commits),
        ))
    return report


def _pct(num: int, den: int) -> str:
    if den == 0:
        return "-"
    return f"{num / den * 100:.1f}"


def render_availability_table(report: AvailabilityReport) -> str:
    """Plain-text availability table: per-category and total counts."""
    counts = report.counts()
    lines = []
    header = f"{'Category':<10}{'Blameable':>12}{'Blameless':>12}{'Total':>8}{'%Blameable':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    total_able = total_less = 0
    for cat in CATEGORIES:
        able = counts[cat]["Blameable"]
        less = counts[cat]["Blameless"]
        total_able += able
        total_less += less
        lines.append(
            f"{cat:<10}{able:>12}{less:>12}{able + less:>8}"
            f"{_pct(able, able + less):>12}"
        )
    grand = total_able + total_less
    lines.append(
        f"{'Total':<10}{total_able:>12}{total_less:>12}{grand:>8}"
        f"{_pct(total_able, grand):>12}"
    )
    lines.append("")
    lines.append("Unique blame commits per bug:")
    for k, n in report.histogram().items():
        lines.append(f"  {k}: {n}")
    if report.exclusions:
        lines.append("")
        lines.append(f"Excluded ({len(report.exclusions)}):")
        for bug_id, reason in report.exclusions:
            lines.append(f"  {bug_id}: {reason}")
    return "\n".join(lines) + "\n"


def write_study_outputs(report: AvailabilityReport, out_dir: Path) -> None:
    """Persist the study: plain-text table plus JSONL records."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "availability.txt").write_text(render_availability_table(report))
    with (out_dir / "availability_records.jsonl").open("w") as fh:
        for row in report.rows:
            fh.write(json.dumps(row._asdict()) + "\n")
        for bug_id, reason in report.exclusions:
            fh.write(json.dumps({"bug_id": bug_id, "excluded": reason}) + "\n")
