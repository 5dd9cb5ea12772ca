"""Thin wrapper around the git command line plus the blame parser.

All repository access goes through the git binary, by way of `run_git`:
blame in porcelain form, file content at a revision, changed-file sets,
diffs and their hunks, and commit metadata. Diff text is read by
`patches`, the one unified-diff parser. `run_git` decodes a byte that
is not UTF-8 as U+FFFD, so one Latin-1 source cannot cost a bug its
blame and context. Nothing here mutates a repository.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BlameParseError, FileNotInSnapshot, GitToolError, LineOutOfRange
from .patches import Hunk, parse_unified_diff

# sha of git's canonical empty tree; diffing a root commit against it
# yields an all-additions patch
EMPTY_TREE = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"

# header keys git blame --line-porcelain is documented to emit
_BLAME_KEYS = {
    "author", "author-mail", "author-time", "author-tz",
    "committer", "committer-mail", "committer-time", "committer-tz",
    "summary", "previous", "boundary", "filename",
}


def run_git(repo: Path | str, *args: str, check: bool = True,
            errors: str = "replace") -> str:
    """Run a git command in `repo` and return stdout as UTF-8 text.

    `errors` is the decode policy; "strict" raises UnicodeDecodeError
    on a byte that is not UTF-8 instead of replacing it.
    """
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True, text=True, errors=errors,
    )
    if check and proc.returncode != 0:
        raise GitToolError(
            f"git {' '.join(args[:2])}... exited {proc.returncode}",
            stderr=proc.stderr,
        )
    return proc.stdout


def file_at(repo: Path | str, ref: str, path: str) -> str:
    """Content of `path` as of `ref`."""
    try:
        return run_git(repo, "show", f"{ref}:{path}")
    except GitToolError as exc:
        if "does not exist" in exc.stderr or "exists on disk, but not in" in exc.stderr:
            raise FileNotInSnapshot(f"{path} not in {ref}") from exc
        raise


def first_parent(repo: Path | str, commit: str) -> str | None:
    """First parent sha, or None for a root commit."""
    # --quiet: a root commit prints nothing and exits non-zero
    out = run_git(repo, "rev-parse", "--verify", "--quiet", f"{commit}^1", check=False)
    return out.strip() or None


def commit_subjects(repo: Path | str, commits: list[str]) -> dict[str, str]:
    """The subject line of each of `commits`, read with one git call."""
    out = run_git(repo, "log", "--no-walk=unsorted", "--format=%H%x00%s", *commits)
    pairs = (line.split("\0", 1) for line in out.split("\n") if line)
    return {sha: subject.strip() for sha, subject in pairs}


def commit_message(repo: Path | str, commit: str) -> str:
    return run_git(repo, "log", "-1", "--format=%B", commit).rstrip("\n")


@dataclass(frozen=True)
class ChangedFile:
    """One file touched by a commit, relative to its first parent."""

    old_path: str | None     # None for added files
    new_path: str | None     # None for deleted files


def changed_files(repo: Path | str, commit: str) -> list[ChangedFile]:
    """Files `commit` changed against its first parent.

    Renames are detected (-M) and carry both paths. Root commits diff
    against the empty tree, so everything shows as added.
    """
    parent = first_parent(repo, commit) or EMPTY_TREE
    out = run_git(repo, "diff", "--name-status", "-M", parent, commit)
    changes = []
    for line in out.splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        status = parts[0][0]
        if status == "A":
            changes.append(ChangedFile(None, parts[1]))
        elif status == "D":
            changes.append(ChangedFile(parts[1], None))
        elif status in ("R", "C"):
            changes.append(ChangedFile(parts[1], parts[2]))
        else:
            changes.append(ChangedFile(parts[1], parts[1]))
    return changes


def commit_diff(repo: Path | str, commit: str, context_lines: int = 3) -> str:
    """Unified diff of `commit` against its first parent (or empty tree)."""
    parent = first_parent(repo, commit) or EMPTY_TREE
    return run_git(repo, "diff", f"-U{context_lines}", parent, commit)


def diff_hunks(repo: Path | str, old: str, new: str, path: str) -> list[Hunk]:
    """Zero-context hunks of `path` between two commits.

    The algorithm and the hunk layout are pinned so that user diff
    settings cannot change how lines of `new` align with lines of `old`.
    """
    out = run_git(repo, "diff", "-U0", "--inter-hunk-context=0", "--no-color",
                  "--no-ext-diff", "--diff-algorithm=myers", old, new, "--", path)
    return parse_unified_diff(out).files[0].hunks if out else []


def file_add_commit(repo: Path | str, ref: str, path: str) -> tuple[str, int]:
    """The commit (reachable from ref) that added `path`, and its author time."""
    out = run_git(repo, "log", "--format=%H %at", "--diff-filter=A", "--follow",
                  ref, "--", path)
    # newest first, so the last line is the add that started the file
    words = out.split()
    if not words:
        raise GitToolError(f"no add commit found for {path}")
    return words[-2], int(words[-1])


@dataclass
class BlameLine:
    """One line's attribution parsed from porcelain blame output."""

    commit_id: str
    final_line: int            # line number in the blamed (snapshot) file
    orig_line: int             # line number in commit_id's version of the file
    author_time: int
    orig_filename: str = ""    # path in commit_id's version (follows moves)
    headers: dict = field(default_factory=dict)


def parse_porcelain_blame(output: str) -> list[BlameLine]:
    """Parse `git blame --line-porcelain` output.

    Header records may appear in any order between the commit line and
    the tab-prefixed content line. Unknown record types raise: silent
    tolerance would hide format drift.
    """
    # only "\n" ends a record: a form feed in a content line does not
    lines = output.split("\n")
    result: list[BlameLine] = []
    i = 0
    while i < len(lines):
        head = lines[i]
        if not head.strip():
            i += 1
            continue
        parts = head.split()
        if len(parts) < 3 or len(parts[0]) != 40:
            raise BlameParseError(f"unexpected blame commit line: {head!r}")
        sha, orig_line, final_line = parts[0], int(parts[1]), int(parts[2])
        headers: dict = {}
        i += 1
        while i < len(lines) and not lines[i].startswith("\t"):
            record = lines[i]
            key = record.split(" ", 1)[0]
            if key == "boundary":
                headers["boundary"] = True
            elif key in _BLAME_KEYS:
                headers[key] = record[len(key) + 1:]
            else:
                raise BlameParseError(f"unknown blame record type: {key!r}")
            i += 1
        if i >= len(lines):
            raise BlameParseError("blame output truncated before content line")
        i += 1  # skip the \t content line
        result.append(BlameLine(
            commit_id=sha,
            final_line=final_line,
            orig_line=orig_line,
            author_time=int(headers.get("author-time", "0")),
            orig_filename=headers.get("filename", ""),
            headers=headers,
        ))
    return result


def blame_file_lines(repo: Path | str, ref: str, path: str,
                     line_numbers: list[int]) -> list[BlameLine]:
    """Blame specific 1-based lines of `path` as of `ref`.

    Contiguous line runs are batched into -L ranges in one invocation.
    """
    if not line_numbers:
        return []
    ordered = sorted(set(line_numbers))
    ranges: list[tuple[int, int]] = []
    start = prev = ordered[0]
    for n in ordered[1:]:
        if n == prev + 1:
            prev = n
            continue
        ranges.append((start, prev))
        start = prev = n
    ranges.append((start, prev))

    args = ["blame", "--line-porcelain"]
    for lo, hi in ranges:
        args += ["-L", f"{lo},{hi}"]
    args += [ref, "--", path]
    try:
        out = run_git(repo, *args)
    except GitToolError as exc:
        stderr = exc.stderr
        if "no such path" in stderr or "does not exist" in stderr:
            raise FileNotInSnapshot(f"{path} not in {ref}") from exc
        if "has only" in stderr and "lines" in stderr:
            raise LineOutOfRange(stderr.strip()) from exc
        raise
    wanted = set(ordered)
    return [bl for bl in parse_porcelain_blame(out) if bl.final_line in wanted]
