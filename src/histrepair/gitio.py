"""Thin wrapper around the git command line plus the blame parser.

All repository access goes through the git binary, by way of `run_git`:
blame in porcelain form, file content at a revision, and `read_commit`,
one `git show` per blamed commit for its first parent, message, changed
files and diff. That diff is the only one the history side reads; its
options are pinned in one place, `read_commit`. `run_git` decodes a
byte that is not UTF-8 as U+FFFD, so one Latin-1 source cannot cost a
bug its blame and context. Nothing here mutates a repository.

Git reads no system or global config, so a user's settings cannot change
a read, a patch or a verdict (nor can a global `safe.directory` apply).
Bytes above 0x7f in paths are not C-quoted (`core.quotePath=false`), so
blame, diff headers and final patches name a non-ASCII file as on disk.
Git still C-quotes a path that holds a `"`, a backslash or a control
character; `patches.unquote_path` undoes that in the changed files,
blame's filename and the diff headers `patches` parses, while diff text
(fl_diff, final patches) stays git's verbatim output.

`CallMemo`, one CLI call's memo of its blame summaries and final-patch
verdicts, lives here because every command that needs it loads git,
while `context` loads no sandbox.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import threading
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple, TypeVar

from .errors import BlameParseError, FileNotInSnapshot, GitToolError, LineOutOfRange
from .patches import unquote_path

# header keys git blame --line-porcelain is documented to emit
_BLAME_KEYS = {
    "author", "author-mail", "author-time", "author-tz",
    "committer", "committer-mail", "committer-time", "committer-tz",
    "summary", "previous", "boundary", "filename",
}


def run_git(repo: Path | str, *args: str, errors: str = "replace",
            input: str | None = None) -> str:
    """Run a git command in `repo`, blind to system and global config; return stdout.

    `errors` is the decode policy; "strict" raises UnicodeDecodeError
    on a byte that is not UTF-8 instead of replacing it. `input`, when
    given, is written to the command's stdin.
    """
    proc = subprocess.run(
        ["git", "-c", "core.quotePath=false", "-C", str(repo), *args],
        capture_output=True, text=True, errors=errors, input=input,
        env={**os.environ, "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull},
    )
    if proc.returncode != 0:
        raise GitToolError(
            f"git {' '.join(args[:2])}... exited {proc.returncode}",
            stderr=proc.stderr, returncode=proc.returncode,
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


class ChangedFile(NamedTuple):
    """One file touched by a commit, relative to its first parent."""

    old_path: str | None     # None for added files
    new_path: str | None     # None for deleted files


class Commit(NamedTuple):
    """What the history heuristics read of one commit, all from one `git show`."""

    parent: str | None                # first parent; None for a root commit
    message: str
    changes: tuple[ChangedFile, ...]  # against the first parent, renames detected
    diff: str                         # unified diff against the first parent, -U3


def read_commit(repo: Path | str, commit: str) -> Commit:
    """One read of `commit`: first parent, message, changed files and diff.

    A root commit diffs as all additions (`--root`, so `log.showRoot`
    cannot drop it) and a merge against its first parent only. Colour,
    external diff drivers, text conversion, path prefixes, file order
    and the hunk layout are pinned, so a host repo's own config cannot
    change the diff.
    """
    out = run_git(repo, "show", "--format=%P%x00%B%x00", "--diff-merges=first-parent",
                  "--root", "--patch-with-raw", "-M", "-U3", "--no-color", "--no-ext-diff",
                  "--no-textconv", "--src-prefix=a/", "--dst-prefix=b/", "-O/dev/null",
                  "--diff-algorithm=myers", "--inter-hunk-context=0", commit)
    parents, message, rest = out.split("\0", 2)
    # after the format's newline: the raw lines, a blank line, the patch
    raw, _, diff = rest.lstrip("\n").partition("\n\n")
    changes = []
    for line in raw.splitlines():
        # ":<modes> <shas> <status>\t<path>", a rename adding "\t<new path>"
        meta, *paths = line.split("\t")
        old, new = unquote_path(paths[0]), unquote_path(paths[-1])
        status = meta.split()[-1][0]
        changes.append(ChangedFile(None if status == "A" else old,
                                   None if status == "D" else new))
    return Commit(parent=(parents.split() or [None])[0], message=message.rstrip("\n"),
                  changes=tuple(changes), diff=diff)


def file_add_commit(repo: Path | str, ref: str, path: str) -> tuple[str, int]:
    """The commit (reachable from ref) that added `path`, and its author time."""
    out = run_git(repo, "log", "--format=%H %at", "--diff-filter=A", "--follow",
                  ref, "--", path)
    # newest first, so the last line is the add that started the file
    words = out.split()
    if not words:
        raise GitToolError(f"no add commit found for {path}")
    return words[-2], int(words[-1])


class BlameLine(NamedTuple):
    """One line's attribution parsed from porcelain blame output."""

    commit_id: str
    final_line: int            # line number in the blamed (snapshot) file
    orig_line: int             # line number in commit_id's version of the file
    author_time: int
    orig_filename: str         # path in commit_id's version (follows moves)
    headers: dict


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
            orig_filename=unquote_path(headers.get("filename", "")),
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
    args = ["blame", "--line-porcelain"]
    # consecutive lines share their offset from their index
    for _, group in itertools.groupby(enumerate(ordered), lambda pair: pair[1] - pair[0]):
        lines = [n for _, n in group]
        args += ["-L", f"{lines[0]},{lines[-1]}"]
    args += [ref, "--", path]
    try:
        out = run_git(repo, *args)
    except GitToolError as exc:
        if "no such path" in exc.stderr or "does not exist" in exc.stderr:
            raise FileNotInSnapshot(f"{path} not in {ref}") from exc
        if "has only" in exc.stderr and "lines" in exc.stderr:
            raise LineOutOfRange(exc.stderr.strip()) from exc
        raise
    wanted = set(ordered)
    return [bl for bl in parse_porcelain_blame(out) if bl.final_line in wanted]


T = TypeVar("T")


class CallMemo:
    """Values by key, each computed once per CLI call.

    The call's final-patch verdicts are keyed by (host repo, commit,
    patch text), its blame summaries by ("blame", host repo, bug id).
    Single-flight: a caller asking for a key that another thread is
    computing waits for that value instead of computing it again. A
    computation that raises stores nothing, so the next caller for the
    key tries again. One memo serves one CLI call.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._slots: dict[tuple, list] = {}   # key -> [key lock, value or None]

    def get(self, key: tuple, compute: Callable[[], T]) -> T:
        with self._lock:
            slot = self._slots.setdefault(key, [threading.Lock(), None])
        with slot[0]:
            if slot[1] is None:
                slot[1] = compute()
            return slot[1]
