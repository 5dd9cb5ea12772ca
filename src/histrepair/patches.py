"""Unified diff parsing and patch structure.

This is the one module that reads unified-diff text. A parsed patch is
what bug categorization works on, and the hunks of a blamed commit's
own diff (`gitio.read_commit`) are what the fn_pair pre-image mapping
walks. The verbatim pieces the parser walks, header runs and whole
hunks, are where fl_diff payloads may be cut (`diff_pieces`). Parsing accepts plain
`diff -u` output as well as git's variant (diff --git headers,
/dev/null sides, binary notices, mode lines).

Hunk bodies are read as git reads them: a hunk holds exactly the old
and new line counts of its header, so a body line such as `-- note` or
`++ counter` is never taken for a file header. Only "\n" ends a line:
`source_lines`, the package's one line split, lives here so that
`report` reads fix patches without loading the source scanners.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Sequence

from .errors import EmptyPatch

_HUNK_HEADER = re.compile(
    r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@"
)


class Hunk(NamedTuple):
    """One @@ block: old/new start lines and the +/- line bodies."""

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: Sequence[str] = ()  # raw lines incl. +/-/space prefix

    @property
    def removed(self) -> int:
        return sum(1 for ln in self.lines if ln.startswith("-"))

    @property
    def added(self) -> int:
        return sum(1 for ln in self.lines if ln.startswith("+"))

    @property
    def changed(self) -> int:
        # a hunk that swaps k lines for k lines touches k lines, not 2k
        return max(self.removed, self.added)

    def old_line_numbers(self) -> list[int]:
        """1-based numbers (old side) of removed lines in this hunk."""
        numbers = []
        cursor = self.old_start
        for ln in self.lines:
            if ln.startswith("-"):
                numbers.append(cursor)
                cursor += 1
            elif ln.startswith("+"):
                continue
            else:
                cursor += 1
        return numbers


class FilePatch(NamedTuple):
    """All hunks touching one file."""

    old_path: str            # "/dev/null" for a created file
    new_path: str            # "/dev/null" for a deleted file
    hunks: Sequence[Hunk] = ()

    @property
    def path(self) -> str:
        return self.new_path if self.new_path != "/dev/null" else self.old_path


class Patch(NamedTuple):
    """A parsed unified diff across any number of files."""

    files: Sequence[FilePatch] = ()

    @property
    def hunk_count(self) -> int:
        return sum(len(fp.hunks) for fp in self.files)


def source_lines(text: str) -> list[str]:
    """The lines of `text` as git numbers them, line 1 at index 0.

    Only "\n" ends a line: str.splitlines would also break at form
    feeds and other Unicode separators. A final "\n" opens no new line.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _strip_prefix(path: str) -> str:
    if path == "/dev/null":
        return path
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def diff_pieces(text: str) -> Iterator[tuple[Hunk | None, list[str]]]:
    """The verbatim pieces of unified diff text, in order.

    A piece is one whole hunk, given with its parsed Hunk, or a run of
    the header lines between hunks, given with None. A hunk piece holds
    its @@ line and the body lines its header counts take; a
    "\\ No newline" marker stays with the piece it follows. Joining
    the pieces' lines gives back the lines of `text`.
    """
    hunk: Hunk | None = None
    piece: list[str] = []
    body: list[str] = []  # the open hunk's lines
    old_left = new_left = 0  # lines the open hunk still expects per side

    for raw in source_lines(text):
        tag = raw[:1]
        if tag == "\\":  # "\ No newline at end of file" counts on no side
            piece.append(raw)
            continue
        # a body line while the open hunk has room for it on each side
        # it takes; an empty line is context that lost its blank. A line
        # that does not fit closes the hunk and is read as a header.
        uses_old, uses_new = tag != "+", tag != "-"
        if tag in (" ", "-", "+", "") and old_left >= uses_old and new_left >= uses_new:
            piece.append(raw)
            body.append(raw)
            old_left -= uses_old
            new_left -= uses_new
            continue
        old_left = new_left = 0
        m = _HUNK_HEADER.match(raw)
        if m or hunk is not None:
            if piece:
                yield hunk, piece
            piece, hunk = [], None
        if m:
            hunk = Hunk(
                old_start=int(m.group(1)),
                old_count=int(m.group(2) or "1"),
                new_start=int(m.group(3)),
                new_count=int(m.group(4) or "1"),
                lines=[],
            )
            body, old_left, new_left = hunk.lines, hunk.old_count, hunk.new_count
        piece.append(raw)
    if piece:
        yield hunk, piece


def parse_unified_diff(text: str) -> Patch:
    """Parse unified diff text. Raises EmptyPatch if no file changes."""
    files: list[FilePatch] = []
    current: FilePatch | None = None
    pending_old: str | None = None

    for hunk, piece in diff_pieces(text):
        if hunk is not None:
            if current is None:
                raise EmptyPatch("hunk header before any file header")
            current.hunks.append(hunk)
            continue
        for raw in piece:
            if raw.startswith("diff --git"):
                current = None
                pending_old = None
                continue
            if raw.startswith("Binary files ") or raw.startswith("GIT binary patch"):
                m = re.match(r"Binary files (.*) and (.*) differ", raw)
                if m:
                    files.append(FilePatch(
                        old_path=_strip_prefix(m.group(1)),
                        new_path=_strip_prefix(m.group(2)),
                        hunks=[],
                    ))
                current = None
                continue
            if raw.startswith("--- "):
                pending_old = _strip_prefix(raw[4:].split("\t")[0])
                continue
            if raw.startswith("+++ "):
                new_path = _strip_prefix(raw[4:].split("\t")[0])
                current = FilePatch(old_path=pending_old or new_path, new_path=new_path,
                                    hunks=[])
                files.append(current)
                pending_old = None

    if not files:
        raise EmptyPatch("diff contains no file changes")
    return Patch(files=files)
