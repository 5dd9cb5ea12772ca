"""Bug dataset model: fault locations, fix categories, manifests.

A dataset is a JSONL manifest, one record per bug:

    {"bug_id": "...", "repo_path": "...", "snapshot_ref": "...",
     "locations": [{"file": "...", "lines": [{"line": 7, "kind": "modified"}]}],
     "failing_tests": ["..."], "bug_report_path": "...",
     "fix_patch_path": "..."}   # fix_patch_path optional

Relative paths resolve against the manifest's own directory. A fix
patch is read with `patches.parse_unified_diff`; `categorize_bug` sorts
the parsed patch into SL, SH, SFMH or MFMH.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, EmptyPatch
from .patches import Patch

EDIT_KINDS = ("modified", "deleted", "insertion_point")
CATEGORIES = ("SL", "SH", "SFMH", "MFMH")


class _LineFields(NamedTuple):
    line: int
    kind: str  # modified | deleted | insertion_point


class LocalizedLine(_LineFields):
    """One localized line: its 1-based index and how the fix touches it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.line < 1:
            raise ConfigError(f"line numbers are 1-based, got {self.line}")
        if self.kind not in EDIT_KINDS:
            raise ConfigError(f"unknown edit kind {self.kind!r}")
        return self


class _LocationFields(NamedTuple):
    file_path: str
    lines: tuple[LocalizedLine, ...]


class FaultLocation(_LocationFields):
    """Localized lines within one file of the buggy snapshot."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.lines:
            raise ConfigError(f"{self.file_path}: empty line list")
        numbers = [ln.line for ln in self.lines]
        if numbers != sorted(set(numbers)):
            raise ConfigError(
                f"{self.file_path}: line numbers must be strictly increasing"
            )
        return self

    @property
    def blameable_lines(self) -> list[LocalizedLine]:
        return [ln for ln in self.lines if ln.kind != "insertion_point"]

    @property
    def insertion_lines(self) -> list[LocalizedLine]:
        return [ln for ln in self.lines if ln.kind == "insertion_point"]


class _SpecFields(NamedTuple):
    bug_id: str
    snapshot_ref: str
    locations: tuple[FaultLocation, ...]
    failing_tests: tuple[str, ...]
    bug_report: str = ""


class BugSpec(_SpecFields):
    """Everything the pipeline knows about one bug before repair."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.locations:
            raise ConfigError(f"{self.bug_id}: no fault locations")
        return self

    @property
    def all_insertion(self) -> bool:
        return all(
            ln.kind == "insertion_point"
            for loc in self.locations
            for ln in loc.lines
        )


def categorize_bug(patch: Patch) -> str:
    """Classify a fix patch as SL, SH, SFMH, or MFMH.

    SL: one hunk, one file, exactly one changed line. SH: one hunk, one
    file, two or more changed lines. SFMH: several hunks confined to one
    file. MFMH: hunks in two or more files. A file without hunks (a
    binary notice) does not count.
    """
    edited = [fp for fp in patch.files if fp.hunks]
    if not edited:
        raise EmptyPatch("cannot categorize an empty fix patch")
    if len({fp.path for fp in edited}) >= 2:
        return "MFMH"
    if patch.hunk_count >= 2:
        return "SFMH"
    return "SL" if edited[0].hunks[0].changed == 1 else "SH"


class BugRecord(NamedTuple):
    """One manifest row: the bug spec plus where its artifacts live."""

    spec: BugSpec
    repo_path: Path
    fix_patch_path: Path | None = None


def _parse_location(obj: dict) -> FaultLocation:
    lines = tuple(
        LocalizedLine(line=int(ln["line"]), kind=str(ln["kind"]))
        for ln in obj["lines"]
    )
    return FaultLocation(file_path=obj["file"], lines=lines)


def parse_record(obj: dict, base: Path) -> BugRecord:
    """Build a BugRecord from one decoded manifest object."""
    try:
        locations = tuple(_parse_location(loc) for loc in obj["locations"])
        report_text = obj.get("bug_report", "")
        if obj.get("bug_report_path"):
            report_path = (base / obj["bug_report_path"]).resolve()
            if report_path.exists():
                report_text = report_path.read_text()
        spec = BugSpec(
            bug_id=str(obj["bug_id"]),
            snapshot_ref=str(obj["snapshot_ref"]),
            locations=locations,
            failing_tests=tuple(obj.get("failing_tests", [])),
            bug_report=report_text,
        )
        patch_path = None
        if obj.get("fix_patch_path"):
            patch_path = (base / obj["fix_patch_path"]).resolve()
        return BugRecord(
            spec=spec,
            repo_path=(base / obj["repo_path"]).resolve(),
            fix_patch_path=patch_path,
        )
    except KeyError as exc:
        raise ConfigError(f"manifest record missing field {exc}") from exc


def load_manifest(path: Path | str) -> list[BugRecord]:
    """Read a JSONL manifest. Raises ConfigError on malformed records."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    base = path.parent
    records: list[BugRecord] = []
    for idx, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{idx}: invalid JSON: {exc}") from exc
        records.append(parse_record(obj, base))
    if not records:
        raise ConfigError(f"manifest is empty: {path}")
    seen: set[str] = set()
    for rec in records:
        if rec.spec.bug_id in seen:
            raise ConfigError(f"duplicate bug_id {rec.spec.bug_id}")
        seen.add(rec.spec.bug_id)
    return records
