"""Bug dataset model: fault locations, fix categories, manifests.

A dataset is a JSONL manifest, one record per bug:

    {"bug_id": "...", "repo_path": "...", "snapshot_ref": "...",
     "locations": [{"file": "...", "lines": [{"line": 7, "kind": "modified"}]}],
     "failing_tests": ["..."], "bug_report_path": "...",
     "fix_patch_path": "..."}   # the two paths are optional

Relative paths resolve against the manifest's own directory, and a
named bug report or fix patch must exist. The bug id names the bug's
files (records, prompts, scripted replies), so it must be one plain
path component. A row, location or line with a key not shown above, a
value of the wrong type, or a line number that is not an integer is
refused with the manifest line that holds it. A fix patch is read with
`patches.parse_unified_diff`; `categorize_bug` sorts the parsed patch
into SL, SH, SFMH or MFMH.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .config import _integer
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


# the keys each level of a manifest row may hold, and those it must
_ROW_KEYS = {"bug_id", "repo_path", "snapshot_ref", "locations", "failing_tests",
             "bug_report_path", "fix_patch_path"}
_ROW_REQUIRED = ("bug_id", "repo_path", "snapshot_ref", "locations")
_LOCATION_KEYS = {"file", "lines"}
_LINE_KEYS = {"line", "kind"}
_JSON_NAMES = {str: "string", list: "array", dict: "object"}


def _typed(value, kind: type, where: str):
    """`value` itself; ConfigError unless a JSON string, array or object, as `kind` says."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _fields(obj, keys: set[str], required, where: str) -> dict:
    """`obj` itself; ConfigError unless an object with only `keys` and every `required`."""
    _typed(obj, dict, where)
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where} is missing field {missing[0]!r}")
    return obj


def _parse_line(obj) -> LocalizedLine:
    obj = _fields(obj, _LINE_KEYS, _LINE_KEYS, "a line")
    return LocalizedLine(line=_integer(obj["line"], "line"), kind=obj["kind"])


def _parse_location(obj) -> FaultLocation:
    obj = _fields(obj, _LOCATION_KEYS, _LOCATION_KEYS, "a location")
    return FaultLocation(file_path=_typed(obj["file"], str, "file"),
                         lines=tuple(map(_parse_line, _typed(obj["lines"], list, "lines"))))


def _named_file(obj: dict, key: str, base: Path) -> Path | None:
    """The file a row's optional path key names; ConfigError if it is missing."""
    if not obj.get(key):
        return None
    path = (base / _typed(obj[key], str, key)).resolve()
    if not path.is_file():
        raise ConfigError(f"{key} {obj[key]!r} names no file ({path})")
    return path


def parse_record(obj, base: Path) -> BugRecord:
    """Build a BugRecord from one decoded manifest object."""
    obj = _fields(obj, _ROW_KEYS, _ROW_REQUIRED, "a manifest row")
    bug_id = _typed(obj["bug_id"], str, "bug_id")
    # the id names files, so it must stay one plain path component
    if bug_id in ("", ".", "..") or "/" in bug_id or "\0" in bug_id:
        raise ConfigError(f"bug_id {bug_id!r} must be one plain path component")
    report_path = _named_file(obj, "bug_report_path", base)
    spec = BugSpec(
        bug_id=bug_id,
        snapshot_ref=_typed(obj["snapshot_ref"], str, "snapshot_ref"),
        locations=tuple(map(_parse_location, _typed(obj["locations"], list, "locations"))),
        failing_tests=tuple(_typed(t, str, "a failing test") for t in
                            _typed(obj.get("failing_tests", []), list, "failing_tests")),
        bug_report=report_path.read_text() if report_path else "",
    )
    return BugRecord(
        spec=spec,
        repo_path=(base / _typed(obj["repo_path"], str, "repo_path")).resolve(),
        fix_patch_path=_named_file(obj, "fix_patch_path", base),
    )


def load_manifest(path: Path | str) -> list[BugRecord]:
    """Read a JSONL manifest. Raises ConfigError, naming the line, on a malformed row."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    records: list[BugRecord] = []
    seen: set[str] = set()
    for idx, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            rec = parse_record(json.loads(raw), path.parent)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{idx}: invalid JSON: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}:{idx}: {exc}") from exc
        if rec.spec.bug_id in seen:
            raise ConfigError(f"{path}:{idx}: duplicate bug_id {rec.spec.bug_id}")
        seen.add(rec.spec.bug_id)
        records.append(rec)
    if not records:
        raise ConfigError(f"manifest is empty: {path}")
    return records
