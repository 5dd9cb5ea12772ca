"""Historical context construction and prompt rendering.

Three payload shapes are built from one `gitio.read_commit` of the
resolved blame commit (one `git show`, blind to the user's git config):

* fn_all: names of every function in the post-commit version of each
  co-changed file.
* fn_pair: before/after body of the function containing the blamed
  line (before from the commit's parent, after from the commit itself).
* fl_diff: the commit's unified diff against its first parent.

Payloads are truncated to character budgets at semantic boundaries,
then injected into the user prompt. Rendering is deterministic: equal
inputs produce equal bytes.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import gitio, spans
from .bugs import BugSpec
from .config import DEFAULT_BUDGETS, jsonable
from .errors import (
    DetectorFailure,
    FileNotInSnapshot,
    FnPairUnavailable,
    NotInFunction,
)
from .patches import Hunk, diff_pieces, source_lines

if TYPE_CHECKING:
    from .blame import BlameEntry

TRUNCATION_NOTICE = "\n[payload truncated to fit the context budget]"


class FunctionSnapshot(NamedTuple):
    """One version of a function: where it lives and its full text."""

    file_path: str
    name: str
    start_line: int
    end_line: int
    body_text: str


class FnAllEntry(NamedTuple):
    """Function names of one co-changed file, or a note if unreadable."""

    file_path: str
    names: tuple[str, ...]
    note: str = ""  # "deleted", or a warning for unreadable content


class FnAll(NamedTuple):
    entries: tuple[FnAllEntry, ...]


class _PairFields(NamedTuple):
    before: FunctionSnapshot | None
    after: FunctionSnapshot | None


class FnPair(_PairFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.before is None and self.after is None:
            raise FnPairUnavailable("neither side of the function pair exists")
        return self


class FlDiff(NamedTuple):
    diff_text: str


class HistoricalContext(NamedTuple):
    """What the agent gets to see about the blamed commit."""

    kind: str  # fn_all | fn_pair | fl_diff
    commit_id: str
    commit_message: str
    payload: FnAll | FnPair | FlDiff
    truncated: bool = False


def _snapshot(file_path: str, text: str, span: spans.FunctionSpan) -> FunctionSnapshot:
    return FunctionSnapshot(
        file_path=file_path,
        name=span.name,
        start_line=span.start_line,
        end_line=span.end_line,
        body_text=span.slice_text(text),
    )


def _scan(text: str, language: str) -> list[spans.FunctionSpan] | None:
    """Every span of one file version, or None when the detector fails."""
    try:
        return spans.all_spans(text, language)
    except DetectorFailure:
        return None


def _span_or_window(found: list[spans.FunctionSpan] | None, text: str,
                    line: int) -> spans.FunctionSpan:
    """The innermost span at `line`, or the window when the version did not scan."""
    if found is None:
        return spans.window_span(text, line)
    return spans.innermost_span(found, line)


def extract_fn_all(repo: Path | str, commit_id: str,
                   changes: Iterable[gitio.ChangedFile],
                   language: str = "c_family") -> FnAll:
    """Function names per co-changed file, post-commit versions."""
    entries: list[FnAllEntry] = []
    for change in changes:
        if change.new_path is None:
            entries.append(FnAllEntry(change.old_path or "?", (), note="deleted"))
            continue
        try:
            text = gitio.file_at(repo, commit_id, change.new_path)
            names = tuple(spans.function_names(text, language))
        except Exception as exc:
            entries.append(FnAllEntry(
                change.new_path, (), note=f"unreadable: {type(exc).__name__}",
            ))
            continue
        entries.append(FnAllEntry(change.new_path, names))
    return FnAll(entries=tuple(entries))


def _preimage_line(hunks: list[Hunk], new_line: int) -> int | None:
    """Map a 1-based line of the new version back through -U0 hunks.

    A line the hunks add has no pre-image (None); a line a hunk
    replaces maps to the same offset in the old range, clamped to its
    last line; any other line shifts by the hunks before it.
    """
    shift = 0
    for h in hunks:
        if new_line < h.new_start + max(h.new_count, 1):
            if h.new_count and new_line >= h.new_start:
                if not h.old_count:
                    return None
                return h.old_start + min(new_line - h.new_start, h.old_count - 1)
            break
        shift += h.old_count - h.new_count
    return new_line + shift


def extract_fn_pair(repo: Path | str, commit_id: str, parent: str | None,
                    entry: BlameEntry, language: str = "c_family") -> FnPair:
    """Before/after snapshots of the function holding the blamed line.

    Before comes from `parent` (None for a root commit) at the line's
    pre-image, mapped through the hunks of `git diff` between parent
    and commit: the alignment git blame used to attribute the line.
    After is matched by name in the commit's own version. A function
    introduced by the commit has no before side. Raises
    FnPairUnavailable when the line sits outside any function on both
    sides. Each version is read once and scanned for spans once; in a
    version the detector cannot scan, a side at a known line is the
    window around it and a side matched by name is absent.
    """
    path = entry.commit_path or entry.file_path
    line = entry.commit_line or entry.line_number
    after_text = gitio.file_at(repo, commit_id, path)
    before_text = None
    if parent is not None:
        try:
            before_text = gitio.file_at(repo, parent, path)
        except FileNotInSnapshot:
            pass

    after_spans = _scan(after_text, language)
    before_spans = None if before_text is None else _scan(before_text, language)
    before: FunctionSnapshot | None = None
    after: FunctionSnapshot | None = None

    if before_text is not None:
        hunks = gitio.diff_hunks(repo, parent, commit_id, path)  # type: ignore[arg-type]
        pre_line = _preimage_line(hunks, line)
        if pre_line is not None:
            try:
                before = _snapshot(path, before_text,
                                   _span_or_window(before_spans, before_text, pre_line))
            except NotInFunction:
                pass
        if before is not None:
            if after_spans is None:
                pick = spans.window_span(after_text, line)
            else:
                # match the after side by name, preferring the span that
                # still contains the blamed line (overloads)
                candidates = [s for s in after_spans if s.name == before.name]
                containing = [s for s in candidates if s.contains(line)]
                pick = (containing or candidates or [None])[0]
            if pick is not None:
                after = _snapshot(path, after_text, pick)
            return FnPair(before=before, after=after)

    # no usable before side: anchor on the after version
    try:
        after = _snapshot(path, after_text, _span_or_window(after_spans, after_text, line))
    except NotInFunction:
        raise FnPairUnavailable(
            f"{path}:{line} is outside any function in both versions"
        ) from None
    if before_spans is not None:
        named = [s for s in before_spans if s.name == after.name]
        if named:
            before = _snapshot(path, before_text, named[0])
    return FnPair(before=before, after=after)


def extract_fl_diff(diff_text: str) -> FlDiff:
    """The commit's unified diff against its first parent."""
    return FlDiff(diff_text=diff_text)


def build_context(repo: Path | str, kind: str, commit_id: str,
                  entry: BlameEntry | None = None,
                  language: str = "c_family",
                  budgets: dict[str, int] = DEFAULT_BUDGETS) -> HistoricalContext:
    """Build and truncate the payload for one heuristic kind from one commit read."""
    if kind == "non_history":
        raise ValueError("non_history carries no historical context")
    commit = gitio.read_commit(repo, commit_id)
    if kind == "fn_all":
        payload = extract_fn_all(repo, commit_id, commit.changes, language)
    elif kind == "fn_pair":
        if entry is None:
            raise FnPairUnavailable("no blame entry to anchor the function pair")
        payload = extract_fn_pair(repo, commit_id, commit.parent, entry, language)
    elif kind == "fl_diff":
        payload = extract_fl_diff(commit.diff)
    else:
        raise ValueError(f"unknown heuristic kind {kind!r}")
    return truncate(HistoricalContext(kind=kind, commit_id=commit_id,
                                      commit_message=commit.message, payload=payload),
                    budgets[kind])


# ---------------------------------------------------------------------------
# payload rendering and truncation

def _render_fn_all(payload: FnAll) -> str:
    lines = []
    for e in payload.entries:
        if e.note:
            lines.append(f"{e.file_path}: ({e.note})")
        elif e.names:
            lines.append(f"{e.file_path}: {', '.join(e.names)}")
        else:
            lines.append(f"{e.file_path}: (no functions)")
    return "\n".join(lines)


def _render_side(label: str, side: FunctionSnapshot | None) -> str:
    if side is None:
        return f"{label}: (absent)"
    head = (f"{label}: {side.name} "
            f"({side.file_path}:{side.start_line}-{side.end_line})")
    return f"{head}\n{side.body_text}"


def _render_fn_pair(payload: FnPair) -> str:
    return "\n\n".join([
        _render_side("Before", payload.before),
        _render_side("After", payload.after),
    ])


def payload_text(ctx: HistoricalContext) -> str:
    """The payload as prompt-ready text, notice appended when truncated."""
    if isinstance(ctx.payload, FnAll):
        body = _render_fn_all(ctx.payload)
    elif isinstance(ctx.payload, FnPair):
        body = _render_fn_pair(ctx.payload)
    else:
        body = ctx.payload.diff_text
    if ctx.truncated:
        body += TRUNCATION_NOTICE
    return body


def _fit(pieces: Iterable[str], budget: int) -> str:
    """The longest run of leading pieces within `budget` chars, joined."""
    kept: list[str] = []
    size = 0
    for piece in pieces:
        if size + len(piece) > budget:
            break
        kept.append(piece)
        size += len(piece)
    return "".join(kept).rstrip("\n")


def _truncate_text_at_lines(text: str, budget: int) -> tuple[str, bool]:
    """Longest line-boundary prefix of `text` within `budget` chars."""
    if len(text) <= budget:
        return text, False
    return _fit((line + "\n" for line in source_lines(text)), budget), True


def _truncate_fl_diff(payload: FlDiff, budget: int) -> tuple[FlDiff, bool]:
    text = payload.diff_text
    if len(text) <= budget:
        return payload, False
    # keep the longest prefix of header runs and whole hunks that fits;
    # a budget below the first hunk leaves headers only
    pieces = ("".join(line + "\n" for line in piece) for _, piece in diff_pieces(text))
    return FlDiff(diff_text=_fit(pieces, budget)), True


def _truncate_fn_all(payload: FnAll, budget: int) -> tuple[FnAll, bool]:
    if len(_render_fn_all(payload)) <= budget:
        return payload, False
    kept: list[FnAllEntry] = []
    size = 0
    for e in payload.entries:
        rendered = len(_render_fn_all(FnAll((e,)))) + (1 if kept else 0)
        if size + rendered > budget:
            break
        kept.append(e)
        size += rendered
    return FnAll(entries=tuple(kept)), True


def _truncate_fn_pair(payload: FnPair, budget: int) -> tuple[FnPair, bool]:
    if len(_render_fn_pair(payload)) <= budget:
        return payload, False

    # labels and separators count against the budget too, so each side
    # gets half of what remains after that fixed overhead
    sides = (("Before", payload.before), ("After", payload.after))
    overhead = 2 + sum(len(_render_side(label, side and side._replace(body_text="")))
                       for label, side in sides)
    side_budget = max(1, (budget - overhead) // 2)
    cut = False

    def shrink(side: FunctionSnapshot | None) -> FunctionSnapshot | None:
        nonlocal cut
        if side is None or len(side.body_text) <= side_budget:
            return side
        text, did = _truncate_text_at_lines(side.body_text, side_budget)
        cut = cut or did
        return side._replace(body_text=text)

    before = shrink(payload.before)
    after = shrink(payload.after)
    if not cut:
        return payload, False
    return FnPair(before=before, after=after), True


def truncate(ctx: HistoricalContext, budget: int) -> HistoricalContext:
    """Cut the payload to `budget` characters at semantic boundaries.

    Idempotent at a fixed budget: content already within budget is
    returned as-is (the truncated flag survives earlier cuts).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if isinstance(ctx.payload, FlDiff):
        payload, cut = _truncate_fl_diff(ctx.payload, budget)
    elif isinstance(ctx.payload, FnAll):
        payload, cut = _truncate_fn_all(ctx.payload, budget)
    else:
        payload, cut = _truncate_fn_pair(ctx.payload, budget)
    if not cut:
        return ctx
    return HistoricalContext(
        kind=ctx.kind, commit_id=ctx.commit_id,
        commit_message=ctx.commit_message, payload=payload, truncated=True,
    )


# ---------------------------------------------------------------------------
# prompt rendering

class PromptBundle(NamedTuple):
    """The rendered system/user prompt pair for one run."""

    system_prompt: str
    user_prompt: str
    token_estimate: int


@functools.cache
def _prose(name: str) -> str:
    """A fixed prompt text from the package's `prompts/` directory."""
    return (Path(__file__).parent / "prompts" / name).read_text()


def render_prompts(spec: BugSpec, context: HistoricalContext | None, *,
                   repo_path: str,
                   sentinel: str,
                   history_note: str = "") -> PromptBundle:
    """Render the prompt pair. History appears iff context is given.

    `history_note` substitutes for a payload when a heuristic could not
    be built (the run proceeds with the notice instead of nothing).
    """
    # format fills both placeholders in one pass, so a value holding
    # the other placeholder's name stays as it is
    system = _prose("system.txt").format(repo_path=repo_path, sentinel=sentinel)
    if context is not None or history_note:
        system += "\n" + _prose("history_guidance.txt")
    tests = "".join(f"- {t}\n" for t in spec.failing_tests)
    locations = "".join(
        f"- {loc.file_path}: "
        + ", ".join(f"line {ln.line} ({ln.kind})" for ln in loc.lines) + "\n"
        for loc in spec.locations
    )
    user = (f"# Bug Report\n{spec.bug_report}\n\n# Failing Tests\n{tests}"
            f"\n# Fault Locations\n{locations}")
    if context is not None:
        user += ("\n# Historical Context\n"
                 f"The fault locations were last shaped by commit {context.commit_id}"
                 f" ({context.kind} view).\n\n"
                 f"Commit message:\n{context.commit_message}\n\n"
                 f"{payload_text(context)}\n")
    elif history_note:
        user += f"\n# Historical Context\n{history_note}\n"
    return PromptBundle(
        system_prompt=system,
        user_prompt=user,
        token_estimate=(len(system) + len(user)) // 4,
    )


def context_to_json(ctx: HistoricalContext) -> dict:
    """Machine-readable sidecar form of a historical context."""
    return {
        "kind": ctx.kind,
        "commit_id": ctx.commit_id,
        "commit_message": ctx.commit_message,
        "truncated": ctx.truncated,
        "payload": jsonable(ctx.payload),
    }


def save_context(ctx: HistoricalContext, path: Path) -> None:
    path.write_text(json.dumps(context_to_json(ctx), indent=2) + "\n")
