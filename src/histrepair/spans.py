"""Function span detection.

Detectors map (file text, line number) to the enclosing function's
name and 1-based inclusive line span. Two are built in:

* c_family: one pass over the brackets of the structure-cleaned text
  builds a table from each '(' and '{' to its matching close; each
  signature candidate (a name before '(') is then a definition iff its
  ')' is followed by '{' before any ';' or closer, and the '{' entry
  gives the body's end. Works for Java/C/C++/JS-shaped code.
* python: def/async def headers + indentation blocks.

A campaign's `language` key picks one by name. Lines are numbered as
git numbers them (`patches.source_lines`). When detection fails the
caller degrades to a fixed window around the line; that policy lives
with the caller, not here.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, NamedTuple

from .errors import DetectorFailure, NotInFunction
from .patches import source_lines
from .sourcetext import clean_source

# control-flow keywords are excluded so `if (...) {` is not mistaken
# for a function signature
_CONTROL = {
    "if", "for", "while", "switch", "catch", "return",
    "else", "do", "try", "new", "synchronized",
}

# a name right before '(' on the same line: a signature or a call
_CANDIDATE = re.compile(r"([A-Za-z_~][\w$]*)[^\S\n]*\(")
_BRACKET = re.compile(r"[(){}]")
_AFTER_PARAMS = re.compile(r"[{;)\]}]")
_NEWLINE = re.compile("\n")


class FunctionSpan(NamedTuple):
    """An enclosing function: its name and inclusive 1-based line range."""

    name: str
    start_line: int
    end_line: int

    def contains(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line

    def slice_text(self, text: str) -> str:
        return "\n".join(source_lines(text)[self.start_line - 1:self.end_line])


def _c_family_spans(text: str) -> list[FunctionSpan]:
    struct = clean_source(text)
    # offset of each '(' and '{' -> offset of its matching ')' or '}'
    closer: dict[int, int] = {}
    open_parens: list[int] = []
    open_braces: list[int] = []
    for m in _BRACKET.finditer(struct):
        at, ch = m.start(), m[0]
        if ch == "(":
            open_parens.append(at)
        elif ch == "{":
            open_braces.append(at)
        elif ch == ")":
            if open_parens:
                closer[open_parens.pop()] = at
        elif open_braces:
            closer[open_braces.pop()] = at
    newlines = [m.start() for m in _NEWLINE.finditer(struct)]

    # a candidate is a definition when its '(' closes and the next
    # bracket or ';' after that is a '{'; a ';' marks a declaration and
    # a closer marks a call inside an argument list
    spans: list[FunctionSpan] = []
    for m in _CANDIDATE.finditer(struct):
        name = m[1]
        if name in _CONTROL:
            continue
        params_end = closer.get(m.end() - 1)
        if params_end is None:
            continue
        after = _AFTER_PARAMS.search(struct, params_end + 1)
        if after is None or after[0] != "{":
            continue
        start_line = bisect_right(newlines, m.start()) + 1
        body_end = closer.get(after.start())
        if body_end is None:
            raise DetectorFailure(
                f"unbalanced braces after {name} at line {start_line}"
            )
        spans.append(FunctionSpan(
            name=name,
            start_line=start_line,
            end_line=bisect_right(newlines, body_end) + 1,
        ))
    return spans


def _python_spans(text: str) -> list[FunctionSpan]:
    lines = source_lines(text)
    header = re.compile(r"^(\s*)(?:async\s+)?def\s+([A-Za-z_]\w*)\s*\(")
    spans: list[FunctionSpan] = []
    for idx, line in enumerate(lines):
        m = header.match(line)
        if not m:
            continue
        indent = len(m.group(1).expandtabs())
        end = idx
        for j in range(idx + 1, len(lines)):
            candidate = lines[j]
            if not candidate.strip():
                continue
            expanded = candidate.expandtabs()
            if (len(expanded) - len(expanded.lstrip()) <= indent
                    and expanded[indent:indent + 1] not in (")", "]")):
                break
            end = j
        spans.append(FunctionSpan(name=m.group(2), start_line=idx + 1, end_line=end + 1))
    return spans


# detector per language name, one for each of `config.LANGUAGES`
DETECTORS: dict[str, Callable[[str], list[FunctionSpan]]] = {
    "c_family": _c_family_spans,
    "python": _python_spans,
}


def all_spans(text: str, language: str = "c_family") -> list[FunctionSpan]:
    """Every function span in `text`, outer and nested alike."""
    try:
        detect = DETECTORS[language]
    except KeyError:
        raise DetectorFailure(f"no span detector named {language!r}") from None
    return detect(text)


def function_names(text: str, language: str = "c_family") -> list[str]:
    """Function names in source order, duplicates kept."""
    spans = sorted(all_spans(text, language), key=lambda s: (s.start_line, s.end_line))
    return [s.name for s in spans]


def innermost_span(found: list[FunctionSpan], line: int) -> FunctionSpan:
    """The innermost span of an all_spans result containing `line`."""
    hits = [s for s in found if s.contains(line)]
    if not hits:
        raise NotInFunction(f"line {line} is not inside any function")
    return min(hits, key=lambda s: s.end_line - s.start_line)


def window_span(text: str, line: int, radius: int = 20) -> FunctionSpan:
    """Fixed window fallback when no detector span applies."""
    total = len(source_lines(text))
    lo = max(1, line - radius)
    hi = min(total, line + radius)
    return FunctionSpan(name="(window)", start_line=lo, end_line=hi)
