"""Function span detection.

Detectors map (file text, line number) to the enclosing function's
name and 1-based inclusive line span. Two are built in:

* c_family: signature regex + brace matching on the structure-cleaned
  text. Works for Java/C/C++/JS-shaped code.
* python: def/async def headers + indentation blocks.

A campaign's `language` key picks one by name. Lines are numbered as
git numbers them (`sourcetext.source_lines`). When detection fails the
caller degrades to a fixed window around the line; that policy lives
with the caller, not here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import DetectorFailure, NotInFunction
from .sourcetext import clean_source, source_lines

# control-flow keywords are excluded so `if (...) {` is not mistaken
# for a function signature
_CONTROL = {
    "if", "for", "while", "switch", "catch", "return",
    "else", "do", "try", "new", "synchronized",
}


@dataclass(frozen=True)
class FunctionSpan:
    """An enclosing function: its name and inclusive 1-based line range."""

    name: str
    start_line: int
    end_line: int

    def contains(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line

    def slice_text(self, text: str) -> str:
        return "\n".join(source_lines(text)[self.start_line - 1:self.end_line])


def _c_family_spans(text: str) -> list[FunctionSpan]:
    cleaned = clean_source(text)
    struct = cleaned.structure_lines
    spans: list[FunctionSpan] = []

    # locate candidate signatures: name immediately before a '(' whose
    # matching ')' is eventually followed by '{' with nothing but
    # whitespace/qualifiers between
    joined_positions = []  # (line_idx, name)
    for idx, line in enumerate(struct):
        for m in re.finditer(r"([A-Za-z_~][\w$]*)\s*\(", line):
            name = m.group(1)
            if name in _CONTROL:
                continue
            joined_positions.append((idx, m.start(1), m.end(0) - 1, name))

    # flatten text into char stream with line index per char for brace walk
    for idx, name_col, paren_col, name in joined_positions:
        # walk from the '(' forward: match parens, then expect '{'
        depth = 0
        li, ci = idx, paren_col
        n_lines = len(struct)
        state = "parens"
        open_line = None
        while li < n_lines:
            line = struct[li]
            while ci < len(line):
                ch = line[ci]
                if state == "parens":
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            state = "between"
                elif state == "between":
                    if ch == "{":
                        state = "body"
                        depth = 1
                        open_line = idx
                    elif ch == ";":
                        state = "abandon"  # declaration, not definition
                        break
                    elif ch in ")]}":
                        state = "abandon"  # call expression argument, not a signature
                        break
                elif state == "body":
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        if depth == 0:
                            spans.append(FunctionSpan(
                                name=name,
                                start_line=idx + 1,
                                end_line=li + 1,
                            ))
                            state = "done"
                            break
                ci += 1
            if state in ("done", "abandon"):
                break
            li += 1
            ci = 0
        if state == "body":
            raise DetectorFailure(
                f"unbalanced braces after {name} at line {idx + 1}"
            )
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
            if len(candidate) - len(candidate.lstrip()) <= indent and not (
                candidate.expandtabs()[indent:indent + 1] in (")", "]")
            ):
                if len(candidate.expandtabs()) - len(candidate.expandtabs().lstrip()) <= indent:
                    break
            end = j
        spans.append(FunctionSpan(name=m.group(2), start_line=idx + 1, end_line=end + 1))
    return spans


# detector per language name; a campaign's `language` must be one of these
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


def enclosing_span(text: str, line: int, language: str = "c_family") -> FunctionSpan:
    """The innermost function span containing 1-based `line`."""
    return innermost_span(all_spans(text, language), line)


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
