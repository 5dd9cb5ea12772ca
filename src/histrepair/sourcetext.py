"""Language-light source text analysis.

Two cleaned views of a file are produced from one scan:

* content view: comments stripped, strings kept. Used to decide whether
  a line holds executable content.
* structure view: comments stripped AND string interiors blanked. Used
  for brace matching, where a '}' inside a string literal must not count.

The scanner tracks just enough state (line comment, block comment,
single/double quotes with backslash escapes) to work for C-family and
Python-family sources alike. It is intentionally not a real lexer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# annotation/decorator marker followed by a name, e.g. @Override or @app.route
_ANNOTATION = re.compile(r"@[A-Za-z_][\w.]*")


@dataclass
class CleanedSource:
    """Comment-free views of a file, line-aligned with the original."""

    content_lines: list[str]    # strings intact
    structure_lines: list[str]  # string interiors blanked


def source_lines(text: str) -> list[str]:
    """The lines of `text` as git numbers them, line 1 at index 0.

    Only "\n" ends a line: str.splitlines would also break at form
    feeds and other Unicode separators. A final "\n" opens no new line.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def clean_source(text: str) -> CleanedSource:
    """Strip comments from `text`, preserving line structure.

    Handles //, #, and /* */ comments. Comment markers inside string
    literals are ignored. Unterminated constructs run to end of input
    rather than raising; blame targets are frequently broken code.
    """
    content: list[str] = []
    structure: list[str] = []
    cur_c: list[str] = []
    cur_s: list[str] = []
    state = "code"          # code | string | block_comment
    quote = ""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            if state == "string":
                # unterminated at EOL: treat as closed (shell/python style)
                state = "code"
            content.append("".join(cur_c))
            structure.append("".join(cur_s))
            cur_c, cur_s = [], []
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and i + 1 < n and text[i + 1] == "/":
                state = "code"
                i += 2
            else:
                i += 1
            continue
        if state == "string":
            cur_c.append(ch)
            if ch == "\\" and i + 1 < n and text[i + 1] != "\n":
                cur_c.append(text[i + 1])
                cur_s.append(" ")
                i += 2
                continue
            if ch == quote:
                cur_s.append(ch)
                state = "code"
            else:
                cur_s.append(" ")
            i += 1
            continue
        # state == code
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            state = "block_comment"
            i += 2
            continue
        if ch in ("'", '"'):
            state = "string"
            quote = ch
            cur_c.append(ch)
            cur_s.append(ch)
            i += 1
            continue
        cur_c.append(ch)
        cur_s.append(ch)
        i += 1
    content.append("".join(cur_c))
    structure.append("".join(cur_s))
    return CleanedSource(content_lines=content, structure_lines=structure)


def is_executable_line(cleaned_line: str) -> bool:
    """Whether a comment-stripped line carries runnable content.

    Annotation tokens are removed whole, then the line counts as
    executable iff anything other than braces, parens, semicolons,
    and whitespace remains. A bare '}' or ');' is structure, not code.
    """
    stripped = _ANNOTATION.sub("", cleaned_line).rstrip()
    residue = re.sub(r"[{}()\[\];\s]", "", stripped)
    return residue != ""


def executable_line_numbers(text: str) -> set[int]:
    """1-based numbers of all executable lines in `text`."""
    cleaned = clean_source(text)
    return {
        idx
        for idx, line in enumerate(cleaned.content_lines, start=1)
        if is_executable_line(line)
    }
