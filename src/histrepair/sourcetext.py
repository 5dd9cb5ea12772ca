"""Language-light source text analysis.

Two cleaned views of a file are produced from one scan:

* content view: comments stripped, strings kept. Used to decide whether
  a line holds executable content.
* structure view: comments stripped AND string interiors blanked. Used
  for brace matching, where a '}' inside a string literal must not count.

The scan is one pass of a compiled regex over the whole text. Each
match is a token: a `//` or `#` line comment, a `/* */` block comment,
or a single- or double-quoted string with backslash escapes. Plain
text between tokens is copied unchanged. This is enough for C-family
and Python-family sources alike; it is intentionally not a real lexer.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# annotation/decorator marker followed by a name, e.g. @Override or @app.route
_ANNOTATION = re.compile(r"@[A-Za-z_][\w.]*")

# any character beyond braces, parens, brackets, semicolons and space
_RESIDUE = re.compile(r"[^{}()\[\];\s]")

# one token per match: a // or # line comment, a block comment (to the
# end of the text if it never closes), or a quoted string whose body
# (group 2) is escape pairs and other characters up to the closing
# quote (group 3) or the end of the line. The lookahead lets the engine
# reject a position with one class test instead of trying each branch.
_TOKEN = re.compile(
    r"""(?=[/#'"])(?://[^\n]*|#[^\n]*|/\*(?:.*?\*/|.*\Z)"""
    r"""|(['"])((?:\\[^\n]|\\(?=\n|\Z)|(?!\1)[^\\\n])*)(\1)?)""",
    re.DOTALL,
)

# a backslash and the character it escapes, inside a string body
_ESCAPE = re.compile(r"\\.")


class CleanedSource(NamedTuple):
    """Comment-free views of a file, line-aligned with the original."""

    content_lines: list[str]    # strings intact
    structure_lines: list[str]  # string interiors blanked


def clean_source(text: str) -> CleanedSource:
    """Strip comments from `text`, preserving line structure.

    Handles //, #, and /* */ comments. Comment markers inside string
    literals are ignored. Unterminated constructs run to end of input
    rather than raising; blame targets are frequently broken code: a
    string closes at the end of its line, and a block comment without
    its */ runs to the end of the text.
    """
    content: list[str] = []
    structure: list[str] = []
    pos = 0
    for m in _TOKEN.finditer(text):
        plain = text[pos:m.start()]
        pos = m.end()
        quote = m[1]
        if quote:
            body = m[2]
            # an escape pair is one blank, as if it were one character
            if "\\" in body:
                body = _ESCAPE.sub(" ", body)
            content += plain, m[0]
            structure += plain, quote + " " * len(body) + (m[3] or "")
        else:
            # a comment leaves only its newlines, so lines stay aligned
            kept = "\n" * m[0].count("\n")
            content += plain, kept
            structure += plain, kept
    tail = text[pos:]
    content.append(tail)
    structure.append(tail)
    return CleanedSource(
        content_lines="".join(content).split("\n"),
        structure_lines="".join(structure).split("\n"),
    )


def is_executable_line(cleaned_line: str) -> bool:
    """Whether a comment-stripped line carries runnable content.

    Annotation tokens are removed whole, then the line counts as
    executable iff anything other than braces, parens, semicolons,
    and whitespace remains. A bare '}' or ');' is structure, not code.
    """
    return _RESIDUE.search(_ANNOTATION.sub("", cleaned_line)) is not None


def executable_line_numbers(text: str) -> set[int]:
    """1-based numbers of all executable lines in `text`."""
    cleaned = clean_source(text)
    return {
        idx
        for idx, line in enumerate(cleaned.content_lines, start=1)
        if is_executable_line(line)
    }
