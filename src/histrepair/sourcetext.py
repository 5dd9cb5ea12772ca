"""Language-light source text analysis.

One scan gives one cleaned view of a file: comments stripped and string
interiors blanked, line-aligned with the original. Brace matching reads
it, where a '}' inside a string literal must not count, and so does the
executable-line classifier: a string keeps its opening quote, which is
content enough, and a string never spans a line.

The scan is one pass of a compiled regex over the whole text. Each
match is a token: a `//` or `#` line comment, a `/* */` block comment,
or a single- or double-quoted string with backslash escapes. Plain
text between tokens is copied unchanged. This is enough for C-family
and Python-family sources alike; it is intentionally not a real lexer.
"""

from __future__ import annotations

import re

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


def clean_source(text: str) -> str:
    """`text` with comments stripped and string interiors blanked.

    Handles //, #, and /* */ comments; a comment leaves only its
    newlines, so lines stay aligned. A string keeps its quotes and each
    body character becomes a blank, an escape pair counting as one.
    Comment markers inside string literals are ignored. Unterminated
    constructs run to end of input rather than raising; blame targets
    are frequently broken code: a string closes at the end of its line,
    and a block comment without its */ runs to the end of the text.
    """
    out: list[str] = []
    pos = 0
    for m in _TOKEN.finditer(text):
        out.append(text[pos:m.start()])
        pos = m.end()
        quote = m[1]
        if quote:
            body = m[2]
            # an escape pair is one blank, as if it were one character
            if "\\" in body:
                body = _ESCAPE.sub(" ", body)
            out.append(quote + " " * len(body) + (m[3] or ""))
        else:
            out.append("\n" * m[0].count("\n"))
    out.append(text[pos:])
    return "".join(out)


def is_executable_line(cleaned_line: str) -> bool:
    """Whether a comment-stripped line carries runnable content.

    Annotation tokens are removed whole, then the line counts as
    executable iff anything other than braces, parens, semicolons,
    and whitespace remains. A bare '}' or ');' is structure, not code.
    """
    return _RESIDUE.search(_ANNOTATION.sub("", cleaned_line)) is not None


def executable_line_numbers(text: str) -> set[int]:
    """1-based numbers of all executable lines in `text`."""
    return {
        idx
        for idx, line in enumerate(clean_source(text).split("\n"), start=1)
        if is_executable_line(line)
    }
