"""Comment stripping and the executable-line classifier."""

import pytest

from histrepair.sourcetext import (
    clean_source,
    executable_line_numbers,
    is_executable_line,
)

# (raw line, expected classification) per the documented rule: strip
# annotations, then anything beyond braces/parens/semicolons/space counts
CLASSIFIER_CASES = [
    ("int x = 1;", True),
    ("x = compute(a, b);", True),
    ("return;", True),
    ("} else {", True),          # "else" is content
    ("}", False),
    ("});", False),
    (");", False),
    ("", False),
    ("   \t ", False),
    ("@Override", False),
    ("@Deprecated()", False),
    ("@app.route()", False),
    ("{", False),
    ("[ ] ( ) ; { }", False),
]


def test_executable_line_classifier_table():
    for raw, expected in CLASSIFIER_CASES:
        assert is_executable_line(raw) is expected, raw


def test_clean_strips_line_comments():
    # one string, line-aligned with the text
    cleaned = clean_source("int a = 1; // trailing note\n# full line\nint b;\n")
    assert cleaned == "int a = 1; \n\nint b;\n"


def test_clean_strips_block_comments_preserving_lines():
    src = "a\n/* first\nsecond */\nb\n"
    assert clean_source(src).split("\n") == ["a", "", "", "b", ""]


def test_clean_inline_block_comment():
    assert clean_source("int b; /* note */ int c;\n") == "int b;  int c;\n"


def test_comment_markers_inside_strings_survive():
    # the string closes at its own quote, so only the real comment goes
    src = 'char *s = "no // comment"; // real one\n'
    assert clean_source(src) == 'char *s = "' + " " * 13 + '"; \n'


def test_hash_inside_string_survives():
    cleaned = clean_source('url = "http://x#frag"  # trailing\n')
    assert cleaned == 'url = "' + " " * 13 + '"  \n'


def test_structure_view_blanks_string_interiors():
    assert clean_source('if (s == "}") {\n') == 'if (s == " ") {\n'


def test_escaped_quote_does_not_close_string():
    # the escape pair is one blank
    assert clean_source('s = "a\\"b"; // gone\n') == 's = "   "; \n'


def test_unterminated_string_closes_at_eol():
    assert clean_source('x = "abc\ny = 2\n').split("\n") == ['x = "   ', "y = 2", ""]


def test_executable_line_numbers_mixed_file():
    src = "\n".join([
        "int a = 1;",        # 1 executable
        "// note",           # 2
        "",                  # 3
        "@Override",         # 4
        "int b = 2;  // x",  # 5 executable
        "}",                 # 6
    ]) + "\n"
    assert executable_line_numbers(src) == {1, 5}


# (text, content lines, cleaned lines) for corners of the scanner; the
# content lines keep string bodies, as the classifier's reference
CLEAN_QUIRKS = [
    # an escape pair is one blank
    ('s = "a\\nb";', ['s = "a\\nb";'], ['s = "   ";']),
    ("c = '\\\\';", ["c = '\\\\';"], ["c = ' ';"]),
    # a backslash before a newline escapes nothing; the string closes at EOL
    ('x = "ab\\\ny = 1', ['x = "ab\\', "y = 1"], ['x = "   ', "y = 1"]),
    # a backslash at the end of the text
    ('x = "a\\', ['x = "a\\'], ['x = "  ']),
    # "/*/" opens a comment and does not close it
    ("a /*/ b */ c\n", ["a  c", ""], ["a  c", ""]),
    # an unterminated block comment runs to the end and keeps its lines
    ("a\n/* x\ny\nz", ["a", "", "", ""], ["a", "", "", ""]),
    # quotes inside comments are plain comment text
    ("/* it's */ x = 1; // \"\n", [" x = 1; ", ""], [" x = 1; ", ""]),
    ("# don't\ny = '}'\n", ["", "y = '}'", ""], ["", "y = ' '", ""]),
]


@pytest.mark.parametrize("text, content, structure", CLEAN_QUIRKS)
def test_clean_source_quirks(text, content, structure):
    assert clean_source(text).split("\n") == structure
    assert executable_line_numbers(text) == {
        number for number, line in enumerate(content, 1) if is_executable_line(line)}
