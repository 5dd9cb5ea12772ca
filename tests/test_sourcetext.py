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
    cleaned = clean_source("int a = 1; // trailing note\n# full line\nint b;\n")
    assert cleaned.content_lines == ["int a = 1; ", "", "int b;", ""]


def test_clean_strips_block_comments_preserving_lines():
    src = "a\n/* first\nsecond */\nb\n"
    cleaned = clean_source(src)
    assert cleaned.content_lines == ["a", "", "", "b", ""]


def test_clean_inline_block_comment():
    cleaned = clean_source("int b; /* note */ int c;\n")
    assert cleaned.content_lines[0] == "int b;  int c;"


def test_comment_markers_inside_strings_survive():
    src = 'char *s = "no // comment"; // real one\n'
    cleaned = clean_source(src)
    assert cleaned.content_lines[0] == 'char *s = "no // comment"; '


def test_hash_inside_string_survives():
    cleaned = clean_source('url = "http://x#frag"  # trailing\n')
    assert cleaned.content_lines[0] == 'url = "http://x#frag"  '


def test_structure_view_blanks_string_interiors():
    cleaned = clean_source('if (s == "}") {\n')
    line = cleaned.structure_lines[0]
    assert "}" not in line.rstrip()[:-1] or line.rstrip().endswith("{")
    assert line.count("}") == 0
    assert line.rstrip().endswith("{")


def test_escaped_quote_does_not_close_string():
    cleaned = clean_source('s = "a\\"b"; // gone\n')
    assert cleaned.content_lines[0] == 's = "a\\"b"; '


def test_unterminated_string_closes_at_eol():
    cleaned = clean_source('x = "abc\ny = 2\n')
    assert cleaned.content_lines[0] == 'x = "abc'
    assert cleaned.content_lines[1] == "y = 2"


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


# (text, content lines, structure lines) for corners of the scanner
CLEAN_QUIRKS = [
    # an escape pair is one blank in the structure view
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
    cleaned = clean_source(text)
    assert cleaned.content_lines == content
    assert cleaned.structure_lines == structure
