"""Function span detection for C-family and Python sources."""

import pytest

from histrepair import spans
from histrepair.errors import DetectorFailure, NotInFunction

C_SOURCE = """\
int add(int a, int b) {
    return a + b;
}

// helper
static void log_msg(const char *msg) {
    if (msg) {
        printf("%s", msg);
    }
}

int total(void) {
    int result = 0;
    return result;
}
"""

# hand-counted spans for the fixture above
C_EXPECTED = {("add", 1, 3), ("log_msg", 6, 10), ("total", 12, 15)}


def test_c_family_spans_match_hand_count():
    got = {(s.name, s.start_line, s.end_line)
           for s in spans.all_spans(C_SOURCE, "c_family")}
    assert got == C_EXPECTED


def test_control_keywords_are_not_functions():
    names = spans.function_names(C_SOURCE, "c_family")
    assert "if" not in names
    assert "printf" not in names  # call, not definition
    assert names == ["add", "log_msg", "total"]


def test_enclosing_span_picks_innermost():
    nested = """\
function outer() {
    function inner() {
        return 1;
    }
    return inner();
}
"""
    inner = spans.innermost_span(spans.all_spans(nested, "c_family"), 3)
    assert (inner.name, inner.start_line, inner.end_line) == ("inner", 2, 4)
    outer = spans.innermost_span(spans.all_spans(nested, "c_family"), 5)
    assert (outer.name, outer.start_line, outer.end_line) == ("outer", 1, 6)


def test_enclosing_span_outside_raises():
    with pytest.raises(NotInFunction):
        spans.innermost_span(spans.all_spans(C_SOURCE, "c_family"), 4)


def test_declaration_is_not_a_definition():
    src = "int forward(int a);\nint real(int a) {\n    return a;\n}\n"
    got = {(s.name, s.start_line, s.end_line)
           for s in spans.all_spans(src, "c_family")}
    assert got == {("real", 2, 4)}


def test_braces_inside_strings_do_not_confuse_matching():
    src = 'void speak() {\n    puts("{{{");\n}\n'
    got = spans.all_spans(src, "c_family")
    assert [(s.name, s.start_line, s.end_line) for s in got] == [("speak", 1, 3)]


def test_signature_split_across_lines():
    src = "static long compute(\n    int a,\n    int b) {\n    return a + b;\n}\n"
    got = spans.all_spans(src, "c_family")
    assert [(s.name, s.start_line, s.end_line) for s in got] == [("compute", 1, 5)]


def test_unbalanced_braces_raise_detector_failure():
    with pytest.raises(DetectorFailure):
        spans.all_spans("void broken() {\n    int x = 1;\n", "c_family")


def test_unknown_language_raises():
    with pytest.raises(DetectorFailure):
        spans.all_spans("x", "no-such-language")


PY_SOURCE = """\
def top(a):
    if a:
        return 1
    return 2

class Thing:
    def method(self):
        return self.x

async def fetch(url):
    data = await get(url)
    return data
"""

PY_EXPECTED = {("top", 1, 4), ("method", 7, 8), ("fetch", 10, 12)}

# five lines as git numbers them; str.splitlines sees six
FORM_FEED_PY = "def a():\n    return 1\n\x0c\ndef b():\n    return 2\n"


def test_python_spans_match_hand_count():
    got = {(s.name, s.start_line, s.end_line)
           for s in spans.all_spans(PY_SOURCE, "python")}
    assert got == PY_EXPECTED
    # a form feed is not a line break for git
    got = {(s.name, s.start_line, s.end_line)
           for s in spans.all_spans(FORM_FEED_PY, "python")}
    assert got == {("a", 1, 2), ("b", 4, 5)}


def test_python_enclosing_span():
    span = spans.innermost_span(spans.all_spans(PY_SOURCE, "python"), 11)
    assert span.name == "fetch"
    assert span.contains(11)


def test_function_names_in_source_order():
    assert spans.function_names(PY_SOURCE, "python") == ["top", "method", "fetch"]


def test_slice_text_returns_exact_lines():
    span = spans.innermost_span(spans.all_spans(C_SOURCE, "c_family"), 2)
    assert span.slice_text(C_SOURCE) == "int add(int a, int b) {\n    return a + b;\n}"


def test_slice_text_counts_only_newlines():
    # a form feed is not a line break for clean_source or git
    text = "int a() {\n    return 1;\n}\n\x0c\nint b() {\n    return 2;\n}\n"
    span = spans.innermost_span(spans.all_spans(text, "c_family"), 6)
    assert (span.name, span.start_line, span.end_line) == ("b", 5, 7)
    assert span.slice_text(text) == "int b() {\n    return 2;\n}"


def test_window_span_clamps_to_file():
    span = spans.window_span(C_SOURCE, 2, radius=20)
    assert span.name == "(window)"
    assert span.start_line == 1
    assert span.end_line == len(C_SOURCE.splitlines())
    span = spans.window_span(FORM_FEED_PY, 4)
    assert (span.start_line, span.end_line) == (1, 5)


# (text, spans as (name, start, end)) for corners of the c_family detector
SPAN_QUIRKS = [
    # a form feed is whitespace between a name and its "(" ...
    ("int f\x0c(void) {\n    return 1;\n}\n", [("f", 1, 3)]),
    # ... but a newline is not
    ("int f\n(void) {\n    return 1;\n}\n", []),
    # a closer after the ")" marks a call inside an argument list
    ("int f() ) {\n}\n", []),
    # a ";" after the ")" marks a call or a declaration
    ("f(x);\n{\n}\n", []),
]


@pytest.mark.parametrize("text, expected", SPAN_QUIRKS)
def test_c_family_quirks(text, expected):
    got = spans.all_spans(text, "c_family")
    assert [(s.name, s.start_line, s.end_line) for s in got] == expected
