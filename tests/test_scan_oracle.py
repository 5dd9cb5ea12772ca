"""The regex scanners against the character-loop scanners they replaced.

`oracle_clean_source`, `oracle_is_executable_line` and
`oracle_c_family_spans` are the earlier implementations, kept as the
reference: a state machine that visits every character and gives two
views (strings kept, string interiors blanked), and a bracket walk from
every signature candidate over the oracle's structure lines. The regex
versions in `sourcetext` and `spans` must give the structure lines, the
executable lines of the content view, the same spans in the same order,
and the same DetectorFailure messages.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from histrepair import gitio, spans, synth
from histrepair.errors import DetectorFailure
from histrepair.sourcetext import clean_source, executable_line_numbers

_ANNOTATION = re.compile(r"@[A-Za-z_][\w.]*")


def oracle_clean_source(text: str) -> tuple[list[str], list[str]]:
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
    return content, structure


def oracle_is_executable_line(cleaned_line: str) -> bool:
    stripped = _ANNOTATION.sub("", cleaned_line).rstrip()
    residue = re.sub(r"[{}()\[\];\s]", "", stripped)
    return residue != ""


def oracle_c_family_spans(struct: list[str]) -> list[spans.FunctionSpan]:
    """The spans in the structure lines of `oracle_clean_source`."""
    found: list[spans.FunctionSpan] = []
    joined_positions = []
    for idx, line in enumerate(struct):
        for m in re.finditer(r"([A-Za-z_~][\w$]*)\s*\(", line):
            name = m.group(1)
            if name in spans._CONTROL:
                continue
            joined_positions.append((idx, m.end(0) - 1, name))

    for idx, paren_col, name in joined_positions:
        depth = 0
        li, ci = idx, paren_col
        state = "parens"
        while li < len(struct):
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
                    elif ch == ";":
                        state = "abandon"
                        break
                    elif ch in ")]}":
                        state = "abandon"
                        break
                elif state == "body":
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        if depth == 0:
                            found.append(spans.FunctionSpan(name, idx + 1, li + 1))
                            state = "done"
                            break
                ci += 1
            if state in ("done", "abandon"):
                break
            li += 1
            ci = 0
        if state == "body":
            raise DetectorFailure(f"unbalanced braces after {name} at line {idx + 1}")
    return found


def _outcome(detect, *args):
    """The spans found, or the DetectorFailure message."""
    try:
        return detect(*args)
    except DetectorFailure as exc:
        return f"DetectorFailure: {exc}"


def assert_scans_agree(text: str) -> list | str:
    """Check every output against the oracle; return the span outcome."""
    content, structure = oracle_clean_source(text)
    assert clean_source(text) == "\n".join(structure), repr(text)
    assert executable_line_numbers(text) == {
        number for number, line in enumerate(content, 1)
        if oracle_is_executable_line(line)}, repr(text)
    found = _outcome(spans.all_spans, text, "c_family")
    assert found == _outcome(oracle_c_family_spans, structure), repr(text)
    return found


# what the random texts are made of: every character the scanners treat
# specially, names (non-ASCII ones too), control keywords, other
# whitespace and annotations; plus, six times as likely, fragments of
# signatures and bodies, so that spans and unbalanced bodies are common
_PIECES = (
    ["'", '"', "\\", "//", "/*", "*/", "#", "(", ")", "{", "}", "[", "]", ";",
     "\n", "\r", "\x0c", " ", "\t", "\xa0", "*", "/", "@", "@Override"]
    + ["f", "x1", "_g", "~T", "a$b", "é", "naïve", "名前", "π2"]
    + sorted(spans._CONTROL)
)
_FRAGMENTS = ["f(", "g (", "名前(", "~T\x0c(", "if (", ") {", "){", "}", "}", "}",
              "x;", ")", "\n"]


def test_random_texts_match_the_oracle():
    rng = random.Random(20240613)
    pieces = _PIECES + _FRAGMENTS
    weights = [1] * len(_PIECES) + [6] * len(_FRAGMENTS)
    kinds = {"spans": 0, "failure": 0, "none": 0}
    for _ in range(50_000):
        found = assert_scans_agree("".join(rng.choices(pieces, weights, k=rng.randint(0, 20))))
        kinds["failure" if isinstance(found, str) else "spans" if found else "none"] += 1
    assert min(kinds.values()) > 2_000, kinds


def test_ground_truth_repo_versions_match_the_oracle(tmp_path):
    gt = synth.build_ground_truth_repo(tmp_path / "gt", random.Random(7),
                                       n_files=3, n_commits=8)
    versions = 0
    for commit in gt.commits:
        for name in gt.files:
            assert_scans_agree(gitio.file_at(gt.path, commit, name))
            versions += 1
    assert versions == 24


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parents[1] / "src" / "histrepair").glob("*.py")), ids=lambda p: p.name)
def test_package_sources_match_the_oracle(path):
    # real files: comments, docstrings, escapes and nested brackets
    assert_scans_agree(path.read_text())
