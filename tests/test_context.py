"""Heuristic payload extraction, truncation, and prompt rendering."""

import json
import random
import subprocess
from types import SimpleNamespace

import pytest

from histrepair import blame, context, gitio
from histrepair.blame import BlameEntry
from histrepair.bugs import BugRecord, BugSpec, FaultLocation, LocalizedLine
from histrepair.context import (
    DEFAULT_BUDGETS,
    TRUNCATION_NOTICE,
    FlDiff,
    FnAll,
    FnAllEntry,
    FnPair,
    FunctionSnapshot,
    HistoricalContext,
    build_context,
    extract_fl_diff,
    extract_fn_all,
    extract_fn_pair,
    payload_text,
    render_prompts,
    save_context,
    truncate,
)
from histrepair.errors import FnPairUnavailable
from histrepair.patches import parse_unified_diff, source_lines


def entry_for(repo, ref, path, line):
    loc = FaultLocation(path, (LocalizedLine(line=line, kind="modified"),))
    return blame.blame_lines(repo, ref, loc)[0]


def fn_all(repo, sha):
    return extract_fn_all(repo, sha, gitio.read_commit(repo, sha).changes)


def fn_pair(repo, sha, entry):
    return extract_fn_pair(repo, sha, gitio.read_commit(repo, sha), entry)


def simple_spec(ref):
    return BugSpec(
        bug_id="bug-1",
        snapshot_ref=ref,
        locations=(FaultLocation(
            "x.c", (LocalizedLine(line=2, kind="modified"),),
        ),),
        failing_tests=("TestX::test_two",),
        bug_report="x.c returns the wrong total.",
    )


# --- fn_all -------------------------------------------------------------

def test_fn_all_lists_cochanged_file_functions(make_repo):
    repo, shas = make_repo([
        {
            "x.c": "int f() {\n    return 1;\n}\n",
            "z.c": "int z() {\n    return 0;\n}\n",
        },
        {
            "x.c": "int f() {\n    return 2;\n}\n\nint g() {\n    return 3;\n}\n",
            "w.c": "int w() {\n    return 9;\n}\n",
        },
    ])
    payload = fn_all(repo, shas[1])
    by_path = {e.file_path: e for e in payload.entries}
    assert set(by_path) == {"x.c", "w.c", "z.c"}
    assert by_path["x.c"].names == ("f", "g")
    assert by_path["w.c"].names == ("w",)
    assert by_path["z.c"].note == "deleted"
    assert by_path["z.c"].names == ()


def test_fn_all_marks_unparseable_files(make_repo):
    repo, shas = make_repo([
        {"ok.c": "int f() {\n    return 1;\n}\n"},
        {"ok.c": "int f() {\n    return 2;\n}\n",
         "broken.c": "void broken() {\n    int x = 1;\n"},
    ])
    payload = fn_all(repo, shas[1])
    by_path = {e.file_path: e for e in payload.entries}
    assert by_path["broken.c"].note.startswith("unreadable:")
    assert by_path["ok.c"].names == ("f",)


# --- fn_pair ------------------------------------------------------------

BEFORE_F = "int f(int a) {\n    return a + 1;\n}"


def test_fn_pair_modified_line(make_repo):
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": "int f(int a) {\n    return a + 2;\n}\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 2)
    assert entry.commit_id == shas[1]
    pair = fn_pair(repo, shas[1], entry)
    assert pair.before.body_text == BEFORE_F
    assert pair.after.body_text == "int f(int a) {\n    return a + 2;\n}"
    assert pair.before.name == pair.after.name == "f"
    assert (pair.before.start_line, pair.before.end_line) == (1, 3)


def test_latin1_byte_keeps_the_study_row_and_contexts(make_repo):
    # Latin-1 sources are common; a byte that is not UTF-8 must not cost
    # the bug its blame or its history contexts
    repo, shas = make_repo([
        {"x.c": b"/* caf\xe9 */\n" + BEFORE_F.encode() + b"\n"},
        {"x.c": b"/* caf\xe9 */\nint f(int a) {\n    return a + 2;\n}\n"},
    ])
    assert gitio.file_at(repo, shas[1], "x.c").startswith("/* caf\ufffd */\n")
    spec = BugSpec(
        bug_id="latin1-1",
        snapshot_ref=shas[1],
        locations=(FaultLocation("x.c", (LocalizedLine(line=3, kind="modified"),)),),
        failing_tests=("t",),
    )
    fix = parse_unified_diff(
        "--- a/x.c\n+++ b/x.c\n@@ -3 +3 @@\n-    return a + 2;\n+    return a + 1;\n")
    report = blame.run_availability_study(
        [BugRecord(spec=spec, repo_path=repo)], {"latin1-1": fix})
    assert report.exclusions == []
    assert [row.resolved_commit for row in report.rows] == [shas[1]]

    assert fn_all(repo, shas[1]).entries == (FnAllEntry("x.c", ("f",)),)
    pair = fn_pair(repo, shas[1], entry_for(repo, shas[1], "x.c", 3))
    assert pair.before.body_text == BEFORE_F
    assert pair.after.body_text == "int f(int a) {\n    return a + 2;\n}"


def test_fn_pair_new_function_has_no_before(make_repo):
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": BEFORE_F + "\n\nint g(int a) {\n    return a * 2;\n}\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 6)  # inside g
    pair = fn_pair(repo, shas[1], entry)
    assert pair.before is None
    assert pair.after.name == "g"
    assert pair.after.body_text == "int g(int a) {\n    return a * 2;\n}"


def test_fn_pair_inserted_line_recovers_before_by_name(make_repo):
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": "int f(int a) {\n    log_call();\n    return a + 1;\n}\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 2)  # the inserted call
    pair = fn_pair(repo, shas[1], entry)
    assert pair.after.body_text == "int f(int a) {\n    log_call();\n    return a + 1;\n}"
    assert pair.before is not None
    assert pair.before.body_text == BEFORE_F


def test_fn_pair_after_version_the_detector_cannot_scan_gets_a_window(make_repo):
    # the commit edits f and leaves g unclosed: the before side is f, and
    # the after side degrades to the window instead of failing the job
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": "int f(int a) {\n    return a + 2;\n}\n\nint g() {\n"},
    ])
    pair = fn_pair(repo, shas[1], entry_for(repo, shas[1], "x.c", 2))
    assert pair.before.body_text == BEFORE_F
    assert (pair.after.name, pair.after.start_line, pair.after.end_line) == \
        ("(window)", 1, 5)


def test_fn_pair_before_version_the_detector_cannot_scan_is_absent(make_repo):
    # the parent leaves g unclosed and the commit adds g's blamed line:
    # the before side, matched by name, is absent
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\nint g() {\n"},
        {"x.c": BEFORE_F + "\nint g() {\n    return 0;\n}\n"},
    ])
    pair = fn_pair(repo, shas[1], entry_for(repo, shas[1], "x.c", 5))
    assert pair.before is None
    assert pair.after.body_text == "int g() {\n    return 0;\n}"


def test_fn_pair_outside_functions_unavailable(make_repo):
    repo, shas = make_repo([
        {"x.c": "int LIMIT = 10;\n"},
        {"x.c": "int LIMIT = 20;\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 1)
    with pytest.raises(FnPairUnavailable):
        fn_pair(repo, shas[1], entry)


def test_fn_pair_requires_at_least_one_side():
    with pytest.raises(FnPairUnavailable):
        FnPair(before=None, after=None)


def test_fn_pair_uses_commit_side_line_numbers(make_repo):
    # snapshot has an extra leading line, so the snapshot line and the
    # blamed commit's own line differ; extraction must use the latter
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": "// banner\n" + BEFORE_F + "\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 3)  # return line, still from c0
    assert entry.commit_id == shas[0]
    assert entry.commit_line == 2
    pair = fn_pair(repo, shas[0], entry)
    assert pair.after.body_text == BEFORE_F
    assert pair.before is None  # root commit has no parent


# old line each new line maps to, through the hunks of a -U0 diff
PREIMAGE_CASES = {
    # two lines inserted after old line 2
    "pure insert": ("@@ -2,0 +3,2 @@\n+x\n+y\n",
                    {1: 1, 2: 2, 3: None, 4: None, 5: 3}),
    # old lines 2-3 deleted after new line 1
    "pure delete": ("@@ -2,2 +1,0 @@\n-b\n-c\n", {1: 1, 2: 4, 3: 5}),
    "replace shorter": ("@@ -2,3 +2,1 @@\n-b\n-c\n-d\n+B\n", {1: 1, 2: 2, 3: 5}),
    "replace longer": ("@@ -2,1 +2,3 @@\n-b\n+B\n+C\n+D\n",
                       {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}),
    "deleted first lines": ("@@ -1,2 +0,0 @@\n-a\n-b\n", {1: 3, 2: 4}),
    # an insert, a delete and a longer replace: lines before, between
    # and after the hunks shift by the hunks before them
    "three hunks": (
        "@@ -2,0 +3,1 @@\n+c\n@@ -5,2 +5,0 @@\n-e\n-f\n@@ -9,1 +8,2 @@\n-i\n+H\n+I\n",
        {1: 1, 2: 2, 3: None, 4: 3, 5: 4, 6: 7, 7: 8, 8: 9, 9: 9, 10: 10, 11: 11},
    ),
}


@pytest.mark.parametrize("case", sorted(PREIMAGE_CASES))
def test_preimage_line_through_hunks(case):
    text, expected = PREIMAGE_CASES[case]
    hunks = parse_unified_diff("--- a/x.c\n+++ b/x.c\n" + text).files[0].hunks
    assert {n: context._preimage_line(hunks, n) for n in expected} == expected


def test_preimage_line_from_headers_with_omitted_counts():
    hunks = parse_unified_diff(
        "--- a/x.c\n+++ b/x.c\n@@ -3 +3 @@\n-c\n+C\n"
        "@@ -6 +5,0 @@\n-f\n@@ -8,0 +8 @@\n+new\n").files[0].hunks
    assert [context._preimage_line(hunks, n) for n in range(1, 10)] == \
        [1, 2, 3, 4, 5, 7, 8, None, 9]


# the commit rewrites both bodies. git aligns g's new call with g's old
# body, and blame attributes the call through that alignment; a
# longest-block matcher pairs it with f's second a() call instead
TWO_BODIES_BEFORE = "int f() {\n    a();\n    a();\n}\nint g() {\n    c();\n    b();\n}\n"
TWO_BODIES_AFTER = "int f() {\n    c();\n}\nint g() {\n    a();\n}\n"


def test_fn_pair_before_side_follows_git_hunk_alignment(make_repo):
    repo, shas = make_repo([{"x.c": TWO_BODIES_BEFORE}, {"x.c": TWO_BODIES_AFTER}])
    entry = entry_for(repo, shas[1], "x.c", 5)
    assert entry.commit_id == shas[1]
    pair = fn_pair(repo, shas[1], entry)
    assert pair.before.name == pair.after.name == "g"
    assert pair.before.body_text == "int g() {\n    c();\n    b();\n}"
    assert pair.after.body_text == "int g() {\n    a();\n}"


def _reference_preimage(hunks, new_line):
    """The mapping fn_pair used before it read the commit's own diff:
    header arithmetic over the zero-context hunks of `_reference_hunks`."""
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


def _reference_hunks(repo, parent, commit, path):
    """Zero-context hunks of `path`, from the `git diff` fn_pair ran per
    build before it read the commit's own `git show` hunks."""
    out = gitio.run_git(repo, "diff", "-U0", "--inter-hunk-context=0", "--no-color",
                        "--no-ext-diff", "--diff-algorithm=myers", parent, commit, "--", path)
    return parse_unified_diff(out).files[0].hunks if out else []


ALIGNMENT_LINES = ["int f(int a) {", "    a();", "    b();", "    return a;", "}", "",
                   "    c();", "// note"]


def _random_edits(rng, count):
    """`count` successive versions of a small C-like file, each a random
    edit of the one before: inserts, deletes and replaces of a few
    lines anywhere (first lines included), now and then several at once,
    an emptied file, or a last line without its newline."""
    lines = [rng.choice(ALIGNMENT_LINES) for _ in range(12)]
    versions = []
    while len(versions) < count:
        roll = rng.random()
        if roll < 0.05:
            new = []
        else:
            new = list(lines)
            for _ in range(rng.choice((1, 1, 2, 3))):
                at = rng.randint(0, len(new))
                cut = rng.choice((0, 0, 1, 2, 3))
                new[at:at + cut] = [rng.choice(ALIGNMENT_LINES)
                                    for _ in range(rng.choice((0, 1, 1, 2, 3)))]
        text = "".join(line + "\n" for line in new)
        if text and roll > 0.9:
            text = text[:-1]
        if versions and text == versions[-1]:
            continue
        versions.append(text)
        lines = new
    return versions


def test_preimage_through_the_commit_diff_matches_the_zero_context_diff_and_blame(make_repo):
    # every commit of a chain of random edits: the map through the
    # commit's own -U3 hunks equals the former map through `git diff
    # -U0`, and equals blame's line in the parent on every line the
    # commit did not change
    repo, shas = make_repo([{"x.c": text} for text in _random_edits(random.Random(28), 40)])
    merged = unchanged = added = 0
    for parent, sha in zip(shas, shas[1:]):
        new_count = len(source_lines(gitio.file_at(repo, sha, "x.c")))
        hunks = [fp.hunks for fp in parse_unified_diff(gitio.read_commit(repo, sha).diff).files
                 if fp.new_path == "x.c"][0]
        reference = _reference_hunks(repo, parent, sha, "x.c")
        got = {n: context._preimage_line(hunks, n) for n in range(1, new_count + 2)}
        assert got == {n: _reference_preimage(reference, n) for n in got}, sha
        merged += len(hunks) < len(reference)
        added += list(got.values()).count(None)
        if new_count:
            blamed = gitio.blame_file_lines(repo, f"{parent}..{sha}", "x.c",
                                            list(range(1, new_count + 1)))
            for bl in blamed:
                if bl.commit_id == parent:
                    unchanged += 1
                    assert got[bl.final_line] == bl.orig_line, (sha, bl.final_line)
    assert merged and unchanged and added


# --- fl_diff ------------------------------------------------------------

def test_fl_diff_matches_reference_git_diff(make_repo):
    repo, shas = make_repo([
        {"a.c": "one\ntwo\nthree\n"},
        {"a.c": "one\nTWO\nthree\n"},
    ])
    reference = subprocess.run(
        ["git", "-C", str(repo), "diff", "-U3", shas[0], shas[1]],
        capture_output=True, text=True, check=True,
    ).stdout
    assert extract_fl_diff(gitio.read_commit(repo, shas[1]).diff).diff_text == reference


def test_fl_diff_root_commit_diffs_against_empty_tree(make_repo):
    repo, shas = make_repo([{"a.c": "alpha\n"}])
    empty_tree = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"  # git's canonical empty tree
    reference = subprocess.run(
        ["git", "-C", str(repo), "diff", "-U3", empty_tree, shas[0]],
        capture_output=True, text=True, check=True,
    ).stdout
    assert extract_fl_diff(gitio.read_commit(repo, shas[0]).diff).diff_text == reference
    assert "+alpha" in reference


# --- build_context dispatch ----------------------------------------------

def test_build_context_rejects_non_history(make_repo):
    repo, shas = make_repo([{"a.c": "x\n"}])
    with pytest.raises(ValueError):
        build_context(repo, "non_history", shas[0])
    with pytest.raises(ValueError):
        build_context(repo, "mystery", shas[0])


def test_build_context_fn_pair_needs_entry(make_repo):
    repo, shas = make_repo([{"a.c": "x\n"}])
    with pytest.raises(FnPairUnavailable):
        build_context(repo, "fn_pair", shas[0], entry=None)


def test_build_context_carries_commit_message(make_repo):
    repo, shas = make_repo([{"a.c": "alpha\n"}, {"a.c": "beta\n"}])
    ctx = build_context(repo, "fl_diff", shas[1])
    assert ctx.commit_message == "snapshot 1"
    assert ctx.kind == "fl_diff"
    assert not ctx.truncated


@pytest.mark.parametrize("kind", ["fn_all", "fn_pair", "fl_diff"])
def test_build_context_reads_the_commit_with_one_git_show(make_repo, monkeypatch, kind):
    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": "int f(int a) {\n    return a + 2;\n}\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 2)
    argvs = []

    def spy(argv, **kwargs):
        argvs.append(argv)
        return subprocess.run(argv, **kwargs)

    monkeypatch.setattr(gitio, "subprocess", SimpleNamespace(run=spy))
    build_context(repo, kind, shas[1], entry=entry)
    # the commit is shown once; fn_pair aligns its line through that
    # diff, so no heuristic runs `git diff`. Files read as `show <ref>:<path>`,
    # all in the repo's view, which entry_for's blame wrote
    view = argvs[0][4]
    assert view.startswith("--git-dir=") and str(repo) not in view
    git = ["git", "-c", "core.quotePath=false", "--no-replace-objects", view]
    reads = {"fn_all": [shas[1]], "fn_pair": [shas[1], shas[0]], "fl_diff": []}[kind]
    assert argvs == [
        git + ["show", "--format=%P%x00%B%x00", "--diff-merges=first-parent", "--root",
               "--patch-with-raw", "-M", "-U3", "--no-color", "--no-ext-diff",
               "--no-textconv", "--src-prefix=a/", "--dst-prefix=b/", "-O/dev/null",
               "--diff-algorithm=myers", "--inter-hunk-context=0", shas[1]],
    ] + [git + ["show", f"{ref}:x.c"] for ref in reads]


def test_build_context_applies_budget(make_repo):
    repo, shas = make_repo([
        {"a.c": "line\n" * 5},
        {"a.c": "line\n" * 4 + "changed\n"},
    ])
    ctx = build_context(repo, "fl_diff", shas[1], budgets={"fl_diff": 60})
    assert ctx.truncated
    assert len(ctx.payload.diff_text) <= 60


# --- truncation ----------------------------------------------------------

HEADER = "diff --git a/f.c b/f.c\n--- a/f.c\n+++ b/f.c\n"
HUNK1 = "@@ -1,3 +1,3 @@\n ctx one\n-old a\n+new a\n"
HUNK2 = "@@ -10,3 +10,3 @@\n ctx two\n-old b\n+new b\n"


def fl_ctx(text, truncated=False):
    return HistoricalContext(
        kind="fl_diff", commit_id="c" * 40, commit_message="msg",
        payload=FlDiff(diff_text=text), truncated=truncated,
    )


def test_truncate_under_budget_is_noop():
    ctx = fl_ctx(HEADER + HUNK1)
    out = truncate(ctx, len(HEADER + HUNK1) + 10)
    assert out is ctx
    assert not out.truncated


def test_truncate_keeps_whole_hunks_in_order():
    text = HEADER + HUNK1 + HUNK2
    budget = len(HEADER) + len(HUNK1) + len(HUNK2) - 1
    out = truncate(fl_ctx(text), budget)
    assert out.truncated
    assert out.payload.diff_text == (HEADER + HUNK1).rstrip("\n")


def test_truncate_budget_below_first_hunk_keeps_header_only():
    text = HEADER + HUNK1 + HUNK2
    budget = len(HEADER) + len(HUNK1) - 1
    out = truncate(fl_ctx(text), budget)
    assert out.payload.diff_text == HEADER.rstrip("\n")
    assert payload_text(out).endswith(TRUNCATION_NOTICE)


def test_truncate_is_idempotent_at_same_budget():
    text = HEADER + HUNK1 + HUNK2
    budget = len(HEADER) + len(HUNK1) + 2
    once = truncate(fl_ctx(text), budget)
    twice = truncate(once, budget)
    assert twice.payload.diff_text == once.payload.diff_text
    assert twice.truncated  # the flag survives the no-op second cut


def test_truncate_reads_hunks_by_their_header_counts():
    # `-- stale note` removed and `++ counter` added are body lines that
    # look like file headers; neither may split its hunk
    header = "diff --git a/q.sql b/q.sql\n--- a/q.sql\n+++ b/q.sql\n"
    hunk1 = "@@ -1,4 +1,3 @@\n select 1;\n--- stale note\n select 2;\n select 3;\n"
    hunk2 = "@@ -10,2 +9,4 @@\n select 10;\n+++ counter\n+select 11;\n select 12;\n"
    text = header + hunk1 + hunk2
    hunk1_head = "@@ -1,4 +1,3 @@\n select 1;\n"
    hunk2_head = "@@ -10,2 +9,4 @@\n select 10;\n"
    for budget, kept in ((len(header + hunk1_head), header),
                         (len(header + hunk1 + hunk2_head), header + hunk1)):
        out = truncate(fl_ctx(text), budget)
        assert out.truncated
        assert out.payload.diff_text == kept.rstrip("\n")


def test_truncate_text_cuts_only_at_newlines():
    # a form feed does not end a line, so it is no place to cut
    text = "int a = 1;\x0c int b = 2;\nint c = 3;\n"
    assert context._truncate_text_at_lines(text, 16) == ("", True)
    assert context._truncate_text_at_lines(text, 30) == ("int a = 1;\x0c int b = 2;", True)


def test_truncate_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        truncate(fl_ctx(HEADER), 0)


def test_truncate_fn_all_cuts_at_entry_boundaries():
    payload = FnAll(entries=(
        FnAllEntry("a.c", ("alpha", "beta")),
        FnAllEntry("b.c", ("gamma",)),
        FnAllEntry("c.c", ("delta",)),
    ))
    ctx = HistoricalContext(
        kind="fn_all", commit_id="c" * 40, commit_message="m", payload=payload,
    )
    line1 = "a.c: alpha, beta"
    line2 = "b.c: gamma"
    budget = len(line1) + 1 + len(line2)
    out = truncate(ctx, budget)
    assert out.truncated
    assert [e.file_path for e in out.payload.entries] == ["a.c", "b.c"]
    body = payload_text(out)
    assert body == f"{line1}\n{line2}{TRUNCATION_NOTICE}"


def make_pair(n_lines_before=30, n_lines_after=2):
    def body(n):
        return "\n".join(f"x_{i} = {i};" for i in range(n))
    return FnPair(
        before=FunctionSnapshot("a.c", "f", 1, n_lines_before, body(n_lines_before)),
        after=FunctionSnapshot("a.c", "f", 1, n_lines_after, body(n_lines_after)),
    )


def test_truncate_fn_pair_respects_total_budget():
    ctx = HistoricalContext(
        kind="fn_pair", commit_id="c" * 40, commit_message="m",
        payload=make_pair(),
    )
    budget = 150
    out = truncate(ctx, budget)
    assert out.truncated
    rendered = payload_text(out)
    assert len(rendered) <= budget + len(TRUNCATION_NOTICE)
    # cut falls on a line boundary: the kept body ends with a whole line
    assert out.payload.before.body_text.endswith(";")


def test_truncate_length_invariant_across_kinds(make_repo):
    repo, shas = make_repo([
        {"a.c": "int f() {\n" + "".join(f"    int v{i} = {i};\n" for i in range(60)) + "}\n"},
        {"a.c": "int f() {\n" + "".join(f"    int v{i} = {i + 1};\n" for i in range(60)) + "}\n"},
    ])
    for kind, budget in (("fl_diff", 300), ("fn_all", 10), ("fn_pair", 200)):
        entry = entry_for(repo, shas[1], "a.c", 5)
        ctx = build_context(repo, kind, shas[1], entry=entry,
                            budgets={kind: budget})
        assert len(payload_text(ctx)) <= budget + len(TRUNCATION_NOTICE)


# --- prompt rendering ------------------------------------------------------

def test_render_prompts_without_history(make_repo):
    repo, shas = make_repo([{"x.c": "int a;\nint b;\n"}])
    bundle = render_prompts(
        simple_spec(shas[0]), None,
        repo_path=".", sentinel="DONE_NOW",
    )
    assert "# Historical Context" not in bundle.user_prompt
    assert "# Historical Context Available" not in bundle.system_prompt
    assert "echo DONE_NOW" in bundle.system_prompt
    assert "checked out at `.`" in bundle.system_prompt
    assert "TestX::test_two" in bundle.user_prompt
    assert "x.c: line 2 (modified)" in bundle.user_prompt
    assert bundle.token_estimate == (len(bundle.system_prompt) + len(bundle.user_prompt)) // 4


def test_render_prompts_with_history_embeds_payload(make_repo):
    repo, shas = make_repo([
        {"x.c": "int f() {\n    return 1;\n}\n"},
        {"x.c": "int f() {\n    return 2;\n}\n"},
    ])
    ctx = build_context(repo, "fl_diff", shas[1])
    bundle = render_prompts(
        simple_spec(shas[1]), ctx,
        repo_path=".", sentinel="DONE_NOW",
    )
    assert "# Historical Context Available" in bundle.system_prompt
    assert "# Historical Context" in bundle.user_prompt
    assert shas[1] in bundle.user_prompt
    assert ctx.payload.diff_text in bundle.user_prompt
    assert "snapshot 1" in bundle.user_prompt


def test_render_prompts_history_note_branch(make_repo):
    repo, shas = make_repo([{"x.c": "int a;\n"}])
    bundle = render_prompts(
        simple_spec(shas[0]), None,
        repo_path=".", sentinel="S",
        history_note="historical context unavailable: no enclosing function",
    )
    assert "# Historical Context" in bundle.user_prompt
    assert "historical context unavailable" in bundle.user_prompt
    # the system prompt still advertises history guidance for this branch
    assert "# Historical Context Available" in bundle.system_prompt


def test_render_is_deterministic(make_repo):
    repo, shas = make_repo([
        {"x.c": "int f() {\n    return 1;\n}\n"},
        {"x.c": "int f() {\n    return 2;\n}\n"},
    ])
    ctx = build_context(repo, "fl_diff", shas[1])
    one = render_prompts(simple_spec(shas[1]), ctx, repo_path=".", sentinel="S")
    two = render_prompts(simple_spec(shas[1]), ctx, repo_path=".", sentinel="S")
    assert one.system_prompt == two.system_prompt
    assert one.user_prompt == two.user_prompt


def test_context_json_round_trip_fields(make_repo, tmp_path):
    def sidecar(ctx):
        save_context(ctx, tmp_path / "ctx.json")
        return json.loads((tmp_path / "ctx.json").read_text())

    repo, shas = make_repo([
        {"x.c": BEFORE_F + "\n"},
        {"x.c": "int f(int a) {\n    return a + 2;\n}\n"},
    ])
    entry = entry_for(repo, shas[1], "x.c", 2)
    ctx = build_context(repo, "fn_pair", shas[1], entry=entry)
    obj = sidecar(ctx)
    assert obj["kind"] == "fn_pair"
    assert obj["payload"]["before"]["body_text"] == BEFORE_F
    assert obj["payload"]["after"]["name"] == "f"

    ctx2 = build_context(repo, "fn_all", shas[1])
    obj2 = sidecar(ctx2)
    assert obj2["payload"]["entries"][0]["names"] == ["f"]


def test_default_budgets_pinned():
    assert DEFAULT_BUDGETS == {"fl_diff": 12_000, "fn_pair": 8_000, "fn_all": 4_000}
