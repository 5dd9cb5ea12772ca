"""Unified diff parsing and fix-patch categorization."""

import random
import subprocess

import pytest

from histrepair import gitio
from histrepair.bugs import categorize_bug
from histrepair.errors import EmptyPatch
from histrepair.patches import FilePatch, Hunk, Patch, parse_unified_diff

TWO_FILE_DIFF = """\
--- a/src/alpha.c
+++ b/src/alpha.c
@@ -10,7 +10,7 @@
 context one
 context two
-old line
+new line
 context three
 context four
 context five
 context six
@@ -40,3 +40,5 @@
 keep
+added one
+added two
 keep too
 keep three
--- a/src/beta.c
+++ b/src/beta.c
@@ -1,3 +1,2 @@
-gone
 stay
 stay more
"""


def test_parse_two_file_diff_structure():
    patch = parse_unified_diff(TWO_FILE_DIFF)
    assert len(patch.files) == 2
    assert patch.hunk_count == 3
    alpha, beta = patch.files
    assert alpha.path == "src/alpha.c"
    assert beta.path == "src/beta.c"
    h1, h2 = alpha.hunks
    assert (h1.old_start, h1.old_count, h1.new_start, h1.new_count) == (10, 7, 10, 7)
    assert (h1.removed, h1.added, h1.changed) == (1, 1, 1)
    assert (h2.removed, h2.added, h2.changed) == (0, 2, 2)
    assert beta.hunks[0].changed == 1


def test_old_line_numbers_tracks_removed_lines():
    patch = parse_unified_diff(TWO_FILE_DIFF)
    h1 = patch.files[0].hunks[0]
    # hunk starts at old line 10 with two context lines before the removal
    assert h1.old_line_numbers() == [12]
    assert patch.files[1].hunks[0].old_line_numbers() == [1]


def test_parse_reads_omitted_counts_as_one():
    diff = (
        "diff --git a/x.c b/x.c\n--- a/x.c\n+++ b/x.c\n"
        "@@ -3 +3 @@ int f()\n-    a();\n+    b();\n"
        "@@ -5,0 +6,2 @@\n+@@ -1 +1 @@\n+    c();\n"
        "@@ -9,2 +10 @@\n-x\n-y\n+z\n"
        "@@ -12 +12,0 @@\n-gone\n"
    )
    hunks = parse_unified_diff(diff).files[0].hunks
    assert [(h.old_start, h.old_count, h.new_start, h.new_count) for h in hunks] == [
        (3, 1, 3, 1), (5, 0, 6, 2), (9, 2, 10, 1), (12, 1, 12, 0),
    ]
    assert hunks[1].lines == ["+@@ -1 +1 @@", "+    c();"]


# hunk bodies end where their header counts say, as git reads them; each
# case gives the file paths, the removed lines' old numbers per hunk and
# the category
BODY_CASES = {
    # the SQL comment "-- stale note" removed and "++ counter" added
    "header-like body lines": (
        "--- a/schema.sql\n+++ b/schema.sql\n@@ -1,3 +1,3 @@\n"
        " create table t (id int);\n--- stale note\n+++ counter\n select 1;\n",
        ["schema.sql"], [[2]], "SL"),
    "removed header-like last line": (
        "--- a/q.sql\n+++ b/q.sql\n@@ -1,2 +1 @@\n select 1;\n--- stale note\n",
        ["q.sql"], [[2]], "SL"),
    # only "\n" ends a diff line, so a form feed stays inside its line
    "form feed inside a line": (
        "--- a/x.c\n+++ b/x.c\n@@ -1,3 +1,3 @@\n"
        " int a = 1;\x0c int z;\n-int b = 2;\n+int b = 3;\n int c;\n",
        ["x.c"], [[2]], "SL"),
    "no-newline marker mid-hunk": (
        "--- a/x.c\n+++ b/x.c\n@@ -1 +1,2 @@\n-a\n\\ No newline at end of file\n"
        "+b\n+c\n--- a/y.c\n+++ b/y.c\n@@ -1 +1 @@\n-d\n+e\n",
        ["x.c", "y.c"], [[1], [1]], "MFMH"),
}


@pytest.mark.parametrize("case", sorted(BODY_CASES))
def test_hunk_body_follows_header_counts(case):
    text, paths, removed, category = BODY_CASES[case]
    patch = parse_unified_diff(text)
    assert [fp.path for fp in patch.files] == paths
    assert [h.old_line_numbers() for fp in patch.files for h in fp.hunks] == removed
    assert categorize_bug(patch) == category


def test_parse_git_style_headers(make_repo):
    repo, shas = make_repo([
        {"a.txt": "one\ntwo\nthree\nfour\nfive\n"},
        {"a.txt": "one\nTWO\nthree\nfour\n"},
    ])
    diff = gitio.commit_diff(repo, shas[1])
    patch = parse_unified_diff(diff)
    assert len(patch.files) == 1
    assert patch.files[0].path == "a.txt"
    hunk = patch.files[0].hunks[0]
    # line 2 modified and line 5 deleted, by construction
    assert hunk.old_line_numbers() == [2, 5]


def test_parse_new_and_deleted_files(make_repo):
    repo, shas = make_repo([
        {"old.txt": "gone\n"},
        {"new.txt": "fresh\n"},
    ])
    patch = parse_unified_diff(gitio.commit_diff(repo, shas[1]))
    by_path = {fp.path: fp for fp in patch.files}
    assert by_path["new.txt"].old_path == "/dev/null"
    assert by_path["old.txt"].new_path == "/dev/null"


def test_parse_binary_notice():
    text = "Binary files a/img.png and b/img.png differ\n"
    patch = parse_unified_diff(text)
    assert patch.files[0].hunks == []
    assert patch.files[0].path == "img.png"


def test_parse_rejects_empty_input():
    with pytest.raises(EmptyPatch):
        parse_unified_diff("")
    with pytest.raises(EmptyPatch):
        parse_unified_diff("no diff content here\n")


def test_parse_rejects_hunk_before_header():
    with pytest.raises(EmptyPatch):
        parse_unified_diff("@@ -1 +1 @@\n-a\n+b\n")


def test_parsed_diff_counts_per_hunk():
    patch = parse_unified_diff(TWO_FILE_DIFF)
    assert [h.changed for fp in patch.files for h in fp.hunks] == [1, 2, 1]
    assert categorize_bug(patch) == "MFMH"


def test_hunkless_binary_entry_does_not_count_as_a_file():
    binary = "Binary files a/img.png and b/img.png differ\n"
    one_line = "--- a/x.c\n+++ b/x.c\n@@ -5 +5 @@\n-a\n+b\n"
    assert categorize_bug(parse_unified_diff(binary + one_line)) == "SL"
    with pytest.raises(EmptyPatch):
        categorize_bug(parse_unified_diff(binary))


# categorization: the four definitions as an explicit partition table,
# checked against the implementation's decision cascade
def partition_category(patch: Patch) -> str:
    file_count = len({fp.path for fp in patch.files})
    hunks = [h for fp in patch.files for h in fp.hunks]
    matches = []
    if file_count >= 2:
        matches.append("MFMH")
    if file_count == 1 and len(hunks) >= 2:
        matches.append("SFMH")
    if file_count == 1 and len(hunks) == 1 and hunks[0].changed == 1:
        matches.append("SL")
    if file_count == 1 and len(hunks) == 1 and hunks[0].changed >= 2:
        matches.append("SH")
    assert len(matches) == 1, f"partition not exclusive/total: {matches}"
    return matches[0]


def make_hunk(start: int, removed: int, added: int, context: int = 0) -> Hunk:
    """A hunk at `start` whose body removes and adds the given counts."""
    lines = [" ctx"] * context + ["-old"] * removed + ["+new"] * added
    return Hunk(start, removed + context, start, added + context, lines)


def patch_of(*files: tuple[str, list[Hunk]]) -> Patch:
    return Patch(files=[FilePatch(path, path, hunks) for path, hunks in files])


def random_fix_patch(rng: random.Random) -> Patch:
    files = []
    for i in range(rng.randint(1, 4)):
        hunks = []
        for j in range(rng.randint(1, 3)):
            removed, added = rng.randint(0, 4), rng.randint(0, 4)
            if removed == added == 0:
                added = 1
            hunks.append(make_hunk(10 * j + 1, removed, added, context=2))
        files.append((f"file_{i}.c", hunks))
    return patch_of(*files)


def test_categorize_named_examples():
    assert categorize_bug(patch_of(("x.c", [make_hunk(1, 1, 1)]))) == "SL"
    assert categorize_bug(patch_of(("x.c", [make_hunk(1, 3, 2)]))) == "SH"
    sfmh = patch_of(("x.c", [make_hunk(1, 1, 1), make_hunk(9, 1, 1)]))
    assert categorize_bug(sfmh) == "SFMH"
    mfmh = patch_of(("x.c", [make_hunk(1, 1, 1)]), ("y.c", [make_hunk(1, 1, 1)]))
    assert categorize_bug(mfmh) == "MFMH"


def test_one_for_one_replacement_is_single_line():
    assert categorize_bug(patch_of(("x.c", [make_hunk(5, 1, 1)]))) == "SL"
    assert categorize_bug(patch_of(("x.c", [make_hunk(5, 1, 3)]))) == "SH"
    pure_insert = patch_of(("x.c", [Hunk(5, 0, 6, 1, ["+new"])]))
    assert categorize_bug(pure_insert) == "SL"


def test_categorize_random_against_partition_table():
    rng = random.Random(20240817)
    for _ in range(200):
        patch = random_fix_patch(rng)
        assert categorize_bug(patch) == partition_category(patch)


def test_categorize_empty_patch_raises():
    with pytest.raises(EmptyPatch):
        categorize_bug(Patch(files=[]))


def test_diff_applies_cleanly_back(make_repo, snapshot_worktree):
    repo, shas = make_repo([
        {"a.txt": "one\ntwo\nthree\n"},
        {"a.txt": "one\n2\nthree\n"},
    ])
    diff = gitio.commit_diff(repo, shas[1])
    wt = snapshot_worktree(repo, shas[0])
    subprocess.run(
        ["git", "apply", "-"], input=diff, text=True,
        cwd=wt, check=True, capture_output=True,
    )
    assert (wt / "a.txt").read_text() == "one\n2\nthree\n"
