"""Unified diff parsing and fix-patch categorization."""

import random
import subprocess

import pytest

from histrepair import gitio
from histrepair.bugs import (
    FixHunk,
    FixPatch,
    categorize_bug,
    fix_patch_from_diff,
)
from histrepair.errors import EmptyPatch
from histrepair.patches import parse_unified_diff

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
@@ -40,4 +40,6 @@
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
    assert patch.file_count == 2
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


def test_parse_git_style_headers(make_repo):
    repo, shas = make_repo([
        {"a.txt": "one\ntwo\nthree\nfour\nfive\n"},
        {"a.txt": "one\nTWO\nthree\nfour\n"},
    ])
    diff = gitio.commit_diff(repo, shas[1])
    patch = parse_unified_diff(diff)
    assert patch.file_count == 1
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
    assert patch.files[0].binary
    assert patch.files[0].path == "img.png"


def test_parse_rejects_empty_input():
    with pytest.raises(EmptyPatch):
        parse_unified_diff("")
    with pytest.raises(EmptyPatch):
        parse_unified_diff("no diff content here\n")


def test_parse_rejects_hunk_before_header():
    with pytest.raises(EmptyPatch):
        parse_unified_diff("@@ -1 +1 @@\n-a\n+b\n")


def test_fix_patch_from_diff_counts():
    fix = fix_patch_from_diff(parse_unified_diff(TWO_FILE_DIFF))
    assert fix.file_count == 2
    assert fix.hunk_count == 3
    assert [h.changed for h in fix.hunks] == [1, 2, 1]


# categorization: the four definitions as an explicit partition table,
# checked against the implementation's decision cascade
def partition_category(patch: FixPatch) -> str:
    file_count = len({h.file_path for h in patch.hunks})
    hunk_count = len(patch.hunks)
    matches = []
    if file_count >= 2:
        matches.append("MFMH")
    if file_count == 1 and hunk_count >= 2:
        matches.append("SFMH")
    if file_count == 1 and hunk_count == 1 and patch.hunks[0].changed == 1:
        matches.append("SL")
    if file_count == 1 and hunk_count == 1 and patch.hunks[0].changed >= 2:
        matches.append("SH")
    assert len(matches) == 1, f"partition not exclusive/total: {matches}"
    return matches[0]


def make_hunk(rng: random.Random, path: str, start: int) -> FixHunk:
    removed = rng.randint(0, 4)
    added = rng.randint(0, 4)
    if max(removed, added) == 0:
        added = 1
    return FixHunk(
        file_path=path, old_start=start, old_len=removed + 2,
        new_start=start, new_len=added + 2,
        removed=removed, added=added,
    )


def random_fix_patch(rng: random.Random) -> FixPatch:
    n_files = rng.randint(1, 4)
    hunks = []
    for i in range(n_files):
        path = f"file_{i}.c"
        for j in range(rng.randint(1, 3)):
            hunks.append(make_hunk(rng, path, 10 * j + 1))
    return FixPatch(hunks=tuple(hunks))


def test_categorize_named_examples():
    sl = FixPatch(hunks=(FixHunk("x.c", 1, 1, 1, 1, removed=1, added=1),))
    assert categorize_bug(sl) == "SL"
    sh = FixPatch(hunks=(FixHunk("x.c", 1, 3, 1, 3, removed=3, added=2),))
    assert categorize_bug(sh) == "SH"
    sfmh = FixPatch(hunks=(
        FixHunk("x.c", 1, 1, 1, 1, removed=1, added=1),
        FixHunk("x.c", 9, 1, 9, 1, removed=1, added=1),
    ))
    assert categorize_bug(sfmh) == "SFMH"
    mfmh = FixPatch(hunks=(
        FixHunk("x.c", 1, 1, 1, 1, removed=1, added=1),
        FixHunk("y.c", 1, 1, 1, 1, removed=1, added=1),
    ))
    assert categorize_bug(mfmh) == "MFMH"


def test_one_for_one_replacement_is_single_line():
    swap = FixPatch(hunks=(FixHunk("x.c", 5, 1, 5, 1, removed=1, added=1),))
    assert categorize_bug(swap) == "SL"
    grow = FixPatch(hunks=(FixHunk("x.c", 5, 1, 5, 3, removed=1, added=3),))
    assert categorize_bug(grow) == "SH"
    pure_insert = FixPatch(hunks=(FixHunk("x.c", 5, 0, 6, 1, removed=0, added=1),))
    assert categorize_bug(pure_insert) == "SL"


def test_categorize_random_against_partition_table():
    rng = random.Random(20240817)
    for _ in range(200):
        patch = random_fix_patch(rng)
        assert categorize_bug(patch) == partition_category(patch)


def test_categorize_empty_patch_raises():
    with pytest.raises(EmptyPatch):
        categorize_bug(FixPatch(hunks=()))


def test_diff_applies_cleanly_back(make_repo, tmp_path):
    repo, shas = make_repo([
        {"a.txt": "one\ntwo\nthree\n"},
        {"a.txt": "one\n2\nthree\n"},
    ])
    diff = gitio.commit_diff(repo, shas[1])
    with gitio.snapshot_worktree(repo, shas[0]) as wt:
        subprocess.run(
            ["git", "apply", "-"], input=diff, text=True,
            cwd=wt.path, check=True, capture_output=True,
        )
        assert (wt.path / "a.txt").read_text() == "one\n2\nthree\n"
