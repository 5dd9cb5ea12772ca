"""Git plumbing: porcelain blame parsing and repository queries."""

import subprocess

import pytest

from histrepair import gitio
from histrepair.errors import (
    BlameParseError,
    FileNotInSnapshot,
    GitToolError,
    LineOutOfRange,
)
from histrepair.patches import Hunk

SHA_A = "a" * 40
SHA_B = "b" * 40

# hand-written porcelain output: two lines, second block reorders its
# headers and adds boundary/previous records
PORCELAIN = f"""\
{SHA_A} 2 1
author Alice
author-mail <alice@example.invalid>
author-time 1600000000
author-tz +0000
committer Alice
committer-mail <alice@example.invalid>
committer-time 1600000000
committer-tz +0000
summary first change
filename src/foo.c
\tint a = 1;
{SHA_B} 7 2
filename src/renamed.c
summary second change
boundary
previous {SHA_A} src/foo.c
author-time 1600086400
author Bob
author-mail <bob@example.invalid>
author-tz +0000
committer Bob
committer-mail <bob@example.invalid>
committer-time 1600086400
committer-tz +0000
\tint b = 2;
"""


def test_parse_porcelain_basic_fields():
    lines = gitio.parse_porcelain_blame(PORCELAIN)
    assert len(lines) == 2
    form_feed = PORCELAIN.replace("\tint b = 2;", "\tint b = 2;\x0c int c = 3;")
    assert gitio.parse_porcelain_blame(form_feed) == lines
    first = lines[0]
    assert first.commit_id == SHA_A
    assert first.orig_line == 2
    assert first.final_line == 1
    assert first.author_time == 1600000000
    assert first.orig_filename == "src/foo.c"
    assert first.headers["summary"] == "first change"


def test_parse_porcelain_tolerates_header_reordering():
    second = gitio.parse_porcelain_blame(PORCELAIN)[1]
    assert second.commit_id == SHA_B
    assert second.orig_line == 7
    assert second.final_line == 2
    assert second.author_time == 1600086400
    assert second.orig_filename == "src/renamed.c"
    assert second.headers["boundary"] is True
    assert second.headers["previous"].startswith(SHA_A)


def test_parse_porcelain_rejects_unknown_record():
    bad = PORCELAIN.replace("summary first change", "frobnicate yes")
    with pytest.raises(BlameParseError):
        gitio.parse_porcelain_blame(bad)


def test_parse_porcelain_rejects_truncation():
    truncated = PORCELAIN.rsplit("\tint b = 2;", 1)[0]
    with pytest.raises(BlameParseError):
        gitio.parse_porcelain_blame(truncated)


def test_parse_porcelain_rejects_garbage_commit_line():
    with pytest.raises(BlameParseError):
        gitio.parse_porcelain_blame("not a blame line\n\tcontent\n")


def test_blame_lines_attribute_to_last_touch(make_repo):
    repo, shas = make_repo([
        {"f.c": "alpha\nbravo\ncharlie\n"},
        {"f.c": "alpha\nBRAVO CHANGED\ncharlie\n"},
    ])
    expected = {1: shas[0], 2: shas[1], 3: shas[0]}
    got = gitio.blame_file_lines(repo, shas[1], "f.c", [1, 2, 3])
    assert {bl.final_line: bl.commit_id for bl in got} == expected


def test_blame_reports_original_line_numbers(make_repo):
    # commit 2 inserts a line at the top, shifting alpha from 1 to 2
    repo, shas = make_repo([
        {"f.c": "alpha\nbravo\n"},
        {"f.c": "inserted\nalpha\nbravo\n"},
    ])
    got = gitio.blame_file_lines(repo, shas[1], "f.c", [1, 2])
    by_final = {bl.final_line: bl for bl in got}
    assert by_final[1].commit_id == shas[1]
    assert by_final[1].orig_line == 1
    assert by_final[2].commit_id == shas[0]
    assert by_final[2].orig_line == 1


def test_blame_batches_noncontiguous_ranges(make_repo):
    repo, shas = make_repo([{"f.c": "l1\nl2\nl3\nl4\nl5\n"}])
    got = gitio.blame_file_lines(repo, shas[0], "f.c", [5, 1, 3])
    assert sorted(bl.final_line for bl in got) == [1, 3, 5]


def test_blame_missing_file_raises(make_repo):
    repo, shas = make_repo([{"f.c": "x\n"}])
    with pytest.raises(FileNotInSnapshot):
        gitio.blame_file_lines(repo, shas[0], "nope.c", [1])


def test_blame_line_out_of_range_raises(make_repo):
    repo, shas = make_repo([{"f.c": "x\ny\n"}])
    with pytest.raises(LineOutOfRange):
        gitio.blame_file_lines(repo, shas[0], "f.c", [99])


def test_changed_files_statuses(make_repo):
    repo, shas = make_repo([
        {"a.txt": "one\n", "b.txt": "two\n"},
        {"a.txt": "one changed\n", "c.txt": "three\n"},
    ])
    got = {(c.old_path, c.new_path) for c in gitio.changed_files(repo, shas[1])}
    assert got == {
        ("a.txt", "a.txt"),   # modified
        ("b.txt", None),      # deleted
        (None, "c.txt"),      # added
    }


def test_changed_files_detects_renames(make_repo):
    body = "stable content line one\nstable content line two\n"
    repo, shas = make_repo([
        {"old_name.txt": body},
        {"new_name.txt": body},
    ])
    changes = gitio.changed_files(repo, shas[1])
    assert len(changes) == 1
    change = changes[0]
    assert change.old_path == "old_name.txt"
    assert change.new_path == "new_name.txt"


def test_changed_files_root_commit_all_added(make_repo):
    repo, shas = make_repo([{"a.txt": "one\n", "b.txt": "two\n"}])
    got = {(c.old_path, c.new_path) for c in gitio.changed_files(repo, shas[0])}
    assert got == {(None, "a.txt"), (None, "b.txt")}


def test_commit_diff_root_against_empty_tree(make_repo):
    repo, shas = make_repo([{"a.txt": "alpha\n"}])
    diff = gitio.commit_diff(repo, shas[0])
    assert "--- /dev/null" in diff
    assert "+alpha" in diff


def test_commit_diff_matches_reference_invocation(make_repo):
    repo, shas = make_repo([
        {"a.txt": "one\ntwo\nthree\n"},
        {"a.txt": "one\nTWO\nthree\n"},
    ])
    reference = subprocess.run(
        ["git", "-C", str(repo), "diff", "-U3", shas[0], shas[1]],
        capture_output=True, text=True, check=True,
    ).stdout
    assert gitio.commit_diff(repo, shas[1]) == reference


def test_file_add_commit_survives_later_edits(make_repo):
    repo, shas = make_repo([
        {"a.txt": "v1\n"},
        {"a.txt": "v2\n"},
        {"a.txt": "v3\n"},
    ])
    assert gitio.file_add_commit(repo, shas[2], "a.txt") == (shas[0], 1_600_000_000)


def test_first_parent_and_root(make_repo):
    repo, shas = make_repo([{"a.txt": "1\n"}, {"a.txt": "2\n"}])
    assert gitio.first_parent(repo, shas[0]) is None
    assert gitio.first_parent(repo, shas[1]) == shas[0]


def test_file_at_versions_and_missing(make_repo):
    repo, shas = make_repo([{"a.txt": "v1\n"}, {"a.txt": "v2\n"}])
    assert gitio.file_at(repo, shas[0], "a.txt") == "v1\n"
    assert gitio.file_at(repo, shas[1], "a.txt") == "v2\n"
    with pytest.raises(FileNotInSnapshot):
        gitio.file_at(repo, shas[0], "missing.txt")


def test_diff_hunks_ignore_user_diff_settings(make_repo):
    repo, shas = make_repo([
        {"a.txt": "1\n2\n3\n4\n5\n6\n7\n"},
        {"a.txt": "1\nTWO\n3\n4\n5\n6\n7\nEIGHT\n"},
    ])
    expected = [Hunk(2, 1, 2, 1, ["-2", "+TWO"]), Hunk(7, 0, 8, 1, ["+EIGHT"])]
    assert gitio.diff_hunks(repo, shas[0], shas[1], "a.txt") == expected
    assert gitio.diff_hunks(repo, shas[1], shas[1], "a.txt") == []
    # settings that would merge the hunks, swap the algorithm, colour
    # the headers or hand the diff to another program
    for key, value in (("diff.interHunkContext", "10"), ("diff.algorithm", "patience"),
                       ("color.diff", "always"), ("diff.external", "false")):
        subprocess.run(["git", "-C", str(repo), "config", key, value], check=True)
    assert gitio.diff_hunks(repo, shas[0], shas[1], "a.txt") == expected


def test_resolve_ref_and_errors(make_repo):
    repo, shas = make_repo([{"a.txt": "1\n"}, {"a.txt": "2\n"}])
    assert gitio.run_git(repo, "rev-parse", "HEAD").strip() == shas[1]
    assert gitio.run_git(repo, "rev-parse", "HEAD^{tree}") != \
           gitio.run_git(repo, "rev-parse", f"{shas[0]}^{{tree}}")
    with pytest.raises(GitToolError) as err:
        gitio.run_git(repo, "rev-parse", "--verify", "no-such-ref^{commit}")
    assert err.value.stderr


def test_commit_metadata(make_repo):
    repo, shas = make_repo([{"a.txt": "1\n"}, {"a.txt": "2\n"}])
    assert gitio.commit_subjects(repo, [shas[1], shas[0]]) == {
        shas[0]: "snapshot 0", shas[1]: "snapshot 1"}
    assert gitio.commit_message(repo, shas[0]) == "snapshot 0"


def test_snapshot_worktree_checks_out_under_tmp_path(make_repo, snapshot_worktree, tmp_path):
    repo, shas = make_repo([{"a.txt": "v1\n"}, {"a.txt": "v2\n"}])
    path = snapshot_worktree(repo, shas[0])
    assert path.parent == tmp_path
    assert (path / "a.txt").read_text() == "v1\n"
    assert gitio.run_git(path, "rev-parse", "HEAD").strip() == shas[0]
