"""Git plumbing: porcelain blame parsing and repository queries."""

import os
import subprocess

import pytest

from histrepair import blame, context, gitio, sandbox, synth
from histrepair.bugs import FaultLocation, LocalizedLine
from histrepair.config import BUILTIN_ADAPTERS
from histrepair.errors import (
    BlameParseError,
    FileNotInSnapshot,
    GitToolError,
    LineOutOfRange,
)

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
    got = {(c.old_path, c.new_path) for c in gitio.read_commit(repo, shas[1]).changes}
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
    changes = gitio.read_commit(repo, shas[1]).changes
    assert len(changes) == 1
    change = changes[0]
    assert change.old_path == "old_name.txt"
    assert change.new_path == "new_name.txt"


def test_changed_files_root_commit_all_added(make_repo):
    repo, shas = make_repo([{"a.txt": "one\n", "b.txt": "two\n"}])
    got = {(c.old_path, c.new_path) for c in gitio.read_commit(repo, shas[0]).changes}
    assert got == {(None, "a.txt"), (None, "b.txt")}


def test_commit_diff_root_against_empty_tree(make_repo):
    repo, shas = make_repo([{"a.txt": "alpha\n"}])
    diff = gitio.read_commit(repo, shas[0]).diff
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
    assert gitio.read_commit(repo, shas[1]).diff == reference


def test_file_add_commit_survives_later_edits(make_repo):
    repo, shas = make_repo([
        {"a.txt": "v1\n"},
        {"a.txt": "v2\n"},
        {"a.txt": "v3\n"},
    ])
    assert gitio.file_add_commit(repo, shas[2], "a.txt") == (shas[0], 1_600_000_000)


def test_first_parent_and_root(make_repo):
    repo, shas = make_repo([{"a.txt": "1\n"}, {"a.txt": "2\n"}])
    assert gitio.read_commit(repo, shas[0]).parent is None
    assert gitio.read_commit(repo, shas[1]).parent == shas[0]


def test_file_at_versions_and_missing(make_repo):
    repo, shas = make_repo([{"a.txt": "v1\n"}, {"a.txt": "v2\n"}])
    assert gitio.file_at(repo, shas[0], "a.txt") == "v1\n"
    assert gitio.file_at(repo, shas[1], "a.txt") == "v2\n"
    with pytest.raises(FileNotInSnapshot):
        gitio.file_at(repo, shas[0], "missing.txt")


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
    assert gitio.read_commit(repo, shas[0]).message == "snapshot 0"


# --- read_commit against the per-fact readers it replaced -----------------

def _reference_commit(repo, commit):
    """The commit as the former readers saw it: one git process per fact.

    first_parent (`rev-parse`), commit_message (`log`), changed_files
    (`diff --name-status -M`) and commit_diff (`diff -U3`), the last two
    against the first parent or, for a root commit, the empty tree.
    """
    env = {**os.environ, "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True,
                              text=True, errors="replace", env=env).stdout

    parent = git("rev-parse", "--verify", "--quiet", f"{commit}^1").strip() or None
    base = parent or "4b825dc642cb6eb9a060e54bf8d69288fbee4904"  # the empty tree
    changes = []
    for line in git("diff", "--name-status", "-M", base, commit).splitlines():
        status, *paths = line.split("\t")
        if status == "A":
            changes.append(gitio.ChangedFile(None, paths[0]))
        elif status == "D":
            changes.append(gitio.ChangedFile(paths[0], None))
        elif status[0] == "R":
            changes.append(gitio.ChangedFile(paths[0], paths[1]))
        else:
            changes.append(gitio.ChangedFile(paths[0], paths[0]))
    return gitio.Commit(
        parent=parent,
        message=git("log", "-1", "--format=%B", commit).rstrip("\n"),
        changes=tuple(changes),
        diff=git("diff", "-U3", base, commit),
    )


def _history_of_every_kind(make_repo):
    """A repo whose commits are a root, a modify, an add, a delete, a
    rename, a binary change, a mode change, an empty commit and a merge."""
    stable = "stable content line one\nstable content line two\nthree\n"
    repo, shas = make_repo([
        {"a.txt": "one\ntwo\n", "old_name.txt": stable, "b.bin": b"\x00\x01bin"},
        {"a.txt": "one\nTWO\n", "old_name.txt": stable, "b.bin": b"\x00\x01bin"},
        {"a.txt": "one\nTWO\n", "old_name.txt": stable, "b.bin": b"\x00\x01bin",
         "c.txt": "added\n"},
        {"a.txt": "one\nTWO\n", "old_name.txt": stable, "b.bin": b"\x00\x01bin"},
        {"a.txt": "one\nTWO\n", "new_name.txt": stable, "b.bin": b"\x00\x01bin"},
        {"a.txt": "one\nTWO\n", "new_name.txt": stable, "b.bin": b"\x00\x02bin!"},
    ])

    def git(*args, seq=10):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                       env=synth.git_env(seq))

    git("update-index", "--chmod=+x", "a.txt")
    git("commit", "--quiet", "-m", "mode only")
    git("commit", "--quiet", "--allow-empty", "-m", "empty")
    git("checkout", "--quiet", "-b", "side")
    (repo / "side.txt").write_text("side\n")
    git("add", "side.txt")
    git("commit", "--quiet", "-m", "side work", seq=11)
    git("checkout", "--quiet", "main")
    (repo / "a.txt").write_text("one\nTWO\nmain\n")
    git("commit", "--quiet", "-am", "main work", seq=12)
    git("merge", "--quiet", "--no-ff", "side", "-m",
        "merge side\n\nwith a body\n\n", seq=13)
    listed = subprocess.run(["git", "-C", str(repo), "rev-list", "--all"],
                            capture_output=True, text=True, check=True).stdout.split()
    return repo, shas, listed


def test_read_commit_matches_the_per_fact_readers(make_repo):
    repo, shas, commits = _history_of_every_kind(make_repo)
    assert len(commits) == 11
    for commit in commits:
        assert gitio.read_commit(repo, commit) == _reference_commit(repo, commit), commit
    seen = {c: gitio.read_commit(repo, c) for c in commits}
    assert seen[shas[0]].parent is None
    assert {ch.new_path for ch in seen[shas[0]].changes} == {"a.txt", "old_name.txt", "b.bin"}
    assert seen[shas[4]].changes == (gitio.ChangedFile("old_name.txt", "new_name.txt"),)
    assert "Binary files" in seen[shas[5]].diff
    merge = seen[commits[0]]
    assert merge.message == "merge side\n\nwith a body"
    assert merge.changes == (gitio.ChangedFile(None, "side.txt"),)
    assert [c for c in commits if seen[c].changes == () and seen[c].diff == ""]


def test_read_commit_shows_a_root_commit_under_log_show_root_false(make_repo):
    repo, shas = make_repo([{"a.txt": "alpha\n"}, {"a.txt": "beta\n"}])
    subprocess.run(["git", "-C", str(repo), "config", "log.showRoot", "false"], check=True)
    root = gitio.read_commit(repo, shas[0])
    assert root == _reference_commit(repo, shas[0])
    assert root.changes == (gitio.ChangedFile(None, "a.txt"),)
    assert "+alpha" in root.diff


# a rewrite that myers and patience align differently
FROBNITZ = """\
#include <stdio.h>

// Frobs foo heartily
int frobnitz(int foo)
{
    int i;
    for(i = 0; i < 10; i++)
    {
        printf("Your answer is: ");
        printf("%d\\n", foo);
    }
}

int fact(int n)
{
    if(n > 1)
    {
        return fact(n-1) * n;
    }
    return 1;
}

int main(int argc, char **argv)
{
    frobnitz(fact(10));
}
"""
FIB = """\
#include <stdio.h>

int fib(int n)
{
    if(n > 2)
    {
        return fib(n-1) + fib(n-2);
    }
    return 1;
}

// Frobs foo heartily
int frobnitz(int foo)
{
    int i;
    for(i = 0; i < 10; i++)
    {
        printf("%d\\n", foo);
    }
}

int main(int argc, char **argv)
{
    frobnitz(fib(10));
}
"""
TWENTY = "".join(f"{n}\n" for n in range(1, 21))


@pytest.mark.parametrize("key", ["diff.orderFile", "diff.algorithm", "diff.interHunkContext",
                                 "color.diff"])
def test_read_commit_ignores_host_diff_settings(make_repo, tmp_path, key):
    # b.c's two changes are 12 lines apart: separate hunks at -U3, one
    # hunk under a larger inter-hunk context
    repo, shas = make_repo([
        {"a.c": FROBNITZ, "b.c": TWENTY, "c.c": "c\n"},
        {"a.c": FIB, "b.c": TWENTY.replace("2\n", "TWO\n", 1).replace("15\n", "XV\n"),
         "c.c": "C\n"},
    ])
    order = tmp_path / "order.txt"
    order.write_text("c*\nb.c\n")
    value = {"diff.orderFile": str(order), "diff.algorithm": "patience",
             "diff.interHunkContext": "10", "color.diff": "always"}[key]
    clean = gitio.read_commit(repo, shas[1])
    assert [c.new_path for c in clean.changes] == ["a.c", "b.c", "c.c"]
    plain = gitio.run_git(repo, "show", shas[1])
    gitio.run_git(repo, "config", key, value)
    assert gitio.run_git(repo, "show", shas[1]) != plain  # the setting takes effect
    assert gitio.read_commit(repo, shas[1]) == clean


# --- paths git would C-quote ------------------------------------------------

CAFE_BEFORE = "int brew(int a) {\n    return a + 1;\n}\n\nint pour(int b) {\n    return b;\n}\n"
CAFE_AFTER = CAFE_BEFORE.replace("a + 1", "a + 2")


def test_non_ascii_path_keeps_its_history_contexts(make_repo):
    repo, shas = make_repo([
        {"café.c": CAFE_BEFORE, "b.c": "int b() {\n    return 0;\n}\n"},
        {"café.c": CAFE_AFTER, "b.c": "int b() {\n    return 1;\n}\n"},
    ])
    location = FaultLocation("café.c", (LocalizedLine(line=2, kind="modified"),))
    entry = blame.blame_lines(repo, shas[1], location)[0]
    assert (entry.commit_id, entry.commit_path) == (shas[1], "café.c")

    pair = context.build_context(repo, "fn_pair", shas[1], entry=entry).payload
    assert pair.before.body_text == "int brew(int a) {\n    return a + 1;\n}"
    assert pair.after.body_text == "int brew(int a) {\n    return a + 2;\n}"
    fn_all = context.build_context(repo, "fn_all", shas[1]).payload
    assert {(e.file_path, e.names, e.note) for e in fn_all.entries} == \
        {("café.c", ("brew", "pour"), ""), ("b.c", ("b",), "")}
    diff = context.build_context(repo, "fl_diff", shas[1]).payload.diff_text
    assert "diff --git a/café.c b/café.c\n" in diff
    assert "--- a/café.c\n+++ b/café.c\n" in diff


QUOTED = 'a"b.c'          # git C-quotes a path holding '"' or a backslash
BACKSLASHED = "tab\\there.c"
QUOTED_BEFORE = ("int f(void) {\n    return 1;\n}\nint g(void) {\n    return 2;\n}\n"
                 "int k(void) {\n    return 4;\n}\n")
# a new function above g shifts it, so only the diff's hunks map its
# changed line back to g; read as is, the line falls in k
QUOTED_AFTER = QUOTED_BEFORE.replace(
    "int g(void) {\n    return 2;",
    "int h(void) {\n    return 9;\n}\nint g(void) {\n    return 3;")


def test_c_quoted_paths_keep_their_history_contexts(make_repo):
    repo, shas = make_repo([
        {QUOTED: QUOTED_BEFORE, BACKSLASHED: "int t(void) {\n    return 0;\n}\n"},
        {QUOTED: QUOTED_AFTER, BACKSLASHED: "int t(void) {\n    return 0;\n}\n"},
    ])
    added = gitio.read_commit(repo, shas[0])
    assert {c.new_path for c in added.changes} == {QUOTED, BACKSLASHED}
    fn_all = context.build_context(repo, "fn_all", shas[0]).payload
    assert {(e.file_path, e.names, e.note) for e in fn_all.entries} == \
        {(QUOTED, ("f", "g", "k"), ""), (BACKSLASHED, ("t",), "")}

    location = FaultLocation(QUOTED, (LocalizedLine(line=8, kind="modified"),))
    entry = blame.blame_lines(repo, shas[1], location)[0]
    assert (entry.commit_id, entry.commit_path) == (shas[1], QUOTED)
    pair = context.build_context(repo, "fn_pair", shas[1], entry=entry).payload
    assert pair.before.body_text == "int g(void) {\n    return 2;\n}"
    assert pair.after.body_text == "int g(void) {\n    return 3;\n}"
    # the fl_diff text stays git's own
    diff = context.build_context(repo, "fl_diff", shas[1]).payload.diff_text
    assert '--- "a/a\\"b.c"\n+++ "b/a\\"b.c"\n' in diff


def test_final_patch_of_a_non_ascii_path_verifies(tmp_path):
    toy = synth.build_toy_campaign(tmp_path / "toy")
    handle = sandbox.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                               BUILTIN_ADAPTERS["local-python"])
    try:
        sandbox.exec_command(handle, "sed -i 's/a - b  # fast path/a + b/' calc.py")
        sandbox.exec_command(handle, "echo 'SHOTS = 2' > café.py")
        patch = sandbox.final_patch(handle)
        assert "diff --git a/café.py b/café.py\n" in patch
        assert sandbox.verify(handle, patch, gitio.CallMemo())
    finally:
        sandbox.teardown(handle, tmp_path / "artifacts", "")


def test_snapshot_worktree_checks_out_under_tmp_path(make_repo, snapshot_worktree, tmp_path):
    repo, shas = make_repo([{"a.txt": "v1\n"}, {"a.txt": "v2\n"}])
    path = snapshot_worktree(repo, shas[0])
    assert path.parent == tmp_path
    assert (path / "a.txt").read_text() == "v1\n"
    assert gitio.run_git(path, "rev-parse", "HEAD").strip() == shas[0]
