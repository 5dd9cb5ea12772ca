"""Blame resolution, fallback anchoring, and the availability study."""

import json
import random

import pytest

from histrepair import blame, synth
from histrepair.bugs import (
    BugRecord,
    BugSpec,
    FaultLocation,
    LocalizedLine,
)
from histrepair.errors import (
    JudgeError,
    NewFileNoHistory,
    NoFallbackAnchor,
)
from histrepair.patches import parse_unified_diff


def spec_for(ref, path, lines, bug_id="bug-x", kinds=None):
    kinds = kinds or ["modified"] * len(lines)
    return BugSpec(
        bug_id=bug_id,
        snapshot_ref=ref,
        locations=(FaultLocation(
            file_path=path,
            lines=tuple(LocalizedLine(line=n, kind=k)
                        for n, k in zip(lines, kinds)),
        ),),
        failing_tests=("t",),
    )


def test_blame_entries_match_construction_record(ground_truth_repo):
    gt = ground_truth_repo
    rng = random.Random(7)
    for i in range(10):
        spec, expected_commits = synth.make_blameable_spec(gt, rng, f"b{i}")
        summary = blame.summarize_blame(gt.path, spec, judge=lambda candidates: 0)
        assert summary.blameability == "Blameable"
        assert set(summary.unique_commits) == expected_commits
        for entry in summary.entries:
            assert entry.commit_id == gt.line_owner(entry.file_path, entry.line_number)
            assert not entry.is_fallback


def test_single_commit_resolution(make_repo):
    repo, shas = make_repo([{"f.c": "int a = 1;\nint b = 2;\n"}])
    summary = blame.summarize_blame(repo, spec_for(shas[0], "f.c", [1, 2]))
    assert summary.resolution_method == "single"
    assert summary.resolved_commit == shas[0]
    assert summary.unique_commits == frozenset({shas[0]})


def test_judge_called_with_ordered_candidates(make_repo):
    # a form feed is not a line break for git, so it is line 2 of 3
    repo, shas = make_repo([
        {"f.c": "int a = 1;\n\x0c\nint b = 2;\n"},
        {"f.c": "int a = 1;\n\x0c\nint b = 99;\n"},
    ])
    seen = {}

    def judge(candidates):
        seen["ids"] = [c.commit_id for c in candidates]
        return 1

    summary = blame.summarize_blame(
        repo, spec_for(shas[1], "f.c", [1, 3]), judge=judge,
    )
    # blame order: line 1 -> first commit, line 3 -> second commit
    assert seen["ids"] == [shas[0], shas[1]]
    assert summary.resolution_method == "judge"
    assert summary.resolved_commit == shas[1]


def test_default_judge_prefers_most_recent(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\n"},
        {"f.c": "int a = 1;\nint b = 99;\n"},
    ])
    summary = blame.summarize_blame(repo, spec_for(shas[1], "f.c", [1, 2]))
    assert summary.resolved_commit == shas[1]


def test_two_candidate_judge_reads_each_fact_once(make_repo, monkeypatch):
    # two lines per candidate in one file: one blame, and the judge
    # sees only the commit ids and author times the blame reported
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\nint c = 3;\nint d = 4;\n"},
        {"f.c": "int a = 1;\nint b = 2;\nint c = 30;\nint d = 40;\n"},
    ])
    spawned = []
    real_run = blame.gitio.subprocess.run

    def counting_run(argv, *args, **kwargs):
        spawned.append(argv[3])
        return real_run(argv, *args, **kwargs)
    seen = []

    def recording_judge(candidates):
        seen.extend(candidates)
        return blame.most_recent_judge_factory(repo)(candidates)
    monkeypatch.setattr(blame.gitio.subprocess, "run", counting_run)
    spec = spec_for(shas[1], "f.c", [1, 2, 3, 4])
    default = blame.summarize_blame(repo, spec)
    counted = list(spawned)
    recorded = blame.summarize_blame(repo, spec, judge=recording_judge)
    monkeypatch.undo()

    assert counted == ["blame"]
    assert default.resolved_commit == recorded.resolved_commit == shas[1]
    assert seen == [
        blame.JudgeCandidate(shas[0], synth.BASE_TIME),
        blame.JudgeCandidate(shas[1], synth.BASE_TIME + 86_400),
    ]


def test_judge_exception_becomes_judge_error(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\n"},
        {"f.c": "int a = 1;\nint b = 99;\n"},
    ])

    def broken(candidates):
        raise RuntimeError("model unavailable")

    with pytest.raises(JudgeError) as err:
        blame.summarize_blame(repo, spec_for(shas[1], "f.c", [1, 2]), judge=broken)
    assert str(err.value) == f"model unavailable (candidates: {shas[0]}, {shas[1]})"


def test_judge_bad_index_becomes_judge_error(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\n"},
        {"f.c": "int a = 1;\nint b = 99;\n"},
    ])
    for bad in (lambda c: 99, lambda c: -1, lambda c: "first"):
        with pytest.raises(JudgeError):
            blame.summarize_blame(repo, spec_for(shas[1], "f.c", [1, 2]), judge=bad)


def test_fallback_blame_anchors_above(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\n// note\n}\nint b = 2;\n"},
    ])
    entry = blame.fallback_blame(repo, shas[0], "f.c", 4)
    assert entry.line_number == 1
    assert entry.is_fallback
    assert entry.anchor_note == ""
    assert entry.commit_id == shas[0]


def test_fallback_blame_scans_to_line_one(make_repo):
    comments = "".join(f"// c{i}\n" for i in range(7))
    repo, shas = make_repo([{"f.c": "int a = 1;\n" + comments, "g.c": comments}])
    # insertion at line 9: lines 8..2 are comments, so the anchor is line 1
    entry = blame.fallback_blame(repo, shas[0], "f.c", 9)
    assert entry.line_number == 1
    assert entry.anchor_note == "window extended to 8 lines"
    with pytest.raises(NoFallbackAnchor):
        blame.fallback_blame(repo, shas[0], "g.c", 8)


def test_fallback_missing_file(make_repo):
    repo, shas = make_repo([{"f.c": "int a = 1;\n"}])
    with pytest.raises(NewFileNoHistory):
        blame.fallback_blame(repo, shas[0], "ghost.c", 3)


def test_resolve_insertion_extends_window_with_note(make_repo):
    src = "int a = 1;\n" + "".join(f"// c{i}\n" for i in range(7))
    repo, shas = make_repo([{"f.c": src}])
    entry = blame.resolve_insertion(repo, shas[0], "f.c", 9)
    assert entry.line_number == 1
    assert entry.commit_id == shas[0]
    assert entry.anchor_note == "window extended to 8 lines"


def test_resolve_insertion_falls_back_to_file_add(make_repo):
    repo, shas = make_repo([
        {"notes.c": "// a\n// b\n// c\n"},
        {"notes.c": "// a\n// b\n// c\n", "other.c": "int x;\n"},
    ])
    entry = blame.resolve_insertion(repo, shas[1], "notes.c", 4)
    assert entry.commit_id == shas[0]
    assert entry.author_time == synth.BASE_TIME
    assert entry.line_number == 1
    assert entry.anchor_note == (
        "no executable line above insertion; using file add commit"
    )


@pytest.mark.parametrize("above, insert_line, anchor_line", [
    ("int version = 1;\n", 1003, 1),  # the anchor sits above the header
    ("", 1002, None),                  # nothing executable: file add commit
])
def test_resolve_insertion_below_long_header_is_one_read_one_scan(
        make_repo, monkeypatch, above, insert_line, anchor_line):
    header = "/*\n" + "".join(f" * license line {i}\n" for i in range(1000)) + " */\n"
    repo, shas = make_repo([{"f.c": above + header + "int x = 2;\n"}])
    spawned, scans = [], []
    real_run, real_scan = blame.gitio.subprocess.run, blame.executable_line_numbers

    def counting_run(argv, *args, **kwargs):
        spawned.append(argv)
        return real_run(argv, *args, **kwargs)

    def counting_scan(text):
        scans.append(len(text))
        return real_scan(text)
    monkeypatch.setattr(blame.gitio.subprocess, "run", counting_run)
    monkeypatch.setattr(blame, "executable_line_numbers", counting_scan)
    entry = blame.resolve_insertion(repo, shas[0], "f.c", insert_line)
    monkeypatch.undo()

    assert len(spawned) <= 2, spawned
    assert len(scans) == 1
    assert entry.commit_id == shas[0]
    if anchor_line is None:
        assert entry.line_number == 1
        assert entry.anchor_note.startswith("no executable line above insertion")
    else:
        assert entry.line_number == anchor_line
        assert entry.anchor_note == f"window extended to {insert_line - anchor_line} lines"


def test_blameless_summary_majority_fallback(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\n"},
        {"f.c": "int a = 1;\nint b = 2;\nint c = 3;\nint d = 4;\n"},
    ])
    # anchors: line 2 -> first commit; lines 4 and 5 -> second commit
    spec = spec_for(shas[1], "f.c", [2, 4, 5],
                    kinds=["insertion_point"] * 3)
    summary = blame.summarize_blame(repo, spec)
    assert summary.blameability == "Blameless"
    assert summary.unique_commits == frozenset()
    assert summary.resolution_method == "fallback"
    assert summary.resolved_commit == shas[1]
    assert all(e.is_fallback for e in summary.entries)


def test_blameless_tie_breaks_by_recency(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\n"},
        {"f.c": "int a = 1;\nint b = 2;\nint c = 3;\n"},
    ])
    # one anchor each: line 2 -> first commit, line 4 -> second commit
    spec = spec_for(shas[1], "f.c", [2, 4], kinds=["insertion_point"] * 2)
    summary = blame.summarize_blame(repo, spec)
    assert summary.resolved_commit == shas[1]  # newer author time wins


def test_insertion_window_matches_construction_oracle(ground_truth_repo):
    gt = ground_truth_repo
    rng = random.Random(21)
    for i in range(15):
        spec, path, insert_at = synth.make_insertion_spec(gt, rng, f"ins{i}")
        expected_anchor = gt.expected_anchor(path, insert_at)
        summary = blame.summarize_blame(gt.path, spec)
        entry = summary.entries[0]
        if expected_anchor is None:
            assert entry.commit_id == gt.file_add_commit[path]
            assert entry.line_number == 1
        else:
            assert entry.line_number == expected_anchor
            assert entry.commit_id == gt.line_owner(path, expected_anchor)
            if insert_at - expected_anchor > blame.FALLBACK_WINDOW:
                assert entry.anchor_note


def test_summary_is_deterministic(ground_truth_repo):
    gt = ground_truth_repo
    spec, _ = synth.make_blameable_spec(gt, random.Random(3), "rep")
    a = blame.summarize_blame(gt.path, spec, judge=lambda candidates: 0)
    b = blame.summarize_blame(gt.path, spec, judge=lambda candidates: 0)
    assert a == b


# --- availability study -----------------------------------------------------

def one_line_patch(path="f.c"):
    return parse_unified_diff(f"--- a/{path}\n+++ b/{path}\n@@ -1 +1 @@\n-a\n+b\n")


def multi_hunk_patch(path="f.c"):
    return parse_unified_diff(
        f"--- a/{path}\n+++ b/{path}\n@@ -1 +1 @@\n-a\n+b\n"
        "@@ -8,2 +8,2 @@\n-c\n-d\n+e\n+f\n"
    )


def test_availability_study_counts_and_exclusions(make_repo):
    repo, shas = make_repo([
        {"f.c": "int a = 1;\nint b = 2;\nint c = 3;\n"},
    ])
    records = [
        BugRecord(spec=spec_for(shas[0], "f.c", [2], bug_id="able-1"), repo_path=repo),
        BugRecord(
            spec=spec_for(shas[0], "f.c", [2], bug_id="less-1",
                          kinds=["insertion_point"]),
            repo_path=repo,
        ),
        BugRecord(spec=spec_for(shas[0], "f.c", [1], bug_id="no-patch"), repo_path=repo),
        BugRecord(spec=spec_for(shas[0], "ghost.c", [1], bug_id="bad-file"), repo_path=repo),
    ]
    patches = {
        "able-1": one_line_patch(),
        "less-1": multi_hunk_patch(),
        "bad-file": one_line_patch(),
    }
    report = blame.run_availability_study(records, patches)

    assert report.dataset_size == 4
    assert len(report.rows) == 2
    counts = report.counts()
    assert counts["SL"] == {"Blameable": 1, "Blameless": 0}
    assert counts["SFMH"] == {"Blameable": 0, "Blameless": 1}
    assert report.histogram() == {0: 1, 1: 1}

    reasons = dict(report.exclusions)
    assert reasons["no-patch"] == "no fix patch in manifest"
    assert "FileNotInSnapshot" in reasons["bad-file"]


def test_availability_table_renders_counts(make_repo):
    repo, shas = make_repo([{"f.c": "int a = 1;\n"}])
    records = [
        BugRecord(spec=spec_for(shas[0], "f.c", [1], bug_id="only"), repo_path=repo),
    ]
    report = blame.run_availability_study(records, {"only": one_line_patch()})
    text = blame.render_availability_table(report)
    assert "SL" in text
    assert "100.0" in text
    assert "Unique blame commits per bug:" in text
    assert "  1: 1" in text


def test_study_outputs_written(make_repo, tmp_path):
    repo, shas = make_repo([{"f.c": "int a = 1;\n"}])
    records = [
        BugRecord(spec=spec_for(shas[0], "f.c", [1], bug_id="only"), repo_path=repo),
    ]
    report = blame.run_availability_study(records, {"only": one_line_patch()})
    out = tmp_path / "study"
    blame.write_study_outputs(report, out)
    assert (out / "availability.txt").exists()
    rows = [json.loads(l) for l in
            (out / "availability_records.jsonl").read_text().splitlines()]
    assert rows[0]["bug_id"] == "only"
    assert rows[0]["category"] == "SL"
    assert rows[0]["blameability"] == "Blameable"
