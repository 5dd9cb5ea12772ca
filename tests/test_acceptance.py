"""Acceptance gate: nine go/no-go checks, one printed verdict each.

Every test prints exactly one `[ACCEPTANCE] <criterion>: PASS|FAIL`
line to the real stdout so the verdicts stay visible under pytest's
output capture. Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, rankdata

from histrepair import blame, cli, context, gitio, loop, metrics, sandbox as sb, stats, synth
from histrepair.bugs import FaultLocation, LocalizedLine, categorize_bug
from histrepair.config import BUILTIN_ADAPTERS
from histrepair.loop import GuardConfig, LoopHarness
from histrepair.provider import ScriptedProvider
from histrepair.records import load_run_record

from test_patches import partition_category, random_fix_patch

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdict_channel(request):
    # verdict lines must reach the terminal even under fd capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def announce(name: str, ok: bool) -> None:
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        announce(name, False)
        raise
    announce(name, True)


# --- 1: blame attribution against construction records ---------------------

def test_01_blame_fidelity_on_synthetic_repos(tmp_path):
    with criterion("blame-fidelity-synthetic"):
        start = time.monotonic()
        mismatches = 0
        checked = 0
        for seed in range(20):
            gt = synth.build_ground_truth_repo(
                tmp_path / f"repo{seed}", random.Random(seed), n_commits=6,
            )
            for name, tracked in gt.files.items():
                location = FaultLocation(
                    file_path=name,
                    lines=tuple(LocalizedLine(line=i + 1, kind="modified")
                                for i in range(len(tracked))),
                )
                entries = blame.blame_lines(gt.path, gt.head, location)
                for i, entry in enumerate(entries):
                    checked += 1
                    if entry.commit_id != gt.line_owner(name, i + 1):
                        mismatches += 1
        elapsed = time.monotonic() - start
        assert checked >= 20 * 3  # every repo contributed lines
        assert mismatches == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- 2: categorization equals the brute-force partition ---------------------

def test_02_categorization_matches_partition_oracle():
    with criterion("category-partition-500"):
        rng = random.Random(500)
        agree = 0
        for _ in range(500):
            patch = random_fix_patch(rng)
            if categorize_bug(patch) == partition_category(patch):
                agree += 1
        assert agree == 500


# --- 3: insertion fallback against construction anchors ---------------------

def test_03_insertion_fallback_respects_anchor_policy(tmp_path):
    with criterion("insertion-fallback-100"):
        violations = 0
        cases = 0
        seed = 0
        while cases < 100:
            gt = synth.build_ground_truth_repo(
                tmp_path / f"ins{seed}", random.Random(1000 + seed),
                n_commits=5,
            )
            rng = random.Random(2000 + seed)
            for _ in range(12):
                if cases >= 100:
                    break
                spec, name, insert_at = synth.make_insertion_spec(
                    gt, rng, f"case-{cases}",
                )
                entry = blame.resolve_insertion(gt.path, gt.head, name, insert_at)
                expected_anchor = gt.expected_anchor(name, insert_at)
                if expected_anchor is None:
                    ok = (entry.commit_id == gt.file_add_commit[name]
                          and entry.line_number == 1
                          and "file add" in entry.anchor_note)
                else:
                    ok = (entry.line_number == expected_anchor
                          and entry.commit_id == gt.line_owner(name, expected_anchor)
                          and entry.is_fallback)
                if not ok:
                    violations += 1
                cases += 1
            seed += 1
        assert cases == 100
        assert violations == 0


# --- 4: heuristic payloads byte-exact, diffs round-trip ---------------------

UTIL_BEFORE = (
    "int f(int a) {\n"
    "    return a + 1;\n"
    "}\n"
    "\n"
    "int g(int b) {\n"
    "    return b * 2;\n"
    "}\n"
)
UTIL_AFTER = UTIL_BEFORE.replace("a + 1", "a + 2")


def test_04_heuristic_extraction_fidelity(tmp_path, snapshot_worktree):
    with criterion("heuristic-extraction-fidelity"):
        # fl_diff is byte-identical to git's own diff, for every commit
        # of several synthetic repos, and applies cleanly to the parent
        for seed in (3, 4):
            gt = synth.build_ground_truth_repo(
                tmp_path / f"fid{seed}", random.Random(seed), n_commits=5,
            )
            for sha in gt.commits[1:]:
                commit = gitio.read_commit(gt.path, sha)
                extracted = context.extract_fl_diff(commit.diff).diff_text
                reference = subprocess.run(
                    ["git", "-C", str(gt.path), "diff", "-U3",
                     f"{sha}^", sha],
                    capture_output=True, text=True, check=True,
                ).stdout
                assert extracted == reference

                wt = snapshot_worktree(gt.path, f"{sha}^")
                patch_file = wt / "_replay.patch"
                patch_file.write_text(extracted)
                subprocess.run(
                    ["git", "-C", str(wt), "apply", "_replay.patch"],
                    capture_output=True, text=True, check=True,
                )
                for change in commit.changes:
                    assert change.new_path is not None
                    applied = (wt / change.new_path).read_text()
                    assert applied == gitio.file_at(gt.path, sha, change.new_path)

        # fn_pair sides are byte-exact function slices
        repo = synth.init_repo(tmp_path / "pairrepo")
        (repo / "util.c").write_text(UTIL_BEFORE)
        synth.commit_all(repo, "add util", 0)
        (repo / "util.c").write_text(UTIL_AFTER)
        head = synth.commit_all(repo, "bump increment", 1)
        location = FaultLocation(
            file_path="util.c", lines=(LocalizedLine(line=2, kind="modified"),),
        )
        entry = blame.blame_lines(repo, head, location)[0]
        assert entry.commit_id == head
        commit = gitio.read_commit(repo, head)
        pair = context.extract_fn_pair(repo, head, commit.parent, entry)
        assert pair.before.body_text == "int f(int a) {\n    return a + 1;\n}"
        assert pair.after.body_text == "int f(int a) {\n    return a + 2;\n}"
        assert (pair.before.start_line, pair.before.end_line) == (1, 3)

        # fn_all lists exactly the functions of each co-changed file
        fn_all = context.extract_fn_all(repo, head, commit.changes)
        assert len(fn_all.entries) == 1
        assert fn_all.entries[0].file_path == "util.c"
        assert fn_all.entries[0].names == ("f", "g")


# --- 5: loop guards fire exactly and replays are byte-stable ----------------

def test_05_loop_guards_and_replay(tmp_path):
    with criterion("loop-guards-and-replay"):
        start = time.monotonic()
        toy = synth.build_toy_campaign(tmp_path / "toy")
        scripted = (Decimal("0.28"), Decimal("0.42"))
        flat = (Decimal("1.00"), Decimal("0.00"))

        def run(replies, rates=scripted, guards=None):
            handle = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                                  BUILTIN_ADAPTERS["local-python"])
            record = None
            try:
                harness = LoopHarness(
                    provider=ScriptedProvider(replies=list(replies)),
                    rates=rates,
                    guards=guards or GuardConfig(),
                )
                record = loop.run(synth.TOY_BUG_ID, "non_history", "s", "u",
                                  handle, harness)
                return record
            finally:
                sb.teardown(handle, tmp_path / "artifacts",
                            record.final_patch if record is not None else "")

        # happy path: scripted four-step repair
        happy = synth._scripted_replies(loop.DEFAULT_SENTINEL)
        record = run(happy)
        assert record.termination == "CompletedSignal"
        assert record.steps_taken == 4
        assert record.tests_passed_at_end is True
        assert record.total_cost == Decimal("0.001308")

        # StepLimit at exactly the default 50
        echo = {"text": "```bash\necho tick\n```",
                "input_tokens": 5, "output_tokens": 1}
        limited = run([echo] * 60)
        assert limited.termination == "StepLimit"
        assert limited.steps_taken == 50

        # CostLimit at exactly the cap: 3 steps of 0.100000 against 0.30
        spend = {"text": "```bash\necho spend\n```",
                 "input_tokens": 100_000, "output_tokens": 0}
        costly = run([spend] * 10, rates=flat,
                     guards=GuardConfig(max_cost=Decimal("0.30")))
        assert costly.termination == "CostLimit"
        assert costly.steps_taken == 3
        assert costly.total_cost == Decimal("0.300000")

        # independent replays agree byte for byte outside wall-clock
        paths = []
        for i in range(2):
            rec = run(synth._scripted_replies(loop.DEFAULT_SENTINEL))
            p = tmp_path / f"replay{i}.jsonl"
            loop.write_run_record(rec, p)
            paths.append(p)
        assert (loop.comparable_record_lines(paths[0])
                == loop.comparable_record_lines(paths[1]))

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# --- 6: aggregation reproduces a fixed reference outcome matrix -------------

# reference tallies: per category, the universe size and each config's
# (pass count, passes the baseline lacks); used as a replay fixture for
# the whole aggregation path
REFERENCE_TALLIES = {
    "SL": (167, {"non_history": (137, None), "fn_all": (136, 10),
                 "fn_pair": (136, 10), "fl_diff": (140, 11)}),
    "SH": (134, {"non_history": (97, None), "fn_all": (96, 16),
                 "fn_pair": (108, 19), "fl_diff": (103, 18)}),
    "SFMH": (425, {"non_history": (238, None), "fn_all": (251, 67),
                   "fn_pair": (249, 69), "fl_diff": (254, 68)}),
    "MFMH": (128, {"non_history": (50, None), "fn_all": (47, 13),
                   "fn_pair": (43, 13), "fl_diff": (48, 12)}),
}


def reference_rows() -> list[metrics.OutcomeRow]:
    rows = []
    for cat, (total, per_config) in REFERENCE_TALLIES.items():
        base_passes, _ = per_config["non_history"]
        for config, (passes, unique) in per_config.items():
            if unique is None:
                passing = set(range(base_passes))
            else:
                # `unique` bugs beyond the baseline's set, the rest within it
                passing = set(range(base_passes, base_passes + unique))
                passing |= set(range(passes - unique))
            assert len(passing) == passes
            for i in range(total):
                rows.append(metrics.OutcomeRow(
                    bug_id=f"{cat}-{i:03d}", category=cat, config=config,
                    passed=i in passing, steps=7, cost=Decimal("0.05"),
                    termination="CompletedSignal",
                ))
    return rows


def test_06_reference_tally_replay():
    with criterion("reference-tally-replay"):
        table = metrics.metrics_table(reference_rows())
        for cat, (total, per_config) in REFERENCE_TALLIES.items():
            for config, (passes, unique) in per_config.items():
                cell = table.cells[(cat, config)]
                assert cell.total == total
                assert cell.pass_count == passes
                assert cell.rate == Fraction(passes, total)
                assert cell.unique_vs_baseline == unique

        # headline rate within 0.05 percentage points of 83.8
        headline = table.cells[("SL", "fl_diff")].rate
        assert abs(float(headline) * 100 - 83.8) <= 0.05

        # 3 passes out of 4 render as exactly 0.75
        small = [metrics.OutcomeRow(f"t{i}", "SL", "fl_diff", i < 3, 5,
                                    Decimal("0.01"), "CompletedSignal")
                 for i in range(4)]
        assert metrics.plausible_at_1(small) == Fraction(3, 4)
        assert float(metrics.plausible_at_1(small)) == 0.75


# --- 7: statistics against enumeration and formula oracles ------------------

def _wilcoxon_enumeration(pairs):
    diffs = [a - b for a, b in pairs if a != b]
    ranks = rankdata([abs(d) for d in diffs])
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = float(sum(ranks))
    mu = total / 2
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - mu) >= abs(w_obs - mu) - 1e-12:
            hits += 1
    return hits / 2 ** len(diffs)


def _friedman_formula(matrix):
    m = np.asarray(matrix, dtype=float)
    n, k = m.shape
    ranks = np.apply_along_axis(rankdata, 1, m)
    rj = ranks.sum(axis=0)
    chisq = 12.0 / (n * k * (k + 1)) * float(np.sum(rj ** 2)) - 3 * n * (k + 1)
    tie_mass = sum(
        float(np.sum(c ** 3 - c))
        for c in (np.unique(row, return_counts=True)[1] for row in m)
    )
    correction = 1 - tie_mass / (n * k * (k * k - 1))
    if correction == 0:
        return 0.0, 1.0
    return chisq / correction, float(chi2.sf(chisq / correction, k - 1))


def test_07_stats_oracle_conformance():
    with criterion("stats-oracle-conformance"):
        rng = random.Random(7_777)
        tested = 0
        while tested < 200:
            n = rng.randint(1, 10)
            pairs = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(n)]
            if all(a == b for a, b in pairs):
                continue
            _, p, _ = stats.wilcoxon_signed_rank(pairs)
            assert abs(p - _wilcoxon_enumeration(pairs)) <= 1e-12
            tested += 1

        for _ in range(60):
            n, k = rng.randint(2, 12), rng.randint(2, 5)
            matrix = [[rng.randint(0, 4) for _ in range(k)] for _ in range(n)]
            if all(len(set(row)) == 1 for row in matrix):
                continue
            stat, p = stats.friedman_test(matrix)
            ostat, op = _friedman_formula(matrix)
            assert abs(stat - ostat) <= 1e-9
            assert abs(p - op) <= 1e-9

        assert stats.friedman_test([[2, 2, 2, 2]] * 5) == (0.0, 1.0)
        assert f"{float(stats.BONFERRONI_ALPHA):.4f}" == "0.0167"


# --- 8: the 20-bug trade-off frontier ----------------------------------------

def test_08_frontier_on_twenty_bugs():
    with criterion("frontier-20-bugs"):
        rng = random.Random(88)
        configs = ("non_history", "fn_all", "fn_pair", "fl_diff")
        bugs = [f"bug-{i:02d}" for i in range(20)]
        pass_map = {c: {b for b in bugs if rng.random() < 0.45}
                    for c in configs}
        cost_map = {(c, b): Decimal(f"0.{rng.randint(10, 99)}")
                    for c in configs for b in bugs}
        rows = [
            metrics.OutcomeRow(b, "SL", c, b in pass_map[c], 5,
                               cost_map[(c, b)], "CompletedSignal")
            for c in configs for b in bugs
        ]
        points = metrics.tradeoff_frontier(rows)
        assert len(points) == 15

        by_combo = {frozenset(p.combo): p for p in points}
        for size in range(1, 5):
            for combo in combinations(configs, size):
                fixed = sum(1 for b in bugs
                            if any(b in pass_map[c] for c in combo))
                spent = sum(Fraction(cost_map[(c, b)])
                            for c in combo for b in bugs)
                point = by_combo[frozenset(combo)]
                assert point.success_rate == Fraction(fixed, 20)
                assert point.avg_cost == spent / 20

        for small in points:
            for big in points:
                if set(small.combo) < set(big.combo):
                    assert big.success_rate >= small.success_rate
                    assert big.avg_cost >= small.avg_cost

        sizes = [len(p.combo) for p in points]
        assert sizes == sorted(sizes)


# --- 9: the full pipeline, batch to report ----------------------------------

def test_09_end_to_end_toy_campaign(tmp_path):
    with criterion("end-to-end-toy-campaign"):
        start = time.monotonic()
        toy = synth.build_toy_campaign(tmp_path / "e2e")
        cfg = str(toy["campaign"])
        assert cli.main(["batch", "--config", cfg]) == 0
        records = list((toy["root"] / "out" / "records").glob("*.jsonl"))
        assert len(records) == 4
        for path in records:
            record = load_run_record(path)
            assert record.termination == "CompletedSignal"
            assert record.tests_passed_at_end is True

        assert cli.main(["report", "--config", cfg]) == 0
        report_dir = toy["root"] / "out" / "report"
        table_text = (report_dir / "metrics_table.txt").read_text()
        assert "100.0" in table_text
        for name in ("overlap_regions.json", "tradeoff_points.json",
                     "significance.txt", "significance.json"):
            assert (report_dir / name).exists(), name
        frontier = json.loads((report_dir / "tradeoff_points.json").read_text())
        assert len(frontier) == 15
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
