"""Evaluation metrics, cross-checked against brute-force oracles."""

import json
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from histrepair.errors import EmptyScope, UniverseMismatch
from histrepair.metrics import (
    BASELINE,
    OutcomeRow,
    matched_set,
    metrics_table,
    overlap_regions,
    plausible_at_1,
    render_metrics_table,
    render_stat_reports,
    stat_test_report,
    stratify,
    tradeoff_frontier,
    unique_pass,
    export_report,
)

CONFIGS = ("non_history", "fn_all", "fn_pair", "fl_diff")


def row(bug, cfg, passed, cat="SL", steps=5, cost="0.10"):
    return OutcomeRow(
        bug_id=bug, category=cat, config=cfg, passed=passed,
        steps=steps, cost=Decimal(cost),
        termination="CompletedSignal" if passed else "StepLimit",
    )


def dataset(bugs, pass_map, cat_map=None, steps_map=None, cost_map=None):
    """Rows for every (config, bug); pass_map: config -> set of passing bugs."""
    rows = []
    for cfg in CONFIGS:
        for b in bugs:
            rows.append(row(
                b, cfg, b in pass_map[cfg],
                cat=(cat_map or {}).get(b, "SL"),
                steps=(steps_map or {}).get((cfg, b), 5),
                cost=(cost_map or {}).get((cfg, b), "0.10"),
            ))
    return rows


# --- plausible@1 and unique pass -------------------------------------------

def test_plausible_at_1_is_exact():
    rows = [row("a", "fl_diff", True), row("b", "fl_diff", True),
            row("c", "fl_diff", True), row("d", "fl_diff", False)]
    assert plausible_at_1(rows) == Fraction(3, 4)
    assert float(plausible_at_1(rows)) == 0.75


def test_plausible_at_1_rejects_empty_scope():
    with pytest.raises(EmptyScope):
        plausible_at_1([])


def test_unique_pass_counts_bugs_beyond_baseline():
    bugs = ["a", "b", "c", "d"]
    config_rows = [row(b, "fl_diff", b in {"a", "b", "c"}) for b in bugs]
    baseline_rows = [row(b, "non_history", b in {"a"}) for b in bugs]
    assert unique_pass(config_rows, baseline_rows) == 2
    assert unique_pass(baseline_rows, config_rows) == 0


def test_unique_pass_requires_matching_universe():
    config_rows = [row("a", "fl_diff", True), row("b", "fl_diff", True)]
    baseline_rows = [row("a", "non_history", True)]
    with pytest.raises(UniverseMismatch) as err:
        unique_pass(config_rows, baseline_rows)
    assert str(err.value) == "configs cover different bug sets; not in all: b"


# --- overlap regions --------------------------------------------------------

def test_overlap_hand_case():
    bugs = ["b1", "b2", "b3", "b4"]
    rows = dataset(bugs, {
        "non_history": {"b1", "b3"},
        "fn_all": {"b1", "b3"},
        "fn_pair": {"b1"},
        "fl_diff": {"b1", "b2"},
    })
    report = overlap_regions(rows)
    assert len(report.regions) == 15
    assert report.regions[frozenset(("non_history", "fn_all", "fn_pair", "fl_diff"))] == 1
    assert report.regions[frozenset(("fl_diff",))] == 1
    assert report.regions[frozenset(("non_history", "fn_all"))] == 1
    assert report.union_size == 3
    as_json = report.to_json()
    assert as_json["fl_diff"] == 1
    assert as_json["non_history+fn_all"] == 1
    assert as_json["non_history+fn_all+fn_pair+fl_diff"] == 1
    assert sum(as_json.values()) == 3
    assert len(as_json) == 15


def test_overlap_against_per_bug_enumeration():
    rng = random.Random(77)
    bugs = [f"bug-{i:02d}" for i in range(30)]
    pass_map = {cfg: {b for b in bugs if rng.random() < 0.5}
                for cfg in CONFIGS}
    report = overlap_regions(dataset(bugs, pass_map))

    # oracle: classify each bug by exactly the set of configs passing it
    expected: dict[frozenset, int] = {
        frozenset(s): 0
        for size in range(1, 5) for s in combinations(CONFIGS, size)
    }
    union = 0
    for b in bugs:
        passing = frozenset(c for c in CONFIGS if b in pass_map[c])
        if passing:
            expected[passing] += 1
            union += 1
    assert report.regions == expected
    assert report.union_size == union


# --- strata -----------------------------------------------------------------

def test_stratify_quartiles_by_hand():
    # linear interpolation on sorted [1, 3, 5, 7]:
    # q1 at position 0.75 -> 2.5, median 4.0, q3 at position 2.25 -> 5.5
    rows = [row("a", "fl_diff", True, steps=1),
            row("b", "fl_diff", True, steps=3),
            row("c", "fl_diff", True, steps=5),
            row("d", "fl_diff", True, steps=7),
            row("e", "fl_diff", False, steps=50)]
    strata = stratify(rows, value="steps")
    cell = strata[("SL", "fl_diff", "passed")]
    assert (cell.n, cell.median, cell.q1, cell.q3) == (4, 4.0, 2.5, 5.5)
    failed = strata[("SL", "fl_diff", "failed")]
    assert (failed.n, failed.median) == (1, 50.0)
    assert ("SL", "fn_all", "passed") not in strata


def test_stratify_on_cost():
    rows = [row("a", "fn_all", True, cost="0.25"),
            row("b", "fn_all", True, cost="0.75")]
    cell = stratify(rows, value="cost")[("SL", "fn_all", "passed")]
    assert cell.median == 0.5


def test_stratify_matches_numpy_percentiles():
    np = pytest.importorskip("numpy")
    rng = random.Random(29)
    for n in range(1, 40):
        steps = [rng.randint(0, 60) for _ in range(n)]
        rows = [row(f"b{i}", "fn_pair", True, steps=s) for i, s in enumerate(steps)]
        cell = stratify(rows)[("SL", "fn_pair", "passed")]
        assert cell.n == n
        assert cell.median == pytest.approx(float(np.median(steps)))
        assert cell.q1 == pytest.approx(float(np.percentile(steps, 25)))
        assert cell.q3 == pytest.approx(float(np.percentile(steps, 75)))


# --- trade-off frontier -----------------------------------------------------

def test_frontier_hand_case():
    bugs = ["x", "y"]
    pass_map = {"non_history": {"x"}, "fn_all": set(),
                "fn_pair": {"y"}, "fl_diff": {"x", "y"}}
    cost_map = {(cfg, b): c for (cfg, b), c in {
        ("non_history", "x"): "0.10", ("non_history", "y"): "0.30",
        ("fn_all", "x"): "0.20", ("fn_all", "y"): "0.20",
        ("fn_pair", "x"): "0.50", ("fn_pair", "y"): "0.10",
        ("fl_diff", "x"): "0.40", ("fl_diff", "y"): "0.40",
    }.items()}
    points = tradeoff_frontier(dataset(bugs, pass_map, cost_map=cost_map))
    assert len(points) == 15
    by_combo = {p.combo: p for p in points}
    # singletons: rate is per-config plausible@1, cost is its mean cost
    assert by_combo[("non_history",)].success_rate == Fraction(1, 2)
    assert by_combo[("non_history",)].avg_cost == Fraction(1, 5)  # (0.1+0.3)/2
    assert by_combo[("fl_diff",)].success_rate == Fraction(1, 1)
    # pair: union of pass sets, sum of costs
    p = by_combo[("non_history", "fn_pair")]
    assert p.success_rate == Fraction(1, 1)
    assert p.avg_cost == Fraction(1, 5) + Fraction(3, 10)
    # ordering: size ascending, then cost
    sizes = [len(p.combo) for p in points]
    assert sizes == sorted(sizes)
    for a, b in zip(points, points[1:]):
        if len(a.combo) == len(b.combo):
            assert (a.avg_cost, a.combo) <= (b.avg_cost, b.combo)


def test_frontier_against_any_oracle_and_monotonicity():
    rng = random.Random(31)
    bugs = [f"b{i}" for i in range(12)]
    pass_map = {cfg: {b for b in bugs if rng.random() < 0.4}
                for cfg in CONFIGS}
    cost_map = {(cfg, b): f"0.{rng.randint(10, 99)}"
                for cfg in CONFIGS for b in bugs}
    rows = dataset(bugs, pass_map, cost_map=cost_map)
    points = tradeoff_frontier(rows)
    by_combo = {frozenset(p.combo): p for p in points}

    for size in range(1, 5):
        for combo in combinations(CONFIGS, size):
            fixed = sum(1 for b in bugs
                        if any(b in pass_map[c] for c in combo))
            spent = sum(Fraction(Decimal(cost_map[(c, b)]))
                        for c in combo for b in bugs)
            point = by_combo[frozenset(combo)]
            assert point.success_rate == Fraction(fixed, len(bugs))
            assert point.avg_cost == spent / len(bugs)

    # any superset of configs can only do better and cost more
    for small in points:
        for big in points:
            if set(small.combo) < set(big.combo):
                assert big.success_rate >= small.success_rate
                assert big.avg_cost >= small.avg_cost


# --- summary table ----------------------------------------------------------

def test_metrics_table_cells_and_overall():
    bugs = ["a", "b", "c", "d"]
    cat_map = {"a": "SL", "b": "SL", "c": "SH", "d": "SH"}
    rows = dataset(bugs, {
        "non_history": {"a"},
        "fn_all": {"a", "c"},
        "fn_pair": {"a", "b"},
        "fl_diff": {"a", "b", "c"},
    }, cat_map=cat_map)
    table = metrics_table(rows)
    sl_base = table.cells[("SL", "non_history")]
    assert (sl_base.pass_count, sl_base.total) == (1, 2)
    assert sl_base.unique_vs_baseline is None
    assert table.cells[("SL", "fl_diff")].unique_vs_baseline == 1
    assert table.cells[("SH", "fl_diff")].unique_vs_baseline == 1
    assert table.overall["fl_diff"].pass_count == 3
    assert table.overall["fl_diff"].unique_vs_baseline == 2
    assert table.overall["fl_diff"].rate == Fraction(3, 4)

    text = render_metrics_table(table)
    assert "Category" in text and "Plausible@1" in text
    assert "Overall:" in text
    assert "fl_diff" in text
    assert "75.0" in text  # the overall fl_diff rate


def test_matched_set_is_four_way_intersection():
    bugs = ["a", "b", "c"]
    rows = dataset(bugs, {
        "non_history": {"a", "b"},
        "fn_all": {"a", "b", "c"},
        "fn_pair": {"a", "c"},
        "fl_diff": {"a", "b"},
    })
    assert matched_set(rows) == ["a"]


# --- significance battery ---------------------------------------------------

def strong_effect_rows(n=10):
    """All configs pass every bug; step counts rank identically per bug."""
    bugs = [f"m{i}" for i in range(n)]
    steps_map = {}
    for i, b in enumerate(bugs):
        steps_map[("non_history", b)] = 20 + i
        steps_map[("fn_all", b)] = 12 + i
        steps_map[("fn_pair", b)] = 8 + i
        steps_map[("fl_diff", b)] = 3 + i
    return dataset(bugs, {cfg: set(bugs) for cfg in CONFIGS},
                   steps_map=steps_map)


def test_stat_report_detects_strong_effect():
    report = stat_test_report(strong_effect_rows(), "steps", "SL")
    assert report.n_matched == 10
    # identical rank pattern in every row: chi2 = 30 by the rank formula
    assert report.friedman_statistic == pytest.approx(30.0)
    assert report.friedman_p < 0.05
    assert set(report.pairwise_p) == {"fn_all", "fn_pair", "fl_diff"}
    # each config beats the baseline on all 10 bugs: exact p = 2/2^10
    for p in report.pairwise_p.values():
        assert p == pytest.approx(2 / 1024)
        assert p < report.alpha_corrected


def test_stat_report_skips_pairwise_when_friedman_flat():
    bugs = [f"m{i}" for i in range(8)]
    rows = dataset(bugs, {cfg: set(bugs) for cfg in CONFIGS},
                   steps_map={(cfg, b): 4 for cfg in CONFIGS for b in bugs})
    report = stat_test_report(rows, "steps", "SL")
    assert (report.friedman_statistic, report.friedman_p) == (0.0, 1.0)
    assert report.pairwise_p == {}
    rendered = render_stat_reports([report])
    assert "no pairwise tests" in rendered
    assert "0.0167" in rendered


def test_bonferroni_divisor_counts_the_configs_present():
    # two configs, as in a non_history vs fn_pair campaign: one comparison,
    # so the pairwise test is judged at 0.05, not at 0.05/3
    rows = []
    for i in range(6):
        rows.append(row(f"m{i}", BASELINE, True, steps=20 + i))
        rows.append(row(f"m{i}", "fn_pair", True, steps=10 + i))
    report = stat_test_report(rows, "steps", "SL")
    assert report.friedman_p < 0.05
    # fn_pair wins on all 6 bugs: exact two-sided p = 2/2^6
    assert report.pairwise_p == {"fn_pair": pytest.approx(2 / 64)}
    assert report.alpha_corrected == 0.05
    rendered = render_stat_reports([report])
    assert rendered.startswith(
        "Significance tests on the matched set "
        "(bugs fixed by every configuration: non_history, fn_pair).\n"
    )
    assert "Bonferroni-corrected alpha: 0.0500" in rendered
    assert "fn_pair vs non_history: p=0.03125 *" in rendered


def test_stat_report_names_each_pairwise_test_that_could_not_run():
    # fn_all and fn_pair take the baseline's steps on every bug: both
    # Wilcoxons are degenerate, and each gets its own line
    rows = []
    for i in range(8):
        for cfg in (BASELINE, "fn_all", "fn_pair"):
            rows.append(row(f"m{i}", cfg, True, steps=20 + i))
        rows.append(row(f"m{i}", "fl_diff", True, steps=10 + i))
    report = stat_test_report(rows, "steps", "SL")
    assert report.friedman_p < 0.05
    assert list(report.pairwise_p) == ["fl_diff"]
    assert report.note == "fn_all: DegenerateAllZero; fn_pair: DegenerateAllZero"
    assert render_stat_reports([report]).splitlines()[-3:] == [
        "    fl_diff vs non_history: p=0.007812 *",
        "    fn_all vs non_history: not tested (DegenerateAllZero)",
        "    fn_pair vs non_history: not tested (DegenerateAllZero)",
    ]


def test_stat_report_notes_insufficient_data():
    rows = dataset(["only"], {cfg: {"only"} for cfg in CONFIGS})
    report = stat_test_report(rows, "steps", "SL")
    assert report.friedman_p is None
    assert "insufficient data" in report.note
    assert report.pairwise_p == {}


def test_stat_report_scopes_to_category():
    rows = strong_effect_rows() + dataset(
        ["zz"], {cfg: set() for cfg in CONFIGS}, cat_map={"zz": "MFMH"},
    )
    report = stat_test_report(rows, "steps", "SL")
    assert report.n_matched == 10


# --- export -----------------------------------------------------------------

def test_export_report_writes_all_artifacts(tmp_path):
    rows = strong_effect_rows()
    paths = export_report(rows, tmp_path / "report")
    for key in ("table", "overlap", "frontier", "stats", "stats_json"):
        assert (key in paths) and (tmp_path / "report").exists()
    overlap = json.loads((tmp_path / "report" / "overlap_regions.json").read_text())
    assert sum(overlap.values()) == 10
    frontier = json.loads((tmp_path / "report" / "tradeoff_points.json").read_text())
    assert len(frontier) == 15
    stats = json.loads((tmp_path / "report" / "significance.json").read_text())
    assert {s["metric"] for s in stats} == {"cost", "steps"}
    table_text = (tmp_path / "report" / "metrics_table.txt").read_text()
    assert "100.0" in table_text
