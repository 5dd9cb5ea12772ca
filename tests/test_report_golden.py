"""The five report files stay byte-identical for one fixed outcome table.

The files under `golden_report/` are what `metrics.export_report`
wrote for `golden_rows()` before the report code was consolidated; the
two significance files were written again when `significance.txt` began
to name each pairwise test that could not run. The table spans all four
categories and all four configs, and reaches each branch of the
renderers:

- SL: every config passes the seven matched bugs with the same step
  ranking, so Friedman is significant and each pairwise Wilcoxon line
  prints (marked at the corrected alpha); its costs are flat against
  the baseline for fn_pair, so that Wilcoxon is degenerate and named in
  both significance files;
- SH: Friedman runs but is not significant on either metric;
- SFMH: one matched bug, too few to test;
- MFMH: no bug passes under every config;
- fn_pair passes no bug that the baseline misses (`#Unique` 0).
"""

from decimal import Decimal
from pathlib import Path

import pytest

from histrepair.metrics import OutcomeRow, export_report

GOLDEN = Path(__file__).parent / "golden_report"
FILES = ("metrics_table.txt", "overlap_regions.json", "tradeoff_points.json",
         "significance.txt", "significance.json")
CONFIGS = ("non_history", "fn_all", "fn_pair", "fl_diff")

# bug -> (category, the configs that pass it)
PASSES = {
    **{f"sl-{i}": ("SL", set(CONFIGS)) for i in range(7)},
    "sl-7": ("SL", {"fn_all", "fl_diff"}),
    "sl-8": ("SL", {"fl_diff"}),
    "sh-0": ("SH", set(CONFIGS)),
    "sh-1": ("SH", set(CONFIGS)),
    "sh-2": ("SH", set(CONFIGS)),
    "sh-3": ("SH", set(CONFIGS)),
    "sh-4": ("SH", {"non_history", "fn_pair"}),
    "sfmh-0": ("SFMH", set(CONFIGS)),
    "sfmh-1": ("SFMH", {"fn_all"}),
    "sfmh-2": ("SFMH", set()),
    "mfmh-0": ("MFMH", {"non_history", "fn_all", "fn_pair"}),
    "mfmh-1": ("MFMH", {"fl_diff"}),
}

# SL step offsets rank the configs identically on every matched bug
SL_STEPS = {"non_history": 20, "fn_all": 14, "fn_pair": 9, "fl_diff": 4}
# and their costs too, but fn_pair costs the same as the baseline
SL_COST = {"non_history": 20, "fn_all": 10, "fn_pair": 20, "fl_diff": 0}


def golden_rows() -> list[OutcomeRow]:
    rows = []
    for c, config in enumerate(CONFIGS):
        for b, (bug, (category, passing)) in enumerate(PASSES.items()):
            passed = config in passing
            if category == "SL":
                steps = SL_STEPS[config] + b
                cost = 1000 + 37 * b + SL_COST[config] + b % 3
            else:
                steps = 3 + (5 * b + 3 * c) % 7
                cost = 700 + (13 * b + 7 * c * c) % 23 * 11
            if not passed:
                steps += 10
            rows.append(OutcomeRow(
                bug_id=bug, category=category, config=config, passed=passed,
                steps=steps, cost=Decimal(cost).scaleb(-6),
                termination="CompletedSignal" if passed else "StepLimit",
            ))
    # bug by bug, the baseline last: no output may depend on row order
    return sorted(rows, key=lambda r: (r.bug_id, r.config))


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    paths = export_report(golden_rows(), out)
    assert sorted(Path(p).name for p in paths.values()) == sorted(FILES)
    return out


@pytest.mark.parametrize("name", FILES)
def test_report_file_is_byte_identical(report_dir, name):
    assert (report_dir / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_table_reaches_every_branch():
    text = (GOLDEN / "significance.txt").read_text()
    assert "[steps] SL: N=7  Friedman" in text
    assert "fl_diff vs non_history: p=0.01562 *" in text
    assert "fn_pair vs non_history: not tested (DegenerateAllZero)" in text
    assert '"note": "fn_pair: DegenerateAllZero"' in (GOLDEN / "significance.json").read_text()
    assert "no pairwise tests: Friedman not significant" in text
    assert "[steps] SFMH: N=1  insufficient data" in text
    assert "[steps] MFMH: N=0  insufficient data" in text
    table = (GOLDEN / "metrics_table.txt").read_text()
    for category in ("SL", "SH", "SFMH", "MFMH"):
        assert f"\n{category:<10}fn_all" in table
    assert "ALL       fn_pair" in table
    overall = table.split("Overall:\n")[1].splitlines()
    assert overall[2].split()[-1] == "0"  # fn_pair's #Unique
