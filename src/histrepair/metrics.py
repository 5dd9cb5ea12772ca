"""Aggregation of run outcomes into the evaluation metrics.

Counting metrics are exact integers; rates are exact rationals
(Fraction) rendered to fixed precision only at the edge. Pass status
comes solely from the independent end-of-run test verification stored
in each record, never from transcript claims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from statistics import quantiles

from .bugs import CATEGORIES
from .config import HEURISTICS
from .errors import EmptyScope, InsufficientData, UniverseMismatch
from .stats import (
    BONFERRONI_ALPHA,
    bonferroni_alpha,
    friedman_test,
    wilcoxon_signed_rank,
)

BASELINE = "non_history"


@dataclass(frozen=True)
class OutcomeRow:
    """One (bug, config) outcome distilled from its run record."""

    bug_id: str
    category: str
    config: str
    passed: bool
    steps: int
    cost: Decimal
    termination: str


def universe(rows: list[OutcomeRow]) -> set[str]:
    return {r.bug_id for r in rows}


def pass_set(rows: list[OutcomeRow]) -> set[str]:
    return {r.bug_id for r in rows if r.passed}


def by_config(rows: list[OutcomeRow]) -> dict[str, list[OutcomeRow]]:
    out: dict[str, list[OutcomeRow]] = {}
    for r in rows:
        out.setdefault(r.config, []).append(r)
    return out


def _require_same_universe(groups: dict[str, list[OutcomeRow]]) -> set[str]:
    universes = {cfg: universe(rows) for cfg, rows in groups.items()}
    reference = next(iter(universes.values()), set())
    offenders: set[str] = set()
    for bugs in universes.values():
        offenders |= bugs ^ reference
    if offenders:
        raise UniverseMismatch(
            f"configs cover different bug sets; not in all: {', '.join(sorted(offenders))}"
        )
    return reference


def plausible_at_1(rows: list[OutcomeRow]) -> Fraction:
    """Mean pass indicator over the bugs in scope, as an exact rational."""
    if not rows:
        raise EmptyScope("no rows in scope")
    return Fraction(sum(1 for r in rows if r.passed), len(rows))


def unique_pass(config_rows: list[OutcomeRow],
                baseline_rows: list[OutcomeRow]) -> int:
    """Bugs the config passed that the baseline did not."""
    _require_same_universe({"config": config_rows, "baseline": baseline_rows})
    return len(pass_set(config_rows) - pass_set(baseline_rows))


@dataclass
class OverlapReport:
    """Exact pass counts for every non-empty subset of the configs."""

    regions: dict[frozenset, int]

    @property
    def union_size(self) -> int:
        return sum(self.regions.values())

    def to_json(self) -> dict:
        ordered = {}
        for subset, n in sorted(
            self.regions.items(),
            key=lambda kv: (len(kv[0]), sorted(kv[0])),
        ):
            key = "+".join(sorted(subset, key=HEURISTICS.index))
            ordered[key] = n
        return ordered


def overlap_regions(rows: list[OutcomeRow]) -> OverlapReport:
    """Partition the union of pass sets by exactly-which-configs."""
    groups = by_config(rows)
    _require_same_universe(groups)
    configs = sorted(groups, key=HEURISTICS.index)
    passes = {cfg: pass_set(groups[cfg]) for cfg in configs}
    regions: dict[frozenset, int] = {}
    for size in range(1, len(configs) + 1):
        for subset in combinations(configs, size):
            inside = set.intersection(*(passes[c] for c in subset))
            outside = set.union(
                set(), *(passes[c] for c in configs if c not in subset),
            )
            regions[frozenset(subset)] = len(inside - outside)
    return OverlapReport(regions=regions)


@dataclass(frozen=True)
class Strata:
    """Distribution summary of one (category, config, outcome) cell."""

    n: int
    median: float
    q1: float
    q3: float


def stratify(rows: list[OutcomeRow], value: str = "steps") -> dict:
    """Median and quartiles per (category, config, passed/failed).

    `value` selects the measured field: steps or cost. Empty strata are
    simply absent from the result.
    """
    cells: dict[tuple, list[float]] = {}
    for r in rows:
        key = (r.category, r.config, "passed" if r.passed else "failed")
        cells.setdefault(key, []).append(float(getattr(r, value)))
    out = {}
    for key, values in cells.items():
        # inclusive quartiles interpolate like numpy's default percentile;
        # one value is its own median and quartiles
        q1, median, q3 = (quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[key] = Strata(n=len(values), median=median, q1=q1, q3=q3)
    return out


@dataclass(frozen=True)
class TradeoffPoint:
    """One combo of configs: its union success rate and average cost."""

    combo: tuple[str, ...]
    success_rate: Fraction
    avg_cost: Fraction


def tradeoff_frontier(rows: list[OutcomeRow]) -> list[TradeoffPoint]:
    """All 15 non-empty combos, sorted by combo size then cost.

    avg_cost is the mean over every universe bug of the summed cost of
    running all combo members on it, so cost grows monotonically with
    combo inclusion while success can only improve.
    """
    groups = by_config(rows)
    bugs = sorted(_require_same_universe(groups))
    configs = sorted(groups, key=HEURISTICS.index)
    passes = {cfg: pass_set(groups[cfg]) for cfg in configs}
    costs = {
        cfg: {r.bug_id: Fraction(r.cost) for r in groups[cfg]}
        for cfg in configs
    }
    points = []
    for size in range(1, len(configs) + 1):
        for subset in combinations(configs, size):
            union = set.union(*(passes[c] for c in subset))
            rate = Fraction(len(union), len(bugs)) if bugs else Fraction(0)
            total = sum(
                (costs[c][b] for c in subset for b in bugs),
                start=Fraction(0),
            )
            avg = total / len(bugs) if bugs else Fraction(0)
            points.append(TradeoffPoint(
                combo=subset, success_rate=rate, avg_cost=avg,
            ))
    points.sort(key=lambda p: (len(p.combo), p.avg_cost, p.combo))
    return points


@dataclass(frozen=True)
class MetricsCell:
    pass_count: int
    total: int
    rate: Fraction
    unique_vs_baseline: int | None  # None for the baseline itself


@dataclass
class MetricsTable:
    """Pass counts and rates per (category, config), plus totals."""

    cells: dict[tuple[str, str], MetricsCell] = field(default_factory=dict)
    overall: dict[str, MetricsCell] = field(default_factory=dict)


def metrics_table(rows: list[OutcomeRow]) -> MetricsTable:
    groups = by_config(rows)
    _require_same_universe(groups)
    table = MetricsTable()
    categories = [c for c in CATEGORIES
                  if any(r.category == c for r in rows)]
    for config, config_rows in groups.items():
        baseline_rows = groups.get(BASELINE, [])
        for cat in categories:
            scoped = [r for r in config_rows if r.category == cat]
            if not scoped:
                continue
            unique = None
            if config != BASELINE and baseline_rows:
                base_scoped = [r for r in baseline_rows if r.category == cat]
                unique = unique_pass(scoped, base_scoped)
            table.cells[(cat, config)] = MetricsCell(
                pass_count=sum(1 for r in scoped if r.passed),
                total=len(scoped),
                rate=plausible_at_1(scoped),
                unique_vs_baseline=unique,
            )
        unique_all = None
        if config != BASELINE and baseline_rows:
            unique_all = unique_pass(config_rows, baseline_rows)
        table.overall[config] = MetricsCell(
            pass_count=sum(1 for r in config_rows if r.passed),
            total=len(config_rows),
            rate=plausible_at_1(config_rows),
            unique_vs_baseline=unique_all,
        )
    return table


@dataclass
class StatTestReport:
    """Friedman + conditional pairwise Wilcoxon for one category/metric."""

    metric: str                      # cost | steps
    category: str
    n_matched: int
    friedman_statistic: float | None
    friedman_p: float | None
    pairwise_p: dict[str, float] = field(default_factory=dict)
    alpha_corrected: float = float(BONFERRONI_ALPHA)
    note: str = ""
    configs: tuple[str, ...] = ()   # the configs the matched set spans


def matched_set(rows: list[OutcomeRow]) -> list[str]:
    """Bugs passed by every configuration present in `rows`."""
    groups = by_config(rows)
    _require_same_universe(groups)
    sets = [pass_set(g) for g in groups.values()]
    return sorted(set.intersection(*sets)) if sets else []


def stat_test_report(rows: list[OutcomeRow], metric: str,
                     category: str) -> StatTestReport:
    """Run the Friedman/Wilcoxon battery over one category's matched set.

    The Bonferroni divisor is the number of configs in the category
    that are compared against the baseline.
    """
    scoped = [r for r in rows if r.category == category]
    matched = matched_set(scoped)
    groups = by_config(scoped)
    configs = sorted(groups, key=HEURISTICS.index)
    compared = sum(1 for cfg in configs if cfg != BASELINE)
    values = {
        cfg: {r.bug_id: getattr(r, metric) for r in groups[cfg]}
        for cfg in configs
    }
    report = StatTestReport(
        metric=metric, category=category, n_matched=len(matched),
        friedman_statistic=None, friedman_p=None,
        alpha_corrected=float(bonferroni_alpha(compared)),
        configs=tuple(configs),
    )
    matrix = [[values[cfg][b] for cfg in configs] for b in matched]
    try:
        stat, p = friedman_test(matrix)
    except InsufficientData as exc:
        report.note = f"insufficient data: {exc}"
        return report
    report.friedman_statistic = stat
    report.friedman_p = p
    if p < 0.05 and BASELINE in configs:
        for cfg in configs:
            if cfg == BASELINE:
                continue
            pairs = [(values[cfg][b], values[BASELINE][b]) for b in matched]
            try:
                _, wp, _ = wilcoxon_signed_rank(pairs)
                report.pairwise_p[cfg] = wp
            except Exception as exc:
                report.note += f" {cfg}: {type(exc).__name__};"
    return report


# ---------------------------------------------------------------------------
# rendering and export

def _fmt_rate(rate: Fraction) -> str:
    return f"{float(rate) * 100:.1f}"


def render_metrics_table(table: MetricsTable) -> str:
    """Plain-text table: per category and config, #Pass / rate / #Unique."""
    lines = []
    header = (f"{'Category':<10}{'Config':<14}{'#Pass':>7}{'Total':>7}"
              f"{'Plausible@1':>13}{'#Unique':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    cats = [c for c in CATEGORIES if any(k[0] == c for k in table.cells)]
    for cat in cats:
        for config in HEURISTICS:
            cell = table.cells.get((cat, config))
            if cell is None:
                continue
            unique = "-" if cell.unique_vs_baseline is None else str(cell.unique_vs_baseline)
            lines.append(
                f"{cat:<10}{config:<14}{cell.pass_count:>7}{cell.total:>7}"
                f"{_fmt_rate(cell.rate):>12}%{unique:>9}"
            )
        lines.append("")
    lines.append("Overall:")
    for config in HEURISTICS:
        cell = table.overall.get(config)
        if cell is None:
            continue
        unique = "-" if cell.unique_vs_baseline is None else str(cell.unique_vs_baseline)
        lines.append(
            f"{'ALL':<10}{config:<14}{cell.pass_count:>7}{cell.total:>7}"
            f"{_fmt_rate(cell.rate):>12}%{unique:>9}"
        )
    return "\n".join(lines) + "\n"


def render_stat_reports(reports: list[StatTestReport]) -> str:
    alphas = sorted({rep.alpha_corrected for rep in reports})
    configs = [c for c in HEURISTICS if any(c in rep.configs for rep in reports)]
    lines = [
        "Significance tests on the matched set "
        f"(bugs fixed by every configuration: {', '.join(configs)}).",
        "Bonferroni-corrected alpha: "
        + ", ".join(f"{alpha:.4f}" for alpha in alphas),
        "",
    ]
    for rep in reports:
        head = f"[{rep.metric}] {rep.category}: N={rep.n_matched}"
        if rep.friedman_p is None:
            lines.append(f"{head}  {rep.note or 'not testable'}")
            continue
        lines.append(
            f"{head}  Friedman chi2={rep.friedman_statistic:.4f} "
            f"p={rep.friedman_p:.4g}"
        )
        if rep.pairwise_p:
            for cfg, p in rep.pairwise_p.items():
                mark = "*" if p < rep.alpha_corrected else " "
                lines.append(f"    {cfg} vs {BASELINE}: p={p:.4g} {mark}")
        elif rep.friedman_p >= 0.05:
            lines.append("    (no pairwise tests: Friedman not significant)")
    return "\n".join(lines) + "\n"


def export_report(rows: list[OutcomeRow], out_dir: Path | str,
                  metrics: tuple[str, ...] = ("cost", "steps")) -> dict:
    """Write the full report set; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = metrics_table(rows)
    overlap = overlap_regions(rows)
    frontier = tradeoff_frontier(rows)
    categories = [c for c in CATEGORIES if any(r.category == c for r in rows)]
    reports = [
        stat_test_report(rows, metric, cat)
        for metric in metrics for cat in categories
    ]

    paths = {
        "table": out_dir / "metrics_table.txt",
        "overlap": out_dir / "overlap_regions.json",
        "frontier": out_dir / "tradeoff_points.json",
        "stats": out_dir / "significance.txt",
        "stats_json": out_dir / "significance.json",
    }
    paths["table"].write_text(render_metrics_table(table))
    paths["overlap"].write_text(
        json.dumps(overlap.to_json(), indent=2) + "\n"
    )
    frontier_json = [
        {
            "combo": list(p.combo),
            "success_rate": float(p.success_rate),
            "avg_cost": float(p.avg_cost),
        }
        for p in frontier
    ]
    paths["frontier"].write_text(json.dumps(frontier_json, indent=2) + "\n")
    paths["stats"].write_text(render_stat_reports(reports))
    stats_json = [
        {
            "metric": r.metric,
            "category": r.category,
            "n_matched": r.n_matched,
            "friedman_statistic": r.friedman_statistic,
            "friedman_p": r.friedman_p,
            "pairwise_p": r.pairwise_p,
            "alpha_corrected": r.alpha_corrected,
            "note": r.note,
        }
        for r in reports
    ]
    paths["stats_json"].write_text(json.dumps(stats_json, indent=2) + "\n")
    return {k: str(v) for k, v in paths.items()}
