"""Aggregation of run outcomes into the evaluation metrics.

Counting metrics are exact integers; rates are exact rationals
(Fraction) rendered to fixed precision only at the edge. Pass status
comes solely from the independent end-of-run test verification stored
in each record, never from transcript claims.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from statistics import quantiles
from typing import NamedTuple

from .bugs import CATEGORIES
from .config import HEURISTICS
from .errors import EmptyScope, InsufficientData, UniverseMismatch
from .stats import bonferroni_alpha, friedman_test, wilcoxon_signed_rank

BASELINE = "non_history"


class OutcomeRow(NamedTuple):
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


def _require_same_universe(groups: dict[str, list[OutcomeRow]]) -> None:
    universes = {cfg: universe(rows) for cfg, rows in groups.items()}
    reference = next(iter(universes.values()), set())
    offenders: set[str] = set()
    for bugs in universes.values():
        offenders |= bugs ^ reference
    if offenders:
        raise UniverseMismatch(
            f"configs cover different bug sets; not in all: {', '.join(sorted(offenders))}"
        )


def _groups(rows: list[OutcomeRow]) -> dict[str, list[OutcomeRow]]:
    """The rows by config, in HEURISTICS order, once every config covers the same bugs."""
    groups = by_config(rows)
    _require_same_universe(groups)
    return {cfg: groups[cfg] for cfg in sorted(groups, key=HEURISTICS.index)}


def _categories(rows: list[OutcomeRow]) -> list[str]:
    return [c for c in CATEGORIES if any(r.category == c for r in rows)]


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


class OverlapReport(NamedTuple):
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
    passes = {cfg: pass_set(g) for cfg, g in _groups(rows).items()}
    regions: dict[frozenset, int] = {}
    for size in range(1, len(passes) + 1):
        for subset in combinations(passes, size):
            inside = set.intersection(*(passes[c] for c in subset))
            outside = set.union(set(), *(passes[c] for c in passes if c not in subset))
            regions[frozenset(subset)] = len(inside - outside)
    return OverlapReport(regions=regions)


class Strata(NamedTuple):
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


class TradeoffPoint(NamedTuple):
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
    groups = _groups(rows)
    n = len(universe(rows))
    passes = {cfg: pass_set(g) for cfg, g in groups.items()}
    # one cost per (config, bug), summed over the universe
    costs = {cfg: sum({r.bug_id: Fraction(r.cost) for r in g}.values(), Fraction(0))
             for cfg, g in groups.items()}
    points = []
    for size in range(1, len(groups) + 1):
        for subset in combinations(groups, size):
            union = set.union(*(passes[c] for c in subset))
            total = sum((costs[c] for c in subset), Fraction(0))
            points.append(TradeoffPoint(
                combo=subset,
                success_rate=Fraction(len(union), n) if n else Fraction(0),
                avg_cost=total / n if n else Fraction(0),
            ))
    points.sort(key=lambda p: (len(p.combo), p.avg_cost, p.combo))
    return points


class MetricsCell(NamedTuple):
    pass_count: int
    total: int
    rate: Fraction
    unique_vs_baseline: int | None  # None for the baseline itself


class MetricsTable(NamedTuple):
    """Pass counts and rates per (category, config), plus totals."""

    cells: dict[tuple[str, str], MetricsCell]
    overall: dict[str, MetricsCell]


def _cell(rows: list[OutcomeRow], baseline_rows: list[OutcomeRow] | None) -> MetricsCell:
    """One config's cell; no #Unique without baseline rows to compare with."""
    return MetricsCell(
        pass_count=sum(r.passed for r in rows), total=len(rows), rate=plausible_at_1(rows),
        unique_vs_baseline=None if baseline_rows is None else unique_pass(rows, baseline_rows),
    )


def metrics_table(rows: list[OutcomeRow]) -> MetricsTable:
    groups = _groups(rows)
    table = MetricsTable(cells={}, overall={})
    for config, config_rows in groups.items():
        base = groups.get(BASELINE) if config != BASELINE else None
        for cat in _categories(rows):
            scoped = [r for r in config_rows if r.category == cat]
            if scoped:
                table.cells[(cat, config)] = _cell(
                    scoped, base and [r for r in base if r.category == cat])
        table.overall[config] = _cell(config_rows, base)
    return table


class StatTestReport(NamedTuple):
    """Friedman + conditional pairwise Wilcoxon for one category/metric."""

    metric: str                      # cost | steps
    category: str
    n_matched: int
    friedman_statistic: float | None
    friedman_p: float | None
    pairwise_p: dict[str, float]
    alpha_corrected: float
    note: str = ""
    configs: tuple[str, ...] = ()   # the configs the matched set spans


def matched_set(rows: list[OutcomeRow]) -> list[str]:
    """Bugs passed by every configuration present in `rows`."""
    return _matched(_groups(rows))


def _matched(groups: dict[str, list[OutcomeRow]]) -> list[str]:
    sets = [pass_set(g) for g in groups.values()]
    return sorted(set.intersection(*sets)) if sets else []


def stat_test_report(rows: list[OutcomeRow], metric: str,
                     category: str) -> StatTestReport:
    """Run the Friedman/Wilcoxon battery over one category's matched set.

    The Bonferroni divisor is the number of configs in the category
    that are compared against the baseline.
    """
    groups = _groups([r for r in rows if r.category == category])
    matched = _matched(groups)
    compared = [cfg for cfg in groups if cfg != BASELINE]
    values = {cfg: {r.bug_id: getattr(r, metric) for r in g} for cfg, g in groups.items()}
    matrix = [[by_bug[b] for by_bug in values.values()] for b in matched]
    stat = p = None
    pairwise_p: dict[str, float] = {}
    note = ""
    try:
        stat, p = friedman_test(matrix)
    except InsufficientData as exc:
        note = f"insufficient data: {exc}"
    if p is not None and p < 0.05 and BASELINE in groups:
        untested = []
        for cfg in compared:
            pairs = [(values[cfg][b], values[BASELINE][b]) for b in matched]
            try:
                _, wp, _ = wilcoxon_signed_rank(pairs)
                pairwise_p[cfg] = wp
            except Exception as exc:
                untested.append(f"{cfg}: {type(exc).__name__}")
        note = "; ".join(untested)
    return StatTestReport(
        metric=metric, category=category, n_matched=len(matched),
        friedman_statistic=stat, friedman_p=p, pairwise_p=pairwise_p,
        alpha_corrected=float(bonferroni_alpha(len(compared))),
        note=note, configs=tuple(groups),
    )


# ---------------------------------------------------------------------------
# rendering and export

def _table_row(category: str, config: str, cell: MetricsCell) -> str:
    unique = "-" if cell.unique_vs_baseline is None else str(cell.unique_vs_baseline)
    return (f"{category:<10}{config:<14}{cell.pass_count:>7}{cell.total:>7}"
            f"{float(cell.rate) * 100:>12.1f}%{unique:>9}")


def render_metrics_table(table: MetricsTable) -> str:
    """Plain-text table: per category and config, #Pass / rate / #Unique."""
    header = (f"{'Category':<10}{'Config':<14}{'#Pass':>7}{'Total':>7}"
              f"{'Plausible@1':>13}{'#Unique':>9}")
    lines = [header, "-" * len(header)]
    for cat in [c for c in CATEGORIES if any(k[0] == c for k in table.cells)]:
        lines += [_table_row(cat, cfg, table.cells[(cat, cfg)])
                  for cfg in HEURISTICS if (cat, cfg) in table.cells]
        lines.append("")
    lines.append("Overall:")
    lines += [_table_row("ALL", cfg, table.overall[cfg])
              for cfg in HEURISTICS if cfg in table.overall]
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
        for cfg, p in rep.pairwise_p.items():
            mark = "*" if p < rep.alpha_corrected else " "
            lines.append(f"    {cfg} vs {BASELINE}: p={p:.4g} {mark}")
        for cfg, reason in (part.split(": ", 1) for part in rep.note.split("; ") if part):
            lines.append(f"    {cfg} vs {BASELINE}: not tested ({reason})")
        if rep.friedman_p >= 0.05:
            lines.append("    (no pairwise tests: Friedman not significant)")
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def export_report(rows: list[OutcomeRow], out_dir: Path | str) -> dict:
    """Write the full report set; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the whole table checks the universe first, so a mismatch names
    # every offending bug, not one category's
    table = metrics_table(rows)
    reports = [
        stat_test_report(rows, metric, cat)
        for metric in ("cost", "steps") for cat in _categories(rows)
    ]
    files = {
        "table": ("metrics_table.txt", render_metrics_table(table)),
        "overlap": ("overlap_regions.json", _json(overlap_regions(rows).to_json())),
        "frontier": ("tradeoff_points.json", _json([
            {"combo": list(p.combo), "success_rate": float(p.success_rate),
             "avg_cost": float(p.avg_cost)}
            for p in tradeoff_frontier(rows)
        ])),
        "stats": ("significance.txt", render_stat_reports(reports)),
        # the configs a report spans are in significance.txt's header
        "stats_json": ("significance.json", _json([
            {k: v for k, v in r._asdict().items() if k != "configs"} for r in reports
        ])),
    }
    for name, text in files.values():
        (out_dir / name).write_text(text)
    return {key: str(out_dir / name) for key, (name, _) in files.items()}
