"""Nonparametric significance tests for paired repair outcomes.

Friedman across the four configurations, then pairwise Wilcoxon
signed-rank against the no-history baseline when Friedman rejects.
Wilcoxon p-values are exact for n <= 25 (dynamic programming over the
doubled-rank sum distribution, so average ranks from ties stay integer
arithmetic) and use the normal approximation with continuity correction
above that. Both tests are two-sided. The chi-square and normal tails
come from closed forms over `math.erfc`, so importing this module costs
no numerical library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateAllZero, InsufficientData

EXACT_CUTOFF = 25


def bonferroni_alpha(comparisons: int) -> Fraction:
    """Per-comparison alpha that keeps the family-wise rate at 0.05."""
    return Fraction(5, 100) / max(comparisons, 1)


# three pairwise comparisons against the baseline: all four configs
BONFERRONI_ALPHA = bonferroni_alpha(3)


def _chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with integer `df` >= 1.

    Finite series of the regularized upper incomplete gamma function
    Q(df/2, x/2): for even df, exp(-h) * sum_{i<df/2} h^i / i!; for odd
    df, erfc(sqrt(h)) + exp(-h) * sum_{1<=i<=(df-1)/2} h^(i-1/2) / G(i+1/2),
    with h = x/2. Every term is positive, so nothing cancels.
    """
    if x <= 0:
        return 1.0
    h = x / 2
    if df % 2 == 0:
        term = total = 1.0
        for i in range(1, df // 2):
            term *= h / i
            total += term
        return math.exp(-h) * total
    total = 0.0
    term = 2 * math.sqrt(h / math.pi)  # h^(1/2) / G(3/2)
    for i in range(1, (df - 1) // 2 + 1):
        total += term
        term *= h / (i + 0.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def _norm_sf(z: float) -> float:
    """P(Z >= z) for a standard normal Z."""
    return math.erfc(z / math.sqrt(2)) / 2


def average_ranks(values: Sequence) -> list[float]:
    """Ranks 1..n with tied values sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share ranks i+1..j+1
        shared = (i + j + 2) / 2
        for pos in range(i, j + 1):
            ranks[order[pos]] = shared
        i = j + 1
    return ranks


def _exact_two_sided_p(doubled_ranks: list[int], w2_obs: int) -> Fraction:
    """P(|W - mu| >= |w_obs - mu|) over all 2^n sign assignments.

    Works on doubled ranks so tied average ranks (multiples of 0.5)
    become integers. W is the positive-rank sum; its doubled total is
    S2 and the exact distribution of achievable doubled sums comes from
    the subset-sum polynomial.
    """
    s2 = sum(doubled_ranks)
    counts = [0] * (s2 + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(s2, r - 1, -1):
            counts[s] += counts[s - r]
    # compare integer distances: |2W2 - S2| >= |2w2 - S2|
    target = abs(2 * w2_obs - s2)
    numer = sum(c for s, c in enumerate(counts) if abs(2 * s - s2) >= target)
    return Fraction(numer, 2 ** len(doubled_ranks))


def wilcoxon_signed_rank(pairs: Sequence[tuple], alpha=BONFERRONI_ALPHA):
    """Two-sided Wilcoxon signed-rank test on paired measurements.

    Returns (statistic, p, significant). The statistic is the smaller
    of the positive/negative rank sums. Zero differences are dropped;
    all-zero input raises DegenerateAllZero.
    """
    diffs = [a - b for a, b in pairs]
    nonzero = [d for d in diffs if d != 0]
    if not nonzero:
        raise DegenerateAllZero("all paired differences are zero")
    n = len(nonzero)
    ranks = average_ranks([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    total = n * (n + 1) / 2
    w_minus = total - w_plus
    statistic = min(w_plus, w_minus)

    if n <= EXACT_CUTOFF:
        doubled = [round(2 * r) for r in ranks]
        p_exact = _exact_two_sided_p(doubled, round(2 * w_plus))
        p = float(p_exact)
    else:
        mu = total / 2
        sigma = math.sqrt(sum(r * r for r in ranks) / 4)
        delta = w_plus - mu
        if delta == 0 or sigma == 0:
            p = 1.0
        else:
            z = (abs(delta) - 0.5) / sigma
            p = min(1.0, 2 * _norm_sf(z))
    return statistic, p, p < alpha


def friedman_test(matrix: Sequence[Sequence]) -> tuple[float, float]:
    """Friedman test over a complete bugs x configs matrix.

    Rows are ranked with average ties; the tie-corrected chi-square
    statistic is referred to the chi-square distribution with k-1
    degrees of freedom. A matrix with every row fully tied carries no
    effect: statistic 0, p 1.
    """
    n = len(matrix)
    k = len(matrix[0]) if n else 0
    if n < 2 or k < 2:
        raise InsufficientData(f"need >= 2 rows and columns, got {n}x{k}")
    if any(len(row) != k for row in matrix):
        raise InsufficientData("ragged matrix")

    row_ranks = [average_ranks(row) for row in matrix]
    col_sums = [sum(rr[j] for rr in row_ranks) for j in range(k)]
    a = sum(r * r for rr in row_ranks for r in rr)
    c_star = n * k * (k + 1) ** 2 / 4
    center = n * (k + 1) / 2
    numerator = (k - 1) * sum((rj - center) ** 2 for rj in col_sums)
    denominator = a - c_star
    if denominator == 0:
        return 0.0, 1.0
    statistic = numerator / denominator
    p = _chi2_sf(statistic, k - 1)
    return statistic, p
