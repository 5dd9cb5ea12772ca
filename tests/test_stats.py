"""Significance tests against enumeration and scipy oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2, friedmanchisquare, norm, rankdata, wilcoxon

from histrepair.errors import DegenerateAllZero, InsufficientData
from histrepair.stats import (
    BONFERRONI_ALPHA,
    _chi2_sf,
    _norm_sf,
    average_ranks,
    bonferroni_alpha,
    friedman_test,
    wilcoxon_signed_rank,
)


def test_average_ranks_hand_cases():
    assert average_ranks([10, 20, 30]) == [1.0, 2.0, 3.0]
    assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([7, 7, 7]) == [2.0, 2.0, 2.0]
    assert average_ranks([5, 1, 3]) == [3.0, 1.0, 2.0]
    assert average_ranks([]) == []


# --- Wilcoxon signed-rank ---------------------------------------------------

def enumeration_oracle(pairs):
    """Exact two-sided p by enumerating all 2^n sign assignments.

    Ranking comes from scipy.rankdata, enumeration from raw iteration;
    every quantity is a multiple of 0.5, so float sums stay exact.
    """
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
    return min(w_obs, total - w_obs), hits / 2 ** len(diffs)


def test_wilcoxon_hand_case():
    # diffs 1, -2, 3, 4: ranks 1..4, W+ = 8, W- = 2
    # assignments with |W - 5| >= 3: W in {0,1,2,8,9,10} -> 6 of 16
    pairs = [(11, 10), (8, 10), (13, 10), (14, 10)]
    stat, p, significant = wilcoxon_signed_rank(pairs)
    assert stat == 2
    assert p == pytest.approx(6 / 16, abs=1e-15)
    assert significant is False


def test_wilcoxon_hand_case_with_ties():
    # diffs 2, -2, 3: tied |d| ranks 1.5, 1.5, 3; W+ = 4.5
    # doubled-rank enumeration gives p = 6/8
    stat, p, _ = wilcoxon_signed_rank([(2, 0), (0, 2), (3, 0)])
    assert stat == 1.5
    assert p == pytest.approx(0.75, abs=1e-15)


def test_wilcoxon_exact_matches_enumeration_oracle():
    rng = random.Random(2024)
    tested = 0
    while tested < 200:
        n = rng.randint(1, 10)
        pairs = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(n)]
        if all(a == b for a, b in pairs):
            continue
        stat, p, _ = wilcoxon_signed_rank(pairs)
        oracle_stat, oracle_p = enumeration_oracle(pairs)
        assert stat == pytest.approx(oracle_stat, abs=1e-12)
        assert p == pytest.approx(oracle_p, abs=1e-12)
        tested += 1


def test_wilcoxon_exact_matches_scipy_on_untied_data():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(5, 20)
        x = [rng.random() * 10 for _ in range(n)]
        y = [rng.random() * 10 for _ in range(n)]
        stat, p, _ = wilcoxon_signed_rank(list(zip(x, y)))
        ref = wilcoxon(np.array(x) - np.array(y),
                       alternative="two-sided", method="exact")
        assert stat == ref.statistic
        assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_normal_approx_matches_scipy_above_cutoff():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(26, 40)
        x = [rng.random() * 10 for _ in range(n)]
        y = [rng.random() * 10 for _ in range(n)]
        stat, p, _ = wilcoxon_signed_rank(list(zip(x, y)))
        ref = wilcoxon(np.array(x) - np.array(y), correction=True,
                       alternative="two-sided", method="approx")
        assert stat == ref.statistic
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_wilcoxon_drops_zero_differences():
    base = [(3, 1), (5, 2), (1, 4)]
    padded = base + [(7, 7), (2, 2)]
    assert wilcoxon_signed_rank(base) == wilcoxon_signed_rank(padded)


def test_wilcoxon_all_zero_is_degenerate():
    with pytest.raises(DegenerateAllZero):
        wilcoxon_signed_rank([(4, 4), (9, 9)])


def test_wilcoxon_significance_flag_uses_corrected_alpha():
    # one-sided sweep of 10: exact p = 2/1024 < 1/60
    strong = [(i + 10, i) for i in range(10)]
    _, p, significant = wilcoxon_signed_rank(strong)
    assert p == pytest.approx(2 / 1024, abs=1e-15)
    assert significant is True
    # a tiny sample can never reach significance at the corrected level
    _, p2, weak = wilcoxon_signed_rank([(2, 1), (3, 5)])
    assert weak is False


# --- Friedman ---------------------------------------------------------------

def friedman_oracle(matrix):
    """Textbook statistic with explicit tie correction factor."""
    m = np.asarray(matrix, dtype=float)
    n, k = m.shape
    ranks = np.apply_along_axis(rankdata, 1, m)
    rj = ranks.sum(axis=0)
    chisq = 12.0 / (n * k * (k + 1)) * float(np.sum(rj ** 2)) - 3 * n * (k + 1)
    tie_mass = 0.0
    for row in m:
        _, counts = np.unique(row, return_counts=True)
        tie_mass += float(np.sum(counts ** 3 - counts))
    correction = 1 - tie_mass / (n * k * (k * k - 1))
    if correction == 0:
        return 0.0, 1.0
    stat = chisq / correction
    return stat, float(chi2.sf(stat, k - 1))


def test_friedman_matches_formula_oracle():
    rng = random.Random(86)
    for _ in range(60):
        n, k = rng.randint(2, 12), rng.randint(2, 5)
        matrix = [[rng.randint(0, 4) for _ in range(k)] for _ in range(n)]
        if all(len(set(row)) == 1 for row in matrix):
            continue
        try:
            stat, p = friedman_test(matrix)
        except InsufficientData:
            raise AssertionError("complete matrix rejected")
        ostat, op = friedman_oracle(matrix)
        assert stat == pytest.approx(ostat, abs=1e-9)
        assert p == pytest.approx(op, abs=1e-9)


def test_friedman_matches_scipy():
    rng = random.Random(13)
    for _ in range(40):
        n, k = rng.randint(3, 12), rng.randint(3, 5)
        matrix = [[rng.random() for _ in range(k)] for _ in range(n)]
        cols = [np.array([row[j] for row in matrix]) for j in range(k)]
        ref = friedmanchisquare(*cols)
        stat, p = friedman_test(matrix)
        assert stat == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_friedman_identical_rank_pattern():
    # every row ranks 1..4 the same way: statistic is 3n exactly
    matrix = [[40 + i, 30 + i, 20 + i, 10 + i] for i in range(10)]
    stat, p = friedman_test(matrix)
    assert stat == pytest.approx(30.0)
    assert p == pytest.approx(float(chi2.sf(30.0, 3)))
    assert p < 0.05


def test_friedman_fully_tied_matrix_is_flat():
    matrix = [[5, 5, 5, 5] for _ in range(6)]
    assert friedman_test(matrix) == (0.0, 1.0)


def test_friedman_insufficient_data():
    with pytest.raises(InsufficientData):
        friedman_test([[1, 2, 3]])          # one row
    with pytest.raises(InsufficientData):
        friedman_test([[1], [2]])           # one column
    with pytest.raises(InsufficientData):
        friedman_test([[1, 2], [3, 4, 5]])  # ragged
    with pytest.raises(InsufficientData):
        friedman_test([])


def test_bonferroni_alpha_value():
    assert BONFERRONI_ALPHA == Fraction(1, 60)
    assert f"{float(BONFERRONI_ALPHA):.4f}" == "0.0167"


def test_bonferroni_alpha_divides_by_comparisons():
    assert bonferroni_alpha(3) == BONFERRONI_ALPHA
    assert bonferroni_alpha(1) == Fraction(1, 20)
    assert bonferroni_alpha(2) == Fraction(1, 40)


# --- closed-form tails against scipy ------------------------------------------

@pytest.mark.parametrize("df", [1, 2, 3, 4, 5])
def test_chi2_sf_matches_scipy(df):
    # Friedman statistics are rationals with small denominators
    friedman_like = [Fraction(a, b) for b in (1, 3, 7, 12, 45) for a in range(0, 200, 7)]
    xs = ([0.0, 1e-300, 1e-12, 1e-6, 0.5, 9.0, 30.0, 123.456]
          + [float(f) for f in friedman_like]
          + [950.0, 1000.0])
    for x in xs:
        ref = float(chi2.sf(x, df))
        assert _chi2_sf(x, df) == pytest.approx(ref, rel=1e-12, abs=0), (df, x)
    # far tail: still a positive, accurate number, not an underflow to 0
    assert 0 < _chi2_sf(950.0, df) < 1e-200


def test_normal_tail_matches_scipy():
    for i in range(801):
        z = i / 100
        assert _norm_sf(z) == pytest.approx(float(norm.sf(z)), rel=1e-12, abs=0), z
