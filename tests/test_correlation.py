from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dqeval.correlation import _concordance_counts, _inversions, concordance_cc, correlation, cramers_v, icc
from dqeval.datamodel import MISSING, Codes
from dqeval.distribution import MetricInputError
from tests.conftest import ratings


def test_pearson_frozen_value():
    assert correlation("pearson", [1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)


def test_pearson_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    y = 0.6 * x + rng.normal(size=40)
    assert correlation("pearson", list(x), list(y)) == pytest.approx(np.corrcoef(x, y)[0, 1])


def test_spearman_with_ties_matches_scipy():
    x = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 7.0]
    y = [3.0, 1.0, 4.0, 4.0, 6.0, 8.0, 8.0]
    assert correlation("spearman", x, y) == pytest.approx(scipy.stats.spearmanr(x, y).statistic)


def _kendall_tau_b_oracle(x, y):
    """O(n^2) pair walk with the tie-corrected denominator."""
    n = len(x)
    concordant = discordant = tie_x = tie_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tie_x += 1
            elif dy == 0:
                tie_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    tx = sum(1 for i in range(n) for j in range(i + 1, n) if x[i] == x[j])
    ty = sum(1 for i in range(n) for j in range(i + 1, n) if y[i] == y[j])
    return (concordant - discordant) / math.sqrt((n0 - tx) * (n0 - ty))


def _pair_counts(x, y):
    """(C - D, ties_x, ties_y, ties_both, n0) by walking every pair."""
    n = len(x)
    c_minus_d = tie_x = tie_y = tie_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            tie_x += x[i] == x[j]
            tie_y += y[i] == y[j]
            tie_both += x[i] == x[j] and y[i] == y[j]
            if x[i] != x[j] and y[i] != y[j]:
                c_minus_d += 1 if (x[i] < x[j]) == (y[i] < y[j]) else -1
    return c_minus_d, tie_x, tie_y, tie_both, n * (n - 1) // 2


# few distinct values, so most pairs tie on one side or both; 0.0 and -0.0 are equal
_tied = st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0]), min_size=3, max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_concordance_counts_equal_the_pair_walk(data):
    x = data.draw(_tied)
    y = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0, 7.5]) | st.floats(-1e3, 1e3),
                           min_size=len(x), max_size=len(x)))
    got = _concordance_counts(np.array(x), np.array(y))
    want = _pair_counts(x, y)
    assert got == tuple(map(float, want))
    c_minus_d, tx, ty, both, n0 = want
    if (n0 - tx) * (n0 - ty):
        assert correlation("kendall_tau", x, y) == c_minus_d / math.sqrt((n0 - tx) * (n0 - ty))
    if n0 - tx - ty + both:
        assert correlation("goodman_kruskal_gamma", x, y) == c_minus_d / (n0 - tx - ty + both)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 300_000), min_size=1, max_size=80))
def test_inversions_equal_the_pair_walk(ranks):
    # ranks past 2**16 take the sort that is not by radix
    want = sum(ranks[i] > ranks[j] for i in range(len(ranks)) for j in range(i + 1, len(ranks)))
    assert _inversions(np.array(ranks)) == want


@pytest.mark.parametrize("seed", range(5))
def test_kendall_tau_b_matches_pair_walk_oracle(seed):
    rng = np.random.default_rng(seed)
    x = list(rng.integers(0, 6, size=25).astype(float))  # integers force ties
    y = list(rng.integers(0, 6, size=25).astype(float))
    assert correlation("kendall_tau", x, y) == pytest.approx(_kendall_tau_b_oracle(x, y))
    assert correlation("kendall_tau", x, y) == pytest.approx(
        scipy.stats.kendalltau(x, y).statistic
    )


def test_gamma_perfect_monotone_is_one():
    assert correlation("goodman_kruskal_gamma", [1, 2, 3, 4], [10, 20, 30, 40]) == 1.0


def test_gamma_balanced_ties_is_zero():
    x = [1.0, 1.0, 2.0, 2.0]
    y = [1.0, 2.0, 1.0, 2.0]
    # only (0,3) concordant and (1,2) discordant; the rest tied
    assert correlation("goodman_kruskal_gamma", x, y) == pytest.approx(0.0)


def test_gamma_exceeds_tau_under_ties():
    rng = np.random.default_rng(9)
    x = list(rng.integers(0, 3, size=30).astype(float))
    y = [v + rng.integers(0, 2) for v in x]
    tau = correlation("kendall_tau", x, y)
    gamma = correlation("goodman_kruskal_gamma", x, y)
    assert abs(gamma) >= abs(tau) - 1e-12


def test_correlation_deletes_incomplete_pairs():
    x = [1.0, MISSING, 2.0, 3.0]
    y = [1.0, 5.0, 2.0, MISSING]
    with pytest.raises(MetricInputError):
        correlation("pearson", x, y)  # only 2 complete pairs remain
    x = [1.0, MISSING, 2.0, 3.0, 4.0]
    y = [2.0, 5.0, 3.0, 4.0, 5.0]
    assert correlation("pearson", x, y) == pytest.approx(1.0)


def test_correlation_unknown_kind_rejected():
    with pytest.raises(MetricInputError):
        correlation("biserial", [1, 2, 3], [1, 2, 3])


def test_ccc_frozen_value():
    assert concordance_cc([1, 2, 3], [2, 3, 4]) == pytest.approx(4 / 7)


def test_ccc_perfect_agreement_is_one():
    assert concordance_cc([1.0, 2.0, 3.5], [1.0, 2.0, 3.5]) == pytest.approx(1.0)


def test_ccc_never_exceeds_pearson():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    y = 0.8 * x + 0.3 + rng.normal(scale=0.4, size=50)
    assert abs(concordance_cc(list(x), list(y))) <= abs(correlation("pearson", list(x), list(y))) + 1e-12


def _icc21_anova_oracle(matrix):
    """Two-way random single-measure absolute agreement via mean squares."""
    m = np.asarray(matrix, dtype=float)
    n, k = m.shape
    grand = m.mean()
    ms_rows = k * np.sum((m.mean(axis=1) - grand) ** 2) / (n - 1)
    ms_cols = n * np.sum((m.mean(axis=0) - grand) ** 2) / (k - 1)
    ss_total = np.sum((m - grand) ** 2)
    ss_err = ss_total - (n - 1) * ms_rows - (k - 1) * ms_cols
    ms_err = ss_err / ((n - 1) * (k - 1))
    return (ms_rows - ms_err) / (ms_rows + (k - 1) * ms_err + k * (ms_cols - ms_err) / n)


SHROUT_FLEISS = (
    (9.0, 2.0, 5.0, 8.0),
    (6.0, 1.0, 3.0, 2.0),
    (8.0, 4.0, 6.0, 8.0),
    (7.0, 1.0, 2.0, 6.0),
    (10.0, 5.0, 6.0, 9.0),
    (6.0, 2.0, 4.0, 7.0),
)


def test_icc_2_1_matches_anova_oracle():
    value = icc(ratings(SHROUT_FLEISS))
    assert value == pytest.approx(_icc21_anova_oracle(SHROUT_FLEISS))
    assert value == pytest.approx(0.29, abs=0.005)  # published benchmark


def test_icc_perfect_agreement_is_one():
    m = ratings(((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)))
    assert icc(m) == pytest.approx(1.0)


def test_icc_undefined_without_between_item_variance():
    with pytest.raises(MetricInputError, match="zero between-item variance"):
        icc(ratings(((2.0, 2.0), (2.0, 2.0), (2.0, 2.0))))


@pytest.mark.parametrize("offset", [1.0, 1e3, 1e6, 1e9])
def test_icc_of_identical_raters_stays_at_one_far_from_zero(offset):
    # a residual sum of squares taken as ss_total - ss_rows - ss_cols
    # cancelled here; at 1e9 the fourth table read 1.0000000193814451
    rng = np.random.default_rng(0)
    for k in (2, 3, 5):
        for _ in range(4):
            column = offset + rng.normal(0.0, 1.0, 14)
            value = icc(ratings([(v,) * k for v in column.tolist()]))
            assert 1.0 - 1e-9 <= value <= 1.0, (k, value)


def _label_pairs(table):
    """Expand a contingency table into two parallel label columns."""
    a, b = [], []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            a.extend([f"r{i}"] * int(count))
            b.extend([f"c{j}"] * int(count))
    return Codes.factorize(a), Codes.factorize(b)


def test_cramers_v_frozen_value():
    a, b = _label_pairs([[10, 20], [20, 10]])
    v = cramers_v(a, b)
    chi2 = scipy.stats.chi2_contingency([[10, 20], [20, 10]], correction=False).statistic
    assert v == pytest.approx(math.sqrt(chi2 / 60.0))
    assert v == pytest.approx(1 / 3, abs=1e-9)


def test_cramers_v_independence_near_zero():
    a, b = _label_pairs([[25, 25], [25, 25]])
    assert cramers_v(a, b) == pytest.approx(0.0)


def test_cramers_v_bias_correction_shrinks():
    rng = np.random.default_rng(5)
    table = rng.integers(5, 30, size=(3, 4))
    a, b = _label_pairs(table)
    assert cramers_v(a, b, bias_correction=True) <= cramers_v(a, b) + 1e-12


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=3,
        max_size=25,
    )
)
@settings(max_examples=60, deadline=None)
def test_correlations_bounded_and_antisymmetric(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    for kind in ("pearson", "spearman", "kendall_tau"):
        try:
            r = correlation(kind, x, y)
        except MetricInputError:
            continue  # degenerate (constant) input is a documented rejection
        assert -1 - 1e-9 <= r <= 1 + 1e-9
        assert correlation(kind, x, [-v for v in y]) == pytest.approx(-r, abs=1e-9)



@pytest.mark.parametrize("tiny", [3.05e-159, 3e-160, 1e-161])
def test_pearson_stays_bounded_at_subnormal_scale(tiny):
    # the variance of y underflows into subnormals, and the separately
    # rounded moments once gave 1.0000008 (3.05e-159) or 1.06 (1e-161)
    x, y = [0.0, 0.0, 1.0], [0.0, 0.0, tiny]
    r = correlation("pearson", x, y)
    assert -1.0 <= r <= 1.0
    assert correlation("pearson", x, [-v for v in y]) == -r
