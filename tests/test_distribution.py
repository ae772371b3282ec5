from __future__ import annotations

import itertools
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from scipy.spatial.distance import cdist
from hypothesis import given, settings
from hypothesis import strategies as st

from dqeval.datamodel import pooled_counts
import dqeval.distribution as dist_mod
from dqeval.distribution import (
    EmbeddingSet,
    MetricInputError,
    MetricWarning,
    cohens_d,
    divergence,
    energy_distance,
    frechet_gaussian,
    hill_number,
    kid,
    load_embeddings,
    median_heuristic_bandwidth,
    mmd,
    summary_stats,
    two_sample_test,
    wasserstein_1d,
)
from dqeval.distribution import _average_ranks, _kstwo_sf, _pearson_chi2

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(finite_floats, min_size=2, max_size=30).map(tuple)


# --- summary statistics ------------------------------------------------------


def test_summary_stats_frozen_values():
    st_ = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert st_["mean"] == 2.5
    assert st_["range"] == 3.0
    assert st_["q1"] == 1.75  # linear interpolation between closest ranks
    assert st_["q3"] == 3.25
    assert st_["iqr"] == 1.5
    assert st_["std"] == pytest.approx(np.std([1, 2, 3, 4], ddof=1))


def test_summary_stats_single_point_std_nan():
    assert math.isnan(summary_stats([5.0])["std"])


def test_summary_stats_empty_rejected():
    with pytest.raises(MetricInputError):
        summary_stats([])


# --- Hill numbers ------------------------------------------------------------


def test_hill_frozen_values():
    c = [80, 20]
    assert hill_number(c, 2) == pytest.approx(1 / (0.8**2 + 0.2**2))
    assert hill_number(c, 2) == pytest.approx(1.4706, abs=5e-4)
    assert hill_number(c, 0) == 2.0
    assert hill_number(c, 1) == pytest.approx(math.exp(0.5004), abs=5e-4)


def test_hill_uniform_is_category_count():
    c = [7, 7, 7, 7]
    for q in (0, 0.5, 1, 2, 5):
        assert hill_number(c, q) == pytest.approx(4.0)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8),
    st.floats(min_value=0, max_value=6),
)
def test_hill_bounded_by_richness(counts, q):
    d = hill_number(counts, q)
    assert 1.0 - 1e-9 <= d <= len(counts) + 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=2, max_size=8))
def test_hill_decreasing_in_q(counts):
    values = [hill_number(counts, q) for q in (0, 0.5, 1, 2, 4)]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-9


# --- effect size and kernel distances ---------------------------------------


def test_cohens_d_unit_shift():
    assert cohens_d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(-1.0)


def test_mmd_identity_zero():
    x = [1.0, 2.0, 3.0, 4.0]
    assert mmd(x, x, bandwidth=1.0) == pytest.approx(0.0, abs=1e-12)


def test_mmd_matches_direct_kernel_sums():
    rng = np.random.default_rng(0)
    a = rng.normal(size=8)
    b = rng.normal(1.0, size=9)
    bw = 1.3

    def k(x, y):
        return math.exp(-((x - y) ** 2) / (2 * bw * bw))

    kaa = np.mean([[k(x, y) for y in a] for x in a])
    kbb = np.mean([[k(x, y) for y in b] for x in b])
    kab = np.mean([[k(x, y) for y in b] for x in a])
    expected = math.sqrt(max(kaa + kbb - 2 * kab, 0.0))
    assert mmd(list(a), list(b), bandwidth=bw) == pytest.approx(expected)


@pytest.mark.parametrize("kernel", ["rbf", "polynomial"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mmd_rejects_a_nonfinite_point_with_an_explicit_bandwidth(kernel, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricInputError, match="finite"):
            mmd([1.0, bad], [2.0, 3.0], kernel=kernel, bandwidth=1.0)
        with pytest.raises(MetricInputError, match="finite"):
            mmd([[0.0, 1.0], [1.0, 0.0]], [[2.0, bad], [3.0, 0.0]], kernel=kernel, bandwidth=1.0)


@pytest.mark.parametrize("bandwidth", [1e-162, 1e-200, 5e-324])
def test_vector_rbf_mmd_keeps_kernel_one_at_zero_distance_for_a_tiny_bandwidth(bandwidth):
    a = EmbeddingSet([[0.0, 1.0], [1.0, 0.0]]).vectors
    b = EmbeddingSet([[2.0, 1.0], [3.0, 0.0]]).vectors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # both within-sample kernel matrices are the identity, the cross one
        # is zero: MMD^2 = 1/2 + 1/2
        assert mmd(a, b, bandwidth=bandwidth) == 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mmd([1.0], [2.0, 3.0]), "mmd requires at least two points per sample"),
        (lambda: mmd([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]),
         "mmd inputs must share their dimension"),
        (lambda: mmd([1.0, 2.0], [2.0, 3.0], bandwidth=0.0), "rbf bandwidth must be > 0"),
        (lambda: mmd([1.0, 2.0], [2.0, 3.0], bandwidth=-1.0), "rbf bandwidth must be > 0"),
        (lambda: mmd([1.0, 2.0], [2.0, 3.0], bandwidth=math.inf), "rbf bandwidth must be finite"),
        (lambda: energy_distance([[0.0, 1.0]], [[0.0, 1.0, 2.0]]), "energy_distance inputs must share their dimension"),
        (lambda: cohens_d([2.0, 2.0, 2.0], [5.0, 5.0]), "cohens_d is undefined for zero pooled variance"),
    ],
    ids=["mmd-one-point", "mmd-dimensions", "rbf-zero-bandwidth", "rbf-negative-bandwidth",
         "rbf-infinite-bandwidth", "energy-dimensions", "cohens-d-constant"],
)
def test_distance_input_checks(call, message):
    with pytest.raises(MetricInputError, match=message):
        call()


def test_mmd_rejects_a_median_heuristic_bandwidth_that_overflows():
    # the median gap of points 2e200 apart overflows in sqrt(d*d), as cdist's
    # does; an infinite bandwidth made every kernel value 1 and the MMD 0
    a, b = np.array([-1e200, 1e200, 0.0]), np.array([1.0, 2.0])
    with np.errstate(over="ignore"):
        assert median_heuristic_bandwidth(a, b) == math.inf
        with pytest.raises(MetricInputError, match="rbf bandwidth must be finite"):
            mmd(a, b)


def test_mmd_median_heuristic_used_when_bandwidth_absent():
    a, b = [0.0, 1.0, 2.0], [5.0, 6.0, 7.0]
    bw = median_heuristic_bandwidth(a, b)
    assert mmd(a, b) == pytest.approx(mmd(a, b, bandwidth=bw))


def _bandwidth_oracle(pooled):
    """Median heuristic from the full distance matrix, and whether it fell back."""
    p = np.asarray(pooled, dtype=float).reshape(-1, 1)
    d = cdist(p, p)
    upper = d[np.triu_indices_from(d, k=1)]
    med = float(np.median(upper))
    if med > 0:
        return med, False
    nonzero = upper[upper > 0]
    return (float(np.median(nonzero)) if nonzero.size else 1.0), True


def _assert_bandwidth_matches_oracle(pooled, cut):
    expected, fell_back = _bandwidth_oracle(pooled)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = median_heuristic_bandwidth(pooled[:cut], pooled[cut:])
    assert got == expected
    assert any("degenerate" in str(w.message) for w in caught) == fell_back


_pooled_samples = st.one_of(
    st.lists(finite_floats, min_size=2, max_size=60),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40),
    st.lists(st.integers(-6, 6).map(float), min_size=2, max_size=60),
    st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 2.5]), min_size=2, max_size=60),
    st.tuples(finite_floats, finite_floats, st.integers(1, 59)).map(
        lambda t: [t[0]] * t[2] + [t[1]]
    ),
    st.tuples(finite_floats, st.integers(2, 60)).map(lambda t: [t[0]] * t[1]),
)


@given(_pooled_samples, st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_median_heuristic_1d_equals_the_distance_matrix_median(pooled, cut):
    pooled = np.array(pooled)
    _assert_bandwidth_matches_oracle(pooled, min(cut, pooled.size))


@pytest.mark.parametrize(
    "n, kind",
    [(402, "normal"), (400, "normal"), (403, "rounded"), (401, "rounded"), (400, "mostly_tied")],
)
def test_median_heuristic_selection_rounds_match_the_oracle(monkeypatch, n, kind):
    # n(n-1)/2 is odd for n = 402, 403 and even for n = 400, 401; every count
    # is far above 4n, so selection rounds run before the final partition
    rng = np.random.default_rng(n)
    if kind == "normal":
        pooled = rng.normal(3.0, 2.0, n)
    elif kind == "rounded":
        pooled = np.round(rng.normal(40.0, 15.0, n))
    else:  # more than half of the gaps are zero: the fallback selects past them
        pooled = np.concatenate([np.zeros(3 * n // 4), rng.normal(0.0, 1.0, n - 3 * n // 4)])
    counts = []
    bound = dist_mod._gap_bound
    monkeypatch.setattr(dist_mod, "_gap_bound", lambda *a, **k: counts.append(1) or bound(*a, **k))
    _assert_bandwidth_matches_oracle(pooled, n // 3)
    assert counts


def test_median_heuristic_on_vectors_selects_past_zero_distances():
    rng = np.random.default_rng(32)
    spread = rng.normal(0.0, 1.0, (4, 2))
    a = np.vstack([np.zeros((6, 2)), spread[:2]])
    b = np.vstack([np.zeros((5, 2)), spread[2:]])
    d = cdist(np.vstack([a, b]), np.vstack([a, b]))
    # 55 of the 105 pairs are copies of the origin, so the plain median is 0
    assert np.median(d[np.triu_indices_from(d, k=1)]) == 0.0
    with pytest.warns(MetricWarning, match="degenerate"):
        assert median_heuristic_bandwidth(a, b) == np.median(d[d > 0])
    with pytest.warns(MetricWarning, match="degenerate"):
        assert median_heuristic_bandwidth(np.ones((3, 2)), np.ones((2, 2))) == 1.0


def test_median_heuristic_rejects_nonfinite_or_single_points():
    with pytest.raises(MetricInputError):
        median_heuristic_bandwidth([1.0, math.nan], [2.0])
    with pytest.raises(MetricInputError):
        median_heuristic_bandwidth([1.0], [])


@pytest.mark.parametrize("offset", [0, -dist_mod._PIVOT_SAMPLE // 8])
def test_median_heuristic_one_pivot_rounds_match_the_oracle(monkeypatch, offset):
    # with no offset the two pivots are one gap; with a negative one they
    # straddle the target the wrong way round. The bracket then misses, and
    # every round takes a one-pivot step on one side or the other
    monkeypatch.setattr(dist_mod, "_PIVOT_OFFSET", offset)
    rng = np.random.default_rng(11)
    for pooled in (rng.normal(3.0, 2.0, 402), np.round(rng.normal(40.0, 15.0, 401)), rng.normal(0.0, 1.0, 400)):
        _assert_bandwidth_matches_oracle(pooled, 134)


def _gap_bound_oracle(x, lo, hi, t, strict):
    """Per row, lo plus the count of cdist gaps in the window that pass."""
    points = x.reshape(-1, 1)
    out = []
    for i in range(x.size):
        d = cdist(points[i : i + 1], points[lo[i] : hi[i]])[0]  # the same sqrt(d*d) per pair
        out.append(int(lo[i] + ((d < t) if strict else (d <= t)).sum()))
    return out


_bound_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # d*d overflows or underflows
    st.sampled_from([0.0, 1.0, 1.0 + 2**-52, 3.0, -1e200, 1e200, 5e-324]),  # runs of ties
)


@given(st.lists(_bound_values, min_size=1, max_size=40), st.data())
@settings(max_examples=300, deadline=None)
def test_gap_bound_counts_the_computed_gaps(values, data):
    x = np.sort(np.array(values))
    n = x.size
    lo = np.array([data.draw(st.integers(i + 1, n)) for i in range(n)])
    hi = np.array([data.draw(st.integers(lo[i], n)) for i in range(n)])
    gaps = cdist(x.reshape(-1, 1), x.reshape(-1, 1)).ravel()
    t = data.draw(st.sampled_from(gaps.tolist()) | st.floats(0.0, allow_nan=False))
    strict = data.draw(st.booleans())
    with np.errstate(over="ignore"):
        got = dist_mod._gap_bound(x, lo, hi, t, strict)
        assert got.tolist() == _gap_bound_oracle(x, lo, hi, t, strict)


@pytest.mark.parametrize(
    "x, t, bound",
    [
        # x[0] + t is 1 - 2**-53, below the run of ties at 1.0, but each gap
        # 1 + 2**-53 rounds to 1.0 <= t: the whole run counts
        (np.array([-(2.0**-53)] + [1.0] * 3000), 1.0, 3001),
        # x[0] + t is far above the run, but d*d overflows, so no gap is <= t
        (np.concatenate([[0.0], np.linspace(1.4e154, 1.5e154, 3000)]), 1e300, 1),
    ],
    ids=["tie-run", "overflow"],
)
def test_gap_bound_finds_a_bound_far_from_the_searchsorted_guess(x, t, bound):
    n = x.size
    lo, hi = np.arange(1, n + 1), np.full(n, n)
    guess = np.searchsorted(x, x[0] + t, "right")
    assert abs(guess - bound) == 3000
    with np.errstate(over="ignore"):
        got = dist_mod._gap_bound(x, lo, hi, t, strict=False)
        assert got[0] == bound
        assert got.tolist() == _gap_bound_oracle(x, lo, hi, t, strict=False)


@given(samples, samples)
@settings(max_examples=50, deadline=None)
def test_mmd_symmetric_nonnegative(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d_ab = mmd(a, b, bandwidth=1.0)
        d_ba = mmd(b, a, bandwidth=1.0)
    assert d_ab >= 0
    assert d_ab == pytest.approx(d_ba, abs=1e-9)


def test_energy_distance_point_masses():
    # 2 E|X-Y| - E|X-X'| - E|Y-Y'| for degenerate samples at 0 and 1
    assert energy_distance([0.0], [1.0]) == pytest.approx(2.0)


def test_energy_distance_is_squared_scipy_convention():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=20), rng.normal(1.0, size=25)
    ours = energy_distance(list(a), list(b))
    assert ours == pytest.approx(scipy.stats.energy_distance(a, b) ** 2)


def _energy_pairwise_oracle(a, b):
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| from the three full distance matrices."""
    a, b = np.asarray(a, float), np.asarray(b, float)

    def mean_abs(p, q):
        return np.abs(p[:, None] - q[None, :]).mean()

    return 2.0 * mean_abs(a, b) - mean_abs(a, a) - mean_abs(b, b)


@pytest.mark.parametrize("kind", ["normal", "integer", "rounded"])
@pytest.mark.parametrize("na, nb", [(1, 7), (40, 25), (700, 450)])
def test_energy_1d_matches_pairwise_sums(kind, na, nb):
    rng = np.random.default_rng(na * nb)
    draw = {
        "normal": lambda n, mu: rng.normal(mu, 2.0, n),
        "integer": lambda n, mu: rng.integers(-4, 5, n) + np.round(mu),
        "rounded": lambda n, mu: np.round(rng.normal(mu, 1.0, n), 1),
    }[kind]
    a, b = draw(na, 0.0), draw(nb, 1.5)
    assert energy_distance(a, b) == pytest.approx(_energy_pairwise_oracle(a, b), rel=1e-12)
    assert energy_distance(a, a) == 0.0


def _mmd_three_matrix_oracle(a, b, kernel):
    """Biased MMD from the full k(a,a), k(b,b) and k(a,b) matrices."""
    a, b = (np.asarray(v, float) for v in (a, b))
    if a.ndim == 1:
        a, b = a.reshape(-1, 1), b.reshape(-1, 1)
    mmd2 = kernel(a, a).mean() + kernel(b, b).mean() - 2.0 * kernel(a, b).mean()
    return math.sqrt(max(mmd2, 0.0))


def _mmd_oracle_for(kernel, a, b):
    if kernel == "rbf":
        bw = median_heuristic_bandwidth(a, b)
        return _mmd_three_matrix_oracle(
            a, b, lambda x, y: np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * bw * bw))
        )
    return _mmd_three_matrix_oracle(a, b, lambda x, y: (x @ y.T / x.shape[1] + 1.0) ** 3)


@pytest.mark.parametrize("kernel", ["rbf", "polynomial"])
def test_mmd_blocks_match_the_three_matrix_formula(kernel):
    n = 2 * dist_mod._KERNEL_BLOCK + 37  # crosses two block boundaries
    rng = np.random.default_rng(5)
    a, b = rng.normal(0.0, 1.0, n), rng.normal(0.8, 1.3, n - 90)
    assert mmd(a, b, kernel=kernel) == pytest.approx(_mmd_oracle_for(kernel, a, b), rel=1e-12)
    assert mmd(a, a, kernel=kernel) == 0.0


def _mmd_inputs(kind, rng):
    """Two samples: heavily tied integers, continuous values, or 2-D
    embeddings whose rows repeat."""
    if kind == "tied":
        return rng.integers(-6, 7, 900).astype(float), rng.integers(-4, 9, 700).astype(float)
    if kind == "continuous":
        return rng.normal(0.0, 1.0, 300), rng.normal(0.5, 1.2, 250)
    pool = np.round(rng.normal(0.0, 1.0, (40, 2)), 1)
    a, b = pool[rng.integers(0, 40, 500)], pool[rng.integers(0, 30, 400)] + [0.2, 0.0]
    return EmbeddingSet(a), EmbeddingSet(b)


@pytest.mark.parametrize("kind", ["tied", "continuous", "embeddings"])
@pytest.mark.parametrize("kernel", ["rbf", "polynomial"])
def test_mmd_over_distinct_rows_matches_the_three_matrix_formula(kernel, kind):
    inputs = _mmd_inputs(kind, np.random.default_rng(12))
    a, b = (v.vectors if isinstance(v, EmbeddingSet) else v for v in inputs)
    assert mmd(a, b, kernel=kernel) == pytest.approx(_mmd_oracle_for(kernel, a, b), rel=1e-12)
    assert mmd(a, a, kernel=kernel) == 0.0
    assert mmd(b, b, kernel=kernel) == 0.0


def test_mmd_kernel_mean_memory_stays_blocked():
    # 3000 + 3000 distinct values: one distinct x distinct kernel matrix
    # would be 72 MB; a 64-row block against 3000 columns is 1.5 MB
    rng = np.random.default_rng(3)
    a, b = rng.normal(0.0, 1.0, 3000), rng.normal(0.3, 1.0, 3000)
    for kernel in ("rbf", "polynomial"):
        tracemalloc.start()
        try:
            mmd(a, b, kernel=kernel, bandwidth=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, kernel


@st.composite
def _rbf_inputs(draw):
    """Two univariate samples (ties, a shared +-1e9 offset, 1e6 outliers or
    Cauchy tails) and a bandwidth factor on the median heuristic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    na, nb = draw(st.integers(2, 60)), draw(st.integers(2, 60))
    tails = draw(st.sampled_from(["normal", "outliers", "cauchy"]))
    if tails == "cauchy":
        a, b = rng.standard_cauchy(na), rng.standard_cauchy(nb) + 0.5
    else:
        a, b = rng.normal(0.0, 1.0, na), rng.normal(0.4, 1.5, nb)
    if tails == "outliers":
        a[0], b[-1] = 1e6, -1e6
    if draw(st.booleans()):
        a, b = np.round(a * 2) / 2, np.round(b * 2) / 2
    offset = draw(st.sampled_from([0.0, 1e9, -1e9]))
    return a + offset, b + offset, draw(st.sampled_from([1e-4, 1e-2, 1.0, 1e2]))


@given(_rbf_inputs())
@settings(max_examples=200, deadline=None)
def test_univariate_rbf_taylor_sums_match_the_pairwise_pass(drawn):
    a, b, factor = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetricWarning)
        bw = factor * median_heuristic_bandwidth(a, b)
    ma, mb = a.reshape(-1, 1), b.reshape(-1, 1)

    def k(x, y):
        sq = x - y.T
        return np.exp(-sq * sq / (2.0 * bw * bw))

    got = dist_mod._rbf_sums_1d(ma, mb, bw)
    want, _ = dist_mod._pooled_kernel_sums(k, ma, mb)
    # pairs beyond the cut-off are dropped: each kernel there is below e^-42
    pairs = np.outer([a.size, b.size], [a.size, b.size])
    assert np.all(np.abs(got - want) <= 1e-12 * want + math.exp(-42.0) * pairs)
    assert mmd(a, b, bandwidth=bw) == mmd(b, a, bandwidth=bw)
    assert mmd(a, a, bandwidth=bw) == 0.0


finite_rows = st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.sampled_from([-1.0, 0.0, 3.0])),
    min_size=1, max_size=40,
)


@given(finite_rows)
def test_distinct_rows_count_each_row_once(rows):
    a = np.array(rows)
    distinct, counts, order = dist_mod.distinct_rows(a)
    ref, ref_counts = np.unique(a, axis=0, return_counts=True)
    np.testing.assert_array_equal(distinct, ref)
    np.testing.assert_array_equal(counts, ref_counts)
    np.testing.assert_array_equal(np.sort(order), np.arange(len(a)))
    np.testing.assert_array_equal(a[order], np.repeat(distinct, counts, axis=0))
    for group in np.split(order, np.cumsum(counts)[:-1]):
        assert np.all(np.diff(group) > 0)  # stable: original order within a group


def test_energy_on_vectors_matches_the_mean_pairwise_distances():
    rng = np.random.default_rng(31)
    a, b = rng.normal(0.0, 1.0, (30, 2)), rng.normal(0.7, 1.5, (25, 2))

    def mean_distance(p, q):
        return np.mean([math.dist(x, y) for x in p for y in q])

    oracle = 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)
    assert energy_distance(a, b) == pytest.approx(oracle, rel=1e-12)
    assert energy_distance(a, a) == 0.0


@given(samples, samples)
@settings(max_examples=50, deadline=None)
def test_energy_symmetric_identity(a, b):
    assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), abs=1e-9)
    assert energy_distance(a, a) == pytest.approx(0.0, abs=1e-9)


# --- divergences -------------------------------------------------------------


def _counts(props, n=1000):
    return [p * n for p in props]


def test_kl_frozen_value():
    v = divergence("kl", _counts([0.5, 0.5]), _counts([0.75, 0.25]))
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert v == pytest.approx(expected)
    assert v == pytest.approx(0.1438, abs=5e-5)


def test_js_bounded_and_symmetric():
    p, q = _counts([0.9, 0.1]), _counts([0.1, 0.9])
    assert divergence("js", p, q) == pytest.approx(divergence("js", q, p))
    assert 0 <= divergence("js", p, q) <= math.log(2) + 1e-12


def test_psi_zero_on_identical():
    p = _counts([0.3, 0.7])
    assert divergence("psi", p, p) == pytest.approx(0.0)


def test_divergence_smooths_zero_bins_with_warning():
    p, q = [10, 0], [5, 5]
    with pytest.warns(MetricWarning, match="smoothed"):
        v = divergence("kl", p, q)
    assert math.isfinite(v)


def test_divergence_strict_mode_raises_on_zero_bins():
    p, q = [10, 0], [5, 5]
    with pytest.raises(MetricInputError):
        divergence("kl", p, q, smoothing="strict")


def test_divergence_of_disjoint_supports():
    p, q = [10, 0], [0, 10]
    with pytest.warns(MetricWarning):
        v = divergence("js", p, q)
    assert v == pytest.approx(math.log(2), abs=1e-3)


def test_divergence_on_pooled_counts():
    a = np.linspace(0, 1, 50)
    b = np.linspace(0.5, 1.5, 50)
    ca, cb = pooled_counts(a, b, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert divergence("kl", ca, cb) > 0


@given(
    st.lists(st.floats(min_value=0.05, max_value=1), min_size=2, max_size=6),
    st.lists(st.floats(min_value=0.05, max_value=1), min_size=2, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_kl_js_nonnegative(p_raw, q_raw):
    k = min(len(p_raw), len(q_raw))
    p, q = _counts(p_raw[:k]), _counts(q_raw[:k])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert divergence("kl", p, q) >= -1e-12
        assert divergence("js", p, q) >= -1e-12


# --- hypothesis tests --------------------------------------------------------


def test_ks_matches_scipy():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=40), rng.normal(0.3, size=35)
    out = two_sample_test("ks", list(a), list(b))
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert out.statistic == pytest.approx(ref.statistic)
    assert out.p_value == pytest.approx(ref.pvalue)


def test_mwu_exact_frozen_case():
    out = two_sample_test("mann_whitney_u", [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert out.statistic == 0.0
    assert out.p_value == pytest.approx(0.1)
    assert "exact" in out.method


def _mwu_bruteforce(a, b):
    """Doubled one-tail permutation p-value of U over all group assignments."""
    pooled = list(a) + list(b)
    n = len(a)

    def u_of(sample_a, sample_b):
        u = 0.0
        for x in sample_a:
            for y in sample_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    observed = u_of(a, b)
    low = high = total = 0
    for idx in itertools.combinations(range(len(pooled)), n):
        grp_a = [pooled[i] for i in idx]
        grp_b = [pooled[i] for i in range(len(pooled)) if i not in set(idx)]
        u = u_of(grp_a, grp_b)
        low += u <= observed + 1e-12
        high += u >= observed - 1e-12
        total += 1
    return observed, min(1.0, 2.0 * min(low, high) / total)


@pytest.mark.parametrize("seed", range(6))
def test_mwu_exact_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 7), rng.integers(2, 7)
    a = list(rng.integers(0, 5, size=n).astype(float))  # integer draws force ties
    b = list(rng.integers(0, 5, size=m).astype(float))
    out = two_sample_test("mann_whitney_u", a, b)
    u_ref, p_ref = _mwu_bruteforce(a, b)
    assert out.statistic == pytest.approx(u_ref)
    assert out.p_value == pytest.approx(p_ref)


def test_mwu_large_samples_use_scipy_asymptotics():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=30), rng.normal(0.5, size=30)
    out = two_sample_test("mann_whitney_u", list(a), list(b))
    ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert out.statistic == pytest.approx(ref.statistic)
    assert out.p_value == pytest.approx(ref.pvalue)


def test_chi_squared_matches_scipy_without_correction():
    out = two_sample_test("chi_squared", [10, 20], [20, 10])
    ref = scipy.stats.chi2_contingency([[10, 20], [20, 10]], correction=False)
    assert out.statistic == pytest.approx(ref.statistic)
    assert out.p_value == pytest.approx(ref.pvalue)


def test_anderson_darling_k_clamped_p_warns():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=30), rng.normal(5.0, size=30)
    with pytest.warns(MetricWarning, match="p-value clamped to its tabulated range"):
        out = two_sample_test("anderson_darling_k", list(a), list(b))
    assert out.p_value == pytest.approx(0.001)


def test_anderson_darling_k_accepts_extra_samples():
    rng = np.random.default_rng(6)
    groups = [rng.normal(size=20) for _ in range(3)]
    out = two_sample_test(
        "anderson_darling_k", list(groups[0]), list(groups[1]), others=[list(groups[2])]
    )
    ref = scipy.stats.anderson_ksamp([g for g in groups], variant="midrank")
    assert out.statistic == pytest.approx(ref.statistic)


def test_epps_singleton_small_sample_unavailable():
    with pytest.warns(MetricWarning) as caught:
        out = two_sample_test("epps_singleton", [1.0, 2.0, 1.5], [2.0, 3.0, 2.5])
    assert out.p_value is None or math.isnan(out.statistic)
    assert any("inapplicable" in str(w.message) or "unavailable" in str(w.message) for w in caught)


def test_epps_singleton_when_scipy_fails_is_a_nan_statistic_with_a_warning():
    # SciPy raises "SVD did not converge" on two constant samples
    with pytest.warns(MetricWarning, match="epps_singleton inapplicable") as caught:
        out = two_sample_test("epps_singleton", np.ones(30), np.ones(30))
    assert math.isnan(out.statistic)
    assert out.p_value is None
    assert (out.n_a, out.n_b) == (30, 30)
    assert sum("inapplicable" in str(w.message) for w in caught) == 1


def test_epps_singleton_warns_below_25():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=20), rng.normal(size=20)
    with pytest.warns(MetricWarning, match="unreliable below 25 points"):
        two_sample_test("epps_singleton", list(a), list(b))


def test_unknown_test_kind_rejected():
    with pytest.raises(MetricInputError):
        two_sample_test("t_test", [1.0, 2.0], [3.0, 4.0])


@pytest.mark.parametrize("kind", ["ks", "mann_whitney_u"])
def test_rank_tests_reject_nan(kind):
    with pytest.raises(MetricInputError, match=f"^{kind} needs samples without NaN$"):
        two_sample_test(kind, [1.0, math.nan], [2.0, 3.0])


# --- SciPy's statistics and tails, bit for bit --------------------------------


def _same_double(got, want) -> bool:
    """Equal float64 bits, or both NaN."""
    got, want = np.float64(got), np.float64(want)
    return got.tobytes() == want.tobytes() or bool(np.isnan(got) and np.isnan(want))


# small integers force ties; -0.0 and 0.0 tie with each other
_tied_values = st.one_of(st.integers(-3, 3).map(float), st.just(-0.0), finite_floats)


@given(st.lists(st.one_of(_tied_values, st.sampled_from([-math.inf, math.inf])), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_average_ranks_equal_rankdata(values):
    x = np.array(values)
    ranks, counts = _average_ranks(x)
    assert ranks.tobytes() == scipy.stats.rankdata(x).tobytes()
    assert counts.tolist() == np.unique(x, return_counts=True)[1].tolist()


@st.composite
def _count_tables(draw):
    """r x c tables of counts with no empty row or column, one row or one
    column included (no degrees of freedom)."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    big = draw(st.booleans())
    cells = st.integers(0, 10**6 if big else 40)
    table = np.array(draw(st.lists(cells, min_size=r * c, max_size=r * c)), dtype=float).reshape(r, c)
    table[np.arange(r), np.arange(r) % c] += 1  # every row nonempty
    table[np.arange(c) % r, np.arange(c)] += 1  # every column nonempty
    return table


@given(_count_tables())
@settings(max_examples=300, deadline=None)
def test_pearson_chi2_equals_chi2_contingency(table):
    stat, p = _pearson_chi2(table)
    ref = scipy.stats.chi2_contingency(table, correction=False)
    assert _same_double(stat, ref.statistic) and _same_double(p, ref.pvalue)


def _kstwo_grid():
    """(x, n) pairs that reach every branch of the KS tail: Ruben-Gambino at
    both ends, 2 * smirnov from x = 1/2, Durbin (DMTW) and Pomeranz up to
    n = 140, then 0 from n x^2 = 370, smirnov from 2.2, DMTW while
    n x^1.5 <= 1.4 and n <= 100 000, Pelz-Good beyond (a z below 0.0417 included)."""
    for n in (1, 2, 3, 5, 10, 39, 100, 140, 141, 1000, 100_000, 150_000):
        xs = [0.5 / n, np.nextafter(0.5 / n, 1.0), 0.75 / n, 1.0 / n, np.nextafter(1.0 / n, 1.0), 1.5 / n,
              (n - 1) / n, np.nextafter((n - 1) / n, 0.0), 0.49, 0.5, 0.6, 0.999]
        xs += [math.sqrt(c / n) for c in (1e-4, 0.5, 0.754693, 0.76, 2.0, 2.2, 4.0, 4.1, 18.0, 370.0, 400.0)]
        xs += [(c / n) ** (2 / 3) for c in (1.0, 1.4, 1.5, 3.0)]
        if n > 100_000:  # DMTW at this n is not on SciPy's path; keep the grid quick
            xs = [x for x in xs if x < 1e-3 or n * x * x >= 2.2]
        yield from ((float(x), n) for x in xs)
    yield from ((x, 7) for x in (-0.1, 0.0, 1.0, 1.5, math.nan))
    yield from ((0.5, n) for n in (0, -1))


def test_kstwo_sf_equals_scipy_kstwo_on_every_branch():
    with np.errstate(divide="ignore"):  # SciPy's support 0.5/n at n = 0
        for x, n in _kstwo_grid():
            assert _same_double(_kstwo_sf(x, n), scipy.stats.kstwo.sf(x, float(n))), (x, n)


_two_samples = st.tuples(
    st.lists(_tied_values, min_size=1, max_size=40), st.lists(_tied_values, min_size=1, max_size=40)
)


@given(_two_samples)
@settings(max_examples=300, deadline=None)
def test_ks_equals_ks_2samp_asymp(pair):
    a, b = pair
    out = two_sample_test("ks", a, b)
    with np.errstate(divide="ignore"):  # SciPy's support 0.5/n at n = 0
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert _same_double(out.statistic, ref.statistic) and _same_double(out.p_value, ref.pvalue)


@pytest.mark.parametrize("na, nb, shift", [(200, 300, 0.0), (200, 300, 0.4), (3000, 2000, 0.0), (3000, 2000, 0.1)])
def test_ks_on_large_samples_equals_ks_2samp_asymp(na, nb, shift):
    rng = np.random.default_rng(na + nb)
    a, b = np.round(rng.normal(size=na), 2), np.round(rng.normal(shift, size=nb), 2)
    out = two_sample_test("ks", a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert _same_double(out.statistic, ref.statistic) and _same_double(out.p_value, ref.pvalue)


@st.composite
def _asymptotic_pairs(draw):
    """Two tied samples of more than 16 points between them."""
    n1 = draw(st.integers(1, 40))
    a = draw(st.lists(_tied_values, min_size=n1, max_size=n1))
    b = draw(st.lists(_tied_values, min_size=max(1, 17 - n1), max_size=40))
    return a, b


@given(_asymptotic_pairs())
@settings(max_examples=300, deadline=None)
def test_mann_whitney_equals_mannwhitneyu_asymptotic(pair):
    a, b = pair
    out = two_sample_test("mann_whitney_u", a, b)
    ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert out.method == "mann_whitney_u(asymptotic)"
    assert _same_double(out.statistic, ref.statistic) and _same_double(out.p_value, ref.pvalue)


def test_ks_of_one_point_each_has_no_p_value():
    # m n / (m + n) = 0.5 rounds to 0, and kstwo at n = 0 is NaN
    out = two_sample_test("ks", [0.0], [1.0])
    with np.errstate(divide="ignore"):
        ref = scipy.stats.ks_2samp([0.0], [1.0], method="asymp")
    assert out.statistic == ref.statistic == 1.0
    assert math.isnan(out.p_value) and math.isnan(ref.pvalue)


def test_chi_squared_over_one_category_has_no_degrees_of_freedom():
    out = two_sample_test("chi_squared", [5], [7])
    ref = scipy.stats.chi2_contingency([[5], [7]], correction=False)
    assert (out.statistic, out.p_value) == (ref.statistic, ref.pvalue) == (0.0, 1.0)


def test_mann_whitney_with_every_value_tied_has_p_one():
    # the tie-corrected variance is 0, so z = -0.5 / 0 = -inf
    a, b = [2.0] * 9, [2.0] * 8
    out = two_sample_test("mann_whitney_u", a, b)
    ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert (out.statistic, out.p_value) == (ref.statistic, ref.pvalue) == (36.0, 1.0)


# --- Wasserstein -------------------------------------------------------------


def test_wasserstein_frozen_shift():
    assert wasserstein_1d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(1.0)


def test_wasserstein_identity_zero():
    assert wasserstein_1d([1.0, 5.0, 2.0], [5.0, 1.0, 2.0]) == pytest.approx(0.0)


def test_wasserstein_matches_scipy_order_one():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=23), rng.normal(1.0, size=31)
    assert wasserstein_1d(list(a), list(b)) == pytest.approx(
        scipy.stats.wasserstein_distance(a, b)
    )


def test_wasserstein_equal_sizes_sorted_difference_oracle():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=40), rng.normal(2.0, size=40)
    oracle = np.mean(np.abs(np.sort(a) - np.sort(b)))
    assert wasserstein_1d(list(a), list(b)) == pytest.approx(oracle)


def test_wasserstein_order_two_sorted_oracle():
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=25), rng.normal(1.0, size=25)
    oracle = np.mean(np.abs(np.sort(a) - np.sort(b)) ** 2) ** 0.5
    assert wasserstein_1d(list(a), list(b), order=2) == pytest.approx(oracle)


def test_wasserstein_rejects_order_below_one():
    with pytest.raises(MetricInputError):
        wasserstein_1d([1.0], [2.0], order=0.5)


@given(samples, samples)
@settings(max_examples=60, deadline=None)
def test_wasserstein_symmetric_triangle(a, b):
    d_ab = wasserstein_1d(a, b)
    assert d_ab >= 0
    assert d_ab == pytest.approx(wasserstein_1d(b, a), rel=1e-9, abs=1e-9)


# --- embedding-space distances ----------------------------------------------


def _gauss_embeddings(rng, n, d, shift=0.0, scale=1.0):
    return EmbeddingSet(tuple(map(tuple, rng.normal(shift, scale, size=(n, d)))))


def test_frechet_identity_zero():
    rng = np.random.default_rng(11)
    e = _gauss_embeddings(rng, 30, 4)
    assert frechet_gaussian(e, e) == pytest.approx(0.0, abs=1e-8)


def test_frechet_matches_sqrtm_oracle():
    rng = np.random.default_rng(12)
    e_a = _gauss_embeddings(rng, 40, 3)
    e_b = _gauss_embeddings(rng, 45, 3, shift=1.0, scale=1.5)
    ma, mb = e_a.vectors, e_b.vectors
    mu_a, mu_b = ma.mean(axis=0), mb.mean(axis=0)
    ca, cb = np.cov(ma, rowvar=False), np.cov(mb, rowvar=False)
    covmean = scipy.linalg.sqrtm(ca @ cb).real
    oracle = float(np.sum((mu_a - mu_b) ** 2) + np.trace(ca + cb - 2 * covmean))
    assert frechet_gaussian(e_a, e_b) == pytest.approx(oracle, rel=1e-6)


def test_frechet_univariate_closed_form():
    rng = np.random.default_rng(13)
    a = rng.normal(0.0, 1.0, size=200)
    b = rng.normal(3.0, 2.0, size=200)
    e_a = EmbeddingSet(tuple((float(v),) for v in a))
    e_b = EmbeddingSet(tuple((float(v),) for v in b))
    sa, sb = np.std(a, ddof=1), np.std(b, ddof=1)
    oracle = (a.mean() - b.mean()) ** 2 + (sa - sb) ** 2
    assert frechet_gaussian(e_a, e_b) == pytest.approx(oracle, rel=1e-9)


def test_kid_matches_loop_oracle():
    rng = np.random.default_rng(14)
    ma = rng.normal(size=(6, 3))
    mb = rng.normal(0.5, size=(7, 3))
    d = 3

    def k(x, y):
        return (float(x @ y) / d + 1.0) ** 3

    n, m = len(ma), len(mb)
    t_a = sum(k(ma[i], ma[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    t_b = sum(k(mb[i], mb[j]) for i in range(m) for j in range(m) if i != j) / (m * (m - 1))
    t_ab = sum(k(x, y) for x in ma for y in mb) / (n * m)
    oracle = t_a + t_b - 2 * t_ab
    e_a = EmbeddingSet(tuple(map(tuple, ma)))
    e_b = EmbeddingSet(tuple(map(tuple, mb)))
    assert kid(e_a, e_b) == pytest.approx(oracle)
    assert kid(e_b, e_a) == pytest.approx(oracle)


def _kid_three_matrix_oracle(ma, mb):
    def k(x, y):
        return (x @ y.T / x.shape[1] + 1.0) ** 3

    n, m = len(ma), len(mb)
    k_aa, k_bb = k(ma, ma), k(mb, mb)
    term_a = (k_aa.sum() - np.trace(k_aa)) / (n * (n - 1))
    term_b = (k_bb.sum() - np.trace(k_bb)) / (m * (m - 1))
    return term_a + term_b - 2.0 * k(ma, mb).mean()


def test_kid_over_repeated_vectors_matches_the_three_matrix_formula():
    a, b = _mmd_inputs("embeddings", np.random.default_rng(16))
    assert kid(a, b) == pytest.approx(_kid_three_matrix_oracle(a.vectors, b.vectors), rel=1e-12)


def test_kid_memory_stays_blocked():
    # 3000 + 3000 vectors: each full kernel matrix would be 72 MB
    rng = np.random.default_rng(4)
    e_a = EmbeddingSet(rng.normal(0.0, 1.0, (3000, 4)))
    e_b = EmbeddingSet(rng.normal(0.3, 1.0, (3000, 4)))
    tracemalloc.start()
    try:
        kid(e_a, e_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_kid_unbiased_near_zero_on_matched_distributions():
    rng = np.random.default_rng(15)
    same = [
        kid(_gauss_embeddings(rng, 50, 4), _gauss_embeddings(rng, 50, 4))
        for _ in range(20)
    ]
    shifted = kid(_gauss_embeddings(rng, 50, 4), _gauss_embeddings(rng, 50, 4, shift=2.0))
    assert abs(np.mean(same)) < 0.5
    assert shifted > 10 * abs(np.mean(same))


def test_embedding_file_roundtrip_binary_and_text(tmp_path):
    mat = np.arange(12, dtype="<f4").reshape(4, 3)
    binary = tmp_path / "e.bin"
    with binary.open("wb") as fh:
        fh.write(json.dumps({"n": 4, "d": 3}).encode() + b"\n")
        fh.write(mat.tobytes())
    text = tmp_path / "e.txt"
    np.savetxt(text, mat)
    for path in (binary, text):
        vectors = load_embeddings(path).vectors
        assert vectors.tolist() == mat.tolist()
        assert vectors.dtype == np.float64
        assert not vectors.flags.writeable


def test_embedding_text_file_with_one_column_holds_one_vector_per_row(tmp_path):
    text = tmp_path / "e.txt"
    text.write_text("1.0\n2.0\n3.0\n", encoding="utf-8")
    assert load_embeddings(text).vectors.tolist() == [[1.0], [2.0], [3.0]]


def test_embedding_set_validates_its_matrix():
    with pytest.raises(MetricInputError, match="n >= 2"):
        EmbeddingSet(((1.0, 2.0),))
    with pytest.raises(MetricInputError, match="share a dimension"):
        EmbeddingSet(((1.0, 2.0), (1.0,)))
    with pytest.raises(MetricInputError, match="share a dimension"):
        EmbeddingSet(((), ()))
    with pytest.raises(MetricInputError, match="finite"):
        EmbeddingSet(((1.0,), (math.nan,)))
    e = EmbeddingSet([(1, 2), (3, 4)])
    assert e.vectors.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        e.vectors[0, 0] = 0.0


UNPARSABLE_EMBEDDING_FILES = {
    "text-not-numeric": b"a b\n",
    "header-without-d": json.dumps({"n": 1}).encode() + b"\n" + struct.pack("<2f", 1, 2),
    "header-not-json": b"{n: 1, d: 2}\n" + struct.pack("<2f", 1, 2),
}


@pytest.mark.parametrize("content", UNPARSABLE_EMBEDDING_FILES.values(), ids=UNPARSABLE_EMBEDDING_FILES)
def test_embedding_files_that_do_not_parse_are_input_errors(tmp_path, content):
    path = tmp_path / "e.bin"
    path.write_bytes(content)
    with pytest.raises(MetricInputError):
        load_embeddings(path)


def test_embedding_truncated_payload_rejected(tmp_path):
    bad = tmp_path / "e.bin"
    with bad.open("wb") as fh:
        fh.write(json.dumps({"n": 4, "d": 3}).encode() + b"\n")
        fh.write(struct.pack("<5f", *range(5)))
    with pytest.raises(MetricInputError):
        load_embeddings(bad)
