from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from dqeval.datamodel import MISSING, ColumnSpec, Dataset
from dqeval.distribution import MetricInputError, MetricWarning
import dqeval.measurement as measurement
from dqeval.measurement import (
    SampleEntropyParams,
    _rank_intervals,
    _template_matches,
    bland_altman_cr,
    cohens_kappa,
    completeness,
    fleiss_kappa,
    instrument_error,
    kendalls_w,
    krippendorff_alpha,
    lod_loq,
    overlap,
    patient_level_completeness,
    record_completeness,
    repeatability_cv,
    reproducibility_variance,
    sample_entropy,
    shannon_entropy,
)
from tests.conftest import ratings


# --- entropy -----------------------------------------------------------------


def test_shannon_frozen_values():
    c = [80, 20]
    assert shannon_entropy(c) == pytest.approx(0.5004, abs=5e-5)
    assert shannon_entropy(c, base=2) == pytest.approx(0.7219, abs=5e-5)
    uniform = [1, 1, 1, 1, 1]
    assert shannon_entropy(uniform) == pytest.approx(math.log(5))


def _sampen_naive(x, m, r_abs):
    """Literal count-and-log definition with Chebyshev distance.

    Both template lengths run over the same n-m start positions so every
    length-m template has a length-(m+1) counterpart.
    """
    n = len(x)

    def count(length):
        hits = 0
        for i in range(n - m):
            for j in range(n - m):
                if i == j:
                    continue
                if max(abs(x[i + t] - x[j + t]) for t in range(length)) <= r_abs:
                    hits += 1
        return hits

    b = count(m)
    a = count(m + 1)
    if b == 0 or a == 0:
        return None
    return -math.log(a / b)


def test_sample_entropy_matches_naive_oracle():
    rng = np.random.default_rng(0)
    x = list(rng.normal(size=60))
    params = SampleEntropyParams(m=2, r=0.2)
    r_abs = 0.2 * float(np.std(x))
    expected = _sampen_naive(x, 2, r_abs)
    assert sample_entropy(x, params) == pytest.approx(expected)


def _chebyshev_counts(u, m, tol):
    """B and A as pairs i < j counted from full cdist Chebyshev matrices."""
    counts = []
    for length in (m, m + 1):
        t = np.lib.stride_tricks.sliding_window_view(u, length)[: u.size - m]
        within = cdist(t, t, "chebyshev") <= tol
        counts.append(int((within.sum() - len(t)) // 2))
    return tuple(counts)


def _lead_matches(u, m, tol):
    """_template_matches of one lead, a stack of one row, as (B, A) ints."""
    b, a = _template_matches(np.asarray(u, dtype=float)[None], m, np.array([tol]))
    return int(b[0]), int(a[0])


def _series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "walk":
        return np.cumsum(rng.normal(size=n))
    if kind == "quantised":  # many exact ties and exact equal differences
        return np.round(rng.normal(size=n) * 2.0) / 2.0
    return rng.integers(0, 3, size=n).astype(float)  # three levels


_BLOCK_EDGES = [b + d for b in (64, 128, 192) for d in (-1, 0, 1, 2, 3, 4)]


@given(
    m=st.sampled_from([1, 2, 3]),
    n=st.one_of(st.integers(0, 300), st.sampled_from(_BLOCK_EDGES)),
    kind=st.sampled_from(["normal", "walk", "quantised", "levels"]),
    r=st.sampled_from([0.1, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_template_matches_equal_chebyshev_cdist_counts(m, n, kind, r, seed):
    n = max(n, m + 2)
    u = _series(kind, n, seed)
    tol = r * float(u.std())
    assert _lead_matches(u, m, tol) == _chebyshev_counts(u, m, tol)


@given(
    m=st.sampled_from([1, 2, 3]),
    n=st.integers(0, 40),
    kind=st.sampled_from(["normal", "walk", "quantised", "levels"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_entropy_equals_naive_oracle_on_short_series(m, n, kind, seed):
    n = max(n, m + 2)
    u = _series(kind, n, seed)
    sd = float(np.std(u))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetricWarning)
        got = sample_entropy(list(u), SampleEntropyParams(m=m, r=0.2))
    if sd == 0:
        assert got == 0.0
        return
    expected = _sampen_naive(list(u), m, 0.2 * sd)
    if expected is None:
        assert math.isnan(got)
    else:
        assert got == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_template_matches_pin_the_inclusive_tolerance(m):
    # alternating 0/1 has std 0.5, so r = 2.0 gives tol = 1.0 exactly and
    # every difference (0 or 1) sits at or under it
    u = np.tile([0.0, 1.0], 50)
    k = u.size - m
    every_pair = k * (k - 1) // 2
    assert _lead_matches(u, m, 1.0) == (every_pair, every_pair)
    assert sample_entropy(u, SampleEntropyParams(m=m, r=2.0)) == 0.0
    # just under tol only templates of the same phase match
    same_phase = (k // 2) * (k // 2 - 1) // 2 + ((k + 1) // 2) * ((k + 1) // 2 - 1) // 2
    assert _lead_matches(u, m, float(np.nextafter(1.0, 0.0))) == (same_phase, same_phase)
    assert _chebyshev_counts(u, m, 1.0) == (every_pair, every_pair)


@given(
    m=st.sampled_from([1, 2, 3]),
    n=st.integers(0, 300),
    kind=st.sampled_from(["normal", "walk", "quantised", "levels"]),
    r=st.sampled_from([0.1, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    words=st.sampled_from([1, 2]),
    rows=st.sampled_from([1, 5, 64]),
)
@settings(max_examples=120, deadline=None)
def test_template_matches_equal_cdist_counts_across_small_chunks_and_blocks(m, n, kind, r, seed, words, rows):
    # chunks of 64 or 128 columns and blocks of a few rows put chunk and
    # block edges, and rows that straddle them, inside n <= 300
    n = max(n, m + 2)
    u = _series(kind, n, seed)
    tol = r * float(u.std())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "_SAMPEN_BLOCK", words)
        mp.setattr(measurement, "_SAMPEN_ROWS", rows)
        assert _lead_matches(u, m, tol) == _chebyshev_counts(u, m, tol)


@pytest.mark.parametrize("m", [63, 64, 65, 70])
@pytest.mark.parametrize("words", [1, 16])
def test_template_matches_shift_across_words(m, words, monkeypatch):
    # a noisy period of 10 samples: templates a whole number of periods
    # apart often match at every length, so neither count is 0
    t = np.arange(260)
    u = np.sin(2 * np.pi * t / 10) + 0.05 * np.random.default_rng(m).normal(size=t.size)
    tol = 0.2 * float(u.std())
    monkeypatch.setattr(measurement, "_SAMPEN_BLOCK", words)
    got = _lead_matches(u, m, tol)
    assert got == _chebyshev_counts(u, m, tol)
    assert min(got) > 20


def _brute_rank_intervals(v, tol):
    near = np.abs(v[None, :] - v[:, None]) <= tol
    return near.argmax(axis=1), v.size - near[:, ::-1].argmax(axis=1)


def test_rank_intervals_trust_only_the_computed_difference():
    # tol = 0.7: -3.0 + tol and -3.0 - tol round to -2.3 and -3.7, yet the
    # computed |-2.3 - (-3.0)| and |-3.7 - (-3.0)| exceed tol; -1.0 + tol
    # rounds below -0.3, yet |-0.3 - (-1.0)| rounds to tol. Each value and
    # its two ulp neighbours appear three times.
    tol = 0.7
    up, down = np.inf, -np.inf
    values = [-3.0, -1.0]
    for edge in (-2.3, -3.7, -0.3, -1.7):
        values += [np.nextafter(edge, down), edge, np.nextafter(edge, up)]
    v = np.sort(np.repeat(values, 3))
    want_lo, want_hi = _brute_rank_intervals(v, tol)
    # searchsorted on v -/+ tol alone misplaces bounds on both sides
    assert (np.searchsorted(v, v - tol, "left") != want_lo).any()
    assert (np.searchsorted(v, v + tol, "right") != want_hi).any()
    # as two rows of one stack, so each row's bounds stay inside that row
    lo, hi = _rank_intervals(np.stack((v, v)), np.array([tol, tol]))
    assert lo.tolist() == [want_lo.tolist()] * 2
    assert hi.tolist() == [want_hi.tolist()] * 2
    u = np.random.default_rng(3).permutation(np.tile(v, 2))
    for m in (1, 2):
        assert _lead_matches(u, m, tol) == _chebyshev_counts(u, m, tol)


def test_sample_entropy_memory_stays_linear():
    # the kernel holds O(n) arrays and one chunk of bits at a time; the
    # n x n/64 words of one whole table would be 50 MB at this length
    u = np.cumsum(np.random.default_rng(0).normal(size=20_000))
    tracemalloc.start()
    try:
        sample_entropy(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -0.2])
def test_sample_entropy_params_need_a_finite_positive_r(r):
    with pytest.raises(MetricInputError, match="finite and > 0"):
        SampleEntropyParams(r=r)


def test_sample_entropy_rejects_a_tolerance_that_overflows():
    # finite values whose std overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricInputError, match="not finite"):
            sample_entropy([1e308, -1e308] * 5)


def test_sample_entropy_constant_zero_with_warning():
    with pytest.warns(MetricWarning):
        assert sample_entropy([3.0] * 30) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_entropy_rejects_non_finite_values(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricInputError, match="finite"):
            sample_entropy([0, 1, bad, 2, 3, 1, 0.5])


def test_sample_entropy_regular_below_shuffled():
    t = np.arange(200)
    regular = list(np.sin(0.3 * t))
    rng = np.random.default_rng(1)
    shuffled = list(rng.permutation(regular))
    assert sample_entropy(regular) < sample_entropy(shuffled)


# --- sample entropy of a (channels, n) block ----------------------------------

CONSTANT = "sample_entropy: constant series, entropy 0 by convention"
UNDEFINED = "sample_entropy undefined: insufficient template matches"
# n - m on both sides of the 64-bit word edges and of the 1024-column chunk edge
_SPAN_EDGES = [63, 64, 65, 127, 128, 129, 1023, 1024, 1025]


def _calls(rows, p):
    """sample_entropy of rows (a 2-D block, or a list of 1-D leads called one
    by one), with the warning messages of the call(s) in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(rows, np.ndarray):
            values = sample_entropy(rows, p)
        else:
            values = [sample_entropy(row, p) for row in rows]
    return [v.hex() for v in values], [str(w.message) for w in caught]


def _block(kinds, n, seed):
    return np.stack([
        np.full(n, 0.25) if kind == "constant" else _series(kind, n, seed + i)
        for i, kind in enumerate(kinds)
    ])


@given(
    m=st.sampled_from([1, 2, 3]),
    span=st.one_of(st.integers(0, 40), st.sampled_from(_SPAN_EDGES)),
    kinds=st.lists(st.sampled_from(["normal", "walk", "quantised", "levels", "constant"]), min_size=1, max_size=7),
    seed=st.integers(0, 2**32 - 1),
    group_bytes=st.sampled_from([1, 4096, measurement._SAMPEN_GROUP_BYTES]),
)
@settings(max_examples=80, deadline=None)
def test_block_sample_entropy_equals_each_lead_alone(m, span, kinds, seed, group_bytes):
    # budgets of 1 and 4096 bytes put fewer leads in a group than the block holds
    n = max(span, 2) + m
    block = _block(kinds, n, seed)
    p = SampleEntropyParams(m=m, r=0.2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "_SAMPEN_GROUP_BYTES", group_bytes)
        got = _calls(block, p)
    assert got == _calls(list(block), p)
    if n <= 42:
        naive = []
        for row in block:
            sd = float(row.std())
            v = 0.0 if sd == 0 else _sampen_naive(list(row), m, 0.2 * sd)
            naive.append(math.nan if v is None else v)
        assert got[0] == [v.hex() for v in naive]


@given(
    m=st.sampled_from([1, 2, 3]),
    span=st.one_of(st.integers(0, 200), st.sampled_from(_SPAN_EDGES)),
    kinds=st.lists(st.sampled_from(["normal", "walk", "quantised", "levels"]), min_size=1, max_size=4),
    r=st.sampled_from([0.1, 0.2, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_stacked_template_matches_equal_cdist_counts_per_row(m, span, kinds, r, seed):
    n = max(span, 2) + m
    block = _block(kinds, n, seed)
    tol = r * block.std(axis=1)
    b, a = _template_matches(block, m, tol)
    assert list(zip(b.tolist(), a.tolist())) == [_chebyshev_counts(u, m, t) for u, t in zip(block, tol)]


def test_block_keeps_each_rows_warnings_in_row_order():
    rng = np.random.default_rng(0)
    n = 30
    walk, perm, walk2 = np.cumsum(rng.normal(size=n)), rng.permutation(n).astype(float), np.cumsum(rng.normal(size=n))
    block = np.stack([walk, np.full(n, 2.0), perm, walk2])
    p = SampleEntropyParams()
    values, messages = _calls(block, p)
    assert messages == [CONSTANT, UNDEFINED]
    assert values[1] == (0.0).hex() and values[2] == "nan"
    assert "nan" not in (values[0], values[3])
    assert (values, messages) == _calls(list(block), p)
    # a float32 block, as f32le signals load, gives the values of its float64 rows
    assert _calls(block.astype(np.float32), p) == _calls(list(block.astype(np.float32).astype(float)), p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_one_non_finite_row_fails_the_block(bad):
    block = np.tile(np.sin(np.arange(40.0)), (5, 1))
    block[3, 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricInputError, match="finite values"):
            sample_entropy(block)


def test_a_row_whose_tolerance_overflows_fails_the_block():
    block = np.tile([1.0, -1.0], (3, 5))
    block[1] *= 1e308
    with pytest.raises(MetricInputError, match="not finite"):
        sample_entropy(block)


def test_leads_per_group_takes_six_short_leads_and_one_long_lead():
    assert measurement._leads_per_group(500, 2) == 6
    assert measurement._leads_per_group(5000, 2) == 1


# --- detection limits and error against reference ----------------------------


def test_lod_loq_frozen():
    out = lod_loq([1.0, 2.0, 3.0])
    assert out["lod"] == pytest.approx(2.0 + 3.3 * 1.0)
    assert out["loq"] == pytest.approx(2.0 + 10.0 * 1.0)


def test_lod_loq_custom_multipliers():
    out = lod_loq([1.0, 2.0, 3.0], lod_multiplier=3.0, loq_multiplier=6.0)
    assert out["lod"] == pytest.approx(5.0)
    assert out["loq"] == pytest.approx(8.0)


def test_instrument_error_frozen():
    out = instrument_error([1.0, 3.0, 5.0], [2.0, 3.0, 4.0])
    assert out["systematic"] == pytest.approx(0.0)
    assert out["random"] == pytest.approx(1.0)


def test_bland_altman_frozen():
    assert bland_altman_cr([(1.0, 2.0), (3.0, 3.0), (5.0, 4.0)]) == pytest.approx(1.96)


def test_repeatability_cv_frozen():
    assert repeatability_cv({"s1": (9.0, 11.0)}) == pytest.approx(math.sqrt(2) / 10)


def test_reproducibility_balanced_frozen():
    out = reproducibility_variance({"A": (10.0, 12.0), "B": (20.0, 22.0)})
    assert out["s_r2"] == pytest.approx(2.0)
    assert out["s_L2"] == pytest.approx(49.0)
    assert out["s_R2"] == pytest.approx(51.0)


def test_reproducibility_unbalanced_warns_and_uses_n0():
    with pytest.warns(MetricWarning, match="unbalanced"):
        out = reproducibility_variance({"A": (10.0, 12.0, 11.0), "B": (20.0, 22.0)})
    # n0 = (N - sum(n_i^2)/N) / (k - 1) with sizes 3 and 2
    n0 = (5 - (9 + 4) / 5) / 1
    ms_within = (np.var([10, 12, 11], ddof=1) * 2 + np.var([20, 22], ddof=1) * 1) / 3
    grand = np.mean([10, 12, 11, 20, 22])
    ssb = 3 * (np.mean([10, 12, 11]) - grand) ** 2 + 2 * (np.mean([20, 22]) - grand) ** 2
    s_l2 = (ssb / 1 - ms_within) / n0
    assert out["s_r2"] == pytest.approx(ms_within)
    assert out["s_L2"] == pytest.approx(s_l2)


# --- inter-rater agreement ---------------------------------------------------


def _expand_confusion(table):
    """Two-rater label pairs realizing a confusion matrix."""
    rows = []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            rows.extend([(f"c{i}", f"c{j}")] * int(count))
    return ratings(tuple(rows))


def test_cohens_kappa_frozen_table():
    m = _expand_confusion([[20, 5], [10, 15]])
    assert cohens_kappa(m) == pytest.approx(0.4)


def test_cohens_kappa_perfect_is_one():
    m = ratings((("a", "a"), ("b", "b"), ("c", "c")))
    assert cohens_kappa(m) == pytest.approx(1.0)


def test_cohens_kappa_weighted_orders_disagreement():
    # one-step disagreements hurt the quadratic variant less than two-step
    near = ratings((("0", "1"), ("1", "2"), ("0", "0"), ("2", "2"), ("1", "1")))
    far = ratings((("0", "2"), ("2", "0"), ("0", "0"), ("2", "2"), ("1", "1")))
    assert cohens_kappa(near, weights="quadratic") > cohens_kappa(far, weights="quadratic")


def test_cohens_kappa_requires_two_raters():
    with pytest.raises(MetricInputError):
        cohens_kappa(ratings((("a", "a", "a"),)))


FLEISS_WIKI_COUNTS = (
    (0, 0, 0, 0, 14),
    (0, 2, 6, 4, 2),
    (0, 0, 3, 5, 6),
    (0, 3, 9, 2, 0),
    (2, 2, 8, 1, 1),
    (7, 7, 0, 0, 0),
    (3, 2, 6, 3, 0),
    (2, 5, 3, 2, 2),
    (6, 5, 2, 1, 0),
    (0, 2, 2, 3, 7),
)


def _counts_to_ratings(counts):
    rows = []
    for item in counts:
        labels = []
        for j, c in enumerate(item):
            labels.extend([f"k{j}"] * c)
        rows.append(tuple(labels))
    return ratings(tuple(rows))


def _fleiss_oracle(counts):
    c = np.asarray(counts, dtype=float)
    n = c.sum(axis=1)[0]
    p_i = (np.sum(c * c, axis=1) - n) / (n * (n - 1))
    p_j = c.sum(axis=0) / c.sum()
    p_bar, p_e = p_i.mean(), np.sum(p_j**2)
    return (p_bar - p_e) / (1 - p_e)


def test_fleiss_kappa_published_example():
    m = _counts_to_ratings(FLEISS_WIKI_COUNTS)
    assert fleiss_kappa(m) == pytest.approx(_fleiss_oracle(FLEISS_WIKI_COUNTS))
    assert fleiss_kappa(m) == pytest.approx(0.210, abs=5e-4)


def test_fleiss_kappa_perfect_is_one():
    m = ratings((("a",) * 4, ("b",) * 4, ("a",) * 4))
    assert fleiss_kappa(m) == pytest.approx(1.0)


def test_kendalls_w_perfect_and_reversed():
    perfect = ratings(((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0)))
    assert kendalls_w(perfect) == pytest.approx(1.0)
    # two raters in exact reversal: every rank sum equals n+1, so W = 0
    reversed_two = ratings(((1.0, 3.0), (2.0, 2.0), (3.0, 1.0)))
    assert kendalls_w(reversed_two) == pytest.approx(0.0)


def test_kendalls_w_one_dissenter_is_one_ninth():
    m = ratings(((1.0, 1.0, 3.0), (2.0, 2.0, 2.0), (3.0, 3.0, 1.0)))
    assert kendalls_w(m) == pytest.approx(1 / 9)


def test_kendalls_w_tie_correction():
    m = ratings(((1.0, 1.0), (2.0, 2.0), (2.0, 2.0), (4.0, 4.0)))
    ranks = np.array([1.0, 2.5, 2.5, 4.0])
    totals = 2 * ranks
    s = np.sum((totals - totals.mean()) ** 2)
    t_per_rater = 2**3 - 2
    expected = 12 * s / (4 * (64 - 4) - 2 * 2 * t_per_rater)
    assert kendalls_w(m) == pytest.approx(expected)
    assert kendalls_w(m) == pytest.approx(1.0)  # agreement is still perfect


def _krippendorff_pair_oracle(rows, level):
    """Direct pair-enumeration route, no coincidence matrix."""
    units = [[v for v in row if v is not MISSING] for row in rows]
    units = [u for u in units if len(u) >= 2]
    pooled = [v for u in units for v in u]
    cats = sorted(set(pooled), key=str)
    pos = {c: i for i, c in enumerate(cats)}
    n = len(pooled)
    marg = np.zeros(len(cats))
    for u in units:
        for v in u:
            marg[pos[v]] += 1

    def delta(a, b):
        if level == "nominal":
            return 0.0 if a == b else 1.0
        if level == "interval":
            return (float(a) - float(b)) ** 2
        if level == "ratio":
            fa, fb = float(a), float(b)
            return ((fa - fb) / (fa + fb)) ** 2 if fa + fb else 0.0
        # ordinal: squared sum of marginals strictly between, plus half ends
        ia, ib = sorted((pos[a], pos[b]))
        if ia == ib:
            return 0.0
        total = marg[ia] / 2 + marg[ib] / 2 + marg[ia + 1 : ib].sum()
        return float(total) ** 2

    d_o = 0.0
    for u in units:
        mu = len(u)
        for i in range(mu):
            for j in range(mu):
                if i != j:
                    d_o += delta(u[i], u[j]) / (mu - 1)
    d_e = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                d_e += delta(pooled[i], pooled[j])
    if d_e == 0:
        return 1.0
    return 1.0 - (n - 1) * d_o / d_e


@pytest.mark.parametrize("level", ["nominal", "ordinal", "interval", "ratio"])
def test_krippendorff_matches_pair_oracle(level):
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(12):
        row = [float(rng.integers(1, 5)) for _ in range(4)]
        if rng.random() < 0.3:
            row[rng.integers(0, 4)] = MISSING
        rows.append(tuple(row))
    m = ratings(tuple(rows))
    assert krippendorff_alpha(m, level=level) == pytest.approx(
        _krippendorff_pair_oracle(rows, level)
    )


def test_krippendorff_perfect_agreement():
    m = ratings((("a", "a"), ("b", "b"), ("a", "a"), ("c", "c")))
    assert krippendorff_alpha(m) == pytest.approx(1.0)


def test_krippendorff_degenerate_single_category_warns_one():
    m = ratings((("a", "a"), ("a", "a")))
    with pytest.warns(MetricWarning, match="expected disagreement"):
        assert krippendorff_alpha(m) == 1.0


def test_krippendorff_skips_singleton_units():
    rows = (("a", "b"), ("a", MISSING))
    full = krippendorff_alpha(ratings(rows))
    assert full == krippendorff_alpha(ratings((("a", "b"),)))


# --- overlap -----------------------------------------------------------------


def _mask(positions, size=31):
    out = np.zeros(size, dtype=bool)
    out[list(positions)] = True
    return out


def test_dice_iou_frozen():
    assert overlap(_mask({1, 2}), _mask({2, 3}), kind="dice") == pytest.approx(0.5)
    assert overlap(_mask({1, 2}), _mask({2, 3}), kind="iou") == pytest.approx(1 / 3)


def test_overlap_both_empty_is_one():
    with pytest.warns(MetricWarning, match="both masks empty"):
        assert overlap(_mask(()), _mask(()), kind="dice") == 1.0
        assert overlap(_mask(()), _mask(()), kind="iou") == 1.0


def test_overlap_accepts_boolean_grids():
    a = [[True, True], [False, False]]
    b = [[True, False], [True, False]]
    assert overlap(a, b, kind="iou") == pytest.approx(1 / 3)


def test_overlap_masks_must_share_their_shape():
    with pytest.raises(MetricInputError, match="share their domain"):
        overlap(_mask({1}, 4), _mask({1}, 5))


@given(
    st.lists(st.booleans(), min_size=1, max_size=30).flatmap(
        lambda a: st.tuples(st.just(a), st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    )
)
def test_iou_dice_functional_relation(masks):
    a, b = masks
    dice = overlap(a, b, kind="dice")
    iou = overlap(a, b, kind="iou")
    assert iou == pytest.approx(dice / (2 - dice))
    assert 0 <= iou <= dice <= 1


# --- completeness ------------------------------------------------------------


def _gappy_dataset():
    return Dataset(
        columns=(
            ColumnSpec("pid", vtype="identifier", role="patient_id"),
            ColumnSpec("a", vtype="numerical"),
            ColumnSpec("b", vtype="categorical"),
        ),
        cells={
            "pid": ("p1", "p1", "p2", "p3"),
            "a": (1.0, None, 3.0, None),
            "b": ("x", "y", None, "z"),
        },
    )


def test_completeness_counts_cells():
    ds = _gappy_dataset()
    assert completeness(ds, scope=["a", "b"]) == pytest.approx(5 / 8)
    assert completeness(ds, scope=["a"]) == pytest.approx(0.5)


def test_patient_level_completeness_any_record_counts():
    ds = _gappy_dataset()
    # a patient counts when at least one of their records has the variable
    assert patient_level_completeness(ds, "pid", variable="a") == pytest.approx(2 / 3)
    # p2's only record misses b, so b coverage drops to 2 of 3 patients too
    assert patient_level_completeness(ds, "pid", variable="b") == pytest.approx(2 / 3)


def test_record_completeness_requires_all_fields():
    ds = _gappy_dataset()
    # only the first record carries both a and b
    assert record_completeness(ds, ["a", "b"]) == pytest.approx(0.25)
