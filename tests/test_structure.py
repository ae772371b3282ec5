from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dqeval.datamodel import (
    MISSING,
    Codes,
    ColumnSpec,
    Dataset,
    SignalBlock,
)
from dqeval.distribution import MetricInputError, MetricWarning
from dqeval.registry import EvaluationError, captured, evaluate
from dqeval.structure import (
    CurrencyParams,
    PageHinkleyParams,
    currency,
    dataset_size,
    effective_sample_size,
    float_columns,
    granularity,
    imbalance_degree,
    imbalance_ratio,
    label_granularity,
    littles_mcar_test,
    lrid,
    page_hinkley,
    prevalence_of_duplicates,
    resolution,
    sampling_frequency,
    syntactic_accuracy,
)
from dqeval.structure import _em_normal, _patterns, _ph_one_direction
from tests.conftest import make_dataset


# --- consistency -------------------------------------------------------------


def _labels(cells):
    return Dataset(columns=(ColumnSpec("x", vtype="categorical"),), cells={"x": cells}).array("x")


def test_syntactic_accuracy_counts_dictionary_hits():
    assert syntactic_accuracy(_labels(["a", "b", "zz"]), {"a", "b"}) == pytest.approx(2 / 3)


def test_syntactic_accuracy_ignores_missing():
    assert syntactic_accuracy(_labels(["a", MISSING, "q"]), {"a"}) == pytest.approx(0.5)


def test_syntactic_accuracy_all_missing_nan_with_warning():
    with pytest.warns(MetricWarning):
        assert math.isnan(syntactic_accuracy(_labels([MISSING, MISSING]), {"a"}))


# --- drift -------------------------------------------------------------------


def test_page_hinkley_detects_step():
    rng = np.random.default_rng(0)
    series = list(rng.normal(0, 1, 300)) + list(rng.normal(5, 1, 100))
    out = page_hinkley(series, PageHinkleyParams(lam=50.0))
    assert out["alarm_indices"]
    assert 300 <= out["alarm_indices"][0] <= 360


def test_page_hinkley_quiet_on_stationary_noise():
    rng = np.random.default_rng(1)
    out = page_hinkley(list(rng.normal(0, 1, 1000)), PageHinkleyParams(lam=50.0))
    assert out["alarm_indices"] == []
    assert out["max_statistic"] < 50.0


def test_page_hinkley_direction_decrease():
    rng = np.random.default_rng(2)
    series = list(rng.normal(0, 1, 300)) + list(rng.normal(-5, 1, 100))
    up = page_hinkley(series, PageHinkleyParams(lam=50.0, direction="increase"))
    down = page_hinkley(series, PageHinkleyParams(lam=50.0, direction="decrease"))
    both = page_hinkley(series, PageHinkleyParams(lam=50.0, direction="both"))
    assert not up["alarm_indices"]
    assert down["alarm_indices"]
    assert set(down["alarm_indices"]) <= set(both["alarm_indices"])


def test_page_hinkley_alpha_one_matches_plain_recursion():
    series = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
    p = PageHinkleyParams(delta=0.0, lam=4.0, alpha=1.0)
    out = page_hinkley(series, p)
    # hand recursion: mean_t over prefix, cum_t += x_t - mean_t - delta
    cum, mn, mx, alarms = 0.0, math.inf, 0.0, []
    mean, seen = 0.0, 0
    for i, x in enumerate(series):
        seen += 1
        mean += (x - mean) / seen
        cum += x - mean
        mn = min(mn, cum)
        mx = max(mx, cum - mn)
        if cum - mn > 4.0:
            alarms.append(i)
            cum, mn, mean, seen = 0.0, math.inf, 0.0, 0
    assert out["alarm_indices"] == alarms
    assert out["max_statistic"] == pytest.approx(mx)


def test_page_hinkley_rejects_bad_params():
    with pytest.raises(MetricInputError):
        PageHinkleyParams(lam=0.0)
    with pytest.raises(MetricInputError):
        PageHinkleyParams(direction="sideways")
    with pytest.raises(MetricInputError):
        page_hinkley([1.0])


def _ph_one_direction_loop(x, p, sign):
    """The detector's loop with min() and max(), as first written: the reference."""
    alarms: list[int] = []
    ph = 0.0
    ph_min = 0.0
    mean = 0.0
    count = 0
    max_stat = 0.0
    for t, xt in enumerate(x.tolist()):
        count += 1
        mean += (xt - mean) / count
        ph = p.alpha * ph + sign * (xt - mean) - p.delta
        ph_min = min(ph_min, ph)
        stat = ph - ph_min
        max_stat = max(max_stat, stat)
        if stat >= p.lam:
            alarms.append(t)
            ph = 0.0
            ph_min = 0.0
            mean = 0.0
            count = 0
    return alarms, max_stat


_ph_points = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_ph_points, min_size=2, max_size=80),
    st.floats(1e-3, 1.0) | st.just(1.0),
    st.floats(-1.0, 1.0) | st.just(0.0),
    st.floats(1e-3, 200.0),  # small lambdas alarm and reset often
)
def test_page_hinkley_equals_the_min_max_loop(series, alpha, delta, lam):
    p = PageHinkleyParams(delta=delta, lam=lam, direction="both", alpha=alpha)
    x = np.array(series)
    up, down = (_ph_one_direction_loop(x, p, sign) for sign in (1.0, -1.0))
    out = page_hinkley(series, p)
    assert out["alarm_indices"] == sorted(set(up[0]) | set(down[0]))
    assert repr(out["max_statistic"]) == repr(max(up[1], down[1]))
    for sign, (alarms, max_stat) in ((1.0, up), (-1.0, down)):
        got = _ph_one_direction(x, p, sign)
        assert (got[0], repr(got[1])) == (alarms, repr(max_stat))


# --- representativeness ------------------------------------------------------


def test_dataset_size_and_granularity():
    ds = make_dataset()
    assert dataset_size(ds) == 6
    # identifier and non-feature-role columns do not count
    assert granularity(ds) == 2


def test_sampling_frequency_single_and_mixed():
    blocks = tuple(SignalBlock(((0.0, 1.0),), sampling_hz=500.0) for _ in range(6))
    ds = make_dataset(signals=blocks)
    assert sampling_frequency(ds) == 500.0
    mixed = (SignalBlock(((0.0,),), sampling_hz=100.0),) + blocks[1:]
    ds2 = make_dataset(signals=mixed)
    with pytest.warns(MetricWarning, match="heterogeneous"):
        assert sampling_frequency(ds2) == [100.0, 500.0]


def test_resolution_reports_min_and_median():
    out = resolution([(640, 480), (1024, 768), (320, 240)])
    assert out["min"] == (320, 240)
    assert out["median"] == (640, 480)


@pytest.mark.parametrize("bad", [(2.7, 1.2), (-3.0, 5.0), (0, 480), (640, float("inf")), (640, float("nan"))])
def test_resolution_rejects_dimensions_that_are_not_positive_whole_pixels(bad):
    with pytest.raises(MetricInputError, match="positive whole pixel dimensions, got"):
        resolution([(640, 480), bad])
    assert resolution([(640.0, 480.0)])["per_image"] == [(640, 480)]


def test_label_granularity_flat_and_tree():
    assert label_granularity(["a", "b", "c"]) == 1
    tree = {"root": ["mid1", "mid2"], "mid1": ["leaf"]}
    assert label_granularity(tree) == 3
    with pytest.raises(MetricInputError):
        label_granularity({"a": ["b"], "b": ["a"]})


def test_imbalance_ratio_frozen():
    assert imbalance_ratio([30, 10]) == 3.0
    assert imbalance_ratio(np.array([250.0, 4750.0])) == pytest.approx(19.0)


def test_imbalance_degree_frozen_and_balanced():
    assert imbalance_degree([90, 10]) == pytest.approx(0.8)
    # Ortigosa-Hernandez et al. 2017, ID = d(p, u) / d(iota_m, u) + (m - 1).
    # For [5, 3, 2]: p = (1/2, 3/10, 1/5), m = 2 classes below u = 1/3, and
    # iota_2 = (0, 0, 1). Hellinger d^2 = 1 - sum sqrt(p_i u_i).
    root_sum = (math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.2)) / math.sqrt(3.0)
    closed_forms = {
        "total_variation": 1.0 + (1 / 6) / (2 / 3),
        "hellinger": 1.0 + math.sqrt((1.0 - root_sum) / (1.0 - 1.0 / math.sqrt(3.0))),
        "euclidean": 1.0 + (math.sqrt(42.0) / 30) / (math.sqrt(6.0) / 3),
    }
    for distance, expected in closed_forms.items():
        assert imbalance_degree([5, 3, 2], distance) == pytest.approx(expected, rel=1e-12), distance
        assert imbalance_degree([50, 50], distance) == 0.0
    balanced = [50, 50]
    assert imbalance_degree(balanced) == 0.0


def test_imbalance_degree_counts_minority_classes():
    # two of three classes below uniform puts the value in [1, 2)
    v = imbalance_degree([90, 5, 5])
    assert 1.0 <= v < 2.0


def test_lrid_matches_loglikelihood_oracle():
    c = [30, 10]
    expected = 2 * (30 * math.log(30 / 20) + 10 * math.log(10 / 20))
    assert lrid(c) == pytest.approx(expected)
    assert lrid(c) == pytest.approx(10.4647, abs=5e-4)
    uniform = [20, 20]
    assert lrid(uniform) == pytest.approx(0.0)


# --- timeliness --------------------------------------------------------------


def test_currency_heinrich_reproduces_decline_fixture():
    age = -math.log(0.36) / 1e-9  # about 32.4 years in seconds
    p = CurrencyParams("heinrich", now=age, decline=1e-9)
    assert currency([0.0], p)[0] == pytest.approx(0.36, abs=1e-9)


def test_currency_li_linear_decay_clamped():
    p = CurrencyParams("li", now=100.0, shelf_life=50.0)
    assert currency([80.0], p)[0] == pytest.approx(0.6)
    assert currency([0.0], p)[0] == 0.0  # expired


def test_currency_ballou_exponent():
    p = CurrencyParams("ballou", now=100.0, volatility=100.0, s=2.0)
    assert currency([50.0], p)[0] == pytest.approx(0.25)


def test_currency_ballou_with_s_not_above_zero_is_an_error():
    ds = Dataset(columns=(ColumnSpec("t", "datetime", role="timestamp"),), cells={"t": (0.0, 50.0, 100.0)})
    with pytest.raises(EvaluationError, match="ballou variant needs s > 0"):
        evaluate("currency_ballou", ds, {"volatility": 50.0, "s": -1.0, "now": 100.0})


def test_currency_hinrichs_rational_decay():
    p = CurrencyParams("hinrichs", now=10.0, update_rate=0.5)
    assert currency([6.0], p)[0] == pytest.approx(1 / 3)


def test_currency_future_timestamp_rejected():
    with pytest.raises(MetricInputError):
        currency([200.0], CurrencyParams("heinrich", now=100.0, decline=1e-9))


@given(
    st.sampled_from(["li", "ballou", "hinrichs", "heinrich"]),
    st.floats(min_value=0, max_value=1e6),
    st.floats(min_value=0, max_value=1e6),
)
@settings(max_examples=80, deadline=None)
def test_currency_monotone_in_age(variant, age1, age2):
    lo, hi = sorted((age1, age2))
    p = CurrencyParams(
        variant, now=1e6, volatility=2e5, s=1.5, shelf_life=2e5,
        update_rate=1e-4, decline=1e-5,
    )
    newer = currency([1e6 - lo], p)[0]
    older = currency([1e6 - hi], p)[0]
    assert 0.0 <= older <= newer <= 1.0 + 1e-12


def _currency_one(ts, p):
    """The decay of one timestamp, computed with Python floats."""
    age = p.now - ts
    if age < 0:
        raise MetricInputError("currency: timestamp lies in the future")
    if p.variant == "li":
        if p.shelf_life is None or p.shelf_life <= 0:
            raise MetricInputError("li variant needs shelf_life > 0")
        return max(0.0, 1.0 - age / p.shelf_life)
    if p.variant == "ballou":
        if p.volatility is None or p.volatility <= 0:
            raise MetricInputError("ballou variant needs volatility > 0")
        if p.s <= 0:
            raise MetricInputError("ballou variant needs s > 0")
        return max(0.0, 1.0 - age / p.volatility) ** p.s
    if p.variant == "hinrichs":
        if p.update_rate is None or p.update_rate <= 0:
            raise MetricInputError("hinrichs variant needs update_rate > 0")
        return 1.0 / (p.update_rate * age + 1.0)
    if p.decline is None or p.decline < 0:
        raise MetricInputError("heinrich variant needs decline >= 0")
    return math.exp(-p.decline * age)


# None, zero and negative rates, and a ballou s of zero or below, are bad
# parameters for some variants.
@given(
    st.sampled_from(["li", "ballou", "hinrichs", "heinrich"]),
    st.lists(st.floats(-0.1, 10.0), min_size=1, max_size=20),
    st.floats(0.0, 1e9),
    st.one_of(st.floats(0.01, 10.0), st.sampled_from([None, 0.0, -1.0])),
    st.one_of(st.floats(0.1, 5.0), st.sampled_from([0.0, -1.0])),
)
@settings(max_examples=300, deadline=None)
def test_currency_of_an_array_equals_the_loop_over_single_timestamps(variant, ages, now, rate, s):
    # ages and rates share a scale, so most values lie strictly between 0 and 1,
    # where np.exp and np.power differ from Python's in the last bit for about
    # one input in twenty
    stamps = [now - age for age in ages]
    p = CurrencyParams(variant, now=now, volatility=rate, s=s, shelf_life=rate, update_rate=rate, decline=rate)
    try:
        want = [_currency_one(ts, p) for ts in stamps]
    except MetricInputError as exc:
        with pytest.raises(MetricInputError) as info:
            currency(np.array(stamps), p)
        assert str(info.value) == str(exc)
        return
    # repr tells every bit of a float apart, -0.0 from 0.0 included
    assert list(map(repr, currency(np.array(stamps), p).tolist())) == list(map(repr, want))


# --- uniqueness --------------------------------------------------------------


def test_duplicates_counts_and_ratio():
    ds = Dataset(
        columns=(ColumnSpec("a", vtype="categorical"), ColumnSpec("b", vtype="categorical")),
        cells={"a": ("x", "x", "x", "y"), "b": ("1", "1", "2", "2")},
    )
    assert prevalence_of_duplicates(ds) == {"count": 1, "ratio": 0.25}
    assert prevalence_of_duplicates(ds, keys=["a"]) == {"count": 2, "ratio": 0.5}


def test_duplicates_missing_equal_to_missing():
    ds = Dataset(
        columns=(ColumnSpec("a", vtype="numerical"),),
        cells={"a": (None, None, 1.0)},
    )
    assert prevalence_of_duplicates(ds)["count"] == 1


def test_ess_weight_route_frozen():
    assert effective_sample_size(weights=[1.0, 1.0, 2.0]) == pytest.approx(16 / 6)
    assert effective_sample_size(weights=[5.0] * 10) == pytest.approx(10.0)


def test_ess_cluster_route():
    assert effective_sample_size(n=100, cluster_size=10, icc=0.5) == pytest.approx(
        100 / (1 + 9 * 0.5)
    )
    assert effective_sample_size(n=100, cluster_size=10, icc=0.0) == 100.0


def test_ess_rejects_bad_inputs():
    with pytest.raises(MetricInputError):
        effective_sample_size(weights=[-1.0, 2.0])
    with pytest.raises(MetricInputError, match="weights must be finite, got inf"):
        effective_sample_size(weights=[1.0, float("inf"), 2.0])
    with pytest.raises(MetricInputError):
        effective_sample_size(n=100, cluster_size=10, icc=1.5)
    with pytest.raises(MetricInputError):
        effective_sample_size()


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=40))
def test_ess_never_exceeds_n(weights):
    assert effective_sample_size(weights=weights) <= len(weights) + 1e-9


_WIDE = tuple(f"c{i}" for i in range(2047))  # with missing 2**11 codes: six such columns pass 2**62


def _void_row_duplicates(ds, keys):
    """Duplicates by one np.unique over each row's codes as a void scalar: the reference."""
    rows = np.column_stack([ds.codes(col).codes for col in keys])
    return ds.n_records - len(np.unique(rows.view(np.dtype((np.void, rows.itemsize * len(keys))))))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_duplicate_count_equals_the_void_row_unique(data):
    n = data.draw(st.integers(1, 40))
    cells = {}
    if data.draw(st.booleans()):  # first, so the key is all distinct when it is numbered again
        cells["distinct"] = Codes(np.arange(n, dtype=np.int32), _WIDE[:n])
    widths = data.draw(st.lists(st.sampled_from([1, 3, len(_WIDE)]), min_size=1, max_size=12))
    for j, width in enumerate(widths):
        used = sorted({-1, 0, width // 2, width - 1})
        codes = data.draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
        cells[f"k{j}"] = Codes(np.array(codes, np.int32), _WIDE[:width])
    ds = Dataset(columns=tuple(ColumnSpec(name, vtype="categorical") for name in cells), cells=cells)
    keys = list(cells)
    assert prevalence_of_duplicates(ds, keys)["count"] == _void_row_duplicates(ds, keys)
    assert prevalence_of_duplicates(ds, keys[::-1])["count"] == _void_row_duplicates(ds, keys)


def test_duplicate_keys_are_numbered_again_before_they_pass_2_62():
    wide = tuple(map(str, range(2**16 - 1)))  # 2**16 codes with missing: four columns make 2**64
    first = Codes(np.array([0, 1, 0], np.int32), wide)  # rows 0 and 2 differ only after the wide ones
    same = Codes(np.array([0, 0, 0], np.int32), wide)
    last = Codes(np.array([0, 0, 1], np.int32), ("a", "b"))
    cells = {"first": first, **{f"w{j}": same for j in range(4)}, "last": last}
    ds = Dataset(columns=tuple(ColumnSpec(name, vtype="categorical") for name in cells), cells=cells)
    assert prevalence_of_duplicates(ds)["count"] == 0
    assert prevalence_of_duplicates(ds, list(cells)[:-1])["count"] == 1


# --- informativeness ---------------------------------------------------------


def _mcar_data(rng, n=200, miss=0.2):
    x = rng.multivariate_normal([0, 0, 0], [[1, 0.5, 0.2], [0.5, 1, 0.3], [0.2, 0.3, 1]], size=n)
    mask = rng.random(x.shape) < miss
    mask[:, 0] = False  # keep one column complete so every row survives
    out = x.copy()
    out[mask] = np.nan
    return out


def test_littles_accepts_arrays_and_reports_df():
    rng = np.random.default_rng(0)
    with pytest.warns(MetricWarning, match="multivariate normality"):
        res = littles_mcar_test(_mcar_data(rng))
    assert res.df > 0
    assert res.converged
    assert 0.0 <= res.p_value <= 1.0
    x = _mcar_data(rng, n=60)
    rows = [[None if math.isnan(v) else float(v) for v in row] for row in x]
    assert littles_mcar_test(rows) == littles_mcar_test(x)


def test_littles_statistic_affine_invariant():
    rng = np.random.default_rng(1)
    x = _mcar_data(rng)
    scaled = x * np.array([10.0, 0.1, 3.0]) + np.array([5.0, -2.0, 100.0])
    a = littles_mcar_test(x)
    b = littles_mcar_test(scaled)
    assert a.statistic == pytest.approx(b.statistic, rel=1e-4)
    assert a.df == b.df


def test_littles_detects_planted_mnar():
    rng = np.random.default_rng(2)
    # correlation is what lets the censoring leak into the observed means
    cov = [[1, 0.6, 0.4], [0.6, 1, 0.5], [0.4, 0.5, 1]]
    x = rng.multivariate_normal([0, 0, 0], cov, size=400)
    out = x.copy()
    out[x[:, 1] > 0.3, 1] = np.nan  # missing depends on the unobserved value
    res = littles_mcar_test(out)
    assert res.p_value < 0.01


def test_littles_on_dataset_uses_numerical_columns():
    ds = Dataset(
        columns=(
            ColumnSpec("a", vtype="numerical"),
            ColumnSpec("b", vtype="numerical"),
            ColumnSpec("tag", vtype="categorical"),
        ),
        cells={
            "a": tuple(float(i) for i in range(20)),
            "b": tuple(float(i * 2) if i % 4 else None for i in range(20)),
            "tag": ("t",) * 20,
        },
    )
    res = evaluate("littles_test", ds)
    assert res.params["columns"] == ["a", "b"]
    assert res.value == evaluate("littles_test", ds, {"columns": ["a", "b"]}).value


def _em_normal_per_row(x, tol, max_iter):
    """EM that refills every row each iteration: the reference for _em_normal."""
    n, p = x.shape
    mu = np.nanmean(x, axis=0)
    var = np.nanvar(x, axis=0)
    if np.any(~np.isfinite(mu)) or np.any(~np.isfinite(var)):
        raise MetricInputError("a column is entirely missing")
    sigma = np.diag(np.maximum(var, 1e-12))
    masks = ~np.isnan(x)
    patterns = {key: x[(masks == np.array(key)).all(axis=1)] for key in {tuple(row) for row in masks}}
    ridged = converged = False
    for _ in range(max_iter):
        sx = np.zeros(p)
        sxx = np.zeros((p, p))
        for key, rows in patterns.items():
            obs = np.array(key)
            k = rows.shape[0]
            if obs.all():
                sx += rows.sum(axis=0)
                sxx += rows.T @ rows
                continue
            o, mi = np.where(obs)[0], np.where(~obs)[0]
            soo, som, smm = sigma[np.ix_(o, o)], sigma[np.ix_(o, mi)], sigma[np.ix_(mi, mi)]
            try:
                coef = np.linalg.solve(soo, som)
            except np.linalg.LinAlgError:
                coef = np.linalg.solve(soo + 1e-8 * np.eye(len(o)), som)
                ridged = True
            filled = np.empty((k, p))
            filled[:, o] = rows[:, o]
            filled[:, mi] = mu[mi] + (rows[:, o] - mu[o]) @ coef
            sx += filled.sum(axis=0)
            sxx += filled.T @ filled
            sxx[np.ix_(mi, mi)] += k * (smm - som.T @ coef)
        mu_new = sx / n
        sigma_new = sxx / n - np.outer(mu_new, mu_new)
        scale = 1.0 + max(np.abs(mu_new).max(), np.abs(sigma_new).max())
        step = max(np.abs(mu_new - mu).max(), np.abs(sigma_new - sigma).max())
        mu, sigma = mu_new, sigma_new
        if step / scale < tol:
            converged = True
            break
    return mu, sigma, converged, ridged


def _littles_per_row(x, tol=1e-6, max_iter=200):
    """Little's d2 over set-of-tuples patterns on the per-row EM fit, with the
    test's own input errors: (statistic, df, n_patterns, converged, ridged)."""
    x = x[~np.all(np.isnan(x), axis=1)]
    masks = ~np.isnan(x)
    keys = sorted({tuple(row) for row in masks}, reverse=True)
    if len(keys) < 2:
        if masks.all():
            raise MetricInputError("data is complete: nothing to test")
        raise MetricInputError("littles_mcar_test needs >= 2 missingness patterns")
    mu, sigma, converged, ridged = _em_normal_per_row(x, tol, max_iter)
    d2, df = 0.0, -x.shape[1]
    for key in keys:
        obs = np.array(key)
        rows = x[(masks == obs).all(axis=1)]
        o = np.where(obs)[0]
        diff = rows[:, o].mean(axis=0) - mu[o]
        soo = sigma[np.ix_(o, o)]
        try:
            sol = np.linalg.solve(soo, diff)
        except np.linalg.LinAlgError:
            sol = np.linalg.solve(soo + 1e-8 * np.eye(len(o)), diff)
            ridged = True
        d2 += rows.shape[0] * float(diff @ sol)
        df += len(o)
    if df <= 0:
        raise MetricInputError("littles_mcar_test has no degrees of freedom")
    return d2, df, len(keys), converged, ridged


@st.composite
def _incomplete_tables(draw):
    """(x with NaN for missing, kind): correlated normal columns, rounded to
    integers half the time, under one of four missingness designs."""
    p = draw(st.integers(2, 5))
    n = draw(st.integers(15 * p, 150))
    kind = draw(st.sampled_from(["mcar", "mnar", "no_complete_row", "ridge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(p, p))
    x = rng.multivariate_normal(rng.uniform(-10, 10, p), a @ a.T + p * np.eye(p), size=n)
    if draw(st.booleans()):
        x = np.round(x)
    mask = rng.random(x.shape) < rng.uniform(0.05, 0.35)
    if kind == "mnar":  # a value is missing when it is large
        mask = x > np.quantile(x, rng.uniform(0.4, 0.9), axis=0)
        mask[:, 0] = False
    elif kind == "no_complete_row":
        mask[np.arange(n), rng.integers(0, p, n)] = True
    elif kind == "ridge":
        # an always-observed zero column: from the second EM iteration on its
        # row of sigma is exactly 0, so every observed block is singular
        x[:, 0] = 0.0
        mask[:, 0] = False
    x[mask] = np.nan
    return x, kind


@given(_incomplete_tables())
@settings(max_examples=60, deadline=None)
def test_littles_matches_the_per_row_oracle(table):
    x, kind = table
    try:
        ref = _littles_per_row(x)
    except MetricInputError as exc:
        with pytest.raises(MetricInputError, match=f"^{exc}$"):
            littles_mcar_test(x)
        return
    got, warns = captured(lambda: littles_mcar_test(x))
    # a statistic at the rounding floor is 0 in exact arithmetic (the zero
    # column with one other column leaves nothing to test)
    assert got.statistic == pytest.approx(ref[0], rel=1e-12, abs=1e-20)
    assert (got.df, got.n_patterns, got.converged) == ref[1:4]
    assert ("singular observed covariance ridged by 1e-8" in warns) == ref[4]
    if kind == "ridge":
        assert ref[4]
    if kind == "no_complete_row":
        assert not (~np.isnan(x)).all(axis=1).any()


@given(_incomplete_tables())
@settings(max_examples=60, deadline=None)
def test_littles_p_value_is_scipy_chi2_sf(table):
    x, _ = table
    try:
        res, _ = captured(lambda: littles_mcar_test(x))
    except EvaluationError:
        return
    want = scipy.stats.chi2.sf(res.statistic, res.df)
    assert np.float64(res.p_value).tobytes() == np.float64(want).tobytes()


def test_littles_on_an_entirely_missing_column_keeps_its_error():
    x = np.array([[1.0, 2.0, np.nan], [2.0, np.nan, np.nan], [3.0, 1.0, np.nan], [4.0, 5.0, np.nan]])
    with pytest.raises(EvaluationError, match="^a column is entirely missing$") as caught:
        captured(lambda: littles_mcar_test(x))  # also swallows numpy's empty-slice warnings
    assert isinstance(caught.value.__cause__, MetricInputError)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_em_on_pattern_sums_matches_the_per_row_em(seed):
    # integer columns with three-way missingness, the shape of a metadata table
    rng = np.random.default_rng(seed)
    x = np.round(rng.multivariate_normal([60, 166, 70], [[300, 20, 40], [20, 90, 60], [40, 60, 200]], 3000))
    x[rng.random(x.shape) < [0.05, 0.6, 0.5]] = np.nan
    x = x[~np.isnan(x).all(axis=1)]
    mu, sigma, converged, ridged = _em_normal(x, _patterns(x), 1e-6, 200)
    ref_mu, ref_sigma, ref_converged, ref_ridged = _em_normal_per_row(x, 1e-6, 200)
    np.testing.assert_allclose(mu, ref_mu, rtol=1e-12)
    np.testing.assert_allclose(sigma, ref_sigma, rtol=1e-12)
    assert (converged, ridged) == (ref_converged, ref_ridged) == (True, False)


def test_patterns_hold_each_patterns_sums_in_ascending_mask_order():
    x = np.array([[1.0, np.nan], [2.0, 5.0], [np.nan, 7.0], [3.0, np.nan], [4.0, 6.0]])
    got = [(p.o.tolist(), p.k, p.sx.tolist(), p.sxx.tolist()) for p in _patterns(x)]
    assert got == [
        ([1], 1, [7.0], [[49.0]]),
        ([0], 2, [4.0], [[10.0]]),
        ([0, 1], 2, [6.0, 11.0], [[20.0, 34.0], [34.0, 61.0]]),
    ]


def test_littles_warns_when_a_column_pair_is_observed_together_once():
    nan = float("nan")
    x = np.array(
        [[float(i), 2.0 * i % 7, nan] for i in range(5)]
        + [[nan, float(i % 4), 3.0 * i % 5] for i in range(5)]
        + [[1.5, 2.5, 0.5]]
    )
    _, warns = captured(lambda: littles_mcar_test(x))
    assert any("columns 0 and 2 are observed together in 1 rows" in w for w in warns)
    _, warns = captured(lambda: littles_mcar_test(_mcar_data(np.random.default_rng(0))))
    assert not any("not identified" in w for w in warns)


def test_littles_requires_two_numeric_columns():
    ds = Dataset(
        columns=(ColumnSpec("a", vtype="numerical"), ColumnSpec("t", vtype="categorical")),
        cells={"a": (1.0, 2.0), "t": ("x", "y")},
    )
    with pytest.raises(MetricInputError):
        littles_mcar_test(float_columns(ds, ["a"]))


def test_littles_names_an_infinite_cell_not_a_missing_column():
    inf = float("inf")
    ds = Dataset(
        columns=(ColumnSpec("a", vtype="numerical"), ColumnSpec("b", vtype="numerical")),
        cells={"a": (1.0, 2.0, inf, 4.0, 5.0, None), "b": (2.0, None, 1.0, 3.0, 5.0, 4.0)},
    )
    rows = [[1.0, 2.0], [2.0, None], [-inf, 1.0], [4.0, 3.0], [5.0, 5.0], [None, 4.0]]
    for data in (float_columns(ds, ["a", "b"]), rows):
        with pytest.raises(MetricInputError, match=r"finite values; row 2, column 0 holds -?inf"):
            littles_mcar_test(data)
