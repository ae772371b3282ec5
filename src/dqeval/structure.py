"""Consistency, representativeness, timeliness and informativeness metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .datamodel import Codes, Dataset, coded, proportions
from .distribution import MetricInputError, _values, _warn, distinct_rows


@dataclass(frozen=True)
class PageHinkleyParams:
    """Drift detector knobs.

    alpha is a fading factor on the cumulative statistic; 1.0 recovers the
    plain cumulative form, which false-alarms heavily on long stationary
    noise, so the default forgets old deviations slowly.
    """

    delta: float = 0.005
    lam: float = 50.0
    direction: str = "increase"
    alpha: float = 0.99

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise MetricInputError("page_hinkley lambda must be > 0")
        if self.direction not in ("increase", "decrease", "both"):
            raise MetricInputError(f"unknown direction {self.direction!r}")
        if not 0 < self.alpha <= 1:
            raise MetricInputError("page_hinkley alpha must be in (0, 1]")


@dataclass(frozen=True)
class CurrencyParams:
    """Decay model selection and its per-variant parameters.

    All times are Unix seconds; rates are per second.
    """

    variant: str
    now: float
    volatility: float | None = None
    s: float = 1.0
    shelf_life: float | None = None
    update_rate: float | None = None
    decline: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("ballou", "li", "hinrichs", "heinrich"):
            raise MetricInputError(f"unknown currency variant {self.variant!r}")


# --- consistency -------------------------------------------------------------


def syntactic_accuracy(col: Codes, dictionary: Iterable[str]) -> float:
    """Share of non-missing cells whose str is in the dictionary; the str of
    each category is looked up once."""
    words = {str(w) for w in dictionary}
    if not words:
        raise MetricInputError("syntactic_accuracy requires a nonempty dictionary")
    counts = np.bincount(col.codes[col.codes >= 0], minlength=len(col.categories))
    present = int(counts.sum())
    if not present:
        _warn("syntactic_accuracy undefined: all entries missing")
        return float("nan")
    known = np.fromiter((str(c) in words for c in col.categories), bool, len(col.categories))
    return int(counts[known].sum()) / present


def _ph_one_direction(x: np.ndarray, p: PageHinkleyParams, sign: float) -> tuple[list[int], float]:
    alpha, delta, lam = p.alpha, p.delta, p.lam
    alarms: list[int] = []
    ph = 0.0
    ph_min = 0.0
    mean = 0.0
    count = 0
    max_stat = 0.0
    for t, xt in enumerate(x.tolist()):
        count += 1
        mean += (xt - mean) / count
        ph = alpha * ph + sign * (xt - mean) - delta
        if ph < ph_min:  # min() and max() keep their first operand on a tie, as these do
            ph_min = ph
        stat = ph - ph_min
        if stat > max_stat:
            max_stat = stat
        if stat >= lam:
            alarms.append(t)
            ph = 0.0
            ph_min = 0.0
            mean = 0.0
            count = 0
    return alarms, max_stat


def page_hinkley(series: np.ndarray, p: PageHinkleyParams = PageHinkleyParams()) -> dict[str, Any]:
    """Page-Hinkley change detection over a sequential series.

    Tracks the faded cumulative deviation from the running mean and raises
    an alarm whenever it climbs lambda above its running minimum; the
    detector restarts after each alarm. Returns alarm indices (0-based) and
    the largest statistic observed.
    """
    x = _values(series)
    if x.size < 2:
        raise MetricInputError("page_hinkley requires at least 2 points")
    if p.direction == "both":
        up_alarms, up_max = _ph_one_direction(x, p, 1.0)
        down_alarms, down_max = _ph_one_direction(x, p, -1.0)
        return {
            "alarm_indices": sorted(set(up_alarms) | set(down_alarms)),
            "max_statistic": max(up_max, down_max),
        }
    sign = 1.0 if p.direction == "increase" else -1.0
    alarms, max_stat = _ph_one_direction(x, p, sign)
    return {"alarm_indices": alarms, "max_statistic": max_stat}


# --- representativeness ------------------------------------------------------


def dataset_size(ds: Dataset) -> int:
    return ds.n_records


def granularity(ds: Dataset) -> int:
    """Number of feature columns."""
    n = len(ds.feature_columns())
    if n == 0:
        _warn("dataset declares no feature columns")
    return n


def sampling_frequency(ds: Dataset) -> float | list[float]:
    """Declared signal rate, or the sorted list of rates when heterogeneous."""
    if ds.signals is None:
        raise MetricInputError("dataset carries no signals")
    rates = sorted({blk.sampling_hz for blk in ds.signals if blk is not None})
    if not rates:
        raise MetricInputError("dataset carries no signals")
    if len(rates) > 1:
        _warn(f"heterogeneous sampling rates: {rates}")
        return rates
    return rates[0]


def _pixels(v: Any) -> int:
    try:
        f = float(v)
    except (TypeError, ValueError):
        f = math.nan
    if not (f >= 1 and f.is_integer()):  # NaN fails the comparison, inf fails is_integer()
        raise MetricInputError(f"resolution needs positive whole pixel dimensions, got {v}")
    return int(f)


def resolution(image_meta: Sequence[tuple[int, int]]) -> dict[str, Any]:
    """Pixel dimensions per image with min and median by area.

    Every width and height must be a positive whole number of pixels.
    """
    sizes = [(_pixels(w), _pixels(h)) for w, h in image_meta]
    if not sizes:
        raise MetricInputError("resolution requires at least one image")
    by_area = sorted(sizes, key=lambda wh: (wh[0] * wh[1], wh))
    return {
        "per_image": sizes,
        "min": by_area[0],
        "median": by_area[(len(by_area) - 1) // 2],
    }


def label_granularity(hierarchy: Mapping[Any, Sequence[Any]] | Iterable[Any]) -> int:
    """Maximum depth of a rooted label hierarchy (flat set of labels: 1)."""
    try:
        if isinstance(hierarchy, str):
            raise TypeError  # a string is not a list of labels
        if not isinstance(hierarchy, Mapping):
            if not list(hierarchy):
                raise MetricInputError("label_granularity requires at least one label")
            return 1
        if any(isinstance(v, str) for v in hierarchy.values()):
            raise TypeError
        children = {k: list(v) for k, v in hierarchy.items()}
        nodes = set(children).union(*children.values())
    except TypeError:
        raise MetricInputError(
            "label hierarchy must map each label to a list of child labels, or list labels"
        ) from None
    if not nodes:
        raise MetricInputError("label_granularity requires at least one label")
    child_set = {c for v in children.values() for c in v}
    roots = nodes - child_set
    if not roots:
        raise MetricInputError("label hierarchy has no root (cycle)")

    depths: dict[Any, int] = {}

    def depth(node: Any, path: set[Any]) -> int:
        if node in path:
            raise MetricInputError("label hierarchy contains a cycle")
        if node in depths:
            return depths[node]
        kids = children.get(node, [])
        d = 1 if not kids else 1 + max(depth(c, path | {node}) for c in kids)
        depths[node] = d
        return d

    return max(depth(r, set()) for r in roots)


def imbalance_ratio(c: np.ndarray) -> float:
    """Majority class count over minority class count, from a count vector."""
    counts = np.asarray(c, dtype=float)
    if not counts.size:
        raise MetricInputError("imbalance_ratio requires at least one class")
    proportions(counts)  # nonnegative with a positive total
    if counts.min() == 0:
        _warn("a declared class has zero count; ratio is infinite")
        return float("inf")
    return float(counts.max() / counts.min())


_ID_DISTANCES = ("total_variation", "hellinger", "euclidean")


def _dist(p: np.ndarray, q: np.ndarray, kind: str) -> float:
    if kind == "total_variation":
        return float(0.5 * np.abs(p - q).sum())
    if kind == "hellinger":
        return float(math.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))
    if kind == "euclidean":
        return float(math.sqrt(np.sum((p - q) ** 2)))
    raise MetricInputError(f"unknown distance {kind!r}; expected one of {_ID_DISTANCES}")


def imbalance_degree(c: np.ndarray, distance: str = "total_variation") -> float:
    """Distance to uniform of a count vector, normalized by the worst case
    with the same number of minority classes: d(p, u)/d(iota_m, u) + (m - 1)."""
    k = len(c)
    if k < 2:
        raise MetricInputError("imbalance_degree requires >= 2 classes")
    p = proportions(c)
    u = np.full(k, 1.0 / k)
    m = int(np.sum(p < 1.0 / k))
    if m == 0:
        return 0.0
    # extreme distribution: m empty classes, one taking their mass
    iota = np.full(k, 1.0 / k)
    iota[:m] = 0.0
    iota[m] = (m + 1.0) / k
    return float(_dist(p, u, distance) / _dist(iota, u, distance) + (m - 1))


def lrid(c: np.ndarray) -> float:
    """Likelihood-ratio statistic of the multinomial uniformity test on a
    count vector."""
    counts = np.asarray(c, dtype=float)
    k = len(counts)
    if k < 2:
        raise MetricInputError("lrid requires >= 2 classes")
    proportions(counts)  # nonnegative with a positive total
    n = counts.sum()
    nz = counts[counts > 0]
    return float(2.0 * np.sum(nz * np.log(nz * k / n)))


# --- timeliness --------------------------------------------------------------


_CURRENCY_RATE = {"li": "shelf_life", "ballou": "volatility", "hinrichs": "update_rate", "heinrich": "decline"}


def currency(ts: np.ndarray, p: CurrencyParams) -> np.ndarray:
    """Timeliness of each record timestamp under the selected decay model.

    Errors come in the order a loop over single timestamps meets them: the
    first timestamp in the future, then a missing or out-of-range model
    parameter, then a later timestamp in the future. exp and ** are Python's, mapped over the
    ages, so each value has the digits of the formula on one timestamp.
    """
    ages = p.now - np.asarray(ts, dtype=float)
    future = ages < 0
    if future[:1].any():
        raise MetricInputError("currency: timestamp lies in the future")
    name = _CURRENCY_RATE[p.variant]
    rate, bound = getattr(p, name), ">= 0" if p.variant == "heinrich" else "> 0"
    if rate is None or rate < 0 or (rate == 0 and bound == "> 0"):
        raise MetricInputError(f"{p.variant} variant needs {name} {bound}")
    if p.variant == "ballou" and p.s <= 0:
        raise MetricInputError("ballou variant needs s > 0")
    if future.any():
        raise MetricInputError("currency: timestamp lies in the future")
    if p.variant == "hinrichs":
        return 1.0 / (rate * ages + 1.0)
    if p.variant == "heinrich":
        return np.array(list(map(math.exp, (-rate * ages).tolist())))
    left = 1.0 - ages / rate
    left = np.where(left > 0.0, left, 0.0)  # max(0.0, v): NaN and -0.0 give 0.0
    return left if p.variant == "li" else np.array(list(map(pow, left.tolist(), repeat(p.s))))


# --- informativeness ---------------------------------------------------------


def prevalence_of_duplicates(
    ds: Dataset, keys: Sequence[str] | None = None
) -> dict[str, float]:
    """Duplicate record count and ratio over the chosen key columns.

    Missing compares equal to missing, so two half-empty twins count as
    duplicates.
    """
    cols = list(keys) if keys is not None else list(ds.column_names)
    coded_cols = [ds.codes(col) for col in cols]
    n = ds.n_records
    if n == 0 or not cols:
        return {"count": 0, "ratio": 0.0}
    # each row's codes as one int64 key in mixed radix, numbered again by
    # np.unique before it could pass 2**62
    key = np.zeros(n, np.int64)
    size = 1
    for col in coded_cols:
        radix = len(col.categories) + 1  # -1 for missing, then each category
        if size * radix > 1 << 62:
            distinct, key = np.unique(key, return_inverse=True)
            key, size = key.reshape(-1), len(distinct)
            if size == n:  # every row is its own group already
                break
        key = key * radix + (col.codes + 1)
        size *= radix
    dup = n - len(np.unique(key))
    return {"count": dup, "ratio": dup / n}


def effective_sample_size(
    weights: np.ndarray | None = None,
    n: float | None = None,
    cluster_size: float | None = None,
    icc: float | None = None,
) -> float:
    """ESS from importance weights, or from a cluster design (n, m, rho)."""
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if not np.isfinite(w).all():
            raise MetricInputError(f"weights must be finite, got {w[~np.isfinite(w)][0]}")
        if (w < 0).any():
            raise MetricInputError("weights must be nonnegative")
        if w.sum() <= 0:
            raise MetricInputError("weights must have a positive sum")
        return float(w.sum() ** 2 / np.sum(w**2))
    if n is None or cluster_size is None or icc is None:
        raise MetricInputError("provide either weights or (n, cluster_size, icc)")
    if not 0 <= icc <= 1:
        raise MetricInputError("icc must lie in [0, 1]")
    if n <= 0 or cluster_size < 1:
        raise MetricInputError("n must be > 0 and cluster_size >= 1")
    return float(n / (1.0 + (cluster_size - 1.0) * icc))


@dataclass(frozen=True)
class McarTestResult:
    statistic: float
    df: int
    p_value: float
    n_patterns: int
    converged: bool


class _Pattern(NamedTuple):
    """Rows sharing one missingness pattern, as sufficient statistics."""

    o: np.ndarray  # observed column indices
    k: int  # row count
    sx: np.ndarray  # sum of x_o over the rows
    sxx: np.ndarray  # x_o^T x_o over the rows


def _patterns(x: np.ndarray) -> list[_Pattern]:
    """Missingness patterns of x (NaN = missing) in ascending mask order,
    with each pattern's rows reduced to k, sum x_o and x_o^T x_o."""
    missing = np.isnan(x)
    masks, counts, order = distinct_rows(~missing)
    ranked = np.where(missing, 0.0, x)[order]
    out = []
    for obs, rows in zip(masks, np.split(ranked, np.cumsum(counts)[:-1])):
        o = np.flatnonzero(obs)
        xo = rows[:, o]
        out.append(_Pattern(o, len(rows), xo.sum(axis=0), xo.T @ xo))
    return out


def _em_normal(
    x: np.ndarray, patterns: Sequence[_Pattern], tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, bool, bool]:
    """ML mean/covariance of incomplete rows under normality.

    EM on per-pattern sufficient statistics (Little 1988; Schafer 1997,
    ch. 5): the E-step fills a pattern's missing block by the affine map
    x_mi = c + coef^T x_o, so sum(filled) and sum(filled filled^T) follow in
    closed form from k, sum x_o and x_o^T x_o, plus k times the conditional
    covariance. Exact in real arithmetic against refilling every row; the
    work per iteration depends on the patterns, not on the rows.
    """
    n, p = x.shape
    mu = np.nanmean(x, axis=0)
    var = np.nanvar(x, axis=0)
    if np.any(~np.isfinite(mu)) or np.any(~np.isfinite(var)):
        raise MetricInputError("a column is entirely missing")
    sigma = np.diag(np.maximum(var, 1e-12))
    # per pattern: its missing columns, the index tuples, the augmented
    # moments [[x_o^T x_o, sum x_o], [sum x_o^T, k]] and the fill map, which
    # takes [x_o; 1] to the filled row: identity on o, (coef^T, c) on mi
    prepared = []
    for pat in patterns:
        mi = np.setdiff1d(np.arange(p), pat.o)
        moments = np.block([[pat.sxx, pat.sx[:, None]], [pat.sx[None, :], np.array([[pat.k]])]])
        fill = np.zeros((p, len(pat.o) + 1))
        fill[pat.o, np.arange(len(pat.o))] = 1.0
        prepared.append((pat, mi, np.ix_(pat.o, pat.o), np.ix_(pat.o, mi), np.ix_(mi, mi), moments, fill))
    ridged = False
    converged = False
    for _ in range(max_iter):
        sx = np.zeros(p)
        sxx = np.zeros((p, p))
        for pat, mi, oo, om, mm, moments, fill in prepared:
            if not mi.size:
                sx += pat.sx
                sxx += pat.sxx
                continue
            soo, som = sigma[oo], sigma[om]
            try:
                coef = np.linalg.solve(soo, som)
            except np.linalg.LinAlgError:
                coef = np.linalg.solve(soo + 1e-8 * np.eye(len(pat.o)), som)
                ridged = True
            fill[mi, :-1] = coef.T
            fill[mi, -1] = mu[mi] - mu[pat.o] @ coef
            sx += fill @ moments[:, -1]
            sxx += fill @ moments @ fill.T
            sxx[mm] += pat.k * (sigma[mm] - som.T @ coef)
        mu_new = sx / n
        sigma_new = sxx / n - np.outer(mu_new, mu_new)
        scale = 1.0 + max(np.abs(mu_new).max(), np.abs(sigma_new).max())
        step = max(np.abs(mu_new - mu).max(), np.abs(sigma_new - sigma).max())
        mu, sigma = mu_new, sigma_new
        if step / scale < tol:
            converged = True
            break
    return mu, sigma, converged, ridged


def float_columns(ds: Dataset, cols: Sequence[str]) -> np.ndarray:
    """Numerical columns as one float64 array, NaN for missing."""
    return np.column_stack([coded(ds, c) for c in cols])


def littles_mcar_test(
    data: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> McarTestResult:
    """Little's test of the missing-completely-at-random hypothesis.

    Fits mean and covariance by EM under normality, then compares each
    missingness pattern's observed means against the fit: d2 is chi-squared
    with sum(p_j) - p degrees of freedom when MCAR holds. The rows are
    grouped by pattern once; EM and d2 both run on the per-pattern sums,
    and d2 adds the patterns in descending mask order. A pair of columns
    observed together in fewer than 2 rows leaves the covariance not
    identified; the result then carries a warning.
    """
    x = np.array(data, dtype=float)  # None becomes NaN
    if x.ndim != 2 or x.shape[1] < 2:
        raise MetricInputError("littles_mcar_test needs >= 2 numerical columns")
    if np.isinf(x).any():
        row, col = np.argwhere(np.isinf(x))[0]
        raise MetricInputError(
            f"littles_mcar_test needs finite values; row {row}, column {col} holds {x[row, col]}"
        )
    keep = ~np.all(np.isnan(x), axis=1)
    _warn("assumes multivariate normality of the observed data")
    if not keep.all():
        _warn(f"{int((~keep).sum())} fully missing rows dropped")
        x = x[keep]
    n, p = x.shape
    patterns = _patterns(x)
    if len(patterns) < 2:
        if patterns and patterns[0].o.size == p:
            raise MetricInputError("data is complete: nothing to test")
        raise MetricInputError("littles_mcar_test needs >= 2 missingness patterns")
    together = np.zeros((p, p))
    for pat in patterns:
        together[np.ix_(pat.o, pat.o)] += pat.k
    sparse = np.argwhere(np.triu(together < 2, 1))
    if sparse.size:
        i, j = sparse[0]
        _warn(
            f"covariance not identified: columns {i} and {j} are observed together in "
            f"{int(together[i, j])} rows, so the statistic depends on where EM stops"
        )
    mu, sigma, converged, ridged = _em_normal(x, patterns, tol, max_iter)
    if not converged:
        _warn(f"EM did not converge within {max_iter} iterations")
    if ridged:
        _warn("singular observed covariance ridged by 1e-8")
    d2 = 0.0
    df = -p
    for pat in reversed(patterns):
        o = pat.o
        diff = pat.sx / pat.k - mu[o]
        soo = sigma[np.ix_(o, o)]
        try:
            sol = np.linalg.solve(soo, diff)
        except np.linalg.LinAlgError:
            sol = np.linalg.solve(soo + 1e-8 * np.eye(len(o)), diff)
            if not ridged:
                ridged = True
                _warn("singular observed covariance ridged by 1e-8")
        d2 += pat.k * float(diff @ sol)
        df += len(o)
    if df <= 0:
        raise MetricInputError("littles_mcar_test has no degrees of freedom")
    from scipy import special

    return McarTestResult(
        statistic=float(d2),
        df=int(df),
        p_value=float(special.chdtrc(df, max(d2, 0.0))),  # chi2.sf: 1 at and below 0
        n_patterns=len(patterns),
        converged=converged,
    )
