"""Single-distribution descriptors and two-distribution comparisons.

Distances, divergences, and hypothesis tests between empirical
distributions, plus summary statistics and Hill numbers. Inputs are
float64 arrays of univariate samples, unless a function documents n x d
vectors.
"""

from __future__ import annotations

import json
import math
import warnings as _pywarnings
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datamodel import proportions

SMOOTH_EPS = 1e-6


class MetricWarning(UserWarning):
    """Non-fatal condition a metric wants surfaced next to its value."""


class MetricInputError(ValueError):
    """Raised when inputs violate a metric's preconditions."""


def _warn(msg: str) -> None:
    _pywarnings.warn(msg, MetricWarning, stacklevel=3)


def _values(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Read-only n x d float64 matrix of real feature vectors, no missing entries."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        if len(self.vectors) < 2:
            raise MetricInputError("EmbeddingSet needs n >= 2 vectors")
        try:
            mat = np.array(self.vectors, dtype=float)
        except ValueError:
            raise MetricInputError("EmbeddingSet vectors must share a dimension d >= 1") from None
        if mat.ndim != 2 or mat.shape[1] < 1:
            raise MetricInputError("EmbeddingSet vectors must share a dimension d >= 1")
        if not np.isfinite(mat).all():
            raise MetricInputError("EmbeddingSet entries must be finite")
        mat.flags.writeable = False
        object.__setattr__(self, "vectors", mat)


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read an embedding file.

    Two layouts are accepted: delimited text with one vector per row, or a
    JSON header line {"n": ..., "d": ...} followed by n*d little-endian
    32-bit floats.
    """
    p = Path(path)
    with p.open("rb") as fh:
        first = fh.read(1)
        if first == b"{":
            try:
                header = json.loads((first + fh.readline()).decode("utf-8"))
                n, d = int(header["n"]), int(header["d"])
            except (ValueError, KeyError, TypeError):
                n = d = 0
            if n < 1 or d < 1:
                raise MetricInputError(f'{p}: header must be a JSON object with positive "n" and "d"')
            raw = np.frombuffer(fh.read(n * d * 4), dtype="<f4")
            if raw.size != n * d:
                raise MetricInputError(f"{p}: expected {n * d} float32 values, got {raw.size}")
            mat = raw.reshape(n, d)
        else:
            try:
                mat = np.loadtxt(p, dtype=float, ndmin=2)
            except ValueError as exc:
                raise MetricInputError(f"{p}: not a numeric text matrix: {exc}") from None
    return EmbeddingSet(mat)


@dataclass(frozen=True)
class TestOutcome:
    """Result of a two-sample hypothesis test."""

    statistic: float
    p_value: float | None
    method: str
    n_a: int
    n_b: int


# --- single-distribution descriptors ---------------------------------------


def summary_stats(s: np.ndarray) -> dict[str, float]:
    """Order and moment summary of a sample.

    Quantiles interpolate linearly between closest ranks; std uses the n-1
    denominator and is NaN for a single observation.
    """
    v = _values(s)
    if v.size == 0:
        raise MetricInputError("summary_stats requires a non-empty sample")
    q1, med, q3 = (float(q) for q in np.quantile(v, [0.25, 0.5, 0.75]))
    std = float(np.std(v, ddof=1)) if v.size >= 2 else float("nan")
    return {
        "min": float(v.min()),
        "max": float(v.max()),
        "range": float(v.max() - v.min()),
        "q1": q1,
        "median": med,
        "q3": q3,
        "iqr": q3 - q1,
        "mean": float(v.mean()),
        "std": std,
    }


def hill_number(c: np.ndarray, q: float) -> float:
    """Effective number of categories of order q, from a count vector.

    D_q = (sum p_i^q)^(1/(1-q)); the q=1 limit is exp of the Shannon
    entropy, q=0 is the richness.
    """
    if q < 0:
        raise MetricInputError("hill_number requires q >= 0")
    props = [p for p in proportions(c).tolist() if p > 0]
    if q == 0:
        return float(len(props))
    if q == 1:
        return float(math.exp(-sum(p * math.log(p) for p in props)))
    return float(sum(p**q for p in props) ** (1.0 / (1.0 - q)))


# --- distances ---------------------------------------------------------------


def cohens_d(a: np.ndarray, b: np.ndarray) -> float:
    """Standardized mean difference with pooled (n-1)-weighted variance."""
    va, vb = _values(a), _values(b)
    if va.size < 2 or vb.size < 2:
        raise MetricInputError("cohens_d requires at least two values per sample")
    pooled_var = (
        (va.size - 1) * np.var(va, ddof=1) + (vb.size - 1) * np.var(vb, ddof=1)
    ) / (va.size + vb.size - 2)
    if pooled_var <= 0:
        raise MetricInputError("cohens_d is undefined for zero pooled variance")
    return float((va.mean() - vb.mean()) / math.sqrt(pooled_var))


def _as_matrix(x: np.ndarray) -> np.ndarray:
    """Points as rows: an n x d array as it is, a 1-D sample as one column."""
    m = _values(x)
    return m if m.ndim == 2 else m.reshape(-1, 1)


def _maybe_subsample(m: np.ndarray, subsample: int | None, rng: np.random.Generator) -> np.ndarray:
    if subsample is not None and m.shape[0] > subsample:
        idx = rng.choice(m.shape[0], size=subsample, replace=False)
        return m[np.sort(idx)]
    return m


def _gap(xi: np.ndarray | float, xj: np.ndarray | float) -> np.ndarray:
    """Distance between xi and xj as cdist's Euclidean metric computes it.

    sqrt(d*d) is |d| except where d*d underflows or overflows; keeping
    cdist's arithmetic keeps every selected gap the same double.
    """
    d = xj - xi
    return np.sqrt(d * d)


def _gap_bound(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: float, strict: bool) -> np.ndarray:
    """Per row i of a sorted sample, lo[i] plus the number of j in [lo[i], hi[i])
    whose gap to x[i] is < t (strict) or <= t.

    Gaps grow with j along a row, so a vectorised binary search per row tests
    each computed gap against t, never x[j] against x[i] + t.
    """
    pos = lo.copy()
    step = 1 << int((hi - lo).max()).bit_length() >> 1
    while step:
        cand = pos + step
        g = _gap(x, x[np.minimum(cand, x.size) - 1])
        pos = np.where((cand <= hi) & ((g < t) if strict else (g <= t)), cand, pos)
        step >>= 1
    return pos


_PIVOT_SAMPLE = 256
_PIVOT_OFFSET = 32  # about 4 standard deviations of a sample rank


def _gap_order_statistics(x: np.ndarray, r_lo: int, r_hi: int) -> tuple[float, float]:
    """The r_lo-th and r_hi-th smallest (0-based, r_lo <= r_hi <= r_lo + 1) gaps
    over the pairs i < j of a sorted sample.

    Randomised selection over per-row windows [lo[i], hi[i]) of candidate
    columns. Each round sorts a random sample of candidates and takes as
    pivot the one ranked just above the target, or just below it on
    alternate rounds, so the side kept is small; it counts the gaps below
    and at the pivot and keeps the side holding both ranks. Once at most 4n
    candidates remain they are materialised and partitioned. O(n) memory;
    the result does not depend on the pivots or their fixed seed.
    """
    rng = np.random.default_rng(0)
    n = x.size
    lo, hi = np.arange(1, n + 1), np.full(n, n)
    below = 0  # gaps ranked before every candidate in the windows
    offset = _PIVOT_OFFSET
    while (total := int((width := hi - lo).sum())) > 4 * n:
        ends = np.cumsum(width)
        picks = rng.integers(total, size=_PIVOT_SAMPLE)
        rows = np.searchsorted(ends, picks, side="right")
        sample = np.sort(_gap(x[rows], x[hi[rows] - ends[rows] + picks]))
        aim = int((r_lo - below) * _PIVOT_SAMPLE / total) + offset
        t = sample[min(max(aim, 0), _PIVOT_SAMPLE - 1)]
        offset = -offset
        lt = _gap_bound(x, lo, hi, t, strict=True)
        n_lt = below + int((lt - lo).sum())
        if r_hi < n_lt:
            hi = lt
            continue
        le = _gap_bound(x, lt, hi, t, strict=False)
        n_le = below + int((le - lo).sum())
        if r_lo >= n_le:
            lo, below = le, n_le
        else:  # t is one of the two; the other is t or its neighbour among the gaps
            first = t if r_lo >= n_lt else _gap(x, x[lt - 1])[lt > lo].max()
            second = t if r_hi < n_le else _gap(x, x[np.minimum(le, n - 1)])[le < hi].min()
            return first, second
    rows = np.repeat(np.arange(n), width)
    cols = lo[rows] + np.arange(total) - np.repeat(np.cumsum(width) - width, width)
    part = np.partition(_gap(x[rows], x[cols]), [r_lo - below, r_hi - below])
    return part[r_lo - below], part[r_hi - below]


def _gap_median(x: np.ndarray, skip: int) -> float:
    """Median of the pairwise gaps of a sorted sample past its `skip` smallest.

    Two middle gaps are averaged by the same np.median call as the full
    list, so the mean is rounded the same way.
    """
    m = x.size * (x.size - 1) // 2 - skip
    first, second = _gap_order_statistics(x, skip + (m - 1) // 2, skip + m // 2)
    return float(first if m % 2 else np.median([first, second]))


def median_heuristic_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median of the nonzero pairwise distances over the pooled inputs.

    Univariate inputs select the middle pairwise gaps of the sorted pooled
    sample without forming them all (O(n) memory), giving the same double
    as the full distance matrix; vectors take the upper triangle of cdist.
    """
    pooled = np.vstack([_as_matrix(a), _as_matrix(b)])
    if pooled.shape[0] < 2 or not np.isfinite(pooled).all():
        raise MetricInputError("median heuristic needs at least two finite points")
    if pooled.shape[1] == 1:
        x, n = np.sort(pooled[:, 0]), pooled.shape[0]
        med = _gap_median(x, 0)
        if med <= 0:
            start = np.arange(1, n + 1)
            zeros = int((_gap_bound(x, start, np.full(n, n), 0.0, strict=False) - start).sum())
            med = _gap_median(x, zeros) if zeros < n * (n - 1) // 2 else 1.0
            _warn("median heuristic degenerate (identical points); bandwidth fallback used")
        return med
    from scipy.spatial.distance import cdist

    d = cdist(pooled, pooled)
    upper = d[np.triu_indices_from(d, k=1)]
    med = float(np.median(upper))
    if med <= 0:
        nonzero = upper[upper > 0]
        med = float(np.median(nonzero)) if nonzero.size else 1.0
        _warn("median heuristic degenerate (identical points); bandwidth fallback used")
    return med


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array in ascending lexicographic order, their
    counts, and the stable sort order: a[order] lists each distinct row's
    copies together, in that order, counts[j] of them for rows[j].

    One lexsort over the columns, boundaries where adjacent rows differ
    (`!=`, so 0.0 and -0.0 are one row and every NaN row its own).
    """
    order = np.lexsort(a.T[::-1])
    ranked = a[order]
    new = np.ones(len(ranked), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    return ranked[starts], np.diff(np.append(starts, len(ranked))), order


_KERNEL_BLOCK = 32


def _polynomial_kernel(degree: int, coef: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """k(x, y) = (x.y/d + coef)^degree, evaluated in place on one product matrix."""

    def k(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = x @ y.T
        g /= x.shape[1]
        g += coef
        g **= degree
        return g

    return k


def _pooled_weights(ma: np.ndarray, mb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pooled points z (distinct_rows order) and W, W[j, 0] the
    copies of z[j] in ma and W[j, 1] those in mb."""
    z, counts, order = distinct_rows(np.vstack([ma, mb]))
    in_b = np.add.reduceat((order >= ma.shape[0]).astype(float), np.cumsum(counts) - counts)
    return z, np.column_stack([counts - in_b, in_b])


def _pooled_kernel_sums(
    k: Callable[[np.ndarray, np.ndarray], np.ndarray], ma: np.ndarray, mb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of k over every pair of points of two samples, in one pass.

    Returns T, T[i, j] the sum of k(x, y) over x in sample i and y in
    sample j (0 is ma, 1 is mb), and each sample's sum of k(x, x). Serves
    vectors and the polynomial kernel; the univariate Gaussian kernel takes
    _rbf_sums_1d.

    The pooled points are grouped once (_pooled_weights). Row blocks of
    k(z, z) are evaluated from the block's first column on, with weight 1
    on the strict upper part of the block's own square and 0.5 on its
    diagonal, so S = sum W[block].T @ K @ W[cols] holds each unordered pair
    once and T = S + S.T: distinct^2 / 2 kernel evaluations in
    O(block * distinct) memory. Equal weight columns (ma and mb the same
    points) put one double in every entry of T.
    """
    z, w = _pooled_weights(ma, mb)
    upper = np.triu(np.ones((_KERNEL_BLOCK, _KERNEL_BLOCK)), 1) + 0.5 * np.eye(_KERNEL_BLOCK)
    s, diag = np.zeros((2, 2)), np.zeros(2)
    for lo in range(0, len(z), _KERNEL_BLOCK):
        hi = min(lo + _KERNEL_BLOCK, len(z))
        kb = k(z[lo:hi], z[lo:])
        own = kb[:, : hi - lo]
        diag += own.diagonal() @ w[lo:hi]
        own *= upper[: hi - lo, : hi - lo]
        s += w[lo:hi].T @ (kb @ w[lo:])
    return s + s.T, diag


_TAYLOR_TERMS = 36  # max over x of e^(-x^2) (2x)^36 / 36! is about 2e-16
_TAYLOR_REACH = 6.5  # exp(-6.5^2) < e^-42
_TAYLOR_CHUNK = 1 << 14


def _rbf_sums_1d(ma: np.ndarray, mb: np.ndarray, bandwidth: float) -> np.ndarray:
    """T of _pooled_kernel_sums for univariate points and the kernel
    exp(-(x - y)^2 / (2 bandwidth^2)), by a truncated Taylor expansion per
    cell (the 1-D fast Gauss transform: Greengard & Strain 1991).

    With s = 1 / (sqrt(2) bandwidth) the sorted distinct points z are cut
    into cells narrower than 1/s, each anchored at its first point a. For a
    source y of the cell, b = (y - a) s lies in [0, 1), and a target at
    x = (t - a) s has kernel exp(-(x - b)^2) = exp(-x^2) sum_k x^k
    exp(-b^2) (2b)^k / k!. So each cell's 36 moments M_k (the last factor
    summed over its sources, weighted by W) give every target within 6.5/s
    of the cell its sum by Horner; a pair farther apart has a kernel below
    e^-42 and is dropped, and the terms from k = 36 on add at most about
    2e-16 per pair. The (cell, target) entries are evaluated flat, cell by
    cell, 2^14 at a time: O(n * cells in reach * 36) time, O(n * 36) memory.

    T = W^T g, g the per-target sums, is symmetrised: swapping ma and mb
    swaps W's columns and gives the same doubles, and equal columns put one
    double in every entry of T.
    """
    z, w = _pooled_weights(ma, mb)
    z, w = z[:, 0], w.T
    s = 1.0 / (math.sqrt(2.0) * bandwidth)
    # a step of a whole cell width or more always starts a new cell, so the
    # cell numbers stay below the point count whatever the data's range
    cell = np.floor(np.concatenate([[0.0], np.cumsum(np.minimum(np.diff(z) * s, 1.0))]))
    first = np.flatnonzero(np.concatenate([[True], cell[1:] != cell[:-1]]))
    size = np.diff(np.append(first, len(z)))
    anchor = z[first]
    b = (z - np.repeat(anchor, size)) * s
    moments = np.empty((_TAYLOR_TERMS, 2, len(first)))
    term = w * np.exp(-b * b)
    for k in range(_TAYLOR_TERMS):
        moments[k] = np.add.reduceat(term, first, axis=1)
        term *= b * (2.0 / (k + 1))
    reach = _TAYLOR_REACH * math.sqrt(2.0) * bandwidth
    lo = np.searchsorted(z, anchor - reach, "left")
    ends = np.cumsum(np.searchsorted(z, z[first + size - 1] + reach, "right") - lo)
    starts = np.append(0, ends[:-1])
    g = np.zeros_like(w)
    for e0 in range(0, ends[-1], _TAYLOR_CHUNK):
        e1 = min(e0 + _TAYLOR_CHUNK, ends[-1])
        c0, c1 = np.searchsorted(ends, e0, "right"), np.searchsorted(starts, e1, "left")
        done = np.maximum(starts[c0:c1], e0) - starts[c0:c1]  # entries in earlier chunks
        take = np.minimum(ends[c0:c1], e1) - starts[c0:c1] - done
        target = np.arange(e1 - e0) + np.repeat(lo[c0:c1] + done - (np.cumsum(take) - take), take)
        x = (z[target] - np.repeat(anchor[c0:c1], take)) * s
        acc = np.repeat(moments[-1][:, c0:c1], take, axis=1)
        for k in range(_TAYLOR_TERMS - 2, -1, -1):
            acc *= x
            acc += np.repeat(moments[k][:, c0:c1], take, axis=1)
        acc *= np.exp(-x * x)
        for j in (0, 1):
            g[j] += np.bincount(target, acc[j], len(z))
    # every entry summed in the same order (a matmul need not), so swapping
    # the samples permutes the entries without changing a bit
    t = (w[:, None, :] * g[None, :, :]).sum(axis=2)
    return (t + t.T) / 2.0


def mmd(
    a: np.ndarray,
    b: np.ndarray,
    kernel: str = "rbf",
    bandwidth: float | None = None,
    degree: int = 3,
    coef: float = 1.0,
) -> float:
    """Biased maximum mean discrepancy estimate (square root scale).

    kernel "rbf" uses exp(-||x-y||^2 / (2 bandwidth^2)) with the median
    heuristic when bandwidth is None; "polynomial" uses (x.y/d + coef)^degree.
    All three kernel means come from the pooled distinct points weighted by
    their counts. Univariate rbf sums the kernel per cell by a truncated
    Taylor expansion (_rbf_sums_1d): pairs farther apart than 6.5 sqrt(2)
    bandwidths are dropped (kernel below e^-42), the others are off by at
    most about 2e-16 each, in O(n * cells in reach * 36) time. Vectors and
    the polynomial kernel take one pass over the upper triangle
    (_pooled_kernel_sums): O(distinct^2) time, O(distinct) memory.
    mmd(x, x) is exactly 0: the three sums are then one double t, and
    t/n^2 + t/n^2 - 2t/(n n) cancels; mmd(a, b) and mmd(b, a) are the same
    double.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape[0] < 2 or mb.shape[0] < 2:
        raise MetricInputError("mmd requires at least two points per sample")
    if ma.shape[1] != mb.shape[1]:
        raise MetricInputError("mmd inputs must share their dimension")
    if not (np.isfinite(ma).all() and np.isfinite(mb).all()):
        raise MetricInputError("mmd requires finite points")
    if kernel == "rbf":
        if bandwidth is None:
            bandwidth = median_heuristic_bandwidth(ma, mb)
        if not bandwidth > 0:
            raise MetricInputError("rbf bandwidth must be > 0")
        if ma.shape[1] == 1:
            t = _rbf_sums_1d(ma, mb, bandwidth)
        else:
            from scipy.spatial.distance import cdist

            def k(x: np.ndarray, y: np.ndarray) -> np.ndarray:
                sq = cdist(x, y, "sqeuclidean")
                # bandwidth^2 may underflow to 0; a distance overflowing to inf has kernel 0
                with np.errstate(over="ignore"):
                    np.divide(sq, bandwidth, out=sq)
                    np.divide(sq, -2.0 * bandwidth, out=sq)
                return np.exp(sq, out=sq)

            t, _ = _pooled_kernel_sums(k, ma, mb)
    elif kernel == "polynomial":
        t, _ = _pooled_kernel_sums(_polynomial_kernel(degree, coef), ma, mb)
    else:
        raise MetricInputError(f"unknown kernel {kernel!r}")
    na, nb = ma.shape[0], mb.shape[0]
    mmd2 = t[0, 0] / (na * na) + t[1, 1] / (nb * nb) - 2.0 * t[0, 1] / (na * nb)
    return math.sqrt(max(mmd2, 0.0))


def energy_distance(
    a: np.ndarray,
    b: np.ndarray,
    subsample: int | None = None,
    seed: int | None = None,
) -> float:
    """2 E|X-Y| - E|X-X'| - E|Y-Y'|, the squared energy distance.

    Univariate samples use the exact identity 2 * integral of (F_a - F_b)^2
    over the merged sorted sample (Szekely & Rizzo 2013), O(n log n);
    vectors keep the full pairwise sums.
    """
    rng = np.random.default_rng(seed)
    ma = _maybe_subsample(_as_matrix(a), subsample, rng)
    mb = _maybe_subsample(_as_matrix(b), subsample, rng)
    if ma.shape[0] < 1 or mb.shape[0] < 1:
        raise MetricInputError("energy_distance requires non-empty samples")
    if ma.shape[1] != mb.shape[1]:
        raise MetricInputError("energy_distance inputs must share their dimension")
    if ma.shape[1] == 1:
        va, vb = np.sort(ma[:, 0]), np.sort(mb[:, 0])
        z = np.sort(np.concatenate([va, vb]))
        fa = np.searchsorted(va, z[:-1], "right") / va.size
        fb = np.searchsorted(vb, z[:-1], "right") / vb.size
        return float(max(2.0 * np.sum(np.diff(z) * (fa - fb) ** 2), 0.0))
    from scipy.spatial.distance import cdist

    e_ab = cdist(ma, mb).mean()
    e_aa = cdist(ma, ma).mean()
    e_bb = cdist(mb, mb).mean()
    return float(max(2.0 * e_ab - e_aa - e_bb, 0.0))


# --- divergences -------------------------------------------------------------


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def divergence(kind: str, p: np.ndarray, q: np.ndarray, smoothing: str = "default") -> float:
    """KL, Jensen-Shannon (nats) or population stability index of two count
    vectors over the same categories.

    Default mode adds 1e-6 to every bin and renormalizes when a zero bin
    would blow up a log ratio; strict mode raises instead.
    """
    if smoothing not in ("default", "strict"):
        raise MetricInputError(f"unknown smoothing {smoothing!r}; expected 'default' or 'strict'")
    pv, qv = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if pv.shape != qv.shape or (pv < 0).any() or (qv < 0).any():
        raise MetricInputError("divergence needs two nonnegative count vectors of one length")
    if pv.sum() <= 0 or qv.sum() <= 0:
        raise MetricInputError("divergence inputs must have positive total mass")
    pv, qv = pv / pv.sum(), qv / qv.sum()
    zeros = (pv == 0).any() or (qv == 0).any()
    if zeros:
        if smoothing == "strict":
            raise MetricInputError("zero bin encountered in strict mode")
        _warn(f"zero bins smoothed with eps={SMOOTH_EPS} and renormalized")
        pv = pv + SMOOTH_EPS
        qv = qv + SMOOTH_EPS
        pv, qv = pv / pv.sum(), qv / qv.sum()
    if kind == "kl":
        return _kl(pv, qv)
    if kind == "js":
        m = 0.5 * (pv + qv)
        return 0.5 * _kl(pv, m) + 0.5 * _kl(qv, m)
    if kind == "psi":
        return float(np.sum((pv - qv) * np.log(pv / qv)))
    raise MetricInputError(f"unknown divergence kind {kind!r}")


# --- hypothesis tests --------------------------------------------------------


def _mwu_exact(va: np.ndarray, vb: np.ndarray) -> tuple[float, float]:
    """U of the first sample and its exact two-sided permutation p-value.

    All C(n+m, n) splits of the pooled multiset are enumerated; ties count
    one half. Feasible only for small n+m (callers gate on that).
    """
    pooled = np.concatenate([va, vb])
    n, m = len(va), len(vb)

    def u_of(first: np.ndarray, second: np.ndarray) -> float:
        diff = first[:, None] - second[None, :]
        return float((diff > 0).sum() + 0.5 * (diff == 0).sum())

    u_obs = u_of(va, vb)
    total = 0
    le = 0
    ge = 0
    for choice in combinations(range(n + m), n):
        mask = np.zeros(n + m, dtype=bool)
        mask[list(choice)] = True
        u = u_of(pooled[mask], pooled[~mask])
        total += 1
        if u <= u_obs + 1e-12:
            le += 1
        if u >= u_obs - 1e-12:
            ge += 1
    p = min(1.0, 2.0 * min(le / total, ge / total))
    return u_obs, p


def two_sample_test(
    kind: str,
    a: np.ndarray,
    b: np.ndarray,
    others: Sequence[np.ndarray] = (),
) -> TestOutcome:
    """Two-sample hypothesis test selected by kind.

    kinds: ks, epps_singleton, anderson_darling_k (accepts extra samples via
    others), mann_whitney_u, chi_squared (two count vectors over the same
    categories). p-values come from the standard asymptotics, except the
    small Mann-Whitney case which is enumerated exactly.
    """
    from scipy import stats

    if kind == "chi_squared":
        obs = np.array([a, b], dtype=float)
        if obs.ndim != 2 or (obs < 0).any() or not (obs.sum(axis=1) > 0).all():
            raise MetricInputError("chi_squared needs nonnegative counts with a positive total on each side")
        col_tot = obs.sum(axis=0)
        if (col_tot == 0).any():
            raise MetricInputError("chi_squared: category with expected count 0")
        stat, p, _, _ = stats.chi2_contingency(obs, correction=False)
        return TestOutcome(float(stat), float(p), "chi_squared", int(obs[0].sum()), int(obs[1].sum()))

    va, vb = _values(a), _values(b)
    if va.size < 1 or vb.size < 1:
        raise MetricInputError("two_sample_test requires non-empty samples")

    if kind == "ks":
        res = stats.ks_2samp(va, vb, method="asymp")
        return TestOutcome(float(res.statistic), float(res.pvalue), "ks", va.size, vb.size)

    if kind == "mann_whitney_u":
        if va.size + vb.size <= 16:
            u, p = _mwu_exact(va, vb)
            return TestOutcome(u, p, "mann_whitney_u(exact)", va.size, vb.size)
        res = stats.mannwhitneyu(va, vb, alternative="two-sided", method="asymptotic")
        return TestOutcome(
            float(res.statistic), float(res.pvalue), "mann_whitney_u(asymptotic)", va.size, vb.size
        )

    if kind == "epps_singleton":
        if va.size < 25 or vb.size < 25:
            _warn("epps_singleton asymptotic p-value unreliable below 25 points per sample")
        failure = None
        with _pywarnings.catch_warnings():
            _pywarnings.simplefilter("ignore")
            try:
                res = stats.epps_singleton_2samp(va, vb)
                stat, p = float(res.statistic), float(res.pvalue)
            except (ValueError, np.linalg.LinAlgError) as exc:
                failure, stat, p = exc, float("nan"), None
        if failure is not None:
            _warn(f"epps_singleton inapplicable: {failure}")
        if p is not None and math.isnan(p):
            _warn("epps_singleton p-value unavailable for this input")
            p = None
        return TestOutcome(stat, p, "epps_singleton", va.size, vb.size)

    if kind == "anderson_darling_k":
        samples = [va, vb] + [_values(o) for o in others]
        with _pywarnings.catch_warnings(record=True) as caught:
            _pywarnings.simplefilter("always")
            res = stats.anderson_ksamp(samples, variant="midrank")
        if any("p-value" in str(w.message) for w in caught):
            _warn("anderson_darling_k p-value clamped to its tabulated range [0.001, 0.25]")
        return TestOutcome(
            float(res.statistic),
            float(res.pvalue),
            f"anderson_darling_k(k={len(samples)})",
            va.size,
            vb.size,
        )

    raise MetricInputError(f"unknown test kind {kind!r}")


# --- transport and embedding distances --------------------------------------


def wasserstein_1d(a: np.ndarray, b: np.ndarray, order: float = 1.0) -> float:
    """Order-p Wasserstein distance between empirical distributions.

    Computed as the L^p norm of the quantile-function difference; for equal
    sizes and order 1 this is the mean absolute difference of the sorted
    samples.
    """
    if order < 1:
        raise MetricInputError("wasserstein order must be >= 1")
    va, vb = np.sort(_values(a)), np.sort(_values(b))
    if va.size == 0 or vb.size == 0:
        raise MetricInputError("wasserstein requires non-empty samples")
    # merged grid of both empirical CDF jump probabilities; the quantile
    # functions are constant on each segment between consecutive grid points
    grid = np.union1d(
        np.arange(1, va.size + 1) / va.size, np.arange(1, vb.size + 1) / vb.size
    )
    widths = np.diff(np.concatenate([[0.0], grid]))
    # smallest i with i/n >= u, guarded against float noise at the jumps
    ia = np.ceil(grid * va.size - 1e-9).astype(int) - 1
    ib = np.ceil(grid * vb.size - 1e-9).astype(int) - 1
    diffs = np.abs(va[ia] - vb[ib]) ** order
    return float(np.sum(diffs * widths) ** (1.0 / order))


def _cov_mean(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = m.mean(axis=0)
    cov = np.cov(m, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return mu, cov


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_gaussian(e_a: EmbeddingSet, e_b: EmbeddingSet) -> float:
    """Fréchet distance between Gaussian fits of two embedding sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through an eigendecomposition whose negative
    eigenvalues (numerical noise) are clipped at zero.
    """
    ma, mb = e_a.vectors, e_b.vectors
    if ma.shape[1] != mb.shape[1]:
        raise MetricInputError("embedding sets must share their dimension")
    if ma.shape[0] <= ma.shape[1] or mb.shape[0] <= mb.shape[1]:
        _warn("n <= d: Gaussian fit is rank deficient, distance may be unstable")
    mu_a, cov_a = _cov_mean(ma)
    mu_b, cov_b = _cov_mean(mb)
    sqrt_a = _psd_sqrt(cov_a)
    inner = _psd_sqrt(sqrt_a @ cov_b @ sqrt_a)
    diff = mu_a - mu_b
    fid = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(inner))
    return max(fid, 0.0)


def kid(
    e_a: EmbeddingSet,
    e_b: EmbeddingSet,
    degree: int = 3,
    coef: float = 1.0,
    subsample: int | None = None,
    seed: int | None = None,
) -> float:
    """Unbiased squared MMD with the kernel (x.y/d + coef)^degree.

    The kernel sums come from the same pooled pass as mmd; each within-set
    term drops its points' k(x, x) before averaging over the n(n-1) ordered
    pairs. Unbiasedness allows slightly negative values near zero.
    """
    rng = np.random.default_rng(seed)
    ma = _maybe_subsample(e_a.vectors, subsample, rng)
    mb = _maybe_subsample(e_b.vectors, subsample, rng)
    if ma.shape[1] != mb.shape[1]:
        raise MetricInputError("embedding sets must share their dimension")
    n, m = ma.shape[0], mb.shape[0]
    if n < 2 or m < 2:
        raise MetricInputError("kid requires at least two vectors per set")
    t, diag = _pooled_kernel_sums(_polynomial_kernel(degree, coef), ma, mb)
    term_a = (t[0, 0] - diag[0]) / (n * (n - 1))
    term_b = (t[1, 1] - diag[1]) / (m * (m - 1))
    return float(term_a + term_b - 2.0 * t[0, 1] / (n * m))
