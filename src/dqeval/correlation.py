"""Correlation coefficients for numerical, ordinal and categorical pairs."""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from .datamodel import MISSING, Codes, RatingsMatrix, Sample
from .distribution import MetricInputError


def _pairwise_complete(
    x: Sample | Sequence[Any], y: Sample | Sequence[Any]
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs where neither value is missing (None or NaN)."""
    vx, vy = (np.array(v.values if isinstance(v, Sample) else v, dtype=float) for v in (x, y))
    if len(vx) != len(vy):
        raise MetricInputError("correlation inputs must have equal length")
    both = ~(np.isnan(vx) | np.isnan(vy))
    if not both.any():
        raise MetricInputError("no complete pairs after pairwise deletion")
    return vx[both], vy[both]


def _pearson(vx: np.ndarray, vy: np.ndarray) -> float:
    sx, sy = vx.std(ddof=1), vy.std(ddof=1)
    if sx == 0 or sy == 0:
        raise MetricInputError("pearson undefined for zero-variance input")
    cov = float(np.cov(vx, vy, ddof=1)[0, 1])
    # separately rounded moments can overshoot the bound at tiny scales
    return min(1.0, max(-1.0, cov / (sx * sy)))


def _merge_count(ys: list[float]) -> int:
    """Number of inversions in ys, counted by merge sort."""
    n = len(ys)
    if n < 2:
        return 0
    mid = n // 2
    left, right = ys[:mid], ys[mid:]
    inv = _merge_count(left) + _merge_count(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            inv += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    ys[:] = merged
    return inv


def _tie_count(values: np.ndarray) -> float:
    _, counts = np.unique(values, return_counts=True)
    return float(sum(c * (c - 1) / 2 for c in counts))


def _concordance_counts(
    vx: np.ndarray, vy: np.ndarray
) -> tuple[float, float, float, float, float]:
    """(C - D, ties_x, ties_y, ties_both, n0) via Knight's sort-and-merge counting."""
    n = len(vx)
    n0 = n * (n - 1) / 2
    order = np.lexsort((vy, vx))
    sx, sy = vx[order], vy[order]
    ties_x = _tie_count(vx)
    ties_y = _tie_count(vy)
    # pairs tied on both coordinates
    both = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and sx[j] == sx[i] and sy[j] == sy[i]:
            j += 1
        run = j - i
        both += run * (run - 1) / 2
        i = j
    swaps = _merge_count(list(sy))
    c_minus_d = n0 - ties_x - ties_y + both - 2.0 * swaps
    return c_minus_d, ties_x, ties_y, both, n0


def correlation(
    kind: str, x: Sample | Sequence[Any], y: Sample | Sequence[Any]
) -> float:
    """Pearson, Spearman, Kendall tau-b or Goodman-Kruskal gamma.

    Incomplete pairs are deleted first; at least three complete pairs are
    required. Spearman ranks with average ranks for ties; kendall_tau is the
    tie-corrected tau-b.
    """
    vx, vy = _pairwise_complete(x, y)
    if len(vx) < 3:
        raise MetricInputError("correlation requires at least 3 complete pairs")
    if kind == "pearson":
        return _pearson(vx, vy)
    if kind == "spearman":
        from scipy.stats import rankdata

        return _pearson(rankdata(vx), rankdata(vy))
    if kind in ("kendall_tau", "goodman_kruskal_gamma"):
        c_minus_d, tx, ty, both, n0 = _concordance_counts(vx, vy)
        if kind == "kendall_tau":
            denom = math.sqrt((n0 - tx) * (n0 - ty))
            if denom == 0:
                raise MetricInputError("kendall_tau undefined: one input fully tied")
            return float(c_minus_d / denom)
        # gamma: C + D is the number of pairs untied on both coordinates
        c_plus_d = n0 - tx - ty + both
        if c_plus_d == 0:
            raise MetricInputError("gamma undefined: all pairs tied")
        return float(c_minus_d / c_plus_d)
    raise MetricInputError(f"unknown correlation kind {kind!r}")


def concordance_cc(x: Sample | Sequence[float], y: Sample | Sequence[float]) -> float:
    """Concordance correlation: 2 cov / (var_x + var_y + (mean gap)^2).

    Population (1/n) moments throughout; 1 only when y equals x elementwise.
    """
    vx, vy = _pairwise_complete(x, y)
    if len(vx) < 2:
        raise MetricInputError("concordance_cc requires at least 2 complete pairs")
    var_x = float(np.var(vx))
    var_y = float(np.var(vy))
    cov = float(np.mean((vx - vx.mean()) * (vy - vy.mean())))
    denom = var_x + var_y + (vx.mean() - vy.mean()) ** 2
    if denom == 0:
        raise MetricInputError("concordance_cc undefined: no variance and no mean gap")
    return float(2.0 * cov / denom)


def icc(m: RatingsMatrix) -> float:
    """Intraclass correlation, two-way random effects, single measure,
    absolute agreement. Items with any missing rating are dropped."""
    if m.n_raters < 2:
        raise MetricInputError("icc requires at least 2 raters")
    rows = [
        [float(v) for v in row]
        for row in m.ratings
        if all(v is not MISSING for v in row)
    ]
    if len(rows) < 2:
        raise MetricInputError("icc requires at least 2 complete items")
    data = np.asarray(rows, dtype=float)
    n, k = data.shape
    grand = data.mean()
    row_means = data.mean(axis=1)
    col_means = data.mean(axis=0)
    ss_rows = k * float(np.sum((row_means - grand) ** 2))
    ss_cols = n * float(np.sum((col_means - grand) ** 2))
    ss_total = float(np.sum((data - grand) ** 2))
    ss_err = ss_total - ss_rows - ss_cols
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    denom = msr + (k - 1) * mse + k * (msc - mse) / n
    if denom == 0:
        raise MetricInputError("icc undefined: zero between-item variance")
    return float((msr - mse) / denom)


def _by_name(labels: Codes, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows' codes renumbered by the str of the categories present there."""
    present = sorted(np.unique(labels.codes[rows]).tolist(), key=lambda k: str(labels.categories[k]))
    rank = np.zeros(len(labels.categories), np.intp)
    rank[present] = np.arange(len(present))
    return rank[labels.codes[rows]], len(present)


def cramers_v(a: Codes, b: Codes, bias_correction: bool = False) -> float:
    """Cramér's V from the pairwise-complete contingency table of two label
    columns coded by value (Dataset.codes), categories in str order."""
    if len(a) != len(b):
        raise MetricInputError("cramers_v inputs must have equal length")
    rows = np.flatnonzero((a.codes >= 0) & (b.codes >= 0))
    if not rows.size:
        raise MetricInputError("no complete pairs after pairwise deletion")
    (ia, r), (ib, c) = _by_name(a, rows), _by_name(b, rows)
    if r < 2 or c < 2:
        raise MetricInputError("cramers_v requires >= 2 categories per variable")
    table = np.bincount(ia * c + ib, minlength=r * c).reshape(r, c).astype(float)
    from scipy.stats import chi2_contingency

    chi2, _, _, _ = chi2_contingency(table, correction=False)
    n = table.sum()
    if bias_correction:
        phi2 = max(0.0, chi2 / n - (r - 1) * (c - 1) / (n - 1))
        r_adj = r - (r - 1) ** 2 / (n - 1)
        c_adj = c - (c - 1) ** 2 / (n - 1)
        denom = min(r_adj, c_adj) - 1
        return float(math.sqrt(phi2 / denom)) if denom > 0 else 0.0
    return float(math.sqrt(chi2 / (n * (min(r, c) - 1))))
