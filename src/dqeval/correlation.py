"""Correlation coefficients for numerical, ordinal and categorical pairs."""

from __future__ import annotations

import math

import numpy as np

from .datamodel import Codes
from .distribution import MetricInputError
from .measurement import _floats


def _pairwise_complete(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs where neither value is missing (None or NaN)."""
    vx, vy = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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


def _pairs_within(sizes: np.ndarray) -> float:
    """Pairs inside groups of the given sizes, summed exactly."""
    return float((sizes * (sizes - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for nonnegative int ranks.

    Bit by bit from the top, seq is in the stable order of the higher bits.
    Within each run of equal higher bits, a pair first told apart at this
    bit is inverted when its 1 comes before its 0. A stable sort by the bits
    so far then orders seq for the next bit.
    """
    top = int(ranks.max())
    seq = ranks.astype(np.min_scalar_type(top))  # 8- and 16-bit keys sort by radix
    total = 0
    for b in reversed(range(top.bit_length())):
        high = seq >> (b + 1)
        bit = ((seq >> b) & 1).astype(np.intp)
        starts = np.flatnonzero(np.r_[True, high[1:] != high[:-1]])
        ones_before = np.cumsum(bit) - bit
        ones_before -= np.repeat(ones_before[starts], np.diff(np.r_[starts, len(seq)]))
        total += int(ones_before[bit == 0].sum())
        seq = seq[np.argsort(seq >> b, kind="stable")]
    return total


def _concordance_counts(
    vx: np.ndarray, vy: np.ndarray
) -> tuple[float, float, float, float, float]:
    """(C - D, ties_x, ties_y, ties_both, n0) by Knight's counting (JASA
    1966): in (x, y) order, the discordant pairs are the inversions of y."""
    n = len(vx)
    n0 = n * (n - 1) / 2
    order = np.lexsort((vy, vx))
    sx, sy = vx[order], vy[order]
    ties_x = _pairs_within(np.unique(vx, return_counts=True)[1])
    _, y_rank, y_counts = np.unique(vy, return_inverse=True, return_counts=True)
    ties_y = _pairs_within(y_counts)
    run_starts = np.flatnonzero(np.r_[True, (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])])
    both = _pairs_within(np.diff(np.r_[run_starts, n]))
    swaps = _inversions(y_rank.reshape(-1)[order])
    c_minus_d = n0 - ties_x - ties_y + both - 2.0 * swaps
    return c_minus_d, ties_x, ties_y, both, n0


def correlation(kind: str, x: np.ndarray, y: np.ndarray) -> float:
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


def concordance_cc(x: np.ndarray, y: np.ndarray) -> float:
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


def icc(m: Codes) -> float:
    """Intraclass correlation, two-way random effects, single measure,
    absolute agreement, of an items x raters matrix of codes (see
    registry._ratings). Items with any missing rating are dropped."""
    if m.codes.shape[1] < 2:
        raise MetricInputError("icc requires at least 2 raters")
    data = _floats(m, m.codes[(m.codes >= 0).all(axis=1)])
    if len(data) < 2:
        raise MetricInputError("icc requires at least 2 complete items")
    n, k = data.shape
    grand = data.mean()
    row_means = data.mean(axis=1)
    col_means = data.mean(axis=0)
    ss_rows = k * float(np.sum((row_means - grand) ** 2))
    ss_cols = n * float(np.sum((col_means - grand) ** 2))
    # the residuals' own squares: ss_total - ss_rows - ss_cols cancels, and
    # can go negative, when the raters agree
    ss_err = float(np.sum((data - row_means[:, None] - col_means + grand) ** 2))
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
