"""Measurement-process metrics.

Signal noise and detection limits, repeatability and reproducibility of
repeated measurements, inter-rater agreement, mask overlap, and the three
completeness variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .datamodel import Codes, Dataset, proportions
from .distribution import MetricInputError, _average_ranks, _values, _warn


@dataclass(frozen=True)
class SampleEntropyParams:
    m: int = 2
    r: float = 0.2

    def __post_init__(self) -> None:
        if self.m < 1:
            raise MetricInputError("sample entropy embedding length m must be >= 1")
        if not 0 < self.r < math.inf:
            raise MetricInputError(
                f"sample entropy tolerance fraction r must be finite and > 0, got {self.r}"
            )


# --- noise and detection -----------------------------------------------------


def shannon_entropy(c: np.ndarray, base: float = math.e) -> float:
    """Shannon entropy of a count vector of categories or bins."""
    props = [p for p in proportions(c).tolist() if p > 0]
    h = -sum(p * math.log(p) for p in props)
    return float(h / math.log(base))


# Template columns per chunk in 64-bit words, and template rows per block.
_SAMPEN_BLOCK = 16
_SAMPEN_ROWS = 1024
# Bytes of bit table per group of leads counted together: six 500-point
# leads, while a 5000-point lead's chunk table alone is larger, so it goes
# alone. Groups of 3 to 16 short leads ran about equally fast; the budget
# keeps a group's temporaries, each about one table, far below the 4 MiB
# blocks that glibc keeps for reuse (cli._keep_freed_memory).
_SAMPEN_GROUP_BYTES = 192 * 1024


def _leads_per_group(n: int, m: int) -> int:
    """How many leads of n points share one pass: the most whose bit tables
    for one column chunk fit _SAMPEN_GROUP_BYTES, and at least one."""
    span = min(n - m, 64 * _SAMPEN_BLOCK) + m
    table = (span + 1) * -(-span // 64) * 8
    return max(1, _SAMPEN_GROUP_BYTES // table)


def _runs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per index of v, the start and stop of the run of equal values holding it."""
    new = np.ones(v.size, bool)
    np.not_equal(v[1:], v[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    return starts[run], np.append(starts[1:], v.size)[run]


def _rank_intervals(v: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row i of sorted rows v and rank p, the ranks [lo, hi) of its
    neighbours, the q with |v[i, q] - v[i, p]| <= tol[i] as computed, for
    finite tol >= 0.

    fl(x - a) is monotone in x, so the neighbours form one run of ranks and
    lo never decreases with p. searchsorted on v - tol may misplace lo where
    v - tol rounds, so lo steps, one run of equal values at a time, until
    the computed test holds on its rank and fails on the rank below. The
    test is symmetric, so hi[p] counts the q with lo[q] <= p.
    """
    g, n = v.shape
    lo = np.empty((g, n), np.intp)
    for x, d, lo_x in zip(v, tol, lo):
        lo_x[:] = np.searchsorted(x, x - d, "left")
    # the rows end to end, each after a -inf that no finite tol reaches; lo
    # indexes this flat array
    vp = np.empty((g, n + 1))
    vp[:, 0], vp[:, 1:] = -np.inf, v
    vp = vp.reshape(-1)
    lo += np.arange(1, g * (n + 1), n + 1)[:, None]
    t = tol[:, None]
    runs = None
    while True:
        # lo <= p, and fl(a - b) = -fl(b - a), so these are the |differences|
        down = v - vp[lo - 1] <= t  # the rank below lo is a neighbour
        up = v - vp[lo] > t  # lo is not
        if not (down.any() or up.any()):
            break
        if runs is None:
            runs = _runs(vp)
        start, stop = runs
        lo[down] = start[lo[down] - 1]
        lo[up] = stop[lo[up]]
    lo -= np.arange(1, g * (n + 1), n + 1)[:, None]
    opens = np.bincount((lo + np.arange(0, g * n, n)[:, None]).reshape(-1), minlength=g * n)
    return lo, opens.reshape(g, n).cumsum(axis=1)


def _prefix_table(order: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit tables of the positions in [start, stop) by rank, one per row of
    order, stacked into one array of table rows, and each rank's table row.

    Table row r of lead i holds bit q - start of each window position q
    among its r lowest ranked of them. below[i, x] is the table row of lead
    i's first x ranks, so its positions ranked in [x, y) are the XOR of
    table rows below[i, y] and below[i, x].
    """
    g, n = order.shape
    w = stop - start
    words = -(-w // 64)
    window = (order >= start) & (order < stop)
    below = np.empty((g, n + 1), np.intp)
    below[:, 0] = 0
    np.cumsum(window, axis=1, out=below[:, 1:])
    below += np.arange(0, g * (w + 1), w + 1)[:, None]
    q = order[window] - start  # w window positions per lead, by rank
    table = np.zeros((g, w + 1, words), np.uint64)
    rows = np.arange(g * (w + 1)).reshape(g, w + 1)[:, 1:].reshape(-1)
    table.reshape(-1)[rows * words + (q >> 6)] = np.uint64(1) << (q & 63).astype(np.uint64)
    np.cumsum(table, axis=1, out=table)  # each row adds one new bit, so + is |
    return table.reshape(g * (w + 1), words), below


def _and_shifted(acc: np.ndarray, near: np.ndarray, o: int, words: int) -> None:
    """acc &= the flat rows of near from row o on, shifted o bits down."""
    ws, bs = divmod(o, 64)
    at = o * words + ws
    part = near[at : at + acc.size] >> bs
    if bs:
        part |= near[at + 1 : at + 1 + acc.size] << (64 - bs)
    acc &= part


def _row_hits(
    table: np.ndarray, lo: np.ndarray, hi: np.ndarray, columns: np.ndarray, m: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per lead, matches of templates start..stop-1 at lengths m and m+1 in
    one column chunk.

    Position q of lead i has its neighbours in the chunk at table rows
    hi[i, q] ^ lo[i, q]; columns masks the words to the chunk's templates.
    """
    g, words = len(lo), table.shape[1]
    b = np.zeros(g, np.int64)
    a = np.zeros(g, np.int64)
    for s in range(start, stop, _SAMPEN_ROWS):
        h = min(_SAMPEN_ROWS, stop - s)
        # neighbours of positions s .. s+h+m-1, one row each, lead after
        # lead, then the spare words a shift reads past the last lead
        size = g * (h + m) * words
        near = np.empty(size + m * words + m // 64 + 1, np.uint64)
        near[size:] = 0
        rows = near[:size].reshape(g, h + m, words)
        table.take(hi[:, s : s + h + m], axis=0, out=rows, mode="clip")  # unbuffered
        rows ^= table.take(lo[:, s : s + h + m], axis=0)
        # acc holds each lead's h template rows, then m clear rows, so one
        # flat shift lines up every lead: a shift carries bits across rows
        # only into the words past the chunk's templates or into the clear
        # rows, which acc holds clear
        acc = rows & columns
        acc[:, h:] = 0
        acc = acc.reshape(-1)
        for o in range(1, m):
            _and_shifted(acc, near, o, words)
        b += np.bitwise_count(acc).reshape(g, -1).sum(axis=1, dtype=np.int64)
        _and_shifted(acc, near, m, words)
        a += np.bitwise_count(acc).reshape(g, -1).sum(axis=1, dtype=np.int64)
    return b, a


def _template_matches(u: np.ndarray, m: int, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of u, the pairs i < j of its first n-m templates matching at
    lengths m and m+1, under that row's tolerance.

    Templates i and j of a row match at length L when
    |u[i+o] - u[j+o]| <= tol for every o < L, the same inclusive test as
    Chebyshev distance <= tol; tol is finite and >= 0.

    Bit-parallel: the neighbours N(q) of position q, the j with
    |u[j] - u[q]| <= tol, are one rank interval of the sorted row, so they
    are the XOR of two rows of a prefix table of bits by rank.
    Template i matches the j in the AND over o < L of N(i+o) shifted o bits
    down, counted with popcount. Columns j run in chunks of _SAMPEN_BLOCK
    words and rows i, in blocks of _SAMPEN_ROWS, from the chunk start on:
    the chunk's own square holds each self-match once and each pair twice,
    every later row pairs once. All rows go through each step together.
    """
    g, n = u.shape
    k = n - m  # only the first n-m templates so both lengths pair up
    order = np.argsort(u, axis=1)
    at = (order + np.arange(0, g * n, n)[:, None]).reshape(-1)  # into u flat
    lo_r, hi_r = _rank_intervals(u.reshape(-1)[at].reshape(g, n), tol)
    # lo and hi by position, each offset to index a flat (g, n+1) array
    lo, hi = np.empty((2, g * n), np.intp)
    lo[at], hi[at] = lo_r.reshape(-1), hi_r.reshape(-1)
    offsets = np.arange(0, g * (n + 1), n + 1)[:, None]
    lo = lo.reshape(g, n) + offsets
    hi = hi.reshape(g, n) + offsets
    b = np.zeros(g, np.int64)
    a = np.zeros(g, np.int64)
    for c in range(0, k, 64 * _SAMPEN_BLOCK):
        w = min(64 * _SAMPEN_BLOCK, k - c)
        # positions [c, c+w+m): the chunk's templates and the shifts of each
        table, below = _prefix_table(order, c, c + w + m)
        below = below.reshape(-1)
        lo_c, hi_c = below.take(lo), below.take(hi)
        columns = np.zeros(table.shape[1], np.uint64)
        columns[: w // 64] = ~np.uint64(0)
        columns[w // 64] = (np.uint64(1) << np.uint64(w % 64)) - np.uint64(1)
        sq_b, sq_a = _row_hits(table, lo_c, hi_c, columns, m, c, c + w)
        b += (sq_b - w) // 2
        a += (sq_a - w) // 2
        if c + w < k:
            later_b, later_a = _row_hits(table, lo_c, hi_c, columns, m, c + w, k)
            b += later_b
            a += later_a
    return b, a


def sample_entropy(
    series: np.ndarray, p: SampleEntropyParams = SampleEntropyParams()
) -> float | list[float]:
    """Sample entropy -ln(A/B) of a univariate series, or of each row of a
    (channels, n) block.

    A series gives a float; a block gives a list with one float per row,
    each the float that row alone gives, and its warnings come row by row
    in row order. Templates of length m and m+1 are compared under the
    Chebyshev distance with tolerance r * std; self-matches are excluded.
    A constant series returns 0; too few template matches return NaN with
    a warning; a non-finite value or a tolerance that overflows is an input
    error, and in a block one such row fails the block.

    The match counts A and B are exact integers, counted in O(n) memory
    with no n x n matrix: the points within tolerance of a point are one run
    of ranks of the sorted series, held as a bitset, and a template's
    matches are the AND of its points' bitsets shifted into line, counted
    with popcount 64 templates per machine word (see _template_matches).
    The rows of a block are counted together, as many at a time as
    _leads_per_group allows.
    """
    u = np.asarray(series)
    if u.ndim not in (1, 2):
        raise MetricInputError("sample_entropy takes a series or a (channels, n) block")
    rows = u if u.ndim == 2 else u[None]
    n = rows.shape[1]
    if n < p.m + 2:
        raise MetricInputError(f"sample_entropy needs at least m+2={p.m + 2} points")
    sd = np.empty(len(rows))
    b = np.zeros(len(rows), np.int64)
    a = np.zeros(len(rows), np.int64)
    g = _leads_per_group(n, p.m)
    for s in range(0, len(rows), g):
        x = np.ascontiguousarray(rows[s : s + g], dtype=float)  # C-order float64, a group at a time
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            sd[s : s + g] = x.std(axis=1)
            tol = p.r * sd[s : s + g]
        finite = np.isfinite(x).all(axis=1)
        bad = ~(finite & np.isfinite(tol))
        if bad.any():
            i = int(bad.argmax())
            if not finite[i]:
                raise MetricInputError("sample_entropy needs finite values")
            raise MetricInputError(f"sample_entropy tolerance r * std is not finite: {float(tol[i])}")
        live = sd[s : s + g] > 0
        if live.any():
            b[s : s + g][live], a[s : s + g][live] = _template_matches(x[live], p.m, tol[live])
    values = []
    for sd_i, b_i, a_i in zip(sd, b.tolist(), a.tolist()):
        if sd_i == 0:
            _warn("sample_entropy: constant series, entropy 0 by convention")
            values.append(0.0)
        elif b_i == 0 or a_i == 0:
            _warn("sample_entropy undefined: insufficient template matches")
            values.append(float("nan"))
        else:
            values.append(float(-math.log(a_i / b_i)))
    return values if u.ndim == 2 else values[0]


def lod_loq(
    blanks: np.ndarray,
    lod_multiplier: float = 3.3,
    loq_multiplier: float = 10.0,
) -> dict[str, float]:
    """Detection and quantification limits from blank measurements.

    mean + 3.3 sd and mean + 10 sd by default; multipliers are configurable
    and should be recorded alongside the result.
    """
    v = _values(blanks)
    if v.size < 3:
        raise MetricInputError("lod_loq requires at least 3 blank measurements")
    sd = float(v.std(ddof=1))
    mean = float(v.mean())
    if sd == 0:
        _warn("lod_loq: zero blank spread, both limits collapse to the mean")
        return {"lod": mean, "loq": mean}
    return {"lod": mean + lod_multiplier * sd, "loq": mean + loq_multiplier * sd}


# --- repeatability -----------------------------------------------------------


def bland_altman_cr(pairs: Sequence[tuple[float, float]]) -> float:
    """Coefficient of repeatability: 1.96 sd of within-pair differences."""
    if len(pairs) < 2:
        raise MetricInputError("bland_altman_cr requires at least 2 pairs")
    diffs = np.array([float(x1) - float(x2) for x1, x2 in pairs])
    return float(1.96 * diffs.std(ddof=1))


def _all_values(groups: Mapping[Any, Sequence[float]]) -> np.ndarray:
    return np.concatenate([np.asarray(g, dtype=float) for g in groups.values()])


def repeatability_cv(subjects: Mapping[Any, Sequence[float]]) -> float:
    """Within-subject sd (root mean of per-subject variances) over grand
    mean, from each subject's repeated measurements."""
    if not subjects:
        raise MetricInputError("repeatability_cv needs at least one subject")
    variances = []
    for subject, vals in subjects.items():
        if len(vals) < 2:
            raise MetricInputError(f"subject {subject!r} has fewer than 2 repeats")
        variances.append(np.var(vals, ddof=1))
    grand = float(np.mean(_all_values(subjects)))
    if grand <= 0:
        raise MetricInputError("repeatability_cv requires a positive grand mean")
    return float(math.sqrt(float(np.mean(variances))) / grand)


def reproducibility_variance(groups: Mapping[Any, Sequence[float]]) -> dict[str, float]:
    """One-way ANOVA variance components across conditions, from the
    measurements under each condition.

    Returns repeatability s_r^2, between-condition s_L^2 (clipped at 0) and
    reproducibility s_R^2 = s_r^2 + s_L^2. Unbalanced designs fall back to
    the standard average-group-size approximation and are flagged.
    """
    if len(groups) < 2:
        raise MetricInputError("reproducibility_variance requires >= 2 conditions")
    sizes = [len(g) for g in groups.values()]
    if min(sizes) < 2:
        raise MetricInputError("each condition needs >= 2 repeats")
    total = float(sum(sizes))
    k = len(groups)
    grand = float(np.mean(_all_values(groups)))
    ssw = sum(float(np.sum((np.asarray(g) - np.mean(g)) ** 2)) for g in groups.values())
    ssb = sum(len(g) * (float(np.mean(g)) - grand) ** 2 for g in groups.values())
    ms_within = ssw / (total - k)
    ms_between = ssb / (k - 1)
    if len(set(sizes)) == 1:
        n0 = float(sizes[0])
    else:
        n0 = (total - sum(s * s for s in sizes) / total) / (k - 1)
        _warn("unbalanced design: between-condition component uses average group size")
    s_l2 = max(0.0, (ms_between - ms_within) / n0)
    return {"s_r2": float(ms_within), "s_L2": float(s_l2), "s_R2": float(ms_within + s_l2)}


def instrument_error(measured: np.ndarray, reference: np.ndarray) -> dict[str, float]:
    """Mean bias and residual sd of measurements against a gold standard."""
    vm, vr = _values(measured), _values(reference)
    if vm.size != vr.size:
        raise MetricInputError("instrument_error requires paired samples of equal length")
    if vm.size < 2:
        raise MetricInputError("instrument_error requires at least 2 pairs")
    resid = vm - vr
    return {"systematic": float(resid.mean()), "random": float(resid.std(ddof=1))}


# --- inter-rater agreement ---------------------------------------------------


def _category_order(values: Iterable[Any]) -> list[Any]:
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=str)


def _categories(m: Codes, read: np.ndarray) -> tuple[list[Any], np.ndarray]:
    """The categories of the cells a kernel reads (codes in reading order,
    -1 skipped), merged by value and ordered by _category_order, and each
    code's position among them (-1 for the rest). A merged category is the
    first of its values read, as a set of the cells keeps it; categories
    whose str is equal keep the order of first reading."""
    used, first = np.unique(read, return_index=True)
    used = used[np.argsort(first)]
    used = used[used >= 0].tolist()
    cats = _category_order(dict.fromkeys(map(m.categories.__getitem__, used)))
    position = {c: i for i, c in enumerate(cats)}
    index = np.full(len(m.categories) + 1, -1, np.intp)  # the last slot is code -1
    index[used] = [position[m.categories[k]] for k in used]
    return cats, index


def _floats(m: Codes, cells: np.ndarray) -> np.ndarray:
    """float() of the categories at cells, each category converted once in
    order of first appearance, so a bad cell fails as it would cell by cell."""
    used, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    order = np.argsort(first)
    values = np.empty(len(used))
    values[order] = [float(m.categories[k]) for k in used[order].tolist()]
    return values[inverse.reshape(cells.shape)]


def cohens_kappa(m: Codes, weights: str = "none") -> float:
    """Cohen's kappa for two raters, optionally linear/quadratic weighted.

    m is an items x raters matrix of codes (see registry._ratings).
    Weighted variants score disagreement by the distance between category
    positions, so they presume an ordinal category order.
    """
    if m.codes.shape[1] != 2:
        raise MetricInputError("cohens_kappa requires exactly 2 raters")
    pairs = m.codes[(m.codes >= 0).all(axis=1)]
    if not len(pairs):
        raise MetricInputError("cohens_kappa: no complete rating pairs")
    cats, index = _categories(m, pairs.T)
    k = len(cats)
    table = np.bincount(index[pairs[:, 0]] * k + index[pairs[:, 1]], minlength=k * k)
    table = table.reshape(k, k).astype(float)
    n = table.sum()
    obs = table / n
    marg_a = obs.sum(axis=1)
    marg_b = obs.sum(axis=0)
    expected = np.outer(marg_a, marg_b)
    if weights == "none":
        w = 1.0 - np.eye(k)
    elif weights == "linear":
        i, j = np.indices((k, k))
        w = np.abs(i - j).astype(float)
    elif weights == "quadratic":
        i, j = np.indices((k, k))
        w = ((i - j) ** 2).astype(float)
    else:
        raise MetricInputError(f"unknown kappa weights {weights!r}")
    expected_disagreement = float((w * expected).sum())
    if expected_disagreement == 0:
        raise MetricInputError("cohens_kappa undefined: chance agreement is 1")
    return float(1.0 - (w * obs).sum() / expected_disagreement)


def fleiss_kappa(m: Codes) -> float:
    """Fleiss' kappa for a fixed number of raters per item."""
    n_items, n = m.codes.shape
    if n < 2:
        raise MetricInputError("fleiss_kappa requires >= 2 raters")
    if (m.codes < 0).any():
        raise MetricInputError("fleiss_kappa requires every item rated by every rater")
    cats, index = _categories(m, m.codes)
    k = len(cats)
    cells = np.arange(n_items)[:, None] * k + index[m.codes]
    counts = np.bincount(cells.ravel(), minlength=n_items * k).reshape(n_items, k).astype(float)
    p_i = (np.sum(counts**2, axis=1) - n) / (n * (n - 1))
    p_bar = float(p_i.mean())
    p_j = counts.sum(axis=0) / counts.sum()
    p_e = float(np.sum(p_j**2))
    if p_e == 1:
        raise MetricInputError("fleiss_kappa undefined: a single category was ever used")
    return float((p_bar - p_e) / (1.0 - p_e))


def kendalls_w(m: Codes) -> float:
    """Kendall's coefficient of concordance with tie correction.

    Each rater column is converted to average ranks over the items;
    W = 12 S / (k^2 (n^3 - n) - k T) with T the per-rater tie correction.
    """
    n, k = m.codes.shape
    if n < 2:
        raise MetricInputError("kendalls_w requires at least 2 items")
    ranks = np.zeros((n, k))
    tie_term = 0.0
    for j in range(k):
        col = m.codes[:, j]
        if (col < 0).any():
            raise MetricInputError("kendalls_w requires complete rankings")
        ranks[:, j], counts = _average_ranks(_floats(m, col))
        tie_term += float(sum(t**3 - t for t in counts))
    totals = ranks.sum(axis=1)
    s = float(np.sum((totals - totals.mean()) ** 2))
    denom = k * k * (n**3 - n) - k * tie_term
    if denom == 0:
        raise MetricInputError("kendalls_w undefined: all rankings fully tied")
    return float(12.0 * s / denom)


def _krippendorff_delta(level: str, cats: list[Any], marginals: np.ndarray) -> np.ndarray:
    k = len(cats)
    delta = np.zeros((k, k))
    if level == "nominal":
        delta = 1.0 - np.eye(k)
        return delta
    if level == "ordinal":
        # cats are assumed sorted; distance spans the marginal mass between ranks
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                lo, hi = min(i, j), max(i, j)
                span = marginals[lo : hi + 1].sum() - (marginals[lo] + marginals[hi]) / 2.0
                delta[i, j] = span**2
        return delta
    if level not in ("interval", "ratio"):
        raise MetricInputError(f"unknown level {level!r}")
    try:
        vals = np.asarray([float(c) for c in cats])
    except (TypeError, ValueError):
        raise MetricInputError(f"{level} level needs numeric ratings") from None
    if level == "interval":
        return (vals[:, None] - vals[None, :]) ** 2
    s = vals[:, None] + vals[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(s != 0, (vals[:, None] - vals[None, :]) / s, 0.0)
    return d**2


def krippendorff_alpha(m: Codes, level: str = "nominal") -> float:
    """Krippendorff's alpha via the coincidence matrix.

    Missing ratings are allowed; items with fewer than two ratings do not
    contribute. level selects the difference function (nominal, ordinal,
    interval, ratio).
    """
    rated = (m.codes >= 0).sum(axis=1)
    units, mu = m.codes[rated >= 2], rated[rated >= 2]
    if not len(units):
        raise MetricInputError("krippendorff_alpha: no item has two pairable ratings")
    cats, index = _categories(m, units)
    k = len(cats)
    # every ordered pair of two ratings of a unit, unit by unit, each adding
    # 1 / (mu - 1) in the order a loop over the units adds it
    pos = index[units]
    a, b = pos[:, :, None], pos[:, None, :]
    pair = (a >= 0) & (b >= 0) & ~np.eye(m.codes.shape[1], dtype=bool)
    weight = np.broadcast_to((1.0 / (mu - 1))[:, None, None], pair.shape)
    cells = np.broadcast_to(a * k, pair.shape) + b
    coin = np.bincount(cells[pair], weights=weight[pair], minlength=k * k).reshape(k, k)
    marginals = coin.sum(axis=1)
    n = marginals.sum()
    delta = _krippendorff_delta(level, cats, marginals)
    d_o = float((coin * delta).sum())
    d_e = float((np.outer(marginals, marginals) * delta).sum())
    if d_e == 0:
        _warn("krippendorff_alpha: no expected disagreement, alpha 1 by convention")
        return 1.0
    return float(1.0 - (n - 1.0) * d_o / d_e)


# --- overlap -----------------------------------------------------------------


def overlap(mask_a: Any, mask_b: Any, kind: str = "dice") -> float:
    """Dice or IoU overlap of two boolean (or 0/1) masks of the same shape.

    Two empty masks agree perfectly by convention (flagged).
    """
    a, b = np.asarray(mask_a, dtype=bool), np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise MetricInputError("overlap masks must share their domain")
    n_a, n_b = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    inter = int(np.count_nonzero(a & b))
    if not n_a and not n_b:
        _warn("overlap: both masks empty, score 1 by convention")
        return 1.0
    if kind == "dice":
        return float(2.0 * inter / (n_a + n_b))
    if kind == "iou":
        return float(inter / (n_a + n_b - inter))
    raise MetricInputError(f"unknown overlap kind {kind!r}")


# --- completeness ------------------------------------------------------------


def completeness(ds: Dataset, scope: Sequence[str] | None = None) -> float:
    """Fraction of non-missing cells over the scoped columns."""
    cols = list(scope) if scope is not None else list(ds.column_names)
    if not cols:
        raise MetricInputError("completeness scope is empty")
    missing = sum(map(ds.missing_count, cols))
    total = len(cols) * ds.n_records
    if total == 0:
        raise MetricInputError("completeness requires at least one cell")
    return (total - missing) / total


def patient_level_completeness(ds: Dataset, patient_col: str, variable: str | None = None) -> float:
    """Fraction of patients with at least one complete entry of a variable.

    variable None asks about the signal payload instead of a column. Records
    without a patient identifier are excluded (flagged).
    """
    pids = ds.codes(patient_col)
    if variable is None:
        present = np.array([blk is not None for blk in ds.signals or (None,) * ds.n_records], dtype=bool)
    else:
        present = ~ds.missing(variable)
    identified = pids.codes >= 0
    skipped = ds.n_records - int(np.count_nonzero(identified))
    if skipped:
        _warn(f"{skipped} records lack a patient identifier and were excluded")
    if not pids.categories:
        raise MetricInputError("no identifiable patients")
    covered = np.bincount(pids.codes[identified & present], minlength=len(pids.categories))
    return int(np.count_nonzero(covered)) / len(pids.categories)


def record_completeness(ds: Dataset, required: Sequence[str]) -> float:
    """Fraction of records whose required fields are all present."""
    missing = [ds.missing(col) for col in required]
    if not missing:
        _warn("record_completeness with empty requirement is vacuously 1")
        return 1.0
    if ds.n_records == 0:
        raise MetricInputError("record_completeness requires at least one record")
    incomplete = int(np.count_nonzero(np.logical_or.reduce(missing)))
    return (ds.n_records - incomplete) / ds.n_records
