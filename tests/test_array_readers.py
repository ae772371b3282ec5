"""The array readers against per-cell references.

The references compute over Python cells, one at a time: the rater kernels
over a tuple grid of cells (None missing), syntactic accuracy over a list of
cells, the recipe label matching over one string per record and the
two-sample label counts over one dict per side. The array versions must give
the same floats, index lists, warnings and error messages.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqeval import correlation, harness, measurement
from dqeval.datamodel import MISSING, ColumnSpec, DataModelError, Dataset
from dqeval.distribution import MetricInputError, _warn
from dqeval.registry import EvaluationError, _counts_pair, _ratings, evaluate
from tests.conftest import cells_of

# --- references: the kernels over a tuple grid, None for missing -------------


def _ref_category_order(values):
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=str)


def _ref_cohens_kappa(rows, weights="none"):
    if len(rows[0]) != 2:
        raise MetricInputError("cohens_kappa requires exactly 2 raters")
    pairs = [(a, b) for a, b in rows if a is not MISSING and b is not MISSING]
    if not pairs:
        raise MetricInputError("cohens_kappa: no complete rating pairs")
    cats = _ref_category_order({a for a, _ in pairs} | {b for _, b in pairs})
    idx = {c: i for i, c in enumerate(cats)}
    k = len(cats)
    table = np.zeros((k, k))
    for a, b in pairs:
        table[idx[a], idx[b]] += 1
    obs = table / table.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0))
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


def _ref_fleiss_kappa(rows):
    n = len(rows[0])
    if n < 2:
        raise MetricInputError("fleiss_kappa requires >= 2 raters")
    for row in rows:
        if any(v is MISSING for v in row):
            raise MetricInputError("fleiss_kappa requires every item rated by every rater")
    cats = _ref_category_order({v for row in rows for v in row})
    idx = {c: i for i, c in enumerate(cats)}
    counts = np.zeros((len(rows), len(cats)))
    for i, row in enumerate(rows):
        for v in row:
            counts[i, idx[v]] += 1
    p_i = (np.sum(counts**2, axis=1) - n) / (n * (n - 1))
    p_bar = float(p_i.mean())
    p_j = counts.sum(axis=0) / counts.sum()
    p_e = float(np.sum(p_j**2))
    if p_e == 1:
        raise MetricInputError("fleiss_kappa undefined: a single category was ever used")
    return float((p_bar - p_e) / (1.0 - p_e))


def _ref_kendalls_w(rows):
    from scipy.stats import rankdata

    n, k = len(rows), len(rows[0])
    if n < 2:
        raise MetricInputError("kendalls_w requires at least 2 items")
    ranks = np.zeros((n, k))
    tie_term = 0.0
    for j in range(k):
        col = [row[j] for row in rows]
        if any(v is MISSING for v in col):
            raise MetricInputError("kendalls_w requires complete rankings")
        vals = np.asarray([float(v) for v in col])
        ranks[:, j] = rankdata(vals)
        _, counts = np.unique(vals, return_counts=True)
        tie_term += float(sum(t**3 - t for t in counts))
    totals = ranks.sum(axis=1)
    s = float(np.sum((totals - totals.mean()) ** 2))
    denom = k * k * (n**3 - n) - k * tie_term
    if denom == 0:
        raise MetricInputError("kendalls_w undefined: all rankings fully tied")
    return float(12.0 * s / denom)


def _ref_krippendorff_alpha(rows, level="nominal"):
    units = [[v for v in row if v is not MISSING] for row in rows]
    units = [u for u in units if len(u) >= 2]
    if not units:
        raise MetricInputError("krippendorff_alpha: no item has two pairable ratings")
    cats = _ref_category_order({v for u in units for v in u})
    idx = {c: i for i, c in enumerate(cats)}
    k = len(cats)
    coin = np.zeros((k, k))
    for u in units:
        mu = len(u)
        for a in range(mu):
            for b in range(mu):
                if a != b:
                    coin[idx[u[a]], idx[u[b]]] += 1.0 / (mu - 1)
    marginals = coin.sum(axis=1)
    n = marginals.sum()
    delta = measurement._krippendorff_delta(level, cats, marginals)
    d_o = float((coin * delta).sum())
    d_e = float((np.outer(marginals, marginals) * delta).sum())
    if d_e == 0:
        _warn("krippendorff_alpha: no expected disagreement, alpha 1 by convention")
        return 1.0
    return float(1.0 - (n - 1.0) * d_o / d_e)


def _ref_icc(rows):
    if len(rows[0]) < 2:
        raise MetricInputError("icc requires at least 2 raters")
    complete = [[float(v) for v in row] for row in rows if all(v is not MISSING for v in row)]
    if len(complete) < 2:
        raise MetricInputError("icc requires at least 2 complete items")
    data = np.asarray(complete, dtype=float)
    n, k = data.shape
    grand = data.mean()
    row_means, col_means = data.mean(axis=1), data.mean(axis=0)
    ss_rows = k * float(np.sum((row_means - grand) ** 2))
    ss_cols = n * float(np.sum((col_means - grand) ** 2))
    ss_err = float(np.sum((data - row_means[:, None] - col_means + grand) ** 2))
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    denom = msr + (k - 1) * mse + k * (msc - mse) / n
    if denom == 0:
        raise MetricInputError("icc undefined: zero between-item variance")
    return float((msr - mse) / denom)


def _ref_syntactic_accuracy(cells, dictionary):
    words = {str(w) for w in dictionary}
    if not words:
        raise MetricInputError("syntactic_accuracy requires a nonempty dictionary")
    present = [v for v in cells if v is not MISSING]
    if not present:
        _warn("syntactic_accuracy undefined: all entries missing")
        return float("nan")
    return sum(1 for v in present if str(v) in words) / len(present)


def _ref_apply_recipe(ds, recipe):
    def labels(default):
        try:
            cells = cells_of(ds, recipe.get("column", default))
        except DataModelError as exc:
            raise harness.HarnessError(f"recipe field 'column': {exc}") from None
        return [None if v is MISSING else str(v) for v in cells]

    kind = recipe.get("kind")
    if kind == "sex_imbalance":
        values = labels("sex")
        male = str(recipe.get("male_label", "0"))
        female = str(recipe.get("female_label", "1"))
        return harness._draw(
            recipe,
            ("male", [i for i, v in enumerate(values) if v == male]),
            ("female", [i for i, v in enumerate(values) if v == female]),
        )
    if kind == "device_filter":
        if "device_id" not in recipe:
            raise harness.HarnessError("recipe field 'device_id' is required")
        wanted = str(recipe["device_id"])
        idx = [i for i, v in enumerate(labels("device")) if v == wanted]
        if not idx:
            raise harness.HarnessError(f"device {wanted!r} matches no records")
        return idx
    if kind == "class_imbalance":
        values = labels(ds.role_column("target"))
        norm = str(recipe.get("norm_label", "NORM"))
        return harness._draw(
            recipe,
            ("norm", [i for i, v in enumerate(values) if v == norm]),
            ("other", [i for i, v in enumerate(values) if v != norm]),
        )
    raise harness.HarnessError(f"unknown recipe kind {kind!r}")


# --- random tables ------------------------------------------------------------

ORDER = ("lo", "mid", "hi")
# The str labels never equal the str of a number: with str and numbers mixed
# the categories sort by str, and the set references order categories of
# equal str as their hashes fall.
LABEL_CELLS = st.sampled_from([None, "a", "b", "B", 0, 1, 1.0, True, False, 2, 10, 0.0, -0.0, 2.5])
NUMBER_CELLS = st.sampled_from([None, 0.0, -0.0, 1.0, 2.0, 10.0, 2.5, -3.0])
ORDINAL_CELLS = st.sampled_from([None, *ORDER])
VTYPES = {"categorical": LABEL_CELLS, "numerical": NUMBER_CELLS, "ordinal": ORDINAL_CELLS}


@st.composite
def _tables(draw, max_columns):
    """A Dataset of random columns and, per column, the cells the per-cell
    reader gave: label cells as they are, the others as floats (ordinal
    labels by rank), None for missing."""
    n = draw(st.integers(1, 8))
    vtypes = draw(st.lists(st.sampled_from(sorted(VTYPES)), min_size=1, max_size=max_columns))
    specs, cells, refs = [], {}, []
    for j, vtype in enumerate(vtypes):
        name = f"c{j}"
        col = draw(st.lists(VTYPES[vtype], min_size=n, max_size=n))
        specs.append(ColumnSpec(name, vtype=vtype, ordinal_order=ORDER if vtype == "ordinal" else None))
        cells[name] = col
        if vtype == "ordinal":
            col = [None if v is None else float(ORDER.index(v)) for v in col]
        refs.append(col)
    return Dataset(columns=tuple(specs), cells=cells), refs


def _outcome(fn):
    """repr of the value, or the error's type and message, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fn())  # repr tells -0.0 from 0.0 and keeps every digit
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


RATER_KERNELS = [
    *((f"cohens_kappa/{w}", lambda m, w=w: measurement.cohens_kappa(m, weights=w),
       lambda r, w=w: _ref_cohens_kappa(r, weights=w)) for w in ("none", "linear", "quadratic", "bogus")),
    ("fleiss_kappa", measurement.fleiss_kappa, _ref_fleiss_kappa),
    ("kendalls_w", measurement.kendalls_w, _ref_kendalls_w),
    *((f"krippendorff_alpha/{lv}", lambda m, lv=lv: measurement.krippendorff_alpha(m, level=lv),
       lambda r, lv=lv: _ref_krippendorff_alpha(r, level=lv))
      for lv in ("nominal", "ordinal", "interval", "ratio", "bogus")),
    ("icc", correlation.icc, _ref_icc),
]


@settings(max_examples=400, deadline=None)
@given(_tables(max_columns=5))
def test_rater_kernels_match_the_tuple_references(table):
    ds, refs = table
    rows = tuple(zip(*refs))
    m = _ratings(ds, ds.column_names)
    for name, kernel, reference in RATER_KERNELS:
        assert _outcome(lambda: kernel(m)) == _outcome(lambda: reference(rows)), name


@settings(max_examples=150, deadline=None)
@given(_tables(max_columns=1), st.lists(st.sampled_from(["a", "B", "0", "0.0", "-0.0", "1", "1.0", "True", "10", "2.5"])))
def test_syntactic_accuracy_matches_the_per_cell_reference(table, words):
    ds, (ref,) = table
    if ds.columns[0].vtype == "ordinal":  # syntactic accuracy reads the labels, not the ranks
        ref = [None if v is None else ORDER[int(v)] for v in ref]
    want = _outcome(lambda: _ref_syntactic_accuracy(ref, words))
    try:
        res = evaluate("syntactic_accuracy", ds, {"column": "c0", "dictionary": words})
    except EvaluationError as exc:
        assert want == ((MetricInputError, str(exc)), [])
    else:
        assert want == (repr(res.value), list(res.warnings))


RECIPES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("device_filter"), "column": st.just("c0"), "device_id": LABEL_CELLS}),
    st.fixed_dictionaries({
        "kind": st.just("sex_imbalance"), "column": st.just("c0"),
        "male_label": LABEL_CELLS, "female_label": LABEL_CELLS,
        "n_male": st.integers(0, 3), "n_female": st.integers(0, 3), "seed": st.integers(0, 3),
    }),
    st.fixed_dictionaries({
        "kind": st.just("class_imbalance"), "column": st.just("c0"), "norm_label": LABEL_CELLS,
        "n_norm": st.integers(0, 3), "n_other": st.integers(0, 3), "seed": st.integers(0, 3),
    }),
)


@settings(max_examples=200, deadline=None)
@given(_tables(max_columns=1), RECIPES)
def test_recipe_label_matching_matches_the_per_record_reference(table, recipe):
    ds, _ = table
    assert _outcome(lambda: harness.apply_recipe(ds, recipe)) == _outcome(lambda: _ref_apply_recipe(ds, recipe))


def _ref_counts_pair(cells_a, cells_b):
    """Each side's present cells counted in a dict, then both sides aligned
    on the union of their keys, the first side's first."""

    def count(cells):
        acc = {}
        for v in cells:
            if v is not MISSING:
                acc[v] = acc.get(v, 0.0) + 1.0
        return acc

    pa, pb = count(cells_a), count(cells_b)
    keys = list(dict.fromkeys(list(pa) + list(pb)))
    return [pa.get(k, 0.0) for k in keys], [pb.get(k, 0.0) for k in keys]


def _label_table(**cells):
    return Dataset(columns=tuple(ColumnSpec(name, vtype="categorical") for name in cells), cells=cells)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(LABEL_CELLS, st.sampled_from(["g0", "g1"])), max_size=12))
def test_two_sample_label_counts_match_the_dict_union_alignment(rows):
    cells_a = [v for v, g in rows if g == "g0"]
    cells_b = [v for v, g in rows if g == "g1"]
    want = repr(_ref_counts_pair(cells_a, cells_b))
    (ca, cb), *_ = _counts_pair("chi_squared", _label_table(c0=cells_a), {"column": "c0"}, _label_table(c0=cells_b))
    assert repr((ca.tolist(), cb.tolist())) == want
    if cells_a and cells_b:  # the group route needs both groups
        ds = _label_table(c0=[v for v, _ in rows], g=[g for _, g in rows])
        (ca, cb), *_ = _counts_pair("chi_squared", ds, {"column": "c0", "group_column": "g"}, None)
        assert repr((ca.tolist(), cb.tolist())) == want


def _ref_groups(values, labels, by_subject):
    """The complete (value, label) rows grouped in a dict in record order,
    each label named as its first equal cell in the column; subjects then
    sorted by str."""
    first = {}
    for s in labels:
        first.setdefault(s, s)
    groups = {}
    for v, s in zip(values, labels):
        if v is not MISSING and s is not MISSING:
            groups.setdefault(first[s], []).append(float(v))
    return dict(sorted(groups.items(), key=lambda kv: str(kv[0]))) if by_subject else groups


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NUMBER_CELLS, LABEL_CELLS), max_size=12))
def test_repeated_measures_groups_match_the_dict_loop(rows):
    values, labels = [v for v, _ in rows], [s for _, s in rows]
    ds = Dataset(
        columns=(ColumnSpec("v", vtype="numerical"), ColumnSpec("s", vtype="categorical")),
        cells={"v": values, "s": labels},
    )
    for metric, by, kernel in (
        ("repeatability_cv", "subject_column", measurement.repeatability_cv),
        ("reproducibility_variance", "condition_column", measurement.reproducibility_variance),
    ):
        groups = _ref_groups(values, labels, by == "subject_column")
        if not groups:
            continue
        want = _outcome(lambda: kernel(groups))
        try:
            res = evaluate(metric, ds, {"value_column": "v", by: "s"})
        except EvaluationError as exc:
            assert want == ((MetricInputError, str(exc)), []), metric
        else:
            assert want == (repr(res.value), list(res.warnings)), metric
