from __future__ import annotations

import math
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqeval.datamodel import (
    MISSING,
    Codes,
    ColumnSpec,
    DataModelError,
    Dataset,
    SignalBlock,
    _layout_seconds,
    _normalize_cell,
    _typed,
    column_sample,
    group_by,
    parse_timestamp,
    pooled_counts,
    present_sample,
    proportions,
    take_records,
)
from dqeval.distribution import MetricInputError, divergence, hill_number
from dqeval.harness import load_ptbxl
from dqeval.measurement import shannon_entropy
from dqeval.report import load_dataset, parse_descriptor
from dqeval.structure import imbalance_degree, imbalance_ratio, lrid, prevalence_of_duplicates
from tests.conftest import cells_of, make_dataset


def test_column_spec_rejects_unknown_vtype_and_role():
    with pytest.raises(DataModelError):
        ColumnSpec("x", vtype="floaty")
    with pytest.raises(DataModelError):
        ColumnSpec("x", role="owner")


def test_sample_rejects_non_finite():
    with pytest.raises(DataModelError, match="finite values only"):
        present_sample(np.array([1.0, math.inf]))
    with pytest.raises(DataModelError, match="finite values only"):
        present_sample(np.array([math.nan, -math.inf]))
    assert present_sample(np.array([math.nan, 2.0, math.nan, 1.0])).tolist() == [2.0, 1.0]


def _label_counts(values):
    """(category, count) pairs of a categorical column of the given cells."""
    codes = Dataset(columns=(ColumnSpec("x", vtype="categorical"),), cells={"x": values}).codes("x")
    return tuple(zip(codes.categories, codes.counts().tolist()))


def test_label_counts_skip_missing():
    c = _label_counts(["a", "b", MISSING, "a"])
    assert dict(c) == {"a": 2.0, "b": 1.0}
    counts = [n for _, n in c]
    assert sum(counts) == 3.0
    assert proportions(counts)[0] == pytest.approx(2 / 3)


def test_count_kernels_reject_negative_counts():
    for kernel in (
        lambda c: hill_number(c, 2.0),
        shannon_entropy,
        imbalance_ratio,
        imbalance_degree,
        lrid,
        lambda c: divergence("js", c, [1.0, 1.0]),
    ):
        with pytest.raises((DataModelError, MetricInputError), match="nonnegative"):
            kernel([-1.0, 2.0])
        with pytest.raises((DataModelError, MetricInputError), match="total"):
            kernel([0.0, 0.0])


def test_dataset_rejects_duplicate_columns():
    with pytest.raises(DataModelError):
        Dataset(
            columns=(ColumnSpec("x"), ColumnSpec("x")),
            cells={"x": (1.0,)},
        )


def test_dataset_rejects_two_target_columns():
    with pytest.raises(DataModelError):
        Dataset(
            columns=(
                ColumnSpec("a", vtype="categorical", role="target"),
                ColumnSpec("b", vtype="categorical", role="target"),
            ),
            cells={"a": ("x",), "b": ("y",)},
        )


def test_dataset_rejects_ragged_cells():
    with pytest.raises(DataModelError):
        Dataset(
            columns=(ColumnSpec("a"), ColumnSpec("b")),
            cells={"a": (1.0, 2.0), "b": (1.0,)},
        )


def test_ordinal_column_requires_covering_order():
    with pytest.raises(DataModelError):
        Dataset(
            columns=(ColumnSpec("g", vtype="ordinal", ordinal_order=("lo",)),),
            cells={"g": ("lo", "hi")},
        )


def test_missing_tokens_normalize_to_missing():
    ds = Dataset(
        columns=(ColumnSpec("age", vtype="numerical"),),
        cells={"age": ("1", "NA", "", "2.5")},
    )
    np.testing.assert_array_equal(ds.array("age"), [1.0, np.nan, np.nan, 2.5])


def test_column_sample_drops_missing_and_counts():
    ds = make_dataset()
    s = column_sample(ds, "age")
    assert s.tolist() == [30.0, 40.0, 50.0, 60.0, 70.0]
    assert s.dtype == np.float64
    assert len(s) == 5


def test_feature_columns_exclude_identifier_vtype():
    ds = make_dataset()
    assert "id" not in ds.feature_columns()
    assert "age" in ds.feature_columns() and "sex" in ds.feature_columns()


def test_group_by_separates_missing():
    ds = make_dataset()
    groups, missing = group_by(ds, "sex")
    assert sorted(groups) == ["f", "m"]
    assert groups["f"].tolist() == [1, 3]
    assert missing.tolist() == []


def test_signal_block_requires_equal_channel_lengths():
    with pytest.raises(DataModelError, match="all signal channels must have equal length"):
        SignalBlock(((1.0, 2.0), (1.0,)), sampling_hz=10.0)


def test_signal_block_keeps_a_float_dtype_and_widens_the_rest():
    f32 = SignalBlock(np.ones((2, 3), dtype=np.float32), sampling_hz=1.0)
    assert f32.samples.dtype == np.float32
    assert f32.samples.shape == (2, 3)
    ints = SignalBlock(((1, 2, 3),), sampling_hz=1.0)
    assert ints.samples.dtype == np.float64
    assert ints.samples.tolist() == [[1.0, 2.0, 3.0]]


def test_payload_arrays_are_read_only_copies():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    block = SignalBlock(source, sampling_hz=1.0)
    source[0, 0] = 99.0
    assert block.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert not block.samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        block.samples[0] = 0.0


def test_signals_must_match_record_count():
    with pytest.raises(DataModelError):
        make_dataset(signals=(None,))


def test_histogram_equal_width_counts_sum_to_n():
    s = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ca, cb = pooled_counts(s, s, 2)
    assert ca.tolist() == cb.tolist() == [2.0, 3.0]


def test_pooled_counts_constant_sample_is_one_bin():
    ca, cb = pooled_counts(np.array([2.0, 2.0, 2.0]), np.array([2.0]), 4)
    assert ca.tolist() == [3.0]
    assert cb.tolist() == [1.0]


def test_pooled_counts_share_the_pooled_range():
    # edges 0, 2, ..., 10: each sample fills only the bins its own range meets
    ca, cb = pooled_counts(np.array([0.0, 1.0]), np.array([9.0, 10.0]), 5)
    assert ca.tolist() == [2.0, 0.0, 0.0, 0.0, 0.0]
    assert cb.tolist() == [0.0, 0.0, 0.0, 0.0, 2.0]


def test_pooled_counts_reject_no_bins_and_empty_sides():
    with pytest.raises(DataModelError, match="bin count must be >= 1"):
        pooled_counts(np.array([1.0]), np.array([2.0]), 0)
    empty, one = np.array([]), np.array([1.0])
    for a, b in ((empty, one), (one, empty), (empty, empty)):
        with pytest.raises(DataModelError, match="cannot bin an empty sample"):
            pooled_counts(a, b, 3)


def test_take_records_slices_cells_and_signals():
    sig = tuple(
        SignalBlock(((float(i),),), sampling_hz=1.0) for i in range(6)
    )
    ds = make_dataset(signals=sig)
    sub = take_records(ds, [0, 5])
    assert sub.n_records == 2
    assert sub.array("age").tolist() == [30.0, 70.0]
    assert sub.signals[1].samples.tolist() == [[5.0]]
    assert sub.signals[1] is ds.signals[5]
    assert sub.dataset_id == "mixed[subset]"


def test_take_records_bounds_checked():
    with pytest.raises(DataModelError):
        take_records(make_dataset(), [0, 6])


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
)
def test_histogram_counts_always_sum_to_sample_size(a, b):
    ca, cb = pooled_counts(np.array(a), np.array(b), 7)
    assert (sum(ca.tolist()), sum(cb.tolist())) == (float(len(a)), float(len(b)))


def _counts_by_dict_loop(values):
    acc = {}
    for v in values:
        if v is MISSING:
            continue
        acc[v] = acc.get(v, 0.0) + 1.0
    return tuple(acc.items())


# 1, 1.0 and True are one dict key, kept as whichever came first
cells = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from("abc")
)


@given(st.lists(cells, max_size=40))
def test_label_counts_equal_the_dict_loop(values):
    got, ref = _label_counts(values), _counts_by_dict_loop(values)
    assert got == ref
    assert [(type(k), type(c)) for k, c in got] == [(type(k), type(c)) for k, c in ref]


def _histogram_by_dict_loop(values, edges):
    acc = [0.0] * (len(edges) - 1)
    for v in values:
        i = 0
        while i < len(edges) - 2 and v >= edges[i + 1]:
            i += 1
        acc[i] += 1.0
    return acc


values_st = st.lists(st.integers(-20, 20) | st.floats(-1e3, 1e3), min_size=1, max_size=60)


@given(values_st, values_st, st.sampled_from([1, 2, 7]))
def test_histogram_counts_equal_the_dict_loop(a, b, bins):
    a, b = [float(v) for v in a], [float(v) for v in b]
    lo, hi = min(a + b), max(a + b)
    ca, cb = pooled_counts(np.array(a), np.array(b), bins)
    edges = np.linspace(lo, hi, bins + 1).tolist() if lo < hi else [lo, hi]
    assert ca.tolist() == _histogram_by_dict_loop(a, edges)
    assert cb.tolist() == _histogram_by_dict_loop(b, edges)


@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999)))
def test_naive_timestamps_parse_as_utc_aware_ones(dt):
    want = dt.replace(tzinfo=timezone.utc).timestamp()
    assert parse_timestamp(dt.isoformat()) == want
    assert parse_timestamp(dt.isoformat() + "+00:00") == want


def test_a_z_suffix_means_utc():
    # datetime.fromisoformat reads "Z" from Python 3.11 on
    assert parse_timestamp("2020-01-01T00:00:00Z") == 1577836800.0
    assert parse_timestamp(" 2020-01-01T00:00:01.5Z ") == 1577836801.5


@pytest.mark.parametrize("text", ["12:3x", " 1e3:00 ", "nan:", "2001-02-30 10:00"])
def test_text_with_a_colon_that_is_not_iso_names_the_cell(text):
    with pytest.raises(DataModelError) as info:
        parse_timestamp(text)
    assert str(info.value) == f"cannot parse timestamp {text!r}"


def test_take_records_full_index_is_identity():
    ds = make_dataset()
    sub = take_records(ds, list(range(ds.n_records)), dataset_id=ds.dataset_id)
    for name in ds.column_names:
        assert list(map(repr, cells_of(sub, name))) == list(map(repr, cells_of(ds, name)))
    assert sub.columns == ds.columns


def _one_column(vtype, cells):
    return cells_of(Dataset(columns=(ColumnSpec("x", vtype=vtype),), cells={"x": cells}), "x")


def test_negative_zero_numerical_cells_keep_their_sign():
    for cells in (("-0.0", "0.0", "-0.0"), (-0.0, 0.0, -0.0)):
        got = _one_column("numerical", cells)
        assert [math.copysign(1.0, v) for v in got] == [-1.0, 1.0, -1.0]


def test_equal_non_string_cells_of_other_types_decode_one_by_one():
    got = _one_column("categorical", (1, 1.0, True, 1))
    assert [type(v) for v in got] == [int, float, bool, int]
    got = _one_column("numerical", (1, 1.0, True, "1"))
    assert [(type(v), v) for v in got] == [(float, 1.0)] * 4


def test_float_nan_cells_are_missing():
    assert _one_column("numerical", (float("nan"), 2.0)) == (MISSING, 2.0)
    assert _one_column("categorical", (float("nan"), "a")) == (MISSING, "a")


def test_cells_that_parse_to_nan_are_missing():
    ds = Dataset(
        columns=(ColumnSpec("x", vtype="numerical"), ColumnSpec("t", vtype="datetime")),
        cells={"x": ("1", "NAN", "inf", "2", "-nan"), "t": ("+nan", "5.0", "nan", "NaN ", "7")},
    )
    np.testing.assert_array_equal(ds.array("x"), [1.0, np.nan, math.inf, 2.0, np.nan])
    np.testing.assert_array_equal(ds.array("t"), [np.nan, 5.0, np.nan, np.nan, 7.0])
    assert ds.missing_count("x") == 2 and ds.missing_count("t") == 3


@pytest.mark.parametrize(
    "cell",
    ["-inf", "inf", "1e400", " +Infinity ", -math.inf, math.inf, 10**400],
    ids=["text-minus-inf", "text-inf", "text-overflow", "text-infinity", "minus-inf", "inf", "int-overflow"],
)
def test_timestamps_that_are_not_finite_are_rejected(cell):
    with pytest.raises(DataModelError, match=f"cannot parse timestamp {re.escape(repr(cell))}: not a finite"):
        parse_timestamp(cell)
    with pytest.raises(DataModelError, match=re.escape(repr(cell))):
        _one_column("datetime", ("1000", cell, "2000", "3000"))


@pytest.mark.parametrize("hz", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_signal_block_needs_a_finite_positive_rate(hz):
    with pytest.raises(DataModelError, match="sampling_hz must be finite and > 0"):
        SignalBlock(((1.0, 2.0),), sampling_hz=hz)


def test_equal_cell_strings_of_a_loaded_column_are_one_object(tmp_path):
    (tmp_path / "t.csv").write_text("sex,age\nfemale,1\nmale,2\nfemale,3\n", encoding="utf-8")
    doc = {"table": {"path": "t.csv"}, "columns": [{"name": "sex", "vtype": "categorical"}]}
    sex = load_dataset(parse_descriptor(doc, base_dir=str(tmp_path))).array("sex")
    assert sex.categories == ("female", "male")
    assert sex.codes.tolist() == [0, 1, 0]


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_non_numeric_error_names_the_first_bad_cell_in_row_order(order):
    # twenty bad cells: a hash-ordered decode names the first by chance only
    bad = [f"bad{i}" for i in range(20)][::order]
    with pytest.raises(DataModelError, match=f"non-numeric cell '{bad[0]}'"):
        _one_column("numerical", ("1", *bad, "2", *bad))


def _assert_missing_counts_held(ds):
    for name in ds.column_names:
        assert ds.missing_count(name) == sum(v is MISSING for v in cells_of(ds, name)), name


def test_missing_counts_are_held_by_every_build(demo_root):
    ds = make_dataset()
    _assert_missing_counts_held(ds)
    sub = take_records(ds, [2, 2, 0])
    _assert_missing_counts_held(sub)
    assert sub.missing_count("age") == 2
    full = load_ptbxl(demo_root).dataset
    _assert_missing_counts_held(full)
    assert sum(map(full.missing_count, full.column_names)) > 0
    with pytest.raises(DataModelError, match="unknown column"):
        ds.missing_count("nope")


# --- typed columns against the per-cell reference ----------------------------

TYPED_SPECS = (
    ColumnSpec("label", vtype="categorical"),
    ColumnSpec("num", vtype="numerical"),
    ColumnSpec("time", vtype="datetime"),
    ColumnSpec("grade", vtype="ordinal", ordinal_order=("lo", "mid", "hi")),
)
_ODD = st.sampled_from([None, math.nan, " NA ", "null ", "", -0.0, 0.0, 1, 1.0, True])
TYPED_CELLS = {
    "label": st.one_of(_ODD, st.sampled_from(["a", "b", " a", 2])),
    "num": st.one_of(_ODD, st.sampled_from(["1", " 2.5", "-0.0", "nan", 3.5])),
    "time": st.one_of(_ODD, st.sampled_from(["1000", "2001-02-03T04:05:06", "2001-02-03 04:05:06+01:00", 86400])),
    "grade": st.sampled_from([" NA", "", "null ", "lo", "mid", "hi"]),  # strings only
}


@st.composite
def _typed_tables(draw):
    n = draw(st.integers(0, 14))
    cells = {name: draw(st.lists(cell, min_size=n, max_size=n)) for name, cell in TYPED_CELLS.items()}
    picks = draw(st.lists(st.integers(0, n - 1), max_size=20)) if n else []
    return cells, picks


def _groups_by_dict_loop(column):
    groups, missing = {}, []
    for i, v in enumerate(column):
        if v is MISSING:
            missing.append(i)
        else:
            groups.setdefault(v, []).append(i)
    return groups, missing


def _assert_matches_reference(ds, want):
    for spec in TYPED_SPECS:
        # repr tells -0.0 from 0.0 and 1 from 1.0 and True
        assert list(map(repr, cells_of(ds, spec.name))) == list(map(repr, want[spec.name])), spec.name
        assert ds.missing_count(spec.name) == sum(v is MISSING for v in want[spec.name])
        if spec.vtype in ("categorical", "ordinal"):
            groups, missing = group_by(ds, spec.name)
            ref_groups, ref_missing = _groups_by_dict_loop(want[spec.name])
            assert [(repr(k), g.tolist()) for k, g in groups.items()] == [(repr(k), g) for k, g in ref_groups.items()]
            assert missing.tolist() == ref_missing
    views = [cells_of(ds, spec.name) for spec in TYPED_SPECS]
    if ds.n_records:
        # 0.0 equals -0.0, and missing equals missing
        assert prevalence_of_duplicates(ds)["count"] == ds.n_records - len(set(zip(*views)))
        assert prevalence_of_duplicates(ds, ["label"])["count"] == ds.n_records - len(set(views[0]))


@given(_typed_tables())
def test_typed_columns_match_the_per_cell_reference(table):
    cells, picks = table
    ds = Dataset(columns=TYPED_SPECS, cells=cells)
    want = {spec.name: [_normalize_cell(v, spec) for v in cells[spec.name]] for spec in TYPED_SPECS}
    _assert_matches_reference(ds, want)
    sub = take_records(ds, picks)
    _assert_matches_reference(sub, {name: [col[i] for i in picks] for name, col in want.items()})


# --- datetime columns in the YYYY-MM-DD HH:MM:SS layout ------------------------


def _typed_by_category(cells, spec):
    """A datetime column decoded one category at a time: the reference."""
    raw = Codes.factorize(cells)
    return np.array([*(_normalize_cell(v, spec) for v in raw.categories), MISSING], dtype=float)[raw.codes]


_valid_cell = st.builds(
    lambda dt, sep: dt.isoformat(sep, "seconds"),
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
    st.sampled_from(" T"),
)
_near_cell = st.builds(  # one character of a valid cell replaced
    lambda cell, i, ch: cell[:i] + ch + cell[i + 1 :],
    _valid_cell,
    st.integers(0, 18),
    st.sampled_from(["0", "9", "-", ":", " ", "T", "x", "\u00e9", "\u0663", "\x00"]),
)
_field_cell = st.builds(
    "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}".format,
    st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32), st.sampled_from(" T"),
    st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
)
_EDGE_CELLS = [
    "2000-02-29 12:00:00", "0001-01-01 00:00:00", "9999-12-31T23:59:59", "1970-01-01 00:00:00",
    "1900-02-29 00:00:00", "2001-13-01 00:00:00", "2001-01-01 24:00:00", "2001-01-01 00:00:60",
    "", "NA", " nan ", "None", "0000-00-00 00:00:00",
    "2001-01-01 00:00:00Z", "2001-01-01 00:00:00+01:00", "2001-01-01 00:00:00.5",
    " 2001-01-01 00:00:00 ", "2001-01-01x00:00:00", "2001-01-01\u00e900:00:00",
    "2001-01-01\x0000:00:00", "2001-01-01 00:00:00\x00", "\uff12001-01-01 00:00:00",
    "2001-01-01 0\u0660:00:00", "2001-01-01", "12:30", "20010101 00:00:00",
    "2001/01-01 00:00:00", "2001-01/01 00:00:00", "2001-01-01 00x00:00", "2001-01-01 00:00x00",
    "2001-01-01 00-00:00", "0000-01-01 00:00:00", "2001-01-00 00:00:00", "2001-01-01 00:60:00",
]
_SPECS = [
    ColumnSpec("d", vtype="datetime"),
    ColumnSpec("d", vtype="datetime", missing_tokens={"", "0000-00-00 00:00:00", "1970-01-01 00:00:00"}),
]


def _decoded(f, cells, spec):
    try:
        return f(cells, spec).view(np.int64).tolist()
    except DataModelError as exc:
        return str(exc)


@settings(max_examples=250, deadline=None)
@given(
    st.tuples(
        st.lists(_valid_cell, max_size=10),
        st.lists(_near_cell | _field_cell | st.sampled_from(_EDGE_CELLS), max_size=2),
    )
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    .filter(len),
    st.sampled_from(_SPECS),
)
def test_datetime_columns_decode_as_the_per_category_loop(cells, spec):
    assert _decoded(_typed, cells, spec) == _decoded(_typed_by_category, cells, spec)


@pytest.mark.parametrize("odd", _EDGE_CELLS)
def test_an_edge_cell_among_valid_ones_decodes_as_the_per_category_loop(odd):
    cells = ["2000-02-29 12:00:00", odd, "1989-06-12T08:30:00", "2000-02-29 12:00:00"]
    for spec in _SPECS:
        assert _decoded(_typed, cells, spec) == _decoded(_typed_by_category, cells, spec)


def test_datetime_columns_in_the_layout_skip_the_loop():
    spec = ColumnSpec("d", vtype="datetime")
    cells = ["2000-02-29 12:00:00", "0001-01-01T00:00:00", "9999-12-31 23:59:59", "", " NA "]
    got = _layout_seconds(Codes.factorize(cells).categories, spec)
    assert got is not None
    assert got.view(np.int64).tolist() == _typed_by_category(cells, spec)[:5].view(np.int64).tolist()
    for odd in ("2000-02-30 12:00:00", "2000-02-29 12:00:00Z", " 2000-02-29 12:00:00", 1.5e9, MISSING):
        assert _layout_seconds([*cells, odd], spec) is None
    zero_date = ColumnSpec("d", vtype="datetime", missing_tokens={"1970-01-01 00:00:00"})
    got = _layout_seconds(["1970-01-01 00:00:00", "1970-01-01 00:00:01"], zero_date)
    assert np.isnan(got).tolist() == [True, False]
