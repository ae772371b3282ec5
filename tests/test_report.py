"""Descriptor parsing, dataset loading and report emission."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dqeval
import dqeval.report as report_module
from dqeval.datamodel import MISSING, ColumnSpec, DataModelError, Dataset, _normalize_cell
from dqeval.harness import load_ptbxl, write_demo_root
from dqeval.report import (
    _ROW_BLOCK,
    DataLoadError,
    _round2,
    build_report,
    check_same_schema,
    compare_results,
    evaluate_row,
    load_dataset,
    parse_descriptor,
    read_descriptor,
    render_comparison_markdown,
    render_report_markdown,
    report_json,
    result_entry,
)
from tests.conftest import cells_of

TABLE = (
    "rid,age,sex,visit,code\n"
    "r1,30,m,2021-01-02T00:00:00+00:00,I21\n"
    "r2,NA,f,1609545600,I50\n"
    "r3,50,m,,Z99\n"
)

COLUMNS = [
    {"name": "rid", "vtype": "identifier"},
    {"name": "age", "vtype": "numerical"},
    {"name": "sex", "vtype": "categorical"},
    {"name": "visit", "vtype": "datetime", "role": "timestamp"},
    {"name": "code", "vtype": "categorical"},
]


def _write_descriptor(tmp_path, doc):
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _basic_doc(**overrides):
    doc = {
        "table": {"path": "table.csv"},
        "columns": [dict(c) for c in COLUMNS],
        "dataset_id": "demo",
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def table_dir(tmp_path):
    (tmp_path / "table.csv").write_text(TABLE, encoding="utf-8")
    return tmp_path


def test_descriptor_paths_resolve_against_the_descriptor_location(table_dir):
    path = _write_descriptor(table_dir, _basic_doc())
    desc = read_descriptor(path)
    assert desc.table_path == str(table_dir / "table.csv")
    assert desc.dataset_id == "demo"
    assert desc.delimiter == ","


def test_descriptor_requires_table_and_columns(tmp_path):
    with pytest.raises(DataLoadError, match="misses required field"):
        parse_descriptor({"columns": []})
    with pytest.raises(DataLoadError, match="misses required field"):
        parse_descriptor({"table": {"path": "t.csv"}})


def test_descriptor_rejects_unknown_signal_format(tmp_path):
    doc = _basic_doc(signals={"dir": "sig", "format": "wav", "file_column": "rid"})
    with pytest.raises(DataLoadError, match="unknown signal format"):
        parse_descriptor(doc)


@pytest.mark.parametrize(
    "overrides",
    [
        {"table": {"path": 5}},
        {"row_index": 5},
        {"dictionaries": [1]},
    ],
    ids=["table-path", "row-index", "dictionaries"],
)
def test_descriptor_fields_of_the_wrong_json_type_are_load_errors(overrides):
    with pytest.raises(DataLoadError):
        parse_descriptor(_basic_doc(**overrides))


def test_unreadable_descriptor_is_a_load_error(tmp_path):
    with pytest.raises(DataLoadError, match="cannot read descriptor"):
        read_descriptor(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataLoadError, match="cannot read descriptor"):
        read_descriptor(str(bad))


def test_load_dataset_parses_cells_and_timestamps(table_dir):
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, _basic_doc())))
    assert ds.n_records == 3
    np.testing.assert_array_equal(ds.array("age"), [30.0, np.nan, 50.0])
    np.testing.assert_array_equal(ds.array("visit"), [1609545600.0, 1609545600.0, np.nan])


def test_datetime_missing_tokens_match_after_stripping(tmp_path):
    (tmp_path / "table.csv").write_text(TABLE.replace("1609545600", " NA"), encoding="utf-8")
    ds = load_dataset(read_descriptor(_write_descriptor(tmp_path, _basic_doc())))
    np.testing.assert_array_equal(ds.array("visit"), [1609545600.0, np.nan, np.nan])


def test_load_dataset_requires_declared_columns_in_header(table_dir):
    doc = _basic_doc(columns=[{"name": "ghost"}])
    with pytest.raises(DataLoadError, match="'ghost' not found"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


def test_load_dataset_rejects_missing_table(tmp_path):
    with pytest.raises(DataLoadError, match="cannot read table"):
        load_dataset(read_descriptor(_write_descriptor(tmp_path, _basic_doc())))


@pytest.mark.parametrize(
    "content",
    [b"rid,age\nr1,\xff\n", b'rid,age\nr1,"' + b"x" * 200_000 + b'"\n'],
    ids=["not-utf8", "field-past-csv-limit"],
)
def test_table_that_does_not_parse_is_a_load_error(tmp_path, content):
    (tmp_path / "table.csv").write_bytes(content)
    doc = _basic_doc(columns=[{"name": "rid", "vtype": "identifier"}])
    with pytest.raises(DataLoadError, match="cannot read table"):
        load_dataset(read_descriptor(_write_descriptor(tmp_path, doc)))


def test_load_dataset_rejects_empty_table(tmp_path):
    (tmp_path / "table.csv").write_text("", encoding="utf-8")
    with pytest.raises(DataLoadError, match="empty table"):
        load_dataset(read_descriptor(_write_descriptor(tmp_path, _basic_doc())))


def test_row_index_selects_and_orders_records(table_dir):
    (table_dir / "keep.json").write_text("[2, 0]", encoding="utf-8")
    doc = _basic_doc(row_index="keep.json")
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))
    rid = ds.array("rid")
    assert rid.categories == ("r3", "r1") and rid.codes.tolist() == [0, 1]


@pytest.mark.parametrize("keep", ["[7]", "[-1]"], ids=["past-end", "negative"])
def test_row_index_out_of_range_is_a_load_error(table_dir, keep):
    (table_dir / "keep.json").write_text(keep, encoding="utf-8")
    doc = _basic_doc(row_index="keep.json")
    with pytest.raises(DataLoadError, match="row index out of range"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


@pytest.mark.parametrize(
    "keep, message",
    [
        ("[0.7]", "row index entries must be integers, not 0.7"),
        ('["x"]', "row index entries must be integers, not 'x'"),
        ("[true]", "row index entries must be integers, not True"),
        ('{"x": 1}', "must be a JSON list, not dict"),
    ],
    ids=["float", "string", "bool", "object"],
)
def test_row_index_must_be_a_list_of_integers(table_dir, keep, message):
    (table_dir / "keep.json").write_text(keep, encoding="utf-8")
    doc = _basic_doc(row_index="keep.json")
    with pytest.raises(DataLoadError) as info:
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))
    assert message in str(info.value)


def test_dictionaries_load_inline_and_from_files(table_dir):
    (table_dir / "codes.txt").write_text("I21\nI50\n\nZ99\n", encoding="utf-8")
    doc = _basic_doc(dictionaries={"code": "codes.txt", "sex": ["m", "f"]})
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))
    assert ds.dictionaries["code"] == frozenset({"I21", "I50", "Z99"})
    assert ds.dictionaries["sex"] == frozenset({"m", "f"})
    doc = _basic_doc(dictionaries={"code": "absent.txt"})
    with pytest.raises(DataLoadError, match="cannot read dictionary"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


@pytest.mark.parametrize("route", ["descriptor", "dictionary_file"])
def test_word_lists_strip_each_line_and_must_be_utf8(table_dir, route):
    (table_dir / "crlf.txt").write_bytes(b"I21\r\n I50 \r\n\r\nZ99\r\n")
    (table_dir / "latin1.txt").write_bytes("I21\nZ\xe9\n".encode("latin-1"))

    def syntactic_accuracy(name):
        if route == "descriptor":
            ds = load_dataset(read_descriptor(_write_descriptor(table_dir, _basic_doc(dictionaries={"code": name}))))
            return evaluate_row(ds, "syntactic_accuracy", "accuracy", {"column": "code"})
        ds = load_dataset(read_descriptor(_write_descriptor(table_dir, _basic_doc())))
        params = {"column": "code", "dictionary_file": str(table_dir / name)}
        return evaluate_row(ds, "syntactic_accuracy", "accuracy", params)

    row = syntactic_accuracy("crlf.txt")
    assert (row["value"], row["params"]["dictionary_size"]) == (1.0, 3)
    message = f"{table_dir / 'latin1.txt'}: word list is not UTF-8 text (invalid continuation byte)"
    if route == "descriptor":
        with pytest.raises(DataLoadError, match="word list is not UTF-8 text") as info:
            syntactic_accuracy("latin1.txt")
        assert str(info.value).endswith(message)
    else:
        assert syntactic_accuracy("latin1.txt")["error"] == message


def test_dataset_validation_failures_surface_as_load_errors(table_dir):
    doc = _basic_doc()
    doc["columns"][1]["role"] = "timestamp"
    with pytest.raises(DataLoadError, match="at most one column"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


# A header with an undeclared column and a declared order that is not the header's.
STREAM_HEADER = ["when", "skip", "num", "grade", "cat"]
STREAM_COLUMNS = [
    {"name": "cat", "vtype": "categorical"},
    {"name": "num", "vtype": "numerical"},
    {"name": "when", "vtype": "datetime"},
    {"name": "grade", "vtype": "ordinal", "ordinal_order": ["low", "mid", "high"]},
]
PADDED_MISSING = st.sampled_from(["", " ", "NA", " NA ", "\tnull", "None ", " nan"])
STREAM_CELLS = {
    "when": st.one_of(PADDED_MISSING, st.sampled_from(
        ["1609545600", " 86400.5 ", "2021-01-02T00:00:00+00:00", "2020-05-01 10:00:00"])),
    "skip": st.text(max_size=3),
    "num": st.one_of(
        PADDED_MISSING,
        st.sampled_from(["-0.0", "0", " 1 ", "1e3", "x1", "x2"]),
        st.floats(allow_nan=False).map(repr),
    ),
    "grade": st.one_of(PADDED_MISSING, st.sampled_from(["low", "mid", "high"])),
    "cat": st.one_of(PADDED_MISSING, st.text(alphabet='ab ,"\n', max_size=4)),
}


@st.composite
def _stream_tables(draw):
    """A table of 0, 1, block +- 1 or two blocks + 3 rows, cycling through a few
    drawn rows, some cut short, plus a row index that reorders and repeats."""
    templates = draw(st.lists(
        st.tuples(st.fixed_dictionaries(STREAM_CELLS), st.integers(0, len(STREAM_HEADER))),
        min_size=1, max_size=6,
    ))
    rows = [[cells[name] for name in STREAM_HEADER][:width] for cells, width in templates]
    n = draw(st.sampled_from([0, 1, _ROW_BLOCK - 1, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3]))
    rnd = draw(st.randoms(use_true_random=False))
    body = [rows[rnd.randrange(len(rows))] for _ in range(n)]
    keep = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=30)) if n else None
    return body, keep


def _reference_cells(path, keep):
    """All rows in memory, then one _normalize_cell per cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, records = rows[0], rows[1:]
    if keep is not None:
        records = [records[i] for i in keep]
    cells = {}
    for c in STREAM_COLUMNS:
        spec = ColumnSpec(**c)
        pos = header.index(spec.name)
        cells[spec.name] = tuple(_normalize_cell(row[pos] if pos < len(row) else "", spec) for row in records)
    return cells


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_stream_tables())
def test_streamed_load_matches_the_all_rows_reference(tmp_path, table):
    body, keep = table
    with open(tmp_path / "table.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([STREAM_HEADER] + body)
    doc = {"table": {"path": "table.csv"}, "columns": STREAM_COLUMNS}
    if keep is not None:
        (tmp_path / "keep.json").write_text(json.dumps(keep), encoding="utf-8")
        doc["row_index"] = "keep.json"
    desc = read_descriptor(_write_descriptor(tmp_path, doc))
    try:
        want = _reference_cells(desc.table_path, keep)
    except DataModelError as exc:
        with pytest.raises(DataLoadError) as info:
            load_dataset(desc)
        assert str(info.value) == str(exc)
        return
    ds = load_dataset(desc)
    assert ds.n_records == len(want["cat"]) == (len(body) if keep is None else len(keep))
    for name, cells in want.items():
        # repr tells -0.0 from 0.0
        assert list(map(repr, cells_of(ds, name))) == list(map(repr, cells))
        assert ds.missing_count(name) == sum(v is MISSING for v in cells)


# table bytes -> the cells of each declared column (all categorical); each
# case holds whichever reader load_dataset picks for the table's size
DIALECT = {
    "blank-line-is-an-all-missing-row": (b"a,b\n1,x\n\n2,y\n", {"a": ("1", MISSING, "2"), "b": ("x", MISSING, "y")}),
    "short-row-misses-its-trailing-cells": (b"a,b,c\n1\n2,y,z\n", {"a": ("1", "2"), "c": (MISSING, "z")}),
    "cr-line-ends": (b"a,b\r1,x\r2,y\r", {"a": ("1", "2"), "b": ("x", "y")}),
    "crlf-line-ends": (b"a,b\r\n1,x\r\n\r\n2,y\r\n", {"a": ("1", MISSING, "2"), "b": ("x", MISSING, "y")}),
    "quoted-delimiter-line-end-and-quote": (
        b'a,b\n"1,2","x\r\ny"\n"say ""hi""",""\n', {"a": ("1,2", 'say "hi"'), "b": ("x\r\ny", MISSING)}),
    "bom-kept-in-first-header-name": (b"\xef\xbb\xbfa,b\n1,x\n", {"\ufeffa": ("1",), "b": ("x",)}),
    "quote-inside-unquoted-field-is-literal": (b'a,b\nab"c,x\n', {"a": ('ab"c',), "b": ("x",)}),
    "last-row-without-line-end": (b"a,b\n1,x\n2,y", {"a": ("1", "2"), "b": ("x", "y")}),
}


@pytest.mark.parametrize("threshold", [0, 1 << 62], ids=["byte-reader", "csv"])
@pytest.mark.parametrize("table, want", DIALECT.values(), ids=DIALECT)
def test_load_dataset_reads_the_table_dialect(tmp_path, monkeypatch, threshold, table, want):
    monkeypatch.setattr(report_module, "_BYTE_TABLE_MIN", threshold, raising=False)
    (tmp_path / "table.csv").write_bytes(table)
    doc = {"table": {"path": "table.csv"}, "columns": [{"name": name, "vtype": "categorical"} for name in want]}
    ds = load_dataset(parse_descriptor(doc, base_dir=str(tmp_path)))
    assert {name: cells_of(ds, name) for name in want} == want
    if "\ufeffa" in want:
        doc["columns"][0]["name"] = "a"
        with pytest.raises(DataLoadError, match="column 'a' not found in table header"):
            load_dataset(parse_descriptor(doc, base_dir=str(tmp_path)))


def test_tables_from_the_size_threshold_up_bypass_csv(table_dir, monkeypatch):
    size = os.path.getsize(table_dir / "table.csv")
    monkeypatch.setattr(report_module, "_read_columns", mock.Mock(side_effect=AssertionError("csv read the table")))
    desc = read_descriptor(_write_descriptor(table_dir, _basic_doc()))
    monkeypatch.setattr(report_module, "_BYTE_TABLE_MIN", size)
    assert cells_of(load_dataset(desc), "rid") == ("r1", "r2", "r3")
    monkeypatch.setattr(report_module, "_BYTE_TABLE_MIN", size + 1)
    with pytest.raises(AssertionError, match="csv read the table"):
        load_dataset(desc)


def _declined_table(kind, n_rows):
    """A table the byte reader declines, of about 20 bytes per row: a cell
    with an invalid UTF-8 byte in the last row, or the delimiter 'é'."""
    rows = [f"r{i},{20 + i % 50},{'mf'[i % 2]}" for i in range(n_rows)]
    if kind == "invalid-utf8":
        return ("rid,age,sex\n" + "\n".join(rows) + "\n").encode()[:-2] + b"\xff\n", ","
    return "\n".join(["ridéageésex", *rows]).replace(",", "é").encode() + b"\n", "é"


def _loaded(desc):
    """A Dataset's columns and signals, or the DataLoadError text."""
    try:
        ds = load_dataset(desc)
    except DataLoadError as exc:
        return str(exc)
    return {name: cells_of(ds, name) for name in ("rid", "age", "sex")}, ds.signals


@pytest.mark.parametrize("kind", ["invalid-utf8", "non-ascii-delimiter"])
@pytest.mark.parametrize("n_rows", [100, 12000], ids=["below-threshold", "above-threshold"])
def test_tables_the_byte_reader_declines_load_as_csv_reads_them(tmp_path, monkeypatch, kind, n_rows):
    table, delimiter = _declined_table(kind, n_rows)
    assert (len(table) >= report_module._BYTE_TABLE_MIN) == (n_rows == 12000)
    (tmp_path / "table.csv").write_bytes(table)
    doc = {"table": {"path": "table.csv", "delimiter": delimiter},
           "columns": [{"name": "rid", "vtype": "identifier"}, {"name": "age"}, {"name": "sex", "vtype": "categorical"}]}
    desc = read_descriptor(_write_descriptor(tmp_path, doc))
    with open(desc.table_path, "rb") as fh:
        assert report_module._read_columns_bytes(fh, delimiter, ["rid", "age", "sex"]) is None
    got = _loaded(desc)
    monkeypatch.setattr(report_module, "_BYTE_TABLE_MIN", 1 << 62)
    assert got == _loaded(desc)
    if kind == "invalid-utf8":
        assert got.startswith(f"cannot read table {desc.table_path}: 'utf-8' codec can't decode byte 0xff")
    else:
        assert got[0]["rid"][-1] == f"r{n_rows - 1}"


def test_an_empty_signal_file_cell_is_a_record_without_a_signal(tmp_path):
    (tmp_path / "table.csv").write_text("rid,age,sex\nr1,30,m\n,40,f\nr3,50,m\n", encoding="utf-8")
    sig_dir = tmp_path / "sig"
    sig_dir.mkdir()
    for name in ("r1", "", "r3"):  # an empty cell would name ".f32"
        _write_f32(sig_dir / f"{name}.f32", [[1.0, 10.0]])
    doc = {"table": {"path": "table.csv"}, "signals": F32_SIGNALS,
           "columns": [{"name": "rid", "vtype": "identifier"}, {"name": "age"}, {"name": "sex", "vtype": "categorical"}]}
    cells, signals = _loaded(read_descriptor(_write_descriptor(tmp_path, doc)))
    assert cells["rid"] == ("r1", MISSING, "r3")
    assert [blk is None for blk in signals] == [False, True, False]


@st.composite
def _parity_tables(draw):
    """A table as text, either drawn freely or written by csv.writer, its
    delimiter, and a block size that makes records straddle blocks."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    if draw(st.booleans()):
        text = draw(st.text(alphabet=f'ab"\r\né{delimiter}', max_size=40))
    else:
        rows = draw(st.lists(st.lists(st.text(alphabet=f'ab "\r\né{delimiter}', max_size=5), max_size=4),
                             min_size=1, max_size=8))
        out = io.StringIO()
        csv.writer(out, delimiter=delimiter, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows(rows)
        text = out.getvalue()
    return text, delimiter, draw(st.integers(1, 16))


@settings(max_examples=300, deadline=None)
@given(table=_parity_tables())
def test_byte_reader_gives_the_csv_readers_columns_or_declines(table):
    text, delimiter, block = table
    header = next(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter), None)
    names = list(dict.fromkeys(header or ()))
    with mock.patch.object(report_module, "_BLOCK_BYTES", block):
        got = report_module._read_columns_bytes(io.BytesIO(text.encode()), delimiter, names)
    if got is None:
        return
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    next(reader)
    cells, n_rows = report_module._read_columns(reader, {name: header.index(name) for name in names})
    assert got[1] == n_rows
    for name in names:
        assert got[0][name].categories == cells[name].categories
        assert got[0][name].codes.dtype == cells[name].codes.dtype
        assert got[0][name].codes.tolist() == cells[name].codes.tolist()


def _write_f32(path, matrix, sampling_hz=100.0, names=("x", "y"), n_samples=None):
    arr = np.asarray(matrix, dtype="<f4")
    header = {
        "channels": arr.shape[1],
        "n_samples": n_samples if n_samples is not None else arr.shape[0],
        "sampling_hz": sampling_hz,
        "channel_names": list(names),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(arr.tobytes())


def test_f32_signals_round_trip(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    _write_f32(sig_dir / "r1.f32", [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    _write_f32(sig_dir / "r3.f32", [[5.0, 50.0]])
    doc = _basic_doc(
        signals={"dir": "sig", "format": "f32le", "file_column": "rid", "pattern": "{value}.f32"}
    )
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))
    assert ds.signals[0].samples.tolist() == [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]
    assert ds.signals[0].samples.dtype == np.float32
    assert ds.signals[0].samples.nbytes == 4 * 2 * 3
    assert not ds.signals[0].samples.flags.writeable
    assert ds.signals[0].sampling_hz == 100.0
    assert ds.signals[0].channel_names == ("x", "y")
    assert ds.signals[1] is None
    assert ds.signals[2].samples.tolist() == [[5.0], [50.0]]


@pytest.mark.parametrize("hz", [float("nan"), float("inf"), 0.0])
def test_f32_header_rate_that_is_not_finite_and_positive_is_a_load_error(table_dir, hz):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    _write_f32(sig_dir / "r1.f32", [[1.0, 10.0]])
    _write_f32(sig_dir / "r3.f32", [[5.0, 50.0]], sampling_hz=hz)  # json writes NaN, Infinity
    doc = _basic_doc(
        signals={"dir": "sig", "format": "f32le", "file_column": "rid", "pattern": "{value}.f32"}
    )
    with pytest.raises(DataLoadError, match="sampling_hz must be finite and > 0"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


def test_csv_signal_rate_that_is_not_finite_is_a_load_error(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    (sig_dir / "r1.csv").write_text("lead1,lead2\n0.1,0.5\n0.2,0.6\n", encoding="utf-8")
    doc = _basic_doc(
        signals={"dir": "sig", "format": "csv", "file_column": "rid", "pattern": "{value}.csv",
                 "sampling_hz": float("inf")}
    )
    with pytest.raises(DataLoadError, match="sampling_hz must be finite and > 0"):
        load_dataset(parse_descriptor(doc, base_dir=str(table_dir)))


F32_SIGNALS = {"dir": "sig", "format": "f32le", "file_column": "rid", "pattern": "{value}.f32"}


def test_f32_truncated_payload_is_rejected(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    _write_f32(sig_dir / "r1.f32", [[1.0, 10.0]], n_samples=4)
    doc = _basic_doc(signals=F32_SIGNALS)
    with pytest.raises(DataLoadError, match="payload holds 2 floats, header promises 2x4"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


def test_f32_payload_that_is_not_whole_floats_is_rejected(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    _write_f32(sig_dir / "r1.f32", [[1.0, 10.0]])
    with open(sig_dir / "r1.f32", "ab") as fh:
        fh.write(b"\0\0")
    doc = _basic_doc(signals=F32_SIGNALS)
    with pytest.raises(DataLoadError, match="r1.f32: buffer size must be a multiple of element size"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


def test_f32_samples_are_a_read_only_map_of_the_file(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    leads = np.random.default_rng(4).normal(size=(700, 12)).astype("<f4")
    _write_f32(sig_dir / "r1.f32", leads, names=[f"l{i}" for i in range(12)])
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, _basic_doc(signals=F32_SIGNALS))))
    raw = (sig_dir / "r1.f32").read_bytes()
    want = np.frombuffer(raw[raw.index(b"\n") + 1 :], dtype="<f4").reshape(700, 12).T
    blk = ds.signals[0]
    got = blk.samples
    assert blk.shape == got.shape == (12, 700)
    assert got.dtype == np.float32
    assert not got.flags.writeable
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_loaded_and_evaluated_records_hold_no_file_descriptor(tmp_path):
    root = str(tmp_path / "root")
    write_demo_root(root, n_records=40, seed=2)
    before = _open_fds()
    ds = load_ptbxl(root).dataset
    assert _open_fds() == before
    row = evaluate_row(ds, "entropy", "accuracy", {"max_samples": 60})
    assert "error" not in row
    assert _open_fds() == before


LOW_FD_LIMIT = """
import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
from dqeval.harness import load_ptbxl
from dqeval.report import evaluate_row
ds = load_ptbxl(sys.argv[1]).dataset
rows = [
    evaluate_row(ds, "entropy", "accuracy", {"max_samples": 60}),
    evaluate_row(ds, "completeness", "completeness", {"target": "signals"}),
]
print(ds.n_records, [row.get("error") for row in rows], rows[1]["value"])
"""


def test_a_root_of_more_records_than_file_descriptors_loads_and_evaluates(tmp_path):
    root = str(tmp_path / "root")
    write_demo_root(root, n_records=400, seed=0)
    src = os.path.dirname(os.path.dirname(dqeval.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", LOW_FD_LIMIT, root], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["400", "[None,", "None]", "1.0"]


@pytest.mark.parametrize("change", ["truncate", "delete"])
def test_a_record_that_changes_after_load_is_an_error_row_naming_it(tmp_path, change):
    root = str(tmp_path / "root")
    write_demo_root(root, n_records=5, seed=1)
    ds = load_ptbxl(root).dataset
    path = os.path.join(root, "signals_f32", "3.f32")
    if change == "truncate":
        os.truncate(path, os.path.getsize(path) - 8)
    else:
        os.remove(path)
    row = evaluate_row(ds, "entropy", "accuracy", {"max_samples": 60})
    assert row["value"] is None
    assert path in row["error"]


def test_f32_record_of_no_samples_loads_empty(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    _write_f32(sig_dir / "r1.f32", np.zeros((0, 2)))
    _write_f32(sig_dir / "r3.f32", [[5.0, 50.0]])
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, _basic_doc(signals=F32_SIGNALS))))
    empty = ds.signals[0].samples
    assert empty.shape == ds.signals[0].shape == (2, 0)
    assert empty.dtype == np.float32 and not empty.flags.writeable
    row = evaluate_row(ds, "completeness", "completeness", {"target": "signals"})
    assert row["value"] == 1 / 3  # only r3 carries samples


def test_csv_signals_need_a_declared_rate(table_dir):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    (sig_dir / "r1.csv").write_text("lead1,lead2\n0.1,0.5\n0.2,0.6\n", encoding="utf-8")
    doc = _basic_doc(
        signals={"dir": "sig", "format": "csv", "file_column": "rid", "pattern": "{value}.csv", "sampling_hz": 250}
    )
    ds = load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))
    assert ds.signals[0].samples.tolist() == [[0.1, 0.2], [0.5, 0.6]]
    assert ds.signals[0].samples.dtype == np.float64
    assert not ds.signals[0].samples.flags.writeable
    assert ds.signals[0].sampling_hz == 250.0
    assert ds.signals[0].channel_names == ("lead1", "lead2")
    doc["signals"].pop("sampling_hz")
    with pytest.raises(DataLoadError, match="requires sampling_hz"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


@pytest.mark.parametrize(
    "text",
    [
        "lead1,lead2\n0.1,0.5\n0.2\n",
        "lead1,lead2,lead3\n0.1,0.5\n0.2,0.6\n",
        'lead1,lead2\n"' + "1" * 200_000 + '",0.5\n',
    ],
    ids=["ragged-rows", "more-names-than-channels", "field-past-csv-limit"],
)
def test_csv_signal_that_does_not_decode_is_a_load_error(table_dir, text):
    sig_dir = table_dir / "sig"
    sig_dir.mkdir()
    (sig_dir / "r1.csv").write_text(text, encoding="utf-8")
    doc = _basic_doc(
        signals={"dir": "sig", "format": "csv", "file_column": "rid", "pattern": "{value}.csv", "sampling_hz": 250}
    )
    with pytest.raises(DataLoadError, match="cannot read signal"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


def test_missing_signal_directory_is_a_load_error(table_dir):
    doc = _basic_doc(signals={"dir": "nowhere", "format": "f32le", "file_column": "rid"})
    with pytest.raises(DataLoadError, match="does not exist"):
        load_dataset(read_descriptor(_write_descriptor(table_dir, doc)))


# --- report assembly ----------------------------------------------------------


def _tiny_dataset():
    return Dataset(
        columns=(ColumnSpec("x"), ColumnSpec("grp", vtype="categorical")),
        cells={"x": (1.0, 2.0, 3.0, 4.0), "grp": ("a", "a", "b", "b")},
        dataset_id="tiny",
    )


def test_evaluate_row_records_success():
    row = evaluate_row(_tiny_dataset(), "range", "variety", params={"column": "x"})
    assert row["value"] == 3.0
    assert row["scope"] == "column:x"
    assert row["dimension"] == "variety"
    assert "error" not in row


def test_evaluate_row_records_failure_instead_of_raising():
    row = evaluate_row(_tiny_dataset(), "pearson", "feature_importance")
    assert row["scope"] == "unresolved"
    assert "column_a" in row["error"]
    assert row["value"] is None


def test_result_entry_converts_numpy_scalars():
    entry = result_entry(
        "range", "variety", "column:x",
        params={"n": np.int64(4), "w": np.float32(0.5), "arr": np.array([1, 2])},
        value=np.float64(3.0),
    )
    text = json.dumps(entry)
    assert json.loads(text)["params"] == {"n": 4, "w": 0.5, "arr": [1, 2]}
    assert json.loads(text)["value"] == 3.0


def test_report_json_is_deterministic():
    rows = [evaluate_row(_tiny_dataset(), "range", "variety", params={"column": "x"})]
    a = build_report("tiny", {"q": "yes"}, {"selections": []}, rows, seed=3)
    b = build_report("tiny", {"q": "yes"}, {"selections": []}, rows, seed=3)
    assert report_json(a) == report_json(b)
    assert report_json(a).endswith("\n")
    assert a["environment"]["seed"] == 3


@pytest.mark.parametrize(
    "value, expected",
    [
        (None, ""),
        ("skipped", "skipped"),
        (True, "True"),
        (21837, "21837"),
        (1.4705, "1.47"),
        (21837.0, "21837"),
        (2.0, "2.00"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        ({"mean": 1.234, "std": 0.5}, "mean=1.23, std=0.50"),
        ([100.0, 500.0], "[100, 500]"),
    ],
)
def test_two_decimal_rendering(value, expected):
    assert _round2(value) == expected


def test_render_report_markdown_rounds_and_footnotes():
    rows = [
        result_entry("range", "variety", "column:x", {}, 3.14159),
        result_entry("ks_test", "homogeneity", "pair:a,b", {}, 0.5, warnings=["small sample"]),
        result_entry("pearson", "feature_importance", "unresolved", {}, error="parameter 'column_a' is required"),
    ]
    report = build_report("tiny", {}, {}, rows, seed=1)
    md = render_report_markdown(report)
    assert "| variety | range | column:x | 3.14 |" in md
    assert "| homogeneity | ks_test | pair:a,b | 0.50 (*) |" in md
    assert "error: parameter 'column_a' is required" in md
    assert "(*) result carries warnings" in md
    assert md.rstrip().endswith("Seed: 1")


def test_render_report_markdown_omits_footnote_without_warnings():
    report = build_report("tiny", {}, {}, [result_entry("range", "variety", "s", {}, 1.0)])
    assert "(*)" not in render_report_markdown(report)


def test_check_same_schema_names_first_difference():
    a = _tiny_dataset()
    check_same_schema(a, a)
    b = Dataset(
        columns=(ColumnSpec("x"), ColumnSpec("grp")),
        cells={"x": (1.0,), "grp": (2.0,)},
        dataset_id="other",
    )
    with pytest.raises(DataLoadError, match="schema mismatch at column 'grp'"):
        check_same_schema(a, b)
    c = Dataset(columns=(ColumnSpec("x"),), cells={"x": (1.0,)}, dataset_id="short")
    with pytest.raises(DataLoadError, match="'grp' only in first dataset"):
        check_same_schema(a, c)


def test_compare_results_pairs_by_metric_and_scope():
    rows_a = [
        result_entry("range", "variety", "column:x", {}, 3.0),
        result_entry("hill_numbers", "variety", "column:grp", {}, 2.0),
        result_entry("dataset_size", "dataset_size", "global", {}, 4),
    ]
    rows_b = [
        result_entry("range", "variety", "column:x", {}, 5.5),
        result_entry("hill_numbers", "variety", "column:grp", {}, None, error="no categories"),
    ]
    pairs = compare_results(rows_a, rows_b)
    assert pairs[0]["delta"] == 2.5
    assert "delta" not in pairs[1]
    assert pairs[2]["value_b"] is None and "delta" not in pairs[2]
    md = render_comparison_markdown(pairs, "tiny", "other")
    assert "| tiny | other | Delta |" in md.splitlines()[0]
    assert "| variety | range | column:x | 3.00 | 5.50 | 2.50 |" in md
