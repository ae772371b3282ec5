"""Case-study harness: loading, stratified recipes and table reproduction."""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from dqeval import measurement
from dqeval.datamodel import ColumnSpec, Dataset, F32Record, take_records
from dqeval.harness import (
    SUPERCLASSES,
    HarnessError,
    apply_recipe,
    default_recipes,
    harness_checks,
    harness_rows,
    load_ptbxl,
    render_harness_markdown,
    run_harness,
    superclass_counts,
    write_demo_root,
)
from dqeval.report import DataLoadError, evaluate_row, report_json
from tests.conftest import cells_of

HARNESS_SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "demo_harness_snapshot.json")

# rows of the case-study table, in its dimension order
TABLE_PLAN = (
    ("completeness", "columns:measurements"),
    ("completeness", "columns:metadata"),
    ("patient_level_completeness", "columns:patients"),
    ("entropy", "global"),
    ("currency_heinrich", "column:recording_date"),
    ("generalized_imbalance_ratio", "column:scp_codes"),
    ("granularity", "global"),
    ("sampling_frequency", "signals"),
    ("dataset_size", "global"),
    ("range", "column:age"),
    ("mean_std", "column:age"),
    ("hill_numbers", "column:sex"),
    ("hill_numbers", "column:device"),
    ("pearson", "pair:age,is_norm"),
    ("prevalence_of_duplicates", "global"),
    ("maximum_mean_discrepancy", "groups:sex"),
)


@pytest.fixture(scope="module")
def ptbxl(demo_root):
    return load_ptbxl(demo_root)


def test_demo_root_has_the_expected_layout(demo_root):
    assert os.path.isfile(os.path.join(demo_root, "ptbxl_database.csv"))
    assert os.path.isfile(os.path.join(demo_root, "scp_statements.csv"))
    signals = os.listdir(os.path.join(demo_root, "signals_f32"))
    assert len(signals) == 300
    assert "1.f32" in signals


def test_demo_root_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_demo_root(str(a), n_records=25, seed=4)
    write_demo_root(str(b), n_records=25, seed=4)
    assert (a / "ptbxl_database.csv").read_bytes() == (b / "ptbxl_database.csv").read_bytes()
    assert (a / "signals_f32" / "7.f32").read_bytes() == (b / "signals_f32" / "7.f32").read_bytes()


def test_load_ptbxl_builds_dataset_and_superclasses(ptbxl):
    ds = ptbxl
    assert ds.n_records == 300
    assert len(ds.columns) == 30
    assert ds.role_column("target") == "is_norm"
    assert ds.role_column("patient_id") == "patient_id"
    assert ds.role_column("annotation") == "superclasses"
    superclasses = cells_of(ds, "superclasses")
    assert len(superclasses) == 300
    for classes, flag in zip(superclasses, ds.array("is_norm").tolist()):
        assert set(classes) <= set(SUPERCLASSES)
        assert classes == tuple(sorted(classes))
        assert flag == (1.0 if "NORM" in classes else 0.0)
    assert all(blk is not None and blk.sampling_hz == 500.0 for blk in ds.signals)


def test_load_ptbxl_requires_both_source_files(tmp_path):
    with pytest.raises(DataLoadError, match="does not exist"):
        load_ptbxl(str(tmp_path))
    (tmp_path / "ptbxl_database.csv").write_text("ecg_id\n1\n", encoding="utf-8")
    with pytest.raises(DataLoadError, match="scp_statements.csv missing"):
        load_ptbxl(str(tmp_path))


def test_counts_use_superclass_occurrences_not_records():
    ds = Dataset(
        columns=(ColumnSpec("superclasses", "categorical", role="annotation"),),
        cells={"superclasses": [("NORM",), ("MI", "NORM"), ("MI",)]},
        dataset_id="t",
    )
    assert superclass_counts(ds) == {"NORM": 2.0, "MI": 2.0}


def test_sex_imbalance_recipe_draws_exact_strata(ptbxl):
    recipe = {"kind": "sex_imbalance", "n_male": 40, "n_female": 10, "seed": 3}
    idx = apply_recipe(ptbxl, recipe)
    assert len(idx) == len(set(idx)) == 50
    assert idx == sorted(idx)
    sub = take_records(ptbxl, idx, dataset_id="s1")
    sex = sub.codes("sex")
    assert dict(zip(sex.categories, sex.counts())) == {"0": 40, "1": 10}
    assert apply_recipe(ptbxl, recipe) == idx
    assert apply_recipe(ptbxl, {**recipe, "seed": 4}) != idx


def test_device_filter_recipe_keeps_only_that_device(ptbxl):
    idx = apply_recipe(ptbxl, {"kind": "device_filter", "device_id": "CS-12"})
    sub = take_records(ptbxl, idx, dataset_id="s2")
    assert sub.array("device").categories == ("CS-12",)
    assert not sub.missing("device").any()
    with pytest.raises(HarnessError, match="matches no records"):
        apply_recipe(ptbxl, {"kind": "device_filter", "device_id": "XX-99"})


def test_class_imbalance_recipe_counts_norm_records(ptbxl):
    # the default column is the target-role column, is_norm
    recipe = {"kind": "class_imbalance", "norm_label": 1.0, "n_norm": 5, "n_other": 45, "seed": 0}
    idx = apply_recipe(ptbxl, recipe)
    sub = take_records(ptbxl, idx, dataset_id="s3")
    norm = [1.0 if "NORM" in cl else 0.0 for cl in cells_of(sub, "superclasses")]
    assert sum(norm) == 5 and len(norm) == 50


def test_recipe_errors(ptbxl):
    with pytest.raises(HarnessError, match="only"):
        apply_recipe(ptbxl, {"kind": "sex_imbalance", "n_male": 100000, "n_female": 1, "seed": 0})
    with pytest.raises(HarnessError, match="unknown recipe kind"):
        apply_recipe(ptbxl, {"kind": "upsample"})


def test_default_recipes_scale_to_the_dataset(ptbxl):
    recipes = default_recipes(ptbxl, seed=3)
    assert [r["kind"] for r in recipes] == ["sex_imbalance", "device_filter", "class_imbalance"]
    assert recipes[0]["n_male"] == 120 and recipes[0]["n_female"] == 30
    assert recipes[1]["device_id"] == "CS-12"
    assert recipes[2]["n_norm"] + recipes[2]["n_other"] == 150
    assert recipes[0]["n_male"] / recipes[0]["n_female"] == 4.0


def test_harness_rows_follow_the_table_plan(ptbxl):
    rows = harness_rows(ptbxl, seed=0, now=2e9, entropy_max_records=5, entropy_max_samples=60)
    assert [(r["metric_id"], r["scope"]) for r in rows] == list(TABLE_PLAN)
    by_plan = {(r["metric_id"], r["scope"]): r for r in rows}
    assert by_plan[("dataset_size", "global")]["value"] == 300
    assert by_plan[("granularity", "global")]["value"] == 26
    assert by_plan[("sampling_frequency", "signals")]["value"] == 500.0
    assert by_plan[("completeness", "columns:measurements")]["value"] == 1.0
    assert 0 < by_plan[("completeness", "columns:metadata")]["value"] < 1.0
    assert by_plan[("hill_numbers", "column:sex")]["params"]["q"] == 2


def test_run_harness_produces_four_reports_and_passing_checks(demo_root):
    out = run_harness(demo_root, seed=1, now=2e9, entropy_max_records=10, entropy_max_samples=80)
    assert out["real_data"] is False
    assert [r["dataset_id"] for r in out["reports"]] == [
        "original", "subset_sex_imbalance", "subset_device_filter", "subset_class_imbalance",
    ]
    assert all(len(r["results"]) == 16 for r in out["reports"])
    # synthetic data: only the structurally forced subset checks apply
    assert [c["check"] for c in out["checks"]] == [
        "Hill(sex) decreases in the sex-imbalance subset",
        "Hill(device) == 1.00 in the device subset",
        "imbalance ratio increases in the class-imbalance subset",
    ]
    assert all(c["passed"] for c in out["checks"])
    assert len(out["subset_indices"]) == 3


# --- the reproduction checks on fixed rows ------------------------------------------

# rows of the four reports of a real-table run that passes every check
REAL_ROWS = (
    {
        ("dataset_size", "global"): 21837,
        ("granularity", "global"): 26,
        ("sampling_frequency", "signals"): 500.0,
        ("prevalence_of_duplicates", "global"): {"count": 0, "share": 0.0},
        ("completeness", "columns:measurements"): 1.0,
        ("hill_numbers", "column:device"): 5.59,
        ("hill_numbers", "column:sex"): 1.99,
        ("entropy", "global"): 1.10,
        ("generalized_imbalance_ratio", "column:scp_codes"): 3.59,
    },
    {("hill_numbers", "column:sex"): 1.47},
    {("hill_numbers", "column:device"): 1.0, ("entropy", "global"): 1.25},
    {("generalized_imbalance_ratio", "column:scp_codes"): 7.92},
)
ALL_CHECKS = [
    "dataset size == 21837",
    "granularity == 26 metadata columns",
    "sampling frequency == 500 Hz",
    "duplicates == 0",
    "measurement completeness == 100%",
    "Hill(device) == 5.59 +/- 0.01",
    "entropy rises in the device subset",
    "Hill(sex) decreases in the sex-imbalance subset",
    "Hill(device) == 1.00 in the device subset",
    "imbalance ratio increases in the class-imbalance subset",
]
# per check: the report and row it reads, a value that passes it and one that fails it
CHECK_CASES = {
    "dataset size == 21837": (0, ("dataset_size", "global"), 21837, 21836),
    "granularity == 26 metadata columns": (0, ("granularity", "global"), 26, 28),
    "sampling frequency == 500 Hz": (0, ("sampling_frequency", "signals"), 500, 100.0),
    "duplicates == 0": (0, ("prevalence_of_duplicates", "global"), {"count": 0}, {"count": 2, "share": 1e-4}),
    "measurement completeness == 100%": (0, ("completeness", "columns:measurements"), 1.0, 0.9995),
    "Hill(device) == 5.59 +/- 0.01": (0, ("hill_numbers", "column:device"), 5.598, 5.61),
    "entropy rises in the device subset": (2, ("entropy", "global"), 1.11, 1.10),
    "Hill(sex) decreases in the sex-imbalance subset": (1, ("hill_numbers", "column:sex"), 1.98, 1.99),
    "Hill(device) == 1.00 in the device subset": (2, ("hill_numbers", "column:device"), 1.0, 1.001),
    "imbalance ratio increases in the class-imbalance subset": (
        3, ("generalized_imbalance_ratio", "column:scp_codes"), 3.6, 3.59),
}


def _rows(report: int | None = None, key: tuple[str, str] | None = None, row: dict | None = None) -> list:
    """REAL_ROWS as report rows, the row `key` of `report` replaced by `row`
    (a dropped row when `row` is None)."""
    reports = []
    for i, values in enumerate(REAL_ROWS):
        rows = []
        for (metric_id, scope), value in values.items():
            if (i, (metric_id, scope)) != (report, key):
                rows.append({"metric_id": metric_id, "scope": scope, "value": value})
            elif row is not None:
                rows.append({"metric_id": metric_id, "scope": scope, **row})
        reports.append(rows)
    return reports


def _outcomes(checks: list[dict]) -> dict[str, bool]:
    return {c["check"]: c["passed"] for c in checks}


def test_every_check_passes_on_the_real_table_rows_in_table_order():
    checks = harness_checks(_rows(), real=True)
    assert [c["check"] for c in checks] == ALL_CHECKS
    assert all(c["passed"] for c in checks)


def test_a_synthetic_table_gets_only_the_three_subset_directions():
    assert _outcomes(harness_checks(_rows(), real=False)) == dict.fromkeys(ALL_CHECKS[7:], True)


@pytest.mark.parametrize("message", ALL_CHECKS)
def test_each_check_passes_on_a_passing_value(message):
    report, key, passing, _ = CHECK_CASES[message]
    outcomes = _outcomes(harness_checks(_rows(report, key, {"value": passing}), real=True))
    assert outcomes == dict.fromkeys(ALL_CHECKS, True)


@pytest.mark.parametrize("message", ALL_CHECKS)
def test_each_check_fails_alone_on_a_failing_value(message):
    report, key, _, failing = CHECK_CASES[message]
    outcomes = _outcomes(harness_checks(_rows(report, key, {"value": failing}), real=True))
    assert outcomes == {m: m != message for m in ALL_CHECKS}


@pytest.mark.parametrize("message", ALL_CHECKS)
@pytest.mark.parametrize("row", [None, {"value": None, "error": "failed"}], ids=["missing", "error"])
def test_a_missing_row_fails_a_published_value_and_skips_a_direction(message, row):
    report, key, _, _ = CHECK_CASES[message]
    outcomes = _outcomes(harness_checks(_rows(report, key, row), real=True))
    if message in ALL_CHECKS[:6]:
        assert outcomes == {m: m != message for m in ALL_CHECKS}
    else:
        assert outcomes == {m: True for m in ALL_CHECKS if m != message}


def test_run_harness_is_seed_deterministic(demo_root):
    kwargs = dict(seed=5, now=2e9, entropy_max_records=5, entropy_max_samples=60)
    a = run_harness(demo_root, **kwargs)
    b = run_harness(demo_root, **kwargs)
    assert a["subset_indices"] == b["subset_indices"]
    assert a["markdown"] == b["markdown"]
    for ra, rb in zip(a["reports"], b["reports"]):
        assert ra["results"] == rb["results"]


def test_render_harness_markdown_grid(demo_root):
    out = run_harness(demo_root, seed=1, now=2e9, entropy_max_records=5, entropy_max_samples=60)
    md = render_harness_markdown(out["reports"])
    lines = md.strip().splitlines()
    assert lines[0].startswith("| Dimension | Metric | Scope | original |")
    assert "subset_class_imbalance" in lines[0]
    assert len(lines) == 2 + 16
    assert md == out["markdown"]


def _demo_harness_outputs(tmp_dir: str) -> dict[str, str]:
    """sha256 of each report (its wall-clock generated_at removed) and table.md."""
    root = os.path.join(tmp_dir, "root")
    write_demo_root(root, n_records=120, seed=0)
    out = run_harness(root, seed=1, now=1e9)
    got = {}
    for rep in out["reports"]:
        del rep["selection"]["generated_at"]
        got[rep["dataset_id"]] = hashlib.sha256(report_json(rep).encode("utf-8")).hexdigest()
    got["table.md"] = out["markdown"]
    return got


def test_demo_harness_reports_match_the_snapshot(tmp_path):
    # pins f32le decoding -> SignalBlock -> windowed sample entropy end to end
    with open(HARNESS_SNAPSHOT, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert _demo_harness_outputs(str(tmp_path)) == expected


# --- sample entropy shared across the subset reports -----------------------------

# caps that keep every record of every report: no draw, short windows
MEMO_CAPS = {"entropy_max_records": 10_000, "entropy_max_samples": 60}
CONSTANT = "sample_entropy: constant series, entropy 0 by convention"


@pytest.fixture
def memo_root(tmp_path):
    root = str(tmp_path / "root")
    write_demo_root(root, n_records=80, seed=3)
    return root


def _count_sample_entropy(monkeypatch) -> list[tuple[str, int]]:
    """Patch measurement.sample_entropy to log each series it gets as (file,
    lead), each row of a (channels, n) block counting as one series.

    A record is mapped anew on each use, and a freed mapping's address can be
    reused, so an address no longer names one (record, lead). The entropy row
    maps a record just before each call, so a row is named by the record
    mapped last and the row's place in its payload (leads are interleaved).
    """
    calls: list[tuple[str, int]] = []
    last: list = []
    real_read, real_entropy = F32Record.read, measurement.sample_entropy

    def read(record):
        payload = real_read(record)
        last[:] = [record.path, payload.ctypes.data]
        return payload

    def counted(series, p=measurement.SampleEntropyParams()):
        path, start = last
        rows = series if series.ndim == 2 else [series]
        calls.extend((path, (row.ctypes.data - start) // 4) for row in rows)
        return real_entropy(series, p)

    monkeypatch.setattr(F32Record, "read", read)
    monkeypatch.setattr(measurement, "sample_entropy", counted)
    return calls


def _row(report: dict, metric_id: str) -> dict:
    (row,) = [r for r in report["results"] if r["metric_id"] == metric_id]
    return row


def _overwrite_lead(root: str, record: int, lead: int, value: float) -> None:
    """Set one lead of the demo signal of record index `record` to a constant."""
    path = os.path.join(root, "signals_f32", f"{record + 1}.f32")  # ecg_id = index + 1
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = np.frombuffer(fh.read(), dtype="<f4").reshape(-1, 2).copy()
    payload[:, lead] = value
    with open(path, "wb") as fh:
        fh.write(header + payload.tobytes())


def _shared_record(root: str, seed: int) -> int:
    """A record index of the original that the device subset also holds."""
    original = load_ptbxl(root)
    return int(apply_recipe(original, default_recipes(original, seed)[1])[0])


def _reports_holding(out: dict, record: int) -> list[bool]:
    return [True] + [record in idx for idx in out["subset_indices"]]


def test_sample_entropy_runs_once_per_record_and_lead(memo_root, monkeypatch):
    calls = _count_sample_entropy(monkeypatch)
    out = run_harness(memo_root, seed=2, now=2e9, **MEMO_CAPS)
    sizes = [_row(r, "dataset_size")["value"] for r in out["reports"]]
    assert len(calls) == len(set(calls)) == 2 * sizes[0]
    assert sum(sizes) * 2 > len(calls)  # the subsets reused the original's leads


def test_shared_entropy_rows_equal_a_direct_computation(memo_root):
    out = run_harness(memo_root, seed=2, now=2e9, **MEMO_CAPS)
    fresh = load_ptbxl(memo_root)
    subsets = [range(fresh.n_records)] + out["subset_indices"]
    for report, idx in zip(out["reports"], subsets):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            per_record = []
            for j in idx:
                chans = [measurement.sample_entropy(s[:60]) for s in fresh.signals[j].samples]
                chans = [v for v in chans if not math.isnan(v)]
                if chans:
                    per_record.append(float(np.mean(chans)))
        row = _row(report, "entropy")
        assert row["value"].hex() == float(np.mean(per_record)).hex()
        assert row["warnings"] == [str(w.message) for w in caught]
        assert row["warnings"]  # 60-point windows leave some leads undefined


def test_constant_lead_of_a_shared_record_warns_in_every_report(memo_root):
    record = _shared_record(memo_root, seed=2)
    _overwrite_lead(memo_root, record, lead=1, value=0.5)
    out = run_harness(memo_root, seed=2, now=2e9, **MEMO_CAPS)
    holding = _reports_holding(out, record)
    assert sum(holding) >= 2
    for report, holds in zip(out["reports"], holding):
        assert _row(report, "entropy")["warnings"].count(CONSTANT) == int(holds)


def test_nan_lead_of_a_shared_record_is_an_error_in_every_report(memo_root, monkeypatch):
    record = _shared_record(memo_root, seed=2)
    _overwrite_lead(memo_root, record, lead=0, value=float("nan"))
    calls = _count_sample_entropy(monkeypatch)
    out = run_harness(memo_root, seed=2, now=2e9, **MEMO_CAPS)
    holding = _reports_holding(out, record)
    assert sum(holding) >= 2
    for report, holds in zip(out["reports"], holding):
        row = _row(report, "entropy")
        if holds:
            assert "finite" in row["error"]
        else:
            assert "error" not in row and row["value"] > 0
    # the faulty record, both its leads in one call, is tried again by each
    # report that holds it
    assert len(calls) - len(set(calls)) == 2 * (sum(holding) - 1)


def test_separate_loads_share_no_entropy(memo_root, monkeypatch):
    calls = _count_sample_entropy(monkeypatch)
    params = {"max_samples": 60}
    first = load_ptbxl(memo_root)
    row = evaluate_row(first, "entropy", "accuracy", params)
    n = len(calls)
    assert n == 2 * first.n_records
    assert evaluate_row(first, "entropy", "accuracy", params) == row
    assert len(calls) == n  # same blocks: nothing recomputed
    second = load_ptbxl(memo_root)
    assert evaluate_row(second, "entropy", "accuracy", params) == row
    assert len(calls) == 2 * n  # new blocks of the same content: all recomputed


@pytest.mark.parametrize(
    "params",
    [{"max_records": -1}, {"max_records": 0}, {"max_samples": -200}, {"max_samples": 0}],
    ids=["records-negative", "records-zero", "samples-negative", "samples-zero"],
)
def test_entropy_caps_below_one_are_error_rows(ptbxl, params):
    (name, cap), = params.items()
    row = evaluate_row(ptbxl, "entropy", "accuracy", params)
    assert row["scope"] == "unresolved"
    assert row["error"] == f"entropy: {name} must be >= 1, got {cap}"
    assert row["value"] is None
