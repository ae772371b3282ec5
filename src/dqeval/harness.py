"""PTB-XL case-study harness: loading, stratified subsets, table reproduction.

Works against a local PTB-XL directory (never downloaded) holding
ptbxl_database.csv and scp_statements.csv, optionally with converted
signals under signals_f32/<ecg_id>.f32. A miniature synthetic stand-in
with the same layout can be generated for demos and tests; on synthetic
data only the directional subset checks apply, never the published
values, and a failed one is reported without failing the run.
"""

from __future__ import annotations

import ast
import csv
import json
import os
import time
from functools import partial
from typing import Any, Mapping, Sequence

import numpy as np

from . import registry as _registry
from . import selection as _selection
from . import structure as _struct
from .datamodel import Codes, ColumnSpec, DataModelError, Dataset, take_records
from .report import (
    DataLoadError,
    build_report,
    evaluate_row,
    load_dataset,
    parse_descriptor,
    report_table,
    result_cell,
    result_entry,
)

SUPERCLASSES = ("NORM", "MI", "STTC", "CD", "HYP")

# the use-case questionnaire for the multiclass ECG classification task
PTBXL_PROFILE: dict[str, Any] = {
    "ground_truth": "no",
    "blank_sample": "no",
    "annotator_count": "one",
    "completeness_interest": ["general", "patient-level"],
    "data_modality": ["tabular", "time series"],
    "ml_task": "classification",
    "balance_focus": "general estimation",
    "expiration_date": "no",
    "update_frequency_known": "no",
    "identicality": "fully identical",
    "homogeneity:dist_aspect": "compare",
    "homogeneity:comparison_approach": "distance",
    "variety:dist_aspect": "single",
    "variety:variable_type": ["numerical", "categorical"],
    "feature_importance:data_type": "numerical",
    "feature_importance:repeated_measurement_count": "two",
}

# ptbxl_database.csv header order; ecg_id and patient_id are excluded from
# the feature count, leaving the 26 metadata columns
_PTBXL_COLUMNS: tuple[tuple[str, str, str], ...] = (
    ("ecg_id", "identifier", "feature"),
    ("patient_id", "identifier", "patient_id"),
    ("age", "numerical", "feature"),
    ("sex", "categorical", "feature"),
    ("height", "numerical", "feature"),
    ("weight", "numerical", "feature"),
    ("nurse", "categorical", "feature"),
    ("site", "categorical", "feature"),
    ("device", "categorical", "feature"),
    ("recording_date", "datetime", "feature"),
    ("report", "categorical", "feature"),
    ("scp_codes", "categorical", "feature"),
    ("heart_axis", "categorical", "feature"),
    ("infarction_stadium1", "categorical", "feature"),
    ("infarction_stadium2", "categorical", "feature"),
    ("validated_by", "categorical", "feature"),
    ("second_opinion", "categorical", "feature"),
    ("initial_autogenerated_report", "categorical", "feature"),
    ("validated_by_human", "categorical", "feature"),
    ("baseline_drift", "categorical", "feature"),
    ("static_noise", "categorical", "feature"),
    ("burst_noise", "categorical", "feature"),
    ("electrodes_problems", "categorical", "feature"),
    ("extra_beats", "categorical", "feature"),
    ("pacemaker", "categorical", "feature"),
    ("strat_fold", "numerical", "feature"),
    ("filename_lr", "categorical", "feature"),
    ("filename_hr", "categorical", "feature"),
)

_REAL_SIZE = 21837


class HarnessError(ValueError):
    """A malformed subset recipe; the reproduction checks never raise."""


class PtbxlNotFound(DataLoadError):
    """The root holds no PTB-XL table or no scp_statements.csv."""


def _read_superclass_map(root: str) -> dict[str, str]:
    path = os.path.join(root, "scp_statements.csv")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataLoadError(f"{path}: not a UTF-8 CSV file: {exc}") from None
    if not rows:
        raise DataLoadError(f"{path}: empty file")
    header = rows[0]
    for name in ("diagnostic", "diagnostic_class"):
        if name not in header:
            raise DataLoadError(f"{path}: no {name!r} column in the header")
    code_idx = 0
    diag_idx = header.index("diagnostic")
    class_idx = header.index("diagnostic_class")
    mapping = {}
    for row in rows[1:]:
        if len(row) <= class_idx:
            continue
        if row[diag_idx] in ("1", "1.0") and row[class_idx]:
            mapping[row[code_idx]] = row[class_idx]
    return mapping


def _parse_scp_codes(text: Any) -> dict[str, float]:
    try:
        parsed = ast.literal_eval(str(text))
    except (ValueError, SyntaxError, TypeError):  # TypeError: an unhashable key, as in {[1]: 2}
        return {}
    return parsed if isinstance(parsed, dict) else {}


def load_ptbxl(root: str) -> Dataset:
    """Load PTB-XL (or a synthetic stand-in with the same layout) from root.

    Adds an is_norm target column (1.0 when the record carries the NORM
    diagnostic superclass), used for the class-imbalance recipe and the
    default age-to-target correlation, and a superclasses annotation column
    holding each record's diagnostic superclasses as a sorted tuple.
    """
    table = os.path.join(root, "ptbxl_database.csv")
    if not os.path.isfile(table):
        raise PtbxlNotFound(f"PTB-XL data not found: {table} does not exist")
    if not os.path.isfile(os.path.join(root, "scp_statements.csv")):
        raise PtbxlNotFound(f"PTB-XL data not found: scp_statements.csv missing in {root}")
    doc: dict[str, Any] = {
        "dataset_id": "ptbxl",
        "table": {"path": "ptbxl_database.csv", "delimiter": ","},
        "columns": [
            {"name": n, "vtype": v, "role": r} for n, v, r in _PTBXL_COLUMNS
        ],
    }
    if os.path.isdir(os.path.join(root, "signals_f32")):
        doc["signals"] = {
            "dir": "signals_f32",
            "format": "f32le",
            "file_column": "ecg_id",
            "pattern": "{value}.f32",
        }
    ds = load_dataset(parse_descriptor(doc, base_dir=root))

    class_map = _read_superclass_map(root)
    scp = ds.codes("scp_codes")  # each distinct statement string is parsed once
    per_code = [tuple(sorted({class_map[c] for c in _parse_scp_codes(text) if c in class_map}))
                for text in scp.categories]
    # a missing scp_codes cell (code -1) reads the appended False
    is_norm = np.array([*("NORM" in classes for classes in per_code), False], float)[scp.codes]

    return Dataset(
        columns=ds.columns + (
            ColumnSpec("is_norm", "numerical", role="target"),
            ColumnSpec("superclasses", "categorical", role="annotation"),
        ),
        cells={**ds.cells, "is_norm": is_norm, "superclasses": Codes(scp.codes, tuple(per_code)).by_value()},
        signals=ds.signals,
        dataset_id=ds.dataset_id,
        dictionaries=ds.dictionaries,
    )


def superclass_counts(ds: Dataset) -> dict[str, float]:
    """Occurrences per diagnostic superclass; a record counts toward each of its own."""
    sets = ds.codes("superclasses")
    acc: dict[str, float] = {}
    for classes, n in zip(sets.categories, sets.counts().tolist()):
        for cls in classes:
            acc[cls] = acc.get(cls, 0.0) + n
    return acc


# --- stratified subset recipes ------------------------------------------------


def _natural(recipe: Mapping[str, Any], key: str) -> int:
    """recipe[key] as an integer >= 0, cast as strictly as registry.integer."""
    try:
        n = _registry.integer(recipe.get(key))
    except TypeError:
        n = -1
    if n < 0:
        raise HarnessError(f"recipe field {key!r} must be an integer >= 0, got {recipe.get(key)!r}")
    return n


def _matches(ds: Dataset, recipe: Mapping[str, Any], default: str | None, label: str) -> np.ndarray:
    """A bool per record: the str of its cell in recipe["column"] (default
    when absent) equals label. Each category's str is built once; a missing
    cell matches no label."""
    try:
        labels = Codes.of(ds.array(recipe.get("column", default)))
    except DataModelError as exc:
        raise HarnessError(f"recipe field 'column': {exc}") from None
    return np.array([*(str(c) == label for c in labels.categories), False])[labels.codes]


def _draw(recipe: Mapping[str, Any], *strata: tuple[str, list[int]]) -> list[int]:
    """Sorted seeded draws without replacement: recipe["n_<name>"] records per stratum."""
    counts = [_natural(recipe, f"n_{name}") for name, _ in strata]
    rng = np.random.default_rng(None if recipe.get("seed") is None else _natural(recipe, "seed"))
    picked: list[int] = []
    for (name, indices), n in zip(strata, counts):
        if n > len(indices):
            raise HarnessError(
                f"recipe requests {n} records from stratum {name!r} but only {len(indices)} exist"
            )
        picked += [indices[int(i)] for i in rng.choice(len(indices), size=n, replace=False)]
    return sorted(picked)


def apply_recipe(ds: Dataset, recipe: Mapping[str, Any]) -> list[int]:
    """Row indices of a stratified subset of ds.

    Cells and labels are compared as strings; a missing cell matches no
    label. A malformed recipe raises HarnessError naming the field.
    """
    kind = recipe.get("kind")
    if kind == "sex_imbalance":
        male = _matches(ds, recipe, "sex", str(recipe.get("male_label", "0")))
        female = _matches(ds, recipe, "sex", str(recipe.get("female_label", "1")))
        return _draw(recipe, ("male", np.flatnonzero(male).tolist()), ("female", np.flatnonzero(female).tolist()))
    if kind == "device_filter":
        if "device_id" not in recipe:
            raise HarnessError("recipe field 'device_id' is required")
        wanted = str(recipe["device_id"])
        idx = np.flatnonzero(_matches(ds, recipe, "device", wanted)).tolist()
        if not idx:
            raise HarnessError(f"device {wanted!r} matches no records")
        return idx
    if kind == "class_imbalance":
        norm = _matches(ds, recipe, ds.role_column("target"), str(recipe.get("norm_label", "NORM")))
        return _draw(recipe, ("norm", np.flatnonzero(norm).tolist()), ("other", np.flatnonzero(~norm).tolist()))
    raise HarnessError(f"unknown recipe kind {kind!r}")


def default_recipes(ds: Dataset, seed: int | None) -> list[dict[str, Any]]:
    """The three case-study recipes, scaled down for miniature datasets."""
    n = ds.n_records
    half = 5000 if n >= 10000 else max(20, n // 2)
    devices = ds.codes("device")
    device_counts = dict(zip(map(str, devices.categories), devices.counts().tolist()))
    if "CS-12" in device_counts:
        device = "CS-12"
    else:
        device = max(sorted(device_counts), key=lambda d: device_counts[d])
    n_norm = max(2, round(0.05 * half))
    return [
        {
            "kind": "sex_imbalance",
            "n_male": round(0.8 * half),
            "n_female": round(0.2 * half),
            "seed": seed,
        },
        {"kind": "device_filter", "device_id": device},
        {"kind": "class_imbalance", "column": "is_norm", "norm_label": 1.0,
         "n_norm": n_norm, "n_other": half - n_norm, "seed": seed},
    ]


# --- table rows ----------------------------------------------------------------


def harness_rows(
    ds: Dataset,
    seed: int | None = None,
    now: float | None = None,
    entropy_max_records: int = 100,
    entropy_max_samples: int = 500,
) -> list[dict[str, Any]]:
    """The 16 result rows of the case-study table, in its dimension order."""
    meta_cols = list(ds.feature_columns())
    has_signals = ds.signals is not None
    rows: list[dict[str, Any]] = []

    def ev(metric_id: str, dimension: str, params: dict[str, Any]) -> None:
        rows.append(evaluate_row(ds, metric_id, dimension, params=params, seed=seed))

    ev("completeness", "completeness", {"target": "signals", "scope_label": "measurements"})
    ev(
        "completeness",
        "completeness",
        {
            "columns": meta_cols,
            "scope_label": "metadata",
            "assumption": "all 26 metadata columns count toward the denominator",
        },
    )
    ev(
        "patient_level_completeness",
        "completeness",
        {"variable": None if has_signals else "filename_hr", "scope_label": "patients"},
    )
    ev(
        "entropy",
        "accuracy",
        {"max_records": entropy_max_records, "max_samples": entropy_max_samples},
    )
    ev(
        "currency_heinrich",
        "currency",
        {"timestamp_column": "recording_date", "now": now if now is not None else time.time()},
    )

    # the published ratio uses superclass occurrence counts (a record with
    # two superclasses counts toward both), so this row bypasses the registry
    try:
        gir, warns = _registry.captured(lambda: _struct.imbalance_ratio(list(superclass_counts(ds).values())))
        err = None
    except _registry.EvaluationError as exc:
        gir, warns, err = None, (), str(exc)
    rows.append(
        result_entry(
            "generalized_imbalance_ratio",
            "target_class_balance",
            "column:scp_codes",
            {"labeling": "diagnostic superclass occurrence counts"},
            gir,
            warns,
            error=err,
        )
    )

    ev("granularity", "granularity", {})
    ev("sampling_frequency", "granularity", {})
    ev("dataset_size", "dataset_size", {})
    ev("range", "variety", {"column": "age"})
    ev("mean_std", "variety", {"column": "age"})
    ev("hill_numbers", "variety", {"column": "sex", "q": 2})
    ev("hill_numbers", "variety", {"column": "device", "q": 2})
    ev("pearson", "feature_importance", {"column_a": "age", "column_b": "is_norm"})
    ev("prevalence_of_duplicates", "uniqueness", {"keys": meta_cols})
    ev(
        "maximum_mean_discrepancy",
        "homogeneity",
        {"column": "age", "group_column": "sex", "subsample": 2000},
    )
    return rows


def _row_value(rows: Sequence[Mapping], metric_id: str, scope_part: str) -> Any:
    for r in rows:
        if r["metric_id"] == metric_id and scope_part in r["scope"] and "error" not in r:
            return r["value"]
    return None


def harness_checks(report_rows: Sequence[Sequence[Mapping]], real: bool) -> list[dict[str, Any]]:
    """The case-study reproduction checks, as {"check", "passed"} in table order.

    report_rows holds the rows of the original and of the sex-imbalance,
    device-filter and class-imbalance subsets. On the real table (real=True)
    the structurally forced published values are checked exactly and sample
    entropy must rise in the device subset; the three subset directions are
    checked on any table, each skipped when one of its rows is missing or an
    error row.
    """
    orig, sex, device, classes = (partial(_row_value, rows) for rows in report_rows)
    checks: list[tuple[str, bool]] = []
    if real:
        dup = orig("prevalence_of_duplicates", "global")
        hill_dev = orig("hill_numbers", "column:device")
        checks += [
            (f"dataset size == {_REAL_SIZE}", orig("dataset_size", "global") == _REAL_SIZE),
            ("granularity == 26 metadata columns", orig("granularity", "global") == 26),
            ("sampling frequency == 500 Hz", orig("sampling_frequency", "signals") in (500, 500.0)),
            ("duplicates == 0", bool(dup) and dup.get("count") == 0),
            ("measurement completeness == 100%", orig("completeness", "measurements") == 1.0),
            ("Hill(device) == 5.59 +/- 0.01", hill_dev is not None and abs(hill_dev - 5.59) <= 0.01),
        ]
        ent = orig("entropy", "global"), device("entropy", "global")
        if None not in ent:
            checks.append(("entropy rises in the device subset", ent[1] > ent[0]))
    hill_sex = orig("hill_numbers", "column:sex"), sex("hill_numbers", "column:sex")
    if None not in hill_sex:
        checks.append(("Hill(sex) decreases in the sex-imbalance subset", hill_sex[1] < hill_sex[0]))
    hill_dev_subset = device("hill_numbers", "column:device")
    if hill_dev_subset is not None:
        checks.append(("Hill(device) == 1.00 in the device subset", abs(hill_dev_subset - 1.0) < 1e-9))
    gir = [report("generalized_imbalance_ratio", "column:scp_codes") for report in (orig, classes)]
    if None not in gir:
        checks.append(("imbalance ratio increases in the class-imbalance subset", gir[1] > gir[0]))
    return [{"check": message, "passed": bool(ok)} for message, ok in checks]


def run_harness(
    root: str,
    seed: int | None = 0,
    now: float | None = None,
    entropy_max_records: int = 100,
    entropy_max_samples: int = 500,
) -> dict[str, Any]:
    """Evaluate the case-study table on the original data and 3 subsets.

    "checks" lists every check of harness_checks, none of which raises;
    "real_data" tells whether the root is the real table (21837 records).
    """
    original = load_ptbxl(root)
    recipes = default_recipes(original, seed)
    names = ("original", "subset_sex_imbalance", "subset_device_filter", "subset_class_imbalance")
    datasets = [original]
    subset_indices = []
    for name, recipe in zip(names[1:], recipes):
        idx = apply_recipe(original, recipe)
        subset_indices.append(idx)
        datasets.append(take_records(original, idx, dataset_id=name))

    sel = _selection.select_all(PTBXL_PROFILE)
    rationale = _selection.rationale_document(sel, params={"seed": seed})
    reports = []
    all_rows = []
    for name, ds in zip(names, datasets):
        rows = harness_rows(
            ds,
            seed=seed,
            now=now,
            entropy_max_records=entropy_max_records,
            entropy_max_samples=entropy_max_samples,
        )
        all_rows.append(rows)
        reports.append(build_report(name, PTBXL_PROFILE, rationale, rows, seed=seed))

    is_real = original.n_records == _REAL_SIZE
    return {
        "reports": reports,
        "checks": harness_checks(all_rows, is_real),
        "subset_indices": subset_indices,
        "markdown": render_harness_markdown(reports),
        "real_data": is_real,
    }


def render_harness_markdown(reports: list[Mapping[str, Any]]) -> str:
    """One grid: 16 metric rows, one value column per dataset."""
    rows = zip(*(rep["results"] for rep in reports))  # one metric row of every report at a time
    return report_table([r["dataset_id"] for r in reports], ((same[0], map(result_cell, same)) for same in rows))


# --- synthetic miniature stand-in ----------------------------------------------

_DEMO_CODES = (
    ("NORM", "NORM"),
    ("IMI", "MI"),
    ("ASMI", "MI"),
    ("NDT", "STTC"),
    ("LAFB", "CD"),
    ("LVH", "HYP"),
)


def write_demo_root(root: str, n_records: int = 400, seed: int = 0) -> None:
    """Write a miniature synthetic dataset in the PTB-XL directory layout.

    Shapes only: same columns, same file formats, same strata, a few
    hundred records with 2-lead signals. Values bear no relation to the
    real dataset.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(root, "signals_f32"), exist_ok=True)

    with open(os.path.join(root, "scp_statements.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", "description", "diagnostic", "diagnostic_class"])
        for code, cls in _DEMO_CODES:
            writer.writerow([code, f"demo {code}", "1.0", cls])

    header = [name for name, _, _ in _PTBXL_COLUMNS]
    superclass_probs = {"NORM": 0.45, "MI": 0.2, "STTC": 0.15, "CD": 0.12, "HYP": 0.08}
    codes_by_class: dict[str, list[str]] = {}
    for code, cls in _DEMO_CODES:
        codes_by_class.setdefault(cls, []).append(code)
    devices = ["AT-6", "AT-60", "CS-12", "CS-100", "AT-5", "EC-10"]
    device_p = [0.28, 0.24, 0.2, 0.12, 0.1, 0.06]
    base_ts = 613724400.0  # 1989-06-12, start of the recording era

    n_patients = max(2, int(n_records * 0.9))
    with open(os.path.join(root, "ptbxl_database.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(1, n_records + 1):
            cls = str(rng.choice(list(superclass_probs), p=list(superclass_probs.values())))
            code = codes_by_class[cls][int(rng.integers(len(codes_by_class[cls])))]
            scp = "{'%s': 100.0}" % code
            age = float(np.clip(rng.normal(62.0, 16.0), 2, 95))
            row = {
                "ecg_id": str(i),
                "patient_id": str(1 + int(rng.integers(n_patients))),
                "age": "" if rng.random() < 0.03 else f"{age:.1f}",
                "sex": "0" if rng.random() < 0.52 else "1",
                "height": "" if rng.random() < 0.6 else f"{rng.normal(170, 10):.0f}",
                "weight": "" if rng.random() < 0.55 else f"{rng.normal(76, 14):.0f}",
                "nurse": "" if rng.random() < 0.2 else str(int(rng.integers(1, 5))),
                "site": str(int(rng.integers(1, 4))),
                "device": str(rng.choice(devices, p=device_p)),
                "recording_date": _demo_date(base_ts, rng),
                "report": "" if rng.random() < 0.3 else "sinusrhythmus normales ekg",
                "scp_codes": scp,
                "heart_axis": "" if rng.random() < 0.7 else "MID",
                "infarction_stadium1": "" if rng.random() < 0.8 else "unknown",
                "infarction_stadium2": "",
                "validated_by": "" if rng.random() < 0.5 else str(int(rng.integers(1, 9))),
                "second_opinion": "False",
                "initial_autogenerated_report": "True",
                "validated_by_human": "True" if rng.random() < 0.8 else "False",
                "baseline_drift": "",
                "static_noise": "" if rng.random() < 0.9 else ", alles",
                "burst_noise": "",
                "electrodes_problems": "",
                "extra_beats": "" if rng.random() < 0.95 else "1ES",
                "pacemaker": "",
                "strat_fold": str(1 + (i % 10)),
                "filename_lr": f"records100/{i:05d}_lr",
                "filename_hr": f"records500/{i:05d}_hr",
            }
            writer.writerow([row[h] for h in header])
            _write_demo_signal(os.path.join(root, "signals_f32", f"{i}.f32"), rng)


def _demo_date(base_ts: float, rng: np.random.Generator) -> str:
    from datetime import datetime, timezone

    ts = base_ts + float(rng.integers(0, int(7 * 365.25 * 86400)))
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")


def _write_demo_signal(path: str, rng: np.random.Generator, n_samples: int = 240) -> None:
    t = np.arange(n_samples) / 500.0
    lead1 = 0.6 * np.sin(2 * np.pi * 1.2 * t) + rng.normal(0, 0.25, n_samples)
    lead2 = 0.4 * np.sin(2 * np.pi * 1.2 * t + 0.5) + rng.normal(0, 0.25, n_samples)
    payload = np.stack([lead1, lead2], axis=1).astype("<f4")
    header = {
        "channels": 2,
        "n_samples": n_samples,
        "sampling_hz": 500.0,
        "channel_names": ["I", "II"],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(payload.tobytes())
