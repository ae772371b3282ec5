"""CLI surface: commands, outputs on disk, and the documented exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from dqeval.cli import cli, main
from dqeval.harness import (
    PTBXL_PROFILE,
    apply_recipe,
    default_recipes,
    harness_rows,
    load_ptbxl,
    write_demo_root,
)
from dqeval.registry import render_card
from dqeval.report import load_dataset, read_descriptor
from tests.conftest import cells_of

runner = CliRunner()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Descriptor for a small generic table with a target and timestamps."""
    root = tmp_path_factory.mktemp("cli_data")
    rows = ["rid,age,sex,label,stamp"]
    labels = ["a"] * 4 + ["b"] * 8
    sexes = ["m", "f"] * 6
    for i in range(12):
        rows.append(f"r{i},{20 + 5 * i},{sexes[i]},{labels[i]},{1000 + 10 * i}")
    (root / "table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = {
        "dataset_id": "generic",
        "table": {"path": "table.csv"},
        "columns": [
            {"name": "rid", "vtype": "identifier"},
            {"name": "age", "vtype": "numerical"},
            {"name": "sex", "vtype": "categorical"},
            {"name": "label", "vtype": "categorical", "role": "target"},
            {"name": "stamp", "vtype": "datetime", "role": "timestamp"},
        ],
    }
    (root / "descriptor.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def descriptor(data_dir):
    return str(data_dir / "descriptor.json")


# --- cards ---------------------------------------------------------------------


def test_cards_list_prints_all_sixty():
    res = runner.invoke(cli, ["cards", "list"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 60
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_cards_list_filters():
    res = runner.invoke(cli, ["cards", "list", "--group", "timeliness"])
    ids = [line.split("\t")[0] for line in res.stdout.strip().splitlines()]
    assert ids == ["currency_ballou", "currency_li", "currency_hinrichs", "currency_heinrich"]
    res = runner.invoke(cli, ["cards", "list", "--dim", "prettiness"])
    assert res.exit_code != 0
    assert "unknown dimension" in res.stderr


def test_cards_show_renders_both_formats():
    res = runner.invoke(cli, ["cards", "show", "entropy"])
    assert res.exit_code == 0
    assert res.stdout == render_card("entropy")
    res = runner.invoke(cli, ["cards", "show", "entropy", "--format", "json"])
    assert json.loads(res.stdout)["id"] == "entropy"


def test_cards_export_writes_one_file_per_card(tmp_path):
    out = tmp_path / "cards_md"
    res = runner.invoke(cli, ["cards", "export", "--out", str(out)])
    assert res.exit_code == 0
    assert f"wrote 60 cards to {out}" in res.stdout
    files = sorted(os.listdir(out))
    assert len(files) == 60
    assert (out / "entropy.md").read_text(encoding="utf-8") == render_card("entropy")
    res = runner.invoke(cli, ["cards", "export", "--format", "json", "--out", str(tmp_path / "cards_json")])
    assert res.exit_code == 0
    assert len(os.listdir(tmp_path / "cards_json")) == 60


# --- select --------------------------------------------------------------------


def test_select_with_profile_file(tmp_path):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(PTBXL_PROFILE), encoding="utf-8")
    out = tmp_path / "selection.json"
    res = runner.invoke(cli, ["--seed", "7", "select", "--profile", str(profile_path), "--out", str(out)])
    assert res.exit_code == 0
    assert "selected 22 metrics across 14 dimensions" in res.stdout
    assert "distribution_drift: unanswered drift_focus" in res.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["profile"] == PTBXL_PROFILE
    assert doc["parameters"] == {"mode": "partial", "seed": 7}
    assert len(doc["selections"]) == 14


def test_select_strict_mode_names_the_blocking_question(tmp_path):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"ground_truth": "no"}), encoding="utf-8")
    res = runner.invoke(
        cli, ["select", "--profile", str(profile_path), "--mode", "strict", "--out", str(tmp_path / "s.json")]
    )
    assert res.exit_code != 0
    assert "completeness_interest" in res.stderr


def test_select_needs_exactly_one_source(tmp_path):
    res = runner.invoke(cli, ["select", "--out", str(tmp_path / "s.json")])
    assert res.exit_code != 0
    assert "exactly one of --profile FILE or --interactive" in res.stderr


def test_select_interactive_walks_the_active_paths(tmp_path):
    out = tmp_path / "selection.json"
    answers = [
        "general",              # completeness_interest
        "maybe",                # ground_truth: invalid, re-prompted
        "no",                   # ground_truth
        "no",                   # blank_sample
        "one",                  # annotator_count
        "compare",              # homogeneity:dist_aspect
        "distance",             # homogeneity:comparison_approach
        "",                     # drift_focus skipped
        "time series",          # data_modality
        "single",               # variety:dist_aspect
        "numerical",            # variety:variable_type
        "classification",       # ml_task
        "general estimation",   # balance_focus
        "no",                   # expiration_date
        "no",                   # update_frequency_known
        "fully identical",      # identicality
        "MCAR",                 # missingness_mechanism
        "numerical",            # feature_importance:data_type
        "two",                  # feature_importance:repeated_measurement_count
    ]
    res = runner.invoke(cli, ["select", "--interactive", "--out", str(out)], input="\n".join(answers) + "\n")
    assert res.exit_code == 0
    assert "please answer with one of" in res.stdout
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["profile"] == {
        "completeness_interest": "general",
        "ground_truth": "no",
        "blank_sample": "no",
        "annotator_count": "one",
        "homogeneity:dist_aspect": "compare",
        "homogeneity:comparison_approach": "distance",
        "data_modality": "time series",
        "variety:dist_aspect": "single",
        "variety:variable_type": "numerical",
        "ml_task": "classification",
        "balance_focus": "general estimation",
        "expiration_date": "no",
        "update_frequency_known": "no",
        "identicality": "fully identical",
        "missingness_mechanism": "MCAR",
        "feature_importance:data_type": "numerical",
        "feature_importance:repeated_measurement_count": "two",
    }


# --- evaluate ------------------------------------------------------------------


def _selection_doc(tmp_path, selections):
    path = tmp_path / "selection.json"
    path.write_text(json.dumps({"profile": {}, "selections": selections}), encoding="utf-8")
    return str(path)


def test_evaluate_writes_report_and_counts_failures(tmp_path, descriptor):
    sel = _selection_doc(
        tmp_path,
        [
            {"dimension": "variety", "metrics": ["range", "hill_numbers"]},
            {"dimension": "dataset_size", "metrics": ["dataset_size"]},
            {"dimension": "feature_importance", "metrics": ["pearson"]},
        ],
    )
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"range": {"column": "age"}, "hill_numbers": {"column": "sex"}}))
    out = tmp_path / "report.json"
    md = tmp_path / "report.md"
    res = runner.invoke(
        cli,
        ["--seed", "9", "evaluate", "--data", descriptor, "--selection", sel,
         "--params", str(params), "--out", str(out), "--markdown", str(md)],
    )
    assert res.exit_code == 0
    assert f"wrote {out}: 4 results, 1 recorded failures" in res.stdout
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["dataset_id"] == "generic"
    assert report["environment"]["seed"] == 9
    values = {(r["metric_id"], r["scope"]): r for r in report["results"]}
    assert values[("range", "column:age")]["value"] == 55.0
    assert values[("dataset_size", "global")]["value"] == 12
    assert "error" in values[("pearson", "unresolved")]
    assert md.read_text(encoding="utf-8").startswith("# Data quality report: generic")


def test_evaluate_accepts_explicit_row_plans(tmp_path, descriptor):
    sel = _selection_doc(tmp_path, [])
    params = tmp_path / "rows.json"
    params.write_text(
        json.dumps({"rows": [{"metric_id": "range", "dimension": "variety", "params": {"column": "age"}}]})
    )
    out = tmp_path / "report.json"
    res = runner.invoke(
        cli, ["evaluate", "--data", descriptor, "--selection", sel, "--params", str(params), "--out", str(out)]
    )
    assert res.exit_code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [r["metric_id"] for r in report["results"]] == ["range"]


def test_evaluate_records_an_unknown_column_as_an_error_row(tmp_path, descriptor):
    sel = _selection_doc(tmp_path, [{"dimension": "variety", "metrics": ["range"]}])
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"range": {"column": "nope"}}))
    out = tmp_path / "report.json"
    res = runner.invoke(
        cli,
        ["evaluate", "--data", descriptor, "--selection", sel,
         "--params", str(params), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    (row,) = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert row["metric_id"] == "range"
    assert "nope" in row["error"]


@pytest.mark.parametrize(
    "lines, dimension, metric_id, params, message",
    [
        (["x,g", "3,a", "3,b", "3,a"], "homogeneity", "anderson_darling_k", {"column": "x", "group_column": "g"},
         "anderson_darling_k needs more than one distinct value"),
        (["x,g", "1,a", "2,b"], "homogeneity", "anderson_darling_k", {"column": "x", "group_column": "g"},
         "anderson_darling_k needs at least 3 observations in total"),
        (["x,g"], "completeness", "completeness", {"target": "signals"}, "completeness of signals needs at least one record"),
    ],
    ids=["anderson-constant", "anderson-two-observations", "signal-completeness-no-record"],
)
def test_evaluate_records_a_degenerate_input_as_an_error_row(
    tmp_path, capsys, lines, dimension, metric_id, params, message
):
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "sig").mkdir()
    descriptor = tmp_path / "descriptor.json"
    descriptor.write_text(json.dumps({
        "table": {"path": "table.csv"},
        "columns": [{"name": "x", "vtype": "numerical"}, {"name": "g", "vtype": "categorical"}],
        "signals": {"dir": "sig", "format": "f32le", "file_column": "x", "pattern": "{value}.f32"},
    }), encoding="utf-8")
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({metric_id: params}), encoding="utf-8")
    out = tmp_path / "report.json"
    sel = _selection_doc(tmp_path, [{"dimension": dimension, "metrics": [metric_id]}])
    argv = ["evaluate", "--data", str(descriptor), "--selection", sel, "--params", str(params_file), "--out", str(out)]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    (row,) = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert (row["metric_id"], row["error"]) == (metric_id, message)


def test_evaluate_missing_data_is_a_load_error(tmp_path, capsys):
    sel = _selection_doc(tmp_path, [])
    code = main(["evaluate", "--data", str(tmp_path / "none.json"), "--selection", sel,
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "data load error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "descriptor must be a JSON object"),
        ({"table": {"path": "table.csv"}, "columns": 5}, "descriptor columns must be a JSON list"),
        ({"table": {"path": "table.csv"}, "columns": [["rid"]]},
         "descriptor column entry must be a JSON object"),
        ({"table": {"path": "table.csv"}, "columns": [{"name": "age", "vtype": "numeric"}]},
         "descriptor column 'age': unknown vtype 'numeric'"),
        ({"table": "t.csv", "columns": []}, "descriptor table must be a JSON object, not str"),
        ({"table": {}, "columns": []}, "descriptor misses required field 'path'"),
        ({"table": {"path": "table.csv"}, "columns": [], "signals": {"file_column": "id"}},
         "descriptor misses required field 'dir'"),
        ({"table": {"path": "table.csv"}, "columns": [], "signals": ["x"]},
         "descriptor signals must be a JSON object, not list"),
    ],
    ids=[
        "not-an-object", "columns-not-a-list", "column-not-an-object", "unknown-vtype",
        "table-not-an-object", "table-without-path", "signals-without-dir",
        "signals-not-an-object",
    ],
)
def test_evaluate_malformed_descriptor_is_a_load_error(tmp_path, capsys, doc, message):
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["evaluate", "--data", str(path), "--selection", _selection_doc(tmp_path, []),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data load error: {path}: {message}" in err
    assert "Traceback" not in err


# --- subset and compare ----------------------------------------------------------


def test_subset_class_imbalance_chain(tmp_path, descriptor):
    out_dir = tmp_path / "subset"
    recipe = {"kind": "class_imbalance", "n_norm": 2, "n_other": 3, "seed": 1, "norm_label": "a"}
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe), encoding="utf-8")
    res = runner.invoke(cli, ["subset", "--data", descriptor, "--recipe", str(recipe_path), "--out", str(out_dir)])
    assert res.exit_code == 0
    assert "subset: 5 records" in res.stdout
    indices = json.loads((out_dir / "indices.json").read_text(encoding="utf-8"))
    assert len(indices) == 5
    ds = load_dataset(read_descriptor(str(out_dir / "descriptor.json")))
    assert ds.n_records == 5
    assert ds.dataset_id == "generic[class_imbalance]"
    labels = ds.codes("label")
    assert dict(zip(labels.categories, labels.counts()))["a"] == 2


def test_subset_accepts_inline_recipes_and_global_seed(tmp_path, descriptor):
    out_dir = tmp_path / "subset_sex"
    recipe = '{"kind": "sex_imbalance", "column": "sex", "male_label": "m", "female_label": "f", "n_male": 3, "n_female": 1}'
    res = runner.invoke(cli, ["--seed", "2", "subset", "--data", descriptor, "--recipe", recipe, "--out", str(out_dir)])
    assert res.exit_code == 0
    ds = load_dataset(read_descriptor(str(out_dir / "descriptor.json")))
    sex = ds.codes("sex")
    assert dict(zip(sex.categories, sex.counts())) == {"m": 3, "f": 1}


def test_subset_keeps_the_dictionaries_of_a_table_in_a_subdirectory(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "table.csv").write_text("rid,code\nr1,A\nr2,B\n", encoding="utf-8")
    (tmp_path / "sub" / "codes.txt").write_text("A\nB\n", encoding="utf-8")
    (tmp_path / "codes.txt").write_text("A\n", encoding="utf-8")
    doc = {
        "table": {"path": "sub/table.csv"},
        "columns": [{"name": "rid", "vtype": "identifier"}, {"name": "code", "vtype": "categorical"}],
        "dictionaries": {"code": "codes.txt"},
    }
    (tmp_path / "descriptor.json").write_text(json.dumps(doc), encoding="utf-8")
    recipe = '{"kind": "device_filter", "column": "code", "device_id": "A"}'
    assert main(["subset", "--data", str(tmp_path / "descriptor.json"), "--recipe", recipe,
                 "--out", str(tmp_path / "s")]) == 0
    parent = load_dataset(read_descriptor(str(tmp_path / "descriptor.json")))
    subset = load_dataset(read_descriptor(str(tmp_path / "s" / "descriptor.json")))
    assert subset.dictionaries == parent.dictionaries == {"code": frozenset({"A", "B"})}


def test_subset_insufficient_stratum_is_a_usage_error(tmp_path, descriptor):
    recipe = '{"kind": "class_imbalance", "n_norm": 100, "n_other": 1, "seed": 0, "norm_label": "a"}'
    res = runner.invoke(cli, ["subset", "--data", descriptor, "--recipe", recipe, "--out", str(tmp_path / "x")])
    assert res.exit_code != 0
    assert "only 4 exist" in res.stderr


def test_compare_reports_deltas(tmp_path, data_dir, descriptor):
    other = tmp_path / "other"
    other.mkdir()
    table = (data_dir / "table.csv").read_text(encoding="utf-8").replace("r11,75", "r11,175")
    (other / "table.csv").write_text(table, encoding="utf-8")
    doc = json.loads((data_dir / "descriptor.json").read_text(encoding="utf-8"))
    doc["dataset_id"] = "shifted"
    (other / "descriptor.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "cmp.json"
    res = runner.invoke(
        cli,
        ["compare", "--data", descriptor, "--data", str(other / "descriptor.json"),
         "--metrics", "range,dataset_size", "--params", json_params(tmp_path, {"range": {"column": "age"}}),
         "--out", str(out)],
    )
    assert res.exit_code == 0
    assert "| generic | shifted | Delta |" in res.stdout.splitlines()[0]
    assert "| 55.00 | 155 | 100 |" in res.stdout
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert saved["pairs"][0]["delta"] == 100.0


def json_params(tmp_path, mapping):
    path = tmp_path / "cmp_params.json"
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


def test_compare_rejects_schema_mismatch(tmp_path, data_dir, descriptor):
    other = tmp_path / "badschema"
    other.mkdir()
    (other / "table.csv").write_text((data_dir / "table.csv").read_text(encoding="utf-8"), encoding="utf-8")
    doc = json.loads((data_dir / "descriptor.json").read_text(encoding="utf-8"))
    doc["columns"][1]["vtype"] = "categorical"
    (other / "descriptor.json").write_text(json.dumps(doc), encoding="utf-8")
    res = runner.invoke(
        cli, ["compare", "--data", descriptor, "--data", str(other / "descriptor.json"), "--metrics", "dataset_size"]
    )
    assert res.exit_code != 0
    assert "schema mismatch at column 'age'" in res.stderr


def test_compare_needs_two_datasets(descriptor):
    res = runner.invoke(cli, ["compare", "--data", descriptor, "--metrics", "dataset_size"])
    assert res.exit_code != 0
    assert "exactly two" in res.stderr


# --- harness and exit codes -------------------------------------------------------


def test_harness_command_writes_reports(tmp_path, demo_root):
    out_dir = tmp_path / "harness"
    res = runner.invoke(
        cli,
        ["--seed", "1", "ptbxl-harness", "--root", demo_root, "--now", "2e9",
         "--entropy-records", "5", "--entropy-samples", "60", "--out", str(out_dir)],
    )
    assert res.exit_code == 0
    assert res.stdout.startswith("| Dimension | Metric | Scope | original |")
    assert res.stderr.count("check ok:") == 3
    written = sorted(os.listdir(out_dir))
    assert written == [
        "original.json", "subset_class_imbalance.json", "subset_device_filter.json",
        "subset_sex_imbalance.json", "table.md",
    ]


def test_harness_without_data_skips(tmp_path, capsys):
    code = main(["ptbxl-harness", "--root", str(tmp_path / "nothing")])
    assert code == 0
    assert "skipped: PTB-XL data not found" in capsys.readouterr().out


def _rewrite_csv(path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


HARNESS_CAPS = ["--entropy-records", "5", "--entropy-samples", "60"]


def test_harness_on_an_empty_statements_file_is_a_load_error(tmp_path, capsys):
    root = tmp_path / "root"
    write_demo_root(str(root), 30)
    (root / "scp_statements.csv").write_bytes(b"")
    assert main(["ptbxl-harness", "--root", str(root), "--now", "2e9", *HARNESS_CAPS]) == 2
    assert "scp_statements.csv: empty file" in capsys.readouterr().err.partition("data load error: ")[2]


def test_harness_skips_a_statements_row_shorter_than_its_header(tmp_path):
    root = tmp_path / "root"
    write_demo_root(str(root), 30)
    before = cells_of(load_ptbxl(str(root)), "superclasses")
    _rewrite_csv(root / "scp_statements.csv", lambda rows: rows.insert(1, ["NORM", "demo NORM", "1.0"]))
    assert cells_of(load_ptbxl(str(root)), "superclasses") == before


def test_harness_device_filter_without_cs12_takes_the_most_frequent_device(tmp_path):
    root = tmp_path / "root"
    write_demo_root(str(root), 30)

    def no_cs12(rows):
        column = rows[0].index("device")
        for i, row in enumerate(rows[1:]):
            row[column] = "EC-10" if i % 3 == 0 else "AT-60"

    _rewrite_csv(root / "ptbxl_database.csv", no_cs12)
    assert default_recipes(load_ptbxl(str(root)), seed=0)[1] == {"kind": "device_filter", "device_id": "AT-60"}


def test_harness_imbalance_ratio_without_any_diagnostic_superclass_is_an_error_row(tmp_path):
    root = tmp_path / "root"
    write_demo_root(str(root), 30)

    def not_diagnostic(rows):
        for row in rows[1:]:
            row[rows[0].index("diagnostic")] = "0.0"

    _rewrite_csv(root / "scp_statements.csv", not_diagnostic)
    ds = load_ptbxl(str(root))
    assert set(cells_of(ds, "superclasses")) == {()}
    rows = harness_rows(ds, seed=0, now=2e9, entropy_max_records=2, entropy_max_samples=60)
    (row,) = [r for r in rows if r["metric_id"] == "generalized_imbalance_ratio"]
    assert row == {
        "metric_id": "generalized_imbalance_ratio",
        "dimension": "target_class_balance",
        "scope": "column:scp_codes",
        "params": {"labeling": "diagnostic superclass occurrence counts"},
        "value": None,
        "warnings": [],
        "error": "imbalance_ratio requires at least one class",
    }


def test_harness_on_statements_without_a_diagnostic_column_is_a_load_error(tmp_path, capsys):
    root = tmp_path / "root"
    write_demo_root(str(root), 200)

    def drop_diagnostic(rows):
        for row in rows:
            del row[2]

    _rewrite_csv(root / "scp_statements.csv", drop_diagnostic)
    assert main(["ptbxl-harness", "--root", str(root), "--now", "2e9", *HARNESS_CAPS]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"data load error: {root / 'scp_statements.csv'}: no 'diagnostic' column in the header" in err


def test_harness_on_statements_that_are_not_utf8_is_a_load_error(tmp_path, capsys):
    root = tmp_path / "root"
    write_demo_root(str(root), 200)
    (root / "scp_statements.csv").write_bytes(b"\xff\xfe,diagnostic,diagnostic_class\n")
    assert main(["ptbxl-harness", "--root", str(root), "--now", "2e9", *HARNESS_CAPS]) == 2
    assert "not a UTF-8 CSV file" in capsys.readouterr().err.partition("data load error: ")[2]


def test_harness_reads_an_scp_codes_cell_with_an_unhashable_key_as_no_superclass(tmp_path, capsys):
    root = tmp_path / "root"
    write_demo_root(str(root), 200)

    def corrupt(rows):
        rows[1][rows[0].index("scp_codes")] = "{[1]: 2}"

    _rewrite_csv(root / "ptbxl_database.csv", corrupt)
    assert main(["ptbxl-harness", "--root", str(root), "--now", "2e9", *HARNESS_CAPS]) == 0
    assert cells_of(load_ptbxl(str(root)), "superclasses")[0] == ()


def test_harness_check_failure_names_the_check_once(tmp_path, demo_root, capsys, monkeypatch):
    # taken for the real table, the demo root misses the published Hill(device)
    monkeypatch.setattr("dqeval.harness._REAL_SIZE", load_ptbxl(demo_root).n_records)
    out_dir = tmp_path / "harness"
    argv = ["--seed", "1", "ptbxl-harness", "--root", demo_root, "--now", "2e9", *HARNESS_CAPS, "--out", str(out_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    checks = [line for line in err.splitlines() if line.startswith("check ")]
    failed = [line.removeprefix("check FAILED: ") for line in checks if line.startswith("check FAILED: ")]
    assert len(checks) == 10 and "Hill(device) == 5.59 +/- 0.01" in failed
    assert all(err.count(message) == 1 for message in failed)
    assert err.endswith(f"Error: {len(failed)} of 10 reproduction checks failed on the real table\n")
    assert sorted(os.listdir(out_dir)) == [
        "original.json", "subset_class_imbalance.json", "subset_device_filter.json",
        "subset_sex_imbalance.json", "table.md",
    ]


@pytest.mark.parametrize("n_records, root_seed", [(n, s) for n in (80, 200) for s in range(5)])
def test_harness_exits_0_on_demo_roots_whatever_their_directions(tmp_path, capsys, n_records, root_seed):
    # 14 of these 40 runs print a failed imbalance-ratio direction: on a
    # synthetic root a check is shown, never enforced
    root = str(tmp_path / "root")
    write_demo_root(root, n_records=n_records, seed=root_seed)
    for seed in range(4):
        argv = ["--seed", str(seed), "ptbxl-harness", "--root", root, "--now", "2e9",
                "--entropy-records", "5", "--entropy-samples", "100"]
        assert main(argv) == 0
        checks = [line for line in capsys.readouterr().err.splitlines() if line.startswith("check ")]
        assert len(checks) >= 3


@pytest.mark.parametrize(
    "command, written, message",
    [
        ("compare", "{not json", "cannot read params"),
        ("subset", "[1]", "recipe must be a JSON object"),
        ("evaluate", '{"rows": [{"dimension": "variety"}]}', "params rows must be a list"),
        # NaN and Infinity are not JSON, although Python's json reads them
        ("evaluate", '{"hill_numbers": {"column": "sex", "q": NaN}}', "cannot read params"),
        ("compare", '{"range": {"column": "age", "scale": Infinity}}', "cannot read params"),
        ("subset", '{"kind": "class_imbalance", "n_norm": -Infinity}', "recipe is not valid JSON"),
    ],
)
def test_malformed_json_inputs_are_usage_errors(tmp_path, capsys, descriptor, command, written, message):
    given = tmp_path / "given.json"
    given.write_text(written, encoding="utf-8")
    argv = {
        "compare": ["compare", "--data", descriptor, "--data", descriptor,
                    "--metrics", "dataset_size", "--params", str(given)],
        "subset": ["subset", "--data", descriptor, "--recipe", written, "--out", str(tmp_path / "s")],
        "evaluate": ["evaluate", "--data", descriptor, "--selection", _selection_doc(tmp_path, []),
                     "--params", str(given), "--out", str(tmp_path / "r.json")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"Error: {message}" in err
    assert "Traceback" not in err


def test_nan_in_a_params_file_is_a_usage_error_and_writes_no_report(tmp_path, capsys, descriptor):
    sel = _selection_doc(tmp_path, [{"dimension": "variety", "metrics": ["hill_numbers"]}])
    params = tmp_path / "params.json"
    params.write_text('{"hill_numbers": {"column": "sex", "q": NaN}}', encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--data", descriptor, "--selection", sel, "--params", str(params), "--out", str(out)]
    assert main(argv) == 1
    assert "NaN is not a JSON value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [("evaluate", "cannot read params"), ("subset", "recipe is not valid JSON")],
)
def test_input_files_that_are_not_utf8_are_usage_errors(tmp_path, capsys, descriptor, command, message):
    given = tmp_path / "given.json"
    given.write_bytes(b"\xff\xfe{}")
    argv = {
        "evaluate": ["evaluate", "--data", descriptor, "--selection", _selection_doc(tmp_path, []),
                     "--params", str(given), "--out", str(tmp_path / "r.json")],
        "subset": ["subset", "--data", descriptor, "--recipe", str(given), "--out", str(tmp_path / "s")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"Error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["select", "evaluate", "evaluate-markdown", "subset", "compare", "ptbxl-harness", "cards-export"]
)
def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys, descriptor, demo_root, command):
    (tmp_path / "file").write_text("", encoding="utf-8")
    blocked = tmp_path / "file" / "out"  # under a regular file: no open or makedirs can succeed
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PTBXL_PROFILE), encoding="utf-8")
    evaluate = ["evaluate", "--data", descriptor, "--selection", _selection_doc(tmp_path, [])]
    argv = {
        "select": ["select", "--profile", str(profile), "--out", str(blocked)],
        "evaluate": [*evaluate, "--out", str(blocked)],
        "evaluate-markdown": [*evaluate, "--out", str(tmp_path / "r.json"), "--markdown", str(blocked)],
        "subset": ["subset", "--data", descriptor, "--recipe", '{"kind": "device_filter", "column": "sex",'
                   ' "device_id": "m"}', "--out", str(blocked)],
        "compare": ["compare", "--data", descriptor, "--data", descriptor, "--metrics", "dataset_size",
                    "--out", str(blocked)],
        "ptbxl-harness": ["ptbxl-harness", "--root", demo_root, "--now", "2e9", *HARNESS_CAPS,
                          "--out", str(blocked)],
        "cards-export": ["cards", "export", "--out", str(blocked)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"Error: cannot write {blocked}" in err
    assert "Traceback" not in err


def test_exit_codes(tmp_path, capsys):
    assert main(["cards", "list"]) == 0
    capsys.readouterr()
    assert main(["cards", "show", "made_up_metric"]) == 1
    assert "unknown metric" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("option", ["--entropy-records", "--entropy-samples"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_harness_entropy_caps_below_one_are_usage_errors(tmp_path, demo_root, option, value):
    out_dir = tmp_path / "harness"
    res = runner.invoke(cli, ["ptbxl-harness", "--root", demo_root, "--now", "2e9",
                              option, value, "--out", str(out_dir)])
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.stderr
    assert not out_dir.exists()


def test_select_interactive_strict_mode_stops_at_a_skipped_question(tmp_path):
    out = tmp_path / "selection.json"
    res = runner.invoke(
        cli, ["select", "--interactive", "--mode", "strict", "--out", str(out)], input="general\n\n"
    )
    assert res.exit_code == 2
    assert "question 'ground_truth' is unanswered" in res.stderr
    assert "[noisy_labels]" not in res.stdout
    assert not out.exists()


# --- malformed inputs: an exit code and a message, or an error row, never a traceback

F32 = {"dir": "sig", "format": "f32le", "file_column": "rid", "pattern": "{value}.f32"}
SEX = {"kind": "sex_imbalance", "column": "sex", "male_label": "m", "female_label": "f"}


def _f32(header) -> bytes:
    """An f32le record of two float32 zeros under the given JSON header."""
    return (json.dumps(header) + "\n").encode("utf-8") + bytes(8)


ARGV = {
    "evaluate": ["evaluate", "--data", "descriptor.json", "--selection", "selection.json",
                 "--params", "params.json", "--out", "report.json"],
    "compare": ["compare", "--data", "descriptor.json", "--data", "descriptor.json",
                "--metrics", "range", "--params", "params.json"],
    "subset": ["subset", "--data", "descriptor.json", "--recipe", "recipe.json", "--out", "subset"],
    "select": ["select", "--profile", "profile.json", "--out", "selection.json"],
}

# case -> (command, input files, exit code, message); a file given as a dict
# is JSON (for descriptor.json: fields over the generic descriptor), bytes
# are written as they are; exit code 0 means the report holds an error row
# carrying the message
MALFORMED_INPUTS = {
    "f32-header-without-channels": (
        "evaluate", {"descriptor.json": {"signals": F32}, "sig/r0.f32": _f32({"n_samples": 1, "sampling_hz": 1.0})},
        2, "header misses required field 'channels'"),
    "f32-header-without-n_samples": (
        "evaluate", {"descriptor.json": {"signals": F32}, "sig/r0.f32": _f32({"channels": 2, "sampling_hz": 1.0})},
        2, "header misses required field 'n_samples'"),
    "f32-header-without-sampling_hz": (
        "evaluate", {"descriptor.json": {"signals": F32}, "sig/r0.f32": _f32({"channels": 2, "n_samples": 1})},
        2, "header misses required field 'sampling_hz'"),
    "f32-header-not-an-object": (
        "evaluate", {"descriptor.json": {"signals": F32}, "sig/r0.f32": _f32([1, 2])},
        2, "header is not a JSON object"),
    "signals-file-column-not-a-string": (
        "evaluate", {"descriptor.json": {"signals": {**F32, "file_column": ["rid"]}}},
        2, "signals file_column must be a column name, not ['rid']"),
    "signals-csv-rate-not-a-number": (
        "evaluate", {"descriptor.json": {"signals": {**F32, "format": "csv", "sampling_hz": [1]}}},
        2, "signals sampling_hz must be finite and > 0, got [1]"),
    "signals-pattern-names-another-field": (
        "evaluate", {"descriptor.json": {"signals": {**F32, "pattern": "{rid}.f32"}}},
        2, "signals pattern may name no field but {value}: '{rid}.f32'"),
    **{f"table-delimiter-{case}": (
        "evaluate", {"descriptor.json": {"table": {"path": "table.csv", "delimiter": value}}},
        2, f"table delimiter must be one character, not {value!r}")
       for case, value in (("two-characters", ";;"), ("empty", ""), ("a-number", 5))},
    "dictionary-file-not-utf8": (
        "evaluate", {"descriptor.json": {"dictionaries": {"sex": "words.txt"}}, "words.txt": b"m\n\xff\xfe\n"},
        2, "word list is not UTF-8 text"),
    "dictionary-neither-file-nor-list": (
        "evaluate", {"descriptor.json": {"dictionaries": {"sex": 5}}},
        2, "dictionary of 'sex' must be a file name or a JSON list, not 5"),
    "descriptor-not-utf8": ("evaluate", {"descriptor.json": b"\xff\xfe{}"}, 2, "cannot read descriptor"),
    "row-index-not-utf8": (
        "evaluate", {"descriptor.json": {"row_index": "rows.json"}, "rows.json": b"\xff[0]"},
        2, "cannot read row index"),
    "recipe-without-n_male": ("subset", {"recipe.json": {**SEX, "n_female": 1}}, 1, "'n_male'"),
    "recipe-without-device_id": ("subset", {"recipe.json": {"kind": "device_filter"}}, 1, "'device_id'"),
    "recipe-negative-count": (
        "subset", {"recipe.json": {**SEX, "n_male": -1, "n_female": 1}},
        1, "recipe field 'n_male' must be an integer >= 0, got -1"),
    "recipe-string-count": (
        "subset", {"recipe.json": {**SEX, "n_male": "x", "n_female": 1}},
        1, "recipe field 'n_male' must be an integer >= 0, got 'x'"),
    "recipe-fractional-count": (
        "subset", {"recipe.json": {**SEX, "n_male": 2.7, "n_female": 1}},
        1, "recipe field 'n_male' must be an integer >= 0, got 2.7"),
    "recipe-unknown-column": (
        "subset", {"recipe.json": {"kind": "device_filter", "column": "nope", "device_id": "m"}},
        1, "recipe field 'column': unknown column 'nope'"),
    "rows-unknown-metric": (
        "evaluate", {"params.json": {"rows": [{"metric_id": "made_up", "dimension": "variety"}]}},
        0, "unknown metric 'made_up'"),
    "embeddings-paths-not-strings": (
        "evaluate", {"params.json": {"rows": [{"metric_id": "frechet_inception_distance", "dimension": "homogeneity",
                                               "params": {"embeddings_a": 5, "embeddings_b": 5}}]}},
        0, "[Errno 2] No such file or directory: '5'"),
    "selection-unknown-metric": (
        "evaluate", {"selection.json": {"selections": [{"dimension": "variety", "metrics": ["made_up"]}]}},
        0, "unknown metric 'made_up'"),
    "rows-params-not-an-object": (
        "evaluate", {"params.json": {"rows": [{"metric_id": "range", "params": 5}]}},
        1, "params rows must be a list of objects with a metric_id and object params"),
    "evaluate-params-value-not-an-object": (
        "evaluate", {"params.json": {"range": 5}}, 1, "params of 'range' must be a JSON object"),
    "compare-params-value-not-an-object": (
        "compare", {"params.json": {"range": [1]}}, 1, "params of 'range' must be a JSON object"),
    "selections-not-a-list": (
        "evaluate", {"selection.json": {"selections": {"variety": ["range"]}}},
        1, "selection selections must be a list"),
    "profile-answer-not-a-string": (
        "select", {"profile.json": {"ml_task": 5}},
        1, "answer to 'ml_task' must be a string or list of strings, not 5"),
}


@pytest.mark.parametrize("command, given, code, message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_inputs_end_in_their_exit_code_or_an_error_row(
    tmp_path, monkeypatch, capsys, data_dir, command, given, code, message
):
    (tmp_path / "table.csv").write_text((data_dir / "table.csv").read_text(encoding="utf-8"), encoding="utf-8")
    descriptor = json.loads((data_dir / "descriptor.json").read_text(encoding="utf-8"))
    files = {
        "descriptor.json": descriptor,
        "selection.json": {"profile": {}, "selections": []},
        "params.json": {},
        "recipe.json": {},
        "profile.json": {},
        **given,
    }
    if isinstance(given.get("descriptor.json"), dict):
        files["descriptor.json"] = {**descriptor, **given["descriptor.json"]}
    (tmp_path / "sig").mkdir()
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    assert main(ARGV[command]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        rows = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["results"]
        assert [(r["scope"], r["error"]) for r in rows] == [("unresolved", message)]
    else:
        assert message in err.partition("data load error: " if code == 2 else "Error: ")[2]


def test_subset_draws_the_indices_of_the_harness_engine(tmp_path, demo_root):
    ptbxl = load_ptbxl(demo_root)
    names = ("sex", "device", "is_norm")
    lines = [",".join(names)]
    lines += [",".join("" if v is None else str(v) for v in row)
              for row in zip(*(cells_of(ptbxl, n) for n in names))]
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {
        "table": {"path": "table.csv"},
        "columns": [
            {"name": "sex", "vtype": "categorical"},
            {"name": "device", "vtype": "categorical"},
            {"name": "is_norm", "vtype": "numerical", "role": "target"},
        ],
    }
    (tmp_path / "descriptor.json").write_text(json.dumps(doc), encoding="utf-8")
    recipes = default_recipes(ptbxl, seed=3)
    assert [r["kind"] for r in recipes] == ["sex_imbalance", "device_filter", "class_imbalance"]
    for recipe in recipes:
        out = tmp_path / recipe["kind"]
        argv = ["subset", "--data", str(tmp_path / "descriptor.json"), "--recipe", json.dumps(recipe),
                "--out", str(out)]
        assert main(argv) == 0
        drawn = json.loads((out / "indices.json").read_text(encoding="utf-8"))
        assert drawn == apply_recipe(ptbxl, recipe)
        assert drawn  # a draw that finds nothing would pass vacuously


# --- a report on a PTB-XL-sized table, pinned by digest --------------------------

REALISTIC_ROWS = [
    ("prevalence_of_duplicates", "uniqueness", {}),
    ("prevalence_of_duplicates", "uniqueness", {"keys": ["sex", "nurse", "site", "device", "heart_axis"]}),
    ("kendall_tau", "feature_importance", {"column_a": "height", "column_b": "weight"}),
    ("goodman_kruskal_gamma", "feature_importance", {"column_a": "height", "column_b": "weight"}),
    ("page_hinkley", "distribution_drift", {"column": "age", "direction": "both"}),
    ("page_hinkley", "distribution_drift", {"column": "age", "direction": "both", "lam": 5.0, "alpha": 1.0}),
    ("currency_heinrich", "currency", {"timestamp_column": "recording_date", "now": 1.0e9}),
]
# sha256 of report.json for REALISTIC_ROWS on a 2000-record demo table
REALISTIC_REPORT_SHA256 = "71890cf109032aae87b380488ad35b782f562687663c3ea36eca1ead6449d4f7"


def test_evaluate_on_a_demo_ptbxl_table_matches_the_pinned_digest(tmp_path):
    # pins the datetime decode, duplicate count, concordance counts and
    # drift detector end to end on a table read by the byte reader
    from dqeval.harness import _PTBXL_COLUMNS

    root = tmp_path / "root"
    write_demo_root(str(root), n_records=2000, seed=0)
    doc = {
        "dataset_id": "ptbxl-demo",
        "table": {"path": "ptbxl_database.csv"},
        "columns": [{"name": n, "vtype": v, "role": r} for n, v, r in _PTBXL_COLUMNS],
    }
    (root / "descriptor.json").write_text(json.dumps(doc), encoding="utf-8")
    rows = [{"metric_id": m, "dimension": d, "params": p} for m, d, p in REALISTIC_ROWS]
    (tmp_path / "rows.json").write_text(json.dumps({"rows": rows}), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["--seed", "1", "evaluate", "--data", str(root / "descriptor.json"),
            "--selection", _selection_doc(tmp_path, []), "--params", str(tmp_path / "rows.json"),
            "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [r.get("error") for r in report["results"]] == [None] * len(REALISTIC_ROWS)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REALISTIC_REPORT_SHA256


# --- a two-table comparison at 6 000 rows, pinned by digest ------------------------

TWO_SAMPLE_METRICS = (
    "ks_test", "mann_whitney_u", "anderson_darling_k", "epps_singleton", "wasserstein_distance",
    "energy_distance", "maximum_mean_discrepancy", "cohens_d", "kl_divergence",
    "population_stability_index", "jensen_shannon_divergence", "chi_squared",
)
# sha256 of the comparison report for TWO_SAMPLE_METRICS on the two tables below
DRIFT_COMPARE_SHA256 = "1da9669d3623f1183efa0b6f594bb9570969f695401e48830cd8b62c4fd8349d"


def _write_drift_table(path, seed, shift):
    """6 000 records: group "b" offset by `shift` standard deviations, and a
    few missing or unpadded cells in the numerical column."""
    rng = np.random.default_rng(seed)
    group = np.where(np.arange(6000) % 2 == 0, "a", "b")
    value = [repr(float(v)) for v in rng.normal(0.0, 1.0, 6000) + np.where(group == "b", shift, 0.0)]
    for i, odd in zip(rng.choice(6000, 6, replace=False), ["", "NA", " nan ", " 2.5 ", "0.2_5", "-0.0"]):
        value[i] = odd
    ids = map(str, range(1, 6001))
    lines = ["record_id,group,value", *map(",".join, zip(ids, group.tolist(), value))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_compare_on_two_drift_tables_matches_the_pinned_digest(tmp_path):
    # pins the two-sample kernels, the median-heuristic bandwidth and the
    # numerical decode end to end on tables read by the byte reader
    for label, shift in (("a", 0.0), ("b", 0.4)):
        _write_drift_table(tmp_path / f"{label}.csv", [7, ord(label)], shift)
        doc = {
            "dataset_id": f"drift-{label}",
            "table": {"path": f"{label}.csv"},
            "columns": [{"name": "record_id", "vtype": "identifier"}, {"name": "group", "vtype": "categorical"},
                        {"name": "value", "vtype": "numerical"}],
        }
        (tmp_path / f"{label}.json").write_text(json.dumps(doc), encoding="utf-8")
    params = {m: {"column": "value", "group_column": "group"} for m in TWO_SAMPLE_METRICS}
    (tmp_path / "params.json").write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "compare.json"
    argv = ["--seed", "1", "compare", "--data", str(tmp_path / "a.json"), "--data", str(tmp_path / "b.json"),
            "--metrics", ",".join(TWO_SAMPLE_METRICS), "--params", str(tmp_path / "params.json"),
            "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    for label in ("a", "b"):
        assert [(r["metric_id"], r.get("error")) for r in report[label]] == [(m, None) for m in TWO_SAMPLE_METRICS]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DRIFT_COMPARE_SHA256
