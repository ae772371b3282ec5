"""CLI surface: commands, outputs on disk, and the documented exit codes."""

from __future__ import annotations

import json
import os

import pytest
from click.testing import CliRunner

from dqeval.cli import cli, main
from dqeval.harness import PTBXL_PROFILE
from dqeval.registry import render_card
from dqeval.report import load_dataset, read_descriptor

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


def test_evaluate_missing_data_is_a_load_error(tmp_path, capsys):
    sel = _selection_doc(tmp_path, [])
    code = main(["evaluate", "--data", str(tmp_path / "none.json"), "--selection", sel,
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "data load error" in capsys.readouterr().err


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
    assert ds.column("label").count("a") == 2


def test_subset_accepts_inline_recipes_and_global_seed(tmp_path, descriptor):
    out_dir = tmp_path / "subset_sex"
    recipe = '{"kind": "sex_imbalance", "column": "sex", "male_label": "m", "female_label": "f", "n_male": 3, "n_female": 1}'
    res = runner.invoke(cli, ["--seed", "2", "subset", "--data", descriptor, "--recipe", recipe, "--out", str(out_dir)])
    assert res.exit_code == 0
    ds = load_dataset(read_descriptor(str(out_dir / "descriptor.json")))
    assert ds.column("sex").count("m") == 3
    assert ds.column("sex").count("f") == 1


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


def test_exit_codes(tmp_path, capsys):
    assert main(["cards", "list"]) == 0
    capsys.readouterr()
    assert main(["cards", "show", "made_up_metric"]) == 1
    assert "unknown metric" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
