"""Start-up cost: scipy is imported by the functions that call it, not by the CLI.

Importing scipy.stats takes about 0.9 s and 72 MB on a 2-CPU host, longer
than a whole `dqeval evaluate` of signal metrics on a record. Only
epps_singleton and anderson_darling_k import it. The rank and chi-square
tests take their statistics from numpy and their p-values from
scipy.special (chdtrc, ndtr, smirnov, about 0.24 s and 26 MB), the vector
distances take cdist from scipy.spatial, and the signal metrics need no
scipy. These tests run a fresh interpreter and read its sys.modules, so a
module-level scipy import anywhere under dqeval.cli fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import dqeval
from dqeval.harness import write_demo_root

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dqeval.__file__)))


def _modules_after(code: str) -> list[str]:
    """The names in sys.modules once code has run in a fresh interpreter."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _scipy(modules: list[str], *names: str) -> list[str]:
    return [m for m in modules if any(m == n or m.startswith(n + ".") for n in names)]


def test_importing_the_cli_loads_no_scipy():
    assert _scipy(_modules_after("import dqeval.cli"), "scipy") == []


def test_signal_metrics_run_without_scipy_stats_or_spatial(tmp_path):
    root = tmp_path / "root"
    write_demo_root(str(root), n_records=6, seed=3)
    descriptor = root / "descriptor.json"
    descriptor.write_text(json.dumps({
        "dataset_id": "demo",
        "table": {"path": "ptbxl_database.csv"},
        "columns": [{"name": "ecg_id", "vtype": "identifier"}],
        "signals": {"dir": "signals_f32", "format": "f32le", "file_column": "ecg_id", "pattern": "{value}.f32"},
    }), encoding="utf-8")
    selection = tmp_path / "selection.json"
    selection.write_text(json.dumps({"profile": {}, "selections": []}), encoding="utf-8")
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"rows": [
        {"metric_id": "entropy", "dimension": "accuracy", "params": {}},
        {"metric_id": "sampling_frequency", "dimension": "granularity", "params": {}},
        {"metric_id": "completeness", "dimension": "completeness", "params": {"target": "signals"}},
    ]}), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--data", str(descriptor), "--selection", str(selection),
            "--params", str(params), "--out", str(out)]
    modules = _modules_after(f"import dqeval.cli\nassert dqeval.cli.main({argv!r}) == 0")
    rows = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert [r["metric_id"] for r in rows if "error" not in r] == ["entropy", "sampling_frequency", "completeness"]
    assert _scipy(modules, "scipy.stats", "scipy.spatial") == []


def test_rank_and_chi_square_rows_run_without_scipy_stats(tmp_path):
    lines = ["rid,x,y,z,sex,device"]
    for i in range(40):
        y = "" if i % 7 == 3 else f"{(i * 13) % 17}"
        z = "" if i % 5 == 1 else f"{(i * 7) % 11 + 0.5 * (i % 3)}"
        lines.append(f"r{i},{i % 9},{y},{z},{'mf'[i % 2]},{'abc'[i % 3]}")
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    descriptor = tmp_path / "descriptor.json"
    descriptor.write_text(json.dumps({
        "dataset_id": "ranks",
        "table": {"path": "table.csv"},
        "columns": [{"name": "rid", "vtype": "identifier"}]
        + [{"name": c, "vtype": "numerical"} for c in "xyz"]
        + [{"name": c, "vtype": "categorical"} for c in ("sex", "device")],
    }), encoding="utf-8")
    selection = tmp_path / "selection.json"
    selection.write_text(json.dumps({"profile": {}, "selections": []}), encoding="utf-8")
    by_sex = {"column": "x", "group_column": "sex"}
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"rows": [
        {"metric_id": "spearman", "dimension": "feature_importance", "params": {"column_a": "x", "column_b": "y"}},
        {"metric_id": "kendall_tau", "dimension": "feature_importance", "params": {"column_a": "x", "column_b": "z"}},
        {"metric_id": "cramers_v", "dimension": "feature_importance",
         "params": {"column_a": "sex", "column_b": "device"}},
        {"metric_id": "littles_test", "dimension": "informative_missingness", "params": {"columns": ["x", "y", "z"]}},
        {"metric_id": "ks_test", "dimension": "homogeneity", "params": by_sex},
        {"metric_id": "mann_whitney_u", "dimension": "homogeneity", "params": by_sex},
        {"metric_id": "chi_squared", "dimension": "homogeneity", "params": {"column": "device", "group_column": "sex"}},
    ]}), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--data", str(descriptor), "--selection", str(selection),
            "--params", str(params), "--out", str(out)]
    modules = _modules_after(f"import dqeval.cli\nassert dqeval.cli.main({argv!r}) == 0")
    rows = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert [r["metric_id"] for r in rows if "error" not in r] == [
        "spearman", "kendall_tau", "cramers_v", "littles_test", "ks_test", "mann_whitney_u", "chi_squared"
    ]
    assert rows[5]["params"]["method"] == "mann_whitney_u(asymptotic)"
    assert _scipy(modules, "scipy.stats") == []


def test_cramers_v_alone_loads_no_scipy(tmp_path):
    lines = ["sex,device"] + [f"{'mf'[i % 2]},{'abc'[i % 3] if i % 2 else 'a'}" for i in range(12)]
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    descriptor = tmp_path / "descriptor.json"
    descriptor.write_text(json.dumps({
        "dataset_id": "labels",
        "table": {"path": "table.csv"},
        "columns": [{"name": c, "vtype": "categorical"} for c in ("sex", "device")],
    }), encoding="utf-8")
    selection = tmp_path / "selection.json"
    selection.write_text(json.dumps({"profile": {}, "selections": []}), encoding="utf-8")
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"rows": [
        {"metric_id": "cramers_v", "dimension": "feature_importance",
         "params": {"column_a": "sex", "column_b": "device"}},
    ]}), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["evaluate", "--data", str(descriptor), "--selection", str(selection),
            "--params", str(params), "--out", str(out)]
    modules = _modules_after(f"import dqeval.cli\nassert dqeval.cli.main({argv!r}) == 0")
    (row,) = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert "error" not in row and row["value"] > 0
    assert _scipy(modules, "scipy") == []
