"""Checks on the benchmark itself: seeded inputs, tracing that changes no output,
spans that fire where the workloads are meant to exercise them, and the runner.

Run with ``python -m pytest perfbench/tests`` from the repository root. The
workloads run at reduced sizes; the layers they reach are the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import child
import dqeval.cli
import inputs
import run
import workloads
from tracer import Tracer

SMALL = {
    "evaluate-meta": lambda: workloads.EvaluateMeta(n_records=400),
    "compare-drift": lambda: workloads.CompareDrift(n_records=300),
    "harness-ecg": lambda: workloads.HarnessEcg(n_records=60, n_samples=600),
    "entropy-longlead": lambda: workloads.EntropyLonglead(n_samples=400),
}


def _tree_digest(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    trees = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = tmp_path / label
        work.mkdir()
        SMALL[name]().prepare(str(work), seed)
        trees[label] = _tree_digest(str(work))
    assert trees["a"] == trees["b"]
    assert trees["a"] != trees["c"]


def test_ptbxl_root_has_the_case_study_layout(tmp_path):
    table = inputs.write_ptbxl_root(str(tmp_path), 30, seed=2, n_samples=50)
    assert list(table) == [name for name, _, _ in inputs.PTBXL_COLUMNS]
    assert len(table["ecg_id"]) == 30
    other = inputs.ptbxl_table(30, seed=9)
    for column in ("sex", "device"):  # the composition is the same for every seed
        assert sorted(table[column]) == sorted(other[column])
    leads = inputs.read_signal(str(tmp_path / "signals_f32" / "7.f32"))
    assert leads.shape == (12, 50)
    with open(tmp_path / "signals_f32" / "7.f32", "rb") as fh:
        assert json.loads(fh.readline())["sampling_hz"] == 500.0


@pytest.mark.parametrize("seed", range(40))
def test_harness_device_subset_is_never_degenerate(seed):
    table = inputs.ptbxl_table(workloads.HarnessEcg().n_records, seed)
    subset = [i for i, device in enumerate(table["device"]) if device == "CS-12"]
    assert {"NORM" in table["scp_codes"][i] for i in subset} == {True, False}
    assert {table["sex"][i] for i in subset} == {"0", "1"}


def test_sample_entropy_reference_matches_a_loop():
    rng = np.random.default_rng(0)
    u = np.cumsum(rng.normal(size=120))
    n, m, tol = u.size, 2, 0.2 * u.std()

    def count(length):
        t = [u[i:i + length] for i in range(n - m)]
        return sum(np.max(np.abs(t[i] - t[j])) <= tol for i in range(len(t)) for j in range(i + 1, len(t)))

    assert workloads.sample_entropy_reference(u, block=7) == pytest.approx(-np.log(count(m + 1) / count(m)), rel=1e-12)


def _operation(plan: dict) -> tuple[int, str, str, str]:
    """One CLI call in this process: exit code, the benchmark's digest of its outputs, stdout, stderr."""
    for path in plan["outputs"]:
        if os.path.isfile(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dqeval.cli.main(list(plan["argv"]))
    return code, child._digest(plan, out.getvalue()), out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each small workload run untraced, then once traced: outputs and per-layer metrics."""
    runs = {}
    for name, make in SMALL.items():
        work = str(tmp_path_factory.mktemp(name))
        wl = make()
        plan = wl.prepare(work, seed=3)
        plain = _operation(plan)
        tracer = Tracer()
        tracer.install()
        assert tracer.absent == []
        tracer.on()
        try:
            traced = _operation(plan)
        finally:
            tracer.off()
        runs[name] = {"plain": plain, "traced": traced, "metrics": tracer.metrics(1), "wl": wl, "work": work}
    return runs


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_runs_write_identical_reports(traced_runs, name):
    plain, traced = traced_runs[name]["plain"], traced_runs[name]["traced"]
    assert plain[0] == 0 and traced[0] == 0
    assert plain[1] == traced[1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_outputs_pass_the_benchmark_checks(traced_runs, name):
    r = traced_runs[name]
    assert r["wl"].check(r["work"], r["traced"][2], r["traced"][3]) == []


# metric -> workloads on which it must be > 0; on every other workload it must read 0
FIRES = {
    "cli.main.s": "all",
    "report.read_descriptor.s": {"evaluate-meta", "compare-drift", "entropy-longlead"},
    "report.load_dataset.self_s": "all",
    "report.load_dataset.cells": "all",
    "datamodel.Dataset.build.calls": "all",
    "datamodel.Dataset.build.cells": "all",
    "datamodel.SignalBlock.build.calls": {"harness-ecg", "entropy-longlead"},
    "datamodel.SignalBlock.build.samples": {"harness-ecg", "entropy-longlead"},
    "datamodel.take_records.self_s": {"harness-ecg"},
    "datamodel.Dataset.spec.calls": {"harness-ecg"},
    "registry.evaluate.calls": "all",
    "registry.evaluate.self_s": "all",
    "registry.evaluate.errors": set(),
    "measurement.sample_entropy.calls": {"harness-ecg", "entropy-longlead"},
    "measurement.sample_entropy.points": {"harness-ecg", "entropy-longlead"},
    "distribution.mmd.s": {"evaluate-meta", "compare-drift", "harness-ecg"},
    "distribution.median_heuristic_bandwidth.s": {"evaluate-meta", "compare-drift", "harness-ecg"},
    "distribution.energy_distance.s": {"compare-drift"},
    "distribution.two_sample_test.s": {"evaluate-meta", "compare-drift"},
    "distribution.divergence.s": {"evaluate-meta", "compare-drift"},
    "distribution.wasserstein_1d.s": {"compare-drift"},
    "structure.prevalence_of_duplicates.s": {"evaluate-meta", "harness-ecg"},
    "structure.littles_mcar_test.s": {"evaluate-meta"},
    "structure.page_hinkley.s": {"evaluate-meta"},
    "correlation.correlation.s": {"evaluate-meta", "harness-ecg"},
    "correlation.cramers_v.s": {"evaluate-meta"},
    "harness.run_harness.s": {"harness-ecg"},
    "harness.load_ptbxl.self_s": {"harness-ecg"},
    "harness.apply_recipe.s": {"harness-ecg"},
    "harness.harness_rows.self_s": {"harness-ecg"},
    "selection.select_all.s": {"harness-ecg"},
    "selection.rationale_document.s": {"harness-ecg"},
    "report.build_report.s": {"evaluate-meta", "harness-ecg", "entropy-longlead"},
    "report.report_json.s": {"evaluate-meta", "harness-ecg", "entropy-longlead"},
    "report.render_report_markdown.s": {"evaluate-meta", "entropy-longlead"},
    "report.compare_results.s": {"compare-drift"},
    "report.render_comparison_markdown.s": {"compare-drift"},
    "registry.evaluate.entropy.s": {"harness-ecg", "entropy-longlead"},
    "registry.evaluate.energy_distance.s": {"compare-drift"},
    "registry.evaluate.littles_test.s": {"evaluate-meta"},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_each_span_fires_exactly_where_predicted(traced_runs, name):
    metrics = traced_runs[name]["metrics"]
    for metric, where in FIRES.items():
        value = metrics.get(metric, 0.0)
        if where == "all" or name in where:
            assert value > 0, f"{metric} did not fire on {name}"
        else:
            assert value == 0, f"{metric} fired on {name}"
    ratio = metrics["datamodel.cells_built_per_cell_read"]
    assert ratio > 1.0 if name == "harness-ecg" else ratio == 1.0


def test_per_layer_metrics_of_the_benchmark_match_what_the_tracer_produces(traced_runs):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set().union(*(r["metrics"] for r in traced_runs.values())) | {"trace.overhead_s"}
    assert per_layer <= produced
    per_metric = {m for m in produced if m.startswith("registry.evaluate.") and m.count(".") == 3 and m.endswith(".s")}
    assert per_metric <= per_layer


@pytest.mark.parametrize("trace", [False, True])
def test_runner_reports_counts_and_metrics(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    res = run.run_workload(SMALL["evaluate-meta"](), seed=1, seconds=0.0, trace=trace, units=units)
    assert res["failed"] == 0 and res["problems"] == []
    assert res["attempted"] == 1 + (2 if trace else 1) * 3
    assert set(res["metrics"]) == set(units)
    if not trace:
        assert all(value > 0 for value, _ in res["metrics"].values())


def test_runner_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate-meta", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
