"""The benchmark's workloads: inputs, the CLI command line, and output checks.

Each workload writes its inputs from a seed, names the ``dqeval`` command
line that one operation runs, and checks the written outputs against
references the benchmark computes itself (scipy, brute-force numpy, direct
counts). Reasons for each choice are in README.md.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

import inputs

NOW = 1009843200.0  # fixed evaluation time (2002-01-01) for the currency rows
MISSING_TOKENS = frozenset({"", "NA", "NaN", "nan", "null", "None"})
SELECTION_DOC = {
    "library_version": "perfbench",
    "generated_at": "2002-01-01T00:00:00+00:00",
    "profile": {},
    "parameters": {},
    "selections": [],
}


def close(got, want, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return isinstance(got, (int, float)) and math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_)


def _floats(cells: list[str]) -> np.ndarray:
    return np.array([float(v) for v in cells if v.strip() not in MISSING_TOKENS])


def _report_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _errors(rows: list[dict]) -> list[str]:
    return [f"{r['metric_id']} ({r['scope']}): {r['error']}" for r in rows if "error" in r]


def sample_entropy_reference(u: np.ndarray, m: int = 2, r: float = 0.2, block: int = 64) -> float:
    """-ln(A/B) by brute-force Chebyshev template matching, row block by row block.

    The first n-m templates of lengths m and m+1, tolerance r*std, self-matches
    excluded.
    """
    n = u.size
    tol = r * float(u.std())
    k = n - m
    cols = [u[o:o + k] for o in range(m + 1)]
    b = a = 0
    for s in range(0, k, block):
        e = min(s + block, k)
        dm = np.abs(cols[0][s:e, None] - cols[0][None, :])
        for o in range(1, m):
            np.maximum(dm, np.abs(cols[o][s:e, None] - cols[o][None, :]), out=dm)
        within_m = dm <= tol
        b += int(within_m.sum())
        a += int((within_m & (np.abs(cols[m][s:e, None] - cols[m][None, :]) <= tol)).sum())
    b, a = (b - k) // 2, (a - k) // 2
    return -math.log(a / b)


def mmd_reference(x: np.ndarray, y: np.ndarray) -> float:
    """Biased RBF MMD with the median-heuristic bandwidth, by explicit pair sums."""
    pooled = np.concatenate([x, y])
    upper = np.concatenate([np.abs(pooled[i + 1:] - pooled[i]) for i in range(pooled.size - 1)])
    h = float(np.median(upper))

    def kmean(p: np.ndarray, q: np.ndarray) -> float:
        return float(np.exp(-((p[:, None] - q[None, :]) ** 2) / (2.0 * h * h)).mean())

    return math.sqrt(max(kmean(x, x) + kmean(y, y) - 2.0 * kmean(x, y), 0.0))


class Workload:
    """One set of CLI inputs; ``prepare`` writes them, ``check`` judges the outputs."""

    name = ""

    def prepare(self, work: str, seed: int) -> dict:
        """Write inputs under work; return {"argv", "outputs", "volatile"} for the runner."""
        raise NotImplementedError

    def check(self, work: str, stdout: str, stderr: str) -> list[str]:
        """Problems found in the outputs of the last operation; empty when correct."""
        raise NotImplementedError


class EvaluateMeta(Workload):
    name = "evaluate-meta"

    def __init__(self, n_records: int = inputs.REAL_RECORDS):
        self.n_records = n_records

    def rows(self) -> list[dict]:
        meta = list(inputs.META_COLUMNS)
        by_sex = {"column": "age", "group_column": "sex"}
        return [
            {"metric_id": "completeness", "dimension": "completeness", "params": {}},
            {"metric_id": "completeness", "dimension": "completeness",
             "params": {"columns": meta, "scope_label": "metadata"}},
            {"metric_id": "patient_level_completeness", "dimension": "completeness", "params": {"variable": "weight"}},
            {"metric_id": "record_completeness", "dimension": "completeness",
             "params": {"required": ["age", "sex", "weight"]}},
            {"metric_id": "prevalence_of_duplicates", "dimension": "uniqueness", "params": {"keys": meta}},
            {"metric_id": "dataset_size", "dimension": "dataset_size", "params": {}},
            {"metric_id": "granularity", "dimension": "granularity", "params": {}},
            {"metric_id": "range", "dimension": "variety", "params": {"column": "age"}},
            {"metric_id": "interquartile_range", "dimension": "variety", "params": {"column": "weight"}},
            {"metric_id": "mean_std", "dimension": "variety", "params": {"column": "height"}},
            {"metric_id": "hill_numbers", "dimension": "variety", "params": {"column": "device", "q": 2}},
            {"metric_id": "hill_numbers", "dimension": "variety", "params": {"column": "sex", "q": 1}},
            {"metric_id": "generalized_imbalance_ratio", "dimension": "target_class_balance",
             "params": {"column": "scp_codes"}},
            {"metric_id": "imbalance_degree", "dimension": "target_class_balance", "params": {"column": "scp_codes"}},
            {"metric_id": "currency_heinrich", "dimension": "currency",
             "params": {"timestamp_column": "recording_date", "now": NOW}},
            {"metric_id": "pearson", "dimension": "feature_importance", "params": {"column_a": "age", "column_b": "weight"}},
            {"metric_id": "spearman", "dimension": "feature_importance", "params": {"column_a": "age", "column_b": "height"}},
            {"metric_id": "kendall_tau", "dimension": "feature_importance",
             "params": {"column_a": "height", "column_b": "weight"}},
            {"metric_id": "cramers_v", "dimension": "feature_importance", "params": {"column_a": "sex", "column_b": "device"}},
            {"metric_id": "littles_test", "dimension": "informative_missingness",
             "params": {"columns": ["age", "height", "weight"]}},
            {"metric_id": "maximum_mean_discrepancy", "dimension": "homogeneity", "params": {**by_sex, "subsample": 2000}},
            {"metric_id": "ks_test", "dimension": "homogeneity", "params": by_sex},
            {"metric_id": "mann_whitney_u", "dimension": "homogeneity", "params": by_sex},
            {"metric_id": "jensen_shannon_divergence", "dimension": "homogeneity", "params": {**by_sex, "bins": 20}},
            {"metric_id": "page_hinkley", "dimension": "distribution_drift", "params": {"column": "age"}},
        ]

    def prepare(self, work: str, seed: int) -> dict:
        root = os.path.join(work, "ptbxl")
        self.table = inputs.write_ptbxl_root(root, self.n_records, seed, signals=False)
        inputs.write_json(os.path.join(root, "descriptor.json"), inputs.ptbxl_descriptor("ptbxl-meta", False, NOW))
        inputs.write_json(os.path.join(work, "selection.json"), SELECTION_DOC)
        inputs.write_json(os.path.join(work, "params.json"), {"rows": self.rows()})
        out, md = os.path.join(work, "report.json"), os.path.join(work, "report.md")
        return {
            "argv": ["--seed", str(seed), "evaluate", "--data", os.path.join(root, "descriptor.json"),
                     "--selection", os.path.join(work, "selection.json"),
                     "--params", os.path.join(work, "params.json"), "--out", out, "--markdown", md],
            "outputs": [out, md],
            "volatile": [],
        }

    def check(self, work: str, stdout: str, stderr: str) -> list[str]:
        from scipy import stats

        rows = _report_rows(os.path.join(work, "report.json"))
        problems = _errors(rows)
        if len(rows) != len(self.rows()):
            return problems + [f"{len(rows)} rows, expected {len(self.rows())}"]
        got = {(r["metric_id"], r["scope"]): r["value"] for r in rows}
        t, n = self.table, self.n_records

        def present(cols) -> float:
            return sum(v.strip() not in MISSING_TOKENS for c in cols for v in t[c]) / (n * len(cols))

        meta = list(inputs.META_COLUMNS)
        seen = {tuple(None if t[c][i].strip() in MISSING_TOKENS else t[c][i] for c in meta) for i in range(n)}
        age = np.array([float(a) if a else np.nan for a in t["age"]])
        male, female = (age[[s == g and not np.isnan(x) for s, x in zip(t["sex"], age)]] for g in ("0", "1"))
        ks = stats.ks_2samp(male, female, method="asymp")
        mwu = stats.mannwhitneyu(male, female, alternative="two-sided", method="asymptotic")
        height = _floats(t["height"])
        expect = [
            (("completeness", "global"), present(list(t))),
            (("completeness", "columns:metadata"), present(meta)),
            (("dataset_size", "global"), n),
            (("granularity", "global"), len(meta)),
            (("range", "column:age"), float(np.nanmax(age) - np.nanmin(age))),
        ]
        for key, want in expect:
            if not close(got.get(key), want):
                problems.append(f"{key}: got {got.get(key)!r}, reference {want!r}")
        checks = [
            ("prevalence_of_duplicates", "global", "count", n - len(seen)),
            ("mean_std", "column:height", "mean", float(height.mean())),
            ("mean_std", "column:height", "std", float(height.std(ddof=1))),
            ("ks_test", "groups:sex", "statistic", float(ks.statistic)),
            ("ks_test", "groups:sex", "p_value", float(ks.pvalue)),
            ("mann_whitney_u", "groups:sex", "statistic", float(mwu.statistic)),
            ("mann_whitney_u", "groups:sex", "p_value", float(mwu.pvalue)),
        ]
        for mid, scope, field, want in checks:
            value = (got.get((mid, scope)) or {}).get(field)
            if not close(value, want):
                problems.append(f"{mid}.{field}: got {value!r}, reference {want!r}")
        return problems


TWO_SAMPLE_METRICS = (
    "ks_test", "mann_whitney_u", "anderson_darling_k", "epps_singleton", "wasserstein_distance",
    "energy_distance", "maximum_mean_discrepancy", "cohens_d", "kl_divergence",
    "population_stability_index", "jensen_shannon_divergence", "chi_squared",
)


class CompareDrift(Workload):
    name = "compare-drift"

    def __init__(self, n_records: int = 6000):
        self.n_records = n_records

    def prepare(self, work: str, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        shift = float(rng.uniform(0.2, 0.6))
        self.tables = {}
        for label, (stream, group_shift) in {"a": (4, 0.0), "b": (5, shift)}.items():
            table = inputs.drift_table(self.n_records, [seed, stream], group_shift)
            inputs.write_csv(os.path.join(work, f"{label}.csv"), table)
            inputs.write_json(os.path.join(work, f"{label}.json"), inputs.drift_descriptor(f"drift-{label}", f"{label}.csv"))
            self.tables[label] = table
        params = {m: {"column": "value", "group_column": "group"} for m in TWO_SAMPLE_METRICS}
        inputs.write_json(os.path.join(work, "params.json"), params)
        out = os.path.join(work, "compare.json")
        return {
            "argv": ["--seed", str(seed), "compare", "--data", os.path.join(work, "a.json"),
                     "--data", os.path.join(work, "b.json"), "--metrics", ",".join(TWO_SAMPLE_METRICS),
                     "--params", os.path.join(work, "params.json"), "--out", out],
            "outputs": [out],
            "volatile": [],
        }

    def check(self, work: str, stdout: str, stderr: str) -> list[str]:
        from scipy import stats

        with open(os.path.join(work, "compare.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = []
        if not stdout.startswith("| Dimension | Metric |"):
            problems.append("no comparison table on stdout")
        for label in ("a", "b"):
            rows = doc[label]
            problems += [f"{label}: {e}" for e in _errors(rows)]
            if [r["metric_id"] for r in rows] != list(TWO_SAMPLE_METRICS):
                problems.append(f"{label}: rows do not follow the requested metrics")
                continue
            got = {r["metric_id"]: r["value"] for r in rows}
            t = self.tables[label]
            x, y = (np.array([float(v) for v, g in zip(t["value"], t["group"]) if g == k]) for k in ("a", "b"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ad = stats.anderson_ksamp([x, y])
            ks = stats.ks_2samp(x, y, method="asymp")
            mwu = stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
            expect = [
                ("ks_test", got["ks_test"]["statistic"], ks.statistic),
                ("ks_test.p_value", got["ks_test"]["p_value"], ks.pvalue),
                ("mann_whitney_u", got["mann_whitney_u"]["statistic"], mwu.statistic),
                ("mann_whitney_u.p_value", got["mann_whitney_u"]["p_value"], mwu.pvalue),
                ("anderson_darling_k", got["anderson_darling_k"]["statistic"], ad.statistic),
                ("epps_singleton", got["epps_singleton"]["statistic"], stats.epps_singleton_2samp(x, y).statistic),
                ("wasserstein_distance", got["wasserstein_distance"], stats.wasserstein_distance(x, y)),
                ("energy_distance", got["energy_distance"], stats.energy_distance(x, y) ** 2),
                ("maximum_mean_discrepancy", got["maximum_mean_discrepancy"], mmd_reference(x, y)),
            ]
            for what, value, want in expect:
                if not close(value, want):
                    problems.append(f"{label}: {what} got {value!r}, reference {float(want)!r}")
        return problems


HARNESS_REPORTS = ("original", "subset_sex_imbalance", "subset_device_filter", "subset_class_imbalance")


class HarnessEcg(Workload):
    name = "harness-ecg"

    def __init__(self, n_records: int = 64, n_samples: int = inputs.N_SAMPLES):
        self.n_records = n_records
        self.n_samples = n_samples

    def prepare(self, work: str, seed: int) -> dict:
        root = os.path.join(work, "ptbxl")
        self.table = inputs.write_ptbxl_root(root, self.n_records, seed, signals=True, n_samples=self.n_samples)
        out = os.path.join(work, "harness")
        return {
            "argv": ["--seed", str(seed), "ptbxl-harness", "--root", root, "--now", repr(NOW), "--out", out],
            "outputs": [os.path.join(out, f"{r}.json") for r in HARNESS_REPORTS] + [os.path.join(out, "table.md")],
            # the rationale document is stamped with the wall clock at each call
            "volatile": [["selection", "generated_at"]],
        }

    def check(self, work: str, stdout: str, stderr: str) -> list[str]:
        problems = []
        checks = [line for line in stderr.splitlines() if line.startswith("check ")]
        if len(checks) < 3 or any(not line.startswith("check ok") for line in checks):
            problems.append(f"harness checks: {checks}")
        n = self.n_records
        half = 5000 if n >= 10000 else max(20, n // 2)
        sizes = {
            "original": n,
            "subset_sex_imbalance": round(0.8 * half) + round(0.2 * half),
            "subset_device_filter": self.table["device"].count("CS-12"),
            "subset_class_imbalance": half,
        }
        for name in HARNESS_REPORTS:
            rows = _report_rows(os.path.join(work, "harness", f"{name}.json"))
            problems += [f"{name}: {e}" for e in _errors(rows)]
            got = {(r["metric_id"], r["scope"]): r["value"] for r in rows}
            expect = [
                (("dataset_size", "global"), sizes[name]),
                (("completeness", "columns:measurements"), 1.0),
                (("sampling_frequency", "signals"), inputs.HZ),
            ]
            if len(rows) != 16:
                problems.append(f"{name}: {len(rows)} rows, expected 16")
            for key, want in expect:
                if not close(got.get(key), want):
                    problems.append(f"{name}: {key} got {got.get(key)!r}, expected {want!r}")
        return problems


class EntropyLonglead(Workload):
    """One record: its 12 leads are the long series."""

    name = "entropy-longlead"

    def __init__(self, n_samples: int = inputs.N_SAMPLES):
        self.n_samples = n_samples

    def rows(self) -> list[dict]:
        return [
            {"metric_id": "entropy", "dimension": "accuracy", "params": {}},
            {"metric_id": "sampling_frequency", "dimension": "granularity", "params": {}},
            {"metric_id": "completeness", "dimension": "completeness", "params": {"target": "signals"}},
        ]

    def prepare(self, work: str, seed: int) -> dict:
        self.root = os.path.join(work, "ptbxl")
        inputs.write_ptbxl_root(self.root, 1, seed, signals=True, n_samples=self.n_samples)
        desc = os.path.join(self.root, "descriptor.json")
        inputs.write_json(desc, inputs.ptbxl_descriptor("ptbxl-longlead", True, NOW))
        inputs.write_json(os.path.join(work, "selection.json"), SELECTION_DOC)
        inputs.write_json(os.path.join(work, "params.json"), {"rows": self.rows()})
        out, md = os.path.join(work, "report.json"), os.path.join(work, "report.md")
        return {
            "argv": ["--seed", str(seed), "evaluate", "--data", desc,
                     "--selection", os.path.join(work, "selection.json"),
                     "--params", os.path.join(work, "params.json"), "--out", out, "--markdown", md],
            "outputs": [out, md],
            "volatile": [],
        }

    def check(self, work: str, stdout: str, stderr: str) -> list[str]:
        rows = _report_rows(os.path.join(work, "report.json"))
        problems = _errors(rows)
        got = {r["metric_id"]: r["value"] for r in rows}
        leads = inputs.read_signal(os.path.join(self.root, "signals_f32", "1.f32"))
        expect = [
            ("entropy", float(np.mean([sample_entropy_reference(lead) for lead in leads]))),
            ("sampling_frequency", inputs.HZ),
            ("completeness", 1.0),
        ]
        for mid, want in expect:
            if not close(got.get(mid), want):
                problems.append(f"{mid}: got {got.get(mid)!r}, reference {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (EvaluateMeta, CompareDrift, HarnessEcg, EntropyLonglead)}
