"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Every check enforces its stated tolerance and wall-clock budget. Run with -s
(or read failure output) to see the per-criterion PASS/FAIL lines.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from itertools import combinations

import numpy as np
import pytest

from dqeval import harness as _harness
from dqeval.distribution import (
    cohens_d,
    divergence,
    energy_distance,
    hill_number,
    mmd,
    two_sample_test,
    wasserstein_1d,
)
from dqeval.measurement import cohens_kappa, fleiss_kappa, kendalls_w, krippendorff_alpha
from dqeval.registry import all_cards
from dqeval.report import build_report, evaluate_row, report_json
from dqeval.selection import builtin_trees, rationale_document, select_all
from dqeval.structure import (
    CurrencyParams,
    PageHinkleyParams,
    currency,
    imbalance_ratio,
    littles_mcar_test,
    page_hinkley,
)
from tests.conftest import make_dataset, ratings
from tests.test_harness import TABLE_PLAN
from tests.test_registry import DIMENSION_MATRIX, GROUP_SIZES
from tests.test_selection import PTBXL_METRICS, TREE_STRUCTURES, _structure


def _verdict(num: int, ok: bool, detail: str, elapsed: float, budget: float | None) -> None:
    """Print the single pass/fail line for a criterion, then enforce it."""
    in_time = budget is None or elapsed < budget
    status = "PASS" if ok and in_time else "FAIL"
    bound = f", {elapsed:.2f}s < {budget:.0f}s" if budget is not None else f", {elapsed:.2f}s"
    line = f"criterion {num}: {status} - {detail}{bound}"
    print(line)
    assert ok and in_time, line


@pytest.fixture(scope="module")
def bundle(demo_root):
    return _harness.load_ptbxl(demo_root)


def test_criterion_1_registry_catalog():
    start = time.perf_counter()
    cards = all_cards()
    by_group: dict[str, int] = {}
    for c in cards:
        by_group[c.group] = by_group.get(c.group, 0) + 1
    ok = (
        len(cards) == 60
        and by_group == GROUP_SIZES
        and sorted(by_group.values()) == [2, 4, 4, 7, 8, 17, 18]
        and {c.id: set(c.dimensions) for c in cards} == DIMENSION_MATRIX
    )
    _verdict(1, ok, "60 cards, group sizes {18,7,17,2,8,4,4}, dimension matrix verified",
             time.perf_counter() - start, 1.0)


def test_criterion_2_tree_fidelity_and_case_study_selection(bundle):
    start = time.perf_counter()
    trees = builtin_trees()
    trees_ok = set(trees) == set(TREE_STRUCTURES) and all(
        _structure(trees[name]) == TREE_STRUCTURES[name] for name in TREE_STRUCTURES
    )
    sel = select_all(_harness.PTBXL_PROFILE)
    accuracy = sel.for_dimension("accuracy")
    rows = _harness.harness_rows(bundle, seed=0, now=2e9, entropy_max_records=2, entropy_max_samples=50)
    plan = tuple((r["metric_id"], r["scope"]) for r in rows)
    ok = (
        trees_ok
        and sel.metrics() == PTBXL_METRICS
        and accuracy.metrics == ("entropy",)
        and plan == TABLE_PLAN
    )
    _verdict(2, ok, "16 trees match transcription; profile selects 22 ids / 16 table rows, "
                    "accuracy = entropy only", time.perf_counter() - start, 1.0)


def test_criterion_3_analytic_values():
    start = time.perf_counter()
    hill_split = hill_number([4000, 1000], 2)
    hill_even = hill_number([500, 500], 2)
    age_s = 32.4 * 365.25 * 86400
    heinrich = currency([0.0], CurrencyParams(variant="heinrich", now=age_s, decline=1e-9))[0]
    ratio = imbalance_ratio([250, 4750])
    ok = (
        abs(hill_split - 1.47) <= 0.005
        and hill_even == 2.0
        and abs(heinrich - 0.36) <= 0.01
        and ratio == 19.0
    )
    _verdict(3, ok, f"hill={hill_split:.4f}, balanced={hill_even:.2f}, "
                    f"heinrich={heinrich:.4f}, ratio={ratio:.0f}",
             time.perf_counter() - start, 1.0)


def test_criterion_4_real_dataset_reproduction():
    root = os.environ.get("DQEVAL_PTBXL_ROOT", "")
    if not root or not os.path.isdir(root):
        print("criterion 4: SKIPPED - PTB-XL dataset not staged (set DQEVAL_PTBXL_ROOT)")
        pytest.skip("PTB-XL dataset not staged")
    out = _harness.run_harness(root, seed=0, strict_checks=True)
    rows = {(r["metric_id"], r["scope"]): r for r in out["reports"][0]["results"]}
    filtered = {(r["metric_id"], r["scope"]): r for r in out["reports"][2]["results"]}
    hill_dev = rows[("hill_numbers", "column:device")]["value"]
    ok = (
        out["real_data"] is True
        and all(c["passed"] for c in out["checks"])
        and rows[("dataset_size", "global")]["value"] == 21837
        and rows[("granularity", "global")]["value"] == 26
        and rows[("sampling_frequency", "signals")]["value"] == 500.0
        and rows[("prevalence_of_duplicates", "global")]["value"]["count"] == 0
        and rows[("completeness", "columns:measurements")]["value"] == 1.0
        and abs(hill_dev - 5.59) <= 0.01
        and abs(filtered[("hill_numbers", "column:device")]["value"] - 1.0) < 1e-9
    )
    _verdict(4, ok, f"size/granularity/sampling exact, Hill(device)={hill_dev:.3f}, "
                    "all directional checks passed", 0.0, None)


def test_criterion_5_agreement_coefficients():
    start = time.perf_counter()
    # perfect agreement across two category labels
    two = ratings(tuple([("a", "a"), ("b", "b")] * 30))
    three = ratings(tuple([("a", "a", "a"), ("b", "b", "b")] * 30))
    ranking = tuple(tuple(float(i) for _ in range(5)) for i in range(40))
    perfect = (
        cohens_kappa(two),
        fleiss_kappa(three),
        krippendorff_alpha(three),
        kendalls_w(ratings(ranking)),
    )
    perfect_ok = all(abs(v - 1.0) < 1e-12 for v in perfect)

    rng = np.random.default_rng(2026)
    n = 5000
    ra = rng.integers(0, 4, n)
    rb = rng.integers(0, 4, n)
    k_c = cohens_kappa(ratings(tuple((int(x), int(y)) for x, y in zip(ra, rb))))
    grid = rng.integers(0, 4, (n, 3))
    m3 = ratings(tuple(tuple(int(v) for v in row) for row in grid))
    k_f = fleiss_kappa(m3)
    k_a = krippendorff_alpha(m3)
    # E[W] is 1/k for k independent raters, so 30 raters sit well under .05
    scores = rng.normal(size=(n, 30))
    w = kendalls_w(ratings(tuple(tuple(float(v) for v in row) for row in scores)))
    random_ok = all(abs(v) < 0.05 for v in (k_c, k_f, k_a, w))

    pairs = [("x", "x")] * 20 + [("x", "y")] * 5 + [("y", "x")] * 10 + [("y", "y")] * 15
    k_table = cohens_kappa(ratings(tuple(pairs)))
    table_ok = abs(k_table - 0.4) < 1e-12

    _verdict(5, perfect_ok and random_ok and table_ok,
             f"perfect all 1; random kappa={k_c:.3f} fleiss={k_f:.3f} alpha={k_a:.3f} "
             f"W={w:.3f}; table kappa={k_table:.4f}",
             time.perf_counter() - start, 10.0)


def test_criterion_6_distribution_metric_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    ln2 = math.log(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(1000):
            na, nb = int(rng.integers(3, 26)), int(rng.integers(3, 26))
            x = rng.normal(rng.normal(0, 2), 1 + rng.random(), na)
            y = rng.normal(rng.normal(0, 2), 1 + rng.random(), nb)
            assert wasserstein_1d(x, x) == 0.0
            assert energy_distance(x, x) == 0.0
            assert mmd(x, x) == 0.0
            assert cohens_d(x, x) == 0.0
            assert wasserstein_1d(x, y) == wasserstein_1d(y, x) >= 0.0
            e_xy = energy_distance(x, y)
            assert e_xy >= 0.0 and math.isclose(e_xy, energy_distance(y, x), rel_tol=1e-12)
            assert abs(mmd(x, y) - mmd(y, x)) < 1e-12 and mmd(x, y) >= 0.0
            assert abs(cohens_d(x, y) + cohens_d(y, x)) < 1e-12
            p = rng.integers(1, 50, 4).astype(float)
            q = rng.integers(1, 50, 4).astype(float)
            assert divergence("kl", p, p) == 0.0
            js = divergence("js", p, q)
            assert 0.0 <= js <= ln2 + 1e-12 and abs(js - divergence("js", q, p)) < 1e-12
            assert divergence("kl", p, q) >= 0.0
            assert divergence("psi", p, q) >= 0.0
            assert 1.0 <= hill_number(p, 2.0) <= len(p) + 1e-12

    # exact Mann-Whitney p against an independently coded enumeration
    def brute_mwu(first, second):
        pooled = list(first) + list(second)

        def u_stat(xs, ys):
            u = 0.0
            for f in xs:
                for s in ys:
                    u += 1.0 if f > s else (0.5 if f == s else 0.0)
            return u

        u_obs = u_stat(list(first), list(second))
        total = le = ge = 0
        for picks in combinations(range(len(pooled)), len(first)):
            chosen_set = set(picks)
            left = [pooled[i] for i in picks]
            right = [pooled[i] for i in range(len(pooled)) if i not in chosen_set]
            u = u_stat(left, right)
            total += 1
            le += u <= u_obs + 1e-12
            ge += u >= u_obs - 1e-12
        return u_obs, min(1.0, 2.0 * min(le / total, ge / total))

    rng_m = np.random.default_rng(12)
    for n in range(1, 7):
        for m in range(1, 7):
            for tied in (False, True):
                a = rng_m.integers(0, 3, n).astype(float) if tied else rng_m.normal(0, 1, n)
                b = rng_m.integers(0, 3, m).astype(float) if tied else rng_m.normal(0.5, 1, m)
                res = two_sample_test("mann_whitney_u", a, b)
                u_ref, p_ref = brute_mwu(a, b)
                assert abs(res.statistic - u_ref) < 1e-9
                assert abs(res.p_value - p_ref) < 1e-12

    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 81))
        a = rng.normal(0, 3, n)
        b = rng.normal(1, 2, n)
        oracle = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
        worst = max(worst, abs(wasserstein_1d(a, b) - oracle))
    assert worst < 1e-9

    _verdict(6, True, f"1000 property fixtures, exact MWU for n,m<=6, "
                      f"500 wasserstein oracle pairs (worst {worst:.1e})",
             time.perf_counter() - start, 30.0)


def test_criterion_7_littles_test_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    cov = [[1, 0.5, 0.2], [0.5, 1, 0.3], [0.2, 0.3, 1]]
    rejections = 0
    for _ in range(500):
        x = rng.multivariate_normal([0, 0, 0], cov, size=300)
        mask = rng.random(x.shape) < 0.15
        mask[:, 0] = False  # keep every row partially observed
        data = x.copy()
        data[mask] = np.nan
        rejections += littles_mcar_test(data).p_value < 0.05
    rate = rejections / 500

    # censoring an above-threshold tail leaks into observed means via correlation
    cov_mnar = [[1, 0.6, 0.4], [0.6, 1, 0.5], [0.4, 0.5, 1]]
    hits = 0
    for _ in range(100):
        x = rng.multivariate_normal([0, 0, 0], cov_mnar, size=300)
        data = x.copy()
        data[x[:, 1] > 0.3, 1] = np.nan
        hits += littles_mcar_test(data).p_value < 0.05
    power = hits / 100

    ok = 0.03 <= rate <= 0.08 and power > 0.8
    _verdict(7, ok, f"MCAR rejection rate {rate:.3f} in [0.03, 0.08], MNAR power {power:.2f}",
             time.perf_counter() - start, 60.0)


def test_criterion_8_page_hinkley_detection():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    detected = 0
    for _ in range(100):
        series = np.concatenate([rng.normal(0, 1, 300), rng.normal(5, 1, 200)])
        out = page_hinkley(series, PageHinkleyParams(lam=50.0))
        post = [t for t in out["alarm_indices"] if t >= 300]
        pre = [t for t in out["alarm_indices"] if t < 300]
        detected += bool(post) and post[0] - 300 <= 60 and not pre
    false_alarms = 0
    for _ in range(100):
        out = page_hinkley(rng.normal(0, 1, 500), PageHinkleyParams(lam=50.0))
        false_alarms += bool(out["alarm_indices"])
    ok = detected >= 95 and false_alarms < 5
    _verdict(8, ok, f"step detected within 60 samples in {detected}/100 runs, "
                    f"{false_alarms}/100 stationary false alarms",
             time.perf_counter() - start, 10.0)


def test_criterion_9_deterministic_reports():
    start = time.perf_counter()
    ds = make_dataset()

    def one_pass():
        sel = select_all(
            {"completeness_interest": "general", "ml_task": "classification",
             "balance_focus": "general estimation"}
        )
        doc = rationale_document(sel, params={"seed": 11})
        rows = [
            evaluate_row(ds, "completeness", "completeness", params={}, seed=11),
            evaluate_row(ds, "generalized_imbalance_ratio", "target_class_balance",
                         params={"column": "label"}, seed=11),
            evaluate_row(ds, "maximum_mean_discrepancy", "homogeneity",
                         params={"column": "age", "group_column": "sex", "subsample": 2},
                         seed=11),
        ]
        return build_report(ds.dataset_id, doc["profile"], doc, rows, seed=11)

    first, second = one_pass(), one_pass()
    for rep in (first, second):
        rep["selection"]["generated_at"] = "normalized"
    identical = report_json(first).encode() == report_json(second).encode()
    has_random = any(
        r["metric_id"] == "maximum_mean_discrepancy" and r["value"] is not None
        for r in first["results"]
    )
    _verdict(9, identical and has_random, "two seeded runs byte-identical modulo timestamp",
             time.perf_counter() - start, 5.0)
