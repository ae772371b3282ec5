"""Registry contract: inventory, lookup, rendering and evaluation dispatch."""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from dqeval.datamodel import ColumnSpec, Dataset, SignalBlock
from dqeval.report import evaluate_row, report_json
from dqeval.registry import (
    DIMENSIONS,
    GROUPS,
    ApplicabilityError,
    EvaluationError,
    EvaluatorUnavailable,
    MetricResult,
    PrerequisiteError,
    RegistryError,
    all_cards,
    card,
    evaluate,
    filter_cards,
    render_card,
    resolve_id,
)

# Expected dimension assignment for every metric in the library.
DIMENSION_MATRIX = {
    "anderson_darling_k": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "bland_altman_cr": {"accuracy"},
    "chi_squared": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "cohens_d": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "cohens_kappa": {"noisy_labels"},
    "completeness": {"completeness"},
    "concordance_cc": {"accuracy", "feature_importance", "noisy_labels"},
    "cramers_v": {"accuracy", "feature_importance", "noisy_labels"},
    "currency_ballou": {"currency"},
    "currency_heinrich": {"currency"},
    "currency_hinrichs": {"currency"},
    "currency_li": {"currency"},
    "dataset_size": {"dataset_size"},
    "dice_score": {"noisy_labels"},
    "effective_sample_size": {"uniqueness"},
    "energy_distance": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "entropy": {"accuracy"},
    "epps_singleton": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "fleiss_kappa": {"noisy_labels"},
    "frechet_inception_distance": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "generalized_imbalance_ratio": {"target_class_balance"},
    "goodman_kruskal_gamma": {"accuracy", "feature_importance", "noisy_labels"},
    "granularity": {"granularity"},
    "hill_numbers": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "icc": {"accuracy", "feature_importance", "noisy_labels"},
    "imbalance_degree": {"target_class_balance"},
    "informative_dropout": {"informative_missingness"},
    "interquartile_range": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "intersection_over_union": {"noisy_labels"},
    "jensen_shannon_divergence": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "kendall_tau": {"accuracy", "feature_importance", "noisy_labels"},
    "kendalls_w": {"noisy_labels"},
    "kernel_inception_distance": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "kl_divergence": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "krippendorff_alpha": {"noisy_labels"},
    "ks_test": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "label_granularity": {"granularity"},
    "limit_of_detection": {"accuracy"},
    "limit_of_quantification": {"accuracy"},
    "littles_test": {"informative_missingness"},
    "lr_imbalance_degree": {"target_class_balance"},
    "mann_whitney_u": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "maximum_mean_discrepancy": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "mean_std": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "page_hinkley": {"distribution_drift"},
    "patient_level_completeness": {"completeness"},
    "pearson": {"accuracy", "feature_importance", "noisy_labels"},
    "population_stability_index": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "prevalence_of_duplicates": {"uniqueness"},
    "random_error": {"accuracy"},
    "range": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
    "record_completeness": {"completeness"},
    "repeatability_cv": {"accuracy"},
    "reproducibility_variance": {"accuracy"},
    "resolution": {"granularity"},
    "sampling_frequency": {"granularity"},
    "spearman": {"accuracy", "feature_importance", "noisy_labels"},
    "syntactic_accuracy": {"syntactic_consistency"},
    "systematic_error": {"accuracy"},
    "wasserstein_distance": {"accuracy", "distribution_drift", "homogeneity", "noisy_labels", "target_class_balance", "variety"},
}

GROUP_SIZES = {
    "measurement_process": 17,
    "consistency": 2,
    "representativeness": 8,
    "timeliness": 4,
    "informativeness": 4,
    "distribution_metrics": 18,
    "correlation_coefficients": 7,
}


def test_registry_has_sixty_unique_cards():
    cards = all_cards()
    assert len(cards) == 60
    assert len({c.id for c in cards}) == 60
    assert set(c.id for c in cards) == set(DIMENSION_MATRIX)


def test_group_sizes():
    counts = Counter(c.group for c in all_cards())
    assert dict(counts) == GROUP_SIZES
    assert sorted(counts.values()) == [2, 4, 4, 7, 8, 17, 18]


@pytest.mark.parametrize("metric_id", sorted(DIMENSION_MATRIX))
def test_dimension_matrix(metric_id):
    assert set(card(metric_id).dimensions) == DIMENSION_MATRIX[metric_id]


def test_every_dimension_is_covered():
    used = set()
    for c in all_cards():
        used.update(c.dimensions)
    assert used == set(DIMENSIONS)
    assert {c.group for c in all_cards()} == set(GROUPS)


def test_distribution_group_shares_one_dimension_set():
    dim_sets = {frozenset(c.dimensions) for c in filter_cards(group="distribution_metrics")}
    assert dim_sets == {
        frozenset(
            {"accuracy", "noisy_labels", "homogeneity", "distribution_drift",
             "variety", "target_class_balance"}
        )
    }


def test_correlation_group_shares_one_dimension_set():
    dim_sets = {frozenset(c.dimensions) for c in filter_cards(group="correlation_coefficients")}
    assert dim_sets == {frozenset({"accuracy", "noisy_labels", "feature_importance"})}


@pytest.mark.parametrize(
    "alias, expected",
    [
        ("Shannon entropy", "entropy"),
        ("sample entropy", "entropy"),
        ("relative entropy", "kl_divergence"),
        ("Kendall's W", "kendalls_w"),
        ("HILL NUMBERS", "hill_numbers"),
        ("mann-whitney-u", "mann_whitney_u"),
    ],
)
def test_resolve_id_accepts_synonyms_and_spelling_variants(alias, expected):
    assert resolve_id(alias) == expected
    assert card(alias).id == expected


def test_resolve_id_rejects_unknown_names():
    with pytest.raises(RegistryError, match="unknown metric"):
        resolve_id("frobnication index")


def test_filter_cards_is_conjunctive():
    got = {c.id for c in filter_cards(dim="noisy_labels", group="measurement_process")}
    assert got == {
        "cohens_kappa", "fleiss_kappa", "kendalls_w", "krippendorff_alpha",
        "dice_score", "intersection_over_union",
    }
    manual = [
        c.id
        for c in all_cards()
        if "accuracy" in c.dimensions
        and "tabular" in c.applicability.modalities
        and c.group == "distribution_metrics"
    ]
    by_filter = [
        c.id for c in filter_cards(dim="accuracy", modality="tabular", group="distribution_metrics")
    ]
    assert by_filter == manual


def test_filter_cards_rejects_unknown_enums():
    with pytest.raises(RegistryError, match="unknown dimension"):
        filter_cards(dim="prettiness")
    with pytest.raises(RegistryError, match="unknown modality"):
        filter_cards(modality="hologram")
    with pytest.raises(RegistryError, match="unknown variable type"):
        filter_cards(vtype="complex")
    with pytest.raises(RegistryError, match="unknown group"):
        filter_cards(group="misc")


def test_render_markdown_sections_and_determinism():
    md = render_card("entropy")
    assert md == render_card("entropy")
    headers = [line for line in md.splitlines() if line.startswith("#")]
    assert headers[0] == "# Entropy"
    assert headers == [
        "# Entropy",
        "## Definition",
        "## Value range",
        "## Use in METRIC-framework",
        "## References",
        "## Example",
        "## Relation to other metrics",
        "## Applicability",
        "## Prerequisites and recommendations",
        "## Pitfalls and limitations",
    ]


def test_render_markdown_omits_empty_example():
    md = render_card("epps_singleton")
    assert "## Example" not in md
    assert len([line for line in md.splitlines() if line.startswith("#")]) == 9


def test_render_json_round_trips_the_card():
    text = render_card("hill_numbers", format="json")
    assert text.endswith("\n")
    assert json.loads(text) == card("hill_numbers").as_dict()


def test_render_rejects_unknown_format():
    with pytest.raises(RegistryError, match="unknown render format"):
        render_card("entropy", format="pdf")


def test_render_every_card_both_formats():
    for c in all_cards():
        md = render_card(c.id)
        assert md.startswith(f"# {c.name}\n")
        assert json.loads(render_card(c.id, format="json"))["id"] == c.id


# --- evaluation dispatch -----------------------------------------------------


def _clinic(dataset_id: str = "clinic", shift: float = 0.0, seed: int = 5) -> Dataset:
    """Rich synthetic table exercising every evaluator route."""
    n = 40
    rng = np.random.default_rng(seed)
    age = rng.normal(60.0 + shift, 8.0, n).round(1).tolist()
    age[3] = None
    age[17] = None
    bp_a = rng.normal(120.0 + shift, 10.0, n).round(1).tolist()
    bp_b = [v + rng.normal(1.0, 2.0) for v in bp_a]
    columns = (
        ColumnSpec("pid", vtype="identifier", role="patient_id"),
        ColumnSpec("age"),
        ColumnSpec("bp_a"),
        ColumnSpec("bp_b"),
        ColumnSpec("weight", role="weight"),
        ColumnSpec("sex", vtype="categorical"),
        ColumnSpec("site", vtype="categorical"),
        ColumnSpec("cond", vtype="categorical"),
        ColumnSpec("diagnosis", vtype="categorical", role="target"),
        ColumnSpec("rater1", role="annotation"),
        ColumnSpec("rater2", role="annotation"),
        ColumnSpec("rater3", role="annotation"),
        ColumnSpec("mask_a"),
        ColumnSpec("mask_b"),
        ColumnSpec("width"),
        ColumnSpec("height"),
        ColumnSpec("code", vtype="categorical"),
        ColumnSpec("const"),
        ColumnSpec("stamp", vtype="datetime", role="timestamp"),
    )
    base_rating = rng.integers(1, 5, n)
    cells = {
        "pid": tuple(f"p{i:02d}" for i in range(n)),
        "age": tuple(age),
        "bp_a": tuple(bp_a),
        "bp_b": tuple(bp_b),
        "weight": tuple(rng.uniform(0.5, 2.0, n).round(3)),
        "sex": tuple("m" if i % 3 else "f" for i in range(n)),
        "site": tuple(f"s{i % 4}" for i in range(n)),
        "cond": tuple("day" if i < n // 2 else "night" for i in range(n)),
        "diagnosis": tuple(["norm"] * 22 + ["mi"] * 12 + ["sttc"] * 6),
        "rater1": tuple(float(v) for v in base_rating),
        "rater2": tuple(float(min(4, v + (i % 7 == 0))) for i, v in enumerate(base_rating)),
        "rater3": tuple(float(max(1, v - (i % 5 == 0))) for i, v in enumerate(base_rating)),
        "mask_a": tuple(float(i % 2) for i in range(n)),
        "mask_b": tuple(float((i % 2) or (i % 9 == 0)) for i in range(n)),
        "width": tuple(float(256 + 64 * (i % 3)) for i in range(n)),
        "height": (256.0,) * n,
        "code": tuple("I21" if i % 4 else "i-21" for i in range(n)),
        "const": (5.0,) * n,
        "stamp": tuple(float(1_000 + 25 * i) for i in range(n)),
    }
    t = np.arange(120) / 250.0
    signals = tuple(
        SignalBlock(
            samples=(tuple(np.sin(2 * np.pi * 3 * t + i) + 0.05 * rng.normal(size=t.size)),),
            sampling_hz=250.0 if i % 2 else 500.0,
        )
        for i in range(n)
    )
    return Dataset(
        columns=columns,
        cells=cells,
        signals=signals,
        dataset_id=dataset_id,
        dictionaries={"code": frozenset({"I21", "I50", "Z00"})},
    )


@pytest.fixture(scope="module")
def clinic():
    return _clinic()


@pytest.fixture(scope="module")
def clinic_b():
    return _clinic(dataset_id="clinic_b", shift=6.0, seed=9)


# Parameter choices that make each evaluator computable on the clinic table.
SMOKE_PARAMS = {
    "entropy": {"column": "sex"},
    "limit_of_detection": {"column": "age"},
    "limit_of_quantification": {"column": "age"},
    "systematic_error": {"measured_column": "bp_a", "reference_column": "bp_b"},
    "random_error": {"measured_column": "bp_a", "reference_column": "bp_b"},
    "bland_altman_cr": {"column_a": "bp_a", "column_b": "bp_b"},
    "repeatability_cv": {"value_column": "bp_a", "subject_column": "site"},
    "reproducibility_variance": {"value_column": "bp_a", "condition_column": "cond"},
    "cohens_kappa": {"rater_columns": ["rater1", "rater2"]},
    "dice_score": {"column_a": "mask_a", "column_b": "mask_b"},
    "intersection_over_union": {"column_a": "mask_a", "column_b": "mask_b"},
    "patient_level_completeness": {"variable": "age"},
    "record_completeness": {"required": ["age", "sex"]},
    "syntactic_accuracy": {"column": "code"},
    "page_hinkley": {"column": "age"},
    "resolution": {"width_column": "width", "height_column": "height"},
    "currency_ballou": {"volatility": 1e-3, "s": 1.0},
    "currency_li": {"shelf_life": 5000.0},
    "currency_hinrichs": {"update_rate": 1e-3},
    "currency_heinrich": {"decline": 1e-3},
    "prevalence_of_duplicates": {"keys": ["sex", "diagnosis"]},
    "littles_test": {"columns": ["age", "bp_a", "bp_b"]},
    "range": {"column": "age"},
    "interquartile_range": {"column": "age"},
    "mean_std": {"column": "age"},
    "hill_numbers": {"column": "diagnosis"},
    "maximum_mean_discrepancy": {"column": "age", "group_column": "sex"},
    "cohens_d": {"column_a": "bp_a", "column_b": "bp_b"},
    "energy_distance": {"column": "age", "group_column": "sex"},
    "kl_divergence": {"column": "diagnosis", "group_column": "sex"},
    "population_stability_index": {"column": "diagnosis", "group_column": "sex"},
    "jensen_shannon_divergence": {"column": "diagnosis", "group_column": "sex"},
    "ks_test": {"column": "age"},
    "epps_singleton": {"column": "age"},
    "anderson_darling_k": {"column": "age", "group_column": "site"},
    "chi_squared": {"column": "diagnosis"},
    "frechet_inception_distance": {"columns": ["age", "bp_a", "bp_b"]},
    "kernel_inception_distance": {"columns": ["age", "bp_a", "bp_b"]},
    "mann_whitney_u": {"column": "age"},
    "wasserstein_distance": {"column": "age"},
    "pearson": {"column_a": "age", "column_b": "bp_a"},
    "concordance_cc": {"column_a": "bp_a", "column_b": "bp_b"},
    "goodman_kruskal_gamma": {"column_a": "age", "column_b": "bp_a"},
    "kendall_tau": {"column_a": "age", "column_b": "bp_a"},
    "spearman": {"column_a": "age", "column_b": "bp_a"},
    "cramers_v": {"column_a": "sex", "column_b": "diagnosis"},
}

NEEDS_SECOND_DATASET = {
    "ks_test", "epps_singleton", "chi_squared", "mann_whitney_u",
    "wasserstein_distance", "frechet_inception_distance", "kernel_inception_distance",
}


@pytest.mark.parametrize(
    "metric_id", [c.id for c in all_cards() if c.id != "informative_dropout"]
)
def test_every_evaluator_runs(metric_id, clinic, clinic_b):
    res = evaluate(
        metric_id,
        clinic,
        SMOKE_PARAMS.get(metric_id, {}),
        ds_b=clinic_b if metric_id in NEEDS_SECOND_DATASET else None,
        seed=11,
    )
    assert isinstance(res, MetricResult)
    assert res.metric_id == metric_id
    assert res.scope
    assert res.value is not None


# Rows for evaluator paths the smoke parameters leave out: name -> (metric, params, use ds_b).
SNAPSHOT_VARIANTS = {
    "entropy_signals_seeded": ("entropy", {"max_records": 3, "max_samples": 80}, False),
    "mmd_subsample_seeded": (
        "maximum_mean_discrepancy", {"column": "age", "group_column": "sex", "subsample": 10}, False
    ),
    "energy_subsample_seeded": (
        "energy_distance", {"column": "age", "group_column": "sex", "subsample": 10}, False
    ),
    "mmd_polynomial": (
        "maximum_mean_discrepancy",
        {"column": "age", "group_column": "sex", "kernel": "polynomial", "degree": 2},
        False,
    ),
    "kl_binned": ("kl_divergence", {"column": "age", "group_column": "sex", "bins": 5}, False),
    "currency_li_now": ("currency_li", {"shelf_life": 5000.0, "now": 2500}, False),
    "currency_ballou_now": ("currency_ballou", {"volatility": 1e-3, "now": 2500.0}, False),
    "completeness_signals": ("completeness", {"target": "signals"}, False),
    "completeness_columns": (
        "completeness", {"columns": ["age", "sex"], "scope_label": "x"}, False
    ),
    "ess_cluster": ("effective_sample_size", {"n": 120, "cluster_size": 4, "icc": 0.05}, False),
    "ks_column_pair": ("ks_test", {"column_a": "bp_a", "column_b": "bp_b"}, False),
    "mwu_column_pair": ("mann_whitney_u", {"column_a": "bp_a", "column_b": "bp_b"}, False),
    "wasserstein_column_pair": (
        "wasserstein_distance", {"column_a": "bp_a", "column_b": "bp_b", "order": 2}, False
    ),
    "energy_second_dataset": ("energy_distance", {"column": "age"}, True),
    "kl_second_dataset": ("kl_divergence", {"column": "diagnosis"}, True),
    "psi_binned_second_dataset": ("population_stability_index", {"column": "age"}, True),
    "hill_q0": ("hill_numbers", {"column": "site", "q": 0}, False),
    "cramers_v_bias_corrected": (
        "cramers_v", {"column_a": "sex", "column_b": "diagnosis", "bias_correction": True}, False
    ),
    "krippendorff_interval": ("krippendorff_alpha", {"level": "interval"}, False),
    "cohens_kappa_linear": (
        "cohens_kappa", {"rater_columns": ["rater1", "rater3"], "weights": "linear"}, False
    ),
}

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "evaluator_snapshot.json")


def _snapshot_rows(clinic, clinic_b) -> dict[str, str]:
    """Every successful evaluator row as report_json text, keyed by row name."""
    calls = {
        c.id: (c.id, SMOKE_PARAMS.get(c.id, {}), c.id in NEEDS_SECOND_DATASET)
        for c in all_cards()
        if c.id != "informative_dropout"
    }
    calls.update(SNAPSHOT_VARIANTS)
    rows = {}
    for name, (metric_id, params, use_b) in calls.items():
        row = evaluate_row(
            clinic, metric_id, card(metric_id).dimensions[0], dict(params),
            ds_b=clinic_b if use_b else None, seed=11,
        )
        assert "error" not in row, (name, row)
        rows[name] = report_json(row)
    return rows


def _cards_digest() -> str:
    h = hashlib.sha256()
    for c in all_cards():
        h.update(render_card(c.id).encode("utf-8"))
        h.update(render_card(c.id, "json").encode("utf-8"))
    return h.hexdigest()


def test_evaluator_rows_and_cards_match_the_snapshot(clinic, clinic_b):
    with open(SNAPSHOT, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = _snapshot_rows(clinic, clinic_b)
    assert list(got) == list(expected["rows"])
    for name, text in got.items():
        assert text == report_json(expected["rows"][name]), name
    assert _cards_digest() == expected["cards_sha256"]


def test_unimplemented_metric_raises_evaluator_unavailable(clinic):
    with pytest.raises(EvaluatorUnavailable, match="not implemented: no formula in source"):
        evaluate("informative_dropout", clinic)


def test_unknown_metric_raises_registry_error(clinic):
    with pytest.raises(RegistryError, match="unknown metric"):
        evaluate("frobnication index", clinic)


def test_missing_parameter_raises_prerequisite_error(clinic):
    with pytest.raises(PrerequisiteError):
        evaluate("wasserstein_distance", clinic)
    with pytest.raises(PrerequisiteError, match="column_a"):
        evaluate("pearson", clinic)


def test_wrong_column_type_raises_applicability_error(clinic):
    with pytest.raises(ApplicabilityError, match="does not apply"):
        evaluate("limit_of_detection", clinic, {"column": "sex"})


@pytest.mark.parametrize(
    "metric_id, params",
    [
        ("range", {"column": "nope"}),
        ("ks_test", {"column": "age", "group_column": "nope"}),
        ("kl_divergence", {"column": "age", "group_column": "sex", "bins": 0}),
        ("hill_numbers", {"column": "diagnosis", "q": "abc"}),
        ("page_hinkley", {"column": "age", "lam": "x"}),
        ("entropy", {"max_records": "a"}),
    ],
)
def test_input_faults_become_error_rows(clinic, metric_id, params):
    with pytest.raises(EvaluationError):
        evaluate(metric_id, clinic, params)
    row = evaluate_row(clinic, metric_id, "accuracy", params)
    assert row["scope"] == "unresolved"
    assert row["error"]


def test_metric_input_errors_surface_as_evaluation_errors(clinic):
    with pytest.raises(EvaluationError):
        evaluate("pearson", clinic, {"column_a": "const", "column_b": "age"})


def test_warnings_are_collected_on_the_result(clinic):
    res = evaluate("sampling_frequency", clinic)
    assert res.value == [250.0, 500.0]
    assert len(res.warnings) == 1
    assert "heterogeneous sampling rates" in res.warnings[0]


def test_default_parameters_are_echoed(clinic):
    res = evaluate("hill_numbers", clinic, {"column": "diagnosis"})
    assert res.params["q"] == 2.0
    res = evaluate("currency_heinrich", clinic)
    assert res.params["now_default"] == "newest timestamp"
    assert res.params["now"] == max(clinic.column("stamp"))


def test_second_dataset_route_names_both_datasets(clinic, clinic_b):
    res = evaluate("ks_test", clinic, {"column": "age"}, ds_b=clinic_b)
    assert res.scope == "pair:clinic,clinic_b"
    assert res.params["n_a"] == 38 and res.params["n_b"] == 38


def test_subsampled_metrics_are_seed_deterministic(clinic):
    params = {"column": "age", "group_column": "sex", "subsample": 10}
    first = evaluate("maximum_mean_discrepancy", clinic, params, seed=5)
    second = evaluate("maximum_mean_discrepancy", clinic, params, seed=5)
    assert first == second
    assert first.params["seed"] == 5


def test_signal_entropy_is_seed_deterministic(clinic):
    params = {"max_records": 3, "max_samples": 80}
    first = evaluate("entropy", clinic, params, seed=3)
    second = evaluate("entropy", clinic, params, seed=3)
    assert first == second
    assert first.params["form"] == "sample_entropy"
