"""Registry contract: inventory, lookup, rendering and evaluation dispatch."""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from dqeval import correlation as corr
from dqeval import measurement as meas
from dqeval.datamodel import ColumnSpec, Dataset, RatingsMatrix, SignalBlock
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
        ("range", {"column": ["age"]}),
        ("effective_sample_size", {"n": "100", "cluster_size": 5, "icc": 0.1}),
        ("effective_sample_size", {"cluster_size": "x", "icc": 0.1}),
        # parameter files that do not exist
        ("syntactic_accuracy", {"column": "code", "dictionary_file": "no/such/words.txt"}),
        ("frechet_inception_distance", {"embeddings_a": "no/such/a.txt", "embeddings_b": "no/such/b.txt"}),
        ("kernel_inception_distance", {"embeddings_a": "no/such/a.txt", "embeddings_b": "no/such/b.txt"}),
        # column lists that are not lists
        ("record_completeness", {"required": 5}),
        ("completeness", {"columns": 5}),
        ("littles_test", {"columns": 5}),
        ("prevalence_of_duplicates", {"keys": 5}),
        ("fleiss_kappa", {"rater_columns": 5}),
        # enum values the kernel does not know
        ("maximum_mean_discrepancy", {"column": "age", "group_column": "sex", "kernel": "lin"}),
        ("kl_divergence", {"column": "age", "group_column": "sex", "smoothing": "weird"}),
        ("jensen_shannon_divergence", {"column": "age", "group_column": "sex", "smoothing": "weird"}),
        ("population_stability_index", {"column": "age", "group_column": "sex", "smoothing": "weird"}),
        ("krippendorff_alpha", {"rater_columns": ["sex", "site"], "level": "weird"}),
        ("krippendorff_alpha", {"rater_columns": ["sex", "site"], "level": "interval"}),
        # a label hierarchy that is not a mapping of child lists
        ("label_granularity", {"hierarchy": 5}),
        ("label_granularity", {"hierarchy": {"root": 5}}),
        # strings and scalars where a list is expected
        ("syntactic_accuracy", {"column": "code", "dictionary": 5}),
        ("syntactic_accuracy", {"column": "code", "dictionary": "I21"}),
        ("label_granularity", {"hierarchy": "abc"}),
        ("label_granularity", {"hierarchy": {"a": "bc"}}),
        # a tolerance fraction that is not a finite positive number
        ("entropy", {"r": "nan"}),
        ("entropy", {"r": "inf"}),
        # integer parameters given a fraction, a bool or a string
        ("entropy", {"m": 2.7}),
        ("entropy", {"max_samples": 50.9}),
        ("kl_divergence", {"column": "age", "group_column": "sex", "bins": 7.9}),
        ("entropy", {"m": True}),
        ("littles_test", {"max_iter": "200"}),
        # bool parameters given anything but JSON true or false
        ("cramers_v", {"column_a": "sex", "column_b": "diagnosis", "bias_correction": "false"}),
        ("cramers_v", {"column_a": "sex", "column_b": "diagnosis", "bias_correction": "0"}),
        ("cramers_v", {"column_a": "sex", "column_b": "diagnosis", "bias_correction": 0}),
        # real parameters given NaN, inf or a bool
        ("hill_numbers", {"column": "diagnosis", "q": math.nan}),
        ("currency_heinrich", {"now": math.nan}),
        ("currency_heinrich", {"decline": math.inf}),
        ("maximum_mean_discrepancy", {"column": "age", "group_column": "sex", "bandwidth": math.nan}),
        ("wasserstein_distance", {"column": "age", "group_column": "sex", "order": math.inf}),
        ("page_hinkley", {"column": "age", "lam": math.nan}),
        ("littles_test", {"columns": ["age", "bp_a", "bp_b"], "tol": math.nan}),
        ("entropy", {"r": True}),
        ("hill_numbers", {"column": "diagnosis", "q": True}),
        # cluster-form effective sample size given NaN or inf
        ("effective_sample_size", {"n": math.inf, "cluster_size": 5, "icc": 0.1}),
        ("effective_sample_size", {"n": 100, "cluster_size": math.nan, "icc": 0.1}),
        ("effective_sample_size", {"n": 100, "cluster_size": math.inf, "icc": 0.1}),
        ("effective_sample_size", {"n": 100, "cluster_size": 5, "icc": math.nan}),
    ],
)
def test_input_faults_become_error_rows(clinic, metric_id, params):
    with pytest.raises(EvaluationError):
        evaluate(metric_id, clinic, params)
    row = evaluate_row(clinic, metric_id, "accuracy", params)
    assert row["scope"] == "unresolved"
    assert row["error"]


def test_integral_floats_are_read_as_ints(clinic):
    as_float = evaluate_row(clinic, "kl_divergence", "homogeneity",
                            {"column": "age", "group_column": "sex", "bins": 7.0})
    as_int = evaluate_row(clinic, "kl_divergence", "homogeneity",
                          {"column": "age", "group_column": "sex", "bins": 7})
    assert as_float == as_int
    assert as_float["params"]["bins"] == 7 and type(as_float["params"]["bins"]) is int


def test_real_parameters_read_ints_and_floats_alike(clinic):
    as_int = evaluate_row(clinic, "hill_numbers", "variety", {"column": "diagnosis", "q": 2})
    as_float = evaluate_row(clinic, "hill_numbers", "variety", {"column": "diagnosis", "q": 2.0})
    assert as_int == as_float
    assert type(as_int["params"]["q"]) is float


UNPARSABLE_PARAMETER_FILES = {
    "embeddings-text-not-numeric": ("kernel_inception_distance", b"a b\n"),
    "embeddings-header-without-d": ("kernel_inception_distance", b'{"n": 2}\n' + bytes(8)),
    "embeddings-header-not-json": ("frechet_inception_distance", b"{n: 2, d: 1}\n" + bytes(8)),
    "dictionary-not-utf8": ("syntactic_accuracy", b"I21\n\xff\xfe\n"),
}


@pytest.mark.parametrize("metric_id, content", UNPARSABLE_PARAMETER_FILES.values(), ids=UNPARSABLE_PARAMETER_FILES)
def test_parameter_files_that_do_not_parse_become_error_rows(clinic, tmp_path, metric_id, content):
    path = tmp_path / "given"
    path.write_bytes(content)
    if metric_id == "syntactic_accuracy":
        params = {"column": "code", "dictionary_file": str(path)}
    else:
        params = {"embeddings_a": str(path), "embeddings_b": str(path)}
    with pytest.raises(EvaluationError):
        evaluate(metric_id, clinic, params)
    row = evaluate_row(clinic, metric_id, "accuracy", params)
    assert row["scope"] == "unresolved"
    assert row["error"]


def test_non_mapping_hierarchy_is_an_error_row_on_the_shared_fixture(mixed_dataset):
    row = evaluate_row(mixed_dataset, "label_granularity", "accuracy", {"hierarchy": 5})
    assert row["scope"] == "unresolved"
    assert "label hierarchy" in row["error"]


def test_ordinal_value_column_splits_into_rank_codes_by_group():
    ds = Dataset(
        columns=(
            ColumnSpec("grade", "ordinal", ordinal_order=("lo", "mid", "hi")),
            ColumnSpec("site", "categorical"),
        ),
        cells={
            "grade": ("lo", "mid", "lo", None, "hi", "mid", "hi", "hi"),
            "site": ("a", "a", "a", "a", "b", "b", "b", "b"),
        },
    )
    res = evaluate("ks_test", ds, {"column": "grade", "group_column": "site"})
    expected = stats.ks_2samp([0.0, 1.0, 0.0], [2.0, 1.0, 2.0, 2.0], method="asymp")
    assert res.value == {"statistic": expected.statistic, "p_value": expected.pvalue}
    assert (res.params["n_a"], res.params["n_b"]) == (3, 4)


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


def _empty_numeric_table() -> Dataset:
    return Dataset(
        columns=(
            ColumnSpec("gone", "numerical"),
            ColumnSpec("age", "numerical"),
            ColumnSpec("site", "categorical"),
        ),
        cells={
            "gone": (None,) * 6,
            "age": (30.0, 41.0, 52.0, 38.0, 47.0, 66.0),
            "site": ("a", "a", "a", "b", "b", "b"),
        },
    )


@pytest.mark.parametrize(
    "metric_id", ["kl_divergence", "jensen_shannon_divergence", "population_stability_index", "chi_squared"]
)
@pytest.mark.parametrize(
    "params",
    [
        {"column_a": "gone", "column_b": "gone"},
        {"column_a": "age", "column_b": "gone"},
        {"column": "gone", "group_column": "site"},
    ],
    ids=["both-empty", "one-empty", "groups-empty"],
)
def test_binned_comparisons_of_missing_columns_are_error_rows(metric_id, params):
    row = evaluate_row(_empty_numeric_table(), metric_id, "homogeneity", params)
    assert row["scope"] == "unresolved"
    assert "cannot bin an empty sample" in row["error"]


def test_infinite_weight_is_an_ess_error_naming_it():
    ds = Dataset(columns=(ColumnSpec("w", "numerical"),), cells={"w": (1.0, float("inf"), 2.0)})
    with pytest.raises(EvaluationError, match="weights must be finite, got inf"):
        evaluate("effective_sample_size", ds, {"weight_column": "w"})


@pytest.mark.parametrize("width, height", [(2.7, 1.2), (-3.0, 5.0)])
def test_fractional_or_negative_pixel_dimensions_are_resolution_error_rows(width, height):
    ds = Dataset(
        columns=(ColumnSpec("w", "numerical"), ColumnSpec("h", "numerical")),
        cells={"w": (640.0, width), "h": (480.0, height)},
    )
    row = evaluate_row(ds, "resolution", "granularity", {"width_column": "w", "height_column": "h"})
    assert f"positive whole pixel dimensions, got {width}" in row["error"]


ORDER = ("low", "mid", "high")
RANK = {label: float(i) for i, label in enumerate(ORDER)}


def _ordinal_raters() -> tuple[Dataset, RatingsMatrix]:
    # alphabetical order (high < low < mid) is not the declared one
    r1 = ("low", "mid", "high", "low", "mid", "high")
    r2 = ("low", "mid", "mid", "mid", "high", "high")
    ds = Dataset(
        columns=tuple(
            ColumnSpec(name, "ordinal", role="annotation", ordinal_order=ORDER) for name in ("r1", "r2")
        ),
        cells={"r1": r1, "r2": r2},
    )
    codes = RatingsMatrix(tuple((RANK[a], RANK[b]) for a, b in zip(r1, r2)), rater_names=("r1", "r2"))
    return ds, codes


@pytest.mark.parametrize(
    "metric_id, params, kernel",
    [
        ("cohens_kappa", {"weights": "linear"}, lambda m: meas.cohens_kappa(m, weights="linear")),
        ("cohens_kappa", {"weights": "quadratic"}, lambda m: meas.cohens_kappa(m, weights="quadratic")),
        ("krippendorff_alpha", {"level": "ordinal"}, lambda m: meas.krippendorff_alpha(m, level="ordinal")),
        ("krippendorff_alpha", {"level": "interval"}, lambda m: meas.krippendorff_alpha(m, level="interval")),
        ("kendalls_w", {}, meas.kendalls_w),
        ("icc", {}, corr.icc),
    ],
)
def test_ordinal_rater_columns_are_coded_by_rank(metric_id, params, kernel):
    ds, codes = _ordinal_raters()
    assert evaluate(metric_id, ds, params).value == kernel(codes)


def test_ordinal_weighted_agreement_does_not_follow_alphabetical_order():
    ds, codes = _ordinal_raters()
    labels = RatingsMatrix(tuple(zip(ds.column("r1"), ds.column("r2"))))
    for metric_id, params, kernel in (
        ("cohens_kappa", {"weights": "linear"}, lambda m: meas.cohens_kappa(m, weights="linear")),
        ("krippendorff_alpha", {"level": "ordinal"}, lambda m: meas.krippendorff_alpha(m, level="ordinal")),
    ):
        assert evaluate(metric_id, ds, params).value != pytest.approx(kernel(labels))


def test_concordance_of_ordinal_columns_uses_rank_codes():
    ds, _ = _ordinal_raters()
    res = evaluate("concordance_cc", ds, {"column_a": "r1", "column_b": "r2"})
    assert res.value == corr.concordance_cc([RANK[v] for v in ds.column("r1")], [RANK[v] for v in ds.column("r2")])


# One column of each kind, none of them usable by every metric. Every
# column-bearing parameter is set to each column, and each pair of columns a
# metric reads together to the same column twice; whatever the metric makes
# of it, only an EvaluationError may leave evaluate.
PROBE_TABLE = Dataset(
    columns=(
        ColumnSpec("num", "numerical"),
        ColumnSpec("inf", "numerical"),
        ColumnSpec("ord", "ordinal", ordinal_order=ORDER),
        ColumnSpec("cat", "categorical"),
        ColumnSpec("when", "datetime"),
        ColumnSpec("pid", "identifier"),
        ColumnSpec("gone", "numerical"),
        ColumnSpec("r1", "ordinal", role="annotation", ordinal_order=ORDER),
        ColumnSpec("r2", "ordinal", role="annotation", ordinal_order=ORDER),
    ),
    cells={
        "num": (1.0, 2.0, 3.0, None, 5.0, 6.0, 7.0, 8.0),
        "inf": (1.0, float("inf"), 3.0, 4.0, None, 6.0, 7.0, 8.0),
        "ord": ("low", "mid", "high", "low", None, "mid", "high", "low"),
        "cat": ("a", "b", "a", "b", "a", None, "b", "a"),
        "when": tuple(f"2020-01-0{i}" for i in range(1, 9)),
        "pid": tuple(f"p{i % 4}" for i in range(8)),
        "gone": (None,) * 8,
        "r1": ("low", "mid", "high", "low", "mid", "mid", "high", "low"),
        "r2": ("mid", "mid", "high", "low", "low", "mid", "high", "high"),
    },
)
COLUMN_KEYS = (
    "column", "column_a", "column_b", "group_column", "measured_column", "reference_column",
    "value_column", "subject_column", "condition_column", "timestamp_column", "patient_column",
    "weight_column", "width_column", "height_column", "variable",
)
PAIRED_KEYS = (
    ("column_a", "column_b"), ("column", "group_column"), ("measured_column", "reference_column"),
    ("value_column", "subject_column"), ("value_column", "condition_column"),
    ("width_column", "height_column"),
)
LIST_KEYS = ("columns", "rater_columns", "keys", "required")


def _probe_params() -> list[dict]:
    names = PROBE_TABLE.column_names
    out: list[dict] = [{}]
    out += [{key: col} for key in COLUMN_KEYS for col in names]
    out += [{a: col, b: col} for a, b in PAIRED_KEYS for col in names]
    out += [{key: [col, col]} for key in LIST_KEYS for col in names]
    return out


def test_only_evaluation_errors_escape_evaluate():
    escapes = {}
    for c in all_cards():
        for params in _probe_params():
            try:
                evaluate(c.id, PROBE_TABLE, params)
            except EvaluationError:
                pass
            except Exception as exc:  # noqa: BLE001  (any other escape is the finding)
                escapes.setdefault(c.id, f"{params}: {exc!r}")
    assert escapes == {}
