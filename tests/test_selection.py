"""Decision-tree engine: structure conformance, traversal and provenance."""

from __future__ import annotations

import json

import pytest

from dqeval.cards import DIMENSIONS
from dqeval.registry import all_cards
from dqeval.harness import PTBXL_PROFILE
from dqeval.selection import (
    Leaf,
    Question,
    SelectionError,
    SubtreeRef,
    TreeFormatError,
    _library_version,
    builtin_trees,
    load_tree,
    parse_tree,
    rationale_document,
    select_all,
    traverse,
)

# One frozen structural transcription per built-in tree:
# questions: node id -> (question key, text, {answer label: child id})
# leaves: node id -> metric tuple  /  subtrees: node id -> (name, context)
TREE_STRUCTURES = {
    "accuracy": {
        "root": "ground_truth",
        "questions": {
            "ground_truth": (
                "ground_truth",
                "Does a ground truth exist?",
                {"yes": "accuracy_approach", "no": "blank_sample"},
            ),
            "blank_sample": (
                "blank_sample",
                "Is a blank sample measurement recorded?",
                {"yes": "leaf_detection_limits", "no": "leaf_entropy"},
            ),
            "accuracy_approach": (
                "accuracy_approach",
                "How shall accuracy be estimated against the ground truth?",
                {
                    "agreement of repeated measurements": "leaf_agreement",
                    "error against reference data": "leaf_instrument_error",
                    "compare distributions": "ref_distribution",
                    "correlate with reference": "ref_correlation",
                },
            ),
        },
        "leaves": {
            "leaf_agreement": ("bland_altman_cr", "repeatability_cv", "reproducibility_variance"),
            "leaf_instrument_error": ("systematic_error", "random_error"),
            "leaf_detection_limits": ("limit_of_detection", "limit_of_quantification"),
            "leaf_entropy": ("entropy",),
        },
        "subtrees": {
            "ref_distribution": ("distribution_metrics", "Repeated measurements as reference"),
            "ref_correlation": ("correlation_coefficients", "Reference data as second variable"),
        },
    },
    "noisy_labels": {
        "root": "annotator_count",
        "questions": {
            "annotator_count": (
                "annotator_count",
                "How many annotators have labeled your dataset?",
                {"one": "leaf_single_rater", "two": "annotation_type_two", "multiple": "annotation_type_multi"},
            ),
            "annotation_type_two": (
                "annotation_type",
                "What type are the annotations?",
                {
                    "categorical": "leaf_kappa_two",
                    "ordinal": "leaf_ranks_two",
                    "numerical": "ref_corr_two",
                    "segmentation": "leaf_overlap_two",
                    "rating distributions": "ref_dist_two",
                },
            ),
            "annotation_type_multi": (
                "annotation_type",
                "What type are the annotations?",
                {
                    "categorical": "leaf_kappa_multi",
                    "ordinal": "leaf_ranks_multi",
                    "numerical": "ref_corr_multi",
                    "segmentation": "leaf_overlap_multi",
                    "rating distributions": "ref_dist_multi",
                },
            ),
        },
        "leaves": {
            "leaf_single_rater": (),
            "leaf_kappa_two": ("cohens_kappa", "krippendorff_alpha"),
            "leaf_ranks_two": ("kendalls_w", "krippendorff_alpha"),
            "leaf_overlap_two": ("dice_score", "intersection_over_union"),
            "leaf_kappa_multi": ("fleiss_kappa", "krippendorff_alpha"),
            "leaf_ranks_multi": ("kendalls_w", "krippendorff_alpha"),
            "leaf_overlap_multi": ("dice_score", "intersection_over_union"),
        },
        "subtrees": {
            "ref_corr_two": ("correlation_coefficients", "Ratings as paired variables"),
            "ref_dist_two": ("distribution_metrics", "Rating distributions compared"),
            "ref_corr_multi": ("correlation_coefficients", "Ratings as paired variables"),
            "ref_dist_multi": ("distribution_metrics", "Rating distributions compared"),
        },
    },
    "completeness": {
        "root": "completeness_interest",
        "questions": {
            "completeness_interest": (
                "completeness_interest",
                "Which notion of completeness matters for the use case?",
                {"general": "leaf_general", "patient-level": "leaf_patient", "record": "leaf_record"},
            ),
        },
        "leaves": {
            "leaf_general": ("completeness",),
            "leaf_patient": ("patient_level_completeness",),
            "leaf_record": ("record_completeness",),
        },
        "subtrees": {},
    },
    "syntactic_consistency": {
        "root": "leaf_syntactic",
        "questions": {},
        "leaves": {"leaf_syntactic": ("syntactic_accuracy",)},
        "subtrees": {},
    },
    "homogeneity": {
        "root": "ref_dist",
        "questions": {},
        "leaves": {},
        "subtrees": {"ref_dist": ("distribution_metrics", "Internal distribution as reference")},
    },
    "distribution_drift": {
        "root": "drift_focus",
        "questions": {
            "drift_focus": (
                "drift_focus",
                "Shall drift be detected within a sequential signal or between time intervals?",
                {"signal": "leaf_page_hinkley", "distribution": "ref_dist"},
            ),
        },
        "leaves": {"leaf_page_hinkley": ("page_hinkley",)},
        "subtrees": {"ref_dist": ("distribution_metrics", "Time intervals as reference")},
    },
    "dataset_size": {
        "root": "leaf_size",
        "questions": {},
        "leaves": {"leaf_size": ("dataset_size",)},
        "subtrees": {},
    },
    "granularity": {
        "root": "data_modality",
        "questions": {
            "data_modality": (
                "data_modality",
                "Which data modality carries the relevant level of detail?",
                {
                    "tabular": "leaf_features",
                    "time series": "leaf_sampling",
                    "image": "leaf_resolution",
                    "hierarchical labels": "leaf_labels",
                },
            ),
        },
        "leaves": {
            "leaf_features": ("granularity",),
            "leaf_sampling": ("sampling_frequency",),
            "leaf_resolution": ("resolution",),
            "leaf_labels": ("label_granularity",),
        },
        "subtrees": {},
    },
    "variety": {
        "root": "ref_dist",
        "questions": {},
        "leaves": {},
        "subtrees": {"ref_dist": ("distribution_metrics", "Target distribution as reference")},
    },
    "target_class_balance": {
        "root": "ml_task",
        "questions": {
            "ml_task": (
                "ml_task",
                "Is the ML task classification or regression?",
                {"classification": "balance_focus", "regression": "ref_dist_regression"},
            ),
            "balance_focus": (
                "balance_focus",
                "What shall the balance assessment focus on?",
                {
                    "general estimation": "leaf_ratio",
                    "distribution shape": "leaf_degree",
                    "full distribution comparison": "ref_dist_classes",
                },
            ),
        },
        "leaves": {
            "leaf_ratio": ("generalized_imbalance_ratio",),
            "leaf_degree": ("imbalance_degree", "lr_imbalance_degree"),
        },
        "subtrees": {
            "ref_dist_classes": ("distribution_metrics", "Uniform class distribution as reference"),
            "ref_dist_regression": ("distribution_metrics", "Target distribution as reference"),
        },
    },
    "currency": {
        "root": "expiration_date",
        "questions": {
            "expiration_date": (
                "expiration_date",
                "Does the data have an expiration date?",
                {"yes": "decay_shape", "no": "update_frequency_known"},
            ),
            "decay_shape": (
                "decay_shape",
                "What shape does the expected decay take?",
                {"linear": "leaf_li", "polynomial": "leaf_ballou"},
            ),
            "update_frequency_known": (
                "update_frequency_known",
                "Is the update frequency of the data known?",
                {"yes": "leaf_hinrichs", "no": "leaf_heinrich"},
            ),
        },
        "leaves": {
            "leaf_li": ("currency_li",),
            "leaf_ballou": ("currency_ballou",),
            "leaf_hinrichs": ("currency_hinrichs",),
            "leaf_heinrich": ("currency_heinrich",),
        },
        "subtrees": {},
    },
    "uniqueness": {
        "root": "identicality",
        "questions": {
            "identicality": (
                "identicality",
                "Are duplicates expected to be fully identical or logically identical records?",
                {"fully identical": "leaf_duplicates", "logically identical": "sampling_design_known"},
            ),
            "sampling_design_known": (
                "sampling_design_known",
                "Are sampling weights or cluster design parameters available?",
                {"yes": "leaf_ess", "no": "leaf_duplicates_fallback"},
            ),
        },
        "leaves": {
            "leaf_duplicates": ("prevalence_of_duplicates",),
            "leaf_ess": ("effective_sample_size",),
            "leaf_duplicates_fallback": ("prevalence_of_duplicates",),
        },
        "subtrees": {},
    },
    "informative_missingness": {
        "root": "missingness_mechanism",
        "questions": {
            "missingness_mechanism": (
                "missingness_mechanism",
                "Which missingness mechanism shall be determined?",
                {"MCAR": "leaf_mcar", "MAR or MNAR": "leaf_dropout", "unknown": "leaf_both"},
            ),
        },
        "leaves": {
            "leaf_mcar": ("littles_test",),
            "leaf_dropout": ("informative_dropout",),
            "leaf_both": ("littles_test", "informative_dropout"),
        },
        "subtrees": {},
    },
    "feature_importance": {
        "root": "ref_corr",
        "questions": {},
        "leaves": {},
        "subtrees": {"ref_corr": ("correlation_coefficients", "Features against target")},
    },
    "distribution_metrics": {
        "root": "dist_aspect",
        "questions": {
            "dist_aspect": (
                "dist_aspect",
                "Shall a single distribution be characterized or two distributions compared?",
                {"single": "variable_type", "compare": "comparison_approach"},
            ),
            "variable_type": (
                "variable_type",
                "What type is the variable?",
                {"numerical": "leaf_numerical", "categorical": "leaf_categorical"},
            ),
            "comparison_approach": (
                "comparison_approach",
                "Which mathematical approach fits the question?",
                {"distance": "leaf_distance", "divergence": "leaf_divergence", "statistical test": "leaf_test"},
            ),
        },
        "leaves": {
            "leaf_numerical": ("range", "interquartile_range", "mean_std"),
            "leaf_categorical": ("hill_numbers",),
            "leaf_distance": (
                "cohens_d", "wasserstein_distance", "energy_distance",
                "maximum_mean_discrepancy", "frechet_inception_distance",
                "kernel_inception_distance",
            ),
            "leaf_divergence": ("kl_divergence", "jensen_shannon_divergence", "population_stability_index"),
            "leaf_test": ("ks_test", "chi_squared", "mann_whitney_u", "anderson_darling_k", "epps_singleton"),
        },
        "subtrees": {},
    },
    "correlation_coefficients": {
        "root": "data_type",
        "questions": {
            "data_type": (
                "data_type",
                "What type are the variables?",
                {"ordinal": "leaf_ordinal", "categorical": "leaf_categorical", "numerical": "repeated_measurement_count"},
            ),
            "repeated_measurement_count": (
                "repeated_measurement_count",
                "How many repeated measurements per item exist?",
                {"two": "leaf_two", "multiple": "leaf_multi"},
            ),
        },
        "leaves": {
            "leaf_ordinal": ("kendall_tau", "spearman", "goodman_kruskal_gamma"),
            "leaf_categorical": ("cramers_v",),
            "leaf_two": ("concordance_cc", "pearson"),
            "leaf_multi": ("icc",),
        },
        "subtrees": {},
    },
}

PTBXL_METRICS = (
    "completeness", "patient_level_completeness", "entropy", "syntactic_accuracy",
    "cohens_d", "wasserstein_distance", "energy_distance", "maximum_mean_discrepancy",
    "frechet_inception_distance", "kernel_inception_distance", "dataset_size",
    "granularity", "sampling_frequency", "range", "interquartile_range", "mean_std",
    "hill_numbers", "generalized_imbalance_ratio", "currency_heinrich",
    "prevalence_of_duplicates", "concordance_cc", "pearson",
)


def _structure(tree):
    questions, leaves, subtrees = {}, {}, {}
    for node_id, node in tree.nodes.items():
        if isinstance(node, Question):
            questions[node_id] = (node.question_key, node.text, dict(node.answers))
        elif isinstance(node, SubtreeRef):
            subtrees[node_id] = (node.subtree, node.context)
        else:
            leaves[node_id] = node.metrics
    return {"root": tree.root, "questions": questions, "leaves": leaves, "subtrees": subtrees}


def test_builtin_trees_inventory():
    trees = builtin_trees()
    assert len(trees) == 16
    assert set(trees) == set(DIMENSIONS) | {"distribution_metrics", "correlation_coefficients"}
    assert builtin_trees() is trees


@pytest.mark.parametrize("name", sorted(TREE_STRUCTURES))
def test_builtin_tree_matches_transcription(name):
    assert _structure(builtin_trees()[name]) == TREE_STRUCTURES[name]


def test_every_metric_is_reachable_from_some_tree():
    trees = builtin_trees()
    reachable = set()
    for tree in trees.values():
        for node in tree.nodes.values():
            if isinstance(node, Leaf):
                reachable.update(node.metrics)
    assert reachable == {c.id for c in all_cards()}


# --- tree parsing ------------------------------------------------------------


def _tree_doc(**overrides):
    doc = {
        "dimension": "accuracy",
        "root": "q",
        "nodes": [{"id": "q", "text": "Pick one?", "answers": {"yes": "a", "no": "b"}}],
        "leaves": [{"id": "a", "metrics": ["entropy"]}, {"id": "b", "metrics": []}],
    }
    doc.update(overrides)
    return doc


def test_parse_tree_accepts_minimal_document():
    tree = parse_tree(_tree_doc())
    sel = traverse(tree, {"q": "yes"})
    assert sel.metrics == ("entropy",)


def test_parse_tree_rejects_duplicate_node_ids():
    doc = _tree_doc(leaves=[{"id": "q", "metrics": []}, {"id": "a", "metrics": []}, {"id": "b", "metrics": []}])
    with pytest.raises(TreeFormatError, match="duplicate node id"):
        parse_tree(doc)


def test_parse_tree_rejects_unknown_subtree():
    doc = _tree_doc(leaves=[{"id": "a", "subtree": "does_not_exist"}, {"id": "b", "metrics": []}])
    with pytest.raises(TreeFormatError, match="unknown subtree"):
        parse_tree(doc)


def test_parse_tree_rejects_subtree_reference_inside_a_subtree():
    doc = _tree_doc(
        dimension="distribution_metrics",
        leaves=[{"id": "a", "subtree": "correlation_coefficients"}, {"id": "b", "metrics": []}],
    )
    with pytest.raises(TreeFormatError, match="must not reference subtrees"):
        parse_tree(doc)


def test_parse_tree_rejects_unknown_metric_when_registry_given():
    doc = _tree_doc(leaves=[{"id": "a", "metrics": ["made_up"]}, {"id": "b", "metrics": []}])
    with pytest.raises(TreeFormatError, match="unknown metric"):
        parse_tree(doc, known_metrics={"entropy"})


def test_parse_tree_rejects_dangling_answer_target():
    doc = _tree_doc(nodes=[{"id": "q", "text": "Pick?", "answers": {"yes": "a", "no": "ghost"}}])
    with pytest.raises(TreeFormatError, match="missing node"):
        parse_tree(doc)


def test_parse_tree_rejects_missing_root_and_empty_question():
    with pytest.raises(TreeFormatError, match="root"):
        parse_tree(_tree_doc(root="ghost"))
    doc = _tree_doc(nodes=[{"id": "q", "text": "Pick?", "answers": {}}])
    with pytest.raises(TreeFormatError, match="no answers"):
        parse_tree(doc)


def test_load_tree_round_trips_a_file(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(_tree_doc()), encoding="utf-8")
    tree = load_tree(path)
    assert traverse(tree, {"q": "yes"}).metrics == ("entropy",)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_tree_doc(leaves=[{"id": "a", "metrics": ["nope"]}, {"id": "b", "metrics": []}])))
    with pytest.raises(TreeFormatError, match="unknown metric"):
        load_tree(bad)


def test_load_tree_rejects_nan(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(_tree_doc(weight=float("nan"))), encoding="utf-8")
    with pytest.raises(ValueError, match="NaN is not a JSON value"):
        load_tree(path)


# --- traversal ---------------------------------------------------------------


def _tree(name):
    return builtin_trees()[name]


def test_accuracy_without_ground_truth_or_blank_sample_selects_entropy():
    sel = traverse(_tree("accuracy"), {"ground_truth": "no", "blank_sample": "no"})
    assert sel.metrics == ("entropy",)
    assert sel.trace == (("ground_truth", "no"), ("blank_sample", "no"))


def test_accuracy_with_blank_sample_selects_detection_limits():
    sel = traverse(_tree("accuracy"), {"ground_truth": "no", "blank_sample": "yes"})
    assert sel.metrics == ("limit_of_detection", "limit_of_quantification")


def test_accuracy_agreement_route_keeps_leaf_order():
    sel = traverse(
        _tree("accuracy"),
        {"ground_truth": "yes", "accuracy_approach": "agreement of repeated measurements"},
    )
    assert sel.metrics == ("bland_altman_cr", "repeatability_cv", "reproducibility_variance")


def test_accuracy_distribution_route_expands_subtree_with_context():
    profile = {
        "ground_truth": "yes",
        "accuracy_approach": "compare distributions",
        "dist_aspect": "compare",
        "comparison_approach": "divergence",
    }
    sel = traverse(_tree("accuracy"), profile, subtrees=builtin_trees())
    assert sel.metrics == ("kl_divergence", "jensen_shannon_divergence", "population_stability_index")
    assert len(sel.expansions) == 1
    exp = sel.expansions[0]
    assert exp.subtree == "distribution_metrics"
    assert exp.context == "Repeated measurements as reference"
    assert exp.metrics == sel.metrics


def test_subtree_without_expansion_mapping_is_recorded_empty():
    sel = traverse(_tree("homogeneity"), {"dist_aspect": "single", "variable_type": "numerical"})
    assert sel.metrics == ()
    assert sel.expansions[0].subtree == "distribution_metrics"
    assert sel.expansions[0].metrics == ()


@pytest.mark.parametrize(
    "profile, expected",
    [
        ({"expiration_date": "yes", "decay_shape": "linear"}, "currency_li"),
        ({"expiration_date": "yes", "decay_shape": "polynomial"}, "currency_ballou"),
        ({"expiration_date": "no", "update_frequency_known": "yes"}, "currency_hinrichs"),
        ({"expiration_date": "no", "update_frequency_known": "no"}, "currency_heinrich"),
    ],
)
def test_currency_tree_branches(profile, expected):
    assert traverse(_tree("currency"), profile).metrics == (expected,)


def test_single_annotator_records_reason_instead_of_metrics():
    sel = traverse(_tree("noisy_labels"), {"annotator_count": "one"})
    assert sel.metrics == ()
    assert sel.reasons == ("multiple raters required",)


def test_two_annotators_share_the_annotation_type_question_key():
    sel = traverse(_tree("noisy_labels"), {"annotator_count": "two", "annotation_type": "categorical"})
    assert sel.metrics == ("cohens_kappa", "krippendorff_alpha")
    sel = traverse(_tree("noisy_labels"), {"annotator_count": "multiple", "annotation_type": "categorical"})
    assert sel.metrics == ("fleiss_kappa", "krippendorff_alpha")


def test_partial_mode_reports_unanswered_question_and_recommendations():
    sel = traverse(_tree("completeness"), {})
    assert sel.metrics == ()
    assert sel.unanswered == ("completeness_interest",)
    assert sel.recommended == (
        "completeness", "patient_level_completeness", "record_completeness",
    )


def test_strict_mode_raises_on_unanswered_question():
    with pytest.raises(SelectionError, match="completeness_interest.*general"):
        traverse(_tree("completeness"), {}, mode="strict")


def test_unknown_answer_lists_the_valid_options():
    with pytest.raises(SelectionError, match="sometimes.*yes"):
        traverse(_tree("accuracy"), {"ground_truth": "sometimes"})


def test_unknown_mode_is_rejected():
    with pytest.raises(SelectionError, match="unknown traversal mode"):
        traverse(_tree("accuracy"), {}, mode="eager")


def test_list_valued_answers_follow_every_matching_branch():
    sel = traverse(
        _tree("completeness"), {"completeness_interest": ["general", "patient-level"]}
    )
    assert sel.metrics == ("completeness", "patient_level_completeness")
    assert sel.trace == (
        ("completeness_interest", "general"),
        ("completeness_interest", "patient-level"),
    )


def test_answers_match_case_and_separator_insensitively():
    sel = traverse(_tree("completeness"), {"completeness_interest": "Patient Level"})
    assert sel.metrics == ("patient_level_completeness",)
    sel = traverse(_tree("uniqueness"), {"identicality": "FULLY-IDENTICAL"})
    assert sel.metrics == ("prevalence_of_duplicates",)


def test_dimension_scoped_answers_override_plain_keys():
    trees = builtin_trees()
    profile = {
        "dist_aspect": "single",
        "variable_type": "numerical",
        "homogeneity:dist_aspect": "compare",
        "homogeneity:comparison_approach": "statistical test",
    }
    variety = traverse(trees["variety"], profile, subtrees=trees)
    homogeneity = traverse(trees["homogeneity"], profile, subtrees=trees)
    assert variety.metrics == ("range", "interquartile_range", "mean_std")
    assert homogeneity.metrics == (
        "ks_test", "chi_squared", "mann_whitney_u", "anderson_darling_k", "epps_singleton",
    )


# --- select_all and the case-study profile -----------------------------------


def test_select_all_covers_every_dimension_once():
    result = select_all({})
    assert tuple(s.dimension for s in result.selections) == tuple(DIMENSIONS)
    always_computable = {"dataset_size", "syntactic_consistency"}
    for s in result.selections:
        if s.dimension in always_computable:
            assert s.metrics and not s.unanswered
        else:
            assert not s.metrics and s.unanswered


def test_select_all_on_the_case_study_profile():
    result = select_all(PTBXL_PROFILE)
    assert result.metrics() == PTBXL_METRICS
    assert result.for_dimension("accuracy").metrics == ("entropy",)
    noisy = result.for_dimension("noisy_labels")
    assert noisy.metrics == () and noisy.reasons == ("multiple raters required",)
    drift = result.for_dimension("distribution_drift")
    assert drift.unanswered == ("drift_focus",) and drift.recommended == ("page_hinkley",)
    gaps = result.for_dimension("informative_missingness")
    assert gaps.recommended == ("littles_test", "informative_dropout")


def test_select_all_is_deterministic():
    assert select_all(PTBXL_PROFILE) == select_all(PTBXL_PROFILE)


def test_subtree_expansions_carry_per_dimension_contexts():
    result = select_all(PTBXL_PROFILE)
    homogeneity = result.for_dimension("homogeneity")
    assert homogeneity.expansions[0].context == "Internal distribution as reference"
    variety = result.for_dimension("variety")
    assert variety.expansions[0].context == "Target distribution as reference"
    assert variety.metrics == ("range", "interquartile_range", "mean_std", "hill_numbers")


# --- rationale document ------------------------------------------------------


def test_rationale_document_round_trips_and_embeds_the_trace():
    sel = select_all(PTBXL_PROFILE)
    doc = rationale_document(sel, params={"hill_numbers": {"q": 2}}, timestamp="2024-01-01T00:00:00+00:00")
    assert json.loads(json.dumps(doc)) == doc
    assert doc["profile"] == dict(PTBXL_PROFILE)
    assert doc["parameters"] == {"hill_numbers": {"q": 2}}
    assert doc["generated_at"] == "2024-01-01T00:00:00+00:00"
    by_dim = {entry["dimension"]: entry for entry in doc["selections"]}
    for s in sel.selections:
        recorded = [(t["question"], t["answer"]) for t in by_dim[s.dimension]["trace"]]
        assert recorded == list(s.trace)


def test_rationale_document_is_deterministic_up_to_timestamp():
    sel = select_all(PTBXL_PROFILE)
    a = rationale_document(sel, timestamp="2024-01-01T00:00:00+00:00")
    b = rationale_document(sel, timestamp="2024-01-01T00:00:00+00:00")
    assert a == b


def test_ask_stores_subtree_answers_scoped_and_main_tree_answers_bare():
    replies = {
        "accuracy_approach": "compare distributions",
        "dist_aspect": "compare",
        "comparison_approach": "divergence",
    }
    asked = []

    def ask(dim, question):
        asked.append((dim, question.question_key))
        return replies[question.question_key]

    profile = {"ground_truth": "yes"}
    sel = traverse(_tree("accuracy"), profile, subtrees=builtin_trees(), ask=ask)
    assert asked == [("accuracy", key) for key in replies]
    assert profile == {
        "ground_truth": "yes",
        "accuracy_approach": "compare distributions",
        "accuracy:dist_aspect": "compare",
        "accuracy:comparison_approach": "divergence",
    }
    assert sel.metrics == ("kl_divergence", "jensen_shannon_divergence", "population_stability_index")


def test_ask_answers_are_reused_and_branches_walked_in_label_order():
    asked = []

    def ask(dim, question):
        asked.append(question.question_key)
        return {"annotator_count": ["multiple", "two"], "annotation_type": "categorical"}[question.question_key]

    sel = traverse(_tree("noisy_labels"), {}, ask=ask)
    assert asked == ["annotator_count", "annotation_type"]
    assert sel.trace[0] == ("annotator_count", "two")
    assert sel.metrics == ("cohens_kappa", "krippendorff_alpha", "fleiss_kappa")


def test_select_all_with_skipping_ask_matches_the_empty_profile():
    profile: dict = {}
    asked = []
    result = select_all(profile, ask=lambda dim, q: asked.append((dim, q.question_key)))
    assert result == select_all({})
    assert profile == {}
    assert len(asked) == sum(len(s.unanswered) for s in result.selections)
    with pytest.raises(SelectionError, match="unanswered"):
        select_all({}, mode="strict", ask=lambda dim, q: None)


def test_package_version_is_the_library_version():
    import dqeval
    from dqeval import __version__

    assert isinstance(__version__, str)
    assert __version__ == dqeval.__version__ == _library_version()
