"""Card data for the 60-metric library.

Pure data: each entry is a MetricCard, validated when it is built.
Evaluator dispatch lives in registry.py, so editing a card never touches
code.

Dimension marks follow the group-level mapping: every distribution metric
serves the six distribution-driven dimensions and every correlation
coefficient serves the three correlation-driven ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

DIMENSIONS = (
    "completeness",
    "accuracy",
    "noisy_labels",
    "syntactic_consistency",
    "homogeneity",
    "distribution_drift",
    "dataset_size",
    "granularity",
    "variety",
    "target_class_balance",
    "currency",
    "uniqueness",
    "informative_missingness",
    "feature_importance",
)

GROUPS = (
    "measurement_process",
    "consistency",
    "representativeness",
    "informativeness",
    "timeliness",
    "distribution_metrics",
    "correlation_coefficients",
)

PITFALL_TAGS = (
    "parameter_choice",
    "outlier_sensitivity",
    "missing_value_sensitivity",
    "small_sample_instability",
    "imbalance_instability",
)

MODALITIES = ("tabular", "image", "time-series", "text", "multimodal")
VARIABLE_TYPES = ("numerical", "categorical", "ordinal")

_DIST_DIMS = (
    "accuracy",
    "noisy_labels",
    "homogeneity",
    "distribution_drift",
    "variety",
    "target_class_balance",
)
_CORR_DIMS = ("accuracy", "noisy_labels", "feature_importance")


class RegistryError(ValueError):
    """Unknown ids or invalid filter values."""


@dataclass(frozen=True)
class Applicability:
    modalities: tuple[str, ...]
    variable_types: tuple[str, ...]

    def __post_init__(self) -> None:
        for m in self.modalities:
            if m not in MODALITIES:
                raise RegistryError(f"unknown modality {m!r}")
        for v in self.variable_types:
            if v not in VARIABLE_TYPES:
                raise RegistryError(f"unknown variable type {v!r}")


@dataclass(frozen=True)
class MetricCard:
    id: str
    name: str
    synonyms: tuple[str, ...]
    summary: str
    definition: str
    value_range: str
    interpretation: str
    dimensions: tuple[str, ...]
    group: str
    references: tuple[str, ...]
    example: str
    relations: tuple[str, ...]
    applicability: Applicability
    prerequisites: tuple[str, ...]
    pitfall_tags: tuple[str, ...]
    pitfalls: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.group not in GROUPS:
            raise RegistryError(f"{self.id}: unknown group {self.group!r}")
        if not self.dimensions:
            raise RegistryError(f"{self.id}: dimensions must be nonempty")
        for d in self.dimensions:
            if d not in DIMENSIONS:
                raise RegistryError(f"{self.id}: unknown dimension {d!r}")
        for t in self.pitfall_tags:
            if t not in PITFALL_TAGS:
                raise RegistryError(f"{self.id}: unknown pitfall tag {t!r}")

    def as_dict(self) -> dict[str, Any]:
        """The card as plain JSON data, tuples as lists, in field order."""
        return asdict(self, dict_factory=_listed)


def _listed(items: list[tuple[str, Any]]) -> dict[str, Any]:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


def _card(
    id: str,
    name: str,
    group: str,
    dimensions: tuple[str, ...],
    summary: str,
    definition: str,
    value_range: str,
    interpretation: str,
    references: tuple[str, ...],
    *,
    synonyms: tuple[str, ...] = (),
    example: str = "",
    relations: tuple[str, ...] = (),
    modalities: tuple[str, ...] = ("tabular", "time-series"),
    variable_types: tuple[str, ...] = ("numerical",),
    prerequisites: tuple[str, ...] = (),
    pitfall_tags: tuple[str, ...] = (),
    pitfalls: tuple[str, ...] = (),
) -> MetricCard:
    return MetricCard(
        id, name, synonyms, summary, definition, value_range, interpretation, dimensions,
        group, references, example, relations, Applicability(modalities, variable_types),
        prerequisites, pitfall_tags, pitfalls,
    )


CARDS: tuple[MetricCard, ...] = (
    # --- measurement process: accuracy ---------------------------------------
    _card(
        "entropy",
        "Entropy",
        "measurement_process",
        ("accuracy",),
        "Quantifies the irregularity of a signal or the spread of a "
        "categorical distribution, serving as a proxy for measurement noise.",
        "Shannon form: H = -sum_i p_i ln p_i over category or bin "
        "probabilities. For physiological series the sample entropy "
        "-ln(A/B) is used, where B counts template pairs of length m within "
        "tolerance r*std and A the same for length m+1, self-matches "
        "excluded.",
        "[0, inf)",
        "0 for a constant signal or single category; larger values mean "
        "more irregularity or noise.",
        ("shannon1948communication", "richman2000physiological"),
        synonyms=("sample entropy", "Shannon entropy"),
        example="Mean sample entropy per ECG lead, averaged over records, "
        "flags recordings dominated by noise; unusually high per-device "
        "means point at faulty acquisition hardware.",
        relations=("hill_numbers", "kl_divergence"),
        modalities=("tabular", "time-series", "image"),
        variable_types=("numerical", "categorical"),
        prerequisites=(
            "sample entropy needs the embedding length m and tolerance r "
            "(defaults m=2, r=0.2*std)",
            "Shannon entropy needs categories or an explicit binning",
        ),
        pitfall_tags=("parameter_choice", "small_sample_instability"),
        pitfalls=(
            "sample entropy is undefined when too few templates match",
            "binning choice changes Shannon entropy on continuous data",
        ),
    ),
    _card(
        "limit_of_detection",
        "Limit of detection",
        "measurement_process",
        ("accuracy",),
        "Smallest analyte level reliably distinguishable from a blank "
        "measurement.",
        "LoD = mean(blanks) + 3.3 * sd(blanks).",
        "(-inf, inf), units of the measurand",
        "Measurements below the LoD cannot be told apart from background.",
        ("armbruster2008limit",),
        synonyms=("detection limit", "LoD"),
        example="Laboratory assays report LoD so that concentrations below "
        "it are treated as censored rather than as zeros.",
        relations=("limit_of_quantification",),
        modalities=("tabular",),
        prerequisites=("a dedicated blank-sample measurement series (n >= 3)",),
        pitfall_tags=("parameter_choice", "outlier_sensitivity", "small_sample_instability"),
        pitfalls=(
            "the 3.3 multiplier is a convention; record it with the result",
            "a single outlying blank inflates the limit",
        ),
    ),
    _card(
        "limit_of_quantification",
        "Limit of quantification",
        "measurement_process",
        ("accuracy",),
        "Smallest analyte level measurable with acceptable precision.",
        "LoQ = mean(blanks) + 10 * sd(blanks).",
        "(-inf, inf), units of the measurand; LoQ >= LoD",
        "Values between LoD and LoQ are detectable but not reliably "
        "quantifiable.",
        ("armbruster2008limit",),
        synonyms=("quantitation limit", "LoQ"),
        example="Concentrations between LoD and LoQ are flagged as "
        "semi-quantitative in assay validation reports.",
        relations=("limit_of_detection",),
        modalities=("tabular",),
        prerequisites=("a dedicated blank-sample measurement series (n >= 3)",),
        pitfall_tags=("parameter_choice", "outlier_sensitivity", "small_sample_instability"),
        pitfalls=("the 10x multiplier is a convention; record it with the result",),
    ),
    _card(
        "systematic_error",
        "Systematic error in instruments",
        "measurement_process",
        ("accuracy",),
        "Mean bias of an instrument against gold-standard reference values.",
        "bias = mean(measured - reference) over paired observations.",
        "(-inf, inf), units of the measurand",
        "0 means unbiased; the sign gives the direction of the bias.",
        ("jcgm2008vim",),
        synonyms=("bias",),
        example="Device-versus-reference comparisons report the mean "
        "difference as the calibration offset to subtract.",
        relations=("random_error", "bland_altman_cr"),
        modalities=("tabular", "time-series"),
        prerequisites=("paired measurements of the same quantity by device and reference",),
        pitfall_tags=("outlier_sensitivity",),
        pitfalls=("averaging hides a bias that changes sign across the range",),
    ),
    _card(
        "random_error",
        "Random error in instruments",
        "measurement_process",
        ("accuracy",),
        "Spread of instrument readings around the reference after the bias "
        "is removed.",
        "sd(measured - reference) over paired observations (n-1 "
        "denominator).",
        "[0, inf), units of the measurand",
        "0 means perfectly reproducible readings; larger is noisier.",
        ("jcgm2008vim",),
        synonyms=("precision error",),
        example="Reported next to the bias in method-comparison studies to "
        "separate noise from calibration offset.",
        relations=("systematic_error", "repeatability_cv"),
        modalities=("tabular", "time-series"),
        prerequisites=("paired measurements of the same quantity by device and reference",),
        pitfall_tags=("outlier_sensitivity", "small_sample_instability"),
    ),
    _card(
        "bland_altman_cr",
        "Bland-Altman coefficient of repeatability",
        "measurement_process",
        ("accuracy",),
        "Bound below which the absolute difference of two repeated "
        "measurements falls for about 95% of pairs.",
        "CR = 1.96 * sd(x1 - x2) over repeated measurement pairs.",
        "[0, inf), units of the measurand",
        "Smaller is better; 0 means exactly repeatable measurements.",
        ("bland1986statistical",),
        synonyms=("coefficient of repeatability",),
        example="Method-agreement studies draw the limits of agreement at "
        "+-CR around the mean difference.",
        relations=("repeatability_cv", "systematic_error"),
        modalities=("tabular",),
        prerequisites=("two measurements per subject under identical conditions",),
        pitfall_tags=("outlier_sensitivity", "small_sample_instability"),
        pitfalls=("assumes differences are roughly normal and size-independent",),
    ),
    _card(
        "repeatability_cv",
        "Repeatability coefficient of variation",
        "measurement_process",
        ("accuracy",),
        "Within-subject measurement spread relative to the overall mean "
        "level.",
        "CV = sqrt(mean_i var_i) / grand mean, with var_i the per-subject "
        "variance of repeats.",
        "[0, inf)",
        "0 means identical repeats; often reported as a percentage.",
        ("bland1996statistics",),
        synonyms=("within-subject CV",),
        example="Imaging biomarkers quote the repeatability CV from "
        "test-retest scans to set minimal detectable change.",
        relations=("bland_altman_cr", "reproducibility_variance"),
        modalities=("tabular",),
        prerequisites=(">= 2 repeats per subject", "a positive measurement scale"),
        pitfall_tags=("outlier_sensitivity", "small_sample_instability"),
        pitfalls=("meaningless when the grand mean is near zero",),
    ),
    _card(
        "reproducibility_variance",
        "Reproducibility variance",
        "measurement_process",
        ("accuracy",),
        "Splits measurement variance into within-condition (repeatability) "
        "and between-condition (laboratory, device, operator) parts.",
        "One-way ANOVA components: s_r2 = MS_within; s_L2 = "
        "(MS_between - MS_within)/n0 clipped at 0; s_R2 = s_r2 + s_L2.",
        "[0, inf) per component; s_R2 >= s_r2",
        "A large s_L2 share means conditions disagree systematically.",
        ("iso5725",),
        example="Interlaboratory trials report s_r and s_R so that a lab "
        "can tell its own noise from the between-lab spread.",
        relations=("repeatability_cv", "icc"),
        modalities=("tabular",),
        prerequisites=(">= 2 conditions with >= 2 repeats each",),
        pitfall_tags=("small_sample_instability", "imbalance_instability"),
        pitfalls=("unbalanced designs need the average-group-size approximation",),
    ),
    # --- measurement process: noisy labels -----------------------------------
    _card(
        "cohens_kappa",
        "Cohen's kappa",
        "measurement_process",
        ("noisy_labels",),
        "Chance-corrected agreement between two raters assigning class "
        "labels.",
        "kappa = (p_o - p_e) / (1 - p_e), with p_o the observed agreement "
        "and p_e the agreement expected from the rater marginals. Weighted "
        "variants score partial credit by category distance.",
        "[-1, 1]",
        "1 is perfect agreement, 0 chance level, negative values "
        "systematic disagreement.",
        ("cohen1960coefficient", "cohen1968weighted"),
        synonyms=("kappa",),
        example="Two radiologists labeling the same scans; kappa near "
        "chance level signals noisy ground-truth labels.",
        relations=("fleiss_kappa", "krippendorff_alpha"),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("categorical", "ordinal"),
        prerequisites=("exactly two raters over the same items", "weighted form needs an ordinal category order"),
        pitfall_tags=("imbalance_instability", "small_sample_instability"),
        pitfalls=(
            "high raw agreement can yield low kappa when one class dominates "
            "(prevalence paradox)",
        ),
    ),
    _card(
        "fleiss_kappa",
        "Fleiss' kappa",
        "measurement_process",
        ("noisy_labels",),
        "Chance-corrected agreement for a fixed number of raters per item, "
        "not necessarily the same raters.",
        "kappa = (P_bar - P_e) / (1 - P_e) with P_bar the mean item "
        "agreement and P_e = sum_j p_j^2 over pooled category proportions.",
        "[-1, 1] (upper bound 1)",
        "1 is perfect agreement, 0 chance level.",
        ("fleiss1971measuring",),
        example="Crowd-labeled datasets with n annotators per item report "
        "Fleiss' kappa as the label-noise summary.",
        relations=("cohens_kappa", "krippendorff_alpha"),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("categorical",),
        prerequisites=("the same number of ratings for every item",),
        pitfall_tags=("imbalance_instability", "small_sample_instability"),
    ),
    _card(
        "kendalls_w",
        "Kendall's coefficient of concordance",
        "measurement_process",
        ("noisy_labels",),
        "Agreement of several raters who rank the same set of items.",
        "W = 12 S / (k^2 (n^3 - n) - k T), with S the variance of rank "
        "sums, k raters, n items, T the tie correction.",
        "[0, 1]",
        "1 means identical rankings; 0 means no concordance.",
        ("kendall1939problem",),
        synonyms=("Kendall's W",),
        example="Panels ranking image quality; W reports whether the panel "
        "orders cases consistently.",
        relations=("kendall_tau", "spearman"),
        modalities=("tabular", "image", "text"),
        variable_types=("ordinal",),
        prerequisites=("every rater ranks every item",),
        pitfall_tags=("small_sample_instability",),
        pitfalls=("two raters with reversed rankings give W=0, not W=-1; W is one-sided",),
    ),
    _card(
        "krippendorff_alpha",
        "Krippendorff's alpha",
        "measurement_process",
        ("noisy_labels",),
        "General chance-corrected agreement that tolerates missing ratings "
        "and any measurement level.",
        "alpha = 1 - D_o / D_e from the coincidence matrix, with the "
        "difference function chosen per level (nominal, ordinal, interval, "
        "ratio).",
        "(-inf, 1]",
        "1 is perfect agreement, 0 chance level; values below 0 indicate "
        "systematic disagreement.",
        ("krippendorff2004content",),
        synonyms=("alpha reliability",),
        example="Text-annotation projects report alpha because coders "
        "rarely cover every item.",
        relations=("cohens_kappa", "fleiss_kappa"),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("numerical", "categorical", "ordinal"),
        prerequisites=("at least one item with two or more ratings",),
        pitfall_tags=("small_sample_instability", "parameter_choice"),
        pitfalls=("the level (difference function) changes the value; record it",),
    ),
    _card(
        "dice_score",
        "Dice similarity score",
        "measurement_process",
        ("noisy_labels",),
        "Overlap of two segmentation masks of the same scene.",
        "Dice = 2 |A intersect B| / (|A| + |B|).",
        "[0, 1]",
        "1 means identical masks, 0 disjoint masks.",
        ("dice1945measures",),
        synonyms=("F1 overlap", "Sorensen-Dice"),
        example="Inter-annotator Dice between expert segmentations bounds "
        "the accuracy any model can be credited with.",
        relations=("intersection_over_union",),
        modalities=("image",),
        variable_types=("categorical",),
        prerequisites=("two masks over the same pixel/voxel domain",),
        pitfall_tags=("imbalance_instability",),
        pitfalls=("tiny structures make the score volatile; both-empty masks need a convention (here: 1)",),
    ),
    _card(
        "intersection_over_union",
        "Intersection over Union",
        "measurement_process",
        ("noisy_labels",),
        "Overlap of two masks measured against their union.",
        "IoU = |A intersect B| / |A union B|; IoU = Dice / (2 - Dice).",
        "[0, 1]",
        "1 means identical masks, 0 disjoint masks; always <= Dice.",
        ("jaccard1912distribution",),
        synonyms=("Jaccard index",),
        example="Detection benchmarks gate true positives at IoU >= 0.5 "
        "between annotator boxes.",
        relations=("dice_score",),
        modalities=("image",),
        variable_types=("categorical",),
        prerequisites=("two masks over the same pixel/voxel domain",),
        pitfall_tags=("imbalance_instability",),
    ),
    # --- measurement process: completeness -----------------------------------
    _card(
        "completeness",
        "Completeness",
        "measurement_process",
        ("completeness",),
        "Share of cells that carry a value at all.",
        "completeness = non-missing cells / total cells over the chosen "
        "columns.",
        "[0, 1]",
        "1 means no missing cells in scope.",
        ("wang1996beyond",),
        synonyms=("non-missing ratio",),
        example="Reported per column block (measurements vs metadata) to "
        "show where a registry is sparse.",
        relations=("patient_level_completeness", "record_completeness"),
        modalities=("tabular", "time-series", "image", "text", "multimodal"),
        variable_types=("numerical", "categorical", "ordinal"),
        pitfalls=(
            "blind to disguised missing codes (0, 'unknown', 9999) unless they "
            "are declared as missing tokens",
        ),
    ),
    _card(
        "patient_level_completeness",
        "Patient-level completeness",
        "measurement_process",
        ("completeness",),
        "Share of patients with at least one usable value of a variable.",
        "patients with >= 1 non-missing entry of the variable / all "
        "patients.",
        "[0, 1]",
        "1 means every patient contributes at least one value.",
        ("weiskopf2013methods",),
        example="A biobank can be cell-sparse yet patient-complete when "
        "every subject has one good visit record.",
        relations=("completeness", "record_completeness"),
        modalities=("tabular", "time-series"),
        variable_types=("numerical", "categorical", "ordinal"),
        prerequisites=("a patient identifier column",),
        pitfalls=("records without a patient identifier are excluded and flagged",),
    ),
    _card(
        "record_completeness",
        "Record completeness",
        "measurement_process",
        ("completeness",),
        "Share of records whose required fields are all present.",
        "records with all required fields non-missing / all records.",
        "[0, 1]",
        "1 means every record is usable without imputation.",
        ("weiskopf2013methods",),
        example="Admission datasets count a record complete only when the "
        "fields feeding the risk score are all present.",
        relations=("completeness", "patient_level_completeness"),
        modalities=("tabular", "time-series"),
        variable_types=("numerical", "categorical", "ordinal"),
        prerequisites=("the list of required fields",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("an empty requirement set is vacuously 1 and flagged",),
    ),
    # --- consistency ----------------------------------------------------------
    _card(
        "syntactic_accuracy",
        "Syntactic accuracy",
        "consistency",
        ("syntactic_consistency",),
        "Share of entries conforming to an internal dictionary of valid "
        "forms.",
        "conforming non-missing entries / non-missing entries.",
        "[0, 1]",
        "1 means every entry is well-formed.",
        ("batini2009methodologies",),
        example="ICD or SNOMED code columns validated against the official "
        "code list before model training.",
        relations=("completeness",),
        modalities=("tabular", "text"),
        variable_types=("categorical",),
        prerequisites=("a dictionary of admissible values for the column",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("an incomplete dictionary undercounts valid entries",),
    ),
    _card(
        "page_hinkley",
        "Page-Hinkley method",
        "consistency",
        ("distribution_drift",),
        "Sequential change detector: alarms when the cumulative deviation "
        "from the running mean climbs past a threshold.",
        "PH_t = alpha * PH_(t-1) + (x_t - mean_t - delta); alarm when "
        "PH_t - min_s PH_s >= lambda.",
        "alarm indices + max statistic in [0, inf)",
        "Any alarm marks a detected change point; the statistic's height "
        "measures the evidence.",
        ("page1954continuous", "hinkley1971inference"),
        synonyms=("PH test",),
        example="Monitoring a lab analyte stream across a device swap; the "
        "alarm index localizes the shift.",
        relations=("ks_test", "population_stability_index"),
        modalities=("time-series",),
        prerequisites=("data in meaningful sequential order",),
        pitfall_tags=("parameter_choice", "outlier_sensitivity"),
        pitfalls=(
            "delta/lambda trade detection delay against false alarms",
            "without forgetting (alpha=1) long stationary streams false-alarm "
            "on random-walk excursions",
        ),
    ),
    # --- representativeness ---------------------------------------------------
    _card(
        "dataset_size",
        "Dataset size",
        "representativeness",
        ("dataset_size",),
        "Total number of records.",
        "n_records.",
        "{0, 1, 2, ...}",
        "Larger supports more complex models; no internal quality signal.",
        ("halevy2009unreasonable",),
        example="Sample-size justifications cite the record count per class "
        "rather than the raw total.",
        relations=("effective_sample_size",),
        modalities=("tabular", "image", "time-series", "text", "multimodal"),
        variable_types=("numerical", "categorical", "ordinal"),
        pitfalls=("row count ignores duplication and clustering; see effective sample size",),
    ),
    _card(
        "granularity",
        "Granularity",
        "representativeness",
        ("granularity",),
        "Number of features describing each record.",
        "count of feature columns.",
        "{0, 1, 2, ...}",
        "More features mean finer-grained description, not better quality.",
        ("wang1996beyond",),
        example="A 26-feature metadata table is compared against the "
        "minimal feature set the intended model needs.",
        relations=("resolution", "sampling_frequency"),
        modalities=("tabular",),
        variable_types=("numerical", "categorical", "ordinal"),
    ),
    _card(
        "sampling_frequency",
        "Sampling frequency",
        "representativeness",
        ("granularity",),
        "Temporal resolution of the signal payload.",
        "declared samples per second (Hz), per block.",
        "(0, inf) Hz",
        "Must meet the bandwidth the downstream task needs (Nyquist).",
        ("oppenheim1999discrete",),
        example="ECG at 500 Hz supports QRS morphology; 50 Hz telemetry "
        "does not.",
        relations=("granularity", "resolution"),
        modalities=("time-series",),
        prerequisites=("signal payloads with a declared rate",),
        pitfalls=("heterogeneous rates within one dataset are flagged and returned as a set",),
    ),
    _card(
        "resolution",
        "Resolution",
        "representativeness",
        ("granularity",),
        "Pixel dimensions of the imaging payload.",
        "per-image width x height, summarized by minimum and median.",
        "positive integer pairs",
        "The minimum bounds what every downstream model can rely on.",
        ("gonzalez2018digital",),
        example="Mixed-resolution scan archives report the minimum so that "
        "resampling targets are chosen explicitly.",
        relations=("granularity", "sampling_frequency"),
        modalities=("image",),
        prerequisites=("per-image size metadata",),
    ),
    _card(
        "label_granularity",
        "Label granularity",
        "representativeness",
        ("granularity",),
        "Depth of the label hierarchy attached to the records.",
        "maximum root-to-leaf depth of the rooted label tree; a flat label "
        "set has depth 1.",
        "{1, 2, ...}",
        "Deeper hierarchies allow finer-grained tasks.",
        ("silla2011survey",),
        example="Diagnosis statements organized as superclass to subclass "
        "give depth 2; training on leaves needs enough records per leaf.",
        relations=("granularity",),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("categorical",),
        prerequisites=("the label hierarchy, not just the flat label column",),
        pitfall_tags=("parameter_choice",),
    ),
    _card(
        "generalized_imbalance_ratio",
        "Generalized imbalance ratio",
        "representativeness",
        ("target_class_balance",),
        "Majority-to-minority class size ratio.",
        "IR = max_i n_i / min_i n_i.",
        "[1, inf)",
        "1 means balanced classes; 19 means the rarest class is 19x "
        "undersampled.",
        ("orriols2009evolutionary",),
        synonyms=("imbalance ratio", "IR"),
        example="Screening datasets quote IR next to accuracy because "
        "majority-class guessing scores 1 - 1/IR.",
        relations=("imbalance_degree", "lr_imbalance_degree"),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("categorical",),
        pitfall_tags=("small_sample_instability",),
        pitfalls=("ignores every class between the extremes",),
    ),
    _card(
        "imbalance_degree",
        "Imbalance degree",
        "representativeness",
        ("target_class_balance",),
        "Distance of the class distribution from uniform, normalized by "
        "the worst case with the same number of minority classes.",
        "ID = d(p, u) / d(iota_m, u) + (m - 1), with m the number of "
        "classes below 1/K and iota_m the extreme distribution with m empty "
        "classes.",
        "[0, K-1)",
        "0 means balanced; the integer part counts minority classes.",
        ("ortigosa2017measuring",),
        example="Multiclass imbalance with one rare and one moderate class "
        "separates cleanly from a single-rare-class setting, unlike IR.",
        relations=("generalized_imbalance_ratio", "lr_imbalance_degree"),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("categorical",),
        prerequisites=("a distance between distributions (default total variation)",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("different distance choices are not comparable; record the choice",),
    ),
    _card(
        "lr_imbalance_degree",
        "Likelihood ratio imbalance degree",
        "representativeness",
        ("target_class_balance",),
        "Likelihood-ratio statistic of the multinomial test against the "
        "uniform class distribution.",
        "LRID = 2 sum_i n_i ln(n_i K / N), zero-count classes contributing "
        "0.",
        "[0, inf)",
        "0 iff exactly balanced; grows linearly in N at fixed proportions.",
        ("zhu2018lrid",),
        synonyms=("LRID",),
        relations=("imbalance_degree", "generalized_imbalance_ratio", "chi_squared"),
        modalities=("tabular", "image", "time-series", "text"),
        variable_types=("categorical",),
        pitfalls=("scales with dataset size, so compare only at equal N",),
    ),
    # --- timeliness -----------------------------------------------------------
    _card(
        "currency_ballou",
        "Currency by Ballou",
        "timeliness",
        ("currency",),
        "Timeliness under polynomial decay toward a volatility horizon.",
        "Q = max(0, 1 - age/volatility)^s, age in seconds.",
        "[0, 1]",
        "1 is fresh; 0 means the data outlived its volatility horizon.",
        ("ballou1998modeling",),
        relations=("currency_li", "currency_hinrichs", "currency_heinrich"),
        modalities=("tabular", "time-series", "image", "text", "multimodal"),
        prerequisites=("record timestamps", "volatility horizon and exponent s"),
        pitfall_tags=("parameter_choice",),
        pitfalls=("volatility and s are domain estimates; results shift with them",),
    ),
    _card(
        "currency_li",
        "Currency by Li",
        "timeliness",
        ("currency",),
        "Timeliness under linear decay toward an expiration date.",
        "Q = max(0, 1 - age/shelf_life), age in seconds.",
        "[0, 1]",
        "1 is fresh; 0 means expired.",
        ("li2012timeliness",),
        relations=("currency_ballou", "currency_hinrichs", "currency_heinrich"),
        modalities=("tabular", "time-series", "image", "text", "multimodal"),
        prerequisites=("record timestamps", "a shelf life"),
        pitfall_tags=("parameter_choice",),
    ),
    _card(
        "currency_hinrichs",
        "Currency by Hinrichs",
        "timeliness",
        ("currency",),
        "Timeliness under a known required update frequency.",
        "Q = 1 / (update_rate * age + 1), age in seconds.",
        "(0, 1]",
        "1 is fresh; halves once the age reaches 1/update_rate.",
        ("hinrichs2002datenqualitaet",),
        relations=("currency_ballou", "currency_li", "currency_heinrich"),
        modalities=("tabular", "time-series", "image", "text", "multimodal"),
        prerequisites=("record timestamps", "the needed update rate"),
        pitfall_tags=("parameter_choice",),
    ),
    _card(
        "currency_heinrich",
        "Currency by Heinrich",
        "timeliness",
        ("currency",),
        "Timeliness under exponential decay when no expiration or update "
        "schedule is known.",
        "Q = exp(-decline * age), age in seconds.",
        "(0, 1]",
        "1 is fresh; decline sets the half-life ln(2)/decline.",
        ("heinrich2009assessing",),
        example="Demographic attributes age slowly; a decline around 1e-9 "
        "per second halves trust in roughly two decades.",
        relations=("currency_ballou", "currency_li", "currency_hinrichs"),
        modalities=("tabular", "time-series", "image", "text", "multimodal"),
        prerequisites=("record timestamps", "a decline rate per second"),
        pitfall_tags=("parameter_choice",),
        pitfalls=("the decline rate dominates the result; record it with the value",),
    ),
    # --- informativeness --------------------------------------------------------
    _card(
        "prevalence_of_duplicates",
        "Prevalence of duplicates",
        "informativeness",
        ("uniqueness",),
        "How many records are exact repeats of another record.",
        "count = n_records - distinct key tuples; ratio = count / "
        "n_records. Missing compares equal to missing.",
        "count in {0,...}; ratio in [0, 1]",
        "0 means every record is unique under the chosen keys.",
        ("elmagarmid2007duplicate",),
        example="Registry exports deduplicated on patient and visit keys "
        "before any prevalence estimate is trusted.",
        relations=("effective_sample_size",),
        modalities=("tabular", "image", "time-series", "text", "multimodal"),
        variable_types=("numerical", "categorical", "ordinal"),
        pitfall_tags=("parameter_choice", "missing_value_sensitivity"),
        pitfalls=(
            "key choice defines what counts as a duplicate",
            "near-duplicates (resampled, re-encoded) are not caught",
        ),
    ),
    _card(
        "effective_sample_size",
        "Effective sample size",
        "informativeness",
        ("uniqueness",),
        "How many independent records the dataset is worth after "
        "weighting or clustering.",
        "weighted form: (sum w)^2 / sum w^2; cluster form: n / (1 + (m-1) "
        "rho) with cluster size m and intraclass correlation rho.",
        "(0, n]",
        "Equal to n only for unweighted independent records.",
        ("kish1965survey",),
        synonyms=("ESS",),
        example="Repeated recordings per patient shrink the effective n; "
        "power analyses use ESS, not row count.",
        relations=("dataset_size", "icc", "prevalence_of_duplicates"),
        modalities=("tabular", "time-series"),
        prerequisites=("importance weights, or cluster size and intraclass correlation",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("the needed rho is rarely known and must be estimated",),
    ),
    _card(
        "littles_test",
        "Little's test",
        "informativeness",
        ("informative_missingness",),
        "Tests whether values are missing completely at random by "
        "comparing per-pattern means against the EM fit.",
        "d2 = sum_j n_j (ybar_j - mu_j)' Sigma_j^[-1] (ybar_j - mu_j) over "
        "missingness patterns; chi-squared with sum p_j - p degrees of "
        "freedom under MCAR.",
        "d2 in [0, inf); p-value in [0, 1]",
        "Small p-values reject MCAR; a large p-value does not prove it.",
        ("little1988test",),
        example="Run before complete-case analysis: rejection means "
        "dropping incomplete rows biases the sample.",
        relations=("informative_dropout", "completeness"),
        modalities=("tabular",),
        prerequisites=(">= 2 numerical columns", ">= 2 distinct missingness patterns"),
        pitfall_tags=("small_sample_instability",),
        pitfalls=(
            "assumes multivariate normality",
            "cannot distinguish MAR from MNAR; rejection only rules out MCAR",
        ),
    ),
    _card(
        "informative_dropout",
        "Likelihood model for informative dropout",
        "informativeness",
        ("informative_missingness",),
        "Longitudinal likelihood model relating dropout probability to "
        "unobserved outcomes, separating random from informative dropout.",
        "joint selection model of the measurement process and the dropout "
        "process, fitted by maximum likelihood.",
        "model-dependent",
        "Evidence that dropout depends on unobserved values implies "
        "informative (non-ignorable) missingness.",
        ("diggle1994informative",),
        relations=("littles_test",),
        modalities=("tabular", "time-series"),
        prerequisites=("longitudinal measurements with dropout times",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("identification rests on untestable modeling assumptions",),
    ),
    # --- distribution metrics ---------------------------------------------------
    _card(
        "range",
        "Range",
        "distribution_metrics",
        _DIST_DIMS,
        "Spread of a variable between its extremes.",
        "range = max - min.",
        "[0, inf)",
        "Wide ranges may signal outliers or unit mix-ups; compare against "
        "the plausible physiological range.",
        ("tukey1977exploratory",),
        example="An age range of nearly 300 immediately exposes encoded "
        "placeholder birthdates.",
        relations=("interquartile_range", "mean_std"),
        pitfall_tags=("outlier_sensitivity",),
        pitfalls=("determined entirely by the two most extreme values",),
    ),
    _card(
        "interquartile_range",
        "Interquartile range",
        "distribution_metrics",
        _DIST_DIMS,
        "Spread of the central half of a variable.",
        "IQR = Q3 - Q1 with linearly interpolated quantiles.",
        "[0, inf)",
        "Robust spread; 0 means the central half is constant.",
        ("tukey1977exploratory",),
        synonyms=("IQR",),
        example="Box plots of lab values per site use the IQR to compare "
        "spread without outlier distortion.",
        relations=("range", "mean_std"),
        pitfall_tags=("parameter_choice",),
        pitfalls=("quantile interpolation rules differ across software; fix one",),
    ),
    _card(
        "mean_std",
        "Mean and standard deviation",
        "distribution_metrics",
        _DIST_DIMS,
        "Location and scale of a variable.",
        "mean = sum x / n; std = sqrt(sum (x - mean)^2 / (n - 1)).",
        "mean in (-inf, inf); std in [0, inf)",
        "Meaningful jointly; compare across subsets to spot shifts.",
        ("altman2005standard",),
        example="Cohort tables report age as mean (sd) per subset; a "
        "shifted mean flags selection effects.",
        relations=("range", "interquartile_range", "cohens_d"),
        pitfall_tags=("outlier_sensitivity",),
        pitfalls=("misleading location/scale summary for skewed or multimodal data",),
    ),
    _card(
        "hill_numbers",
        "Hill numbers",
        "distribution_metrics",
        _DIST_DIMS,
        "Effective number of categories at a chosen sensitivity to rare "
        "classes.",
        "D_q = (sum_i p_i^q)^(1/(1-q)); D_1 = exp(-sum p_i ln p_i).",
        "[1, K]",
        "K for a uniform distribution over K categories, 1 when one "
        "category dominates fully; q tunes how much rare classes count.",
        ("hill1973diversity",),
        synonyms=("effective number of species", "diversity of order q"),
        example="The effective number of sexes or devices in a cohort; "
        "2.0 means perfectly balanced sexes, 1.47 a 4:1 imbalance.",
        relations=("entropy", "imbalance_degree"),
        variable_types=("categorical",),
        prerequisites=("the order q (default 2)",),
        pitfall_tags=("parameter_choice", "small_sample_instability"),
        pitfalls=("different q values weight rare categories differently; report q",),
    ),
    _card(
        "maximum_mean_discrepancy",
        "Maximum mean discrepancy",
        "distribution_metrics",
        _DIST_DIMS,
        "Kernel distance between two samples: how far apart their mean "
        "embeddings lie in the kernel feature space.",
        "MMD^2 = mean k(a,a') + mean k(b,b') - 2 mean k(a,b); reported on "
        "the square-root scale (biased estimate).",
        "[0, inf)",
        "0 for identical distributions; the scale depends on the kernel.",
        ("gretton2012kernel",),
        synonyms=("MMD",),
        example="Comparing the age distribution of male and female "
        "subgroups, or real against synthetic cohorts.",
        relations=("kernel_inception_distance", "energy_distance"),
        modalities=("tabular", "time-series", "image", "text", "multimodal"),
        prerequisites=("a kernel; RBF bandwidth defaults to the median heuristic",),
        pitfall_tags=("parameter_choice", "small_sample_instability"),
        pitfalls=(
            "bandwidth choice changes the value; the median heuristic must be "
            "recorded to make results comparable",
            "O(n^2) cost invites subsampling, which adds seed dependence",
        ),
    ),
    _card(
        "cohens_d",
        "Cohen's d",
        "distribution_metrics",
        _DIST_DIMS,
        "Standardized difference between two group means.",
        "d = (mean_a - mean_b) / s_pooled, with the (n-1)-weighted pooled "
        "standard deviation.",
        "(-inf, inf)",
        "0 means equal means; |d| around 0.2/0.5/0.8 is conventionally "
        "small/medium/large.",
        ("cohen1988statistical",),
        synonyms=("standardized mean difference",),
        example="Effect size of an age shift between collection sites, "
        "independent of the measurement unit.",
        relations=("mean_std", "mann_whitney_u"),
        pitfall_tags=("outlier_sensitivity",),
        pitfalls=("only compares means; identical means with different shapes give 0",),
    ),
    _card(
        "energy_distance",
        "Energy distance",
        "distribution_metrics",
        _DIST_DIMS,
        "Distance between two samples built from expected pairwise "
        "distances; zero exactly for equal distributions.",
        "D^2 = 2 E|X-Y| - E|X-X'| - E|Y-Y'| from full pairwise sums.",
        "[0, inf)",
        "0 for identical distributions; unit of the underlying distance.",
        ("szekely2013energy",),
        relations=("maximum_mean_discrepancy", "wasserstein_distance"),
        modalities=("tabular", "time-series", "image"),
        pitfall_tags=("outlier_sensitivity", "small_sample_instability"),
        pitfalls=("O(n^2) cost invites subsampling, which adds seed dependence",),
    ),
    _card(
        "kl_divergence",
        "Kullback-Leibler divergence",
        "distribution_metrics",
        _DIST_DIMS,
        "Information lost when one distribution is used in place of "
        "another.",
        "KL(p||q) = sum_i p_i ln(p_i / q_i) over shared categories or "
        "bins.",
        "[0, inf)",
        "0 iff p = q; asymmetric, so state the direction.",
        ("kullback1951information",),
        synonyms=("relative entropy",),
        example="Drift of a lab-value histogram against its validation "
        "baseline, in nats.",
        relations=("jensen_shannon_divergence", "population_stability_index", "entropy"),
        variable_types=("numerical", "categorical"),
        prerequisites=("shared binning for continuous variables",),
        pitfall_tags=("parameter_choice", "missing_value_sensitivity"),
        pitfalls=(
            "infinite when q lacks support where p has mass; smoothing (and "
            "its epsilon) must be recorded",
            "binning choice changes the value on continuous data",
        ),
    ),
    _card(
        "population_stability_index",
        "Population stability index",
        "distribution_metrics",
        _DIST_DIMS,
        "Symmetric drift score over binned distributions, standard in "
        "model monitoring.",
        "PSI = sum_i (p_i - q_i) ln(p_i / q_i).",
        "[0, inf)",
        "Conventional gates: < 0.1 stable, 0.1-0.25 moderate, > 0.25 "
        "major shift.",
        ("karakoulas2004psi",),
        synonyms=("PSI",),
        example="Credit and clinical scorecards track PSI per feature "
        "between development and production windows.",
        relations=("kl_divergence", "jensen_shannon_divergence"),
        variable_types=("numerical", "categorical"),
        prerequisites=("shared binning for continuous variables",),
        pitfall_tags=("parameter_choice", "small_sample_instability"),
        pitfalls=("zero bins require smoothing; record the epsilon",),
    ),
    _card(
        "jensen_shannon_divergence",
        "Jensen-Shannon divergence",
        "distribution_metrics",
        _DIST_DIMS,
        "Bounded, symmetric version of the KL divergence through the "
        "mixture midpoint.",
        "JS(p,q) = KL(p||m)/2 + KL(q||m)/2 with m = (p+q)/2.",
        "[0, ln 2] in nats",
        "0 iff p = q; ln 2 for disjoint supports.",
        ("lin1991divergence",),
        synonyms=("JSD",),
        relations=("kl_divergence", "population_stability_index"),
        variable_types=("numerical", "categorical"),
        prerequisites=("shared binning for continuous variables",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("binning choice changes the value on continuous data",),
    ),
    _card(
        "ks_test",
        "Kolmogorov-Smirnov test statistic",
        "distribution_metrics",
        _DIST_DIMS,
        "Largest gap between two empirical cumulative distribution "
        "functions, with an asymptotic p-value.",
        "D = sup_x |F_a(x) - F_b(x)|.",
        "D in [0, 1]; p in [0, 1]",
        "0 means identical samples; 1 means fully separated supports.",
        ("massey1951kolmogorov",),
        synonyms=("KS test",),
        example="Per-feature KS between training and deployment data is a "
        "standard drift screen.",
        relations=("anderson_darling_k", "mann_whitney_u", "wasserstein_distance"),
        pitfall_tags=("small_sample_instability",),
        pitfalls=(
            "most sensitive near the distribution center, weak in the tails",
            "heavy ties degrade the asymptotic p-value",
        ),
    ),
    _card(
        "epps_singleton",
        "Epps-Singleton test",
        "distribution_metrics",
        _DIST_DIMS,
        "Two-sample test on the empirical characteristic function, usable "
        "for discrete data where KS assumptions fail.",
        "quadratic form in the real and imaginary parts of the empirical "
        "characteristic functions at fixed evaluation points.",
        "statistic in [0, inf); p in [0, 1]",
        "Large statistics reject equality of distributions.",
        ("epps1986omnibus",),
        relations=("ks_test", "anderson_darling_k"),
        pitfall_tags=("small_sample_instability", "parameter_choice"),
        pitfalls=("the asymptotic p-value is unreliable below roughly 25 points per sample",),
    ),
    _card(
        "anderson_darling_k",
        "K-Sample Anderson-Darling test statistic",
        "distribution_metrics",
        _DIST_DIMS,
        "Rank-based k-sample test weighting the distribution tails more "
        "heavily than KS.",
        "normalized k-sample Anderson-Darling rank statistic.",
        "statistic in (-inf, inf); p in [0.001, 0.25] (tabulated)",
        "Large statistics reject that all samples share one distribution.",
        ("scholz1987k",),
        relations=("ks_test", "epps_singleton"),
        pitfall_tags=("small_sample_instability",),
        pitfalls=("the p-value is clamped to its tabulated range and flagged",),
    ),
    _card(
        "chi_squared",
        "Chi-squared test statistic",
        "distribution_metrics",
        _DIST_DIMS,
        "Tests homogeneity of two categorical distributions.",
        "X^2 = sum (O - E)^2 / E over the 2 x K contingency of both "
        "samples.",
        "[0, inf); p in [0, 1]",
        "Large statistics reject equal category distributions.",
        ("pearson1900criterion",),
        relations=("cramers_v", "lr_imbalance_degree"),
        variable_types=("categorical",),
        prerequisites=("categorical counts (or an explicit binning)",),
        pitfall_tags=("small_sample_instability", "parameter_choice"),
        pitfalls=("unreliable with expected cell counts below about 5",),
    ),
    _card(
        "frechet_inception_distance",
        "Fréchet inception distance",
        "distribution_metrics",
        _DIST_DIMS,
        "Distance between Gaussian fits of two embedding sets, the "
        "standard generative-image quality score.",
        "FID = ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)).",
        "[0, inf)",
        "0 for identical Gaussian fits; lower means closer distributions.",
        ("heusel2017gans", "dowson1982frechet"),
        synonyms=("FID", "Fréchet distance between Gaussians"),
        example="Synthetic ECG or image cohorts are accepted only below an "
        "FID threshold against real data embeddings.",
        relations=("kernel_inception_distance", "maximum_mean_discrepancy"),
        modalities=("image", "time-series", "multimodal"),
        prerequisites=("precomputed embedding vectors for both datasets",),
        pitfall_tags=("parameter_choice", "small_sample_instability"),
        pitfalls=(
            "depends on the embedding network; only comparable under the same "
            "embedder",
            "biased for small n; n should exceed the embedding dimension",
        ),
    ),
    _card(
        "kernel_inception_distance",
        "Kernel inception distance",
        "distribution_metrics",
        _DIST_DIMS,
        "Unbiased kernel alternative to FID with better small-sample "
        "behavior.",
        "unbiased MMD^2 with kernel (x.y/d + 1)^3 over embedding vectors.",
        "(-eps, inf), slightly negative near 0 by unbiasedness",
        "0 for identical distributions; lower is closer.",
        ("binkowski2018demystifying",),
        synonyms=("KID",),
        relations=("frechet_inception_distance", "maximum_mean_discrepancy"),
        modalities=("image", "time-series", "multimodal"),
        prerequisites=("precomputed embedding vectors for both datasets",),
        pitfall_tags=("parameter_choice",),
        pitfalls=("depends on the embedding network; record kernel degree and coefficient",),
    ),
    _card(
        "mann_whitney_u",
        "Mann-Whitney U-rank test",
        "distribution_metrics",
        _DIST_DIMS,
        "Rank test of whether values from one sample tend to exceed the "
        "other's.",
        "U = number of pairs (a, b) with a > b (ties count 1/2); p exact "
        "for small samples, tie-corrected normal otherwise.",
        "U in [0, n_a * n_b]; p in [0, 1]",
        "U near n_a*n_b/2 means no tendency; extremes mean stochastic "
        "dominance.",
        ("mann1947test",),
        synonyms=("Wilcoxon rank-sum test",),
        example="Comparing skewed lab values between sites without "
        "normality assumptions.",
        relations=("ks_test", "cohens_d"),
        variable_types=("numerical", "ordinal"),
        pitfall_tags=("small_sample_instability",),
        pitfalls=("tests stochastic ordering, not equality of distributions",),
    ),
    _card(
        "wasserstein_distance",
        "Wasserstein distance",
        "distribution_metrics",
        _DIST_DIMS,
        "Minimal cost of transporting one distribution into the other; "
        "the area between quantile functions.",
        "W_p = (integral_0^1 |F_a^[-1](u) - F_b^[-1](u)|^p du)^(1/p).",
        "[0, inf)",
        "0 for identical distributions, in the unit of the variable.",
        ("villani2009optimal", "ramdas2017wasserstein"),
        synonyms=("earth mover's distance",),
        example="Histogram drift in the unit of the measurand (for order "
        "1, years of age) rather than a unitless score.",
        relations=("energy_distance", "ks_test"),
        pitfall_tags=("outlier_sensitivity", "parameter_choice"),
        pitfalls=("tail outliers move the optimal transport cost strongly",),
    ),
    # --- correlation coefficients -----------------------------------------------
    _card(
        "pearson",
        "Pearson correlation coefficient",
        "correlation_coefficients",
        _CORR_DIMS,
        "Strength of the linear relationship between two numerical "
        "variables.",
        "r = cov(x, y) / (sd_x sd_y).",
        "[-1, 1]",
        "0 means no linear association; the sign gives the direction.",
        ("pearson1895notes",),
        synonyms=("PCC", "product-moment correlation"),
        example="Correlating age with a binary diagnosis indicator screens "
        "for confounded labels.",
        relations=("spearman", "concordance_cc", "kendall_tau"),
        pitfall_tags=("outlier_sensitivity",),
        pitfalls=("captures linear association only; 0 does not imply independence",),
    ),
    _card(
        "concordance_cc",
        "Concordance correlation coefficient",
        "correlation_coefficients",
        _CORR_DIMS,
        "Agreement of paired measurements with the identity line, "
        "penalizing location and scale shifts.",
        "CCC = 2 cov(x,y) / (var_x + var_y + (mean_x - mean_y)^2), "
        "population (1/n) moments.",
        "[-1, 1]",
        "1 only when y = x elementwise; below |pearson| otherwise.",
        ("lin1989concordance",),
        synonyms=("CCC", "Lin's concordance"),
        example="Device interchangeability studies use CCC because a "
        "calibration offset must hurt the score.",
        relations=("pearson", "icc", "bland_altman_cr"),
        prerequisites=("paired measurements of the same quantity",),
        pitfall_tags=("outlier_sensitivity",),
    ),
    _card(
        "goodman_kruskal_gamma",
        "Goodman-Kruskal's gamma",
        "correlation_coefficients",
        _CORR_DIMS,
        "Ordinal association from concordant and discordant pairs, "
        "ignoring ties entirely.",
        "gamma = (C - D) / (C + D).",
        "[-1, 1]",
        "1 when all untied pairs are concordant; 0 means no ordinal "
        "association among untied pairs.",
        ("goodman1954measures",),
        relations=("kendall_tau", "spearman"),
        variable_types=("ordinal", "numerical"),
        pitfall_tags=("small_sample_instability",),
        pitfalls=("inflated when ties dominate, since tied pairs are discarded",),
    ),
    _card(
        "kendall_tau",
        "Kendall's tau",
        "correlation_coefficients",
        _CORR_DIMS,
        "Rank correlation from concordant and discordant pairs with tie "
        "correction.",
        "tau_b = (C - D) / sqrt((n0 - t_x)(n0 - t_y)).",
        "[-1, 1]",
        "1 for identical orderings, -1 for full reversal.",
        ("kendall1938measure",),
        synonyms=("tau-b",),
        example="Agreement between two severity gradings on an ordinal "
        "scale.",
        relations=("spearman", "goodman_kruskal_gamma", "kendalls_w"),
        variable_types=("ordinal", "numerical"),
        pitfall_tags=("small_sample_instability",),
    ),
    _card(
        "spearman",
        "Spearman's rank correlation coefficient",
        "correlation_coefficients",
        _CORR_DIMS,
        "Pearson correlation computed on ranks: monotone association "
        "without normality assumptions.",
        "rho = pearson(rank(x), rank(y)) with average ranks for ties.",
        "[-1, 1]",
        "1 for any strictly increasing relationship, -1 for strictly "
        "decreasing.",
        ("spearman1904proof",),
        synonyms=("rho",),
        example="Feature screening against an ordinal target where linear "
        "effects are not expected.",
        relations=("pearson", "kendall_tau"),
        variable_types=("ordinal", "numerical"),
        pitfall_tags=("small_sample_instability",),
        pitfalls=("insensitive to the shape of the monotone relationship",),
    ),
    _card(
        "icc",
        "Intraclass correlation coefficient",
        "correlation_coefficients",
        _CORR_DIMS,
        "Share of total variance due to between-item differences when "
        "several raters measure the same items.",
        "two-way random effects, absolute agreement, single measure: "
        "ICC(2,1) = (MS_R - MS_E) / (MS_R + (k-1) MS_E + k (MS_C - MS_E)/n).",
        "(-1, 1]",
        "1 means raters are interchangeable; near 0 means rater noise "
        "dominates.",
        ("shrout1979intraclass", "mcgraw1996forming"),
        synonyms=("ICC(2,1)",),
        example="Test-retest reliability of a continuous imaging biomarker "
        "across scanners.",
        relations=("concordance_cc", "reproducibility_variance", "effective_sample_size"),
        prerequisites=(">= 2 raters measuring the same items on a numerical scale",),
        pitfall_tags=("parameter_choice", "outlier_sensitivity", "small_sample_instability"),
        pitfalls=("several ICC forms exist with different meanings; state the form",),
    ),
    _card(
        "cramers_v",
        "Cramér's V",
        "correlation_coefficients",
        _CORR_DIMS,
        "Association strength between two categorical variables, "
        "normalized chi-squared.",
        "V = sqrt(X^2 / (n (min(r, c) - 1))).",
        "[0, 1]",
        "0 means independence in-sample; 1 means one variable determines "
        "the other.",
        ("cramer1946mathematical",),
        relations=("chi_squared",),
        variable_types=("categorical",),
        pitfall_tags=("small_sample_instability", "imbalance_instability"),
        pitfalls=("biased upward for small n and many categories; a bias correction exists",),
    ),
)
