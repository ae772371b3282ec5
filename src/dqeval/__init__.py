"""Data quality evaluation toolkit.

A library of documented quality metrics, decision trees that map a use
case onto the metrics worth computing, evaluators that run them against
a common dataset model, and reporting helpers for audits and dataset
comparisons.
"""

from .datamodel import (
    MISSING,
    ColumnSpec,
    DataModelError,
    Dataset,
    SignalBlock,
    take_records,
)
from .harness import PTBXL_PROFILE, load_ptbxl, run_harness, write_demo_root
from .registry import (
    ApplicabilityError,
    EvaluationError,
    EvaluatorUnavailable,
    MetricCard,
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
from .report import (
    DataLoadError,
    build_report,
    load_dataset,
    read_descriptor,
    render_report_markdown,
)
from .selection import (
    DecisionTree,
    SelectionError,
    SelectionResult,
    TreeFormatError,
    builtin_trees,
    load_tree,
    rationale_document,
    select_all,
    traverse,
)


def __getattr__(name: str) -> str:
    """``__version__`` is looked up when it is read, not at import."""
    if name == "__version__":
        from .selection import _library_version

        return _library_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MISSING",
    "ColumnSpec",
    "DataModelError",
    "Dataset",
    "SignalBlock",
    "take_records",
    "PTBXL_PROFILE",
    "load_ptbxl",
    "run_harness",
    "write_demo_root",
    "ApplicabilityError",
    "EvaluationError",
    "EvaluatorUnavailable",
    "MetricCard",
    "MetricResult",
    "PrerequisiteError",
    "RegistryError",
    "all_cards",
    "card",
    "evaluate",
    "filter_cards",
    "render_card",
    "resolve_id",
    "DataLoadError",
    "build_report",
    "load_dataset",
    "read_descriptor",
    "render_report_markdown",
    "DecisionTree",
    "SelectionError",
    "SelectionResult",
    "TreeFormatError",
    "builtin_trees",
    "load_tree",
    "rationale_document",
    "select_all",
    "traverse",
    "__version__",
]
