"""Metric-card registry: lookup, filtering, rendering and evaluation dispatch.

The registry is the single source of truth for the 60 metrics, their
dimension and group mapping, applicability and pitfalls. Cards are data
(cards.py); this module holds the evaluator wiring.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import warnings as _pywarnings
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from . import cards as _cards
from . import correlation as _corr
from . import distribution as _dist
from . import measurement as _meas
from . import structure as _struct
from .cards import Applicability, MetricCard, RegistryError  # noqa: F401  (re-exported)
from .datamodel import (
    CategoricalCounts,
    Codes,
    DataModelError,
    Dataset,
    RatingsMatrix,
    Sample,
    SignalBlock,
    coded,
    column_sample,
    float_cells,
    group_by,
    pooled_counts,
    present_sample,
    read_word_list,
)
from .distribution import MetricInputError, MetricWarning

DIMENSIONS = _cards.DIMENSIONS
GROUPS = _cards.GROUPS
PITFALL_TAGS = _cards.PITFALL_TAGS
MODALITIES = _cards.MODALITIES
VARIABLE_TYPES = _cards.VARIABLE_TYPES

T = TypeVar("T")


class EvaluationError(ValueError):
    """A metric could not be evaluated on the given dataset."""


class PrerequisiteError(EvaluationError):
    """The dataset lacks something the metric requires."""


class ApplicabilityError(EvaluationError):
    """The metric does not apply to the referenced column types."""


class EvaluatorUnavailable(EvaluationError):
    """The card exists but no evaluator is implemented."""


@dataclass(frozen=True)
class MetricResult:
    metric_id: str
    scope: str
    params: Mapping[str, Any] = field(default_factory=dict)
    value: Any = None
    warnings: tuple[str, ...] = ()


_CARDS: tuple[MetricCard, ...] = _cards.CARDS
_BY_ID: dict[str, MetricCard] = {}
_SYNONYMS: dict[str, str] = {}
for _c in _CARDS:
    if _c.id in _BY_ID:
        raise RegistryError(f"duplicate card id {_c.id!r}")
    _BY_ID[_c.id] = _c
    for _s in _c.synonyms:
        _SYNONYMS.setdefault(_s.lower().replace(" ", "_").replace("-", "_"), _c.id)


def all_cards() -> tuple[MetricCard, ...]:
    """The full built-in registry in stable order."""
    return _CARDS


def resolve_id(name: str) -> str:
    """Map an id or synonym (case/space tolerant) to the canonical id."""
    key = name.strip().lower().replace(" ", "_").replace("-", "_")
    if key in _BY_ID:
        return key
    if key in _SYNONYMS:
        return _SYNONYMS[key]
    raise RegistryError(f"unknown metric {name!r}")


def card(metric_id: str) -> MetricCard:
    return _BY_ID[resolve_id(metric_id)]


def filter_cards(
    dim: str | None = None,
    modality: str | None = None,
    vtype: str | None = None,
    group: str | None = None,
) -> tuple[MetricCard, ...]:
    """Conjunctive filter over dimension, modality, variable type and group."""
    if dim is not None and dim not in DIMENSIONS:
        raise RegistryError(f"unknown dimension {dim!r}; expected one of {DIMENSIONS}")
    if modality is not None and modality not in MODALITIES:
        raise RegistryError(f"unknown modality {modality!r}")
    if vtype is not None and vtype not in VARIABLE_TYPES:
        raise RegistryError(f"unknown variable type {vtype!r}")
    if group is not None and group not in GROUPS:
        raise RegistryError(f"unknown group {group!r}")
    out = []
    for c in _CARDS:
        if dim is not None and dim not in c.dimensions:
            continue
        if modality is not None and modality not in c.applicability.modalities:
            continue
        if vtype is not None and vtype not in c.applicability.variable_types:
            continue
        if group is not None and c.group != group:
            continue
        out.append(c)
    return tuple(out)


def _md_list(items: Sequence[str]) -> str:
    if not items:
        return "none\n"
    return "".join(f"- {i}\n" for i in items)


def render_card(metric_id: str, format: str = "markdown") -> str:
    """Deterministic card rendering with the populated sections in fixed order.

    Markdown shows the name as title, the summary as lead text, then nine
    sections; an empty Example section is omitted. JSON is the card dict
    verbatim.
    """
    c = card(metric_id)
    if format == "json":
        return json.dumps(c.as_dict(), indent=2, ensure_ascii=False) + "\n"
    if format != "markdown":
        raise RegistryError(f"unknown render format {format!r}")
    lines = [f"# {c.name}\n"]
    if c.synonyms:
        lines.append(f"*Synonyms: {', '.join(c.synonyms)}*\n")
    lines.append(f"\n{c.summary}\n")
    lines.append(f"\n## Definition\n\n{c.definition}\n")
    lines.append(f"\n## Value range\n\n{c.value_range}. {c.interpretation}\n")
    lines.append("\n## Use in METRIC-framework\n\n")
    lines.append(f"Dimensions: {', '.join(c.dimensions)}\n")
    lines.append(f"Group: {c.group}\n")
    lines.append("\n## References\n\n" + _md_list(c.references))
    if c.example:
        lines.append(f"\n## Example\n\n{c.example}\n")
    lines.append("\n## Relation to other metrics\n\n" + _md_list(c.relations))
    lines.append("\n## Applicability\n\n")
    lines.append(f"Modalities: {', '.join(c.applicability.modalities)}\n")
    lines.append(f"Variable types: {', '.join(c.applicability.variable_types)}\n")
    lines.append("\n## Prerequisites and recommendations\n\n" + _md_list(c.prerequisites))
    pitfall_lines = list(c.pitfalls)
    if c.pitfall_tags:
        pitfall_lines.append(f"tagged: {', '.join(c.pitfall_tags)}")
    lines.append("\n## Pitfalls and limitations\n\n" + _md_list(pitfall_lines))
    return "".join(lines)


# --- evaluation dispatch -----------------------------------------------------

# (metric_id, ds, params, ds_b, seed) -> (value, scope, params_used)
Evaluator = Callable[[str, Dataset, dict, Dataset | None, int | None], tuple[Any, str, dict]]
# a typed parameter: (name, cast, default)
Param = tuple[str, Callable[[Any], Any], Any]

_NUMERIC = ("numerical", "ordinal", "datetime")
_LABELS = ("categorical", "ordinal", "identifier")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PrerequisiteError(msg)


def _require_vtype(ds: Dataset, col: str, allowed: tuple[str, ...], metric: str) -> None:
    spec = ds.spec(col)
    if spec.vtype not in allowed:
        raise ApplicabilityError(
            f"{metric} does not apply to {spec.vtype} column {col!r}; needs one of {allowed}"
        )


def _param_column(ds: Dataset, params: dict, key: str = "column", role: str | None = None) -> str:
    col = params.get(key)
    if col is None and role is not None:
        col = ds.role_column(role)
    if col is None:
        raise PrerequisiteError(f"parameter {key!r} is required (no default column found)")
    ds.spec(col)
    return col


def _arg(params: Mapping[str, Any], name: str, cast: Callable[[Any], Any], default: Any) -> Any:
    """params[name] through cast, or default when it is absent or None."""
    value = params.get(name)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise PrerequisiteError(
            f"parameter {name!r} must be {cast.__name__}, got {value!r}"
        ) from exc


def _args(params: Mapping[str, Any], declared: Sequence[Param]) -> dict[str, Any]:
    return {name: _arg(params, name, cast, default) for name, cast, default in declared}


def integer(value: Any) -> int:
    """An int, or an integral float such as 3.0; never 2.7 or a bool."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return operator.index(value)


def real(value: Any) -> float:
    """A finite int or float as a float; never a bool, a string, NaN or inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"not finite: {value!r}")
    return float(value)


def boolean(value: Any) -> bool:
    """JSON true or false; "false", "0", 0 and 1 are not bools."""
    if value is True or value is False:
        return value
    raise TypeError(f"not a bool: {value!r}")


def column_list(value: Any) -> list:
    """A JSON list of column names; a bare string is not one."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"not a list: {value!r}")
    return list(value)


def _annotation_columns(ds: Dataset, params: dict) -> list[str]:
    cols = _arg(params, "rater_columns", column_list, None)
    if cols is None:
        cols = [c.name for c in ds.columns if c.role == "annotation"]
    return cols


def _ratings(ds: Dataset, cols: Sequence[str]) -> RatingsMatrix:
    """Rater columns as items x raters, ordinal labels coded by rank."""
    columns = [
        ds.column(c) if ds.spec(c).vtype in ("categorical", "identifier") else float_cells(coded(ds, c))
        for c in cols
    ]
    return RatingsMatrix(tuple(zip(*columns)), rater_names=tuple(cols))


# Runners, one per input shape. Each resolves and type-checks its columns,
# reads the declared params, calls the kernel and echoes columns, params and
# fixed notes in that order. Kernels are lambdas that look the kernel module's
# function up at call time, so a patched module attribute (perfbench's tracer
# wraps them) takes effect.


def _column(
    kernel: Callable[..., Any],
    vtypes: tuple[str, ...],
    *params: Param,
    read: Callable[[Dataset, str], Any] = column_sample,
    role: str | None = None,
    notes: Mapping[str, Any] | None = None,
) -> Evaluator:
    """One column: kernel(read(ds, column), **params)."""

    def ev(metric, ds, given, ds_b, seed):
        col = _param_column(ds, given, "column", role)
        _require_vtype(ds, col, vtypes, metric)
        args = _args(given, params)
        value = kernel(read(ds, col), **args)
        return value, f"column:{col}", {"column": col, **args, **(notes or {})}

    return ev


def _pair(
    kernel: Callable[..., Any],
    vtypes: tuple[str, ...] | None,
    *params: Param,
    keys: tuple[str, str] = ("column_a", "column_b"),
    read: Callable[[Dataset, str], Any] = coded,
    notes: Mapping[str, Any] | None = None,
) -> Evaluator:
    """Two columns of one dataset: kernel(read(ds, a), read(ds, b), **params)."""

    def ev(metric, ds, given, ds_b, seed):
        cols = [_param_column(ds, given, key) for key in keys]
        if vtypes:
            for col in cols:
                _require_vtype(ds, col, vtypes, metric)
        args = _args(given, params)
        value = kernel(*(read(ds, col) for col in cols), **args)
        used = {**dict(zip(keys, cols)), **args, **(notes or {})}
        return value, f"pair:{cols[0]},{cols[1]}", used

    return ev


def _samples(kernel: Callable[..., Any], *params: Param) -> Evaluator:
    """Two numeric samples (see _two_numeric_samples): kernel(a, b, **params)."""

    def ev(metric, ds, given, ds_b, seed):
        samples, scope, used = _two_numeric_samples(ds, given, ds_b, metric)
        args = _args(given, params)
        return kernel(*samples, **args), scope, {**used, **args}

    return ev


def _raters(
    kernel: Callable[..., Any],
    *params: Param,
    pair: bool = False,
    vtypes: tuple[str, ...] | None = None,
    notes: Mapping[str, Any] | None = None,
) -> Evaluator:
    """Rater columns (exactly 2 when pair, else >= 2): kernel(ratings, **params)."""

    def ev(metric, ds, given, ds_b, seed):
        cols = _annotation_columns(ds, given)
        if pair:
            _require(len(cols) == 2, f"{metric} needs exactly 2 rater columns, found {len(cols)}")
        else:
            _require(len(cols) >= 2, f"{metric} needs >= 2 rater columns")
        if vtypes:
            for col in cols:
                _require_vtype(ds, col, vtypes, metric)
        args = _args(given, params)
        value = kernel(_ratings(ds, cols), **args)
        scope = f"{'pair' if pair else 'columns'}:{','.join(cols)}"
        return value, scope, {"rater_columns": cols, **args, **(notes or {})}

    return ev


# readers and kernel helpers for the table rows


def _counts(ds: Dataset, col: str) -> CategoricalCounts:
    counts = ds.codes(col).counts()
    _require(len(counts) >= 1, f"no categories present in column {col!r}")
    return counts


def _complete(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    both = ~(np.isnan(a) | np.isnan(b))
    return a[both], b[both]


def _instrument(measured: np.ndarray, reference: np.ndarray) -> dict[str, float]:
    measured, reference = _complete(measured, reference)
    _require(len(measured) >= 2, "needs >= 2 complete measurement pairs")
    return _meas.instrument_error(Sample(measured), Sample(reference))


def _mask(labels: Codes) -> np.ndarray:
    _require(bool((labels.codes >= 0).all()), "mask columns must be complete")
    return np.array([bool(v) for v in labels.categories], dtype=bool)[labels.codes]


def _resolution(widths: np.ndarray, heights: np.ndarray) -> dict[str, list]:
    value = _struct.resolution(np.column_stack(_complete(widths, heights)))
    return {
        "per_image": [list(s) for s in value["per_image"]],
        "min": list(value["min"]),
        "median": list(value["median"]),
    }


def _mean_std(s: Sample) -> dict[str, float]:
    stats = _dist.summary_stats(s)
    return {"mean": stats["mean"], "std": stats["std"]}


def _correlation(kind: str, vtypes: tuple[str, ...]) -> Evaluator:
    return _pair(lambda a, b: _corr.correlation(kind, a, b), vtypes)


def _split(
    ds: Dataset, value_col: str, group_col: str, allow_k: bool = False
) -> tuple[list[np.ndarray], str, dict]:
    """Record indices per group of group_col, groups in name order."""
    groups, _ = group_by(ds, group_col)
    keys = sorted(groups, key=str)
    _require(len(keys) >= 2, f"group column {group_col!r} has fewer than 2 groups")
    _require(
        len(keys) == 2 or allow_k,
        f"group column {group_col!r} has {len(keys)} groups; this metric compares exactly 2",
    )
    used = {"column": value_col, "group_column": group_col, "groups": [str(k) for k in keys]}
    return [groups[key] for key in keys], f"groups:{group_col}", used


def _two_numeric_samples(
    ds: Dataset, params: dict, ds_b: Dataset | None, metric: str, allow_k: bool = False
) -> tuple[list[Sample], str, dict]:
    """Resolve two (or k) numeric samples to compare.

    Three routes: a second dataset (same column), a grouping column inside
    one dataset, or two columns of one dataset.
    """
    if ds_b is not None:
        col = _param_column(ds, params, "column")
        _require_vtype(ds, col, _NUMERIC, metric)
        _require_vtype(ds_b, col, _NUMERIC, metric)
        scope = f"pair:{ds.dataset_id},{ds_b.dataset_id}"
        return [column_sample(ds, col), column_sample(ds_b, col)], scope, {"column": col}
    if params.get("group_column"):
        value_col = _param_column(ds, params, "column")
        _require_vtype(ds, value_col, _NUMERIC, metric)
        parts, scope, used = _split(ds, value_col, params["group_column"], allow_k)
        values = coded(ds, value_col)
        return [present_sample(values[part]) for part in parts], scope, used
    if params.get("column_a") and params.get("column_b"):
        cols = [_param_column(ds, params, key) for key in ("column_a", "column_b")]
        for col in cols:
            _require_vtype(ds, col, _NUMERIC, metric)
        samples = [column_sample(ds, col) for col in cols]
        return samples, f"pair:{cols[0]},{cols[1]}", {"column_a": cols[0], "column_b": cols[1]}
    raise PrerequisiteError(
        "two-sample metric needs a second dataset, a group_column, or column_a/column_b"
    )


def _counts_pair(
    ds: Dataset, params: dict, ds_b: Dataset | None, metric: str
) -> tuple[CategoricalCounts, CategoricalCounts, str, dict]:
    """Two categorical/binned distributions for divergences and chi-squared."""
    col = params.get("column")
    if col is not None and ds.spec(col).vtype in _LABELS:
        if ds_b is not None:
            ca, cb = ds.codes(col).counts(), ds_b.codes(col).counts()
            return ca, cb, f"pair:{ds.dataset_id},{ds_b.dataset_id}", {"column": col}
        if params.get("group_column"):
            (a, b), scope, used = _split(ds, col, params["group_column"])
            labels = ds.codes(col)
            return labels.take(a).counts(), labels.take(b).counts(), scope, used
        raise PrerequisiteError("categorical comparison needs ds_b or a group_column")
    bins = _arg(params, "bins", integer, 10)
    samples, scope, used = _two_numeric_samples(ds, params, ds_b, metric)
    ca, cb = pooled_counts(samples[0], samples[1], bins)
    used["bins"] = bins
    used["binning"] = "equal_width"
    return ca, cb, scope, used


# bespoke evaluators: (metric, ds, params, ds_b, seed) -> (value, scope, params_used)


# Per-channel values and the warnings of each block by (max_samples, m, r).
# Subsets share their parent's SignalBlocks, so a record evaluated in the
# original and its subsets is computed once; an entry dies with its block.
_SAMPEN_MEMO: weakref.WeakKeyDictionary[SignalBlock, dict] = weakref.WeakKeyDictionary()


def _sampen_block(samples: np.ndarray, p: _meas.SampleEntropyParams) -> tuple[tuple[float, ...], tuple]:
    with _pywarnings.catch_warnings(record=True) as caught:
        _pywarnings.simplefilter("always")
        if samples.shape[1] >= p.m + 2:
            values = _meas.sample_entropy(samples, p)
        else:
            values = [math.nan] * len(samples)
    return tuple(values), tuple(w.message for w in caught)


def _channel_entropies(
    blk: SignalBlock, max_samples: int | None, p: _meas.SampleEntropyParams
) -> tuple[float, ...]:
    """Sample entropy per channel (NaN if too short), re-emitting its warnings
    in channel order. All channels go to sample_entropy in one call.

    An input fault raises before anything is stored, so it raises on every use.
    """
    done = _SAMPEN_MEMO.setdefault(blk, {})
    key = (max_samples, p.m, p.r)
    if key not in done:
        done[key] = _sampen_block(blk.samples[:, :max_samples], p)
    values, warns = done[key]
    for w in warns:
        _pywarnings.warn(w)
    return values


def _ev_entropy(metric, ds, params, ds_b, seed):
    if params.get("column") and ds.spec(params["column"]).vtype in ("categorical", "ordinal"):
        col = params["column"]
        value = _meas.shannon_entropy(ds.codes(col).counts())
        return value, f"column:{col}", {"column": col, "form": "shannon", "base": "e"}
    _require(ds.signals is not None, "entropy needs signals or a categorical column")
    p = _meas.SampleEntropyParams(m=_arg(params, "m", integer, 2), r=_arg(params, "r", real, 0.2))
    max_records = _arg(params, "max_records", integer, None)
    max_samples = _arg(params, "max_samples", integer, None)
    for name, cap in (("max_records", max_records), ("max_samples", max_samples)):
        _require(cap is None or cap >= 1, f"entropy: {name} must be >= 1, got {cap}")
    indices = [i for i, blk in enumerate(ds.signals) if blk is not None]
    _require(bool(indices), "entropy: no records carry a signal")
    used: dict[str, Any] = {
        "form": "sample_entropy",
        "m": p.m,
        "r": p.r,
        "aggregation": "mean over channels then records",
    }
    if max_records is not None and len(indices) > max_records:
        rng = np.random.default_rng(seed)
        indices = sorted(rng.choice(indices, size=max_records, replace=False))
        used["max_records"] = max_records
        used["seed"] = seed
    if max_samples is not None:
        used["max_samples"] = max_samples
    per_record = []
    for i in indices:
        chans = [v for v in _channel_entropies(ds.signals[i], max_samples, p) if not math.isnan(v)]
        if chans:
            per_record.append(float(np.mean(chans)))
    _require(bool(per_record), "entropy: no channel yielded a defined sample entropy")
    return float(np.mean(per_record)), "global", used


def _repeated(by: str, kernel: Callable[[Any], float]) -> Evaluator:
    """Repeated measures of value_column, by subject_column or condition_column."""

    def ev(metric, ds, params, ds_b, seed):
        v_col = _param_column(ds, params, "value_column")
        _require_vtype(ds, v_col, ("numerical",), metric)
        b_col = _param_column(ds, params, by)
        values, labels = coded(ds, v_col), ds.codes(b_col)
        both = ~np.isnan(values) & (labels.codes >= 0)
        rows = list(zip(values[both].tolist(), map(labels.categories.__getitem__, labels.codes[both].tolist())))
        _require(bool(rows), f"{metric}: no complete (value, {by.split('_')[0]}) rows")
        if by == "condition_column":
            rm = _meas.RepeatedMeasures(
                subjects=(("all", tuple(v for v, _ in rows)),),
                conditions=(tuple(c for _, c in rows),),
            )
        else:
            groups: dict[Any, list[float]] = {}
            for v, s in rows:
                groups.setdefault(s, []).append(v)
            by_name = sorted(groups.items(), key=lambda kv: str(kv[0]))
            rm = _meas.RepeatedMeasures(subjects=tuple((s, tuple(g)) for s, g in by_name))
        return kernel(rm), "global", {"value_column": v_col, by: b_col}

    return ev


def _ev_completeness(metric, ds, params, ds_b, seed):
    label = params.get("scope_label")
    if params.get("target") == "signals":
        _require(ds.signals is not None, "completeness of signals needs a signal payload")
        present = sum(1 for blk in ds.signals if blk is not None and math.prod(blk.shape) > 0)
        scope = f"columns:{label}" if label else "signals"
        return present / ds.n_records, scope, {"target": "signals"}
    cols = _arg(params, "columns", column_list, None)
    if cols is None:
        scope = f"columns:{label}" if label else "global"
        return _meas.completeness(ds), scope, {"target": "cells"}
    value = _meas.completeness(ds, cols)
    return value, f"columns:{label or ','.join(cols)}", {"target": "cells", "columns": list(cols)}


def _ev_patient_completeness(metric, ds, params, ds_b, seed):
    variable = params.get("variable")
    pid = _param_column(ds, params, "patient_column", role="patient_id")
    value = _meas.patient_level_completeness(ds, pid, variable)
    used = {"patient_column": pid, "variable": variable or "signals"}
    label = params.get("scope_label")
    scope = f"columns:{label}" if label else (f"column:{variable}" if variable else "signals")
    return value, scope, used


def _ev_record_completeness(metric, ds, params, ds_b, seed):
    required = _arg(params, "required", column_list, [])
    value = _meas.record_completeness(ds, required)
    return value, "global", {"required": required}


def _ev_syntactic(metric, ds, params, ds_b, seed):
    col = _param_column(ds, params, "column")
    words = _arg(params, "dictionary", column_list, None)
    path = _arg(params, "dictionary_file", str, None)
    if words is None and path:
        words = read_word_list(path)
    if words is None:
        words = ds.dictionaries.get(col)
    _require(words is not None, f"syntactic_accuracy needs a dictionary for column {col!r}")
    value = _struct.syntactic_accuracy(ds.column(col), words)
    return value, f"column:{col}", {"column": col, "dictionary_size": len(set(map(str, words)))}


def _ev_sampling_frequency(metric, ds, params, ds_b, seed):
    value = _struct.sampling_frequency(ds)
    if isinstance(value, tuple):
        value = list(value)
    return value, "signals", {}


def _ev_label_granularity(metric, ds, params, ds_b, seed):
    hierarchy = params.get("hierarchy")
    if hierarchy is not None:
        return _struct.label_granularity(hierarchy), "global", {"source": "hierarchy"}
    col = _param_column(ds, params, "column", role="target")
    labels = ds.codes(col).categories
    _require(bool(labels), "label_granularity: no labels present")
    return _struct.label_granularity(labels), f"column:{col}", {"column": col, "source": "flat"}


def _currency(variant: str, *params: Param) -> Evaluator:
    def ev(metric, ds, given, ds_b, seed):
        col = _param_column(ds, given, "timestamp_column", role="timestamp")
        _require_vtype(ds, col, ("datetime", "numerical"), metric)
        stamps = coded(ds, col)
        stamps = stamps[~np.isnan(stamps)].tolist()
        _require(bool(stamps), "currency: no timestamps present")
        now = _arg(given, "now", real, None)
        used: dict[str, Any] = {"timestamp_column": col, "variant": variant, "aggregate": "mean"}
        if now is None:
            now = max(stamps)
            used.update(now=now, now_default="newest timestamp")
        else:
            used["now"] = now
        args = _args(given, params)
        used.update(args)
        p = _struct.CurrencyParams(variant=variant, now=now, **args)
        return float(np.mean([_struct.currency(ts, p) for ts in stamps])), f"column:{col}", used

    return ev


def _ev_duplicates(metric, ds, params, ds_b, seed):
    keys = _arg(params, "keys", column_list, None)
    value = _struct.prevalence_of_duplicates(ds, keys)
    used = {"keys": keys if keys is not None else "all columns"}
    return value, "global", used


def _ev_ess(metric, ds, params, ds_b, seed):
    if "n" in params or "cluster_size" in params or "icc" in params:
        used = {
            "form": "cluster",
            "n": params.get("n", ds.n_records),
            "cluster_size": params.get("cluster_size"),
            "icc": params.get("icc"),
        }
        for key in ("n", "cluster_size", "icc"):
            # bools are not counts; the value is echoed as given, so 100 stays an int
            number = used[key] is None or (type(used[key]) in (int, float) and math.isfinite(used[key]))
            _require(number, f"parameter {key!r} must be a finite number, got {used[key]!r}")
        value = _struct.effective_sample_size(
            n=used["n"], cluster_size=used["cluster_size"], icc=used["icc"]
        )
        return value, "global", used
    w_col = params.get("weight_column") or ds.role_column("weight")
    _require(
        w_col is not None,
        "effective_sample_size needs a weight column or (n, cluster_size, icc)",
    )
    _require_vtype(ds, w_col, ("numerical",), metric)
    weights = coded(ds, w_col)
    value = _struct.effective_sample_size(weights=weights[~np.isnan(weights)])
    return value, f"column:{w_col}", {"form": "weighted", "weight_column": w_col}


def _ev_littles(metric, ds, params, ds_b, seed):
    cols = _arg(params, "columns", column_list, None)
    if cols is None:
        cols = [c.name for c in ds.columns if c.vtype == "numerical"]
    _require(len(cols) >= 2, "littles_test needs >= 2 numerical columns")
    for c in cols:
        _require_vtype(ds, c, ("numerical",), metric)
    args = _args(params, (("tol", real, 1e-6), ("max_iter", integer, 200)))
    res = _struct.littles_mcar_test(_struct.float_columns(ds, cols), **args)
    for w in res.warnings:
        _pywarnings.warn(w, MetricWarning, stacklevel=2)
    value = {"statistic": res.statistic, "df": res.df, "p_value": res.p_value}
    return value, f"columns:{','.join(cols)}", {"columns": list(cols), **args}


def _subsample(params: dict, used: dict, seed: int | None) -> int | None:
    """The subsample size, echoed with the seed that draws it."""
    size = _arg(params, "subsample", integer, None)
    if size is not None:
        used.update(subsample=size, seed=seed)
    return size


def _ev_mmd(metric, ds, params, ds_b, seed):
    samples, scope, used = _two_numeric_samples(ds, params, ds_b, metric)
    kernel = used["kernel"] = params.get("kernel", "rbf")
    subsample = _subsample(params, used, seed)
    rng = np.random.default_rng(seed)
    mats = [_dist._maybe_subsample(s.values.reshape(-1, 1), subsample, rng) for s in samples]
    if kernel == "rbf":
        bandwidth = _arg(params, "bandwidth", real, None)
        if bandwidth is None:
            bandwidth = _dist.median_heuristic_bandwidth(mats[0], mats[1])
            used["bandwidth_rule"] = "median_heuristic"
        used["bandwidth"] = bandwidth
        value = _dist.mmd(mats[0], mats[1], kernel="rbf", bandwidth=bandwidth)
    else:
        args = _args(params, (("degree", integer, 3), ("coef", real, 1.0)))
        used.update(args)
        value = _dist.mmd(mats[0], mats[1], kernel=kernel, **args)
    return value, scope, used


def _ev_energy(metric, ds, params, ds_b, seed):
    samples, scope, used = _two_numeric_samples(ds, params, ds_b, metric)
    subsample = _subsample(params, used, seed)
    value = _dist.energy_distance(samples[0], samples[1], subsample=subsample, seed=seed)
    return value, scope, used


def _divergence(kind: str) -> Evaluator:
    def ev(metric, ds, params, ds_b, seed):
        ca, cb, scope, used = _counts_pair(ds, params, ds_b, metric)
        smoothing = _arg(params, "smoothing", str, "default")
        value = _dist.divergence(kind, ca, cb, smoothing=smoothing)
        used.update({"smoothing": smoothing, "eps": _dist.SMOOTH_EPS})
        return value, scope, used

    return ev


def _test(kind: str) -> Evaluator:
    def ev(metric, ds, params, ds_b, seed):
        if kind == "chi_squared":
            ca, cb, scope, used = _counts_pair(ds, params, ds_b, metric)
            outcome = _dist.two_sample_test("chi_squared", ca, cb)
        else:
            samples, scope, used = _two_numeric_samples(
                ds, params, ds_b, metric, allow_k=(kind == "anderson_darling_k")
            )
            outcome = _dist.two_sample_test(kind, samples[0], samples[1], others=samples[2:])
        for w in outcome.warnings:
            _pywarnings.warn(w, MetricWarning, stacklevel=2)
        used.update({"method": outcome.method, "n_a": outcome.n_a, "n_b": outcome.n_b})
        value = {
            "statistic": outcome.statistic,
            "p_value": outcome.p_value if outcome.p_value is not None else "unavailable",
        }
        return value, scope, used

    return ev


def _embeddings_pair(ds, params, ds_b, metric):
    if params.get("embeddings_a") and params.get("embeddings_b"):
        ea = _dist.load_embeddings(str(params["embeddings_a"]))
        eb = _dist.load_embeddings(str(params["embeddings_b"]))
        scope = f"pair:{params['embeddings_a']},{params['embeddings_b']}"
        used = {"embeddings_a": params["embeddings_a"], "embeddings_b": params["embeddings_b"]}
        return ea, eb, scope, used
    cols = _arg(params, "columns", column_list, None)
    if cols and ds_b is not None:
        for c in cols:
            _require_vtype(ds, c, ("numerical",), metric)
            _require_vtype(ds_b, c, ("numerical",), metric)

        def matrix(d: Dataset):
            rows = np.column_stack([coded(d, c) for c in cols])
            rows = rows[~np.isnan(rows).any(axis=1)]
            _require(len(rows) >= 2, f"{metric}: fewer than 2 complete rows")
            return _dist.EmbeddingSet(rows)

        used = {"columns": list(cols)}
        return matrix(ds), matrix(ds_b), f"pair:{ds.dataset_id},{ds_b.dataset_id}", used
    raise PrerequisiteError(
        f"{metric} needs embeddings_a/embeddings_b files, or columns plus a second dataset"
    )


def _ev_frechet(metric, ds, params, ds_b, seed):
    ea, eb, scope, used = _embeddings_pair(ds, params, ds_b, metric)
    return _dist.frechet_gaussian(ea, eb), scope, used


def _ev_kid(metric, ds, params, ds_b, seed):
    ea, eb, scope, used = _embeddings_pair(ds, params, ds_b, metric)
    args = _args(params, (("degree", integer, 3), ("coef", real, 1.0)))
    used.update(args)
    subsample = _subsample(params, used, seed)
    return _dist.kid(ea, eb, **args, subsample=subsample, seed=seed), scope, used


_EVALUATORS: dict[str, Evaluator] = {
    "entropy": _ev_entropy,
    "limit_of_detection": _column(
        lambda s, multiplier: _meas.lod_loq(s, lod_multiplier=multiplier)["lod"],
        ("numerical",),
        ("multiplier", real, 3.3),
    ),
    "limit_of_quantification": _column(
        lambda s, multiplier: _meas.lod_loq(s, loq_multiplier=multiplier)["loq"],
        ("numerical",),
        ("multiplier", real, 10.0),
    ),
    "systematic_error": _pair(
        lambda m, r: _instrument(m, r)["systematic"],
        ("numerical",),
        keys=("measured_column", "reference_column"),
    ),
    "random_error": _pair(
        lambda m, r: _instrument(m, r)["random"],
        ("numerical",),
        keys=("measured_column", "reference_column"),
    ),
    "bland_altman_cr": _pair(
        lambda a, b: _meas.bland_altman_cr(np.column_stack(_complete(a, b))),
        ("numerical",),
        notes={"factor": 1.96},
    ),
    "repeatability_cv": _repeated("subject_column", lambda rm: _meas.repeatability_cv(rm)),
    "reproducibility_variance": _repeated(
        "condition_column", lambda rm: _meas.reproducibility_variance(rm)
    ),
    "cohens_kappa": _raters(
        lambda m, weights: _meas.cohens_kappa(m, weights=weights),
        ("weights", str, "none"),
        pair=True,
    ),
    "fleiss_kappa": _raters(lambda m: _meas.fleiss_kappa(m)),
    "kendalls_w": _raters(lambda m: _meas.kendalls_w(m), vtypes=_NUMERIC),
    "krippendorff_alpha": _raters(
        lambda m, level: _meas.krippendorff_alpha(m, level=level), ("level", str, "nominal")
    ),
    "dice_score": _pair(lambda a, b: _meas.overlap(_mask(a), _mask(b), "dice"), None, read=Dataset.codes),
    "intersection_over_union": _pair(
        lambda a, b: _meas.overlap(_mask(a), _mask(b), "iou"), None, read=Dataset.codes
    ),
    "completeness": _ev_completeness,
    "patient_level_completeness": _ev_patient_completeness,
    "record_completeness": _ev_record_completeness,
    "syntactic_accuracy": _ev_syntactic,
    "page_hinkley": _column(
        lambda s, **p: _struct.page_hinkley(s, _struct.PageHinkleyParams(**p)),
        ("numerical", "datetime"),
        ("delta", real, 0.005),
        ("lam", real, 50.0),
        ("direction", str, "increase"),
        ("alpha", real, 0.99),
    ),
    "dataset_size": lambda metric, ds, *_: (_struct.dataset_size(ds), "global", {}),
    "granularity": lambda metric, ds, *_: (_struct.granularity(ds), "global", {"role": "feature"}),
    "sampling_frequency": _ev_sampling_frequency,
    "resolution": _pair(_resolution, ("numerical",), keys=("width_column", "height_column")),
    "label_granularity": _ev_label_granularity,
    "generalized_imbalance_ratio": _column(
        lambda c: _struct.imbalance_ratio(c), _LABELS, read=_counts, role="target"
    ),
    "imbalance_degree": _column(
        lambda c, distance: _struct.imbalance_degree(c, distance),
        _LABELS,
        ("distance", str, "total_variation"),
        read=_counts,
        role="target",
    ),
    "lr_imbalance_degree": _column(lambda c: _struct.lrid(c), _LABELS, read=_counts, role="target"),
    "currency_ballou": _currency("ballou", ("volatility", real, None), ("s", real, 1.0)),
    "currency_li": _currency("li", ("shelf_life", real, None)),
    "currency_hinrichs": _currency("hinrichs", ("update_rate", real, None)),
    "currency_heinrich": _currency("heinrich", ("decline", real, 1e-9)),
    "prevalence_of_duplicates": _ev_duplicates,
    "effective_sample_size": _ev_ess,
    "littles_test": _ev_littles,
    # informative_dropout intentionally has no evaluator
    "range": _column(lambda s: _dist.summary_stats(s)["range"], _NUMERIC),
    "interquartile_range": _column(
        lambda s: _dist.summary_stats(s)["iqr"],
        _NUMERIC,
        notes={"quantile_rule": "linear interpolation"},
    ),
    "mean_std": _column(_mean_std, _NUMERIC, notes={"std_ddof": 1}),
    "hill_numbers": _column(
        lambda c, q: _dist.hill_number(c, q), _LABELS, ("q", real, 2.0), read=_counts
    ),
    "maximum_mean_discrepancy": _ev_mmd,
    "cohens_d": _samples(lambda a, b: _dist.cohens_d(a, b)),
    "energy_distance": _ev_energy,
    "kl_divergence": _divergence("kl"),
    "population_stability_index": _divergence("psi"),
    "jensen_shannon_divergence": _divergence("js"),
    "ks_test": _test("ks"),
    "epps_singleton": _test("epps_singleton"),
    "anderson_darling_k": _test("anderson_darling_k"),
    "chi_squared": _test("chi_squared"),
    "frechet_inception_distance": _ev_frechet,
    "kernel_inception_distance": _ev_kid,
    "mann_whitney_u": _test("mann_whitney_u"),
    "wasserstein_distance": _samples(
        lambda a, b, order: _dist.wasserstein_1d(a, b, order=order), ("order", real, 1.0)
    ),
    "pearson": _correlation("pearson", ("numerical", "datetime")),
    "concordance_cc": _pair(
        lambda a, b: _corr.concordance_cc(a, b),
        _NUMERIC,
        notes={"moments": "population (1/n)"},
    ),
    "goodman_kruskal_gamma": _correlation("goodman_kruskal_gamma", _NUMERIC),
    "kendall_tau": _correlation("kendall_tau", _NUMERIC),
    "spearman": _correlation("spearman", _NUMERIC),
    "icc": _raters(
        lambda m: _corr.icc(m),
        vtypes=("numerical", "ordinal"),
        notes={"form": "two_way_random_single"},
    ),
    "cramers_v": _pair(
        lambda a, b, bias_correction: _corr.cramers_v(a, b, bias_correction=bias_correction),
        _LABELS,
        ("bias_correction", boolean, False),
        read=Dataset.codes,
    ),
}

def captured(fn: Callable[[], T]) -> tuple[T, tuple[str, ...]]:
    """Call fn and return its result with the MetricWarnings it raised.

    Input faults of the kernels and the data model, and input files named in
    the parameters that cannot be read, surface as EvaluationError.
    """
    with _pywarnings.catch_warnings(record=True) as caught:
        _pywarnings.simplefilter("always")
        try:
            out = fn()
        except (MetricInputError, DataModelError, OSError) as exc:
            raise EvaluationError(str(exc)) from exc
    return out, tuple(str(w.message) for w in caught if issubclass(w.category, MetricWarning))


def evaluate(
    metric_id: str,
    ds: Dataset,
    params: Mapping[str, Any] | None = None,
    ds_b: Dataset | None = None,
    seed: int | None = None,
) -> MetricResult:
    """Run a metric on a dataset, filling defaulted parameters.

    Pure in (dataset, params, seed): repeated calls return identical
    results. Warnings raised by the underlying metric are collected into
    MetricResult.warnings. Input faults (unknown columns, mistyped
    parameters, data the metric cannot use) raise EvaluationError.
    """
    c = card(metric_id)
    fn = _EVALUATORS.get(c.id)
    if fn is None:
        raise EvaluatorUnavailable("not implemented: no formula in source")
    (value, scope, used), warns = captured(lambda: fn(c.id, ds, dict(params or {}), ds_b, seed))
    return MetricResult(metric_id=c.id, scope=scope, params=used, value=value, warnings=warns)
