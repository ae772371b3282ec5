"""Typed, immutable in-memory representation of datasets.

Tabular metadata plus optional per-record signal payloads, with explicit
missing-value markers. Missing cells are stored as ``None`` and never
participate in arithmetic; each metric decides its own deletion policy.
"""

from __future__ import annotations

import math
import mmap
import os
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from itertools import repeat
from operator import is_
from typing import Any, Iterator, Mapping, NoReturn, Sequence

import numpy as np

VTYPES = ("numerical", "categorical", "ordinal", "datetime", "identifier")
ROLES = ("feature", "target", "patient_id", "timestamp", "annotation", "weight")
UNIQUE_ROLES = ("target", "patient_id", "timestamp")

MISSING = None


class DataModelError(ValueError):
    """Raised for schema violations and invalid column access."""


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    vtype: str = "numerical"
    role: str = "feature"
    ordinal_order: tuple[str, ...] | None = None
    missing_tokens: frozenset[str] = frozenset({"", "NA", "NaN", "nan", "null", "None"})

    def __post_init__(self) -> None:
        if self.vtype not in VTYPES:
            raise DataModelError(f"unknown vtype {self.vtype!r}; expected one of {VTYPES}")
        if self.role not in ROLES:
            raise DataModelError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if self.ordinal_order is not None:
            object.__setattr__(self, "ordinal_order", tuple(self.ordinal_order))
        if not isinstance(self.missing_tokens, frozenset):
            object.__setattr__(self, "missing_tokens", frozenset(self.missing_tokens))


@dataclass(frozen=True)
class F32Record:
    """A signal payload left in its file: n_samples rows of `channels`
    little-endian float32 values, sample by sample, from byte `offset` of the
    file at the absolute `path`. It holds no samples."""

    path: str
    offset: int
    channels: int
    n_samples: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.channels, self.n_samples)

    def read(self) -> np.ndarray:
        """The payload as a read-only (channels, n_samples) float32 view of a
        new read-only mapping of the file. The mapping, and the file
        descriptor it holds, live until the caller drops every array taken
        from the view.

        A file whose size no longer matches the header is a DataModelError
        naming it, checked before mapping, which would fail with a bare
        ValueError. The header line keeps the length at least 1, as mmap
        requires. os.open and mmap.mmap make fewer system calls than open()
        and np.memmap: about 0.1 ms less per record on a 2-CPU x86_64 VM.
        """
        size = self.offset + 4 * self.channels * self.n_samples
        fd = os.open(self.path, os.O_RDONLY)
        try:
            found = os.fstat(fd).st_size
            if found != size:
                raise DataModelError(
                    f"signal file {self.path} changed after load: it holds {found} bytes, "
                    f"its header promises {size}"
                )
            mapped = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        payload = np.frombuffer(mapped, "<f4", offset=self.offset)
        return payload.reshape(self.n_samples, self.channels).T


@dataclass(frozen=True, eq=False, init=False)
class SignalBlock:
    """Per-record multichannel signal, read through `samples` as a read-only
    (channels, n) array.

    An array or nested sequence passed as `samples` is copied once into
    `source`: a float payload keeps its dtype, the rest becomes float64. An
    F32Record stays the source and is mapped from its file on each access of
    `samples` (see F32Record.read), so the block holds no samples.
    """

    source: np.ndarray | F32Record
    sampling_hz: float
    channel_names: tuple[str, ...] = ()

    def __init__(
        self, samples: Any, sampling_hz: float, channel_names: Sequence[str] = ()
    ) -> None:
        object.__setattr__(self, "source", samples)
        object.__setattr__(self, "sampling_hz", sampling_hz)
        object.__setattr__(self, "channel_names", channel_names)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.source, F32Record):
            try:
                grid = np.array(self.source, order="C")
            except ValueError:
                raise DataModelError("all signal channels must have equal length") from None
            if grid.ndim != 2:
                raise DataModelError("signal samples must be a (channels, n) grid")
            if grid.dtype.kind != "f":
                grid = grid.astype(float)
            grid.flags.writeable = False
            object.__setattr__(self, "source", grid)
        if not 0 < self.sampling_hz < math.inf:
            raise DataModelError(f"sampling_hz must be finite and > 0, got {self.sampling_hz}")
        if self.channel_names and len(self.channel_names) != self.shape[0]:
            raise DataModelError("channel_names length must match channel count")
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def shape(self) -> tuple[int, int]:
        return self.source.shape

    @property
    def samples(self) -> np.ndarray:
        src = self.source
        return src.read() if isinstance(src, F32Record) else src


@dataclass(frozen=True, eq=False)
class Sample:
    """Ordered finite values as a read-only float64 vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise DataModelError("Sample values must be one-dimensional")
        if not np.isfinite(vals).all():
            raise DataModelError("Sample accepts finite values only")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)


@dataclass(frozen=True)
class CategoricalCounts:
    """Category -> nonnegative count."""

    counts: tuple[tuple[Any, float], ...]

    def __post_init__(self) -> None:
        norm = []
        for cat, cnt in dict(self.counts).items():
            c = float(cnt)
            if c < 0:
                raise DataModelError(f"negative count for category {cat!r}")
            norm.append((cat, c))
        object.__setattr__(self, "counts", tuple(norm))

    @classmethod
    def from_mapping(cls, mapping: Mapping[Any, float]) -> "CategoricalCounts":
        return cls(tuple(mapping.items()))

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "CategoricalCounts":
        """Counts of the non-missing values in first-appearance order."""
        acc = Counter(values)
        acc.pop(MISSING, None)
        return cls.from_mapping(acc)

    def as_dict(self) -> dict[Any, float]:
        return dict(self.counts)

    @property
    def categories(self) -> tuple[Any, ...]:
        return tuple(c for c, _ in self.counts)

    @property
    def total(self) -> float:
        return sum(c for _, c in self.counts)

    def proportions(self) -> dict[Any, float]:
        t = self.total
        if t <= 0:
            raise DataModelError("CategoricalCounts total must be > 0")
        return {cat: cnt / t for cat, cnt in self.counts}

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class RatingsMatrix:
    """Items x raters grid of labels; None marks a missing rating."""

    ratings: tuple[tuple[Any, ...], ...]
    rater_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.ratings)
        if not rows:
            raise DataModelError("RatingsMatrix needs at least one item")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise DataModelError("all items must carry one slot per rater")
        if len(rows[0]) < 1:
            raise DataModelError("RatingsMatrix needs at least one rater")
        object.__setattr__(self, "ratings", rows)
        object.__setattr__(self, "rater_names", tuple(self.rater_names))

    @property
    def n_items(self) -> int:
        return len(self.ratings)

    @property
    def n_raters(self) -> int:
        return len(self.ratings[0])

    def column(self, j: int) -> tuple[Any, ...]:
        return tuple(row[j] for row in self.ratings)


_EPOCH = datetime(1970, 1, 1)


def parse_timestamp(value: Any) -> float:
    """Epoch seconds from a number or an ISO-8601 string; naive means UTC.

    An infinite number, or one too large for a float, is a DataModelError;
    NaN is returned as is, and a cell that holds it is missing.
    """
    text = value if isinstance(value, (int, float)) else str(value).strip()
    try:
        seconds = float(text)
    except OverflowError:
        seconds = math.inf
    except ValueError:
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise DataModelError(f"cannot parse timestamp {value!r}") from None
        if dt.tzinfo is None:
            return (dt - _EPOCH).total_seconds()
        return dt.timestamp()
    if math.isinf(seconds):
        raise DataModelError(f"cannot parse timestamp {value!r}: not a finite number")
    return seconds


def reject_json_constant(token: str) -> NoReturn:
    """json's parse_constant hook: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{token} is not a JSON value")


def read_word_list(path: str) -> list[str]:
    """The words of a UTF-8 text file, one per line: each line stripped,
    blank lines skipped. Text that is not UTF-8 is a DataModelError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [word for word in map(str.strip, fh) if word]
    except UnicodeDecodeError as exc:
        raise DataModelError(f"{path}: word list is not UTF-8 text ({exc.reason})") from None


def _normalize_cell(value: Any, spec: ColumnSpec) -> Any:
    if value is MISSING:
        return MISSING
    if isinstance(value, str) and value.strip() in spec.missing_tokens:
        return MISSING
    if isinstance(value, float) and math.isnan(value):
        return MISSING
    if spec.vtype == "datetime":
        number = parse_timestamp(value)
    elif spec.vtype == "numerical":
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise DataModelError(
                f"column {spec.name!r} ({spec.vtype}) got non-numeric cell {value!r}"
            ) from None
    else:
        return value
    return number if number == number else MISSING  # "NAN", "-nan", ... parse to NaN


def _decode_column(col: Sequence[Any], spec: ColumnSpec) -> tuple[Any, ...]:
    """Normalised cells of a column, each distinct string decoded once.

    Only a column of str and MISSING cells is decoded through a dict of its
    distinct values, in first-appearance order so an error names the first
    bad cell; other cells are not keys (0.0/-0.0 and 1/1.0/True collide).
    """
    if {*map(type, col)} <= {str, type(MISSING)}:
        memo = {v: _normalize_cell(v, spec) for v in dict.fromkeys(col)}
        return tuple(map(memo.__getitem__, col))
    return tuple(_normalize_cell(v, spec) for v in col)


@dataclass(frozen=True)
class Dataset:
    """Immutable column-major table plus optional per-record signals."""

    columns: tuple[ColumnSpec, ...]
    cells: Mapping[str, tuple[Any, ...]]
    signals: tuple[SignalBlock | None, ...] | None = None
    dataset_id: str = "dataset"
    dictionaries: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise DataModelError("column names must be unique")
        for role in UNIQUE_ROLES:
            holders = [c.name for c in cols if c.role == role]
            if len(holders) > 1:
                raise DataModelError(f"at most one column may carry role {role!r}, got {holders}")
        if set(self.cells) != set(names):
            raise DataModelError("cells must provide exactly the declared columns")
        lengths = {len(v) for v in self.cells.values()}
        if len(lengths) > 1:
            raise DataModelError("all columns must have the same number of cells")
        n = lengths.pop() if lengths else 0
        normalized = {spec.name: _decode_column(self.cells[spec.name], spec) for spec in cols}
        for spec in cols:
            if spec.vtype == "ordinal":
                observed = {v for v in normalized[spec.name] if v is not MISSING}
                if spec.ordinal_order is None:
                    raise DataModelError(f"ordinal column {spec.name!r} needs ordinal_order")
                uncovered = observed - set(spec.ordinal_order)
                if uncovered:
                    raise DataModelError(
                        f"ordinal_order of {spec.name!r} misses categories {sorted(map(str, uncovered))}"
                    )
        if self.signals is not None:
            sig = tuple(self.signals)
            if len(sig) != n:
                raise DataModelError("signals must provide one entry (or None) per record")
            object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "cells", normalized)
        object.__setattr__(
            self,
            "dictionaries",
            {k: frozenset(v) for k, v in dict(self.dictionaries).items()},
        )
        object.__setattr__(self, "_n_records", n)
        object.__setattr__(self, "_specs", {c.name: c for c in cols})
        object.__setattr__(
            self, "_missing", {k: sum(map(is_, v, repeat(MISSING))) for k, v in normalized.items()}
        )

    @property
    def n_records(self) -> int:
        return self._n_records  # type: ignore[attr-defined]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def spec(self, name: str) -> ColumnSpec:
        try:
            return self._specs[name]  # type: ignore[attr-defined]
        except (KeyError, TypeError):
            raise DataModelError(f"unknown column {name!r}") from None

    def column(self, name: str) -> tuple[Any, ...]:
        self.spec(name)
        return self.cells[name]

    def missing_count(self, name: str) -> int:
        """Number of MISSING cells in a column, counted once at build."""
        self.spec(name)
        return self._missing[name]  # type: ignore[attr-defined]

    def role_column(self, role: str) -> str | None:
        for c in self.columns:
            if c.role == role:
                return c.name
        return None

    def feature_columns(self) -> tuple[str, ...]:
        # id columns carry no measurement detail, whatever their role says
        return tuple(
            c.name for c in self.columns if c.role == "feature" and c.vtype != "identifier"
        )


def coded(ds: Dataset, col: str) -> tuple[Any, ...]:
    """Column values, ordinal categories replaced by their rank, missing kept."""
    spec = ds.spec(col)
    if spec.vtype != "ordinal":
        return ds.column(col)
    codes = {cat: float(i) for i, cat in enumerate(spec.ordinal_order or ())}
    return tuple(MISSING if v is MISSING else codes[v] for v in ds.column(col))


def present_sample(values: Sequence[Any]) -> Sample:
    """The non-missing values."""
    return Sample([v for v in values if v is not MISSING])


def column_sample(ds: Dataset, col: str) -> Sample:
    """Numeric values of a column in record order, missing dropped.

    Ordinal columns are encoded by their position in ordinal_order.
    """
    vtype = ds.spec(col).vtype
    if vtype not in ("numerical", "datetime", "ordinal"):
        raise DataModelError(f"column {col!r} is {vtype}; numeric or ordinal required")
    return present_sample(coded(ds, col))


def group_by(ds: Dataset, col: str) -> tuple[dict[Any, list[int]], list[int]]:
    """Partition record indices by a categorical/ordinal column.

    Returns (groups, missing_indices); groups are disjoint and together with
    the missing set cover all records.
    """
    spec = ds.spec(col)
    if spec.vtype not in ("categorical", "ordinal", "identifier"):
        raise DataModelError(f"group_by needs a categorical column, {col!r} is {spec.vtype}")
    groups: dict[Any, list[int]] = {}
    missing: list[int] = []
    for i, v in enumerate(ds.cells[col]):
        if v is MISSING:
            missing.append(i)
        else:
            groups.setdefault(v, []).append(i)
    return groups, missing


def pooled_counts(a: Sample, b: Sample, bins: int) -> tuple[CategoricalCounts, CategoricalCounts]:
    """Counts of two samples in `bins` equal-width bins over their pooled
    min-max range, keyed bin0, bin1, ...; a constant pooled sample is one bin.

    Shared edges are required by the divergence ops, whose bins must match.
    """
    if bins < 1:
        raise DataModelError("bin count must be >= 1")
    if len(a) == 0 or len(b) == 0:
        raise DataModelError("cannot bin an empty sample")
    lo = min(a.values.min(), b.values.min())
    hi = max(a.values.max(), b.values.max())
    if lo == hi:
        return tuple(CategoricalCounts.from_mapping({"bin0": float(len(s))}) for s in (a, b))
    edges = np.linspace(lo, hi, bins + 1)

    def count(s: Sample) -> CategoricalCounts:
        idx = np.clip(np.searchsorted(edges, s.values, side="right") - 1, 0, bins - 1)
        tally = np.bincount(idx, minlength=bins).tolist()
        return CategoricalCounts.from_mapping({f"bin{i}": c for i, c in enumerate(tally)})

    return count(a), count(b)


def take_records(ds: Dataset, indices: Sequence[int], dataset_id: str | None = None) -> Dataset:
    """Row-subset a dataset, keeping records in the given order."""
    n = ds.n_records
    idx = []
    for i in indices:
        j = int(i)
        if not 0 <= j < n:
            raise DataModelError(f"record index {i} out of range 0..{n - 1}")
        idx.append(j)
    names = ds.column_names
    cells = {name: [col[j] for j in idx] for name, col in zip(names, map(ds.column, names))}
    signals = tuple(ds.signals[j] for j in idx) if ds.signals is not None else None
    return Dataset(
        columns=ds.columns,
        cells=cells,
        signals=signals,
        dataset_id=dataset_id or f"{ds.dataset_id}[subset]",
        dictionaries=ds.dictionaries,
    )
