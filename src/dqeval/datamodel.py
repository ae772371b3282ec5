"""Typed, immutable in-memory representation of datasets.

Tabular metadata plus optional per-record signal payloads. Each column is
stored once as a typed read-only array: float64 values with NaN for a
missing cell (numerical, datetime), or int32 Codes into a tuple of
categories with -1 for a missing cell (categorical, ordinal, identifier).
Readers take the arrays (Dataset.array, Dataset.codes, Dataset.missing,
coded); cells given in memory are Python values, ``None`` (MISSING) for
missing. Missing cells never participate in arithmetic; each metric decides
its own deletion policy.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, field
from datetime import datetime
from itertools import compress, count
from typing import Any, Iterable, Mapping, NoReturn, Sequence

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


def proportions(counts: Any) -> np.ndarray:
    """A count vector over its total, as float64. Counts must be nonnegative
    with a positive total; the total is summed left to right, as Python's sum."""
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or (c < 0).any():
        raise DataModelError("counts must be one vector of nonnegative numbers")
    total = sum(c.tolist())
    if not total > 0:
        raise DataModelError("counts total must be > 0")
    return c / total


_EPOCH = datetime(1970, 1, 1)


def parse_timestamp(value: Any) -> float:
    """Epoch seconds from a number or an ISO-8601 string; naive means UTC.

    An infinite number, or one too large for a float, is a DataModelError;
    NaN is returned as is, and a cell that holds it is missing.
    """
    text = value if isinstance(value, (int, float)) else str(value).strip()
    if isinstance(text, str) and ":" in text:  # float() never accepts ":"
        return _iso_seconds(value, text)
    try:
        seconds = float(text)
    except OverflowError:
        seconds = math.inf
    except ValueError:
        return _iso_seconds(value, text)
    if math.isinf(seconds):
        raise DataModelError(f"cannot parse timestamp {value!r}: not a finite number")
    return seconds


def _iso_seconds(value: Any, text: str) -> float:
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise DataModelError(f"cannot parse timestamp {value!r}") from None
    if dt.tzinfo is None:
        return (dt - _EPOCH).total_seconds()
    return dt.timestamp()


_LAYOUT_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])  # of "YYYY-MM-DD HH:MM:SS"
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _layout_seconds(categories: Sequence[Any], spec: ColumnSpec) -> np.ndarray | None:
    """parse_timestamp of every category at once, NaN for a missing token,
    when each other category is a valid `YYYY-MM-DD HH:MM:SS` (` ` or `T`
    between date and time) in ASCII; None when any is not, so that the
    per-category loop decodes the column or names its first bad cell.

    The categories' ASCII bytes are read as one buffer, 19 to a row; then
    days from the civil date (Hinnant's days_from_civil) and whole seconds in
    int64. Those are the same doubles as fromisoformat's naive datetime minus
    the epoch, which are whole seconds too.
    """
    try:
        lengths = np.fromiter(map(len, categories), np.intp, len(categories))
    except TypeError:  # a number or None
        return None
    sized = categories
    if not (lengths == 19).all():
        sized = list(categories)
        for k in np.flatnonzero(lengths != 19).tolist():
            sized[k] = " " * 19  # out of the layout, so kept below only as a missing token
    try:
        chars = np.frombuffer("".join(sized).encode("ascii"), np.uint8).reshape(-1, 19)
    except (TypeError, UnicodeEncodeError):  # a category that is not str, or not ASCII
        return None
    digits = chars[:, _LAYOUT_DIGITS].astype(np.int64) - ord("0")
    laid_out = (
        ((digits >= 0) & (digits <= 9)).all(axis=1)
        & (chars[:, 4] == ord("-")) & (chars[:, 7] == ord("-"))
        & ((chars[:, 10] == ord(" ")) | (chars[:, 10] == ord("T")))
        & (chars[:, 13] == ord(":")) & (chars[:, 16] == ord(":"))
    )
    tokens = spec.missing_tokens
    if any(len(token) == 19 for token in tokens):  # a cell in the layout is its own strip()
        missing = np.fromiter(map(tokens.__contains__, sized), bool, len(sized))
    else:
        missing = np.zeros(len(sized), bool)
    for k in np.flatnonzero(~laid_out).tolist():
        cell = categories[k]
        if not isinstance(cell, str) or cell.strip() not in tokens:
            return None
        missing[k] = True
    century, year, month, day, hour, minute, second = (digits[:, 0::2] * 10 + digits[:, 1::2]).T
    year += century * 100
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    valid = (
        (year >= 1) & (month >= 1) & (month <= 12)
        & (day >= 1) & (day <= _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2)))
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    if not (valid | missing).all():
        return None
    y = year - (month <= 2)  # years from March, so a leap day ends its year
    of_era = y % 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = y // 400 * 146097 + of_era * 365 + of_era // 4 - of_era // 100 + day_of_year - 719468
    seconds = (days * 86400 + hour * 3600 + minute * 60 + second).astype(float)
    seconds[missing] = np.nan
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


@dataclass(frozen=True, eq=False)
class Codes:
    """A column of labels: codes[i] indexes categories, -1 marks a missing
    cell. Categories are listed in order of first appearance and each is
    used; codes is a read-only int32 array. (Dataset.codes of a numerical or
    datetime column lists its numbers in ascending order instead, Codes.of
    by bit pattern; a rater matrix, see registry._ratings, holds one column
    of codes per rater.)"""

    codes: np.ndarray
    categories: tuple[Any, ...]

    def __post_init__(self) -> None:
        self.codes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def from_rows(cls, levels: tuple[Any, ...], firsts: Iterable[int], rows: np.ndarray) -> "Codes":
        """Codes of cells given as the row of their level's first appearance;
        firsts lists those rows in ascending order, one per level."""
        number = np.empty(len(rows), np.int32)
        number[np.fromiter(firsts, np.intp, len(levels))] = np.arange(len(levels), dtype=np.int32)
        return cls(number[rows], levels)

    @classmethod
    def factorize(cls, cells: Sequence[Any]) -> "Codes":
        """Raw cells as codes, none missing. Equal strings share a code; other
        cells are keyed by type and repr, so 1, 1.0 and True, or 0.0 and -0.0,
        stay apart."""
        keys = cells if {*map(type, cells)} <= {str, type(MISSING)} else [(type(v), repr(v)) for v in cells]
        first: dict[Any, int] = {}
        rows = np.fromiter(map(first.setdefault, keys, count()), np.intp, len(keys))
        return cls.from_rows(tuple(map(cells.__getitem__, first.values())), first.values(), rows)

    @classmethod
    def of(cls, column: "np.ndarray | Codes") -> "Codes":
        """A stored column as Codes: Codes as they are, float values (NaN
        missing) keyed by bit pattern, so 0.0 and -0.0 stay apart as their
        reprs do."""
        if isinstance(column, Codes):
            return column
        present = ~np.isnan(column)
        bits, inverse = np.unique(column[present].view(np.int64), return_inverse=True)
        codes = np.full(len(column), -1, np.int32)
        codes[present] = inverse.reshape(-1)
        return cls(codes, tuple(bits.view(float).tolist()))

    def take(self, idx: np.ndarray) -> "Codes":
        """The cells at idx, categories numbered again by first appearance there."""
        sub = self.codes[idx]
        used, firsts, inverse = np.unique(sub, return_index=True, return_inverse=True)
        kept = np.flatnonzero(used >= 0)
        order = kept[np.argsort(firsts[kept])]
        rank = np.full(len(used), -1, np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        return Codes(rank[inverse.reshape(-1)], tuple(map(self.categories.__getitem__, used[order].tolist())))

    def by_value(self) -> "Codes":
        """Categories that are equal as dict keys (1, 1.0 and True; 0.0 and
        -0.0) merged into the first of them."""
        merged = dict.fromkeys(self.categories)
        if len(merged) == len(self.categories):
            return self
        index = {cat: i for i, cat in enumerate(merged)}
        number = np.array([*map(index.__getitem__, self.categories), -1], np.int32)
        return Codes(number[self.codes], tuple(merged))

    def counts(self) -> np.ndarray:
        """Cells per category in category order as float64, missing skipped;
        the categories must be distinct as dict keys (see by_value)."""
        return np.bincount(self.codes[self.codes >= 0], minlength=len(self.categories)).astype(float)


def _missing_strs(categories: Sequence[str], spec: ColumnSpec) -> np.ndarray:
    """Which str categories are missing tokens once stripped, in one pass."""
    return np.fromiter(map(spec.missing_tokens.__contains__, map(str.strip, categories)), bool, len(categories))


def _str_numbers(categories: Sequence[Any], spec: ColumnSpec) -> np.ndarray | None:
    """The values of a numerical column's categories, as _normalize_cell
    decodes them, in one float pass: missing tokens and every NaN spelling
    ("NAN", "-nan") give the plain NaN that MISSING is stored as. None when
    a category is not a str or float rejects one; the per-cell loop then
    decodes them and names the first bad cell."""
    if not {*map(type, categories)} <= {str}:
        return None
    present = ~_missing_strs(categories, spec)
    values = np.full(len(categories), np.nan)
    try:
        values[present] = np.fromiter(map(float, compress(categories, present)), float)
    except ValueError:
        return None
    values[np.isnan(values)] = np.nan
    return values


def _label_codes(raw: Codes, spec: ColumnSpec) -> Codes:
    """Codes with the categories that are missing cells dropped to -1."""
    if {*map(type, raw.categories)} <= {str}:
        missing = _missing_strs(raw.categories, spec)
    else:
        missing = np.array([_normalize_cell(v, spec) is MISSING for v in raw.categories], bool)
    if not missing.any():
        return raw
    number = np.append(np.where(missing, -1, np.cumsum(~missing) - 1), -1).astype(np.int32)
    return Codes(number[raw.codes], tuple(compress(raw.categories, ~missing)))


def _typed(cells: Any, spec: ColumnSpec) -> np.ndarray | Codes:
    """A column as stored: float64 values, NaN for missing, for numerical and
    datetime columns; Codes for the others. Each distinct cell is decoded
    once, in order of first appearance, so an error names the first bad cell;
    a datetime column whose cells are all in the `YYYY-MM-DD HH:MM:SS` layout,
    or a numerical column of str cells that float accepts, is decoded in one
    pass to the same doubles (_layout_seconds, _str_numbers).

    A float array given for a numerical or datetime column is taken as
    decoded values.
    """
    numeric = spec.vtype in ("numerical", "datetime")
    if numeric and isinstance(cells, np.ndarray) and cells.dtype.kind == "f":
        values = cells.astype(float)
        if spec.vtype == "datetime" and np.isinf(values).any():
            parse_timestamp(values[np.isinf(values)][0])
    else:
        raw = cells if isinstance(cells, Codes) else Codes.factorize(cells)
        if not numeric:
            return _label_codes(raw, spec)
        decoded = (_layout_seconds if spec.vtype == "datetime" else _str_numbers)(raw.categories, spec)
        if decoded is None:
            decoded = np.array([_normalize_cell(v, spec) for v in raw.categories], dtype=float)
        values = np.append(decoded, np.nan)[raw.codes]
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column-major table plus optional per-record signals.

    `cells` gives each column as a sequence of raw cells, as Codes of raw
    cells (what load_dataset reads), or, for a numerical or datetime
    column, as a float array. The build stores each column once, typed
    (see _typed): float64 values with NaN for missing, 8 bytes per cell, or
    Codes, 4 bytes per cell plus one tuple of the distinct categories.
    """

    columns: tuple[ColumnSpec, ...]
    cells: Mapping[str, Any]
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
        typed = {spec.name: _typed(self.cells[spec.name], spec) for spec in cols}
        for spec in cols:
            if spec.vtype == "ordinal":
                if spec.ordinal_order is None:
                    raise DataModelError(f"ordinal column {spec.name!r} needs ordinal_order")
                uncovered = set(typed[spec.name].categories) - set(spec.ordinal_order)
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
        object.__setattr__(self, "cells", typed)
        object.__setattr__(
            self,
            "dictionaries",
            {k: frozenset(v) for k, v in dict(self.dictionaries).items()},
        )
        object.__setattr__(self, "_n_records", n)
        object.__setattr__(self, "_specs", {c.name: c for c in cols})

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

    def array(self, name: str) -> np.ndarray | Codes:
        """The column as stored: float64 values or Codes."""
        return self.cells[self.spec(name).name]

    def codes(self, name: str) -> Codes:
        """The column coded by value: equal categories merged (see
        Codes.by_value), numbers coded in ascending order."""
        col = self.array(name)
        if isinstance(col, Codes):
            return col.by_value()
        numbers, inverse = np.unique(col, return_inverse=True)  # 0.0 and -0.0 are one, NaN is last
        missing = np.isnan(col)
        codes = np.where(missing, -1, inverse.reshape(-1)).astype(np.int32)
        return Codes(codes, tuple(numbers[: len(numbers) - missing.any()].tolist()))

    def missing(self, name: str) -> np.ndarray:
        """A bool array, True where the cell is missing."""
        col = self.array(name)
        return col.codes < 0 if isinstance(col, Codes) else np.isnan(col)

    def missing_count(self, name: str) -> int:
        return int(np.count_nonzero(self.missing(name)))

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


def coded(ds: Dataset, col: str) -> np.ndarray:
    """Float values of a numerical, datetime or ordinal column, NaN for
    missing; ordinal categories are replaced by their rank in ordinal_order."""
    spec = ds.spec(col)
    if spec.vtype in ("numerical", "datetime"):
        return ds.array(col)
    if spec.vtype != "ordinal":
        raise DataModelError(f"column {col!r} is {spec.vtype}; numeric or ordinal required")
    labels = ds.array(col)
    rank = {cat: float(i) for i, cat in enumerate(spec.ordinal_order or ())}
    return np.array([*map(rank.__getitem__, labels.categories), math.nan])[labels.codes]


def present_sample(values: np.ndarray) -> np.ndarray:
    """The values that are not NaN, all of which must be finite."""
    present = values[~np.isnan(values)]
    if not np.isfinite(present).all():
        raise DataModelError("Sample accepts finite values only")
    return present


def column_sample(ds: Dataset, col: str) -> np.ndarray:
    """Numeric values of a column in record order, missing dropped.

    Ordinal columns are encoded by their position in ordinal_order.
    """
    return present_sample(coded(ds, col))


def group_by(ds: Dataset, col: str) -> tuple[dict[Any, np.ndarray], np.ndarray]:
    """Partition record indices by a categorical/ordinal column.

    Returns (groups, missing_indices), ascending index arrays; groups are
    keyed by category in order of first appearance, disjoint, and together
    with the missing set cover all records.
    """
    spec = ds.spec(col)
    if spec.vtype not in ("categorical", "ordinal", "identifier"):
        raise DataModelError(f"group_by needs a categorical column, {col!r} is {spec.vtype}")
    labels = ds.codes(col)
    order = np.argsort(labels.codes, kind="stable")
    sizes = np.bincount(labels.codes + 1, minlength=len(labels.categories) + 1)
    missing, *groups = np.split(order, np.cumsum(sizes)[:-1])
    return dict(zip(labels.categories, groups)), missing


def pooled_counts(a: np.ndarray, b: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 counts of two samples in `bins` equal-width bins over their
    pooled min-max range; a constant pooled sample is one bin.

    Shared edges are required by the divergence ops, whose bins must match.
    """
    if bins < 1:
        raise DataModelError("bin count must be >= 1")
    if len(a) == 0 or len(b) == 0:
        raise DataModelError("cannot bin an empty sample")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return np.array([float(len(a))]), np.array([float(len(b))])
    edges = np.linspace(lo, hi, bins + 1)

    def count(s: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, bins - 1)
        return np.bincount(idx, minlength=bins).astype(float)

    return count(a), count(b)


def take_records(ds: Dataset, indices: Sequence[int], dataset_id: str | None = None) -> Dataset:
    """Row-subset a dataset, keeping records in the given order."""
    n = ds.n_records
    indices = list(indices)
    idx = np.fromiter(map(int, indices), np.intp, len(indices))
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise DataModelError(f"record index {indices[np.argmax(outside)]} out of range 0..{n - 1}")
    signals = tuple(ds.signals[j] for j in idx.tolist()) if ds.signals is not None else None
    return Dataset(
        columns=ds.columns,
        cells={name: ds.array(name).take(idx) for name in ds.column_names},
        signals=signals,
        dataset_id=dataset_id or f"{ds.dataset_id}[subset]",
        dictionaries=ds.dictionaries,
    )
