"""Dataset ingestion from descriptor files and quality-report emission.

A descriptor is one JSON document naming the table file, its column
specs, optional per-record signal payloads and per-column dictionaries.
Reports pair the selection rationale with the computed metric results;
JSON keeps full precision, the Markdown table rounds to two decimals.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import registry as _registry
from .datamodel import Codes, ColumnSpec, DataModelError, Dataset, F32Record, SignalBlock, read_word_list

SIGNAL_FORMATS = ("f32le", "csv")
_ROW_BLOCK = 2048  # table rows parsed and transposed at a time
# Tables of at least this many bytes are read by _read_columns_bytes, smaller
# ones by csv. Where the two cross depends on the column count. Medians to
# read every column, csv against bytes: 28 PTB-XL columns at 1 024 rows
# (196 KB) 5.2 against 5.5 ms and at 1 536 rows (294 KB) 11.3 against 8.8 ms;
# 3 columns at 3 000 rows (82 KB) 4.1 against 4.0 ms and at 6 000 rows
# (164 KB) 7.8 against 6.5 ms; a 714-byte table 0.2 against 1.0 ms.
_BYTE_TABLE_MIN = 128 << 10
# Bytes read at a time by _read_columns_bytes. 1 MiB blocks read the
# 4.2 MB evaluate-meta table no faster and raised its tracemalloc peak from
# 17 to 25 MB.
_BLOCK_BYTES = 1 << 18
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(8)] + [(1 << 64) - 1], "<u8")  # a word's first k bytes


class DataLoadError(Exception):
    """A descriptor or its referenced files could not be loaded."""


@dataclass(frozen=True)
class SignalSource:
    dir: str
    format: str
    file_column: str
    pattern: str = "{value}"
    sampling_hz: float | None = None

    def __post_init__(self) -> None:
        if self.format not in SIGNAL_FORMATS:
            raise DataLoadError(f"unknown signal format {self.format!r}; expected one of {SIGNAL_FORMATS}")
        try:
            self.pattern.format(value="")
        except (AttributeError, LookupError, ValueError):
            raise DataLoadError(f"signals pattern may name no field but {{value}}: {self.pattern!r}") from None
        if not isinstance(self.file_column, str):
            raise DataLoadError(f"signals file_column must be a column name, not {self.file_column!r}")
        hz = self.sampling_hz
        if hz is not None and (type(hz) not in (int, float) or not 0 < hz < math.inf):  # bool is not a rate
            raise DataLoadError(f"signals sampling_hz must be finite and > 0, got {hz!r}")


@dataclass(frozen=True)
class DatasetDescriptor:
    table_path: str
    columns: tuple[ColumnSpec, ...]
    delimiter: str = ","
    dataset_id: str = "dataset"
    signals: SignalSource | None = None
    dictionaries: Mapping[str, Any] = field(default_factory=dict)
    row_index: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise DataLoadError(f"table delimiter must be one character, not {self.delimiter!r}")


def _column_spec_from_dict(raw: Mapping[str, Any]) -> ColumnSpec:
    if not isinstance(raw, Mapping):
        raise DataLoadError(f"descriptor column entry must be a JSON object, not {raw!r}")
    try:
        return ColumnSpec(
            name=raw["name"],
            vtype=raw.get("vtype", "numerical"),
            role=raw.get("role", "feature"),
            ordinal_order=tuple(raw["ordinal_order"]) if raw.get("ordinal_order") else None,
            missing_tokens=frozenset(raw["missing_tokens"]) if "missing_tokens" in raw else ColumnSpec.__dataclass_fields__["missing_tokens"].default,
        )
    except DataModelError as exc:
        raise DataLoadError(f"descriptor column {raw['name']!r}: {exc}") from exc


def _section(doc: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    value = doc[key]
    if not isinstance(value, Mapping):
        raise DataLoadError(f"descriptor {key} must be a JSON object, not {type(value).__name__}")
    return value


def parse_descriptor(doc: Mapping[str, Any], base_dir: str = ".") -> DatasetDescriptor:
    if not isinstance(doc, Mapping):
        raise DataLoadError(f"descriptor must be a JSON object, not {type(doc).__name__}")
    try:
        table = _section(doc, "table")
        if not isinstance(doc["columns"], list):
            raise DataLoadError("descriptor columns must be a JSON list")
        signals = None
        if doc.get("signals"):
            s = _section(doc, "signals")
            signals = SignalSource(
                dir=os.path.join(base_dir, s["dir"]),
                format=s.get("format", "f32le"),
                file_column=s["file_column"],
                pattern=s.get("pattern", "{value}"),
                sampling_hz=s.get("sampling_hz"),
            )
        return DatasetDescriptor(
            table_path=os.path.join(base_dir, table["path"]),
            delimiter=table.get("delimiter", ","),
            columns=tuple(_column_spec_from_dict(c) for c in doc["columns"]),
            dataset_id=doc.get("dataset_id", "dataset"),
            signals=signals,
            dictionaries=dict(_section(doc, "dictionaries")) if "dictionaries" in doc else {},
            row_index=os.path.join(base_dir, doc["row_index"]) if doc.get("row_index") else None,
        )
    except KeyError as exc:
        raise DataLoadError(f"descriptor misses required field {exc}") from exc
    except TypeError as exc:
        raise DataLoadError(f"descriptor field has the wrong JSON type: {exc}") from exc
    except DataModelError as exc:
        raise DataLoadError(str(exc)) from exc


def read_descriptor(path: str) -> DatasetDescriptor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataLoadError(f"cannot read descriptor {path}: {exc}") from exc
    try:
        return parse_descriptor(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    except DataLoadError as exc:
        raise DataLoadError(f"{path}: {exc}") from exc


def _read_signal_f32le(path: str) -> tuple[F32Record, float, tuple[str, ...]]:
    """The header of an f32le record and its payload as an F32Record, which
    the payload's byte count is checked against here; no sample is read."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        offset = fh.tell()
        nbytes = os.fstat(fh.fileno()).st_size - offset
    if nbytes % 4:
        raise ValueError("buffer size must be a multiple of element size")
    try:
        channels, n_samples = int(header["channels"]), int(header["n_samples"])
        hz = float(header["sampling_hz"])
        names = tuple(header.get("channel_names", ()) or (f"ch{i}" for i in range(channels)))
    except KeyError as exc:
        raise ValueError(f"header misses required field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"header is not a JSON object of the right field types: {exc}") from None
    if nbytes // 4 != channels * n_samples or min(channels, n_samples) < 0:
        raise DataLoadError(
            f"{path}: payload holds {nbytes // 4} floats, header promises {channels}x{n_samples}"
        )
    return F32Record(os.path.abspath(path), offset, channels, n_samples), hz, names


def _read_signal_csv(path: str, sampling_hz: float) -> tuple[np.ndarray, float, tuple[str, ...]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataLoadError(f"{path}: empty signal file")
    return np.array(rows[1:], dtype=float).T, float(sampling_hz), tuple(rows[0])


def _read_columns(reader: Iterator[list[str]], positions: Mapping[str, int]) -> tuple[dict[str, Codes], int]:
    """The named columns of the table body as Codes of their strings, and
    its row count, read in row blocks.

    A row shorter than a column's position gives that column "". Each cell
    is first coded as the row where its string first appears, by one
    dict.setdefault per cell.
    """
    width = max(positions.values(), default=-1) + 1
    first: dict[str, dict[str, int]] = {name: {} for name in positions}
    rows: dict[str, list[np.ndarray]] = {name: [np.empty(0, np.int32)] for name in positions}
    n_rows = 0
    while block := list(islice(reader, _ROW_BLOCK)):
        by_pos = list(zip(*(row if len(row) >= width else row + [""] * (width - len(row)) for row in block)))
        for name, pos in positions.items():
            firsts = map(first[name].setdefault, by_pos[pos], count(n_rows))
            rows[name].append(np.fromiter(firsts, np.int32, len(block)))
        n_rows += len(block)
    return {
        name: Codes.from_rows(tuple(seen), seen.values(), np.concatenate(rows[name]))
        for name, seen in first.items()
    }, n_rows


def _read_columns_bytes(fh: BinaryIO, delimiter: str, names: Sequence[str]) -> tuple[dict[str, Codes], int] | None:
    """_read_columns's result for the named columns of the table in fh,
    header included, tokenised from its bytes; None when it declines the
    table, which csv must then read.

    The file is read in blocks of whole records. In each, quote parity tells
    the delimiters, CRs, LFs and CRLFs that end a field, and each named
    column's cells become rows of zero-padded little-endian uint64 key words.
    After the last block one sort per column codes its keys; only distinct
    keys are decoded. It declines a non-ASCII delimiter or one of '"', CR, LF
    and NUL, and a table with a NUL byte, invalid UTF-8, a quote that neither
    opens, closes nor doubles inside a field, an unclosed quote, a field
    longer than csv.field_size_limit(), or a block whose keys would take over
    eight times its bytes.
    """
    d = ord(delimiter)
    if d > 127 or delimiter in '"\r\n\0':
        return None
    bounds = np.zeros(256, bool)  # the bytes allowed before an opening and after a closing quote
    bounds[[d, 10, 13, 34]] = True
    limit = csv.field_size_limit()
    positions: dict[str, int] | None = None
    keys: dict[str, list[np.ndarray]] = {}
    n_rows, carry, eof = 0, b"", False
    while not eof:
        chunk = fh.read(max(_BLOCK_BYTES, len(carry)))  # a record longer than a block doubles the read
        buf, eof = carry + chunk, not chunk
        if eof and buf[-1:] not in (b"", b"\r", b"\n"):
            buf += b"\n"  # the last record reads the same with a line end
        padded = np.frombuffer(buf + bytes(8), np.uint8)  # every cell's words can be read whole
        special = np.flatnonzero((padded == d) | (padded == 10) | (padded == 13) | (padded == 34))
        quote = padded[special] == 34
        stops = special[~(quote | np.logical_xor.accumulate(quote))]  # outside quotes
        ends = stops[padded[stops] != d]
        if not eof and ends.size and ends[-1] == len(buf) - 1 and buf[-1] == 13:
            ends = ends[:-1]  # an LF may follow in the next read
        cut = int(ends[-1]) + 1 if ends.size else 0
        carry = buf[cut:]
        if eof and carry:
            return None  # an unclosed quote
        if not cut:
            continue
        a, quotes, stops = padded[:cut], special[quote & (special < cut)], stops[stops < cut]
        # a[-1] ends a record, so the byte before an opening and after a closing quote is in a
        if (a == 0).any() or not (bounds[a[quotes[::2] - 1]].all() and bounds[a[quotes[1::2] + 1]].all()):
            return None
        try:
            str(memoryview(buf)[:cut], "utf-8")
        except UnicodeDecodeError:
            return None
        kind = a[stops]
        keep = (kind != 10) | (a[stops - 1] != 13) | (stops == 0)  # not the LF of a CRLF
        stops, kind = stops[keep], kind[keep]
        starts = np.zeros_like(stops)
        starts[1:] = stops[:-1] + 1 + ((kind[:-1] == 13) & (a[stops[:-1] + 1] == 10))
        quoted = a[starts] == 34
        lo, hi = starts + quoted, stops - quoted
        if (hi - lo).max() > limit:
            return None
        firsts = np.flatnonzero(np.r_[True, kind[:-1] != d])  # each record's first field
        widths = np.diff(np.r_[firsts, stops.size])
        if positions is None:
            spans = zip(lo[:widths[0]].tolist(), hi[:widths[0]].tolist())
            header = [buf[i:j].decode().replace('""', '"') for i, j in spans]
            if header == [""] and not quoted[0] or not set(names) <= set(header):
                return None  # csv reads a blank header line as no field, and names a missing column
            positions = {name: header.index(name) for name in names}
            keys = {name: [] for name in positions}
            names_at, column = list(positions), np.array(list(positions.values()), np.intp)
            firsts, widths = firsts[1:], widths[1:]
        word = np.ndarray((cut,), "<u8", padded, 0, (1,))  # word[i]: the 8 bytes from a[i]
        field = np.minimum(firsts[:, None] + column, stops.size - 1)
        start = lo[field]
        length = np.where(widths[:, None] > column, hi[field] - start, 0)
        n_words = length.max(0, initial=0) // 8 + 1  # a zero byte ends each key
        if n_words.sum() * firsts.size > cut:
            return None  # keys over eight times the block's bytes: a very long cell
        for n in np.unique(n_words).tolist():  # the columns of n words each, gathered together
            of_n = np.flatnonzero(n_words == n)
            offsets = np.arange(0, 8 * n, 8)
            at = np.minimum(start[:, of_n, None] + offsets, cut - 1)
            cells = word[at] & _LOW_BYTES[np.clip(length[:, of_n, None] - offsets, 0, 8)]
            for j, i in enumerate(of_n.tolist()):
                keys[names_at[i]].append(cells[:, j])
        n_rows += firsts.size
    if positions is None:
        return None
    return {name: _code_keys(keys.pop(name)) for name in positions}, n_rows


def _code_keys(blocks: list[np.ndarray]) -> Codes:
    """Codes of the cells given as blocks of rows of zero-padded key words,
    with the distinct keys decoded as the categories."""
    keys = np.zeros((sum(map(len, blocks)), max(block.shape[1] for block in blocks)), "<u8")
    row = 0
    for block in blocks:
        keys[row:row + len(block), :block.shape[1]] = block
        row += len(block)
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    ordered = keys[order]
    new = np.ones(len(keys), bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(1)
    groups = np.flatnonzero(new)
    by_first = np.argsort(np.minimum.reduceat(order, groups))  # the keys in order of first appearance
    rank = np.empty(len(groups), np.int32)
    rank[by_first] = np.arange(len(groups), dtype=np.int32)
    codes = np.empty(len(keys), np.int32)
    codes[order] = rank[np.cumsum(new) - 1]
    text = ordered[groups[by_first]].view(np.uint8)
    byte = text != 0
    byte[np.arange(len(groups)), byte.sum(1)] = True  # and the zero byte after each key
    return Codes(codes, tuple(text[byte].tobytes().decode().replace('""', '"').split("\0")[:-1]))


def load_dataset(desc: DatasetDescriptor) -> Dataset:
    """Materialize a Dataset from its descriptor.

    Datetime columns accept epoch seconds or ISO-8601 strings. Signal
    files that are listed but absent yield records without a signal;
    a missing signal directory is an error.
    """
    try:
        read = None
        if os.stat(desc.table_path).st_size >= _BYTE_TABLE_MIN:
            with open(desc.table_path, "rb") as raw:
                read = _read_columns_bytes(raw, desc.delimiter, [spec.name for spec in desc.columns])
        if read is None:
            with open(desc.table_path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh, delimiter=desc.delimiter)
                header = next(reader, None)
                if header is None:
                    raise DataLoadError(f"{desc.table_path}: empty table")
                positions = {}
                for spec in desc.columns:
                    if spec.name not in header:
                        raise DataLoadError(f"column {spec.name!r} not found in table header")
                    positions[spec.name] = header.index(spec.name)
                read = _read_columns(reader, positions)
        cells, n_rows = read
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataLoadError(f"cannot read table {desc.table_path}: {exc}") from exc
    if desc.row_index is not None:
        try:
            with open(desc.row_index, "r", encoding="utf-8") as fh:
                keep = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DataLoadError(f"cannot read row index {desc.row_index}: {exc}") from exc
        if not isinstance(keep, list):
            raise DataLoadError(f"row index {desc.row_index} must be a JSON list, not {type(keep).__name__}")
        not_int = [i for i in keep if isinstance(i, bool) or not isinstance(i, int)]
        if not_int:
            raise DataLoadError(f"row index entries must be integers, not {not_int[0]!r}")
        outside = [i for i in keep if not 0 <= i < n_rows]
        if outside:
            raise DataLoadError(f"row index out of range: {outside[0]} not in 0..{n_rows - 1}")
        cells = {name: col.take(keep) for name, col in cells.items()}

    dictionaries = {}
    for col, source in desc.dictionaries.items():
        if isinstance(source, str):
            path = os.path.join(os.path.dirname(desc.table_path), source)
            try:
                dictionaries[col] = read_word_list(path)
            except (OSError, DataModelError) as exc:
                raise DataLoadError(f"cannot read dictionary {path}: {exc}") from exc
        elif isinstance(source, list):
            dictionaries[col] = source
        else:
            raise DataLoadError(f"dictionary of {col!r} must be a file name or a JSON list, not {source!r}")

    signals = None
    if desc.signals is not None:
        src = desc.signals
        if not os.path.isdir(src.dir):
            raise DataLoadError(f"signal directory {src.dir} does not exist")
        if src.file_column not in cells:
            raise DataLoadError(f"signal file column {src.file_column!r} is not a loaded column")
        blocks = []
        files = cells[src.file_column]
        for value in map(files.categories.__getitem__, files.codes.tolist()):
            if value in ("", None):
                blocks.append(None)
                continue
            path = os.path.join(src.dir, src.pattern.format(value=value))
            if not os.path.isfile(path):
                blocks.append(None)
                continue
            try:
                if src.format == "f32le":
                    payload, hz, names = _read_signal_f32le(path)
                else:
                    if src.sampling_hz is None:
                        raise DataLoadError("csv signal format requires sampling_hz in the descriptor")
                    payload, hz, names = _read_signal_csv(path, src.sampling_hz)
                blocks.append(SignalBlock(samples=payload, sampling_hz=hz, channel_names=names))
            except (OSError, ValueError, csv.Error) as exc:
                raise DataLoadError(f"cannot read signal {path}: {exc}") from exc
        signals = tuple(blocks)

    try:
        return Dataset(
            columns=desc.columns,
            cells=cells,
            signals=signals,
            dataset_id=desc.dataset_id,
            dictionaries={k: frozenset(map(str, v)) for k, v in dictionaries.items()},
        )
    except DataModelError as exc:
        raise DataLoadError(str(exc)) from exc


# --- report assembly ---------------------------------------------------------


def _json_safe(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def result_entry(
    metric_id: str,
    dimension: str,
    scope: str,
    params: Mapping[str, Any],
    value: Any = None,
    warnings: Iterable[str] = (),
    error: str | None = None,
) -> dict[str, Any]:
    entry = {
        "metric_id": metric_id,
        "dimension": dimension,
        "scope": scope,
        "params": _json_safe(dict(params)),
        "value": _json_safe(value),
        "warnings": list(warnings),
    }
    if error is not None:
        entry["error"] = error
    return entry


def evaluate_row(
    ds: Dataset,
    metric_id: str,
    dimension: str,
    params: Mapping[str, Any] | None = None,
    ds_b: Dataset | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """One report row; evaluation failures are recorded, not raised."""
    try:
        res = _registry.evaluate(metric_id, ds, params=params, ds_b=ds_b, seed=seed)
    except (_registry.EvaluationError, _registry.RegistryError) as exc:
        return result_entry(
            metric_id, dimension, scope="unresolved", params=params or {}, error=str(exc)
        )
    return result_entry(
        metric_id, dimension, res.scope, res.params, res.value, res.warnings
    )


def build_report(
    dataset_id: str,
    profile: Mapping[str, Any],
    selection_doc: Mapping[str, Any],
    results: list[dict[str, Any]],
    seed: int | None = None,
) -> dict[str, Any]:
    from .selection import _library_version

    return {
        "dataset_id": dataset_id,
        "profile": _json_safe(dict(profile)),
        "selection": _json_safe(dict(selection_doc)),
        "results": results,
        "environment": {"library_version": _library_version(), "seed": seed},
    }


def report_json(report: Mapping[str, Any]) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False, sort_keys=False) + "\n"


def _round2(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if float(value).is_integer() and abs(value) >= 100:
            return str(int(value))
        return f"{value:.2f}"
    if isinstance(value, Mapping):
        return ", ".join(f"{k}={_round2(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_round2(v) for v in value) + "]"
    return str(value)


def render_report_markdown(report: Mapping[str, Any]) -> str:
    """Dimension-grouped result table, values rounded to two decimals."""
    lines = [f"# Data quality report: {report['dataset_id']}", ""]
    lines.append("| Dimension | Metric | Scope | Value |")
    lines.append("| --- | --- | --- | --- |")
    for row in report["results"]:
        if "error" in row:
            value = f"error: {row['error']}"
        else:
            value = _round2(row["value"])
            if row.get("warnings"):
                value += " (*)"
        lines.append(
            f"| {row['dimension']} | {row['metric_id']} | {row['scope']} | {value} |"
        )
    if any(r.get("warnings") for r in report["results"]):
        lines.append("")
        lines.append("(*) result carries warnings; see the JSON report.")
    seed = report.get("environment", {}).get("seed")
    lines.append("")
    lines.append(f"Seed: {seed}")
    return "\n".join(lines) + "\n"


def check_same_schema(a: Dataset, b: Dataset) -> None:
    """Error on the first column whose name or type differs between datasets."""
    for i in range(max(len(a.columns), len(b.columns))):
        if i >= len(a.columns):
            raise DataLoadError(f"schema mismatch: column {b.columns[i].name!r} only in second dataset")
        if i >= len(b.columns):
            raise DataLoadError(f"schema mismatch: column {a.columns[i].name!r} only in first dataset")
        ca, cb = a.columns[i], b.columns[i]
        if ca.name != cb.name or ca.vtype != cb.vtype:
            raise DataLoadError(
                f"schema mismatch at column {ca.name!r}: "
                f"({ca.name}, {ca.vtype}) vs ({cb.name}, {cb.vtype})"
            )


def _numeric(value: Any) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def compare_results(rows_a: list[dict], rows_b: list[dict]) -> list[dict[str, Any]]:
    """Pair result rows by (metric_id, scope) and attach numeric deltas."""
    out = []
    index_b = {(r["metric_id"], r["scope"]): r for r in rows_b}
    for ra in rows_a:
        rb = index_b.get((ra["metric_id"], ra["scope"]))
        entry = {
            "metric_id": ra["metric_id"],
            "dimension": ra["dimension"],
            "scope": ra["scope"],
            "value_a": ra.get("value"),
            "value_b": rb.get("value") if rb else None,
        }
        va = _numeric(ra.get("value"))
        vb = _numeric(rb.get("value")) if rb else None
        if va is not None and vb is not None:
            entry["delta"] = vb - va
        out.append(entry)
    return out


def render_comparison_markdown(pairs: list[dict], id_a: str, id_b: str) -> str:
    lines = [
        f"| Dimension | Metric | Scope | {id_a} | {id_b} | Delta |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for p in pairs:
        delta = _round2(p["delta"]) if "delta" in p else ""
        lines.append(
            f"| {p['dimension']} | {p['metric_id']} | {p['scope']} "
            f"| {_round2(p['value_a'])} | {_round2(p['value_b'])} | {delta} |"
        )
    return "\n".join(lines) + "\n"
