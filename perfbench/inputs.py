"""Seeded synthetic inputs in the PTB-XL layout, written by the benchmark itself.

Nothing here calls into ``dqeval``: the workloads must not change when the
library's own demo generator does. The same ``(seed, sizes)`` always writes
byte-identical files.

Layout of a PTB-XL root (as the case-study harness reads it):

- ``ptbxl_database.csv``: one row per ECG record, 28 metadata columns;
- ``scp_statements.csv``: SCP code -> diagnostic superclass;
- ``signals_f32/<ecg_id>.f32``: one JSON header line, then
  ``n_samples x 12`` little-endian float32 values, sample-major.
"""

from __future__ import annotations

import csv
import json
import os
from datetime import datetime, timezone

import numpy as np

REAL_RECORDS = 21837
LEADS = ("I", "II", "III", "AVR", "AVL", "AVF", "V1", "V2", "V3", "V4", "V5", "V6")
HZ = 500.0
N_SAMPLES = 5000

# (name, vtype, role) in ptbxl_database.csv header order
PTBXL_COLUMNS: tuple[tuple[str, str, str], ...] = (
    ("ecg_id", "identifier", "feature"),
    ("patient_id", "identifier", "patient_id"),
    ("age", "numerical", "feature"),
    ("sex", "categorical", "feature"),
    ("height", "numerical", "feature"),
    ("weight", "numerical", "feature"),
    ("nurse", "categorical", "feature"),
    ("site", "categorical", "feature"),
    ("device", "categorical", "feature"),
    ("recording_date", "datetime", "feature"),
    ("report", "categorical", "feature"),
    ("scp_codes", "categorical", "feature"),
    ("heart_axis", "categorical", "feature"),
    ("infarction_stadium1", "categorical", "feature"),
    ("infarction_stadium2", "categorical", "feature"),
    ("validated_by", "categorical", "feature"),
    ("second_opinion", "categorical", "feature"),
    ("initial_autogenerated_report", "categorical", "feature"),
    ("validated_by_human", "categorical", "feature"),
    ("baseline_drift", "categorical", "feature"),
    ("static_noise", "categorical", "feature"),
    ("burst_noise", "categorical", "feature"),
    ("electrodes_problems", "categorical", "feature"),
    ("extra_beats", "categorical", "feature"),
    ("pacemaker", "categorical", "feature"),
    ("strat_fold", "numerical", "feature"),
    ("filename_lr", "categorical", "feature"),
    ("filename_hr", "categorical", "feature"),
)
META_COLUMNS = tuple(n for n, v, _ in PTBXL_COLUMNS if v != "identifier")

# SCP statement -> diagnostic superclass ("" marks a non-diagnostic statement)
SCP_CODES = (
    ("NORM", "NORM"), ("IMI", "MI"), ("ASMI", "MI"), ("ILMI", "MI"),
    ("NDT", "STTC"), ("ISC_", "STTC"), ("LAFB", "CD"), ("IRBBB", "CD"),
    ("CLBBB", "CD"), ("LVH", "HYP"), ("SR", ""), ("AFIB", ""),
)
# Exact superclass composition, so every stratified recipe can be met and the
# harness's directional check holds for any seed: the largest of four classes
# in the class-imbalance subset (5% NORM) always outnumbers NORM there by more
# than NORM outnumbers HYP in the original.
SUPERCLASS_SHARE = (("NORM", 0.30), ("MI", 0.20), ("STTC", 0.19), ("CD", 0.18), ("HYP", 0.13))
# Devices are exact within each superclass, and sex within each device. The
# device subset, and with it the harness's work, then has one size for all
# seeds, and at 64 records it always holds NORM and other records and both
# sexes; otherwise its pearson(age, is_norm) or mmd(age by sex) row could be
# undefined for some seeds.
DEVICES = (("AT-6", 0.30), ("CS-12", 0.22), ("AT-60", 0.18), ("CS100", 0.12), ("AT-6 C", 0.10), ("EC-10", 0.08))
MALE_SHARE = 0.52
BASE_TS = 441763200.0  # 1984-01-01
SPAN_S = 17 * 365.25 * 86400


def _exact_labels(rng: np.random.Generator, n: int, shares) -> np.ndarray:
    """n labels in the given shares, in a seeded random order; the last label takes the rest.

    Cumulative shares are rounded, so no count is negative and they sum to n.
    """
    labels = np.array([label for label, _ in shares], dtype=object)
    bounds = [int(round(c * n)) for c in np.cumsum([share for _, share in shares[:-1]])]
    counts = np.diff([0, *bounds, n])
    return rng.permutation(np.repeat(labels, counts))


def _exact_within(rng: np.random.Generator, strata: np.ndarray, shares) -> np.ndarray:
    """Labels in the given shares (rounded) within each stratum, in a seeded random order."""
    out = np.empty(strata.size, dtype=object)
    for stratum in sorted(set(strata)):
        members = np.flatnonzero(strata == stratum)
        out[members] = _exact_labels(rng, members.size, shares)
    return out


def _blank(rng: np.random.Generator, n: int, p_missing: float, values: np.ndarray) -> list[str]:
    miss = rng.random(n) < p_missing
    return ["" if m else str(v) for m, v in zip(miss, values)]


def ptbxl_table(n: int, seed: int) -> dict[str, list[str]]:
    """The 28 metadata columns of n records, as CSV cell strings."""
    rng = np.random.default_rng([seed, 1])
    ids = np.arange(1, n + 1)
    n_patients = max(2, int(n * 0.865))
    superclass = _exact_labels(rng, n, SUPERCLASS_SHARE)
    device = _exact_within(rng, superclass, DEVICES)
    sex = _exact_within(rng, device, (("0", MALE_SHARE), ("1", 0.0)))
    by_class: dict[str, list[str]] = {}
    for code, cls in SCP_CODES:
        if cls:
            by_class.setdefault(cls, []).append(code)
    likelihood = rng.choice([50.0, 80.0, 100.0], size=n)
    rhythm = rng.random(n) < 0.8
    scp = []
    for i in range(n):
        codes = by_class[superclass[i]]
        code = codes[int(rng.integers(len(codes)))]
        extra = ", 'SR': 0.0" if rhythm[i] else ""
        scp.append("{'%s': %.1f%s}" % (code, likelihood[i], extra))
    age = np.clip(rng.normal(62.0, 17.0, n), 2, 95).round(0)
    stamps = BASE_TS + rng.integers(0, int(SPAN_S), n)
    dates = [datetime.fromtimestamp(float(t), tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S") for t in stamps]
    return {
        "ecg_id": [str(i) for i in ids],
        "patient_id": [f"{v:.1f}" for v in 1 + rng.integers(0, n_patients, n)],
        "age": _blank(rng, n, 0.01, age),
        "sex": [str(v) for v in sex],
        "height": _blank(rng, n, 0.68, rng.normal(166.0, 10.0, n).round(0)),
        "weight": _blank(rng, n, 0.57, rng.normal(70.0, 15.0, n).round(0)),
        "nurse": _blank(rng, n, 0.07, rng.integers(0, 12, n).astype(float)),
        "site": _blank(rng, n, 0.001, rng.integers(0, 51, n).astype(float)),
        "device": [str(v) for v in device],
        "recording_date": dates,
        "report": _blank(rng, n, 0.0, rng.choice(
            np.array(["sinus rhythm normal ekg", "sinusrhythmus linkstyp", "edit: ", "ekg unverändert"], dtype=object), n)),
        "scp_codes": scp,
        "heart_axis": _blank(rng, n, 0.39, rng.choice(np.array(["MID", "LAD", "ALAD", "RAD"], dtype=object), n)),
        "infarction_stadium1": _blank(rng, n, 0.74, rng.choice(np.array(["unknown", "Stadium I", "Stadium II"], dtype=object), n)),
        "infarction_stadium2": _blank(rng, n, 0.995, np.full(n, "Stadium III", dtype=object)),
        "validated_by": _blank(rng, n, 0.43, rng.integers(0, 13, n).astype(float)),
        "second_opinion": [str(v) for v in rng.random(n) < 0.02],
        "initial_autogenerated_report": [str(v) for v in rng.random(n) < 0.6],
        "validated_by_human": [str(v) for v in rng.random(n) < 0.74],
        "baseline_drift": _blank(rng, n, 0.93, np.full(n, ", I-AVR,", dtype=object)),
        "static_noise": _blank(rng, n, 0.85, np.full(n, ", I-V1,", dtype=object)),
        "burst_noise": _blank(rng, n, 0.97, np.full(n, "alles", dtype=object)),
        "electrodes_problems": _blank(rng, n, 0.999, np.full(n, "V6", dtype=object)),
        "extra_beats": _blank(rng, n, 0.91, rng.choice(np.array(["1ES", "2VES", "SVES"], dtype=object), n)),
        "pacemaker": _blank(rng, n, 0.99, np.full(n, "ja, pacemaker", dtype=object)),
        "strat_fold": [str(1 + int(v)) for v in rng.integers(0, 10, n)],
        "filename_lr": [f"records100/{i // 1000:02d}000/{i:05d}_lr" for i in ids],
        "filename_hr": [f"records500/{i // 1000:02d}000/{i:05d}_hr" for i in ids],
    }


def write_csv(path: str, columns: dict[str, list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*columns.values()))


def ecg_leads(rng: np.random.Generator, n_samples: int = N_SAMPLES) -> np.ndarray:
    """(12, n_samples) float32: a heartbeat-like waveform per lead plus noise."""
    t = np.arange(n_samples) / HZ
    rate = rng.uniform(0.9, 1.6)
    phase = (t * rate) % 1.0
    beat = np.exp(-((phase - 0.3) ** 2) / 0.0008) - 0.2 * np.exp(-((phase - 0.6) ** 2) / 0.004)
    gains = rng.uniform(-1.2, 1.2, (len(LEADS), 1))
    wander = 0.1 * np.sin(2 * np.pi * rng.uniform(0.1, 0.4) * t + rng.uniform(0, 6.3, (len(LEADS), 1)))
    noise = rng.normal(0.0, 0.05, (len(LEADS), n_samples))
    return (gains * beat + wander + noise).astype(np.float32)


def write_signal(path: str, leads: np.ndarray) -> None:
    header = {
        "channels": int(leads.shape[0]),
        "n_samples": int(leads.shape[1]),
        "sampling_hz": HZ,
        "channel_names": list(LEADS),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(leads.T, dtype="<f4").tobytes())


def read_signal(path: str) -> np.ndarray:
    """(channels, n_samples) float64, decoded independently of dqeval."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = np.frombuffer(fh.read(), dtype="<f4")
    return payload.reshape(int(header["n_samples"]), int(header["channels"])).T.astype(float)


def write_ptbxl_root(root: str, n_records: int, seed: int, signals: bool = True,
                     n_samples: int = N_SAMPLES) -> dict[str, list[str]]:
    """A PTB-XL-layout root; returns the metadata columns it wrote."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "scp_statements.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", "description", "diagnostic", "diagnostic_class"])
        for code, cls in SCP_CODES:
            writer.writerow([code, f"statement {code}", "1.0" if cls else "", cls])
    table = ptbxl_table(n_records, seed)
    write_csv(os.path.join(root, "ptbxl_database.csv"), table)
    if signals:
        sig_dir = os.path.join(root, "signals_f32")
        os.makedirs(sig_dir, exist_ok=True)
        rng = np.random.default_rng([seed, 2])
        for ecg_id in table["ecg_id"]:
            write_signal(os.path.join(sig_dir, f"{ecg_id}.f32"), ecg_leads(rng, n_samples))
    return table


def ptbxl_descriptor(dataset_id: str, signals: bool, evaluation_time: float) -> dict:
    doc = {
        "dataset_id": dataset_id,
        "table": {"path": "ptbxl_database.csv", "delimiter": ","},
        "columns": [{"name": n, "vtype": v, "role": r} for n, v, r in PTBXL_COLUMNS],
        "evaluation_time": evaluation_time,
    }
    if signals:
        doc["signals"] = {"dir": "signals_f32", "format": "f32le", "file_column": "ecg_id",
                          "pattern": "{value}.f32"}
    return doc


def drift_table(n: int, seed, shift: float) -> dict[str, list[str]]:
    """n records in two groups; group "b" is offset by ``shift`` standard deviations."""
    rng = np.random.default_rng(seed)
    group = np.where(np.arange(n) % 2 == 0, "a", "b")
    value = rng.normal(0.0, 1.0, n) + np.where(group == "b", shift, 0.0)
    return {
        "record_id": [str(i) for i in range(1, n + 1)],
        "group": [str(g) for g in group],
        "value": [repr(float(v)) for v in value],
    }


DRIFT_COLUMNS = (("record_id", "identifier", "feature"), ("group", "categorical", "feature"),
                 ("value", "numerical", "feature"))


def drift_descriptor(dataset_id: str, table: str) -> dict:
    return {
        "dataset_id": dataset_id,
        "table": {"path": table, "delimiter": ","},
        "columns": [{"name": n, "vtype": v, "role": r} for n, v, r in DRIFT_COLUMNS],
    }


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
