"""Checks on the artifacts of one pipeline, read back from disk.

Every checker takes the output directory and returns a list of problems;
an empty list means the artifact is correct. A problem is a
``(message, defect)`` pair: ``defect`` names a known, already reported
defect of the program when the problem has exactly that defect's
signature, and is ``None`` otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from collections.abc import Iterator
from pathlib import Path

# Known defects of the program, by the name reported with each run.
PERMUTATION_TARGET_ORDER = "permutation-target-order"
STABILITY_NUMPY_REPR = "stability-numpy-repr"
KNOWN_DEFECTS = {
    PERMUTATION_TARGET_ORDER: "permutation_importance indexes Y by the alphabetised model.targets "
    "after load_model, so r2_drop is measured against the wrong target",
    STABILITY_NUMPY_REPR: "write_stability_csv applies repr to the numpy scalar from sym_kl, "
    "writing np.float64(...) instead of a number",
}

# Artifacts each stage writes; their digests must repeat across pipelines.
STAGE_ARTIFACTS = {
    "synth": ("tollbooth.csv", "routing.csv", "difference.csv"),
    "train": ("model.json",),
    "eval": ("metrics.csv", "residuals.csv"),
    "explain": ("importance.csv", "attributions.csv", "permutation.csv"),
    "route": ("od_matrix.csv", "ledger.csv"),
    "stability": ("stability.csv",),
}

R2_MODEL_MIN = 0.90
R2_BASELINE_MAX = 0.60

_NPFLOAT = re.compile(r"^np\.float64\((.*)\)$")


def _rows(path: Path) -> Iterator[dict[str, str]]:
    """Stream a CSV's rows, so that large artifacts never sit in memory."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def _is_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def check_conservation(out: Path, expected_hours: int) -> list[tuple[str, str | None]]:
    """OD counts per (hour, scenario) equal the ledger decisions, and per
    hour equal the ledger balance, for every hour of the run."""
    decided: dict[tuple[str, str], int] = {}
    balance: dict[str, int] = {}
    for row in _rows(out / "ledger.csv"):
        if row["entry_type"] == "decision":
            key = (row["timestamp"], row["scenario"])
            decided[key] = decided.get(key, 0) + int(row["amount"])
        elif row["entry_type"] == "balance":
            balance[row["timestamp"]] = int(row["amount"])
    routed: dict[tuple[str, str], int] = {}
    for row in _rows(out / "od_matrix.csv"):
        key = (row["timestamp"], row["scenario"])
        routed[key] = routed.get(key, 0) + int(row["count"])
    problems = []
    if len(balance) != expected_hours:
        problems.append(f"ledger has {len(balance)} balance hours, expected {expected_hours}")
    for key in sorted(set(decided) | set(routed)):
        if decided.get(key, 0) != routed.get(key, 0):
            problems.append(f"{key}: ledger decided {decided.get(key, 0)}, od_matrix has {routed.get(key, 0)}")
    per_hour: dict[str, int] = {}
    for (hour, _), count in routed.items():
        per_hour[hour] = per_hour.get(hour, 0) + count
    for hour in sorted(set(balance) | set(per_hour)):
        if balance.get(hour) != per_hour.get(hour, 0):
            problems.append(f"{hour}: ledger balance {balance.get(hour)}, od_matrix has {per_hour.get(hour, 0)}")
    return [(p, None) for p in problems[:5]]


def check_metrics(out: Path) -> list[tuple[str, str | None]]:
    """Criterion 2: the model clears R^2 0.90 on the validation split and
    the raw-flow baseline stays at or below 0.60."""
    r2 = {row["target"]: row["r2_valid"] for row in _rows(out / "metrics.csv")}
    problems = []
    total, baseline = r2.get("total", "NA"), r2.get("people_flow_baseline", "NA")
    if not _is_number(total) or float(total) < R2_MODEL_MIN:
        problems.append(f"total r2_valid {total} below {R2_MODEL_MIN}")
    if not _is_number(baseline) or float(baseline) > R2_BASELINE_MAX:
        problems.append(f"baseline r2_valid {baseline} above {R2_BASELINE_MAX}")
    return [(p, None) for p in problems]


def check_importance(out: Path, expected_rows: int) -> list[tuple[str, str | None]]:
    """importance.csv equals the column means of |attributions.csv|, and
    tagValue equals the sum of the tag_* rows."""
    attributions = list(_rows(out / "attributions.csv"))
    problems = []
    if len(attributions) != expected_rows:
        problems.append(f"attributions.csv has {len(attributions)} rows, expected {expected_rows}")
    if not all(_is_number(v) for row in attributions for v in row.values()):
        problems.append("attributions.csv holds a non-finite or non-numeric value")
        return [(p, None) for p in problems]
    importance = {row["feature"]: float(row["mean_abs_shap"]) for row in _rows(out / "importance.csv")}
    features = [f for f in attributions[0] if f != "base_value"] if attributions else []
    for feature in features:
        mean_abs = math.fsum(abs(float(row[feature])) for row in attributions) / len(attributions)
        if not math.isclose(importance.get(feature, math.nan), mean_abs, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{feature}: importance {importance.get(feature)} != mean |phi| {mean_abs}")
    tags = math.fsum(v for f, v in importance.items() if f.startswith("tag_"))
    if not math.isclose(importance.get("tagValue", math.nan), tags, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"tagValue {importance.get('tagValue')} != sum of tag rows {tags}")
    return [(p, None) for p in problems]


def check_permutation(out: Path) -> list[tuple[str, str | None]]:
    """people_flow carries the largest positive R^2 drop."""
    drops = {row["feature"]: float(row["r2_drop"]) for row in _rows(out / "permutation.csv")}
    top = max(drops, key=drops.get) if drops else None
    if top == "people_flow" and drops[top] > 0:
        return []
    return [(f"largest r2_drop is {top} ({drops.get(top)}), people_flow has {drops.get('people_flow')}",
             PERMUTATION_TARGET_ORDER)]


def check_stability(out: Path) -> list[tuple[str, str | None]]:
    """Every statistic in stability.csv is a number or NA."""
    problems = []
    for row in _rows(out / "stability.csv"):
        for column in ("pearson", "sym_kl_nats", "nmse"):
            value = row[column]
            if value == "NA" or _is_number(value):
                continue
            match = _NPFLOAT.match(value)
            defect = STABILITY_NUMPY_REPR if match and _is_number(match.group(1)) else None
            problems.append((f"{row['profile_kind']} {column} = {value!r} is not a number", defect))
    return problems
