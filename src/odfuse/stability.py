"""Temporal-pattern stability metrics between two observation periods.

Profiles are normalized flow distributions over hours of the day (24 bins)
or days of the week (7 bins). Comparisons report Pearson correlation,
symmetric Kullback-Leibler divergence (the Jeffreys sum, in nats, with a
small smoothing epsilon added to every bin), and a normalized mean square
error defined as sum((p - q)^2) / sum(p * q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import RoutingTable, stat_cell, write_csv
from .errors import DataError

__all__ = [
    "ProfileKind",
    "TemporalProfile",
    "build_profile",
    "pearson",
    "sym_kl",
    "nmse",
    "StabilityRow",
    "compare_periods",
    "write_stability_csv",
]

DIURNAL = "diurnal"
WEEKLY = "weekly"
_BINS = {DIURNAL: 24, WEEKLY: 7}

ProfileKind = str


@dataclass(frozen=True)
class TemporalProfile:
    kind: ProfileKind
    mass: np.ndarray

    def __post_init__(self) -> None:
        expected = _BINS.get(self.kind)
        if expected is None:
            raise DataError(f"unknown profile kind {self.kind!r}; use {sorted(_BINS)}")
        if self.mass.shape != (expected,):
            raise DataError(f"{self.kind} profile needs {expected} bins, got {self.mass.shape}")
        if (self.mass < 0).any():
            raise DataError("profile mass must be non-negative")
        if abs(float(self.mass.sum()) - 1.0) > 1e-9:
            raise DataError(f"profile mass sums to {float(self.mass.sum())!r}, not 1")


def build_profile(rows: RoutingTable, kind: ProfileKind) -> TemporalProfile:
    """Bin flows by hour of day or day of week and normalize to 1."""
    bins = _BINS.get(kind)
    if bins is None:
        raise DataError(f"unknown profile kind {kind!r}; use {sorted(_BINS)}")
    if not len(rows):
        raise DataError("cannot build a profile from zero rows")
    index = rows.hour_field("hour_of_day" if kind == DIURNAL else "day_of_week")
    mass = np.bincount(index, weights=rows.flow, minlength=bins)
    total = float(mass.sum())
    if total <= 0.0:
        raise DataError("profile undefined: all flows are zero")
    return TemporalProfile(kind=kind, mass=mass / total)


def _check_compatible(p: TemporalProfile, q: TemporalProfile) -> None:
    if p.kind != q.kind:
        raise DataError(f"cannot compare {p.kind} with {q.kind} profiles")


def pearson(p: TemporalProfile, q: TemporalProfile) -> float | None:
    """Sample Pearson correlation over paired bins; None when either
    profile has zero variance."""
    _check_compatible(p, q)
    dp = p.mass - p.mass.mean()
    dq = q.mass - q.mass.mean()
    sp = float(np.dot(dp, dp))
    sq = float(np.dot(dq, dq))
    if sp == 0.0 or sq == 0.0:
        return None
    return float(np.dot(dp, dq) / math.sqrt(sp * sq))


def sym_kl(p: TemporalProfile, q: TemporalProfile, epsilon: float = 1e-9) -> float:
    """Jeffreys divergence KL(p||q) + KL(q||p) in nats, after adding
    ``epsilon`` to every bin and renormalizing."""
    _check_compatible(p, q)
    if epsilon < 0:
        raise DataError("epsilon must be non-negative")
    ps = p.mass + epsilon
    qs = q.mass + epsilon
    ps = ps / ps.sum()
    qs = qs / qs.sum()
    out = 0.0
    for a, b in zip(ps, qs):
        if a == b:
            continue
        out += (a - b) * math.log(a / b)
    return float(out)


def nmse(p: TemporalProfile, q: TemporalProfile) -> float | None:
    """sum((p - q)^2) / sum(p * q); None when the denominator is zero."""
    _check_compatible(p, q)
    denom = float(np.dot(p.mass, q.mass))
    if denom == 0.0:
        return None
    diff = p.mass - q.mass
    return float(np.dot(diff, diff) / denom)


@dataclass(frozen=True)
class StabilityRow:
    profile_kind: str
    pearson: float | None
    sym_kl_nats: float
    nmse: float | None


def compare_periods(rows_a: RoutingTable, rows_b: RoutingTable) -> list[StabilityRow]:
    """Compare diurnal and weekly profiles between two periods."""
    out = []
    for kind in (DIURNAL, WEEKLY):
        pa = build_profile(rows_a, kind)
        pb = build_profile(rows_b, kind)
        out.append(
            StabilityRow(
                profile_kind=kind,
                pearson=pearson(pa, pb),
                sym_kl_nats=sym_kl(pa, pb),
                nmse=nmse(pa, pb),
            )
        )
    return out


def write_stability_csv(path: str | Path, rows: list[StabilityRow]) -> None:
    write_csv(path, ["profile_kind", "pearson", "sym_kl_nats", "nmse"],
              ([row.profile_kind, *map(stat_cell, (row.pearson, row.sym_kl_nats, row.nmse))] for row in rows))
