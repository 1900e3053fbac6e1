"""Hourly flow routing: scenario decisions, apportionment, OD assembly.

The engine evaluates three phases in order for every hour, each consuming
volume from the raw counts before the next runs:

1. *Internal*: the signed imbalance between the boundary booth's inbound
   and outbound series becomes circulation between the two local
   sub-regions. Its magnitude is deducted from the configured ramp (capped
   at what the ramp actually counted; shortfalls are ledgered).
2. *Local*: whatever remains on the onramp enters the area, whatever
   remains on the offramp leaves it (roles reversed: destinations act as
   origins).
3. *Passthrough*: for each booth pair, the shared minimum bypasses the
   area entirely; the absolute difference is net inflow or outflow routed
   against the inferred destinations.

Decided volumes are distributed with the hour's joint (destination,
category) probability distribution: the destination marginal is
renormalized over the scenario's eligible subset, integerized by largest
remainder, then each destination's share is split across categories the
same way. Every step is integer-exact, so vehicles are conserved.

``build_od_matrix`` routes the tollbooth's hours inside a window, in time
order, as arrays. One table lookup, ``rows_at``, finds the total of each
referenced count key at each routed hour in the tollbooth table and each
hour's destination rows in the routing table, and one prediction block
scores each distinct destination feature row once, for every hour. One
decision kernel runs the three phases over these (count key x hour)
totals: every hour fills the same template of decision slots (internal,
local in, local out, then bypass and net per booth pair), and a slot is
kept where the phase rules keep it, so decisions and ledger events come
out hour by hour in phase order. Decisions and the ledger are column
tables; marginals are taken once per (hour, destination). Every routed
total is bounded by ``_exact_limit``, so that float64 quotas split it
exactly; counts the route does not read are not bounded.

The OD matrix is assembled in blocks of whole hours, each about
``_OD_BLOCK`` decisions, so its transients stay the size of one block
whatever the length of the run. Within a block, decisions that share an
eligible-destination tuple are apportioned in one batch, and the block's
rows are sorted once into the order of ``od_matrix.csv``; the blocks follow
one another, so appending them gives the file's order, and
``write_od_csv`` writes the rows as they are. The blocks' columns, narrowed
to the types of ``_OD_COLUMNS``, are concatenated once at the end; a row's
hour and scenario are read through its decision.
``decide_flows`` and ``distribute`` are one-hour calls of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import compress, product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (CATEGORY_ORDER, HourKey, RoutingTable, TollboothTable, VehicleCategory, VehicleType, _ranks,
                   _Rows, hour_array, hour_text, map_vehicle_type, write_csv_columns)
from .errors import DataError, InternalError
from .fusion import FusionModel, predict_matrix
from .ingest import TARGET_NAMES, feature_matrix
from .network import NetworkConfig

__all__ = [
    "Scenario", "FlowDecision", "DecisionTable", "JointDistribution", "Marginals", "ODEntry", "ODMatrix",
    "LedgerEvent", "LedgerTable", "RoutingRun", "largest_remainder", "joint_from_predictions", "marginals",
    "decide_flows", "distribute", "build_od_matrix", "write_od_csv", "write_ledger_csv",
    "conservation_violations",
]

MASS_TOLERANCE = 1e-9


class Scenario(Enum):
    INTERNAL = "Internal"
    LOCAL_INFLOW = "LocalInflow"
    LOCAL_OUTFLOW = "LocalOutflow"
    PASSTHROUGH_NET = "PassthroughNet"
    PASSTHROUGH_BYPASS = "PassthroughBypass"


# Code tables of the OD matrix's scenario and vehicle_type columns.
_SCENARIOS: tuple[Scenario, ...] = tuple(Scenario)
_VEHICLE_TYPES: tuple[VehicleType, ...] = tuple(VehicleType)
_CATEGORY_TYPE_CODES = np.array([_VEHICLE_TYPES.index(map_vehicle_type(c)) for c in CATEGORY_ORDER])
_BYPASS = _SCENARIOS.index(Scenario.PASSTHROUGH_BYPASS)

# The ranks of the scenario and vehicle type codes in od_matrix.csv's order, that of their texts.
_SCENARIO_RANK = _ranks([s.value for s in _SCENARIOS])
_TYPE_RANK = _ranks([t.value for t in _VEHICLE_TYPES])

# Decisions apportioned and sorted together by ``_od_matrix``, rounded to whole hours.
_OD_BLOCK = 1024
# The ODMatrix columns and their types. Node codes are int16: ``_od_matrix``
# rejects a run of more nodes.
_OD_COLUMNS = {"count": np.int64, "decision": np.int32, "origin": np.int16, "destination": np.int16,
               "vehicle_type": np.int8}


@dataclass(frozen=True)
class FlowDecision:
    """One hour's routed volume for one scenario.

    ``reversed_roles`` marks flows that drain the area: OD entries then run
    from the eligible destinations to ``origin`` (the sink). A bypass
    decision's single eligible destination is its paired booth.
    """

    hour: HourKey
    scenario: Scenario
    direction: str
    volume: int
    origin: str
    eligible_destinations: tuple[str, ...]
    reversed_roles: bool = False


@dataclass(frozen=True, eq=False)
class DecisionTable(_Rows):
    """Flow decisions as columns, one row per decision in run order.

    ``hour`` indexes ``hours``, datetime64[h]; ``scenario`` indexes the members of
    ``Scenario`` in definition order; ``direction`` and ``origin`` index
    ``texts``; ``eligible`` indexes ``eligible_sets``, tuples of destination
    names. Indexing and iteration build ``FlowDecision`` objects.
    """

    hours: np.ndarray
    texts: tuple[str, ...]
    eligible_sets: tuple[tuple[str, ...], ...]
    hour: np.ndarray
    scenario: np.ndarray
    direction: np.ndarray
    volume: np.ndarray
    origin: np.ndarray
    eligible: np.ndarray
    reversed_roles: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.volume < 0).any():
            raise InternalError(f"negative decision volume {int(self.volume[self.volume < 0][0])}")
        widths = np.array([len(s) for s in self.eligible_sets], dtype=np.int64)[self.eligible]
        if ((self.scenario == _BYPASS) & (widths != 1)).any():
            raise InternalError("bypass decisions have exactly one destination")

    def _item(self, i: int) -> FlowDecision:
        return FlowDecision(self.hour_keys[self.hour[i]], _SCENARIOS[self.scenario[i]], self.texts[self.direction[i]],
                            int(self.volume[i]), self.texts[self.origin[i]], self.eligible_sets[self.eligible[i]],
                            bool(self.reversed_roles[i]))


@dataclass(frozen=True)
class JointDistribution:
    """Probability mass over (destination, category) pairs for one hour."""

    hour: HourKey
    mass: dict[tuple[str, VehicleCategory], float]
    fallback_uniform: bool = False

    def __post_init__(self) -> None:
        total = sum(self.mass.values())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise DataError(f"joint distribution sums to {total!r}, not 1")
        if any(v < 0 for v in self.mass.values()):
            raise DataError("joint distribution has negative mass")

    def destinations(self) -> list[str]:
        return list(dict.fromkeys(dest for dest, _ in self.mass))


@dataclass(frozen=True)
class Marginals:
    global_by_destination: dict[str, float]
    per_destination: dict[str, dict[VehicleCategory, float]]
    uniform_category_destinations: tuple[str, ...]


@dataclass(frozen=True)
class ODEntry:
    hour: HourKey
    origin: str
    destination: str
    vehicle_type: VehicleType
    count: int
    scenario: Scenario
    direction: str


@dataclass(frozen=True, eq=False)
class ODMatrix:
    """OD entries as integer columns, in the order of ``od_matrix.csv``: by
    timestamp, scenario, origin, destination and vehicle type, equal keys
    in decision order. Every count is positive.

    ``decision`` (int32) indexes ``decisions``, the run's decision table,
    whose columns give each row's hour and scenario; ``origin`` and
    ``destination`` (int16) index ``nodes``, the node names in sorted
    order; ``vehicle_type`` (int8) indexes the members of ``VehicleType``
    in definition order; ``count`` is int64.
    """

    nodes: tuple[str, ...]
    decisions: DecisionTable
    origin: np.ndarray
    destination: np.ndarray
    vehicle_type: np.ndarray
    count: np.ndarray
    decision: np.ndarray

    def __len__(self) -> int:
        return len(self.count)

    @property
    def hours(self) -> np.ndarray:
        return self.decisions.hours

    @property
    def entries(self) -> list[ODEntry]:
        """The rows as ``ODEntry`` objects, built anew on every access; they
        share the decision table's ``HourKey`` of each hour."""
        decisions, hour_keys = self.decisions, self.decisions.hour_keys
        columns = (decisions.hour[self.decision], self.origin, self.destination, self.vehicle_type, self.count,
                   decisions.scenario[self.decision], decisions.direction[self.decision])
        return [
            ODEntry(hour_keys[h], self.nodes[o], self.nodes[d], _VEHICLE_TYPES[v], n, _SCENARIOS[s],
                    decisions.texts[k])
            for h, o, d, v, n, s, k in zip(*(c.tolist() for c in columns))
        ]


@dataclass(frozen=True)
class LedgerEvent:
    """Audit record: decisions made, volumes consumed, per-hour balance."""

    hour: HourKey
    entry_type: str  # decision | consume | balance
    scenario: str
    direction: str
    key: str
    amount: int
    flag: str = ""


@dataclass(frozen=True, eq=False)
class LedgerTable(_Rows):
    """The conservation ledger as columns, one row per event in run order.

    ``hour`` indexes ``hours``, datetime64[h]; ``entry_type``, ``scenario``, ``direction``,
    ``key`` and ``flag`` index ``texts``. Indexing and iteration build
    ``LedgerEvent`` objects.
    """

    hours: np.ndarray
    texts: tuple[str, ...]
    hour: np.ndarray
    entry_type: np.ndarray
    scenario: np.ndarray
    direction: np.ndarray
    key: np.ndarray
    amount: np.ndarray
    flag: np.ndarray

    def _item(self, i: int) -> LedgerEvent:
        t = self.texts
        return LedgerEvent(self.hour_keys[self.hour[i]], t[self.entry_type[i]], t[self.scenario[i]],
                           t[self.direction[i]], t[self.key[i]], int(self.amount[i]), t[self.flag[i]])


@dataclass
class RoutingRun:
    """The OD matrix and the ledger of one run; the matrix holds the
    decision table, and both tables share one ``hours`` array."""

    matrix: ODMatrix
    ledger: LedgerTable

    @property
    def decisions(self) -> DecisionTable:
        return self.matrix.decisions


def _sequential_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as Python's ``sum`` does."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.cumsum(a, axis=-1)[..., -1]


def _composite_key(radices: Sequence[int], columns: Iterable[np.ndarray]) -> np.ndarray:
    """One int64 per row that orders as the columns do, the first most
    significant; column i holds values in ``[0, radices[i])``."""
    if math.prod(radices) > np.iinfo(np.int64).max:
        raise InternalError(f"composite key radices {list(radices)} overflow int64")
    columns = iter(columns)
    key = np.array(next(columns), dtype=np.int64)
    for radix, column in zip(radices[1:], columns):
        key *= radix
        key += column
    return key


def _exact_limit(k: int) -> int:
    """The largest total that ``_apportion`` splits exactly over at most k weights."""
    # _apportion splits a total T over k weights by float64 quotas T * w. The
    # renormalised weights and the quotas carry a relative rounding error of
    # about (k + 1) * 2**-53, under half a vehicle while T <= 2**53 / (2 * (k + 2)),
    # so the floors sum to between T - k and T, as largest remainder needs. The
    # bound also keeps every int64 sum of a few such totals exact.
    return 2**53 // (2 * (k + 2))


def _check_exact(value, k: int, what: str) -> None:
    """A DataError naming ``what`` unless ``value`` is a whole number from 0
    to ``_exact_limit(k)``."""
    limit = _exact_limit(k)
    if not 0 <= value <= limit or int(value) != value:
        raise DataError(f"{what} must be a non-negative integer of at most {limit}, the largest split exactly "
                        f"over {k} weights, got {value!r}")


def _apportion(totals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-batched ``largest_remainder``: row i splits ``totals[i]`` by ``weights[i]``."""
    totals = np.asarray(totals, dtype=np.int64)
    if (totals < 0).any():
        raise DataError(f"total must be non-negative, got {int(totals[totals < 0][0])}")
    if (weights < 0).any():
        raise DataError("weights must be non-negative")
    sums = _sequential_sum(weights)
    bad = ~(np.abs(sums - 1.0) <= MASS_TOLERANCE)
    if bad.any():
        raise DataError(f"weights sum to {float(sums[bad][0])!r}, not 1")
    quotas = totals[:, None] * weights
    floors = np.floor(quotas)
    result = floors.astype(np.int64)
    extras = totals - result.sum(axis=1)
    drift = (extras < 0) | (extras > weights.shape[1])
    if drift.any():
        row = int(np.argmax(drift))
        # Weights within MASS_TOLERANCE of 1 but not equal to it scale every
        # quota, and a large enough total turns that into whole units.
        if sums[row] != 1.0:
            raise DataError(f"cannot apportion total {int(totals[row])} by weights summing to "
                            f"{float(sums[row])!r}: the quotas drift by {int(extras[row])} units")
        raise InternalError(f"apportionment drift: {int(extras[row])} extras for {weights.shape[1]} weights")
    # lexsort is stable, so equal (remainder, weight) keys keep index order.
    order = np.lexsort((-weights, -(quotas - floors)), axis=-1)
    rank = np.argsort(order, axis=-1)
    return result + (rank < extras[:, None])


def largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Integerize ``total * weights`` without over- or under-allocating.

    Quotas are floored; leftover units go to the largest fractional
    remainders, ties broken by larger weight then earlier index. Every
    output is floor(quota) or ceil(quota) and the outputs sum to ``total``.
    """
    _check_exact(total, len(weights), "total")
    return _apportion(np.array([total]), np.asarray(weights, dtype=np.float64).reshape(1, -1))[0].tolist()


def _clamped_table(category_counts: np.ndarray, censored: Sequence[bool]) -> np.ndarray:
    """Predictions clamped at zero, with censored rows contributing nothing."""
    table = np.maximum(np.asarray(category_counts, dtype=np.float64), 0.0)
    table[np.asarray(censored, dtype=bool)] = 0.0
    return table


def _mass(table: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint mass of each hour's rows ``table[bounds[i]:bounds[i + 1]]``.

    Each hour is normalised by its own block's sum; an hour without mass is
    uniform over its rows and flagged. An hour without rows is flagged too.
    """
    total = np.array([float(table[a:b].sum()) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
    fallback = total <= 0.0
    rows = np.diff(bounds)
    row_hour = np.repeat(np.arange(len(rows)), rows)
    uniform = fallback[row_hour]
    mass = table / np.where(uniform, 1.0, total[row_hour])[:, None]
    mass[uniform] = 1.0 / (rows[row_hour[uniform]] * table.shape[1])[:, None]
    return mass, fallback


def _marginals(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Destination marginals and per-destination category distributions.

    A destination without mass gets a uniform category distribution.
    """
    weight = _sequential_sum(mass)[:, None]
    per_destination = np.full(mass.shape, 1.0 / mass.shape[1])
    np.divide(mass, weight, out=per_destination, where=weight > 0.0)
    return weight[:, 0], per_destination


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``X`` and, per row of ``X``, the index of its
    equal among them. Rows merge where every cell compares equal, so
    ``-0.0`` merges with ``0.0`` and a NaN row stays apart."""
    order = np.lexsort(X.T)
    ordered = X[order]
    change = np.ones(len(X), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=change[1:])
    back = np.empty(len(X), dtype=np.intp)
    back[order] = np.cumsum(change) - 1
    return ordered[change], back


def _split(volumes: np.ndarray, shares: np.ndarray, per_destination: np.ndarray) -> np.ndarray:
    """Counts ``(B, k, 6)``: each volume split over its k eligible destinations by
    their renormalised shares (uniform without mass), then over categories."""
    mass = _sequential_sum(shares)[:, None]
    weights = np.full(shares.shape, 1.0 / shares.shape[1])
    np.divide(shares, mass, out=weights, where=mass > 0.0)
    dest_counts = _apportion(volumes, weights)
    n_cat = per_destination.shape[-1]
    counts = _apportion(dest_counts.reshape(-1), per_destination.reshape(-1, n_cat))
    return counts.reshape(per_destination.shape)


def joint_from_predictions(
    hour: HourKey,
    destination_names: Sequence[str],
    category_counts: np.ndarray,
    censored: Sequence[bool],
) -> JointDistribution:
    """Normalize clamped per-destination category predictions into a joint.

    Censored inputs contribute zero mass. If nothing remains (for example a
    night hour where every report was suppressed) the joint falls back to
    uniform and is flagged.
    """
    table = _clamped_table(category_counts, censored)
    mass, fallback = _mass(table, np.array([0, len(table)]))
    keys = product(destination_names, CATEGORY_ORDER)
    return JointDistribution(
        hour=hour, mass=dict(zip(keys, mass.ravel().tolist())), fallback_uniform=bool(fallback[0])
    )


def _joint_arrays(joint: JointDistribution) -> tuple[list[str], np.ndarray, np.ndarray]:
    names = joint.destinations()
    mass = np.array([[joint.mass.get((d, c), 0.0) for c in CATEGORY_ORDER] for d in names])
    return (names, *_marginals(mass))


def marginals(joint: JointDistribution) -> Marginals:
    """Destination marginal plus per-destination category distributions."""
    names, weight, per_destination = _joint_arrays(joint)
    return Marginals(
        global_by_destination=dict(zip(names, weight.tolist())),
        per_destination={
            d: dict(zip(CATEGORY_ORDER, row)) for d, row in zip(names, per_destination.tolist())
        },
        uniform_category_destinations=tuple(d for d, w in zip(names, weight) if not w > 0.0),
    )


def _consume(left: dict[str, np.ndarray], key: str, amount: np.ndarray) -> None:
    """Deduct ``amount`` from the per-hour residual of one count key."""
    left[key] = left[key] - amount
    if (left[key] < 0).any():
        raise InternalError(f"negative residual for count key {key!r}: {int(left[key][left[key] < 0][0])}")


def _kept(slots: list[tuple], n_hours: int, n_fields: int) -> list[np.ndarray]:
    """The kept rows of a per-hour slot template, hour by hour and in slot
    order within an hour. Each slot is ``(keep, *fields)``, a scalar or a
    per-hour array each; returns the row hours, then one column per field."""
    grid = np.zeros((1 + n_fields, n_hours, len(slots)), dtype=np.int64)
    for s, fields in enumerate(slots):
        for f, value in enumerate(fields):
            grid[f, :, s] = value
    keep = grid[0] != 0
    return [np.nonzero(keep)[0], *grid[1:, keep]]


def _decide(network: NetworkConfig, hours: np.ndarray, left: dict[str, np.ndarray],
            fallback: np.ndarray) -> tuple[DecisionTable, LedgerTable]:
    """The three routing phases over every hour at once.

    ``left`` maps each count key the network references to its per-hour
    int64 totals, and each phase replaces an entry with what it leaves of
    it; ``fallback`` flags the hours whose joint fell back to uniform. Each
    decision slot of the hour template also has its ledger event; a consume
    event precedes the internal decision, a fallback event opens and a
    balance event closes every hour.
    """
    n = len(hours)
    texts: dict[str, int] = {"": 0}
    sets: dict[tuple[str, ...], int] = {}
    text = lambda value: texts.setdefault(value, len(texts))  # noqa: E731
    eligible = lambda names: sets.setdefault(tuple(names), len(sets))  # noqa: E731
    subset = lambda scenario: eligible(network.group_members(network.scenario_subsets[scenario]))  # noqa: E731
    decisions: list[tuple] = []  # keep, scenario, direction, volume, origin, eligible, reversed
    events: list[tuple] = [(fallback, text("consume"), 0, 0, text("joint"), 0, text("uniform_fallback"))]

    def record(keep, scenario: Scenario, direction, volume, origin, destinations, reversed_roles=False) -> None:
        volume = np.where(keep, volume, 0)
        decisions.append((keep, _SCENARIOS.index(scenario), direction, volume, origin, destinations, reversed_roles))
        events.append((keep, text("decision"), text(scenario.value), direction, origin, volume, 0))

    # Phase 1: internal circulation across the boundary booth.
    boundary, ramps = network.boundary, network.ramps
    if boundary is not None:
        assert ramps is not None  # enforced by config validation
        imbalance = left[boundary.inbound_key] - left[boundary.outbound_key]
        positive, volume = imbalance > 0, np.abs(imbalance)
        ramp = lambda side: ramps.onramp if side.consumes == "onramp" else ramps.offramp  # noqa: E731
        applied = np.zeros(n, dtype=np.int64)
        for side, hit in ((boundary.positive, positive), (boundary.negative, imbalance < 0)):
            take = np.where(hit, np.minimum(volume, left[ramp(side)]), 0)
            _consume(left, ramp(side), take)
            applied += take
        by_side = lambda code: np.where(positive, code(boundary.positive), code(boundary.negative))  # noqa: E731
        label = by_side(lambda side: text(side.label))
        events.append((imbalance != 0, text("consume"), text(Scenario.INTERNAL.value), label,
                       by_side(lambda side: text(ramp(side))), applied,
                       np.where(applied < volume, text("capped"), 0)))
        record(imbalance != 0, Scenario.INTERNAL, label, volume, text(boundary.node),
               by_side(lambda side: eligible(network.group_members(side.groups))))

    # Phase 2: remaining ramp traffic enters or leaves the area.
    if ramps is not None:
        for scenario, key, direction in ((Scenario.LOCAL_INFLOW, ramps.onramp, "onramp:in"),
                                         (Scenario.LOCAL_OUTFLOW, ramps.offramp, "offramp:out")):
            volume = left[key]
            _consume(left, key, volume)
            record(volume > 0, scenario, text(direction), volume, text(key), subset(scenario.value),
                   scenario is Scenario.LOCAL_OUTFLOW)

    # Phase 3: paired booths, shared minimum bypasses, difference is net.
    # Both decisions are always kept, at volume zero when balanced, so the
    # ledger carries each pair's full disposition for every hour.
    for pair in network.passthrough_pairs:
        up, down = left[pair.upstream], left[pair.downstream]
        record(1, Scenario.PASSTHROUGH_BYPASS, text(f"{pair.axis}:bypass"), np.minimum(up, down),
               text(pair.upstream), eligible((pair.downstream,)))
        inflow = up >= down
        record(1, Scenario.PASSTHROUGH_NET,
               np.where(inflow, text(f"{pair.axis}:inflow"), text(f"{pair.axis}:outflow")), np.abs(up - down),
               np.where(inflow, text(pair.upstream), text(pair.downstream)), subset("PassthroughNet"), ~inflow)

    events.append((1, text("balance"), 0, 0, text("total"), sum(d[3] for d in decisions), 0))
    hour, scenario, direction, volume, origin, sets_of, reverse = _kept(decisions, n, 6)
    table = tuple(texts)
    return (
        DecisionTable(hours=hours, texts=table, eligible_sets=tuple(sets), hour=hour, scenario=scenario,
                      direction=direction, volume=volume, origin=origin, eligible=sets_of,
                      reversed_roles=reverse.astype(bool)),
        LedgerTable(hours, table, *_kept(events, n, 6)),
    )


def decide_flows(
    network: NetworkConfig,
    counts: Mapping[str, int | float],
    hour: HourKey,
) -> tuple[DecisionTable, LedgerTable]:
    """Run the three routing phases on one hour of tollbooth totals.

    ``counts`` maps count keys (station names, direction-qualified where
    split) to hourly totals. All keys referenced by the network config must
    be present.
    """
    referenced = network.referenced_count_keys()
    missing = [k for k in referenced if k not in counts]
    if missing:
        raise DataError(f"missing tollbooth counts for {missing} at {hour.isoformat()}")
    k = max(len(network.destination_names()), len(CATEGORY_ORDER))
    for key in referenced:
        _check_exact(counts[key], k, f"count for {key!r}")
    return _decide(network, hour_array((hour,)), {k: np.array([int(counts[k])]) for k in referenced},
                   np.zeros(1, dtype=bool))


def _absent(decisions: DecisionTable, names: Sequence[str], present: np.ndarray) -> np.ndarray:
    """Per decision, whether it splits volume over an eligible destination
    its hour lacks; ``present`` is ``(hours, names)``."""
    index = {name: i for i, name in enumerate(names)}
    lacking = np.zeros((len(decisions.eligible_sets), len(present)), dtype=bool)
    for e, members in enumerate(decisions.eligible_sets):
        known = [index[m] for m in members if m in index]
        lacking[e] = len(known) < len(members) or ~present[:, known].all(axis=1)
    splits = (decisions.volume > 0) & (decisions.scenario != _BYPASS)
    return splits & lacking[decisions.eligible, decisions.hour]


def _absent_error(decisions: DecisionTable, i: int, names: Sequence[str], present: np.ndarray) -> DataError:
    """The error of decision ``i``, which ``_absent`` flags."""
    h, index = decisions.hour[i], {name: j for j, name in enumerate(names)}
    unknown = [d for d in decisions.eligible_sets[decisions.eligible[i]] if d not in index or not present[h, index[d]]]
    return DataError(f"eligible destinations {unknown} absent from the joint distribution "
                     f"at {hour_text(decisions.hours[h])}")


def distribute(decision: FlowDecision, joint: JointDistribution) -> list[ODEntry]:
    """Turn one decision into integer OD entries using the hour's joint.

    Bypass volumes skip the distribution entirely and emit one aggregate
    entry toward the paired booth. Everything else is split across the
    eligible destinations by the renormalized destination marginal, then
    across categories per destination; both splits use largest remainder.
    """
    _check_exact(decision.volume, max(len(decision.eligible_destinations), len(CATEGORY_ORDER)), "decision volume")
    names, weight, per_destination = _joint_arrays(joint)
    # hour, scenario, direction, volume, origin, eligible, reversed_roles
    row = (0, _SCENARIOS.index(decision.scenario), 0, decision.volume, 1, 0, decision.reversed_roles)
    table = DecisionTable(hour_array((decision.hour,)), (decision.direction, decision.origin),
                          (decision.eligible_destinations,), *(np.array([value]) for value in row))
    present = np.ones((1, len(names)), dtype=bool)
    if _absent(table, names, present)[0]:
        raise _absent_error(table, 0, names, present)
    return _od_matrix(table, weight[None], per_destination[None], names).entries


def build_od_matrix(
    network: NetworkConfig,
    model: FusionModel,
    tollbooth: TollboothTable,
    routing: RoutingTable,
    start: datetime | np.datetime64 | None = None,
    end: datetime | np.datetime64 | None = None,
) -> RoutingRun:
    """Assemble the OD matrix over the tollbooth's hours from ``start`` to
    ``end``, both included, in timestamp order; a bound of None is open.

    Infers each hour's joint distribution from the destination routing
    reports, decides scenario volumes from the totals of the count keys the
    network references, builds the conservation ledger and distributes. A
    bound that leaves no tollbooth hour is a data error. So is a routed
    total above ``_exact_limit``, named by its earliest hour, then its first
    key in ``referenced_count_keys()`` order; counts of other keys or hours
    are not read. Of the hours that fail a check, the earliest is reported,
    with the first failing check of: no destination rows; count keys
    missing; an eligible destination without rows. The tables reject
    repeated rows, hours, count keys and node names themselves.
    """
    # The tollbooth's hours inside the window, in timestamp order.
    hours = tollbooth.hours
    inside = np.ones(len(hours), dtype=bool)
    if start is not None:
        inside &= hours >= np.datetime64(start)
    if end is not None:
        inside &= hours <= np.datetime64(end)
    hours = np.sort(hours[inside])
    if not len(hours) and (start is not None or end is not None):
        raise DataError("no tollbooth hours inside the requested simulation window")
    n_hours = len(hours)

    # Each referenced key's total at each routed hour, -1 where it has none
    # (row -1 picks the -1 appended to the totals). Only these counts are
    # bounded.
    referenced = network.referenced_count_keys()
    at = tollbooth.rows_at(referenced, hours)
    totals = np.append(tollbooth.total, -1)[at]
    limit = _exact_limit(max(len(network.destination_names()), len(CATEGORY_ORDER)))
    huge = totals > limit
    if huge.any():
        h, k = np.argwhere(huge.T)[0]  # the earliest hour, then the first key
        raise DataError(f"tollbooth count for {referenced[k]!r} at {hour_text(hours[h])} exceeds {limit}, the "
                        "largest count this network can route exactly")

    # Destination rows hour by hour, in file order within an hour.
    dest_names = network.destination_names()
    grid = routing.rows_at(dest_names, hours).T
    present = grid >= 0
    row_hour, row_dest = np.nonzero(present)
    rows = grid[row_hour, row_dest]
    order = np.lexsort((rows, row_hour))
    flat, row_hour, row_dest = rows[order], row_hour[order], row_dest[order]
    bounds = np.searchsorted(row_hour, np.arange(n_hours + 1))

    # One prediction block for every hour; only the marginal grids outlive it.
    weight_grid, category_grid, fallback = _marginal_grids(
        _clamped_table(_predictions(model, routing, flat), routing.censored[flat]), bounds, row_hour, row_dest,
        len(dest_names))

    decisions, ledger = _decide(network, hours, dict(zip(referenced, np.maximum(totals, 0))), fallback)
    absent = _absent(decisions, dest_names, present)
    checks = np.stack([bounds[1:] == bounds[:-1], (at < 0).any(axis=0),
                       np.bincount(decisions.hour[absent], minlength=n_hours) > 0])
    failing = checks.any(axis=0)
    if failing.any():
        h = int(np.argmax(failing))
        check, when = int(np.argmax(checks[:, h])), hour_text(hours[h])
        if check == 0:
            raise DataError(f"no destination routing rows for hour {when}")
        if check == 1:
            raise DataError(f"missing tollbooth counts for {list(compress(referenced, at[:, h] < 0))} at {when}")
        raise _absent_error(decisions, int(np.nonzero(absent & (decisions.hour == h))[0][0]), dest_names, present)

    return RoutingRun(matrix=_od_matrix(decisions, weight_grid, category_grid, dest_names), ledger=ledger)


def _predictions(model: FusionModel, routing: RoutingTable, rows: np.ndarray) -> np.ndarray:
    """Predicted category counts of the given routing rows. A row's score
    depends on the row alone, and rows repeat across hours, so each distinct
    feature row is scored once."""
    distinct, back = _distinct_rows(feature_matrix(routing, rows))
    return predict_matrix(model, distinct, TARGET_NAMES[1:])[back]


def _marginal_grids(table: np.ndarray, bounds: np.ndarray, row_hour: np.ndarray, row_dest: np.ndarray,
                    n_dests: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals once per (hour, destination), scattered on an (hours,
    destinations) grid and a grid with a category axis, and the hours whose
    joint fell back to uniform. Row i of ``table`` is at hour ``row_hour[i]``
    and destination ``row_dest[i]``; ``bounds`` delimits the hours' rows."""
    mass, fallback = _mass(table, bounds)
    weight, per_destination = _marginals(mass)
    weight_grid = np.zeros((len(bounds) - 1, n_dests))
    weight_grid[row_hour, row_dest] = weight
    category_grid = np.zeros(weight_grid.shape + (table.shape[1],))
    category_grid[row_hour, row_dest] = per_destination
    return weight_grid, category_grid, fallback


def _od_matrix(decisions: DecisionTable, weight_grid: np.ndarray, category_grid: np.ndarray,
               dest_names: list[str]) -> ODMatrix:
    """Distribute every decision over its hour's row of the marginal grids.

    ``weight_grid`` is ``(hours, destinations)``, ``category_grid`` adds the
    category axis. The decisions must be hour-major with ``hours`` in
    timestamp order. They are taken in blocks of whole hours, each about
    ``_OD_BLOCK`` decisions: decisions that share an eligible-destination
    tuple are apportioned in one batch, bypass decisions keep their whole
    volume, and the block's rows of positive count are sorted once into the
    order of ``ODMatrix``.
    """
    hours, hour = decisions.hours, decisions.hour
    if (hours[1:] < hours[:-1]).any() or (hour[1:] < hour[:-1]).any():
        raise InternalError("decisions are not hour-major in timestamp order")
    texts, sets = decisions.texts, decisions.eligible_sets
    names = [texts[c] for c in np.unique(decisions.origin).tolist()] + [name for members in sets for name in members]
    # Codes in name order, so that they sort as the names do.
    nodes = {name: i for i, name in enumerate(sorted(set(names)))}
    if len(nodes) > np.iinfo(_OD_COLUMNS["origin"]).max + 1:
        raise InternalError(f"{len(nodes)} OD nodes overflow the int16 node codes")
    origin = np.array([nodes.get(text, -1) for text in texts], dtype=np.int64)[decisions.origin]
    set_nodes = [np.array([nodes[name] for name in members], dtype=np.int64) for members in sets]
    target = np.array([members[0] if len(members) else -1 for members in set_nodes], dtype=np.int64)
    volume, eligible, scenario_rank = decisions.volume, decisions.eligible, _SCENARIO_RANK[decisions.scenario]
    moving = volume > 0
    bypass = decisions.scenario == _BYPASS
    splitting = moving & ~bypass

    # Rows: decision, origin, destination, type, count.
    def piece(dec, ends, kind, count):
        return [np.broadcast_to(column, dec.shape) for column in (dec, *ends, kind, count)]

    blocks = {name: [np.zeros(0, dtype=dtype)] for name, dtype in _OD_COLUMNS.items()}
    # Each block starts at the first decision of an hour, about _OD_BLOCK decisions apart.
    starts = np.unique(np.searchsorted(hour, hour[::_OD_BLOCK])).tolist()
    for start, stop in zip(starts, starts[1:] + [len(decisions)]):
        window = slice(start, stop)
        idx = start + np.nonzero(moving[window] & bypass[window])[0]
        pieces = [piece(idx, (origin[idx], target[eligible[idx]]), _VEHICLE_TYPES.index(VehicleType.ALL), volume[idx])]
        in_window = splitting[window]
        for e in np.unique(eligible[window][in_window]).tolist():
            idx = start + np.nonzero(in_window & (eligible[window] == e))[0]
            rows, cols = hour[idx][:, None], [dest_names.index(name) for name in sets[e]]
            counts = _split(volume[idx], weight_grid[rows, cols], category_grid[rows, cols])
            b, j, c = np.nonzero(counts)
            dec = idx[b]
            dest = set_nodes[e][j]
            rev = decisions.reversed_roles[dec]
            pieces.append(piece(dec, (np.where(rev, dest, origin[dec]), np.where(rev, origin[dec], dest)),
                                _CATEGORY_TYPE_CODES[c], counts[b, j, c]))
        columns = [np.concatenate(column) for column in zip(*pieces)]
        dec, src, dst, kind, _ = columns
        first = int(hour[start])
        radices = (int(hour[stop - 1]) - first + 1, len(_SCENARIOS), len(nodes), len(nodes), len(_VEHICLE_TYPES),
                   stop - start)
        key = _composite_key(radices, (hour[dec] - first, scenario_rank[dec], src, dst, _TYPE_RANK[kind], dec - start))
        order = np.argsort(key)  # the keys are distinct, so any sort gives the one order
        for name, column in zip(("decision", "origin", "destination", "vehicle_type", "count"), columns):
            blocks[name].append(column[order].astype(_OD_COLUMNS[name], copy=False))
    # Each column's blocks are dropped once it is joined, so the peak is the
    # blocks plus one joined column.
    columns = {name: np.concatenate(blocks.pop(name)) for name in _OD_COLUMNS}
    return ODMatrix(nodes=tuple(nodes), decisions=decisions, **columns)


def conservation_violations(run: RoutingRun) -> list[str]:
    """Check that no vehicle was created or destroyed anywhere in the run."""
    decisions, ledger = run.decisions, run.ledger
    allocated = np.zeros(len(decisions), dtype=np.int64)
    np.add.at(allocated, run.matrix.decision, run.matrix.count)
    problems = [
        f"{d.hour.isoformat()} {d.scenario.value} {d.direction}: decided {d.volume}, allocated {allocated[i]}"
        for i, d in ((i, decisions[i]) for i in np.nonzero(allocated != decisions.volume)[0])
    ]
    decided = np.zeros(len(decisions.hours), dtype=np.int64)
    np.add.at(decided, decisions.hour, decisions.volume)
    for i in np.nonzero(ledger.entry_type == ledger.texts.index("balance"))[0]:
        h, amount = ledger.hour[i], int(ledger.amount[i])
        if decided[h] != amount:
            problems.append(f"balance mismatch at {hour_text(ledger.hours[h])}: ledger {amount}, "
                            f"decisions {int(decided[h])}")
    return problems


def write_od_csv(path: str | Path, matrix: ODMatrix) -> None:
    """Write the rows as they are: ``ODMatrix`` holds them in the file's
    order, every count positive."""
    if len(matrix) and matrix.count.min() <= 0:
        raise InternalError(f"OD row of non-positive count {int(matrix.count.min())}")
    decisions = matrix.decisions
    # The decision columns are narrowed before the gather, which makes one value per OD row.
    write_csv_columns(path, ["timestamp", "origin", "destination", "vehicle_type", "count", "scenario"], [
        (hour_text(matrix.hours), decisions.hour.astype(np.int32)[matrix.decision]),
        (matrix.nodes, matrix.origin), (matrix.nodes, matrix.destination),
        ([t.value for t in _VEHICLE_TYPES], matrix.vehicle_type), (None, matrix.count),
        ([s.value for s in _SCENARIOS], decisions.scenario.astype(np.int8)[matrix.decision]),
    ])


def write_ledger_csv(path: str | Path, ledger: LedgerTable) -> None:
    texts = ledger.texts
    write_csv_columns(path, ["timestamp", "entry_type", "scenario", "direction", "key", "amount", "flag"], [
        (hour_text(ledger.hours), ledger.hour), (texts, ledger.entry_type), (texts, ledger.scenario),
        (texts, ledger.direction), (texts, ledger.key), (None, ledger.amount), (texts, ledger.flag),
    ])
