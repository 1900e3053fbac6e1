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

``build_od_matrix`` works on arrays: one prediction block, marginals once per
hour, one row-batched apportionment per eligible-destination tuple and a
columnar OD matrix. The one-hour functions wrap the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (CATEGORY_ORDER, HourKey, RoutingTable, TollboothTable, VehicleCategory, VehicleType,
                   _first_repeat, _ranks, map_vehicle_type, write_csv, write_csv_columns)
from .errors import DataError, InternalError
from .fusion import FusionModel, predict_matrix
from .ingest import feature_matrix
from .network import NetworkConfig

__all__ = [
    "Scenario", "FlowDecision", "JointDistribution", "Marginals", "ODEntry", "ODMatrix",
    "LedgerEvent", "RoutingRun", "largest_remainder", "joint_from_predictions", "marginals",
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

    def __post_init__(self) -> None:
        if self.volume < 0:
            raise InternalError(f"negative decision volume {self.volume}")
        if self.scenario is Scenario.PASSTHROUGH_BYPASS and len(self.eligible_destinations) != 1:
            raise InternalError("bypass decisions have exactly one destination")


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
    """OD entries as integer columns, in decision order.

    ``hour`` indexes ``hours``; ``origin`` and ``destination`` index
    ``nodes``; ``vehicle_type`` and ``scenario`` index the members of
    ``VehicleType`` and ``Scenario`` in definition order; ``decision``
    indexes ``decisions``, the run's decisions.
    """

    hours: tuple[HourKey, ...]
    nodes: tuple[str, ...]
    decisions: tuple[FlowDecision, ...]
    hour: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    vehicle_type: np.ndarray
    scenario: np.ndarray
    count: np.ndarray
    decision: np.ndarray

    def __len__(self) -> int:
        return len(self.count)

    def total(self) -> int:
        return int(self.count.sum())

    @property
    def entries(self) -> list[ODEntry]:
        """The rows as ``ODEntry`` objects, built anew on every access."""
        columns = (self.hour, self.origin, self.destination, self.vehicle_type, self.count,
                   self.scenario, self.decision)
        return [
            ODEntry(self.hours[h], self.nodes[o], self.nodes[d], _VEHICLE_TYPES[v], n,
                    _SCENARIOS[s], self.decisions[k].direction)
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


@dataclass
class RoutingRun:
    matrix: ODMatrix
    decisions: list[FlowDecision]
    ledger: list[LedgerEvent]


def _sequential_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as Python's ``sum`` does."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.cumsum(a, axis=-1)[..., -1]


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
        raise InternalError(
            f"apportionment drift: {int(extras[drift][0])} extras for {weights.shape[1]} weights"
        )
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
    return _apportion(np.array([total]), np.asarray(weights, dtype=np.float64).reshape(1, -1))[0].tolist()


def _clamped_table(category_counts: np.ndarray, censored: Sequence[bool]) -> np.ndarray:
    """Predictions clamped at zero, with censored rows contributing nothing."""
    table = np.maximum(np.asarray(category_counts, dtype=np.float64), 0.0)
    table[np.asarray(censored, dtype=bool)] = 0.0
    return table


def _hour_mass(table: np.ndarray) -> tuple[np.ndarray, bool]:
    """One hour's joint mass, normalised in row order; uniform (flagged) if empty."""
    total = float(table.sum())
    if total <= 0.0:
        return np.full(table.shape, 1.0 / table.size), True
    return table / total, False


def _marginals(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Destination marginals and per-destination category distributions.

    A destination without mass gets a uniform category distribution.
    """
    weight = _sequential_sum(mass)[:, None]
    per_destination = np.full(mass.shape, 1.0 / mass.shape[1])
    np.divide(mass, weight, out=per_destination, where=weight > 0.0)
    return weight[:, 0], per_destination


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
    mass, fallback = _hour_mass(_clamped_table(category_counts, censored))
    keys = product(destination_names, CATEGORY_ORDER)
    return JointDistribution(
        hour=hour, mass=dict(zip(keys, mass.ravel().tolist())), fallback_uniform=fallback
    )


def _check_hour_rows(hour: HourKey, names: list[str]) -> None:
    if not names:
        raise DataError(f"no destination routing rows for hour {hour.isoformat()}")
    if len(set(names)) != len(names):
        raise DataError(f"duplicate destination rows for hour {hour.isoformat()}")


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


class _CountLedger:
    """Tracks per-key residual counts across phases within one hour."""

    def __init__(self, counts: Mapping[str, int]):
        self.left = dict(counts)

    def remaining(self, key: str) -> int:
        return self.left[key]

    def consume(self, key: str, amount: int) -> None:
        self.left[key] -= amount
        if self.left[key] < 0:
            raise InternalError(f"negative residual for count key {key!r}: {self.left[key]}")


def decide_flows(
    network: NetworkConfig,
    counts: Mapping[str, int | float],
    hour: HourKey,
) -> tuple[list[FlowDecision], list[LedgerEvent]]:
    """Run the three routing phases on one hour of tollbooth totals.

    ``counts`` maps count keys (station names, direction-qualified where
    split) to hourly totals. All keys referenced by the network config must
    be present.
    """
    referenced = network.referenced_count_keys()
    missing = [k for k in referenced if k not in counts]
    if missing:
        raise DataError(f"missing tollbooth counts for {missing} at {hour.isoformat()}")
    for key in referenced:
        v = counts[key]
        if v < 0 or int(v) != v:
            raise DataError(f"count for {key!r} must be a non-negative integer, got {v!r}")

    ledger = _CountLedger({k: int(counts[k]) for k in referenced})
    decisions: list[FlowDecision] = []
    events: list[LedgerEvent] = []

    def event(entry_type: str, scenario: str, direction: str, key: str, amount: int, flag: str = "") -> None:
        events.append(LedgerEvent(hour, entry_type, scenario, direction, key, amount, flag))

    def record(scenario: Scenario, direction: str, volume: int, origin: str, eligible: Sequence[str],
               reversed_roles: bool = False) -> None:
        decisions.append(
            FlowDecision(hour, scenario, direction, volume, origin, tuple(eligible), reversed_roles)
        )
        event("decision", scenario.value, direction, origin, volume)

    def subset(scenario: str) -> list[str]:
        return network.group_members(network.scenario_subsets[scenario])

    # Phase 1: internal circulation across the boundary booth.
    boundary = network.boundary
    if boundary is not None:
        imbalance = ledger.remaining(boundary.inbound_key) - ledger.remaining(boundary.outbound_key)
        if imbalance != 0:
            side = boundary.positive if imbalance > 0 else boundary.negative
            volume = abs(imbalance)
            assert network.ramps is not None  # enforced by config validation
            ramp_key = network.ramps.onramp if side.consumes == "onramp" else network.ramps.offramp
            applied = min(volume, ledger.remaining(ramp_key))
            ledger.consume(ramp_key, applied)
            flag = "capped" if applied < volume else ""
            event("consume", Scenario.INTERNAL.value, side.label, ramp_key, applied, flag)
            record(Scenario.INTERNAL, side.label, volume, boundary.node, network.group_members(side.groups))

    # Phase 2: remaining ramp traffic enters or leaves the area.
    if network.ramps is not None:
        inflow = ledger.remaining(network.ramps.onramp)
        if inflow > 0:
            ledger.consume(network.ramps.onramp, inflow)
            record(Scenario.LOCAL_INFLOW, "onramp:in", inflow, network.ramps.onramp, subset("LocalInflow"))
        outflow = ledger.remaining(network.ramps.offramp)
        if outflow > 0:
            ledger.consume(network.ramps.offramp, outflow)
            record(Scenario.LOCAL_OUTFLOW, "offramp:out", outflow, network.ramps.offramp,
                   subset("LocalOutflow"), reversed_roles=True)

    # Phase 3: paired booths, shared minimum bypasses, difference is net.
    # Both decisions are always recorded, at volume zero when balanced, so
    # the ledger carries each pair's full disposition for every hour.
    for pair in network.passthrough_pairs:
        up = ledger.remaining(pair.upstream)
        down = ledger.remaining(pair.downstream)
        record(Scenario.PASSTHROUGH_BYPASS, f"{pair.axis}:bypass", min(up, down), pair.upstream,
               (pair.downstream,))
        net = up - down
        if net >= 0:
            record(Scenario.PASSTHROUGH_NET, f"{pair.axis}:inflow", net, pair.upstream,
                   subset("PassthroughNet"))
        else:
            record(Scenario.PASSTHROUGH_NET, f"{pair.axis}:outflow", -net, pair.downstream,
                   subset("PassthroughNet"), reversed_roles=True)

    event("balance", "", "", "total", sum(d.volume for d in decisions))
    return decisions, events


def _check_eligible(decision: FlowDecision, present: list[str]) -> None:
    """A decision that splits volume needs every eligible destination present."""
    if decision.volume == 0 or decision.scenario is Scenario.PASSTHROUGH_BYPASS:
        return
    unknown = [d for d in decision.eligible_destinations if d not in present]
    if unknown:
        raise DataError(
            f"eligible destinations {unknown} absent from the joint distribution "
            f"at {decision.hour.isoformat()}"
        )


def distribute(decision: FlowDecision, joint: JointDistribution) -> list[ODEntry]:
    """Turn one decision into integer OD entries using the hour's joint.

    Bypass volumes skip the distribution entirely and emit one aggregate
    entry toward the paired booth. Everything else is split across the
    eligible destinations by the renormalized destination marginal, then
    across categories per destination; both splits use largest remainder.
    """
    names, weight, per_destination = _joint_arrays(joint)
    _check_eligible(decision, names)
    one_hour = np.zeros(1, dtype=np.int64)
    return _od_matrix((decision.hour,), [decision], one_hour, weight[None], per_destination[None],
                      names).entries


def build_od_matrix(
    network: NetworkConfig,
    model: FusionModel,
    tollbooth: TollboothTable,
    routing: RoutingTable,
    hours: Iterable[HourKey] | None = None,
) -> RoutingRun:
    """Assemble the OD matrix over a range of hours.

    For each hour: infer the joint distribution from the destination
    routing reports, decide scenario volumes from the tollbooth totals,
    distribute, and append to the conservation ledger. ``hours`` defaults
    to every hour present in the tollbooth data.
    """
    # Hour x count-key grid of integer totals, -1 where a series has no row.
    series_keys = tollbooth.series_keys()
    keys = list(dict.fromkeys(series_keys))
    key_codes = {k: i for i, k in enumerate(keys)}
    row_key = np.array([key_codes[k] for k in series_keys], dtype=np.int64)[tollbooth.series]
    repeat = _first_repeat(tollbooth.hour * len(keys) + row_key)
    if repeat is not None:
        raise DataError(f"duplicate tollbooth series {keys[row_key[repeat]]!r} "
                        f"at {tollbooth.hours[tollbooth.hour[repeat]].isoformat()}")
    totals = np.full((len(tollbooth.hours), len(keys)), -1, dtype=np.int64)
    totals[tollbooth.hour, row_key] = tollbooth.total.astype(np.int64)
    tollbooth_hour = {h.timestamp: i for i, h in enumerate(tollbooth.hours)}

    hour_keys = sorted(tollbooth.hours if hours is None else hours, key=lambda h: h.timestamp)
    for earlier, later in zip(hour_keys, hour_keys[1:]):
        if earlier.timestamp == later.timestamp:
            raise DataError(f"hour {later.isoformat()} is listed twice in the hours to route")

    # Destination rows stable-sorted by hour: file order within an hour.
    dest_names = network.destination_names()
    dest_index = {name: i for i, name in enumerate(dest_names)}
    node_dest = np.array([dest_index.get(n.name, -1) for n in routing.nodes], dtype=np.int64)[routing.node]
    routing_hour = {h.timestamp: i for i, h in enumerate(routing.hours)}
    by_hour = np.nonzero(node_dest >= 0)[0]
    by_hour = by_hour[np.argsort(routing.hour[by_hour], kind="stable")]
    codes = np.array([routing_hour.get(hk.timestamp, -1) for hk in hour_keys], dtype=np.int64)
    lo = np.searchsorted(routing.hour[by_hour], codes, "left")
    hi = np.searchsorted(routing.hour[by_hour], codes, "right")
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + [by_hour[a:b] for a, b in zip(lo, hi)])
    bounds = np.concatenate(([0], np.cumsum(hi - lo)))
    row_dest = node_dest[flat]

    # One prediction block for every hour.
    preds = predict_matrix(model, feature_matrix(routing, flat))[:, 1:]  # category columns only
    table = _clamped_table(preds, routing.censored[flat])
    mass = np.empty_like(table)

    decisions: list[FlowDecision] = []
    decision_hour: list[int] = []
    ledger: list[LedgerEvent] = []
    for h, hk in enumerate(hour_keys):
        t = tollbooth_hour.get(hk.timestamp)
        if t is None:
            raise DataError(f"no tollbooth counts for hour {hk.isoformat()}")
        start, stop = bounds[h], bounds[h + 1]
        dests = row_dest[start:stop].tolist()
        _check_hour_rows(hk, dests)
        mass[start:stop], fallback = _hour_mass(table[start:stop])
        if fallback:
            ledger.append(LedgerEvent(hk, "consume", "", "", "joint", 0, "uniform_fallback"))
        counts = {key: total for key, total in zip(keys, totals[t].tolist()) if total >= 0}
        hour_decisions, events = decide_flows(network, counts, hk)
        ledger.extend(events)
        if len(dests) < len(dest_names):
            names = [dest_names[d] for d in dests]
            for d in hour_decisions:
                _check_eligible(d, names)
        decisions.extend(hour_decisions)
        decision_hour.extend([h] * len(hour_decisions))

    # Marginals once per (hour, destination), scattered on a grid.
    weight, per_destination = _marginals(mass)
    row_hour = np.repeat(np.arange(len(hour_keys)), np.diff(bounds))
    weight_grid = np.zeros((len(hour_keys), len(dest_names)))
    weight_grid[row_hour, row_dest] = weight
    category_grid = np.zeros(weight_grid.shape + (len(CATEGORY_ORDER),))
    category_grid[row_hour, row_dest] = per_destination
    matrix = _od_matrix(tuple(hour_keys), decisions, np.array(decision_hour, dtype=np.int64),
                        weight_grid, category_grid, dest_names)
    return RoutingRun(matrix=matrix, decisions=decisions, ledger=ledger)


def _od_matrix(hours: tuple[HourKey, ...], decisions: list[FlowDecision], decision_hour: np.ndarray,
               weight_grid: np.ndarray, category_grid: np.ndarray, dest_names: list[str]) -> ODMatrix:
    """Distribute every decision over its hour's row of the marginal grids.

    ``weight_grid`` is ``(hours, destinations)``, ``category_grid`` adds the
    category axis. Decisions that share an eligible-destination tuple are
    apportioned in one batch; bypass decisions keep their whole volume.
    """
    node_codes: dict[str, int] = {}
    code = lambda name: node_codes.setdefault(name, len(node_codes))  # noqa: E731
    dest_index = {name: i for i, name in enumerate(dest_names)}
    volume = np.array([d.volume for d in decisions], dtype=np.int64)
    origin = np.array([code(d.origin) for d in decisions], dtype=np.int64)
    reverse = np.array([d.reversed_roles for d in decisions], dtype=bool)
    groups: dict[tuple[str, ...] | None, list[int]] = {}
    for i, d in enumerate(decisions):
        if d.volume:
            bypass = d.scenario is Scenario.PASSTHROUGH_BYPASS
            groups.setdefault(None if bypass else d.eligible_destinations, []).append(i)

    # Rows: decision, position within it, origin, destination, type, count.
    pieces = [np.zeros((6, 0), dtype=np.int64)]
    for eligible, members in groups.items():
        idx = np.array(members, dtype=np.int64)
        if eligible is None:
            dest = np.array([code(decisions[i].eligible_destinations[0]) for i in members])
            kind = np.full(len(idx), _VEHICLE_TYPES.index(VehicleType.ALL))
            pieces.append(np.stack((idx, np.zeros_like(idx), origin[idx], dest, kind, volume[idx])))
            continue
        rows, cols = decision_hour[idx][:, None], [dest_index[name] for name in eligible]
        counts = _split(volume[idx], weight_grid[rows, cols], category_grid[rows, cols])
        b, j, c = np.nonzero(counts)
        dec = idx[b]
        dest = np.array([code(name) for name in eligible], dtype=np.int64)[j]
        rev = reverse[dec]
        ends = (np.where(rev, dest, origin[dec]), np.where(rev, origin[dec], dest))
        pieces.append(np.stack((dec, j * len(CATEGORY_ORDER) + c, *ends, _CATEGORY_TYPE_CODES[c],
                                counts[b, j, c])))
    columns = np.concatenate(pieces, axis=1)
    # Gathered a column at a time: a permuted copy of the whole (6, rows)
    # block is one more transient of its size.
    order = np.lexsort((columns[1], columns[0]))
    dec, origin, destination, kind, count = (columns[i][order] for i in (0, 2, 3, 4, 5))
    scenario = np.array([_SCENARIOS.index(d.scenario) for d in decisions], dtype=np.int64)
    return ODMatrix(hours=hours, nodes=tuple(node_codes), decisions=tuple(decisions),
                    hour=decision_hour[dec], origin=origin, destination=destination,
                    vehicle_type=kind, scenario=scenario[dec], count=count, decision=dec)


def conservation_violations(run: RoutingRun) -> list[str]:
    """Check that no vehicle was created or destroyed anywhere in the run."""
    problems: list[str] = []
    volumes = np.array([d.volume for d in run.decisions], dtype=np.int64)
    allocated = np.bincount(run.matrix.decision, weights=run.matrix.count, minlength=len(volumes))
    allocated = allocated.astype(np.int64)
    for i in np.nonzero(allocated != volumes)[0]:
        decision = run.decisions[i]
        problems.append(
            f"{decision.hour.isoformat()} {decision.scenario.value} {decision.direction}: "
            f"decided {decision.volume}, allocated {allocated[i]}"
        )
    balances = {e.hour.timestamp: e.amount for e in run.ledger if e.entry_type == "balance"}
    decided: dict[object, int] = {}
    for d in run.decisions:
        decided[d.hour.timestamp] = decided.get(d.hour.timestamp, 0) + d.volume
    for ts, balance in balances.items():
        if decided.get(ts, 0) != balance:
            problems.append(f"balance mismatch at {ts}: ledger {balance}, decisions {decided.get(ts, 0)}")
    return problems


def write_od_csv(path: str | Path, matrix: ODMatrix) -> None:
    keep = np.nonzero(matrix.count > 0)[0]
    node_rank = _ranks(matrix.nodes)
    # lexsort is stable: rows with equal keys stay in decision order.
    order = keep[np.lexsort((
        _ranks([t.value for t in _VEHICLE_TYPES])[matrix.vehicle_type[keep]],
        node_rank[matrix.destination[keep]],
        node_rank[matrix.origin[keep]],
        _ranks([s.value for s in _SCENARIOS])[matrix.scenario[keep]],
        _ranks([h.timestamp for h in matrix.hours])[matrix.hour[keep]],
    ))]
    write_csv_columns(path, ["timestamp", "origin", "destination", "vehicle_type", "count", "scenario"], [
        ([h.isoformat() for h in matrix.hours], matrix.hour), (matrix.nodes, matrix.origin),
        (matrix.nodes, matrix.destination), ([t.value for t in _VEHICLE_TYPES], matrix.vehicle_type),
        (None, matrix.count), ([s.value for s in _SCENARIOS], matrix.scenario),
    ], order)


def write_ledger_csv(path: str | Path, ledger: list[LedgerEvent]) -> None:
    iso = {ts: hour.isoformat() for ts, hour in {e.hour.timestamp: e.hour for e in ledger}.items()}
    write_csv(path, ["timestamp", "entry_type", "scenario", "direction", "key", "amount", "flag"], (
        [iso[e.hour.timestamp], e.entry_type, e.scenario, e.direction, e.key, e.amount, e.flag] for e in ledger
    ))
