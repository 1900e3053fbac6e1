"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the production code paths: split
search by full enumeration, tree growth by scanning every (row, feature)
position, raw scores by one ``predict_batch`` call per tree, Shapley
values by subset enumeration, apportionment by integer-vector search and
by the scalar largest-remainder loop, routing decisions, ledger and OD
rows by the per-hour, per-decision routing loop, permutation importance
by tree-by-tree re-scoring, conservation by direct recomputation from raw
counts, in memory and from the routing files read back with ``csv``, the
synth and eval files by recomputation from the CSVs they are made of, CSV
parsing by the per-row readers that build observation objects, model
features by the encoding written out one report at a time, and synthetic
data by one array Poisson draw per (series, hour)."""

from __future__ import annotations

import csv
import math
import re
from datetime import timedelta
from itertools import combinations, product
from pathlib import Path

import numpy as np

from odfuse.core import (
    CATEGORY_ORDER,
    CSV_EOL,
    CountsByCategory,
    Direction,
    NodeKind,
    RoadTag,
    TAG_ORDER,
    RoutingReportObservation,
    RoutingTable,
    TollboothObservation,
    TollboothTable,
    csv_cell,
    hour_array,
    make_hour_key,
    series_key,
)
from odfuse.errors import DataError
from odfuse.fusion import NODE_FIELDS, RegressionTree, TargetModel
from odfuse.ingest import (
    _SYNTH_START,
    CENSOR_SENTINEL,
    ROUTING_HEADER,
    TOLLBOOTH_HEADER,
    _diurnal_shape,
    _node_composition,
)
from odfuse.network import (
    BoundaryConfig,
    BoundaryDirection,
    NetworkConfig,
    NetworkNode,
    PassthroughPair,
    RampConfig,
)


def make_tree(feature, threshold, left, right, value, cover) -> RegressionTree:
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        cover=np.asarray(cover, dtype=np.float64),
    )


def target_model(base_score: float, trees: list[RegressionTree]) -> TargetModel:
    """The target model whose node table holds ``trees`` end to end."""
    columns = {key: np.concatenate([np.zeros(0, dtype), *(getattr(tree, key) for tree in trees)])
               for key, dtype in NODE_FIELDS.items()}
    offsets = np.cumsum([0] + [tree.feature.shape[0] for tree in trees])
    return TargetModel(base_score=base_score, **columns, offsets=offsets)


def random_cover_tree(rng, n_features: int, max_depth: int, root_cover: int | None = None) -> RegressionTree:
    """Random tree with consistent covers (parent = left + right >= 1)."""
    feature, threshold, left, right, value, cover = [], [], [], [], [], []

    def grow(depth: int, cov: int) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        cover.append(float(cov))
        if depth >= max_depth or cov < 2 or rng.random() < 0.25:
            value[idx] = float(rng.normal())
            return idx
        feature[idx] = int(rng.integers(n_features))
        threshold[idx] = float(rng.random())
        cl = int(rng.integers(1, cov))
        left[idx] = grow(depth + 1, cl)
        right[idx] = grow(depth + 1, cov - cl)
        return idx

    grow(0, root_cover or int(rng.integers(20, 200)))
    return make_tree(feature, threshold, left, right, value, cover)


def tree_expectation(tree: RegressionTree, x, present: frozenset[int] | set[int]) -> float:
    """Cover-weighted conditional expectation with only ``present`` features
    following the input; the brute-force oracle's value function."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    value, cover = tree.value.tolist(), tree.cover.tolist()
    xs = [float(v) for v in x]

    def recurse(node: int) -> float:
        f = feature[node]
        if f < 0:
            return value[node]
        if f in present:
            child = left[node] if xs[f] <= threshold[node] else right[node]
            return recurse(child)
        cl, cr = cover[left[node]], cover[right[node]]
        return (cl * recurse(left[node]) + cr * recurse(right[node])) / (cl + cr)

    return recurse(0)


def brute_force_shap(tree: RegressionTree, x, n_features: int) -> tuple[np.ndarray, float]:
    """Exact Shapley values by enumerating all 2^n feature subsets.

    Exponential in the feature count; a verification oracle for small trees
    only. Returns (contributions, base value).
    """
    values: dict[frozenset[int], float] = {}

    def v(subset: frozenset[int]) -> float:
        if subset not in values:
            values[subset] = tree_expectation(tree, x, subset)
        return values[subset]

    phi = np.zeros(n_features)
    all_features = list(range(n_features))
    fact = math.factorial
    denom = fact(n_features)
    for i in all_features:
        others = [j for j in all_features if j != i]
        for size in range(len(others) + 1):
            weight = fact(size) * fact(n_features - size - 1) / denom
            for subset in combinations(others, size):
                s = frozenset(subset)
                phi[i] += weight * (v(s | {i}) - v(s))
    return phi, v(frozenset())


def exhaustive_best_split(X: np.ndarray, g: np.ndarray, min_samples_leaf: int, lam: float):
    """Enumerate every (feature, midpoint) candidate; return the best split.

    Scan order is feature-major then threshold-ascending with a strictly
    greater comparison, mirroring the trainer's documented tie-breaking.
    Returns (feature, threshold, gain) or None when no candidate has
    positive gain.
    """
    n, k = X.shape
    G = float(g.sum())
    best = None
    for f in range(k):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2.0
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            gl = float(g[mask].sum())
            gr = G - gl
            gain = gl * gl / (nl + lam) + gr * gr / (nr + lam) - G * G / (n + lam)
            if best is None or gain > best[2]:
                best = (f, thr, gain)
    if best is None or best[2] <= 0.0:
        return None
    return best


def minimax_apportionment(total: int, weights: list[float]) -> list[int]:
    """Oracle: integer vector summing to ``total`` minimizing max |r - q|.

    Exponential; only for tiny cases. Tie between vectors resolves to the
    one with the smaller sum of |r - q| then lexicographically smallest,
    which coincides with largest remainder on the cases under test.
    """
    k = len(weights)
    quotas = [total * w for w in weights]
    best = None
    for combo in product(range(total + 1), repeat=k):
        if sum(combo) != total:
            continue
        devs = [abs(c - q) for c, q in zip(combo, quotas)]
        key = (max(devs), sum(devs), combo)
        if best is None or key < best:
            best = key
    assert best is not None
    return list(best[2])


def take_rows(table, rows):
    """The rows of a tollbooth or routing table at ``rows``, in that order and
    repeats allowed, built again through ``from_rows``: the hour, series and
    node tables follow the picked rows' first appearance, as a file with
    these rows in this order would give."""
    rows = np.asarray(rows, dtype=np.int64)
    hours = [table.hour_keys[h] for h in table.hour[rows]]
    if isinstance(table, TollboothTable):
        return TollboothTable.from_rows(hours, [table.series_ids[s] for s in table.series[rows]],
                                        np.column_stack((table.counts, table.total))[rows])
    return RoutingTable.from_rows(hours, [table.nodes[n] for n in table.node[rows]], table.flow[rows],
                                  [TAG_ORDER[t] for t in table.tag[rows]], table.censored[rows])


def station(name: str, tag: RoadTag = RoadTag.PRIMARY, scale: float = 100.0, directions=()) -> NetworkNode:
    return NetworkNode(
        name=name,
        kind=NodeKind.MAIN_TOLLBOOTH,
        road_tag=tag,
        scale=scale,
        directions=tuple(directions),
    )


def destination(name: str, tag: RoadTag = RoadTag.SECONDARY, scale: float = 100.0) -> NetworkNode:
    return NetworkNode(
        name=name,
        kind=NodeKind.INFERRED_DESTINATION,
        road_tag=tag,
        scale=scale,
    )


def pair_only_network() -> NetworkConfig:
    """One passthrough pair and three destinations: the worked-example net."""
    return NetworkConfig(
        name="pair-only",
        nodes=(
            station("E6-Klett"),
            station("Storlersbakken-Trondheim"),
            destination("Brøttemsvegen"),
            destination("Heimsdalvegen"),
            destination("Industripark"),
        ),
        destination_groups={"south": ("Brøttemsvegen", "Heimsdalvegen", "Industripark")},
        passthrough_pairs=(
            PassthroughPair(upstream="E6-Klett", downstream="Storlersbakken-Trondheim", axis="northbound"),
        ),
        scenario_subsets={"PassthroughNet": ("south",)},
    )


def ramp_network() -> NetworkConfig:
    """Boundary booth with directional series plus both ramps."""
    return NetworkConfig(
        name="ramp-fixture",
        nodes=(
            station("Boundary", directions=("Inbound", "Outbound")),
            station("Onramp"),
            station("Offramp"),
            destination("East-A"),
            destination("East-B"),
            destination("West-A"),
        ),
        destination_groups={"east": ("East-A", "East-B"), "west": ("West-A",)},
        passthrough_pairs=(),
        scenario_subsets={"LocalInflow": ("east", "west"), "LocalOutflow": ("east", "west")},
        boundary=BoundaryConfig(
            node="Boundary",
            inbound_key="Boundary|Inbound",
            outbound_key="Boundary|Outbound",
            positive=BoundaryDirection(label="eastbound", consumes="onramp", groups=("east",)),
            negative=BoundaryDirection(label="westbound", consumes="offramp", groups=("west",)),
        ),
        ramps=RampConfig(onramp="Onramp", offramp="Offramp"),
    )


WORKED_EXAMPLE_HOUR = "2025-01-30T17:00"

WORKED_EXAMPLE_NETWORK = {
    "name": "pair-only",
    "nodes": [
        {"name": "E6-Klett", "kind": "main_tollbooth", "road_tag": "Primary", "scale": 500},
        {"name": "Storlersbakken-Trondheim", "kind": "main_tollbooth", "road_tag": "Primary", "scale": 400},
        {"name": "Brøttemsvegen", "kind": "inferred_destination", "road_tag": "Secondary", "scale": 100},
        {"name": "Heimsdalvegen", "kind": "inferred_destination", "road_tag": "Secondary", "scale": 100},
        {"name": "Industripark", "kind": "inferred_destination", "road_tag": "Secondary", "scale": 100},
    ],
    "destination_groups": {"south": ["Brøttemsvegen", "Heimsdalvegen", "Industripark"]},
    "passthrough_pairs": [
        {"upstream": "E6-Klett", "downstream": "Storlersbakken-Trondheim", "axis": "northbound"}
    ],
    "scenario_subsets": {"PassthroughNet": ["south"]},
}

# Per-station constants: people_flow and the (under5.6, 5.6-7.6, 7.6-12.5)
# counts an interpolating model must reproduce exactly at inference time.
WORKED_EXAMPLE_STATIONS = {
    "S1": (100, (22, 5, 3)),
    "S2": (200, (20, 0, 0)),
    "S3": (300, (50, 0, 0)),
}


def write_worked_example_fixture(base) -> dict:
    """Write the worked-example fixture files; returns a run config dict.

    Training data is constant per station, so a single exact-fit tree
    (lr=1, l2=0, min leaf 1) reproduces the targets verbatim; the three
    destination reports reuse the station flows, making the hour's joint
    distribution exactly {0.3, 0.2, 0.5} across destinations with the
    22/5/3 category mix at the first one.
    """
    import csv
    import json
    from datetime import timedelta

    from odfuse.core import make_hour_key
    from odfuse.ingest import ROUTING_HEADER, TOLLBOOTH_HEADER

    base.mkdir(parents=True, exist_ok=True)
    (base / "network.json").write_text(
        json.dumps(WORKED_EXAMPLE_NETWORK, ensure_ascii=False), encoding="utf-8"
    )

    start = make_hour_key("2023-11-06T00:00").timestamp
    with open(base / "train_tollbooth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOLLBOOTH_HEADER)
        for i in range(48):
            ts = (start + timedelta(hours=i)).strftime("%Y-%m-%dT%H:%M")
            for name, (_, cats) in WORKED_EXAMPLE_STATIONS.items():
                c = list(cats) + [0, 0, 0]
                writer.writerow([ts, name, "Undirected", *c, sum(c)])
    with open(base / "train_routing.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUTING_HEADER)
        for i in range(48):
            ts = (start + timedelta(hours=i)).strftime("%Y-%m-%dT%H:%M")
            for name, (flow, _) in WORKED_EXAMPLE_STATIONS.items():
                writer.writerow([ts, name, flow, "Secondary"])

    with open(base / "sim_tollbooth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOLLBOOTH_HEADER)
        writer.writerow([WORKED_EXAMPLE_HOUR, "E6-Klett", "Undirected", 500, 0, 0, 0, 0, 0, 500])
        writer.writerow(
            [WORKED_EXAMPLE_HOUR, "Storlersbakken-Trondheim", "Undirected", 400, 0, 0, 0, 0, 0, 400]
        )
    with open(base / "sim_routing.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUTING_HEADER)
        writer.writerow([WORKED_EXAMPLE_HOUR, "Brøttemsvegen", 100, "Secondary"])
        writer.writerow([WORKED_EXAMPLE_HOUR, "Heimsdalvegen", 200, "Secondary"])
        writer.writerow([WORKED_EXAMPLE_HOUR, "Industripark", 300, "Secondary"])

    return {
        "seed": 0,
        "out_dir": str(base / "out"),
        "valid_fraction": 0.2,
        "network": str(base / "network.json"),
        "data": {
            "tollbooth_csv": str(base / "train_tollbooth.csv"),
            "routing_csv": str(base / "train_routing.csv"),
        },
        "synthetic": None,
        "hyperparams": {
            "n_trees": 1,
            "max_depth": 4,
            "learning_rate": 1.0,
            "min_samples_leaf": 1,
            "l2_leaf_regularization": 0.0,
        },
        "simulation": {
            "tollbooth_csv": str(base / "sim_tollbooth.csv"),
            "routing_csv": str(base / "sim_routing.csv"),
        },
    }


def expected_hour_total(network: NetworkConfig, counts: dict[str, int]) -> int:
    """Conservation oracle: recompute the phase-accounted flow from raw
    counts, independently of the engine's ledger."""
    total = 0
    consumed_on = consumed_off = 0
    if network.boundary is not None:
        imbalance = counts[network.boundary.inbound_key] - counts[network.boundary.outbound_key]
        total += abs(imbalance)
        side = network.boundary.positive if imbalance > 0 else network.boundary.negative
        if imbalance != 0:
            assert network.ramps is not None
            ramp_count = counts[
                network.ramps.onramp if side.consumes == "onramp" else network.ramps.offramp
            ]
            applied = min(abs(imbalance), ramp_count)
            if side.consumes == "onramp":
                consumed_on = applied
            else:
                consumed_off = applied
    if network.ramps is not None:
        total += counts[network.ramps.onramp] - consumed_on
        total += counts[network.ramps.offramp] - consumed_off
    for pair in network.passthrough_pairs:
        up, down = counts[pair.upstream], counts[pair.downstream]
        total += min(up, down) + abs(up - down)
    return total


_OD_HEADER = ["timestamp", "origin", "destination", "vehicle_type", "count", "scenario"]
_LEDGER_HEADER = ["timestamp", "entry_type", "scenario", "direction", "key", "amount", "flag"]


def _csv_body(path: Path, header: list[str]) -> list[list[str]]:
    """The rows after ``header`` of the CSV at ``path``, each as wide as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[:1] == [header], f"{path.name}: header {rows[:1]}, expected {header}"
    widths = {len(row) for row in rows[1:]} - {len(header)}
    assert not widths, f"{path.name}: rows of {sorted(widths)} fields, expected {len(header)}"
    return rows[1:]


def _integer(text: str, what: str, least: int) -> int:
    """``text`` as a decimal integer of at least ``least``, written without a sign or leading zero."""
    assert re.fullmatch(r"0|[1-9][0-9]*", text) and int(text) >= least, f"{what} {text!r} is not an integer >= {least}"
    return int(text)


def check_routing_files(out_dir, network: NetworkConfig, tollbooth_csv=None) -> None:
    """Integer conservation read back from the files of a route: the
    ``od_matrix.csv`` and ``ledger.csv`` in ``out_dir``, against the
    tollbooth file the route read (``out_dir``'s ``tollbooth.csv`` unless
    given). Only ``csv`` reads them. Checks the headers; that every OD count
    is a positive integer and every ledger amount a non-negative one; that
    the OD rows are non-decreasing in (timestamp, scenario, origin,
    destination, vehicle_type), compared as texts; that per (hour, scenario)
    the OD counts sum to the ledger's decisions; that each hour's balance
    equals its decisions; and that each hour's OD total is
    ``expected_hour_total`` of that hour's tollbooth totals."""
    out_dir = Path(out_dir)
    od = _csv_body(out_dir / "od_matrix.csv", _OD_HEADER)
    ledger = _csv_body(out_dir / "ledger.csv", _LEDGER_HEADER)
    tollbooth = _csv_body(Path(tollbooth_csv or out_dir / "tollbooth.csv"), TOLLBOOTH_HEADER)

    keys = [(hour, scenario, origin, dest, vtype) for hour, origin, dest, vtype, _, scenario in od]
    unsorted = [i for i in range(1, len(keys)) if keys[i] < keys[i - 1]]
    assert not unsorted, f"od_matrix.csv: line {unsorted[0] + 2} sorts before the line above it"
    routed: dict = {}  # OD count per (hour, scenario)
    for hour, *_, count, scenario in od:
        routed[hour, scenario] = routed.get((hour, scenario), 0) + _integer(count, "OD count", 1)

    decided: dict = {}  # ledger decision amount per (hour, scenario)
    balance: dict = {}
    for hour, entry_type, scenario, _, _, amount, _ in ledger:
        amount = _integer(amount, "ledger amount", 0)
        if entry_type == "decision":
            decided[hour, scenario] = decided.get((hour, scenario), 0) + amount
        elif entry_type == "balance":
            assert hour not in balance, f"ledger.csv: two balance rows at {hour}"
            balance[hour] = amount
    # A decision of no vehicles makes no OD row.
    assert routed == {key: amount for key, amount in decided.items() if amount}, \
        "OD counts and ledger decisions differ for some (hour, scenario)"

    totals: dict = {}  # tollbooth total per hour and count key
    for hour, station, direction, *_, total in tollbooth:
        totals.setdefault(hour, {})[series_key(station, Direction(direction))] = int(total)
    hours = {hour for hour, _ in decided}
    assert hours <= set(balance), f"hours without a balance row: {sorted(hours - set(balance))}"
    hour_decided, hour_routed = _per_hour(decided), _per_hour(routed)
    for hour, amount in balance.items():
        assert amount == hour_decided.get(hour, 0), f"{hour}: balance {amount}, decisions {hour_decided.get(hour)}"
        expected = expected_hour_total(network, totals[hour])
        assert hour_routed.get(hour, 0) == expected, \
            f"{hour}: OD total {hour_routed.get(hour)}, tollbooth counts route {expected}"


def _per_hour(amounts: dict) -> dict:
    """Amounts keyed by (hour, scenario), summed per hour."""
    out: dict = {}
    for (hour, _), amount in amounts.items():
        out[hour] = out.get(hour, 0) + amount
    return out


def check_synth_files(out_dir) -> None:
    """The files of a synth run read back with ``csv`` alone. Every
    ``tollbooth.csv`` total is the sum of its six bands. ``difference.csv``
    holds, in (count key, hour of day) order, the mean of total minus
    people_flow over each tollbooth row and the ``routing.csv`` row of its
    count key and timestamp text, where that report is not censored; the
    hour of day is the timestamp text's characters 11 and 12."""
    out_dir = Path(out_dir)
    flows = {(node, hour): flow for hour, node, flow, _ in _csv_body(out_dir / "routing.csv", ROUTING_HEADER)}
    cells: dict = {}  # the total minus the flow of each joined row, per (count key, hour of day)
    for line, (hour, station, direction, *bands, total) in enumerate(
            _csv_body(out_dir / "tollbooth.csv", TOLLBOOTH_HEADER), start=2):
        total = _integer(total, "total", 0)
        assert sum(_integer(band, "count", 0) for band in bands) == total, \
            f"tollbooth.csv: line {line}: total {total} is not the sum of the bands {bands}"
        key = series_key(station, Direction(direction))
        flow = flows.get((key, hour), CENSOR_SENTINEL)
        if flow != CENSOR_SENTINEL:
            cells.setdefault((key, int(hour[11:13])), []).append(total - int(flow))
    expected = [[key, str(hour), repr(sum(diffs) / len(diffs))] for (key, hour), diffs in sorted(cells.items())]
    difference = _csv_body(out_dir / "difference.csv", ["node", "hour_of_day", "mean_diff"])
    wrong = [(row, want) for row, want in zip(difference, expected) if row != want]
    assert len(difference) == len(expected) and not wrong, \
        f"difference.csv: {len(difference)} cells, expected {len(expected)}; first wrong (got, expected): {wrong[:1]}"


def check_eval_files(out_dir) -> None:
    """The validation RMSE and R^2 in ``metrics.csv`` of the total and of
    the people-flow baseline, recomputed from ``residuals.csv`` read with
    ``csv`` and summed with ``math.fsum``: the total's from residual_model,
    the baseline's from residual_baseline, and the total sum of squares from
    y_total, where zero makes R^2 NA. Each agrees to a relative 1e-12."""
    out_dir = Path(out_dir)
    metrics = {row[0]: row for row in _csv_body(out_dir / "metrics.csv",
                                                  ["target", "rmse_train", "r2_train", "rmse_valid", "r2_valid"])}
    residuals = [[float(value) for value in row] for row in
                 _csv_body(out_dir / "residuals.csv", ["y_total", "residual_model", "residual_baseline"])]
    assert residuals, "residuals.csv: no validation rows"
    n = len(residuals)
    mean = math.fsum(row[0] for row in residuals) / n
    ss_tot = math.fsum((row[0] - mean) ** 2 for row in residuals)
    for name, column in (("total", 1), ("people_flow_baseline", 2)):
        ss_res = math.fsum(row[column] ** 2 for row in residuals)
        rmse_text, r2_text = metrics[name][3:]
        assert math.isclose(float(rmse_text), math.sqrt(ss_res / n), rel_tol=1e-12), \
            f"metrics.csv: {name} rmse_valid {rmse_text}, residuals give {math.sqrt(ss_res / n)!r}"
        if ss_tot == 0:
            assert r2_text == "NA", f"metrics.csv: {name} r2_valid {r2_text}, expected NA for a constant total"
        else:
            assert math.isclose(float(r2_text), 1 - ss_res / ss_tot, rel_tol=1e-12), \
                f"metrics.csv: {name} r2_valid {r2_text}, residuals give {1 - ss_res / ss_tot!r}"


def reference_largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Scalar largest remainder, one split at a time: the oracle for the
    row-batched kernel in ``odfuse.routing``.

    Quotas are floored; leftover units go to the largest fractional
    remainders, ties broken by larger weight then earlier index.
    """
    from odfuse.errors import DataError, InternalError

    if total < 0:
        raise DataError(f"total must be non-negative, got {total}")
    if any(w < 0 for w in weights):
        raise DataError("weights must be non-negative")
    s = sum(weights)
    if abs(s - 1.0) > 1e-9:
        raise DataError(f"weights sum to {s!r}, not 1")
    quotas = [total * w for w in weights]
    result = [math.floor(q) for q in quotas]
    extras = total - sum(result)
    if extras < 0 or extras > len(weights):
        raise InternalError(f"apportionment drift: {extras} extras for {len(weights)} weights")
    order = sorted(
        range(len(weights)),
        key=lambda i: (-(quotas[i] - result[i]), -weights[i], i),
    )
    for i in order[:extras]:
        result[i] += 1
    return result


def _reference_distribute(decision, mass: dict) -> list[tuple]:
    """One decision's OD rows with the hour's marginals rebuilt from the
    (destination, category) mass dict, as routing did per decision."""
    from odfuse.core import CATEGORY_ORDER, map_vehicle_type
    from odfuse.routing import Scenario

    def row(origin, destination, vehicle_type, count):
        return (decision.hour.isoformat(), origin, destination, vehicle_type, count,
                decision.scenario.value, decision.direction)

    if decision.volume == 0:
        return []
    if decision.scenario is Scenario.PASSTHROUGH_BYPASS:
        return [row(decision.origin, decision.eligible_destinations[0], "All", decision.volume)]
    by_dest: dict[str, float] = {}
    for (dest, _), p in mass.items():
        by_dest[dest] = by_dest.get(dest, 0.0) + p
    shares = [by_dest[d] for d in decision.eligible_destinations]
    share_sum = sum(shares)
    if share_sum > 0.0:
        weights = [s / share_sum for s in shares]
    else:
        weights = [1.0 / len(shares)] * len(shares)
    rows = []
    dest_counts = reference_largest_remainder(decision.volume, weights)
    for dest, dest_count in zip(decision.eligible_destinations, dest_counts):
        if dest_count == 0:
            continue
        weight = by_dest[dest]
        if weight > 0.0:
            cat_dist = [mass.get((dest, c), 0.0) / weight for c in CATEGORY_ORDER]
        else:
            cat_dist = [1.0 / len(CATEGORY_ORDER)] * len(CATEGORY_ORDER)
        for cat, count in zip(CATEGORY_ORDER, reference_largest_remainder(dest_count, cat_dist)):
            if count == 0:
                continue
            ends = (dest, decision.origin) if decision.reversed_roles else (decision.origin, dest)
            rows.append(row(*ends, map_vehicle_type(cat).value, count))
    return rows


def reference_decide_flows(network: NetworkConfig, counts: dict, hour) -> tuple[list, list]:
    """The three routing phases on one hour, one decision and one ledger
    event at a time, with a dict of per-key residuals: the oracle for the
    whole-run decision kernel in ``odfuse.routing``."""
    from odfuse.errors import InternalError
    from odfuse.routing import FlowDecision, LedgerEvent, Scenario

    referenced = network.referenced_count_keys()
    missing = [k for k in referenced if k not in counts]
    if missing:
        raise DataError(f"missing tollbooth counts for {missing} at {hour.isoformat()}")
    left = {k: int(counts[k]) for k in referenced}
    decisions: list = []
    events: list = []

    def consume(key: str, amount: int) -> None:
        left[key] -= amount
        if left[key] < 0:
            raise InternalError(f"negative residual for count key {key!r}: {left[key]}")

    def event(entry_type, scenario, direction, key, amount, flag="") -> None:
        events.append(LedgerEvent(hour, entry_type, scenario, direction, key, amount, flag))

    def record(scenario, direction, volume, origin, eligible, reversed_roles=False) -> None:
        decisions.append(FlowDecision(hour, scenario, direction, volume, origin, tuple(eligible), reversed_roles))
        event("decision", scenario.value, direction, origin, volume)

    def subset(scenario: str) -> list:
        return network.group_members(network.scenario_subsets[scenario])

    boundary, ramps = network.boundary, network.ramps
    if boundary is not None:
        imbalance = left[boundary.inbound_key] - left[boundary.outbound_key]
        if imbalance != 0:
            side = boundary.positive if imbalance > 0 else boundary.negative
            volume = abs(imbalance)
            ramp_key = ramps.onramp if side.consumes == "onramp" else ramps.offramp
            applied = min(volume, left[ramp_key])
            consume(ramp_key, applied)
            flag = "capped" if applied < volume else ""
            event("consume", Scenario.INTERNAL.value, side.label, ramp_key, applied, flag)
            record(Scenario.INTERNAL, side.label, volume, boundary.node, network.group_members(side.groups))
    if ramps is not None:
        inflow = left[ramps.onramp]
        if inflow > 0:
            consume(ramps.onramp, inflow)
            record(Scenario.LOCAL_INFLOW, "onramp:in", inflow, ramps.onramp, subset("LocalInflow"))
        outflow = left[ramps.offramp]
        if outflow > 0:
            consume(ramps.offramp, outflow)
            record(Scenario.LOCAL_OUTFLOW, "offramp:out", outflow, ramps.offramp, subset("LocalOutflow"), True)
    for pair in network.passthrough_pairs:
        up, down = left[pair.upstream], left[pair.downstream]
        record(Scenario.PASSTHROUGH_BYPASS, f"{pair.axis}:bypass", min(up, down), pair.upstream, (pair.downstream,))
        if up >= down:
            record(Scenario.PASSTHROUGH_NET, f"{pair.axis}:inflow", up - down, pair.upstream, subset("PassthroughNet"))
        else:
            record(Scenario.PASSTHROUGH_NET, f"{pair.axis}:outflow", down - up, pair.downstream,
                   subset("PassthroughNet"), True)
    event("balance", "", "", "total", sum(d.volume for d in decisions))
    return decisions, events


def reference_route(network, model, tollbooth, routing, start=None, end=None) -> tuple[list, list, list]:
    """The per-hour, per-decision routing loop over the tollbooth's hours
    from ``start`` to ``end`` (None: open): its decisions, its ledger events
    and its OD rows, each in run order.

    Each hour's joint is a dict normalised by the hour's table sum (rows in
    file order, censored rows zeroed, uniform and ledgered when nothing
    remains); the hour's decisions come from ``reference_decide_flows``;
    each decision rebuilds the marginals and splits with the scalar largest
    remainder. OD rows are (timestamp, origin, destination, vehicle_type,
    count, scenario, direction).
    """
    from odfuse.core import CATEGORY_ORDER
    from odfuse.fusion import predict_matrix
    from odfuse.routing import LedgerEvent

    counts_by_hour: dict = {}
    for obs in tollbooth:
        counts_by_hour.setdefault(obs.hour.timestamp, {})[obs.join_key()] = int(obs.counts.total)
    dest_names = set(network.destination_names())
    dest_rows: dict = {}
    for obs in routing:
        if obs.node in dest_names:
            dest_rows.setdefault(obs.hour.timestamp, []).append(obs)
    hours = {obs.hour.timestamp: obs.hour for obs in tollbooth
             if (start is None or start <= obs.hour.timestamp) and (end is None or obs.hour.timestamp <= end)}
    decisions, ledger, rows_out = [], [], []
    for _, hour in sorted(hours.items()):
        rows = dest_rows[hour.timestamp]
        names = [r.node for r in rows]
        preds = predict_matrix(model, np.array([reference_features(r) for r in rows]))
        table = np.maximum(preds[:, 1:], 0.0)
        for i, r in enumerate(rows):
            if r.censored:
                table[i, :] = 0.0
        total = float(table.sum())
        if total <= 0.0:
            ledger.append(LedgerEvent(hour, "consume", "", "", "joint", 0, "uniform_fallback"))
        mass = {}
        for i, dest in enumerate(names):
            for j, cat in enumerate(CATEGORY_ORDER):
                mass[(dest, cat)] = float(table[i, j]) / total if total > 0.0 else 1.0 / table.size
        hour_decisions, events = reference_decide_flows(network, counts_by_hour[hour.timestamp], hour)
        decisions += hour_decisions
        ledger += events
        for decision in hour_decisions:
            rows_out.extend(_reference_distribute(decision, mass))
    return decisions, ledger, rows_out


def reference_permutation_importance(model, target: str, dataset, repeats: int, seed: int) -> dict:
    """Permutation importance that re-scores every shuffle tree by tree with
    ``RegressionTree.predict_batch``: the oracle for the whole-target scorer."""
    from odfuse.ingest import TARGET_NAMES

    X = dataset.X_valid
    y = dataset.Y_valid[:, TARGET_NAMES.index(target)]
    ss_tot = float(np.sum((y - y.mean()) ** 2))

    def r2_of(Xm: np.ndarray) -> float:
        pred = np.maximum(reference_raw_scores(model, Xm, target), 0.0)
        return 1.0 - float(np.sum((pred - y) ** 2)) / ss_tot

    base_r2 = r2_of(X)
    rng = np.random.default_rng(seed)
    drops = {}
    for j, name in enumerate(model.feature_names):
        acc = 0.0
        for _ in range(repeats):
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(X.shape[0]), j]
            acc += base_r2 - r2_of(Xp)
        drops[name] = acc / repeats
    return drops


def reference_raw_scores(model, X: np.ndarray, target: str) -> np.ndarray:
    """Raw scores summed tree by tree, one ``predict_batch`` call per tree."""
    tm = model.targets[target]
    out = np.full(X.shape[0], tm.base_score, dtype=np.float64)
    for tree in tm.trees:
        out += model.hyperparams.learning_rate * tree.predict_batch(X)
    return out


class _ReferenceTreeBuilder:
    """Exact greedy tree growth over every (row, feature) position: each node
    re-gathers its ``n x F`` sorted row indices and feature values and scores
    all ``n - 1`` positions per feature, masking the invalid ones."""

    def __init__(self, X: np.ndarray, g: np.ndarray, hp):
        self.X = X
        self.g = g
        self.lam = hp.l2_leaf_regularization
        self.msl = hp.min_samples_leaf
        self.max_depth = hp.max_depth
        self.n_features = X.shape[1]
        self._cols = np.arange(self.n_features)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[float] = []
        self.leaf_assignments: list[tuple[np.ndarray, float]] = []

    def build(self, sorted_cols: np.ndarray) -> RegressionTree:
        self._grow(sorted_cols, depth=0)
        return make_tree(self.feature, self.threshold, self.left, self.right, self.value, self.cover)

    def _new_node(self) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.cover.append(0.0)
        return idx

    def _make_leaf(self, idx: int, rows: np.ndarray) -> None:
        n = rows.shape[0]
        val = float(self.g[rows].sum() / (n + self.lam))
        self.value[idx] = val
        self.cover[idx] = float(n)
        self.leaf_assignments.append((rows, val))

    def _grow(self, sorted_cols: np.ndarray, depth: int) -> int:
        idx = self._new_node()
        n = sorted_cols.shape[0]
        rows = sorted_cols[:, 0]
        if depth >= self.max_depth or n < 2 * self.msl:
            self._make_leaf(idx, rows)
            return idx

        gv = self.g[sorted_cols]
        xv = self.X[sorted_cols, self._cols[None, :]]
        csum = np.cumsum(gv, axis=0)
        G = csum[-1]
        nL = np.arange(1, n, dtype=np.float64)[:, None]
        nR = n - nL
        GL = csum[:-1]
        GR = G[None, :] - GL
        gain = (
            GL * GL / (nL + self.lam)
            + GR * GR / (nR + self.lam)
            - (G * G / (n + self.lam))[None, :]
        )
        valid = (xv[1:] != xv[:-1]) & (nL >= self.msl) & (nR >= self.msl)
        gain = np.where(valid, gain, -np.inf)
        flat = int(np.argmax(gain.T))
        f, pos = divmod(flat, n - 1)
        best_gain = gain[pos, f]
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            self._make_leaf(idx, rows)
            return idx

        thr = (xv[pos, f] + xv[pos + 1, f]) / 2.0
        left_rows = sorted_cols[: pos + 1, f]
        goes_left = np.zeros(self.X.shape[0], dtype=bool)
        goes_left[left_rows] = True
        mask = goes_left[sorted_cols]
        n_left = pos + 1
        left_sorted = sorted_cols.T[mask.T].reshape(self.n_features, n_left).T
        right_sorted = sorted_cols.T[~mask.T].reshape(self.n_features, n - n_left).T

        self.feature[idx] = int(f)
        self.threshold[idx] = float(thr)
        left_idx = self._grow(left_sorted, depth + 1)
        right_idx = self._grow(right_sorted, depth + 1)
        self.left[idx] = left_idx
        self.right[idx] = right_idx
        self.cover[idx] = self.cover[left_idx] + self.cover[right_idx]
        return idx


def reference_train(dataset, hp):
    """Boosting loop over the full-scan builder: the oracle that the trainer
    must reproduce array for array."""
    from odfuse.fusion import FusionModel
    from odfuse.ingest import FEATURE_NAMES, TARGET_NAMES

    X = dataset.X_train
    sorted_cols = np.argsort(X, axis=0, kind="stable").astype(np.int64)
    model = FusionModel(hyperparams=hp, feature_names=FEATURE_NAMES)
    for t, name in enumerate(TARGET_NAMES):
        y = dataset.Y_train[:, t]
        base = float(y.mean())
        pred = np.full(y.shape[0], base, dtype=np.float64)
        trees = []
        for _ in range(hp.n_trees):
            builder = _ReferenceTreeBuilder(X, y - pred, hp)
            tree = builder.build(sorted_cols)
            for rows, val in builder.leaf_assignments:
                pred[rows] += hp.learning_rate * val
            trees.append(tree)
        model.targets[name] = target_model(base, trees)
    return model


def reference_write_csv_columns(path: str | Path, header, columns) -> None:
    """The row writer of code columns: each row's cell texts joined with
    commas, 8,192 rows at a time. The oracle for the byte-block writer
    ``odfuse.core.write_csv_columns``, with the same arguments."""
    cells = [None if texts is None else [csv_cell(text) if text else "" for text in texts] for texts, _ in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_cell, header)) + CSV_EOL)
        for start in range(0, len(columns[0][1]), 8192):
            texts = [map(str if table is None else table.__getitem__, codes[start:start + 8192].tolist())
                     for table, (_, codes) in zip(cells, columns)]
            fh.write(CSV_EOL.join(map(",".join, zip(*texts))) + CSV_EOL)


def _reference_int_field(raw: str, line: int, field: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise DataError(f"unparseable integer {raw!r} at line {line}, field {field!r}") from exc
    if value < 0:
        raise DataError(f"negative count at line {line}, field {field!r}")
    if value >= 2**63:
        raise DataError(f"count too large at line {line}, field {field!r}")
    return value


def _reference_check_header(row: list[str] | None, expected: list[str], path: Path) -> None:
    if row is None:
        raise DataError(f"{path}: empty file, expected header {','.join(expected)}")
    if row != expected:
        raise DataError(
            f"{path}: bad header {','.join(row)!r}, expected {','.join(expected)!r}"
        )


def _reference_repeat(keys: list, message) -> None:
    """Raise ``message(i)`` for the first row ``i`` whose key an earlier row has."""
    seen: set = set()
    for i, key in enumerate(keys):
        if key in seen:
            raise DataError(message(i))
        seen.add(key)


def _reference_spellings(p: Path, out: list[TollboothObservation]) -> None:
    """Raise the DataError of the first row whose count key an earlier row
    spells with another (station, direction), such as ``A,Inbound`` and
    ``A|Inbound,Undirected``."""
    first: dict = {}
    for o in out:
        name, direction = first.setdefault(o.join_key(), (o.node, o.direction))
        if (name, direction) != (o.node, o.direction):
            raise DataError(f"{p}: tollbooth series ({name!r}, {direction.value}) and "
                            f"({o.node!r}, {o.direction.value}) share count key {o.join_key()!r}")


def reference_read_tollbooth_csv(path: str | Path) -> list[TollboothObservation]:
    """The per-row tollbooth reader: one set of observation objects per row.
    The oracle for the column reader ``odfuse.ingest.read_tollbooth_csv``.
    Counts are read by ``int()``, so they are whole, and one of 2**63 or
    more is too large; once every row is read, a count key spelt two ways, then a second row of one count key and
    hour, is a DataError naming the file."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"tollbooth file not found: {p}")
    out: list[TollboothObservation] = []
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _reference_check_header(header, TOLLBOOTH_HEADER, p)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(TOLLBOOTH_HEADER):
                raise DataError(f"{p}: line {line} has {len(row)} fields, expected {len(TOLLBOOTH_HEADER)}")
            try:
                hour = make_hour_key(row[0])
            except DataError as exc:
                raise DataError(f"{p}: line {line}, field 'timestamp': {exc}") from exc
            name = row[1]
            if not name:
                raise DataError(f"{p}: line {line}: empty station name")
            try:
                direction = Direction.parse(row[2])
            except DataError as exc:
                raise DataError(f"{p}: line {line}: {exc}") from exc
            counts = {
                cat: float(_reference_int_field(row[3 + i], line, TOLLBOOTH_HEADER[3 + i]))
                for i, cat in enumerate(CATEGORY_ORDER)
            }
            total = _reference_int_field(row[9], line, "total")
            out.append(
                TollboothObservation(
                    node=name,
                    direction=direction,
                    hour=hour,
                    counts=CountsByCategory.with_reported_total(counts, float(total)),
                )
            )
    _reference_spellings(p, out)
    _reference_repeat([(o.join_key(), o.hour.timestamp) for o in out],
                      lambda i: f"{p}: duplicate tollbooth series {out[i].join_key()!r} at {out[i].hour.isoformat()}")
    return out


def reference_read_routing_csv(path: str | Path, sentinel: str = CENSOR_SENTINEL) -> list[RoutingReportObservation]:
    """The per-row routing reader: the oracle for ``odfuse.ingest.read_routing_csv``.
    Flows are read by ``int()``, so they are whole, and one of 2**63 or more
    is too large; once every row is read, a second row of one node name and hour is a DataError naming the file."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"routing file not found: {p}")
    out: list[RoutingReportObservation] = []
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _reference_check_header(header, ROUTING_HEADER, p)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(ROUTING_HEADER):
                raise DataError(f"{p}: line {line} has {len(row)} fields, expected {len(ROUTING_HEADER)}")
            try:
                hour = make_hour_key(row[0])
            except DataError as exc:
                raise DataError(f"{p}: line {line}, field 'timestamp': {exc}") from exc
            name = row[1]
            if not name:
                raise DataError(f"{p}: line {line}: empty node name")
            censored = row[2] == sentinel
            flow = 0 if censored else _reference_int_field(row[2], line, "people_flow")
            try:
                tag = RoadTag.parse(row[3])
            except DataError as exc:
                raise DataError(f"{p}: line {line}: {exc}") from exc
            out.append(
                RoutingReportObservation(
                    node=name,
                    hour=hour,
                    people_flow=float(flow),
                    road_tag=tag,
                    censored=censored,
                )
            )
    _reference_repeat([(o.node, o.hour.timestamp) for o in out],
                      lambda i: f"{p}: duplicate routing row for node {out[i].node!r} at {out[i].hour.isoformat()}")
    return out


def reference_join_rows(tollbooth, routing) -> list[tuple]:
    """(tollbooth, routing) observation pairs joined one row at a time on
    (node key, hour), censored routing rows dropped, sorted stably by
    (timestamp, node key): the oracle for the column join in ``odfuse.ingest``."""
    index: dict = {}
    for obs in routing:
        key = (obs.node, obs.hour.timestamp)
        if key in index:
            raise DataError(f"duplicate routing row for node {obs.node!r} at {obs.hour.isoformat()}")
        index[key] = obs
    pairs = []
    for tb in tollbooth:
        rt = index.get((tb.join_key(), tb.hour.timestamp))
        if rt is not None and not rt.censored:
            pairs.append((tb, rt))
    pairs.sort(key=lambda pair: (pair[0].hour.timestamp, pair[0].join_key()))
    return pairs


def reference_features(obs: RoutingReportObservation) -> list[float]:
    """One routing report's model features, written out from its timestamp:
    flow, hour of day, day of week (Monday 0), weekend flag, then the road
    tag one-hot in TAG_ORDER order."""
    ts = obs.hour.timestamp
    return [obs.people_flow, ts.hour, ts.weekday(), float(ts.weekday() >= 5)] + [
        float(obs.road_tag is tag) for tag in TAG_ORDER
    ]


def reference_dataset(tollbooth, routing, valid_fraction: float) -> tuple:
    """(X, Y, node keys, hours, split index) built one joined pair at a time;
    the hours are the pairs' timestamps as datetime64[h]."""
    pairs = reference_join_rows(tollbooth, routing)
    timestamps = sorted({tb.hour.timestamp for tb, _ in pairs})
    cutoff = timestamps[len(timestamps) - max(1, round(valid_fraction * len(timestamps)))]
    X = np.array([reference_features(rt) for _, rt in pairs])
    Y = np.array([[tb.counts.total] + [tb.counts.counts[c] for c in CATEGORY_ORDER] for tb, _ in pairs])
    split_index = sum(1 for tb, _ in pairs if tb.hour.timestamp < cutoff)
    hours = np.array([tb.hour.timestamp for tb, _ in pairs], dtype="datetime64[h]")
    return X, Y, [tb.join_key() for tb, _ in pairs], hours, split_index


def reference_difference_series(tollbooth, routing) -> dict:
    sums: dict = {}
    for tb, rt in reference_join_rows(tollbooth, routing):
        sums.setdefault((tb.join_key(), tb.hour.hour_of_day), []).append(tb.counts.total - rt.people_flow)
    return {cell: sum(vals) / len(vals) for cell, vals in sorted(sums.items())}


def reference_generate_synthetic(network: NetworkConfig, days: int, profile) -> tuple[TollboothTable, RoutingTable]:
    """Synthetic tables drawn with one array Poisson draw of the six band
    rates per (series, hour), then a normal draw for the noise if the hour
    counted a vehicle: the oracle for the scalar draws of
    ``odfuse.ingest.generate_synthetic``, which must consume the same stream."""
    rng = np.random.default_rng(profile.seed)
    start = make_hour_key(_SYNTH_START).timestamp
    hours = tuple(make_hour_key(start + timedelta(hours=i)) for i in range(days * 24))
    shape = np.array([_diurnal_shape(hour.hour_of_day, hour.is_weekend) for hour in hours])
    series_ids, station_counts, nodes, tags, flows = [], [], [], [], []
    for node_index, node in enumerate(network.nodes):
        comp = _node_composition(node_index)
        gain = profile.gains[node.road_tag]
        series = [Direction(d) for d in node.directions] if node.directions else [Direction.UNDIRECTED]
        for series_index, direction in enumerate(series):
            rates = np.maximum((node.scale * (1.0 - 0.12 * series_index) * shape)[:, None] * comp, 0.0)
            counts = np.empty(rates.shape, dtype=np.int64)
            noise = np.zeros(len(hours))
            for i, rate in enumerate(rates):
                counts[i] = rng.poisson(rate)
                total = counts[i].sum()
                if total > 0:
                    noise[i] = rng.normal(0.0, profile.noise_scale * gain * total)
            if node.kind is not NodeKind.INFERRED_DESTINATION:
                series_ids.append((node.name, direction))
                station_counts.append(counts)
            nodes.append(series_key(node.name, direction))
            tags.append(TAG_ORDER.index(node.road_tag))
            flows.append(np.maximum(np.round(gain * counts.sum(axis=1) + noise), 0.0).astype(np.int64))
    n_hours = len(hours)
    counts = np.concatenate([np.zeros((0, len(CATEGORY_ORDER)), dtype=np.int64)] + station_counts)
    flow = np.concatenate([np.zeros(0, dtype=np.int64)] + flows)
    censored = flow < profile.censor_threshold
    tollbooth = TollboothTable(
        hours=hour_array(hours), series_ids=tuple(series_ids), hour=np.tile(np.arange(n_hours), len(series_ids)),
        series=np.repeat(np.arange(len(series_ids)), n_hours), counts=counts, total=counts.sum(axis=1),
    )
    routing = RoutingTable(
        hours=hour_array(hours), nodes=tuple(nodes), hour=np.tile(np.arange(n_hours), len(nodes)),
        node=np.repeat(np.arange(len(nodes)), n_hours), flow=np.where(censored, 0, flow),
        tag=np.repeat(np.array(tags, dtype=np.int64), n_hours), censored=censored,
    )
    return tollbooth, routing
