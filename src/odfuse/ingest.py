"""Data ingest: CSV parsing, feature building, dataset assembly, synthesis.

File formats (UTF-8, ISO-8601 hour timestamps):

* tollbooth CSV header:
  ``timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total``
* routing CSV header: ``timestamp,node,people_flow,road_tag`` where
  ``people_flow`` is a non-negative integer or the censor sentinel
  (default ``<T``).
* difference table: ``node,hour_of_day,mean_diff``.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np

from .core import (
    CATEGORY_ORDER,
    TAG_ORDER,
    Direction,
    HourKey,
    NodeId,
    NodeKind,
    RoadTag,
    RoutingReportObservation,
    RoutingTable,
    TollboothObservation,
    TollboothTable,
    _first_repeat,
    _ranks,
    make_hour_key,
    series_key,
    station_of,
)
from .errors import ConfigError, DataError
from .network import NetworkConfig

__all__ = [
    "FEATURE_NAMES",
    "TARGET_NAMES",
    "CENSOR_SENTINEL",
    "FeatureVector",
    "FusionDataset",
    "BiasProfile",
    "feature_vector",
    "feature_matrix",
    "read_tollbooth_csv",
    "read_routing_csv",
    "write_tollbooth_csv",
    "write_routing_csv",
    "build_dataset",
    "generate_synthetic",
    "difference_series",
    "write_difference_csv",
]

TOLLBOOTH_HEADER = [
    "timestamp",
    "station",
    "direction",
    "c_under5_6",
    "c_5_6_7_6",
    "c_7_6_12_5",
    "c_12_5_16_0",
    "c_16_0_24_0",
    "c_over24_0",
    "total",
]
ROUTING_HEADER = ["timestamp", "node", "people_flow", "road_tag"]

CENSOR_SENTINEL = "<T"

FEATURE_NAMES = (
    "people_flow",
    "hour_of_day",
    "day_of_week",
    "is_weekend",
    "tag_primary",
    "tag_trunk",
    "tag_secondary",
)

# Model targets: the aggregate volume plus the six length bands.
TARGET_NAMES = ("total",) + tuple(cat.key for cat in CATEGORY_ORDER)

# Row t is the one-hot of TAG_ORDER[t]: tag_primary, tag_trunk, tag_secondary.
_TAG_ONEHOT = np.eye(len(TAG_ORDER))


def _features(flow, hour_of_day, day_of_week, is_weekend, tag) -> np.ndarray:
    """Feature rows in FEATURE_NAMES order from per-row columns; ``tag``
    holds TAG_ORDER codes."""
    X = np.empty((len(flow), len(FEATURE_NAMES)), dtype=np.float64)
    X[:, 0] = flow
    X[:, 1] = hour_of_day
    X[:, 2] = day_of_week
    X[:, 3] = is_weekend
    X[:, 4:] = _TAG_ONEHOT[tag]
    return X


@dataclass(frozen=True)
class FeatureVector:
    """Model input features for one (node, hour) routing report."""

    people_flow: float
    hour_of_day: int
    day_of_week: int
    is_weekend: int
    road_tag: RoadTag

    def to_array(self) -> np.ndarray:
        return _features([self.people_flow], [self.hour_of_day], [self.day_of_week], [self.is_weekend],
                         [TAG_ORDER.index(self.road_tag)])[0]


def feature_vector(obs: RoutingReportObservation) -> FeatureVector:
    return FeatureVector(
        people_flow=float(obs.people_flow),
        hour_of_day=obs.hour.hour_of_day,
        day_of_week=obs.hour.day_of_week,
        is_weekend=int(obs.hour.is_weekend),
        road_tag=obs.road_tag,
    )


def feature_matrix(routing: RoutingTable, rows: np.ndarray) -> np.ndarray:
    """Model features of the given routing rows, as ``feature_vector`` builds them."""
    hour_fields = (routing.hour_field(name)[rows] for name in ("hour_of_day", "day_of_week", "is_weekend"))
    return _features(routing.flow[rows], *hour_fields, routing.tag[rows])


@dataclass
class FusionDataset:
    """Joined, model-ready rows with a chronological train/valid split.

    Rows are sorted by (timestamp, node key); ``split_index`` is the first
    validation row. Feature columns follow FEATURE_NAMES, target columns
    TARGET_NAMES.
    """

    X: np.ndarray
    Y: np.ndarray
    node_keys: list[str]
    hours: list[HourKey]
    split_index: int

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def X_train(self) -> np.ndarray:
        return self.X[: self.split_index]

    @property
    def X_valid(self) -> np.ndarray:
        return self.X[self.split_index :]

    @property
    def Y_train(self) -> np.ndarray:
        return self.Y[: self.split_index]

    @property
    def Y_valid(self) -> np.ndarray:
        return self.Y[self.split_index :]


# Counts become float64, so larger integers are data errors, not overflows.
_LARGEST_COUNT = int(np.finfo(np.float64).max)


def _parse_int_field(raw: str, line: int, field: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise DataError(f"unparseable integer {raw!r} at line {line}, field {field!r}") from exc
    if value < 0:
        raise DataError(f"negative count at line {line}, field {field!r}")
    if value > _LARGEST_COUNT:
        raise DataError(f"count too large at line {line}, field {field!r}")
    return value


def _check_header(row: list[str] | None, expected: list[str], path: Path) -> None:
    if row is None:
        raise DataError(f"{path}: empty file, expected header {','.join(expected)}")
    if row != expected:
        raise DataError(
            f"{path}: bad header {','.join(row)!r}, expected {','.join(expected)!r}"
        )


def _csv_rows(p: Path, header: list[str], label: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after ``header`` with their line numbers; every
    read failure becomes a DataError naming the file."""
    if not p.exists():
        raise DataError(f"{label} file not found: {p}")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _check_header(next(reader, None), header, p)
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{p}: line {line} has {len(row)} fields, expected {len(header)}")
                yield line, row
    except UnicodeDecodeError as exc:
        raise DataError(f"{p}: not UTF-8 text: {exc}") from exc
    except (csv.Error, OSError) as exc:
        raise DataError(f"{p}: unreadable CSV: {exc}") from exc


def _hour(p: Path, cache: dict[str, HourKey], text: str, line: int) -> HourKey:
    """Parse a timestamp text into ``cache``; each distinct text is parsed once."""
    try:
        hour = cache[text] = make_hour_key(text)
    except DataError as exc:
        raise DataError(f"{p}: line {line}, field 'timestamp': {exc}") from exc
    return hour


def _node_kind(network: NetworkConfig | None, name: str, default: NodeKind) -> NodeKind:
    if network is not None:
        try:
            return network.node_named(name).node.kind
        except ConfigError:
            pass
    return default


def read_tollbooth_csv(path: str | Path, network: NetworkConfig | None = None) -> TollboothTable:
    """Parse an hourly ground-truth counts file.

    Node kinds resolve from ``network`` when given, otherwise default to
    main tollbooths. Rows whose reported total disagrees with the category
    sum by more than 1% come back with ``counts.total_mismatch`` set.
    """
    p = Path(path)
    hours: dict[str, HourKey] = {}
    series: dict[tuple[str, str], tuple[NodeId, Direction]] = {}
    row_hours, row_series, values = [], [], []
    fields = TOLLBOOTH_HEADER[3:]
    for line, row in _csv_rows(p, TOLLBOOTH_HEADER, "tollbooth"):
        row_hours.append(hours.get(row[0]) or _hour(p, hours, row[0], line))
        found = series.get((row[1], row[2]))
        if found is None:
            if not row[1]:
                raise DataError(f"{p}: line {line}: empty station name")
            kind = _node_kind(network, row[1], NodeKind.MAIN_TOLLBOOTH)
            found = series[row[1], row[2]] = (NodeId(name=row[1], kind=kind), Direction.parse(row[2]))
        row_series.append(found)
        values.append([_parse_int_field(raw, line, field) for raw, field in zip(row[3:], fields)])
    return TollboothTable.from_rows(row_hours, row_series, values)


def read_routing_csv(
    path: str | Path,
    network: NetworkConfig | None = None,
    sentinel: str = CENSOR_SENTINEL,
) -> RoutingTable:
    """Parse an aggregated mobility file; sentinel flow values mark censoring."""
    p = Path(path)
    hours: dict[str, HourKey] = {}
    nodes: dict[str, NodeId] = {}
    tags: dict[str, RoadTag] = {}
    row_hours, row_nodes, flows, row_tags, censored = [], [], [], [], []
    for line, row in _csv_rows(p, ROUTING_HEADER, "routing"):
        row_hours.append(hours.get(row[0]) or _hour(p, hours, row[0], line))
        node = nodes.get(row[1])
        if node is None:
            if not row[1]:
                raise DataError(f"{p}: line {line}: empty node name")
            kind = _node_kind(network, station_of(row[1]), NodeKind.INFERRED_DESTINATION)
            node = nodes[row[1]] = NodeId(name=row[1], kind=kind)
        row_nodes.append(node)
        censored.append(row[2] == sentinel)
        flows.append(0 if censored[-1] else _parse_int_field(row[2], line, "people_flow"))
        tag = tags.get(row[3])
        if tag is None:
            try:
                tag = tags[row[3]] = RoadTag.parse(row[3])
            except DataError as exc:
                raise DataError(f"{p}: line {line}: {exc}") from exc
        row_tags.append(tag)
    return RoutingTable.from_rows(row_hours, row_nodes, flows, row_tags, censored)


def write_tollbooth_csv(path: str | Path, observations: TollboothTable | list[TollboothObservation]) -> None:
    table = TollboothTable.of(observations)
    hours = [h.isoformat() for h in table.hours]
    series = [(node.name, direction.value) for node, direction in table.series_ids]
    counts = np.column_stack((table.counts, table.total)).astype(np.int64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOLLBOOTH_HEADER)
        writer.writerows(
            [hours[h], *series[s], *c] for h, s, c in zip(table.hour.tolist(), table.series.tolist(), counts.tolist())
        )


def write_routing_csv(
    path: str | Path,
    observations: RoutingTable | list[RoutingReportObservation],
    sentinel: str = CENSOR_SENTINEL,
) -> None:
    table = RoutingTable.of(observations)
    hours = [h.isoformat() for h in table.hours]
    names = [node.name for node in table.nodes]
    tags = [t.value for t in TAG_ORDER]
    columns = (table.hour, table.node, table.flow.astype(np.int64), table.censored, table.tag)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUTING_HEADER)
        writer.writerows(
            [hours[h], names[n], sentinel if c else str(f), tags[t]]
            for h, n, f, c, t in zip(*(col.tolist() for col in columns))
        )


def _join(tollbooth: TollboothTable, routing: RoutingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Inner join on (node key, hour), censored routing rows dropped.

    Returns the matched tollbooth and routing rows, sorted stably by
    (timestamp, node key); each pair's node key as a code; and the sorted
    node keys those codes index.
    """
    names: dict[str, int] = {}
    rt_name = np.array([names.setdefault(n.name, len(names)) for n in routing.nodes], dtype=np.int64)[routing.node]
    repeat = _first_repeat(rt_name * len(routing.hours) + routing.hour)
    if repeat is not None:
        raise DataError(
            f"duplicate routing row for node {routing.nodes[routing.node[repeat]].name!r} "
            f"at {routing.hours[routing.hour[repeat]].isoformat()}"
        )
    # Routing row of each (node name, hour); the extra last row and column
    # stand for the keys and hours that routing lacks, and hold no row.
    row_of = np.full((len(names) + 1, len(routing.hours) + 1), -1, dtype=np.int64)
    row_of[rt_name, routing.hour] = np.arange(len(routing))
    series_keys = tollbooth.series_keys()
    hour_codes = {h.timestamp: i for i, h in enumerate(routing.hours)}
    series_name = np.array([names.get(k, len(names)) for k in series_keys], dtype=np.int64)
    hour_code = np.array([hour_codes.get(h.timestamp, len(hour_codes)) for h in tollbooth.hours], dtype=np.int64)
    match = row_of[series_name[tollbooth.series], hour_code[tollbooth.hour]]
    tb_rows = np.nonzero(match >= 0)[0]
    tb_rows = tb_rows[~routing.censored[match[tb_rows]]]
    keys = sorted(set(series_keys))
    key_codes = {k: i for i, k in enumerate(keys)}
    key = np.array([key_codes[k] for k in series_keys], dtype=np.int64)[tollbooth.series[tb_rows]]
    time = _ranks([h.timestamp for h in tollbooth.hours])[tollbooth.hour[tb_rows]]
    order = np.lexsort((key, time))
    return tb_rows[order], match[tb_rows[order]], key[order], keys


def build_dataset(
    tollbooth: TollboothTable | list[TollboothObservation],
    routing: RoutingTable | list[RoutingReportObservation],
    valid_fraction: float = 0.2,
) -> FusionDataset:
    """Join the two sources and split chronologically.

    Censored routing rows never enter the dataset: a suppressed flow is not
    a usable supervised example and would distort validation metrics the
    same way it would distort training. The final ``valid_fraction`` of the
    distinct timestamps forms the validation partition.
    """
    if not 0 < valid_fraction < 1:
        raise ConfigError(f"valid_fraction must be in (0, 1), got {valid_fraction}")
    tollbooth, routing = TollboothTable.of(tollbooth), RoutingTable.of(routing)
    tb_rows, rt_rows, key, keys = _join(tollbooth, routing)
    if not len(tb_rows):
        raise DataError("no overlapping (node, hour) pairs between tollbooth and routing data")
    hour = tollbooth.hour[tb_rows]
    time = _ranks([h.timestamp for h in tollbooth.hours])[hour]
    timestamps = np.unique(time)
    n_valid_ts = max(1, round(valid_fraction * len(timestamps)))
    n_train_ts = len(timestamps) - n_valid_ts
    if n_train_ts < 1:
        raise DataError(f"dataset spans too few hours ({len(timestamps)}) for the requested split")
    return FusionDataset(
        X=feature_matrix(routing, rt_rows),
        Y=np.column_stack((tollbooth.total[tb_rows], tollbooth.counts[tb_rows])),
        node_keys=[keys[k] for k in key.tolist()],
        hours=[tollbooth.hours[h] for h in hour.tolist()],
        split_index=int(np.searchsorted(time, timestamps[n_train_ts])),
    )


@dataclass(frozen=True)
class BiasProfile:
    """Systematic distortion applied to synthetic mobility reports.

    ``gains`` scales the latent vehicle total per road tag (values above 1
    overrepresent that road class), ``noise_scale`` sets the additive noise
    sigma as a fraction of the scaled flow, and flows below
    ``censor_threshold`` are suppressed to zero.
    """

    gains: dict[RoadTag, float]
    noise_scale: float = 0.0
    censor_threshold: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for tag in RoadTag:
            gain = self.gains.get(tag)
            if gain is None:
                raise ConfigError(f"bias profile missing gain for {tag.value}")
            if not math.isfinite(gain) or gain <= 0:
                raise ConfigError(f"gain for {tag.value} must be finite and positive, got {gain}")
        if not math.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be finite and non-negative, got {self.noise_scale}")
        if not math.isfinite(self.censor_threshold) or self.censor_threshold < 0:
            raise ConfigError(f"censor_threshold must be finite and non-negative, got {self.censor_threshold}")

    @classmethod
    def identity(cls, seed: int = 0) -> "BiasProfile":
        return cls(gains={tag: 1.0 for tag in RoadTag}, seed=seed)


# Fixed per-node length-band compositions: mostly short vehicles, with the
# heavy-traffic mix varying a little from node to node.
_BASE_COMPOSITION = np.array([0.78, 0.075, 0.065, 0.03, 0.035, 0.015])

_SYNTH_START = "2023-11-06T00:00"  # a Monday


def _node_composition(index: int) -> np.ndarray:
    tilt = 1.0 + 0.25 * math.sin(1.7 * index)
    comp = _BASE_COMPOSITION.copy()
    comp[1:] *= tilt
    comp[0] = 1.0 - comp[1:].sum()
    return comp


def _diurnal_shape(hour: int, weekend: bool) -> float:
    if weekend:
        return 0.24 + 0.36 * math.exp(-(((hour - 13.5) / 3.8) ** 2))
    morning = 0.55 * math.exp(-(((hour - 8.0) / 2.1) ** 2))
    evening = 0.70 * math.exp(-(((hour - 16.5) / 2.7) ** 2))
    return 0.30 + morning + evening


def generate_synthetic(
    network: NetworkConfig,
    days: int,
    profile: BiasProfile,
) -> tuple[TollboothTable, RoutingTable]:
    """Generate paired synthetic datasets with a known bias structure.

    Stations produce tollbooth counts plus a routing report; inferred
    destinations produce routing reports only. Counts follow a smooth
    diurnal/weekly profile scaled per node; mobility flows are the biased,
    noisy, censored view of the same latent traffic. Deterministic given
    ``profile.seed``.
    """
    if days < 1:
        raise ConfigError(f"days must be >= 1, got {days}")
    rng = np.random.default_rng(profile.seed)
    start = make_hour_key(_SYNTH_START).timestamp
    hours = tuple(make_hour_key(start + timedelta(hours=i)) for i in range(days * 24))
    shape = np.array([_diurnal_shape(hour.hour_of_day, hour.is_weekend) for hour in hours])

    series_ids: list[tuple[NodeId, Direction]] = []
    station_counts: list[np.ndarray] = []
    nodes: list[NodeId] = []
    tags: list[int] = []
    flows: list[np.ndarray] = []
    for node_index, node in enumerate(network.nodes):
        comp = _node_composition(node_index)
        is_station = node.node.kind is not NodeKind.INFERRED_DESTINATION
        series: list[Direction] = (
            [Direction(d) for d in node.directions] if node.directions else [Direction.UNDIRECTED]
        )
        gain = profile.gains[node.road_tag]
        for series_index, direction in enumerate(series):
            # Directional series of one station get slightly different scales.
            scale = node.scale * (1.0 - 0.12 * series_index)
            rates = np.maximum((scale * shape)[:, None] * comp, 0.0)
            counts = np.empty_like(rates)
            noise = np.zeros(len(hours))
            # Per hour a Poisson draw, then a normal draw if it counted a vehicle: this
            # order keeps every seed's data unchanged.
            for i, rate in enumerate(rates):
                counts[i] = rng.poisson(rate)
                total = counts[i].sum()
                if total > 0:
                    noise[i] = rng.normal(0.0, profile.noise_scale * gain * total)
            flow = np.maximum(np.round(gain * counts.sum(axis=1) + noise), 0.0).astype(np.int64)
            if is_station:
                series_ids.append((node.node, direction))
                station_counts.append(counts)
            nodes.append(NodeId(name=series_key(node.node.name, direction), kind=node.node.kind))
            tags.append(TAG_ORDER.index(node.road_tag))
            flows.append(flow)

    n_hours = len(hours)
    counts = np.concatenate([np.zeros((0, len(CATEGORY_ORDER)))] + station_counts)
    flow = np.concatenate([np.zeros(0, dtype=np.int64)] + flows)
    censored = flow < profile.censor_threshold
    tollbooth = TollboothTable(
        hours=hours, series_ids=tuple(series_ids), hour=np.tile(np.arange(n_hours), len(series_ids)),
        series=np.repeat(np.arange(len(series_ids)), n_hours), counts=counts, total=counts.sum(axis=1),
    )
    routing = RoutingTable(
        hours=hours, nodes=tuple(nodes), hour=np.tile(np.arange(n_hours), len(nodes)),
        node=np.repeat(np.arange(len(nodes)), n_hours), flow=np.where(censored, 0.0, flow),
        tag=np.repeat(np.array(tags, dtype=np.int64), n_hours), censored=censored,
    )
    return tollbooth, routing


def difference_series(
    tollbooth: TollboothTable | list[TollboothObservation],
    routing: RoutingTable | list[RoutingReportObservation],
) -> dict[tuple[str, int], float]:
    """Mean (tollbooth total - people_flow) per node and hour of day.

    Positive cells mean the ground truth exceeds the mobility estimate.
    Joined like build_dataset, so censored rows are excluded; cells with no
    joined rows are simply absent.
    """
    tollbooth, routing = TollboothTable.of(tollbooth), RoutingTable.of(routing)
    tb_rows, rt_rows, key, keys = _join(tollbooth, routing)
    # Cells in (node key, hour of day) order; bincount adds in pair order.
    cell = key * 24 + tollbooth.hour_field("hour_of_day")[tb_rows]
    diffs = tollbooth.total[tb_rows] - routing.flow[rt_rows]
    sums = np.bincount(cell, weights=diffs, minlength=24 * len(keys))
    sizes = np.bincount(cell, minlength=24 * len(keys))
    cells = np.nonzero(sizes)[0]
    means = (sums[cells] / sizes[cells]).tolist()
    return {(keys[c // 24], c % 24): mean for c, mean in zip(cells.tolist(), means)}


def write_difference_csv(path: str | Path, table: dict[tuple[str, int], float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "hour_of_day", "mean_diff"])
        for (node, hour), diff in table.items():
            writer.writerow([node, hour, repr(diff)])
