"""Shared domain vocabulary and the program's file formats.

Time keys, nodes, vehicle categories, counts and the input tables are
immutable value types, safe to share between threads. Every CSV artifact is
written in one dialect, by ``write_csv`` from rows or by the byte-block writer
``write_csv_columns`` from code columns, with statistics formatted by
``stat_cell``. The block writer assembles fixed-width byte fields padded
with a byte that UTF-8 never holds, drops the padding and writes each block
of rows at once; its bytes are those of ``write_csv``. Every JSON document a
user supplies is read by ``read_json``.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, InternalError

__all__ = [
    "HourKey",
    "RoadTag",
    "VehicleCategory",
    "VehicleType",
    "NodeKind",
    "NodeId",
    "CountsByCategory",
    "Direction",
    "TollboothObservation",
    "RoutingReportObservation",
    "TollboothTable",
    "RoutingTable",
    "make_hour_key",
    "write_csv",
    "write_csv_columns",
    "stat_cell",
    "csv_cell",
    "read_json",
    "series_key",
    "station_of",
    "category_of_length",
    "map_vehicle_type",
    "CATEGORY_ORDER",
    "TAG_ORDER",
]


class RoadTag(Enum):
    """Road hierarchy tag attached to every mobility report."""

    PRIMARY = "Primary"
    TRUNK = "Trunk"
    SECONDARY = "Secondary"

    @classmethod
    def parse(cls, raw: str) -> "RoadTag":
        for tag in cls:
            if tag.value == raw:
                return tag
        allowed = ", ".join(t.value for t in cls)
        raise DataError(f"unknown road tag {raw!r}; allowed: {allowed}")


# Code table of routing tag columns, and the order of the tag one-hot features.
TAG_ORDER: tuple[RoadTag, ...] = tuple(RoadTag)


class VehicleCategory(Enum):
    """Vehicle length bands. Lower bound closed, upper bound open.

    The six bands partition (0, inf); the top band has no upper bound.
    """

    UNDER_5_6 = ("under_5_6", 0.0, 5.6)
    L5_6_TO_7_6 = ("5_6_to_7_6", 5.6, 7.6)
    L7_6_TO_12_5 = ("7_6_to_12_5", 7.6, 12.5)
    L12_5_TO_16_0 = ("12_5_to_16_0", 12.5, 16.0)
    L16_0_TO_24_0 = ("16_0_to_24_0", 16.0, 24.0)
    OVER_24_0 = ("over_24_0", 24.0, None)

    def __init__(self, key: str, lower_m: float, upper_m: float | None):
        self.key = key
        self.lower_m = lower_m
        self.upper_m = upper_m


CATEGORY_ORDER: tuple[VehicleCategory, ...] = tuple(VehicleCategory)


class VehicleType(Enum):
    """Simulation-facing vehicle types, one per length band."""

    PASSENGER_VEHICLE = "PassengerVehicle"
    LIGHT_COMMERCIAL = "LightCommercial"
    BUS_MEDIUM_TRUCK = "BusMediumTruck"
    HEAVY_RIGID_SHORT_ARTICULATED = "HeavyRigidShortArticulated"
    ARTICULATED_HGV = "ArticulatedHGV"
    EXTRA_LONG = "ExtraLong"
    # Aggregate marker for bypass traffic that is never disaggregated.
    ALL = "All"


_VEHICLE_TYPE_BY_CATEGORY = {
    VehicleCategory.UNDER_5_6: VehicleType.PASSENGER_VEHICLE,
    VehicleCategory.L5_6_TO_7_6: VehicleType.LIGHT_COMMERCIAL,
    VehicleCategory.L7_6_TO_12_5: VehicleType.BUS_MEDIUM_TRUCK,
    VehicleCategory.L12_5_TO_16_0: VehicleType.HEAVY_RIGID_SHORT_ARTICULATED,
    VehicleCategory.L16_0_TO_24_0: VehicleType.ARTICULATED_HGV,
    VehicleCategory.OVER_24_0: VehicleType.EXTRA_LONG,
}


def map_vehicle_type(category: VehicleCategory) -> VehicleType:
    """Map a length band to the vehicle type used in OD matrix entries."""
    return _VEHICLE_TYPE_BY_CATEGORY[category]


def category_of_length(length_m: float) -> VehicleCategory:
    """Return the length band containing ``length_m`` (metres).

    Boundaries belong to the upper band: 5.6 maps to the 5.6-7.6 band,
    24.0 to the open-ended top band.
    """
    if not length_m > 0:
        raise DataError(f"vehicle length must be positive, got {length_m!r}")
    for cat in CATEGORY_ORDER:
        if cat.upper_m is None or length_m < cat.upper_m:
            return cat
    raise AssertionError("unreachable: bands cover (0, inf)")


class NodeKind(Enum):
    MAIN_TOLLBOOTH = "main_tollbooth"
    COUNTY_TOLLBOOTH = "county_tollbooth"
    INFERRED_DESTINATION = "inferred_destination"


@dataclass(frozen=True)
class NodeId:
    """A named network node; names are unique within a network configuration."""

    name: str
    kind: NodeKind

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("node name cannot be empty")


class Direction(Enum):
    INBOUND = "Inbound"
    OUTBOUND = "Outbound"
    UNDIRECTED = "Undirected"

    @classmethod
    def parse(cls, raw: str) -> "Direction":
        for d in cls:
            if d.value == raw:
                return d
        allowed = ", ".join(d.value for d in cls)
        raise DataError(f"unknown direction {raw!r}; allowed: {allowed}")


def series_key(station: str, direction: Direction) -> str:
    """Count key of a station's series: the name, direction-qualified when split.

    Tollbooth series join the routing reports of the node named by their key.
    """
    if direction is Direction.UNDIRECTED:
        return station
    return f"{station}|{direction.value}"


def station_of(key: str) -> str:
    """The station name inside a count key made by ``series_key``."""
    return key.split("|", 1)[0]


@dataclass(frozen=True)
class HourKey:
    """A calendar hour with its derived temporal features.

    ``day_of_week`` uses 0 = Monday; weekends are Saturday and Sunday.
    """

    timestamp: datetime
    hour_of_day: int
    day_of_week: int
    is_weekend: bool

    def isoformat(self) -> str:
        """The hour as ``YYYY-MM-DDTHH:MM``, which ``make_hour_key`` reads back."""
        return self.timestamp.isoformat(timespec="minutes")


def make_hour_key(timestamp: datetime | str) -> HourKey:
    """Build an HourKey from a datetime or ISO string at hour resolution.

    Rejects timestamps carrying sub-hour components: the pipeline works on
    hourly aggregates and silently truncating would hide data problems.
    """
    if isinstance(timestamp, str):
        try:
            ts = datetime.fromisoformat(timestamp)
        except ValueError as exc:
            raise DataError(f"unparseable timestamp {timestamp!r}: {exc}") from exc
    elif isinstance(timestamp, datetime):
        ts = timestamp
    else:
        raise DataError(f"timestamp must be datetime or ISO string, got {timestamp!r}")
    if ts.minute or ts.second or ts.microsecond:
        raise DataError(f"timestamp {ts.isoformat()} is not at hour resolution")
    if ts.tzinfo is not None:
        raise DataError(f"timestamp {ts.isoformat()} must be naive local time")
    dow = ts.weekday()
    return HourKey(
        timestamp=ts,
        hour_of_day=ts.hour,
        day_of_week=dow,
        is_weekend=dow >= 5,
    )


# Reported totals may disagree with the category sum by at most this
# fraction before the record is flagged.
TOTAL_MISMATCH_TOLERANCE = 0.01


@dataclass(frozen=True)
class CountsByCategory:
    """Hourly vehicle counts per length band plus a total.

    The total may be reported independently of the categories (ground-truth
    feeds do this); ``total_mismatch`` marks records where it disagrees with
    the category sum by more than 1% of the total.
    """

    counts: dict[VehicleCategory, float]
    total: float
    total_mismatch: bool = field(default=False, compare=False)

    @classmethod
    def with_reported_total(
        cls, counts: dict[VehicleCategory, float], total: float
    ) -> "CountsByCategory":
        full = {cat: float(counts.get(cat, 0.0)) for cat in CATEGORY_ORDER}
        for cat, v in full.items():
            if v < 0:
                raise DataError(f"negative count {v!r} for category {cat.key}")
        if total < 0:
            raise DataError(f"negative total {total!r}")
        mismatch = abs(total - sum(full.values())) > TOTAL_MISMATCH_TOLERANCE * total
        return cls(counts=full, total=float(total), total_mismatch=mismatch)


@dataclass(frozen=True)
class TollboothObservation:
    """One hourly ground-truth record at a tollbooth station."""

    node: NodeId
    direction: Direction
    hour: HourKey
    counts: CountsByCategory

    def join_key(self) -> str:
        """Node key used to match routing reports.

        Direction-qualified series are distinct nodes for joining purposes.
        """
        return series_key(self.node.name, self.direction)


@dataclass(frozen=True)
class RoutingReportObservation:
    """One hourly aggregated mobility record at a network location.

    ``censored`` marks values suppressed below the privacy threshold;
    the reported flow is then zero.
    """

    node: NodeId
    hour: HourKey
    people_flow: float
    road_tag: RoadTag
    censored: bool = False

    def __post_init__(self) -> None:
        if self.people_flow < 0:
            raise DataError(f"people_flow must be non-negative, got {self.people_flow}")
        if self.censored and self.people_flow != 0:
            raise DataError("censored rows must carry people_flow = 0")


def _ranks(keys: Sequence) -> np.ndarray:
    """Position of each key in the sorted table."""
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def _first_repeat(codes: np.ndarray) -> int | None:
    """Index of the first element equal to an earlier one, or None."""
    order = np.argsort(codes, kind="stable")
    repeats = order[1:][codes[order[1:]] == codes[order[:-1]]]
    return int(repeats.min()) if len(repeats) else None


def _reject(bad: np.ndarray, rule: str) -> None:
    """A DataError naming the first row where ``bad`` is set, if any is."""
    if bad.any():
        raise DataError(f"row {int(np.argmax(bad))}: {rule}")


def _codes(keys: list, values: list) -> tuple[tuple, np.ndarray]:
    """Codes of ``keys`` in order of first appearance, and the first value
    seen for each code."""
    codes: dict = {}
    column = np.array([codes.setdefault(key, len(codes)) for key in keys], dtype=np.int64)
    first = np.unique(column, return_index=True)[1]
    return tuple(values[i] for i in first.tolist()), column


class _Rows(Sequence):
    """Read-only sequence over a column table with ``hours`` and ``hour``;
    items are built on demand."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.hour)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(len(self))[index]]
        return self._item(range(len(self))[index])

    def hour_field(self, name: str) -> np.ndarray:
        """One ``HourKey`` field per row, such as ``"hour_of_day"``, as integers."""
        return np.array([int(getattr(h, name)) for h in self.hours], dtype=np.int64)[self.hour]


@dataclass(frozen=True, eq=False)
class TollboothTable(_Rows):
    """Tollbooth observations as columns, one row per observation in input order.

    ``hour`` indexes ``hours``, the distinct hours by timestamp in order of
    first appearance; ``series`` indexes ``series_ids``, the distinct
    (station, direction) series. ``counts`` holds the six length-band
    counts in CATEGORY_ORDER and ``total`` the reported total. Indexing and
    iteration build ``TollboothObservation`` objects.
    """

    hours: tuple[HourKey, ...]
    series_ids: tuple[tuple[NodeId, Direction], ...]
    hour: np.ndarray
    series: np.ndarray
    counts: np.ndarray
    total: np.ndarray

    @classmethod
    def from_rows(cls, hours: list[HourKey], series: list[tuple[NodeId, Direction]], values) -> "TollboothTable":
        """A table from each row's hour and series and its six counts followed
        by the total; a negative or non-finite value is a DataError."""
        values = np.array(values, dtype=np.float64).reshape(len(hours), len(CATEGORY_ORDER) + 1)
        _reject(~((values >= 0) & (values < np.inf)).all(axis=1), "counts and total must be finite and non-negative")
        hour_table, hour = _codes([h.timestamp for h in hours], hours)
        series_ids, series_codes = _codes(series, series)
        return cls(hours=hour_table, series_ids=series_ids, hour=hour, series=series_codes,
                   counts=values[:, :-1], total=values[:, -1])

    def series_keys(self) -> list[str]:
        """The count key of each series, as ``TollboothObservation.join_key``."""
        return [series_key(node.name, direction) for node, direction in self.series_ids]

    def _item(self, i: int) -> TollboothObservation:
        node, direction = self.series_ids[self.series[i]]
        counts = dict(zip(CATEGORY_ORDER, self.counts[i].tolist()))
        return TollboothObservation(node=node, direction=direction, hour=self.hours[self.hour[i]],
                                    counts=CountsByCategory.with_reported_total(counts, float(self.total[i])))


@dataclass(frozen=True, eq=False)
class RoutingTable(_Rows):
    """Mobility reports as columns, one row per report in input order.

    ``hour`` indexes ``hours``, the distinct hours by timestamp in order of
    first appearance; ``node`` indexes ``nodes``; ``tag`` indexes
    TAG_ORDER. ``flow`` is the people flow, zero where ``censored``.
    Indexing and iteration build ``RoutingReportObservation`` objects.
    """

    hours: tuple[HourKey, ...]
    nodes: tuple[NodeId, ...]
    hour: np.ndarray
    node: np.ndarray
    flow: np.ndarray
    tag: np.ndarray
    censored: np.ndarray

    @classmethod
    def from_rows(cls, hours: list[HourKey], nodes: list[NodeId], flow: list, tags: list[RoadTag],
                  censored: list[bool]) -> "RoutingTable":
        """A table from each row's hour, node, flow, road tag and censor flag;
        a negative or non-finite flow, or a censored row with a non-zero
        flow, is a DataError."""
        flow, censored = np.array(flow, dtype=np.float64), np.array(censored, dtype=bool)
        _reject(~((flow >= 0) & (flow < np.inf)), "people_flow must be finite and non-negative")
        _reject(censored & (flow != 0), "censored rows must carry people_flow = 0")
        hour_table, hour = _codes([h.timestamp for h in hours], hours)
        node_table, node = _codes(nodes, nodes)
        tag_codes = {tag: code for code, tag in enumerate(TAG_ORDER)}
        return cls(hours=hour_table, nodes=node_table, hour=hour, node=node, flow=flow,
                   tag=np.array([tag_codes[t] for t in tags], dtype=np.int64), censored=censored)

    def _item(self, i: int) -> RoutingReportObservation:
        return RoutingReportObservation(node=self.nodes[self.node[i]], hour=self.hours[self.hour[i]],
                                        people_flow=float(self.flow[i]), road_tag=TAG_ORDER[self.tag[i]],
                                        censored=bool(self.censored[i]))


CSV_EOL = "\r\n"  # the line end of every artifact row: csv.writer's default


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write an artifact: UTF-8 text, ``csv.writer``'s quoting and CSV_EOL line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=CSV_EOL)
        writer.writerow(header)
        writer.writerows(rows)


def stat_cell(value: float | None) -> str:
    """A statistic as an artifact cell: Python's shortest float repr, or NA when undefined."""
    return "NA" if value is None else repr(float(value))


# The byte that pads the fields of write_csv_columns: UTF-8 never holds it.
_PAD = 0xFF
# write_csv_columns assembles blocks of at most about this many bytes of
# fields, so a long text makes a block fewer rows rather than more bytes.
_BLOCK_BYTES = 2**18


def write_csv_columns(path: str | Path, header: Sequence[str],
                      columns: Sequence[tuple[Sequence[str] | None, np.ndarray]],
                      rows: np.ndarray | Iterable[np.ndarray]) -> None:
    """Write the given ``rows`` of a table of two or more columns, in that
    order, byte for byte as ``write_csv`` writes the same cells. ``rows`` is
    one array of row indices or an iterable of them, written one after
    another. Each column is ``(texts, codes)``: a row's cell is
    ``texts[code]``, quoted once per text and empty for an empty text, or the
    integer ``code`` itself where ``texts`` is None.

    Each cell is a fixed-width byte field that ends in its delimiter and is
    padded with _PAD: a text column's field is as wide as the longest text
    its codes use, an integer column's holds a sign byte and the digits of
    its largest magnitude. A block of rows is one record array of these
    fields, at most about _BLOCK_BYTES; the padding is dropped and the rest
    written at once. Every text is encoded before the file is opened, so a
    text the dialect cannot write raises before the file exists."""
    if len(columns) < 2:
        raise InternalError(f"write_csv_columns needs two or more columns, got {len(columns)}")
    fields = []  # per column: its table of text fields, or None for integers; its codes; its delimiter
    for i, (texts, codes) in enumerate(columns):
        end = (CSV_EOL if i == len(columns) - 1 else ",").encode()
        fields.append((None if texts is None else _text_fields(texts, codes, end), codes, end))
    record = np.dtype([(f"f{i}", f"V{_integer_width(codes) + len(end)}" if table is None else table.dtype)
                       for i, (table, codes, end) in enumerate(fields)])
    block_rows = max(1, _BLOCK_BYTES // record.itemsize)
    with open(path, "wb") as fh:
        fh.write((",".join(map(csv_cell, header)) + CSV_EOL).encode())
        for block in [rows] if isinstance(rows, np.ndarray) else rows:
            for start in range(0, len(block), block_rows):
                index = block[start:start + block_rows]
                buf = np.empty(len(index), record)
                for name, (table, codes, end) in zip(record.names, fields):
                    buf[name] = table[codes[index]] if table is not None else \
                        _integer_fields(codes[index], record[name].itemsize, end)
                buf = buf.view(np.uint8)
                fh.write(buf[buf != _PAD])


def _text_fields(texts: Sequence[str], codes: np.ndarray, end: bytes) -> np.ndarray:
    """One field per text, as wide as the widest cell that ``codes`` uses:
    the text's UTF-8 cell, ``end`` and padding; the texts that ``codes``
    leaves out are all padding, though every text is encoded."""
    cells = [(csv_cell(text) if text else "").encode() for text in texts]
    used = np.zeros(len(cells), dtype=bool)
    for part in np.array_split(codes, len(codes) * 8 // _BLOCK_BYTES + 1):  # indexing widens a part to intp
        used[part] = True
    used = used.tolist()
    width = max((len(cell) for cell, u in zip(cells, used) if u), default=0) + len(end)
    return np.frombuffer(b"".join((cell + end if u else b"").ljust(width, b"\xff") for cell, u in zip(cells, used)),
                         dtype=f"V{width}")


def _integer_width(values: np.ndarray) -> int:
    """A sign byte and the digits of the largest magnitude among ``values``."""
    magnitude = max(abs(int(values.min())), abs(int(values.max()))) if len(values) else 0
    return 1 + len(str(magnitude))


def _integer_fields(values: np.ndarray, width: int, end: bytes) -> np.ndarray:
    """One field of ``width`` bytes per integer: a sign byte, the decimal
    digits right-aligned with padding on their left, and ``end``."""
    negative = values < 0
    magnitude = values.astype(np.uint64)  # a negative value wraps; its magnitude is 0 minus that
    magnitude = np.where(negative, np.uint64(0) - magnitude, magnitude)
    fields = np.empty((len(values), width), np.uint8)
    fields[:, 0] = np.where(negative, ord("-"), _PAD)
    units = width - len(end) - 1
    fields[:, units + 1:] = np.frombuffer(end, np.uint8)
    for column in range(units, 0, -1):
        digit = magnitude % 10 + ord("0")
        # Leading zeros are padding; the units digit is written even for 0.
        fields[:, column] = digit if column == units else np.where(magnitude == 0, _PAD, digit)
        magnitude //= 10
    return fields.view(f"V{width}")[:, 0]


# The characters for which the artifact dialect quotes a value: the
# delimiter, the quote and the line end's CR and LF. Python 3.10's writer
# refuses NUL, so NUL takes the writer too.
_WRITER_CHARS = frozenset(',"\r\n\0')


def csv_cell(value: str) -> str:
    """A non-empty ``value`` as ``write_csv`` writes it inside a row."""
    if value and _WRITER_CHARS.isdisjoint(value):
        return value
    buf = io.StringIO()
    # The line end takes part in the quoting: a value holding CR or LF is quoted.
    csv.writer(buf, lineterminator=CSV_EOL).writerow([value])
    return buf.getvalue()[: -len(CSV_EOL)]


def read_json(path: str | Path, what: str, error: type[Exception]):
    """The JSON document at ``path``. A missing, unreadable or malformed file
    raises ``error`` with a message naming ``what`` and the path."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{what} not found: {p}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {p}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep to decode
        raise error(f"invalid JSON in {what} {p}: {exc}") from exc
