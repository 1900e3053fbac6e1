"""Shared domain vocabulary and the program's file formats.

Time keys, vehicle categories, counts and the input tables are immutable
value types, safe to share between threads. A node is its name: the input
tables and their observations hold names, and only the network's own nodes
carry a ``NodeKind``. Every CSV artifact is written in one dialect, by
``write_csv`` from rows or by the byte-block writer ``write_csv_columns``
from code columns, with statistics formatted by ``stat_cell``. The block
writer takes a whole table, already in the file's row order: it assembles
fixed-width byte fields padded with a byte that UTF-8 never holds, drops
the padding and writes each block of consecutive rows at once; its bytes
are those of ``write_csv``. Every JSON document a user supplies is read by
``read_json``. An input table checks its shape, its code tables and its
rows when it is built: a code table holds each hour, count key or node name
once, so a code stands for one of them, and neither the table's consumers
nor its observations merge codes or check rows again. A table holds its
hours as one datetime64[h] array, whose derived fields come from array
arithmetic; only its row views carry ``HourKey`` objects, one per hour,
built on first use and shared.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, InternalError

__all__ = [
    "HourKey",
    "RoadTag",
    "VehicleCategory",
    "VehicleType",
    "NodeKind",
    "CountsByCategory",
    "Direction",
    "TollboothObservation",
    "RoutingReportObservation",
    "TollboothTable",
    "RoutingTable",
    "make_hour_key",
    "hour_array",
    "hour_text",
    "hours_field",
    "write_csv",
    "write_csv_columns",
    "stat_cell",
    "csv_cell",
    "read_json",
    "series_key",
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


# The hours of a table: one datetime64[h] entry each, in the years 1 to 9999 that HourKey holds.
HOUR_DTYPE = np.dtype("datetime64[h]")
_FIRST_HOUR, _LAST_HOUR = np.datetime64("0001-01-01T00", "h"), np.datetime64("9999-12-31T23", "h")


def hour_array(keys: Iterable[HourKey]) -> np.ndarray:
    """The timestamps of ``keys`` as a datetime64[h] array."""
    return np.array([key.timestamp for key in keys], dtype=HOUR_DTYPE)


def hour_text(hours: np.datetime64 | np.ndarray) -> str | list[str]:
    """An hour as ``YYYY-MM-DDTHH:MM``, as ``HourKey.isoformat`` gives it, or
    the list of these texts of an array of hours, formatted in one call."""
    return np.datetime_as_string(hours, unit="m").tolist()


# HourKey's derived fields of hours counted from 1970-01-01T00, a Thursday;
# numpy's floor division and modulo hold before 1970 too.
_HOUR_FIELDS = {
    "hour_of_day": lambda ticks: ticks % 24,
    "day_of_week": lambda ticks: (ticks // 24 + 3) % 7,
    "is_weekend": lambda ticks: (ticks // 24 + 3) % 7 >= 5,
}


def hours_field(hours: np.ndarray, name: str) -> np.ndarray:
    """One ``HourKey`` field per hour, such as ``"hour_of_day"``, as integers."""
    return _HOUR_FIELDS[name](hours.astype(np.int64)).astype(np.int64)


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
        mismatch = abs(total - sum(full.values())) > TOTAL_MISMATCH_TOLERANCE * total
        return cls(counts=full, total=float(total), total_mismatch=mismatch)


@dataclass(frozen=True)
class TollboothObservation:
    """One hourly ground-truth record at a tollbooth station."""

    node: str
    direction: Direction
    hour: HourKey
    counts: CountsByCategory

    def join_key(self) -> str:
        """Node key used to match routing reports.

        Direction-qualified series are distinct nodes for joining purposes.
        """
        return series_key(self.node, self.direction)


@dataclass(frozen=True)
class RoutingReportObservation:
    """One hourly aggregated mobility record at a network location.

    ``censored`` marks values suppressed below the privacy threshold;
    the reported flow is then zero.
    """

    node: str
    hour: HourKey
    people_flow: float
    road_tag: RoadTag
    censored: bool = False


def _ranks(keys: Sequence) -> np.ndarray:
    """Position of each key in the sorted table."""
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def _reject_repeat(codes: np.ndarray, message) -> None:
    """A DataError ``message(i)`` for the first row ``i`` whose code an earlier row has, if any has."""
    order = np.argsort(codes, kind="stable")
    repeats = order[1:][codes[order[1:]] == codes[order[:-1]]]
    if len(repeats):
        raise DataError(message(int(repeats.min())))


def _reject_twice(entries: Sequence, message) -> None:
    """A DataError ``message(j, i)`` for the first entry ``i`` of a code table
    equal to an earlier entry ``j``, if any is."""
    first: dict = {}
    for i, entry in enumerate(entries):
        if first.setdefault(entry, i) != i:
            raise DataError(message(first[entry], i))


def _reject(bad: np.ndarray, rule: str) -> None:
    """A DataError naming the first row where ``bad`` is set in any column, if any is."""
    if bad.any():
        raise DataError(f"row {int(np.argmax(bad)) // (bad.size // len(bad))}: {rule}")


def _whole_numbers(values, shape: tuple[int, ...], what: str, whole: str) -> np.ndarray:
    """``values`` as an int64 array of ``shape``; a DataError names the first
    row of a value that is not finite and non-negative, not ``whole``, or
    2**63 or more. The values are checked as the Python numbers they are."""
    exact = np.array(values, dtype=object).reshape(shape)
    with np.errstate(invalid="ignore"):  # NaN compares unordered
        _reject(~((exact >= 0) & (exact < np.inf)), f"{what} must be finite and non-negative")
    _reject(exact % 1 != 0, f"{what} must be {whole}")
    _reject(exact >= 2**63, f"{what} must be below 2**63")
    return exact.astype(np.int64)


def _codes(values: list) -> tuple[tuple, np.ndarray]:
    """The distinct ``values`` in order of first appearance, and each value's code into them."""
    codes: dict = {}
    column = np.array([codes.setdefault(v, len(codes)) for v in values], dtype=np.int64)
    return tuple(codes), column


# How _check_columns names what a column of each dtype it requires holds.
_HOLDS = {np.integer: "integer codes", np.int64: "int64 counts", np.bool_: "booleans"}


class _Rows(Sequence):
    """Read-only sequence over a column table with ``hours``, a datetime64[h]
    array that holds each hour once, and ``hour``, each row's index into it;
    items are built on demand, and share one ``HourKey`` per hour. ``_names``
    gives the names that ``rows_at`` looks up and each row's code into them."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        hours = self.hours
        if not isinstance(hours, np.ndarray) or hours.dtype != HOUR_DTYPE or hours.ndim != 1:
            got = f"{hours.dtype} array of shape {hours.shape}" if isinstance(hours, np.ndarray) else \
                type(hours).__name__
            raise DataError(f"hours must be a 1-D datetime64[h] array, got {got}")
        outside = ~((hours >= _FIRST_HOUR) & (hours <= _LAST_HOUR))  # NaT too
        if outside.any():
            raise DataError(f"hour {hour_text(hours[np.argmax(outside)])} of the table's hours is not in the years "
                            "1 to 9999")
        _reject_repeat(hours.view(np.int64),
                       lambda i: f"hour {hour_text(hours[i])} is listed twice in the table's hours")

    @cached_property
    def hour_keys(self) -> tuple[HourKey, ...]:
        """One ``HourKey`` per entry of ``hours``, built on first use."""
        return tuple(map(make_hour_key, self.hours.tolist()))

    def _check_columns(self, columns: dict[str, tuple[tuple[int, ...], type]], tables: dict[str, int]) -> None:
        """A DataError unless ``hour`` is a 1-D integer array, each column in
        ``columns``, given as ``(width, dtype)``, an array of shape
        ``(len(hour), *width)`` and of ``dtype`` or a subtype of it, and
        ``hour`` and each code column in ``tables`` index ``hours`` or a table
        of the given length."""
        got = lambda column: f"got {type(column).__name__} of shape {np.shape(column)}"  # noqa: E731
        if not isinstance(self.hour, np.ndarray) or self.hour.ndim != 1:
            raise DataError(f"column 'hour' must be a 1-D numpy array, {got(self.hour)}")
        for name, (width, dtype) in {"hour": ((), np.integer), **columns}.items():
            column, shape = getattr(self, name), (len(self.hour), *width)
            if not isinstance(column, np.ndarray) or column.shape != shape:
                raise DataError(f"column {name!r} must be a numpy array of shape {shape}, {got(column)}")
            if not np.issubdtype(column.dtype, dtype):
                raise DataError(f"column {name!r} must hold {_HOLDS[dtype]}, got {column.dtype}")
        for name, size in {"hour": len(self.hours), **tables}.items():
            codes = getattr(self, name)
            _reject((codes < 0) | (codes >= size), f"{name} code is outside its table of {size}")

    def __len__(self) -> int:
        return len(self.hour)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(len(self))[index]]
        return self._item(range(len(self))[index])

    def rows_at(self, names: Sequence[str], hours: np.ndarray) -> np.ndarray:
        """The row of each (name, hour) pair, an int64 array of shape
        ``(len(names), len(hours))``, -1 where the table has none; ``hours``
        is a datetime64[h] array. A name is a count key of a tollbooth table
        and a node name of a routing table."""
        table, code = self._names
        # The extra last row and column stand for the names and hours the
        # table lacks, which code -1 picks, and hold no row.
        grid = np.full((len(table) + 1, len(self.hours) + 1), -1, dtype=np.int64)
        grid[code, self.hour] = np.arange(len(self))
        name_codes = {name: i for i, name in enumerate(table)}
        name = np.array([name_codes.get(n, -1) for n in names], dtype=np.int64)
        # Each hour's code where the table has that hour: a search past the
        # last hour picks the appended -1, and NaT equals no hour.
        order = np.argsort(self.hours)
        hour = np.append(order, -1)[np.searchsorted(self.hours, hours, sorter=order)]
        hour[np.append(self.hours, np.datetime64("NaT"))[hour] != hours] = -1
        return grid[name[:, None], hour]

    def hour_field(self, name: str) -> np.ndarray:
        """One ``HourKey`` field per row, such as ``"hour_of_day"``, as integers."""
        return hours_field(self.hours, name)[self.hour]


@dataclass(frozen=True, eq=False)
class TollboothTable(_Rows):
    """Tollbooth observations as columns, one row per observation in input order.

    ``hour`` indexes ``hours``, datetime64[h] in order of first appearance;
    ``series`` indexes ``series_ids``, the (station, direction)
    series, one per count key, so a series code is a count-key code.
    ``counts`` holds the six length-band counts in CATEGORY_ORDER and
    ``total`` the reported total, both int64. Indexing and iteration build
    ``TollboothObservation`` objects, which carry the counts as floats. A
    table holds one row per ``hour`` entry in every column, codes inside
    their tables, non-negative counts and totals, named stations and one row
    per (series, hour); a DataError names the repeated entry or the first
    row that breaks this.
    """

    hours: np.ndarray
    series_ids: tuple[tuple[str, Direction], ...]
    hour: np.ndarray
    series: np.ndarray
    counts: np.ndarray
    total: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_columns({"series": ((), np.integer), "counts": ((len(CATEGORY_ORDER),), np.int64),
                             "total": ((), np.int64)}, {"series": len(self.series_ids)})
        keys = self.count_keys()
        spelt = lambda s: f"({self.series_ids[s][0]!r}, {self.series_ids[s][1].value})"  # noqa: E731
        _reject_twice(keys, lambda j, i: f"tollbooth series {spelt(j)} and {spelt(i)} share count key {keys[i]!r}")
        _reject(np.column_stack((self.counts, self.total)) < 0, "counts and total must be finite and non-negative")
        _reject(np.array([not name for name, _ in self.series_ids], dtype=bool)[self.series],
                "station name cannot be empty")
        _reject_repeat(self.hour * len(keys) + self.series, lambda i: f"duplicate tollbooth series "
                       f"{keys[self.series[i]]!r} at {hour_text(self.hours[self.hour[i]])}")

    @classmethod
    def from_rows(cls, hours: list[HourKey], series: list[tuple[str, Direction]], values) -> "TollboothTable":
        """A table from each row's hour, (station name, direction) series and
        six counts followed by the total, whole numbers below 2**63 of any
        numeric type; a DataError names the first row of another value."""
        values = _whole_numbers(values, (len(hours), len(CATEGORY_ORDER) + 1), "counts and total", "whole numbers")
        hour_table, hour = _codes(hours)
        series_ids, series_codes = _codes(series)
        return cls(hours=hour_array(hour_table), series_ids=series_ids, hour=hour, series=series_codes,
                   counts=values[:, :-1], total=values[:, -1])

    def count_keys(self) -> list[str]:
        """Each series' count key, indexed by ``series``: ``series_key``'s, so
        ("A|Inbound", UNDIRECTED) and ("A", INBOUND) would share one."""
        return [series_key(name, direction) for name, direction in self.series_ids]

    _names = property(lambda self: (self.count_keys(), self.series))

    def _item(self, i: int) -> TollboothObservation:
        name, direction = self.series_ids[self.series[i]]
        counts = dict(zip(CATEGORY_ORDER, self.counts[i].tolist()))
        return TollboothObservation(node=name, direction=direction, hour=self.hour_keys[self.hour[i]],
                                    counts=CountsByCategory.with_reported_total(counts, float(self.total[i])))


@dataclass(frozen=True, eq=False)
class RoutingTable(_Rows):
    """Mobility reports as columns, one row per report in input order.

    ``hour`` indexes ``hours``, datetime64[h] in order of first appearance;
    ``node`` indexes ``nodes``, one name each; ``tag`` indexes
    TAG_ORDER. ``flow`` is the int64 people flow, zero where ``censored``.
    Indexing and iteration build ``RoutingReportObservation`` objects, which
    carry the flow as a float. A table holds one row per ``hour`` entry in
    every column, codes inside their tables, non-negative flows, named nodes
    and one row per (node, hour); a DataError names the repeated entry or the
    first row that breaks this.
    """

    hours: np.ndarray
    nodes: tuple[str, ...]
    hour: np.ndarray
    node: np.ndarray
    flow: np.ndarray
    tag: np.ndarray
    censored: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_columns({"node": ((), np.integer), "flow": ((), np.int64), "tag": ((), np.integer),
                             "censored": ((), np.bool_)}, {"node": len(self.nodes), "tag": len(TAG_ORDER)})
        _reject_twice(self.nodes, lambda _, i: f"node name {self.nodes[i]!r} is listed twice in the table's nodes")
        _reject(self.flow < 0, "people_flow must be finite and non-negative")
        _reject(self.censored & (self.flow != 0), "censored rows must carry people_flow = 0")
        _reject(np.array([not name for name in self.nodes], dtype=bool)[self.node], "node name cannot be empty")
        _reject_repeat(self.node * len(self.hours) + self.hour, lambda i: "duplicate routing row for node "
                       f"{self.nodes[self.node[i]]!r} at {hour_text(self.hours[self.hour[i]])}")

    @classmethod
    def from_rows(cls, hours: list[HourKey], nodes: list[str], flow: list, tags: list[RoadTag],
                  censored: list[bool]) -> "RoutingTable":
        """A table from each row's hour, node name, flow, road tag and censor
        flag; a flow is a whole number below 2**63 of any numeric type, and a
        DataError names the first row of another value."""
        flow, censored = _whole_numbers(flow, (-1,), "people_flow", "a whole number"), np.array(censored, dtype=bool)
        hour_table, hour = _codes(hours)
        node_table, node = _codes(nodes)
        tag_codes = {tag: code for code, tag in enumerate(TAG_ORDER)}
        return cls(hours=hour_array(hour_table), nodes=node_table, hour=hour, node=node, flow=flow,
                   tag=np.array([tag_codes[t] for t in tags], dtype=np.int64), censored=censored)

    _names = property(lambda self: (self.nodes, self.node))

    def _item(self, i: int) -> RoutingReportObservation:
        return RoutingReportObservation(node=self.nodes[self.node[i]], hour=self.hour_keys[self.hour[i]],
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
                      columns: Sequence[tuple[Sequence[str] | None, np.ndarray]]) -> None:
    """Write a table of two or more columns, row by row in table order, byte
    for byte as ``write_csv`` writes the same cells. Each column is
    ``(texts, codes)``, one code per row: a row's cell is ``texts[code]``,
    quoted once per text and empty for an empty text, or the integer
    ``code`` itself where ``texts`` is None.

    Each cell is a fixed-width byte field that ends in its delimiter and is
    padded with _PAD: a text column's field is as wide as the longest text
    its codes use, an integer column's holds a sign byte and the digits of
    its largest magnitude. A block of consecutive rows is one record array
    of these fields, at most about _BLOCK_BYTES; the padding is dropped and
    the rest written at once. The columns are checked and every text is
    encoded before the file is opened, so a text the dialect cannot write
    raises before the file exists."""
    if len(columns) < 2:
        raise InternalError(f"write_csv_columns needs two or more columns, got {len(columns)}")
    n_rows = len(columns[0][1])
    if any(len(codes) != n_rows for _, codes in columns):
        raise InternalError(f"write_csv_columns needs columns of one length, got {[len(c) for _, c in columns]}")
    fields = []  # per column: its table of text fields, or None for integers; its codes; its delimiter
    for i, (texts, codes) in enumerate(columns):
        end = (CSV_EOL if i == len(columns) - 1 else ",").encode()
        fields.append((None if texts is None else _text_fields(texts, codes, end), codes, end))
    record = np.dtype([(f"f{i}", f"V{_integer_width(codes) + len(end)}" if table is None else table.dtype)
                       for i, (table, codes, end) in enumerate(fields)])
    block_rows = max(1, _BLOCK_BYTES // record.itemsize)
    with open(path, "wb") as fh:
        fh.write((",".join(map(csv_cell, header)) + CSV_EOL).encode())
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            buf = np.empty(stop - start, record)
            for name, (table, codes, end) in zip(record.names, fields):
                buf[name] = table[codes[start:stop]] if table is not None else \
                    _integer_fields(codes[start:stop], record[name].itemsize, end)
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
