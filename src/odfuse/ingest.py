"""Data ingest: CSV parsing, feature building, dataset assembly, synthesis.

File formats (UTF-8, ISO-8601 hour timestamps):

* tollbooth CSV header:
  ``timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total``
* routing CSV header: ``timestamp,node,people_flow,road_tag`` where
  ``people_flow`` is a non-negative integer or the censor sentinel
  (default ``<T``).
* difference table: ``node,hour_of_day,mean_diff``.

Each reader first tries one vectorised byte scan of the whole file. It
reads canonical files, as ``synth`` writes them: the header byte for byte,
LF or CRLF line ends, no quote, NUL or lone CR, every record with all its
fields non-empty, and counts of 1 to 18 ASCII digits (or the sentinel). Any
other file goes to the per-row ``csv.reader`` path: quoted names such as
``"E6-Klett"``, counts that ``int()`` reads with a sign, space or underscore,
and every file with a bad value. That path alone raises a bad value's
error, naming the file and line. A table rule, such as one spelling per
count key (``A,Inbound`` and ``A|Inbound,Undirected`` are one series) or no
repeated (series, hour), makes the scan decline and the per-row reader raise
the table's message after the file's name. The scan reads a timestamp
column of canonical ``YYYY-MM-DDTHH:00`` texts as one vector: one integer
key per row, the distinct texts parsed by numpy and kept only where numpy
writes each back byte for byte. Any other timestamp column, and every
series, node or road-tag column, is parsed one distinct text at a time
through the same code tables as the per-row reader, so both paths give
equal tables and messages. A table holds its hours as datetime64[h], and
the writers format them in one call. Counts, totals and flows are int64
from file to table to file: the scan sums its digits in int64, the
per-row reader reads a count with ``int()`` and rejects one of 2**63 or
more as a bad value, and the writers write the integers as they are. A
reader needs only the file: the tables name their stations and nodes, and
a node's kind is the network's alone.

Synthetic data keeps a fixed draw order, so that a seed keeps its data:
series in network order, hour by hour, six scalar Poisson draws in band
order, then one normal draw only if the hour counted a vehicle.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .core import (
    CATEGORY_ORDER,
    TAG_ORDER,
    HOUR_DTYPE,
    Direction,
    NodeKind,
    RoadTag,
    RoutingTable,
    TollboothTable,
    _ranks,
    hour_array,
    hour_text,
    hours_field,
    make_hour_key,
    series_key,
    stat_cell,
    write_csv,
    write_csv_columns,
)
from .errors import ConfigError, DataError, is_number
from .network import NetworkConfig

__all__ = [
    "FEATURE_NAMES",
    "TARGET_NAMES",
    "CENSOR_SENTINEL",
    "FusionDataset",
    "BiasProfile",
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


def feature_matrix(routing: RoutingTable, rows: np.ndarray) -> np.ndarray:
    """Model features of the given routing rows, one row each in FEATURE_NAMES order."""
    hour_fields = (routing.hour_field(name)[rows] for name in ("hour_of_day", "day_of_week", "is_weekend"))
    return _features(routing.flow[rows], *hour_fields, routing.tag[rows])


@dataclass
class FusionDataset:
    """Joined, model-ready rows with a chronological train/valid split.

    Rows are sorted by (timestamp, node key); ``split_index`` is the first
    validation row. Feature columns follow FEATURE_NAMES, target columns
    TARGET_NAMES; ``hours`` holds each row's hour as datetime64[h].
    """

    X: np.ndarray
    Y: np.ndarray
    node_keys: list[str]
    hours: np.ndarray
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


# Counts are int64, so larger integers are data errors, not overflows.
_LARGEST_COUNT = 2**63 - 1


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


def _counts(raw: list[str], line: int, fields: list[str]) -> list[int]:
    """The counts in ``raw``; the first bad one raises ``_parse_int_field``'s DataError."""
    try:
        values = list(map(int, raw))
        if min(values) >= 0 and max(values) <= _LARGEST_COUNT:
            return values
    except ValueError:
        pass
    return [_parse_int_field(text, line, field) for text, field in zip(raw, fields)]


def _check_header(row: list[str] | None, expected: list[str], path: Path) -> None:
    if row is None:
        raise DataError(f"{path}: empty file, expected header {','.join(expected)}")
    if row != expected:
        raise DataError(
            f"{path}: bad header {','.join(row)!r}, expected {','.join(expected)!r}"
        )


def _csv_rows(p: Path, header: list[str], label: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after ``header``, each with the number of the file
    line it ends on; every read failure becomes a DataError naming the file."""
    if not p.exists():
        raise DataError(f"{label} file not found: {p}")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _check_header(next(reader, None), header, p)
            for row in reader:
                if not row:
                    continue
                line = reader.line_num  # a quoted field may span lines
                if len(row) != len(header):
                    raise DataError(f"{p}: line {line} has {len(row)} fields, expected {len(header)}")
                yield line, row
    except UnicodeDecodeError as exc:
        raise DataError(f"{p}: not UTF-8 text: {exc}") from exc
    except (csv.Error, OSError) as exc:
        raise DataError(f"{p}: unreadable CSV: {exc}") from exc


class _Codes(dict):
    """The int code of each distinct text of one column. Texts that parse to
    one value get its code; ``parsed`` maps each value to its code, in order
    of first appearance. The per-row readers try ``get`` first, and a
    miss or code 0 falls through to ``code``; the byte scan calls ``code``
    once per distinct text."""

    def __init__(self, path: Path, parse, where: str = "") -> None:
        super().__init__()
        self.path, self.parse, self.where, self.parsed = path, parse, where, {}

    def code(self, text, line: int) -> int:
        """The code of ``text``, parsed once; a parse failure names the file and line."""
        if text not in self:
            try:
                value = self.parse(text)
            except DataError as exc:
                raise DataError(f"{self.path}: line {line}{self.where}: {exc}") from exc
            self[text] = self.parsed.setdefault(value, len(self.parsed))
        return self[text]


def _node(name: str, what: str) -> str:
    """``name``, which must not be empty."""
    if not name:
        raise DataError(f"empty {what} name")
    return name


class _Irregular(Exception):
    """A file the byte scan leaves to the per-row reader."""


_DIGITS = 18  # the most ASCII digits a scanned count has: every such count fits int64
_SLACK = 256  # buffer bytes after a scanned file, enough for the windows of fields up to this wide


def _scan(p: Path, header: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of a canonical CSV file, with room after them for a window
    of its widest field, and the edges of each record's fields: field ``j``
    of every record spans ``edges[j] + 1`` to ``edges[j + 1]``.

    Canonical means: ``header`` byte for byte as the first line; LF or CRLF
    line ends, the last optional; no quote, NUL or other CR; and every record
    ``len(header)`` non-empty fields. Anything else raises ``_Irregular``.
    """
    with open(p, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # Room for a final line end and the window of a field starting near
        # the end; windows mask the unset bytes, which are never read as text.
        buf = np.empty(size + 1 + _SLACK, dtype=np.uint8)
        if fh.readinto(buf[:size + 1]) != size:
            raise _Irregular  # the file changed size while read
    head = np.frombuffer(",".join(header).encode(), dtype=np.uint8)
    if size < len(head) or (buf[:len(head)] != head).any() or buf[size - 1] == ord("\r"):
        raise _Irregular
    if buf[size - 1] != ord("\n"):
        buf[size] = ord("\n")  # the last record's line end
        size += 1
    text = buf[:size]
    if (text == ord('"')).any() or (text == 0).any():
        raise _Irregular
    # Every line is len(header) - 1 commas, then a line feed.
    lf = np.flatnonzero(text == ord("\n"))
    commas = np.flatnonzero(text == ord(","))
    if len(commas) != len(lf) * (len(header) - 1):
        raise _Irregular
    commas = commas.reshape(len(lf), len(header) - 1)
    if (commas[1:, 0] < lf[:-1]).any() or (commas[:, -1] > lf).any():
        raise _Irregular
    edges = np.empty((len(header) + 1, len(lf)), dtype=np.int64)
    edges[0, 0] = -1
    edges[0, 1:] = lf[:-1]
    edges[1:-1] = commas.T
    crlf = text[lf - 1] == ord("\r")  # each line feed is past the header, so lf - 1 is in the file
    edges[-1] = lf - crlf
    if np.count_nonzero(text == ord("\r")) != np.count_nonzero(crlf) or edges[-1, 0] != len(head):
        raise _Irregular  # a CR outside a CRLF, or more after the header on its line
    edges = edges[:, 1:]
    widest = 0
    for j in range(len(header)):
        length = edges[j + 1] - edges[j] - 1
        if length.min(initial=1) == 0:
            raise _Irregular
        widest = max(widest, int(length.max(initial=0)))
    if widest > csv.field_size_limit():  # a field the per-row reader refuses
        raise _Irregular
    if widest > _SLACK:
        buf = np.concatenate((buf, np.empty(widest - _SLACK, dtype=np.uint8)))
    return buf, edges


def _gather(data: np.ndarray, offsets: np.ndarray, width: int, stride: int = 1) -> np.ndarray:
    """The ``width`` bytes at ``offset * stride`` of 1-D uint8 ``data`` for
    each offset: a uint8 block of shape ``offsets.shape + (width,)``, taken as
    one item per offset."""
    items = np.ndarray(((len(data) - width) // stride + 1,), dtype=f"S{width}", buffer=data, strides=(stride,))
    return items[offsets.reshape(-1)].view(np.uint8).reshape(*offsets.shape, width)


def _prefixes(width: int) -> np.ndarray:
    """Row ``n`` keeps the first ``n`` of ``width`` bytes: ones there, zeros after."""
    return (np.arange(width) < np.arange(width + 1)[:, None]).astype(np.uint8).reshape(-1)


def _texts(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct texts of one column in order of first appearance, the file
    line each first appears on, and each record's index into them."""
    length = end - start
    width = int(length.max(initial=1))
    if len(start) * width > len(buf):  # the blocks below stay no larger than the buffer
        raise _Irregular
    block = _gather(buf, start, width)
    block *= _gather(_prefixes(width), length, width, width)
    distinct, first, inverse = np.unique(block.view(f"S{width}").reshape(-1), return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    # Records are one line each after the header line.
    return [distinct[i].decode("utf-8") for i in order.tolist()], first[order] + 2, rank[inverse.reshape(-1)]


def _coded(codes: _Codes, keys: list, lines: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The code of each record's text: ``keys[index]`` through ``codes``."""
    return np.array([codes.code(key, line) for key, line in zip(keys, lines.tolist())], dtype=np.int64)[index]


def _digits(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field read as a decimal integer, and whether it is 1 to _DIGITS
    ASCII digits; the value is meaningless where it is not."""
    length = end - start
    width = min(int(length.max(initial=1)), _DIGITS)
    # Right-aligned windows, which start in the file: every field ends past
    # the header, which is wider. Bytes before the field become zero digits:
    # reversed, row ``width - n`` of the prefix table keeps the last n bytes.
    suffixes = _prefixes(width)[::-1].copy()
    block = (_gather(buf, end - width, width) - np.uint8(ord("0"))) * \
        _gather(suffixes, width - np.minimum(length, width), width, width)
    ok = length <= _DIGITS
    value = np.zeros(length.shape, dtype=np.int64)
    for digit in np.moveaxis(block, -1, 0):
        ok &= digit <= 9
        value = value * 10 + digit
    return value, ok


# A canonical timestamp: digits where the form has 'd', the form's own bytes elsewhere.
_HOUR_FORM = np.frombuffer(b"dddd-dd-ddTdd:00", dtype=np.uint8)
_HOUR_DIGIT = _HOUR_FORM == ord("d")


def _hour_codes(p: Path) -> _Codes:
    return _Codes(p, make_hour_key, ", field 'timestamp'")


def _canonical_hours(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct hours of a timestamp column in order of first
    appearance and each record's index into them, where every field is a
    ``YYYY-MM-DDTHH:00`` text of a real hour in the years 1 to 9999 that
    numpy writes back byte for byte; else None."""
    if ((end - start) != len(_HOUR_FORM)).any():
        return None
    block = _gather(buf, start, len(_HOUR_FORM))
    digits = block[:, _HOUR_DIGIT] - np.uint8(ord("0"))
    if (digits > 9).any() or (block[:, ~_HOUR_DIGIT] != _HOUR_FORM[~_HOUR_DIGIT]).any():
        return None
    # YYYYMMDDHH as one integer: equal keys are equal texts. Year 0 parses in numpy alone.
    key = digits.astype(np.int64) @ 10 ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)
    if (key < 10**6).any():
        return None
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    texts = block[first[order]].view(f"S{len(_HOUR_FORM)}").reshape(-1)
    try:
        hours = texts.astype(HOUR_DTYPE)
    except ValueError:  # a day or an hour out of range
        return None
    if (np.datetime_as_string(hours, unit="m").astype(texts.dtype) != texts).any():
        return None  # a text that numpy reads as another hour
    return hours, rank[inverse.reshape(-1)]


def _scan_hours(p: Path, buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct hours of a scanned timestamp column in order of first
    appearance, as datetime64[h], and each record's index into them. A
    canonical column is read as one vector, any other through ``_Codes``
    one distinct text at a time."""
    canonical = _canonical_hours(buf, start, end)
    if canonical is not None:
        return canonical
    hours = _hour_codes(p)
    hour = _coded(hours, *_texts(buf, start, end))
    return hour_array(hours.parsed), hour


def _series_codes(p: Path) -> _Codes:
    return _Codes(p, lambda key: (_node(key[0], "station"), Direction.parse(key[1])))


def _table(path: Path, table: type, **columns):
    """``table(**columns)``; a rule the table holds to raises its DataError
    with the file's name in front."""
    try:
        return table(**columns)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _tollbooth_table(hours: np.ndarray, series: _Codes, hour, row_series, values) -> TollboothTable:
    values = np.asarray(values, dtype=np.int64).reshape(len(hour), len(TOLLBOOTH_HEADER) - 3)
    return _table(series.path, TollboothTable, hours=hours, series_ids=tuple(series.parsed),
                  hour=np.asarray(hour, dtype=np.int64), series=np.asarray(row_series, dtype=np.int64),
                  counts=values[:, :-1], total=values[:, -1])


def _scan_tollbooth_csv(p: Path) -> TollboothTable | None:
    """The table of a canonical tollbooth file by one byte scan, or None
    where the file is not canonical or a text fails to parse."""
    try:
        buf, edges = _scan(p, TOLLBOOTH_HEADER)
        hours, hour = _scan_hours(p, buf, edges[0] + 1, edges[1])
        series = _series_codes(p)
        # Station and direction as one text: neither holds a comma.
        pairs, lines, index = _texts(buf, edges[1] + 1, edges[3])
        row_series = _coded(series, [tuple(pair.split(",")) for pair in pairs], lines, index)
        values, ok = _digits(buf, edges[3:-1] + 1, edges[4:])
        if not ok.all():
            raise _Irregular
        return _tollbooth_table(hours, series, hour, row_series, values.T)
    except (_Irregular, DataError, UnicodeDecodeError, OSError):
        return None


def read_tollbooth_csv(path: str | Path) -> TollboothTable:
    """Parse an hourly ground-truth counts file.

    Rows whose reported total disagrees with the category sum by more than
    1% come back with ``counts.total_mismatch`` set.
    """
    p = Path(path)
    table = _scan_tollbooth_csv(p)
    return _read_tollbooth_rows(p) if table is None else table


def _read_tollbooth_rows(p: Path) -> TollboothTable:
    """The table of any tollbooth file, read row by row; a bad row raises a
    DataError naming the file and line."""
    hours, series = _hour_codes(p), _series_codes(p)
    hour, row_series, values = [], [], []
    fields = TOLLBOOTH_HEADER[3:]
    for line, row in _csv_rows(p, TOLLBOOTH_HEADER, "tollbooth"):
        hour.append(hours.get(row[0]) or hours.code(row[0], line))
        row_series.append(series.get(key := (row[1], row[2])) or series.code(key, line))
        values.append(_counts(row[3:], line, fields))
    return _tollbooth_table(hour_array(hours.parsed), series, hour, row_series, values)


def _routing_codes(p: Path) -> tuple[_Codes, _Codes]:
    return _Codes(p, lambda name: _node(name, "node")), _Codes(p, RoadTag.parse)


def _routing_table(hours: np.ndarray, nodes: _Codes, tags: _Codes, hour, node, flow, tag) -> RoutingTable:
    """The table of the given columns; ``flow`` is -1 where censored."""
    flow = np.asarray(flow, dtype=np.int64)
    censored = flow < 0
    tag_codes = np.array([TAG_ORDER.index(t) for t in tags.parsed], dtype=np.int64)
    return _table(nodes.path, RoutingTable, hours=hours, nodes=tuple(nodes.parsed),
                  hour=np.asarray(hour, dtype=np.int64), node=np.asarray(node, dtype=np.int64),
                  flow=np.where(censored, 0, flow), censored=censored, tag=tag_codes[np.asarray(tag, dtype=np.int64)])


_SENTINEL = np.frombuffer(CENSOR_SENTINEL.encode(), dtype=np.uint8)


def _scan_routing_csv(p: Path) -> RoutingTable | None:
    """The table of a canonical routing file by one byte scan, or None where
    the file is not canonical or a text fails to parse."""
    try:
        buf, edges = _scan(p, ROUTING_HEADER)
        hours, hour = _scan_hours(p, buf, edges[0] + 1, edges[1])
        nodes, tags = _routing_codes(p)
        node = _coded(nodes, *_texts(buf, edges[1] + 1, edges[2]))
        tag = _coded(tags, *_texts(buf, edges[3] + 1, edges[4]))
        flow, ok = _digits(buf, edges[2] + 1, edges[3])
        censored = (edges[3] - edges[2] == len(_SENTINEL) + 1) & \
            (_gather(buf, edges[2] + 1, len(_SENTINEL)) == _SENTINEL).all(axis=1)
        if not (ok | censored).all():
            raise _Irregular
        return _routing_table(hours, nodes, tags, hour, node, np.where(censored, -1, flow), tag)
    except (_Irregular, DataError, UnicodeDecodeError, OSError):
        return None


def read_routing_csv(path: str | Path) -> RoutingTable:
    """Parse an aggregated mobility file; CENSOR_SENTINEL flow values mark censoring."""
    p = Path(path)
    table = _scan_routing_csv(p)
    return _read_routing_rows(p) if table is None else table


def _read_routing_rows(p: Path) -> RoutingTable:
    """The table of any routing file, read row by row; a bad row raises a
    DataError naming the file and line."""
    hours, (nodes, tags) = _hour_codes(p), _routing_codes(p)
    hour, node, flows, tag = [], [], [], []
    for line, row in _csv_rows(p, ROUTING_HEADER, "routing"):
        hour.append(hours.get(row[0]) or hours.code(row[0], line))
        node.append(nodes.get(row[1]) or nodes.code(row[1], line))
        flows.append(-1 if row[2] == CENSOR_SENTINEL else _parse_int_field(row[2], line, "people_flow"))
        tag.append(tags.get(row[3]) or tags.code(row[3], line))
    return _routing_table(hour_array(hours.parsed), nodes, tags, hour, node, flows, tag)


def write_tollbooth_csv(path: str | Path, table: TollboothTable) -> None:
    write_csv_columns(path, TOLLBOOTH_HEADER, [
        (hour_text(table.hours), table.hour),
        ([name for name, _ in table.series_ids], table.series),
        ([direction.value for _, direction in table.series_ids], table.series),
        *((None, column) for column in table.counts.T), (None, table.total),
    ])


def write_routing_csv(path: str | Path, table: RoutingTable) -> None:
    # Flow cells as codes into their distinct texts, the sentinel among them.
    flows, flow = np.unique(np.where(table.censored, -1, table.flow), return_inverse=True)
    write_csv_columns(path, ROUTING_HEADER, [
        (hour_text(table.hours), table.hour),
        (table.nodes, table.node),
        ([CENSOR_SENTINEL if f < 0 else str(f) for f in flows.tolist()], flow),
        ([t.value for t in TAG_ORDER], table.tag),
    ])


def _join(tollbooth: TollboothTable, routing: RoutingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Inner join on (node key, hour), censored routing rows dropped.

    Returns the matched tollbooth and routing rows, sorted stably by
    (timestamp, node key); each pair's node key as a code; and the sorted
    node keys those codes index.
    """
    series_keys = tollbooth.count_keys()
    keys, key = sorted(series_keys), _ranks(series_keys)[tollbooth.series]
    match = routing.rows_at(series_keys, tollbooth.hours)[tollbooth.series, tollbooth.hour]
    tb_rows = np.nonzero(match >= 0)[0]
    tb_rows = tb_rows[~routing.censored[match[tb_rows]]]
    order = np.lexsort((key[tb_rows], tollbooth.hours[tollbooth.hour[tb_rows]]))
    return tb_rows[order], match[tb_rows[order]], key[tb_rows[order]], keys


def build_dataset(
    tollbooth: TollboothTable,
    routing: RoutingTable,
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
    tb_rows, rt_rows, key, keys = _join(tollbooth, routing)
    if not len(tb_rows):
        raise DataError("no overlapping (node, hour) pairs between tollbooth and routing data")
    time = tollbooth.hours[tollbooth.hour[tb_rows]]
    timestamps = np.unique(time)
    n_valid_ts = max(1, round(valid_fraction * len(timestamps)))
    n_train_ts = len(timestamps) - n_valid_ts
    if n_train_ts < 1:
        raise DataError(f"dataset spans too few hours ({len(timestamps)}) for the requested split")
    return FusionDataset(
        X=feature_matrix(routing, rt_rows),
        Y=np.column_stack((tollbooth.total[tb_rows], tollbooth.counts[tb_rows])).astype(np.float64),
        node_keys=[keys[k] for k in key.tolist()],
        hours=time,
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
            if not is_number(gain) or gain <= 0:
                raise ConfigError(f"gain for {tag.value} must be finite and positive, got {gain!r}")
        for name in ("noise_scale", "censor_threshold"):
            value = getattr(self, name)
            if not is_number(value) or value < 0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")

    @classmethod
    def identity(cls, seed: int = 0) -> "BiasProfile":
        return cls(gains={tag: 1.0 for tag in RoadTag}, seed=seed)


# Fixed per-node length-band compositions: mostly short vehicles, with the
# heavy-traffic mix varying a little from node to node.
_BASE_COMPOSITION = np.array([0.78, 0.075, 0.065, 0.03, 0.035, 0.015])

_SYNTH_START = "2023-11-06T00:00"  # a Monday
# The most days whose hours a datetime holds: the last starts at 23:00 on datetime.max's day.
_MAX_DAYS = (datetime.max - datetime.fromisoformat(_SYNTH_START)).days + 1
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)  # numpy's largest rate


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
    if days > _MAX_DAYS:
        raise ConfigError(f"days must be at most {_MAX_DAYS}, so that every hour falls before the year 10000, "
                          f"got {days}")
    rng = np.random.default_rng(profile.seed)
    poisson, normal = rng.poisson, rng.normal
    hours = np.datetime64(_SYNTH_START, "h") + np.arange(days * 24)
    shape = np.array([_diurnal_shape(hour, weekend) for hour, weekend in
                      zip(hours_field(hours, "hour_of_day").tolist(), hours_field(hours, "is_weekend").tolist())])

    series_ids: list[tuple[str, Direction]] = []
    station_counts: list[np.ndarray] = []
    nodes: list[str] = []
    tags: list[int] = []
    flows: list[np.ndarray] = []
    for node_index, node in enumerate(network.nodes):
        comp = _node_composition(node_index)
        is_station = node.kind is not NodeKind.INFERRED_DESTINATION
        series: list[Direction] = (
            [Direction(d) for d in node.directions] if node.directions else [Direction.UNDIRECTED]
        )
        gain = profile.gains[node.road_tag]
        for series_index, direction in enumerate(series):
            # Directional series of one station get slightly different scales.
            scale = node.scale * (1.0 - 0.12 * series_index)
            # In Python floats a huge scale overflows to inf without a numpy warning.
            if scale * float(shape.max()) * float(comp.max()) > _POISSON_LAM_MAX:
                raise ConfigError(f"network.nodes.{node_index}.scale: bad value {node.scale!r}: "
                                  f"node {node.name!r} would draw beyond numpy's largest Poisson rate")
            rates = np.maximum((scale * shape)[:, None] * comp, 0.0)
            draws, noise = [], []
            # The draw order of the module docstring, which keeps every seed's data.
            for rate in rates.tolist():
                hour_counts = [poisson(band_rate) for band_rate in rate]
                total = sum(hour_counts)
                noise.append(normal(0.0, profile.noise_scale * gain * total) if total > 0 else 0.0)
                draws.append(hour_counts)
            counts = np.array(draws, dtype=np.int64)
            total = counts.sum(axis=1, dtype=np.float64)  # exact below 2**53, and it never wraps
            flow = np.maximum(np.round(gain * total + np.array(noise)), 0.0)
            if not ((flow < 2.0**63) & (total < 2.0**63)).all():  # NaN fails too
                raise ConfigError(f"node {node.name!r}: the gain for {node.road_tag.value}, noise_scale "
                                  "or the node's scale makes synthetic counts or flows overflow int64")
            if is_station:
                series_ids.append((node.name, direction))
                station_counts.append(counts)
            nodes.append(series_key(node.name, direction))
            tags.append(TAG_ORDER.index(node.road_tag))
            flows.append(flow.astype(np.int64))

    n_hours = len(hours)
    counts = np.concatenate([np.zeros((0, len(CATEGORY_ORDER)), dtype=np.int64)] + station_counts)
    flow = np.concatenate([np.zeros(0, dtype=np.int64)] + flows)
    censored = flow < profile.censor_threshold
    tollbooth = TollboothTable(
        hours=hours, series_ids=tuple(series_ids), hour=np.tile(np.arange(n_hours), len(series_ids)),
        series=np.repeat(np.arange(len(series_ids)), n_hours), counts=counts, total=counts.sum(axis=1),
    )
    routing = RoutingTable(
        hours=hours, nodes=tuple(nodes), hour=np.tile(np.arange(n_hours), len(nodes)),
        node=np.repeat(np.arange(len(nodes)), n_hours), flow=np.where(censored, 0, flow),
        tag=np.repeat(np.array(tags, dtype=np.int64), n_hours), censored=censored,
    )
    return tollbooth, routing


def difference_series(tollbooth: TollboothTable, routing: RoutingTable) -> dict[tuple[str, int], float]:
    """Mean (tollbooth total - people_flow) per node and hour of day.

    Positive cells mean the ground truth exceeds the mobility estimate.
    Joined like build_dataset, so censored rows are excluded; cells with no
    joined rows are simply absent.
    """
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
    write_csv(path, ["node", "hour_of_day", "mean_diff"],
              ([node, hour, stat_cell(diff)] for (node, hour), diff in table.items()))
