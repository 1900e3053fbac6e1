import csv
import io
import json
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from odfuse import core
from odfuse.core import (
    CATEGORY_ORDER,
    TAG_ORDER,
    CountsByCategory,
    Direction,
    NodeId,
    NodeKind,
    RoadTag,
    RoutingReportObservation,
    RoutingTable,
    TollboothObservation,
    TollboothTable,
    make_hour_key,
    write_csv,
    write_csv_columns,
)
from odfuse.cli import main
from odfuse.errors import ConfigError, DataError, InternalError, OdfuseError
from odfuse.ingest import (
    _read_routing_rows,
    _read_tollbooth_rows,
    _scan_routing_csv,
    _scan_tollbooth_csv,
    BiasProfile,
    FEATURE_NAMES,
    TARGET_NAMES,
    build_dataset,
    difference_series,
    generate_synthetic,
    read_routing_csv,
    read_tollbooth_csv,
    write_routing_csv,
    write_tollbooth_csv,
)
from odfuse.network import NetworkConfig, trondheim_fixture

from _helpers import (
    destination,
    reference_dataset,
    reference_difference_series,
    reference_generate_synthetic,
    reference_read_routing_csv,
    reference_read_tollbooth_csv,
    reference_write_csv_columns,
    station,
    take_rows,
)

TOLLBOOTH_HEADER = (
    "timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total"
)


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def grid_network(n_stations=2, n_dest=1, tag=RoadTag.TRUNK) -> NetworkConfig:
    nodes = [station(f"S{i}", tag=tag, scale=200) for i in range(n_stations)]
    nodes += [destination(f"D{i}", scale=100) for i in range(n_dest)]
    return NetworkConfig(
        name="grid",
        nodes=tuple(nodes),
        destination_groups={"all": tuple(f"D{i}" for i in range(n_dest))},
        passthrough_pairs=(),
        scenario_subsets={},
    )


def identity_profile(seed=0):
    return BiasProfile.identity(seed=seed)


class TestReadTollboothCsv:
    def test_parses_schema_row(self, tmp_path):
        p = write_lines(
            tmp_path / "tb.csv",
            TOLLBOOTH_HEADER,
            "2023-11-06T08:00,E6-Klett,Inbound,412,23,31,12,18,4,500",
        )
        rows = read_tollbooth_csv(p)
        assert len(rows) == 1
        obs = rows[0]
        assert obs.node.name == "E6-Klett"
        assert obs.direction is Direction.INBOUND
        assert obs.counts.total == 500
        assert obs.counts.counts[CATEGORY_ORDER[0]] == 412
        assert not obs.counts.total_mismatch

    def test_negative_count_names_line(self, tmp_path):
        p = write_lines(
            tmp_path / "tb.csv",
            TOLLBOOTH_HEADER,
            "2023-11-06T08:00,E6-Klett,Inbound,412,-3,31,12,18,4,500",
        )
        with pytest.raises(DataError, match="negative count at line 2"):
            read_tollbooth_csv(p)

    def test_empty_file_with_header(self, tmp_path):
        p = write_lines(tmp_path / "tb.csv", TOLLBOOTH_HEADER)
        assert len(read_tollbooth_csv(p)) == 0

    def test_missing_column_rejected(self, tmp_path):
        p = write_lines(tmp_path / "tb.csv", TOLLBOOTH_HEADER.rsplit(",", 1)[0])
        with pytest.raises(DataError, match="bad header"):
            read_tollbooth_csv(p)

    def test_unknown_direction_names_file_and_line(self, tmp_path):
        p = write_lines(
            tmp_path / "tb.csv",
            TOLLBOOTH_HEADER,
            "2023-11-06T08:00,E6-Klett,Inbound,1,0,0,0,0,0,1",
            "2023-11-06T08:00,E6-Klett,Sideways,1,0,0,0,0,0,1",
        )
        with pytest.raises(DataError, match=r"tb\.csv: line 3: unknown direction 'Sideways'; allowed: Inbound"):
            read_tollbooth_csv(p)

    def test_line_numbers_count_the_lines_of_a_multi_line_field(self, tmp_path):
        p = write_lines(
            tmp_path / "tb.csv",
            TOLLBOOTH_HEADER,
            '2023-11-06T08:00,"Two\nlines",Inbound,1,0,0,0,0,0,1',
            "2023-11-06T08:00,E6-Klett,Sideways,1,0,0,0,0,0,1",
        )
        with pytest.raises(DataError, match=r"tb\.csv: line 4: unknown direction 'Sideways'"):
            read_tollbooth_csv(p)
        with pytest.raises(DataError, match=r"tb\.csv: line 4: unknown direction 'Sideways'"):
            reference_read_tollbooth_csv(p)

    def test_bad_timestamp_names_line_and_field(self, tmp_path):
        p = write_lines(
            tmp_path / "tb.csv",
            TOLLBOOTH_HEADER,
            "nonsense,E6-Klett,Inbound,1,0,0,0,0,0,1",
        )
        with pytest.raises(DataError, match="line 2.*timestamp"):
            read_tollbooth_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_tollbooth_csv(tmp_path / "absent.csv")


class TestReadRoutingCsv:
    def test_parses_plain_row(self, tmp_path):
        p = write_lines(
            tmp_path / "rt.csv",
            "timestamp,node,people_flow,road_tag",
            "2023-11-06T08:00,Brøttemsvegen,637,Secondary",
        )
        rows = read_routing_csv(p)
        assert rows[0].people_flow == 637
        assert not rows[0].censored
        assert rows[0].road_tag is RoadTag.SECONDARY

    def test_sentinel_marks_censored(self, tmp_path):
        p = write_lines(
            tmp_path / "rt.csv",
            "timestamp,node,people_flow,road_tag",
            "2023-11-06T03:00,Kattemskogen,<T,Secondary",
        )
        rows = read_routing_csv(p)
        assert rows[0].censored
        assert rows[0].people_flow == 0

    def test_unknown_tag_lists_allowed(self, tmp_path):
        p = write_lines(
            tmp_path / "rt.csv",
            "timestamp,node,people_flow,road_tag",
            "2023-11-06T08:00,X,10,Motorway",
        )
        with pytest.raises(DataError, match="Primary, Trunk, Secondary"):
            read_routing_csv(p)


H8, H9, H10 = "2023-11-06T08:00", "2023-11-06T09:00", "2023-11-06T10:00"


def tables(tb_rows, rt_rows):
    """Tables of undirected main-tollbooth rows on trunk roads: tollbooth rows
    (name, timestamp, total) with the total in the shortest length band, and
    routing rows (name, timestamp, flow) with flow None for a censored report."""
    node = {name: NodeId(name=name, kind=NodeKind.MAIN_TOLLBOOTH) for name, *_ in tb_rows + rt_rows}
    names, stamps, totals = zip(*tb_rows)
    tollbooth = TollboothTable.from_rows([make_hour_key(ts) for ts in stamps],
                                         [(node[n], Direction.UNDIRECTED) for n in names],
                                         [[total, 0, 0, 0, 0, 0, total] for total in totals])
    names, stamps, flows = zip(*rt_rows)
    routing = RoutingTable.from_rows([make_hour_key(ts) for ts in stamps], [node[n] for n in names],
                                     [flow or 0 for flow in flows], [RoadTag.TRUNK] * len(names),
                                     [flow is None for flow in flows])
    return tollbooth, routing


class TestBuildDataset:
    def test_small_join_and_split(self):
        ds = build_dataset(*tables([("A", H8, 10), ("A", H9, 20)], [("A", H8, 12), ("A", H9, 22)]),
                           valid_fraction=0.5)
        assert ds.n_rows == 2
        assert ds.split_index == 1

    def test_disjoint_nodes_error(self):
        with pytest.raises(DataError, match="no overlapping"):
            build_dataset(*tables([("A", H8, 10)], [("B", H8, 12)]))

    def test_censored_rows_excluded(self):
        ds = build_dataset(*tables([("A", H8, 10), ("A", H9, 20), ("A", H10, 30)],
                                   [("A", H8, 12), ("A", H9, None), ("A", H10, 31)]), valid_fraction=0.4)
        assert ds.n_rows == 2

    def test_full_grid_splits_at_timestamp_boundary(self):
        # 8 stations x 720 hours, fully overlapping, no censoring.
        net = grid_network(n_stations=8, n_dest=1)
        tb, rt = generate_synthetic(net, 30, identity_profile())
        ds = build_dataset(tb, rt, valid_fraction=0.2)
        assert ds.n_rows == 8 * 720
        assert ds.split_index == 8 * 576

    def test_chronological_split_invariant(self):
        net = grid_network(n_stations=3, n_dest=1)
        tb, rt = generate_synthetic(net, 5, identity_profile(seed=3))
        ds = build_dataset(tb, rt, valid_fraction=0.3)
        max_train = max(h.timestamp for h in ds.hours[: ds.split_index])
        min_valid = min(h.timestamp for h in ds.hours[ds.split_index :])
        assert max_train <= min_valid

    def test_row_count_bounded_by_inputs(self):
        net = grid_network(n_stations=2, n_dest=2)
        tb, rt = generate_synthetic(net, 2, identity_profile(seed=5))
        ds = build_dataset(tb, rt)
        assert ds.n_rows <= min(len(tb), len(rt))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            build_dataset(*tables([("A", H8, 10)], [("A", H8, 12)]), valid_fraction=1.5)

    def test_feature_layout(self):
        later = "2023-11-07T09:00"
        ds = build_dataset(*tables([("A", H8, 10), ("A", later, 11)], [("A", H8, 12), ("A", later, 13)]),
                           valid_fraction=0.5)
        row = ds.X[0]
        assert row[FEATURE_NAMES.index("people_flow")] == 12
        assert row[FEATURE_NAMES.index("hour_of_day")] == 8
        assert row[FEATURE_NAMES.index("is_weekend")] == 0
        assert row[FEATURE_NAMES.index("tag_trunk")] == 1
        assert row[FEATURE_NAMES.index("tag_primary")] == 0
        assert ds.Y[0, TARGET_NAMES.index("total")] == 10


class TestGenerateSynthetic:
    def test_identity_profile_matches_totals_exactly(self):
        net = grid_network(n_stations=3, n_dest=2)
        tb, rt = generate_synthetic(net, 2, identity_profile(seed=9))
        flows = {(r.node.name, r.hour.timestamp): r.people_flow for r in rt}
        for obs in tb:
            assert flows[(obs.join_key(), obs.hour.timestamp)] == obs.counts.total

    def test_primary_gain_overrepresents(self):
        net = grid_network(n_stations=2, n_dest=1, tag=RoadTag.PRIMARY)
        profile = BiasProfile(
            gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 1.0},
            seed=2,
        )
        tb, rt = generate_synthetic(net, 3, profile)
        flows = {(r.node.name, r.hour.timestamp): r.people_flow for r in rt}
        diffs = [flows[(o.join_key(), o.hour.timestamp)] - o.counts.total for o in tb]
        assert np.mean(diffs) > 0

    def test_threshold_censors_low_hours(self):
        net = grid_network(n_stations=1, n_dest=0)
        profile = BiasProfile(
            gains={tag: 1.0 for tag in RoadTag}, censor_threshold=90, seed=4
        )
        tb, rt = generate_synthetic(net, 3, profile)
        censored = [r for r in rt if r.censored]
        assert censored
        assert all(r.people_flow == 0 for r in censored)

    def test_censoring_monotone_in_threshold(self):
        net = grid_network(n_stations=2, n_dest=1)
        gains = {tag: 1.0 for tag in RoadTag}
        low = BiasProfile(gains=gains, censor_threshold=60, seed=7)
        high = BiasProfile(gains=gains, censor_threshold=150, seed=7)
        _, rt_low = generate_synthetic(net, 3, low)
        _, rt_high = generate_synthetic(net, 3, high)
        censored_low = {(r.node.name, r.hour.timestamp) for r in rt_low if r.censored}
        censored_high = {(r.node.name, r.hour.timestamp) for r in rt_high if r.censored}
        assert censored_low <= censored_high

    def test_deterministic_csv_bytes(self, tmp_path):
        net = trondheim_fixture()
        profile = BiasProfile(
            gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7},
            noise_scale=0.1,
            censor_threshold=120,
            seed=42,
        )
        for run in ("a", "b"):
            tb, rt = generate_synthetic(net, 2, profile)
            write_tollbooth_csv(tmp_path / f"tb_{run}.csv", tb)
            write_routing_csv(tmp_path / f"rt_{run}.csv", rt)
        assert (tmp_path / "tb_a.csv").read_bytes() == (tmp_path / "tb_b.csv").read_bytes()
        assert (tmp_path / "rt_a.csv").read_bytes() == (tmp_path / "rt_b.csv").read_bytes()

    def test_trondheim_fixture_row_counts(self):
        net = trondheim_fixture()
        tb, rt = generate_synthetic(net, 30, identity_profile())
        # 8 stations x 720 hours, plus the boundary booth's directional split.
        assert len(tb) == 8 * 720 + 720
        assert len(rt) == (9 + 8) * 720

    @pytest.mark.parametrize("setting", [{"gains": {RoadTag.PRIMARY: True, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 1.0}},
                                         {"noise_scale": True}, {"censor_threshold": True}],
                             ids=["gain", "noise_scale", "censor_threshold"])
    def test_boolean_bias_setting_rejected(self, setting):
        with pytest.raises(ConfigError, match="must be finite"):
            BiasProfile(**{"gains": {tag: 1.0 for tag in RoadTag}, **setting})

    def test_rejects_zero_days(self):
        with pytest.raises(ConfigError):
            generate_synthetic(grid_network(), 0, identity_profile())

    def test_roundtrip_through_csv(self, tmp_path):
        net = grid_network(n_stations=2, n_dest=1)
        profile = BiasProfile(
            gains={tag: 1.0 for tag in RoadTag}, censor_threshold=80, seed=11
        )
        tb, rt = generate_synthetic(net, 2, profile)
        write_tollbooth_csv(tmp_path / "tb.csv", tb)
        write_routing_csv(tmp_path / "rt.csv", rt)
        tb2 = read_tollbooth_csv(tmp_path / "tb.csv")
        rt2 = read_routing_csv(tmp_path / "rt.csv")
        assert len(tb2) == len(tb)
        assert [o.counts.total for o in tb2] == [o.counts.total for o in tb]
        assert [r.censored for r in rt2] == [r.censored for r in rt]


def assert_tables_equal(table, expected):
    """Every field of two tollbooth or routing tables equal: code tables by
    ``==``, columns by ``np.array_equal`` and dtype."""
    assert type(table) is type(expected)
    for name, value in vars(expected).items():
        if isinstance(value, np.ndarray):
            assert getattr(table, name).dtype == value.dtype, name
            assert np.array_equal(getattr(table, name), value), name
        else:
            assert getattr(table, name) == value, name


class TestSynthStream:
    """generate_synthetic's scalar draws against one array draw per (series,
    hour): the same random stream, so the same tables."""

    @pytest.mark.parametrize("network, setting", [
        (grid_network(n_stations=2, n_dest=2), {}),
        (grid_network(n_stations=2, n_dest=2), {"noise_scale": 0.0}),
        (grid_network(n_stations=2, n_dest=2), {"censor_threshold": 0.0}),
        (grid_network(n_stations=2, n_dest=2), {"gains": {tag: 1e-3 for tag in RoadTag}}),
        (NetworkConfig(name="split", nodes=(station("S", directions=("Inbound", "Outbound")), destination("D")),
                       destination_groups={"all": ("D",)}, passthrough_pairs=(), scenario_subsets={}), {}),
    ], ids=["default", "noise_scale-0", "censor_threshold-0", "gains-1e-3", "directional-station"])
    def test_tables_match_array_draw_loop(self, network, setting):
        profile = BiasProfile(**{"gains": {RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7},
                                 "noise_scale": 0.1, "censor_threshold": 120, "seed": 5, **setting})
        for table, expected in zip(generate_synthetic(network, 3, profile),
                                   reference_generate_synthetic(network, 3, profile)):
            assert_tables_equal(table, expected)


# Names that csv.writer must quote, or that are not ASCII.
_QUOTED_NAMES = ["Gate, 7", 'Say "hi"', "Trøndelag", "Line\nbreak", "plain"]


class TestBlockWriters:
    """The code-column writers against write_csv over the same rows."""

    def tables(self, n_rows):
        hours = [make_hour_key(f"2023-11-06T{h % 24:02d}:00") for h in range(n_rows)]
        names = [_QUOTED_NAMES[i % len(_QUOTED_NAMES)] for i in range(n_rows)]
        directions = [list(Direction)[i % 3] for i in range(n_rows)]
        tollbooth = TollboothTable.from_rows(
            hours, [(NodeId(name=n, kind=NodeKind.MAIN_TOLLBOOTH), d) for n, d in zip(names, directions)],
            [[i, 0, 2, 0, 0, 10**15, i + 7] for i in range(n_rows)])
        censored = [i % 3 == 0 for i in range(n_rows)]
        routing = RoutingTable.from_rows(
            hours, [NodeId(name=n, kind=NodeKind.INFERRED_DESTINATION) for n in names],
            [0 if c else 17 * i for i, c in enumerate(censored)], [TAG_ORDER[i % 3] for i in range(n_rows)], censored)
        return tollbooth, routing

    @pytest.mark.parametrize("n_rows", [0, 1, 12])
    def test_bytes_equal_write_csv_and_read_back(self, tmp_path, n_rows):
        tollbooth, routing = self.tables(n_rows)
        write_tollbooth_csv(tmp_path / "tb.csv", tollbooth)
        write_routing_csv(tmp_path / "rt.csv", routing)
        write_csv(tmp_path / "tb_rows.csv", TOLLBOOTH_HEADER.split(","), (
            [o.hour.isoformat(), o.node.name, o.direction.value,
             *(int(o.counts.counts[c]) for c in CATEGORY_ORDER), int(o.counts.total)] for o in tollbooth))
        write_csv(tmp_path / "rt_rows.csv", ["timestamp", "node", "people_flow", "road_tag"], (
            [o.hour.isoformat(), o.node.name, "<T" if o.censored else int(o.people_flow), o.road_tag.value]
            for o in routing))
        assert (tmp_path / "tb.csv").read_bytes() == (tmp_path / "tb_rows.csv").read_bytes()
        assert (tmp_path / "rt.csv").read_bytes() == (tmp_path / "rt_rows.csv").read_bytes()
        assert_tables_equal(read_tollbooth_csv(tmp_path / "tb.csv"), tollbooth)
        assert_tables_equal(read_routing_csv(tmp_path / "rt.csv"), routing)

    @pytest.mark.parametrize("n_rows", [0, 5, 20000])
    def test_code_columns_in_row_order(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        names, counts = rng.integers(len(_QUOTED_NAMES), size=n_rows), rng.integers(10**6, size=n_rows)
        rows = rng.permutation(n_rows)
        write_csv_columns(tmp_path / "columns.csv", ["name, quoted", "count", "same"],
                          [(_QUOTED_NAMES, names), (None, counts), (_QUOTED_NAMES, names)], rows)
        write_csv(tmp_path / "rows.csv", ["name, quoted", "count", "same"],
                  ([_QUOTED_NAMES[names[r]], int(counts[r]), _QUOTED_NAMES[names[r]]] for r in rows))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_empty_text_is_an_empty_cell(self, tmp_path):
        texts, codes = ["", "x", ""], np.array([0, 1, 2, 0])
        write_csv_columns(tmp_path / "columns.csv", ["a", "b"], [(texts, codes), (None, codes)], np.arange(4))
        write_csv(tmp_path / "rows.csv", ["a", "b"], ([texts[c], c] for c in codes.tolist()))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n,0\r\nx,1\r\n,2\r\n,0\r\n"

    def test_fewer_than_two_columns_is_an_internal_error(self, tmp_path):
        texts, codes = ["", "x"], np.array([0, 1])
        for columns in ([], [(texts, codes)]):
            with pytest.raises(InternalError, match="two or more columns"):
                write_csv_columns(tmp_path / "one.csv", ["a"] * len(columns), columns, np.arange(2))
        assert not (tmp_path / "one.csv").exists()

    @pytest.mark.parametrize("year", [1, 999, 1000, 9999])
    def test_four_digit_years_survive_a_write_and_read(self, tmp_path, year):
        hours = [make_hour_key(datetime(year, 3, 1, h)) for h in (5, 6)]
        tollbooth = TollboothTable.from_rows(hours, [(NodeId(name="A", kind=NodeKind.MAIN_TOLLBOOTH),
                                                      Direction.UNDIRECTED)] * 2, [[1] * 7, [2] * 7])
        routing = RoutingTable.from_rows(hours, [NodeId(name="A", kind=NodeKind.INFERRED_DESTINATION)] * 2, [10, 0],
                                         [RoadTag.PRIMARY] * 2, [False, True])
        write_tollbooth_csv(tmp_path / "tb.csv", tollbooth)
        write_routing_csv(tmp_path / "rt.csv", routing)
        assert (tmp_path / "tb.csv").read_bytes().split(b"\r\n")[1].startswith(f"{year:04d}-03-01T05:00,".encode())
        assert_tables_equal(read_tollbooth_csv(tmp_path / "tb.csv"), tollbooth)
        assert_tables_equal(read_routing_csv(tmp_path / "rt.csv"), routing)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), n_rows=st.integers(0, 24), block_bytes=st.sampled_from([1, 40, 2**18]))
    def test_bytes_equal_the_row_writer(self, tmp_path_factory, data, n_rows, block_bytes):
        """Byte blocks of any width against the row writer: quoted, empty,
        non-ASCII and very wide texts, shared text tables, every integer
        dtype up to its extremes, and rows given as one array or as blocks
        that may be empty."""
        text = st.text(max_size=6) | st.text(alphabet=' ,"\r\n\x00\tøß\u2028a', max_size=6)
        wide = st.integers(0, 3000).map(lambda k: "w" * k + ', "wide"')
        shared = data.draw(st.lists(text | wide, min_size=1, max_size=8))
        columns = []
        for _ in range(data.draw(st.integers(2, 4))):
            if data.draw(st.booleans()):
                texts = shared if data.draw(st.booleans()) else data.draw(st.lists(text | wide, min_size=1, max_size=8))
                dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]))
                columns.append((texts, data.draw(hnp.arrays(dtype, n_rows, elements=st.integers(0, len(texts) - 1)))))
            else:
                dtype = data.draw(hnp.integer_dtypes(endianness="=") | hnp.unsigned_integer_dtypes(endianness="="))
                info = np.iinfo(dtype)
                values = st.sampled_from([info.min, info.max, 0, -1 if info.min else 1]) | st.integers(info.min, info.max)
                columns.append((None, data.draw(hnp.arrays(dtype, n_rows, elements=values))))
        order = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), max_size=30) if n_rows else st.just([])),
                         dtype=np.int64)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=4)))
        rows = order if data.draw(st.booleans()) else [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
        header = [f"c{i}" if i else "first, quoted" for i in range(len(columns))]
        out = tmp_path_factory.mktemp("columns")
        try:
            reference_write_csv_columns(out / "rows.csv", header, columns, rows)
        except csv.Error:  # a text the dialect cannot write: NUL before Python 3.11
            with pytest.raises(csv.Error):
                write_csv_columns(out / "columns.csv", header, columns, rows)
            assert not (out / "columns.csv").exists()
            return
        with mock.patch.object(core, "_BLOCK_BYTES", block_bytes):
            write_csv_columns(out / "columns.csv", header, columns, rows)
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


class TestDifferenceSeries:
    def test_identity_bias_all_zero(self):
        net = grid_network(n_stations=2, n_dest=0)
        tb, rt = generate_synthetic(net, 2, identity_profile(seed=1))
        table = difference_series(tb, rt)
        assert table
        assert all(v == 0 for v in table.values())

    def test_gain_makes_cells_negative(self):
        net = grid_network(n_stations=1, n_dest=0, tag=RoadTag.PRIMARY)
        profile = BiasProfile(
            gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 1.0}, seed=3
        )
        tb, rt = generate_synthetic(net, 3, profile)
        table = difference_series(tb, rt)
        assert all(v < 0 for v in table.values())

    def test_hand_built_cells(self):
        table = difference_series(*tables([("N", H8, 100), ("N", H9, 100)], [("N", H8, 90), ("N", H9, 110)]))
        assert table[("N", 8)] == 10
        assert table[("N", 9)] == -10
        assert ("N", 10) not in table


class TestTables:
    def test_items_are_the_observations(self):
        tollbooth, routing = tables([("A", H8, 10), ("B", H9, 20), ("A", H8, 10)], [("A", H8, 12), ("B", H9, None)])
        a, b = (NodeId(name=name, kind=NodeKind.MAIN_TOLLBOOTH) for name in "AB")
        h8, h9 = make_hour_key(H8), make_hour_key(H9)

        def counts(total):
            return CountsByCategory.with_reported_total({CATEGORY_ORDER[0]: total}, total)

        at_a = TollboothObservation(node=a, direction=Direction.UNDIRECTED, hour=h8, counts=counts(10))
        at_b = TollboothObservation(node=b, direction=Direction.UNDIRECTED, hour=h9, counts=counts(20))
        assert list(tollbooth) == [at_a, at_b, at_a]
        assert list(routing) == [
            RoutingReportObservation(node=a, hour=h8, people_flow=12.0, road_tag=RoadTag.TRUNK),
            RoutingReportObservation(node=b, hour=h9, people_flow=0.0, road_tag=RoadTag.TRUNK, censored=True),
        ]
        assert (tollbooth[-1], tollbooth[1:]) == (at_a, [at_b, at_a])
        assert len(tollbooth.hours) == 2 and len(tollbooth.series_ids) == 2
        with pytest.raises(IndexError):
            routing[2]

    @pytest.mark.parametrize("values", [[-5, 0, 0, 0, 0, 0, 5], [5, 0, 0, 0, 0, 0, -5], [np.nan] * 7, [np.inf] * 7],
                             ids=["count", "total", "nan", "inf"])
    def test_bad_counts_rejected(self, values):
        series = (NodeId(name="A", kind=NodeKind.MAIN_TOLLBOOTH), Direction.UNDIRECTED)
        with pytest.raises(DataError, match="row 1: counts and total must be finite and non-negative"):
            TollboothTable.from_rows([make_hour_key(H8), make_hour_key(H9)], [series] * 2, [[1] * 7, values])

    @pytest.mark.parametrize(("flow", "censored", "rule"), [
        (-50, False, "people_flow must be finite and non-negative"),
        (np.nan, False, "people_flow must be finite and non-negative"),
        (np.inf, False, "people_flow must be finite and non-negative"),
        (3, True, "censored rows must carry people_flow = 0"),
    ], ids=["negative", "nan", "inf", "censored-nonzero"])
    def test_bad_flows_rejected(self, flow, censored, rule):
        node = NodeId(name="A", kind=NodeKind.MAIN_TOLLBOOTH)
        with pytest.raises(DataError, match=f"row 1: {rule}"):
            RoutingTable.from_rows([make_hour_key(H8), make_hour_key(H9)], [node] * 2, [4, flow],
                                   [RoadTag.TRUNK] * 2, [False, censored])


class TestJoinParity:
    """The column join against the per-pair join, on rows shuffled, thinned,
    repeated and mixed with reports of nodes no station counts."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dataset_and_differences_match_per_pair_join(self, seed):
        rng = np.random.default_rng(seed)
        net = grid_network(n_stations=3, n_dest=2)
        profile = BiasProfile(gains={tag: 1.2 for tag in RoadTag}, noise_scale=0.3, censor_threshold=70, seed=seed)
        tb, rt = generate_synthetic(net, 2, profile)
        tb_rows = rng.permutation(len(tb))[: int(len(tb) * rng.uniform(0.5, 1.0))]
        tb_rows = np.concatenate([tb_rows, tb_rows[rng.integers(0, len(tb_rows), size=int(rng.integers(0, 4)))]])
        rt_rows = rng.permutation(len(rt))[: int(len(rt) * rng.uniform(0.5, 1.0))]
        tb, rt = take_rows(tb, tb_rows), take_rows(rt, rt_rows)
        X, Y, node_keys, hours, split_index = reference_dataset(tb, rt, 0.3)
        ds = build_dataset(tb, rt, 0.3)
        assert np.array_equal(ds.X, X) and np.array_equal(ds.Y, Y)
        assert (ds.node_keys, ds.hours, ds.split_index) == (node_keys, hours, split_index)
        assert difference_series(tb, rt) == reference_difference_series(tb, rt)

    def test_first_duplicate_routing_row_is_named(self):
        rt_a, rt_b = ("A", H8, 12), ("B", H9, 22)
        with pytest.raises(DataError, match="duplicate routing row for node 'B' at 2023-11-06T09:00"):
            build_dataset(*tables([("A", H8, 10), ("B", H9, 20)], [rt_b, rt_a, rt_b, rt_a]))


# Text pools for generated CSV files: one hour in two text forms, names that
# carry a direction, counts near 2**53 (where float64 rounds) and of 17 or 18
# digits, and per column the malformed values a corrupted row gets. Half the
# files are canonical, so that the byte scan reads them when they are valid;
# the rest can also draw a name that needs quoting, counts that int() reads
# but the scan leaves to the per-row reader, and blank lines.
_TIMESTAMPS = ["2023-11-06T08:00", "2023-11-06 08:00", "2023-11-06T09:00", "2023-11-11T23:00"]
_STATIONS = ["E6-Klett", "ØstreRosten"]
_DIRECTIONS = ["Inbound", "Outbound", "Undirected"]
_NODES = ["Brøttemsvegen", "ØstreRosten|Inbound", "E6-Klett"]
_TAGS = ["Primary", "Trunk", "Secondary"]
_QUOTED_NAME = 'Gate, "7"'
_CANONICAL_COUNTS = st.one_of(st.integers(0, 10**7), st.integers(2**53 - 2, 2**53 + 2),
                              st.integers(10**16, 10**18 - 1)).map(str) | st.sampled_from(["0", "007"])
_LENIENT_COUNTS = st.sampled_from([" 7", "1_000", "+5", "٣", str(10**18), str(2**63 + 1)])
_BAD_TIMESTAMPS = ["2023-11-06T08:30", "nonsense", ""]
_BAD_COUNTS = ["-1", "", "x", "1.5"]


def _csv_text(header, rows, blank_after, crlf, final_line_end):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n" if crlf else "\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i in blank_after:
            buf.write("\r\n" if crlf else "\n")
    text = buf.getvalue()
    return text if final_line_end else text[:-2 if crlf else -1]


def _corrupted(draw, rows, bad_values):
    """Half the files stay valid; the rest get one bad field, or one row one
    field short or one too many."""
    if not rows or draw(st.booleans()):
        return rows
    i = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(-1, len(bad_values)))
    if column == -1:
        rows[i] = rows[i][:-1]
    elif column == len(bad_values):
        rows[i] = rows[i] + ["9"]
    else:
        rows[i][column] = draw(st.sampled_from(bad_values[column]))
    return rows


def _file_text(draw, header, columns, bad_values, canonical):
    rows = [[draw(column) for column in columns] for _ in range(draw(st.integers(0, 12)))]
    rows = _corrupted(draw, rows, bad_values)
    blank_after = set() if canonical else draw(st.sets(st.integers(0, 12), max_size=3))
    return _csv_text(header, rows, blank_after, draw(st.booleans()), draw(st.booleans()))


@st.composite
def tollbooth_files(draw):
    canonical = draw(st.booleans())
    counts = _CANONICAL_COUNTS if canonical else _CANONICAL_COUNTS | _LENIENT_COUNTS
    columns = [st.sampled_from(_TIMESTAMPS), st.sampled_from(_STATIONS + ([] if canonical else [_QUOTED_NAME])),
               st.sampled_from(_DIRECTIONS)]
    columns += [counts] * 7
    bad = [_BAD_TIMESTAMPS, [""], ["Sideways", "inbound"]] + [_BAD_COUNTS] * 7
    return _file_text(draw, TOLLBOOTH_HEADER.split(","), columns, bad, canonical)


@st.composite
def routing_files(draw):
    canonical = draw(st.booleans())
    counts = _CANONICAL_COUNTS if canonical else _CANONICAL_COUNTS | _LENIENT_COUNTS
    columns = [st.sampled_from(_TIMESTAMPS), st.sampled_from(_NODES + ([] if canonical else [_QUOTED_NAME])),
               st.just("<T") | counts, st.sampled_from(_TAGS)]
    bad = [_BAD_TIMESTAMPS, [""], _BAD_COUNTS + ["<t"], ["Motorway", ""]]
    return _file_text(draw, ["timestamp", "node", "people_flow", "road_tag"], columns, bad, canonical)


def _outcome(read, path, network):
    try:
        rows = read(path, network)
    except DataError as exc:
        return "DataError", str(exc)
    observations = list(rows)
    if isinstance(rows, (TollboothTable, RoutingTable)):
        # Code tables hold each distinct hour (by timestamp) and series or
        # node once, in order of first appearance.
        assert rows.hours == tuple({o.hour.timestamp: o.hour for o in observations}.values())
        if isinstance(rows, TollboothTable):
            assert rows.series_ids == tuple(dict.fromkeys((o.node, o.direction) for o in observations))
        else:
            assert rows.nodes == tuple(dict.fromkeys(o.node for o in observations))
    mismatch = [o.counts.total_mismatch for o in observations if isinstance(o, TollboothObservation)]
    return observations, mismatch


_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestReaderParity:
    """The column readers against the per-row readers: the same observations,
    or DataErrors with the same message."""

    @_FUZZ
    @given(text=tollbooth_files(), with_network=st.booleans())
    def test_tollbooth_reader_matches_per_row_reader(self, tmp_path_factory, text, with_network):
        path = tmp_path_factory.mktemp("parity") / "tollbooth.csv"
        path.write_text(text, encoding="utf-8", newline="")
        net = trondheim_fixture() if with_network else None
        assert _outcome(read_tollbooth_csv, path, net) == _outcome(reference_read_tollbooth_csv, path, net)

    @_FUZZ
    @given(text=routing_files(), with_network=st.booleans())
    def test_routing_reader_matches_per_row_reader(self, tmp_path_factory, text, with_network):
        path = tmp_path_factory.mktemp("parity") / "routing.csv"
        path.write_text(text, encoding="utf-8", newline="")
        net = trondheim_fixture() if with_network else None
        assert _outcome(read_routing_csv, path, net) == _outcome(reference_read_routing_csv, path, net)

    @_FUZZ
    @given(body=st.binary(max_size=200), which=st.sampled_from(["tollbooth", "routing"]))
    @example(body=b"2023-11-06T08:00,A,Inbound," + b"9" * 400 + b",0,0,0,0,0,1\n", which="tollbooth")
    @example(body=b"2023-11-06T08:00,A," + b"9" * 400 + b",Primary\n", which="routing")
    @example(body=b"2023-11-06T08:00,A,\xff,Primary\n", which="routing")
    @example(body=b'2023-11-06T08:00,"A\x00,1,Primary\n', which="routing")
    def test_only_package_errors_escape(self, tmp_path_factory, body, which):
        header = TOLLBOOTH_HEADER if which == "tollbooth" else "timestamp,node,people_flow,road_tag"
        path = tmp_path_factory.mktemp("fuzz") / f"{which}.csv"
        path.write_bytes(header.encode() + b"\n" + body)
        read = read_tollbooth_csv if which == "tollbooth" else read_routing_csv
        try:
            list(read(path))
        except OdfuseError:
            pass

    @pytest.mark.parametrize("read", [read_tollbooth_csv, read_routing_csv])
    def test_non_utf8_file_is_a_data_error_naming_it(self, tmp_path, read):
        path = tmp_path / "input.csv"
        path.write_bytes(b"\xff\xfe not text\n")
        with pytest.raises(DataError, match="input.csv: not UTF-8"):
            read(path)


_READERS = {"tollbooth": (_scan_tollbooth_csv, _read_tollbooth_rows, read_tollbooth_csv),
            "routing": (_scan_routing_csv, _read_routing_rows, read_routing_csv)}


@pytest.fixture(scope="module")
def synth_output(tmp_path_factory):
    """The synth stage's output directory for 30 and 56 days, by day count."""
    def run(days):
        base = tmp_path_factory.mktemp(f"synth{days}")
        config = base / "config.json"
        config.write_text(json.dumps({"seed": 7, "out_dir": str(base), "synthetic": {"days": days}}), encoding="utf-8")
        assert main(["--config", str(config), "synth"]) == 0
        return base
    return {days: run(days) for days in (30, 56)}


def _table_or_error(read, path, network=None):
    try:
        return read(path, network)
    except DataError as exc:
        return str(exc)


class TestByteScan:
    """The byte scan against the per-row reader: canonical files take the
    scan and give the same tables; every other file declines it and reads
    exactly as the per-row reader reads it."""

    @pytest.mark.parametrize("days", [30, 56])
    @pytest.mark.parametrize("with_network", [False, True], ids=["no-network", "network"])
    @pytest.mark.parametrize("which", ["tollbooth", "routing"])
    def test_synth_output_takes_the_scan(self, synth_output, days, with_network, which):
        scan, read_rows, _ = _READERS[which]
        path = synth_output[days] / f"{which}.csv"
        network = trondheim_fixture() if with_network else None
        table = scan(path, network)
        assert table is not None
        assert_tables_equal(table, read_rows(path, network))

    @pytest.mark.parametrize("form", ["lf", "no-final-line-end", "header-only", "header-only-no-line-end"])
    @pytest.mark.parametrize("which", ["tollbooth", "routing"])
    def test_line_end_forms_take_the_scan(self, synth_output, tmp_path, form, which):
        scan, read_rows, _ = _READERS[which]
        text = (synth_output[30] / f"{which}.csv").read_bytes()
        header = text[:text.index(b"\r\n")]
        text = {"lf": text.replace(b"\r\n", b"\n"), "no-final-line-end": text[:-2],
                "header-only": header + b"\r\n", "header-only-no-line-end": header}[form]
        path = tmp_path / f"{which}.csv"
        path.write_bytes(text)
        table = scan(path, None)
        assert table is not None
        assert_tables_equal(table, read_rows(path, None))
        assert len(table) == (0 if form.startswith("header-only") else 720 * (9 if which == "tollbooth" else 17))

    _ROWS = {
        "tollbooth": [TOLLBOOTH_HEADER, "2023-11-06T08:00,E6-Klett,Inbound,412,23,31,12,18,4,500",
                      "2023-11-06T09:00,ØstreRosten,Outbound,1,0,0,0,0,0,1"],
        "routing": ["timestamp,node,people_flow,road_tag", "2023-11-06T08:00,E6-Klett,637,Primary",
                    "2023-11-06T09:00,ØstreRosten,<T,Secondary"],
    }

    def test_base_files_take_the_scan(self, tmp_path):
        for which, (scan, read_rows, _) in _READERS.items():
            path = tmp_path / f"{which}.csv"
            path.write_text("\r\n".join(self._ROWS[which]) + "\r\n", encoding="utf-8", newline="")
            assert_tables_equal(scan(path, None), read_rows(path, None))

    # Each case replaces the first occurrence of a text in a base file that
    # the scan reads.
    @pytest.mark.parametrize(("which", "old", "new"), [
        ("tollbooth", "E6-Klett", '"E6-Klett"'),
        ("routing", "E6-Klett", '"E6, Klett"'),
        ("routing", "E6-Klett", "E6\0Klett"),
        ("tollbooth", "500\r\n", "500\r"),
        ("routing", "E6-Klett", "E6-\rKlett"),
        ("routing", "timestamp", "﻿timestamp"),
        ("routing", "Primary\r\n", "Primary\r\n\r\n"),
        ("tollbooth", ",23,", ", 7,"),
        ("tollbooth", ",23,", ",+5,"),
        ("tollbooth", ",23,", ",1_000,"),
        ("tollbooth", ",23,", ",٣,"),
        ("routing", ",637,", f",{10**18},"),
        ("tollbooth", ",23,", ",,"),
        ("routing", "2023-11-06T09:00", "2023-11-06T09:30"),
        ("routing", "Secondary", "Motorway"),
        ("tollbooth", "Outbound", "Sideways"),
        ("routing", ",ØstreRosten,", ",,"),
        ("tollbooth", ",4,500\r\n", ",4\r\n"),
        ("routing", "Primary\r\n", "Primary,9\r\n"),
    ], ids=["quoted-name", "quoted-comma", "nul", "lone-cr", "lone-cr-in-name", "bom", "blank-line", "space-count", "plus-count",
            "underscore-count", "arabic-indic-count", "19-digit-count", "empty-count", "bad-timestamp",
            "bad-tag", "bad-direction", "empty-name", "field-too-few", "field-too-many"])
    def test_irregular_file_declines_and_reads_as_per_row(self, tmp_path, which, old, new):
        scan, read_rows, read = _READERS[which]
        text = "\r\n".join(self._ROWS[which]) + "\r\n"
        assert old in text
        path = tmp_path / f"{which}.csv"
        path.write_text(text.replace(old, new, 1), encoding="utf-8", newline="")
        assert scan(path, None) is None
        expected, outcome = _table_or_error(read_rows, path), _table_or_error(read, path)
        if isinstance(expected, str):
            assert outcome == expected
        else:
            assert_tables_equal(outcome, expected)

    @pytest.mark.parametrize("width", [255, 256, 257, 5000])
    def test_wide_last_name_takes_the_scan(self, tmp_path, width):
        path = tmp_path / "routing.csv"
        rows = self._ROWS["routing"]
        path.write_text("\r\n".join(rows[:-1] + [rows[-1].replace("ØstreRosten", "N" * width)]) + "\r\n",
                        encoding="utf-8", newline="")
        table = _scan_routing_csv(path, None)
        assert table is not None and table.nodes[-1].name == "N" * width
        assert_tables_equal(table, _read_routing_rows(path, None))

    def test_field_beyond_the_csv_field_limit_declines(self, tmp_path):
        path = tmp_path / "routing.csv"
        path.write_text("\r\n".join(self._ROWS["routing"]).replace("ØstreRosten", "N" * 101) + "\r\n",
                        encoding="utf-8", newline="")
        limit = csv.field_size_limit(100)
        try:
            assert _scan_routing_csv(path, None) is None
            with pytest.raises(DataError, match="field larger than field limit"):
                read_routing_csv(path)
        finally:
            csv.field_size_limit(limit)

    def test_missing_file_declines(self, tmp_path):
        assert _scan_tollbooth_csv(tmp_path / "absent.csv", None) is None
        assert _scan_routing_csv(tmp_path, None) is None  # a directory
