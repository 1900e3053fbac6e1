import csv
import dataclasses
import io
import json
import re
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from odfuse import core, ingest
from odfuse.core import (
    CATEGORY_ORDER,
    TAG_ORDER,
    CountsByCategory,
    Direction,
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
    _MAX_DAYS,
    _SYNTH_START,
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
        assert obs.node == "E6-Klett"
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
    names, stamps, totals = zip(*tb_rows)
    tollbooth = TollboothTable.from_rows([make_hour_key(ts) for ts in stamps],
                                         [(n, Direction.UNDIRECTED) for n in names],
                                         [[total, 0, 0, 0, 0, 0, total] for total in totals])
    names, stamps, flows = zip(*rt_rows)
    routing = RoutingTable.from_rows([make_hour_key(ts) for ts in stamps], list(names),
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
        assert ds.hours.dtype == np.dtype("datetime64[h]") and len(ds.hours) == ds.n_rows
        assert ds.hours[: ds.split_index].max() < ds.hours[ds.split_index :].min()

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
        flows = {(r.node, r.hour.timestamp): r.people_flow for r in rt}
        for obs in tb:
            assert flows[(obs.join_key(), obs.hour.timestamp)] == obs.counts.total

    def test_primary_gain_overrepresents(self):
        net = grid_network(n_stations=2, n_dest=1, tag=RoadTag.PRIMARY)
        profile = BiasProfile(
            gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 1.0},
            seed=2,
        )
        tb, rt = generate_synthetic(net, 3, profile)
        flows = {(r.node, r.hour.timestamp): r.people_flow for r in rt}
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
        censored_low = {(r.node, r.hour.timestamp) for r in rt_low if r.censored}
        censored_high = {(r.node, r.hour.timestamp) for r in rt_high if r.censored}
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

    def test_days_bound_is_the_last_hour_a_datetime_holds(self):
        last_hour = datetime.fromisoformat(_SYNTH_START) + timedelta(hours=24 * _MAX_DAYS - 1)
        assert (_MAX_DAYS, last_hour) == (2_913_230, datetime(9999, 12, 31, 23))
        with pytest.raises(OverflowError):
            last_hour + timedelta(days=1)

    @pytest.mark.parametrize("days", [2_913_231, 10**30])
    def test_rejects_days_past_the_last_datetime(self, days):
        with pytest.raises(ConfigError, match=f"days must be at most 2913230, .*, got {days}"):
            generate_synthetic(grid_network(), days, identity_profile())

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

    def test_tables_survive_a_trip_through_disk(self, tmp_path):
        """Every field, node names and series included, reads back from the
        files alone as generate_synthetic made it."""
        profile = BiasProfile(gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7},
                              noise_scale=0.1, censor_threshold=120, seed=42)
        tb, rt = generate_synthetic(trondheim_fixture(), 1, profile)
        write_tollbooth_csv(tmp_path / "tb.csv", tb)
        write_routing_csv(tmp_path / "rt.csv", rt)
        assert_tables_equal(read_tollbooth_csv(tmp_path / "tb.csv"), tb)
        assert_tables_equal(read_routing_csv(tmp_path / "rt.csv"), rt)


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
            hours, list(zip(names, directions)),
            [[i, 0, 2, 0, 0, 10**15, i + 7] for i in range(n_rows)])
        censored = [i % 3 == 0 for i in range(n_rows)]
        routing = RoutingTable.from_rows(
            hours, names,
            [0 if c else 17 * i for i, c in enumerate(censored)], [TAG_ORDER[i % 3] for i in range(n_rows)], censored)
        return tollbooth, routing

    @pytest.mark.parametrize("n_rows", [0, 1, 12])
    def test_bytes_equal_write_csv_and_read_back(self, tmp_path, n_rows):
        tollbooth, routing = self.tables(n_rows)
        write_tollbooth_csv(tmp_path / "tb.csv", tollbooth)
        write_routing_csv(tmp_path / "rt.csv", routing)
        write_csv(tmp_path / "tb_rows.csv", TOLLBOOTH_HEADER.split(","), (
            [o.hour.isoformat(), o.node, o.direction.value,
             *(int(o.counts.counts[c]) for c in CATEGORY_ORDER), int(o.counts.total)] for o in tollbooth))
        write_csv(tmp_path / "rt_rows.csv", ["timestamp", "node", "people_flow", "road_tag"], (
            [o.hour.isoformat(), o.node, "<T" if o.censored else int(o.people_flow), o.road_tag.value]
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
                          [(_QUOTED_NAMES, names[rows]), (None, counts[rows]), (_QUOTED_NAMES, names[rows])])
        write_csv(tmp_path / "rows.csv", ["name, quoted", "count", "same"],
                  ([_QUOTED_NAMES[names[r]], int(counts[r]), _QUOTED_NAMES[names[r]]] for r in rows))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_empty_text_is_an_empty_cell(self, tmp_path):
        texts, codes = ["", "x", ""], np.array([0, 1, 2, 0])
        write_csv_columns(tmp_path / "columns.csv", ["a", "b"], [(texts, codes), (None, codes)])
        write_csv(tmp_path / "rows.csv", ["a", "b"], ([texts[c], c] for c in codes.tolist()))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n,0\r\nx,1\r\n,2\r\n,0\r\n"

    def test_fewer_than_two_columns_is_an_internal_error(self, tmp_path):
        texts, codes = ["", "x"], np.array([0, 1])
        for columns in ([], [(texts, codes)]):
            with pytest.raises(InternalError, match="two or more columns"):
                write_csv_columns(tmp_path / "one.csv", ["a"] * len(columns), columns)
        assert not (tmp_path / "one.csv").exists()

    def test_columns_of_different_lengths_are_an_internal_error(self, tmp_path):
        texts, codes = ["", "x"], np.array([0, 1])
        for columns in ([(texts, codes), (None, codes[:1])], [(None, codes), (texts, codes), (None, codes[:0])]):
            with pytest.raises(InternalError, match="columns of one length"):
                write_csv_columns(tmp_path / "ragged.csv", ["a"] * len(columns), columns)
        assert not (tmp_path / "ragged.csv").exists()

    def test_counts_just_below_2_63_survive_a_write_and_read(self, tmp_path):
        hours = [make_hour_key(H8)]
        tollbooth = TollboothTable.from_rows(hours, [("A", Direction.UNDIRECTED)], [[2**63 - 1] * 7])
        routing = RoutingTable.from_rows(hours, ["A"], [2**63 - 1], [RoadTag.PRIMARY], [False])
        write_tollbooth_csv(tmp_path / "tb.csv", tollbooth)
        write_routing_csv(tmp_path / "rt.csv", routing)
        assert_tables_equal(read_tollbooth_csv(tmp_path / "tb.csv"), tollbooth)
        assert_tables_equal(read_routing_csv(tmp_path / "rt.csv"), routing)

    @pytest.mark.parametrize("year", [1, 999, 1000, 9999])
    def test_four_digit_years_survive_a_write_and_read(self, tmp_path, year):
        hours = [make_hour_key(datetime(year, 3, 1, h)) for h in (5, 6)]
        tollbooth = TollboothTable.from_rows(hours, [("A", Direction.UNDIRECTED)] * 2, [[1] * 7, [2] * 7])
        routing = RoutingTable.from_rows(hours, ["A"] * 2, [10, 0],
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
        non-ASCII and very wide texts, shared text tables, and every integer
        dtype up to its extremes."""
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
        header = [f"c{i}" if i else "first, quoted" for i in range(len(columns))]
        out = tmp_path_factory.mktemp("columns")
        try:
            reference_write_csv_columns(out / "rows.csv", header, columns)
        except csv.Error:  # a text the dialect cannot write: NUL before Python 3.11
            with pytest.raises(csv.Error):
                write_csv_columns(out / "columns.csv", header, columns)
            assert not (out / "columns.csv").exists()
            return
        with mock.patch.object(core, "_BLOCK_BYTES", block_bytes):
            write_csv_columns(out / "columns.csv", header, columns)
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
        tollbooth, routing = tables([("A", H8, 10), ("B", H9, 20), ("A", H9, 30)], [("A", H8, 12), ("B", H9, None)])
        a, b = "AB"
        h8, h9 = make_hour_key(H8), make_hour_key(H9)

        def counts(total):
            return CountsByCategory.with_reported_total({CATEGORY_ORDER[0]: total}, total)

        at_a = TollboothObservation(node=a, direction=Direction.UNDIRECTED, hour=h8, counts=counts(10))
        at_b = TollboothObservation(node=b, direction=Direction.UNDIRECTED, hour=h9, counts=counts(20))
        later_a = TollboothObservation(node=a, direction=Direction.UNDIRECTED, hour=h9, counts=counts(30))
        assert list(tollbooth) == [at_a, at_b, later_a]
        assert list(routing) == [
            RoutingReportObservation(node=a, hour=h8, people_flow=12.0, road_tag=RoadTag.TRUNK),
            RoutingReportObservation(node=b, hour=h9, people_flow=0.0, road_tag=RoadTag.TRUNK, censored=True),
        ]
        assert (tollbooth[-1], tollbooth[1:]) == (later_a, [at_b, later_a])
        assert len(tollbooth.hours) == 2 and len(tollbooth.series_ids) == 2
        with pytest.raises(IndexError):
            routing[2]

    _BAD_COUNTS = "counts and total must be finite and non-negative"

    @pytest.mark.parametrize(("values", "rule"), [
        ([-5, 0, 0, 0, 0, 0, 5], _BAD_COUNTS),
        ([5, 0, 0, 0, 0, 0, -5], _BAD_COUNTS),
        ([np.nan] * 7, _BAD_COUNTS),
        ([np.inf] * 7, _BAD_COUNTS),
        ([1.5, 0, 0, 0, 0, 0, 2], "counts and total must be whole numbers"),
        ([1, 0, 0, 0, 0, 0, 607.5], "counts and total must be whole numbers"),
    ], ids=["count", "total", "nan", "inf", "fractional-count", "fractional-total"])
    def test_bad_counts_rejected(self, values, rule):
        series = ("A", Direction.UNDIRECTED)
        with pytest.raises(DataError, match=f"row 1: {rule}"):
            TollboothTable.from_rows([make_hour_key(H8), make_hour_key(H9)], [series] * 2, [[1] * 7, values])

    def test_empty_names_rejected(self):
        hours = [make_hour_key(H8), make_hour_key(H9)]
        with pytest.raises(DataError, match="row 1: station name cannot be empty"):
            TollboothTable.from_rows(hours, [("A", Direction.UNDIRECTED), ("", Direction.INBOUND)], [[1] * 7] * 2)
        with pytest.raises(DataError, match="row 0: node name cannot be empty"):
            RoutingTable.from_rows(hours, ["", "A"], [4, 5], [RoadTag.TRUNK] * 2, [False, False])

    @pytest.mark.parametrize(("flow", "censored", "rule"), [
        (-50, False, "people_flow must be finite and non-negative"),
        (np.nan, False, "people_flow must be finite and non-negative"),
        (np.inf, False, "people_flow must be finite and non-negative"),
        (2.5, False, "people_flow must be a whole number"),
        (3, True, "censored rows must carry people_flow = 0"),
    ], ids=["negative", "nan", "inf", "fractional", "censored-nonzero"])
    def test_bad_flows_rejected(self, flow, censored, rule):
        with pytest.raises(DataError, match=f"row 1: {rule}"):
            RoutingTable.from_rows([make_hour_key(H8), make_hour_key(H9)], ["A"] * 2, [4, flow],
                                   [RoadTag.TRUNK] * 2, [False, censored])

    def test_series_sharing_a_count_key_rejected(self):
        series = [("A", Direction.INBOUND), ("A", Direction.OUTBOUND), ("A|Inbound", Direction.UNDIRECTED)]
        message = re.escape("tollbooth series ('A', Inbound) and ('A|Inbound', Undirected) share count key 'A|Inbound'")
        # The rule needs no shared hour: at one hour or at three.
        for stamps in ([H8, H8, H8], [H8, H9, H10]):
            hours = [make_hour_key(ts) for ts in stamps]
            with pytest.raises(DataError, match=message):
                TollboothTable.from_rows(hours, series, [[1] * 7] * 3)
            tollbooth = TollboothTable.from_rows(hours[:2], series[:2], [[1] * 7] * 2)
            with pytest.raises(DataError, match=message):
                dataclasses.replace(tollbooth, series_ids=(series[0], series[2]))

    def test_repeated_hour_rejected(self):
        h8 = make_hour_key(H8)
        # Equal timestamps, one of them with a wrong derived field: two entries of one hour.
        respelt = dataclasses.replace(h8, hour_of_day=9)
        message = re.escape("hour 2023-11-06T08:00 is listed twice in the table's hours")
        with pytest.raises(DataError, match=message):
            TollboothTable.from_rows([h8, respelt], [("A", Direction.UNDIRECTED)] * 2, [[1] * 7] * 2)
        with pytest.raises(DataError, match=message):
            RoutingTable.from_rows([h8, respelt], ["A", "A"], [1, 2], [RoadTag.TRUNK] * 2, [False, False])
        tollbooth, routing = tables([("A", H8, 10), ("A", H9, 20)], [("A", H8, 12), ("A", H9, 5)])
        for table in (tollbooth, routing):
            with pytest.raises(DataError, match=message):
                dataclasses.replace(table, hours=np.array([H8, H8], dtype="datetime64[h]"))

    @pytest.mark.parametrize(("hours", "message"), [
        ((make_hour_key(H8), make_hour_key(H9)), "hours must be a 1-D datetime64[h] array, got tuple"),
        (np.array([H8, H9], dtype="datetime64[m]"),
         "hours must be a 1-D datetime64[h] array, got datetime64[m] array of shape (2,)"),
        (np.array([[H8, H9]], dtype="datetime64[h]"),
         "hours must be a 1-D datetime64[h] array, got datetime64[h] array of shape (1, 2)"),
        (np.array([H8, "NaT"], dtype="datetime64[h]"), "hour NaT of the table's hours is not in the years 1 to 9999"),
        (np.array([H8, "10000-01-01T00"], dtype="datetime64[h]"),
         "hour 10000-01-01T00:00 of the table's hours is not in the years 1 to 9999"),
        (np.array(["0000-12-31T23", H8], dtype="datetime64[h]"),
         "hour 0000-12-31T23:00 of the table's hours is not in the years 1 to 9999"),
    ], ids=["tuple", "minutes", "2d", "nat", "year-10000", "year-0"])
    def test_hours_must_be_an_array_of_hours_views_can_hold(self, hours, message):
        for table in tables([("A", H8, 10), ("A", H9, 20)], [("A", H8, 12), ("A", H9, 5)]):
            with pytest.raises(DataError, match=re.escape(message)):
                dataclasses.replace(table, hours=hours)

    def test_repeated_node_name_rejected(self):
        _, routing = tables([("A", H8, 10)], [("A", H8, 12), ("B", H8, 5)])
        with pytest.raises(DataError, match=re.escape("node name 'A' is listed twice in the table's nodes")):
            dataclasses.replace(routing, nodes=("A", "A"))

    @pytest.mark.parametrize(("which", "column", "value", "message"), [
        ("tollbooth", "hour", np.array([0, 7]), "row 1: hour code is outside its table of 2"),
        ("tollbooth", "hour", np.array([-1, 0]), "row 0: hour code is outside its table of 2"),
        ("tollbooth", "hour", np.array([0.0, 1.0]), "column 'hour' must hold integer codes, got float64"),
        ("tollbooth", "hour", np.array([[0, 1]]), "column 'hour' must be a 1-D numpy array, got ndarray of shape (1, 2)"),
        ("tollbooth", "series", np.array([0, 3]), "row 1: series code is outside its table of 1"),
        ("tollbooth", "series", [0, 0], "column 'series' must be a numpy array of shape (2,), got list of shape (2,)"),
        ("tollbooth", "total", np.array([1.0, 2.0, 3.0]), "column 'total' must be a numpy array of shape (2,), got ndarray of shape (3,)"),
        ("tollbooth", "counts", np.zeros((2, 5)), "column 'counts' must be a numpy array of shape (2, 6), got ndarray of shape (2, 5)"),
        ("routing", "hour", np.array([0, 2]), "row 1: hour code is outside its table of 2"),
        ("routing", "node", np.array([0, 1]), "row 1: node code is outside its table of 1"),
        ("routing", "tag", np.array([0, 3]), "row 1: tag code is outside its table of 3"),
        ("routing", "flow", np.array([5.0]), "column 'flow' must be a numpy array of shape (2,), got ndarray of shape (1,)"),
        ("routing", "censored", np.array([False]), "column 'censored' must be a numpy array of shape (2,), got ndarray of shape (1,)"),
        ("routing", "censored", np.array([0, 1]), "column 'censored' must hold booleans, got int64"),
        ("tollbooth", "counts", np.ones((2, 6)), "column 'counts' must hold int64 counts, got float64"),
        ("tollbooth", "total", np.array([10.0, 20.0]), "column 'total' must hold int64 counts, got float64"),
        ("routing", "flow", np.array([12.0, 5.0]), "column 'flow' must hold int64 counts, got float64"),
        ("routing", "flow", np.array([12, 5], dtype=np.int32), "column 'flow' must hold int64 counts, got int32"),
    ], ids=["hour-past-table", "hour-negative", "hour-float", "hour-2d", "series-past-table", "series-list",
            "total-length", "counts-width", "routing-hour", "node", "tag", "flow-length", "censored-length",
            "censored-int", "counts-float", "total-float", "flow-float", "flow-int32"])
    def test_shape_and_codes_checked(self, which, column, value, message):
        tables_by_name = dict(zip(("tollbooth", "routing"), tables([("A", H8, 10), ("A", H9, 20)],
                                                                    [("A", H8, 12), ("A", H9, 5)])))
        with pytest.raises(DataError, match=re.escape(message)):
            dataclasses.replace(tables_by_name[which], **{column: value})

    def test_replace_into_a_repeated_row_rejected(self):
        tollbooth, routing = tables([("A", H8, 10), ("A", H9, 20)], [("A", H8, 12), ("B", H8, 5)])
        with pytest.raises(DataError, match=re.escape("duplicate tollbooth series 'A' at 2023-11-06T09:00")):
            dataclasses.replace(tollbooth, hour=np.array([1, 1]))
        with pytest.raises(DataError, match=re.escape("duplicate routing row for node 'A' at 2023-11-06T08:00")):
            dataclasses.replace(routing, node=np.array([0, 0]))
        with pytest.raises(DataError, match="row 0: people_flow must be finite and non-negative"):
            dataclasses.replace(routing, flow=np.array([-1, 5]))

    def test_counts_from_2_63_are_refused_by_from_rows(self):
        hours = [make_hour_key(h) for h in (H8, H9, H10)]
        for big in (2**63, 1e19):
            with pytest.raises(DataError, match=re.escape("row 1: counts and total must be below 2**63")):
                TollboothTable.from_rows(hours, [("A", Direction.UNDIRECTED)] * 3,
                                         [[1] * 7, [2**63 - 1, 0, 0, 0, 0, 0, big], [big] * 7])
            with pytest.raises(DataError, match=re.escape("row 1: people_flow must be below 2**63")):
                RoutingTable.from_rows(hours, ["A"] * 3, [10, big, big], [RoadTag.PRIMARY] * 3, [False] * 3)
        # Nor can a column hold such a value: an int64 column holds none, and any other dtype is refused.
        tollbooth, routing = tables([("A", H8, 10), ("A", H9, 20)], [("A", H8, 12), ("A", H9, 5)])
        with pytest.raises(DataError, match=re.escape("column 'total' must hold int64 counts, got uint64")):
            dataclasses.replace(tollbooth, total=np.array([10, 2**63], dtype=np.uint64))
        with pytest.raises(DataError, match=re.escape("column 'flow' must hold int64 counts, got float64")):
            dataclasses.replace(routing, flow=np.array([12, 1e19]))


class TestRowsAt:
    def test_names_and_hours_the_table_lacks_give_minus_one(self):
        _, routing = tables([("A", H8, 10)], [("A", H8, 12), ("B", H9, 5), ("A", H9, 7)])
        rows = routing.rows_at(["B", "C", "A"], np.array([H9, H10, H8, H9, "2023-11-06T07"], dtype="datetime64[h]"))
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1, -1, -1, 1, -1], [-1, -1, -1, -1, -1], [2, -1, 0, 2, -1]]
        assert routing.rows_at([], np.array([H8], dtype="datetime64[h]")).shape == (0, 1)
        assert routing.rows_at(["A", "B"], np.array([], dtype="datetime64[h]")).shape == (2, 0)
        empty = take_rows(routing, [])
        assert empty.rows_at(["A"], np.array([H8], dtype="datetime64[h]")).tolist() == [[-1]]

    def test_hours_match_by_timestamp_across_tables(self):
        rng = np.random.default_rng(3)
        _, routing = generate_synthetic(grid_network(n_stations=2, n_dest=2), 1, identity_profile())
        shuffled = take_rows(routing, rng.permutation(len(routing)))
        assert not np.array_equal(shuffled.hours, routing.hours)
        names = [*routing.nodes, "elsewhere"]
        rows = shuffled.rows_at(names, routing.hours)
        assert rows.shape == (len(names), len(routing.hours))
        for (i, j), row in np.ndenumerate(rows):
            original = routing.rows_at([names[i]], routing.hours[j:j + 1])[0, 0]
            assert (row < 0) == (original < 0)
            if row >= 0:
                assert shuffled[row] == routing[original]
        assert (rows >= 0).sum() == len(routing)

    def test_tollbooth_rows_by_count_key(self):
        h8, h9 = (make_hour_key(h) for h in (H8, H9))
        tollbooth = TollboothTable.from_rows(
            [h9, h8, h9, h8],
            [("ØstreRosten", Direction.INBOUND), ("ØstreRosten", Direction.OUTBOUND),
             ("ØstreRosten", Direction.OUTBOUND), ("E6-Klett", Direction.UNDIRECTED)],
            [[n, 0, 0, 0, 0, 0, n] for n in (1, 2, 3, 4)])
        rows = tollbooth.rows_at(["ØstreRosten|Outbound", "ØstreRosten", "E6-Klett", "ØstreRosten|Inbound"],
                                 np.array([H8, H9, H10], dtype="datetime64[h]"))
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1, 2, -1], [-1, -1, -1], [3, -1, -1], [-1, 0, -1]]
        assert tollbooth.rows_at([], np.array([H8], dtype="datetime64[h]")).shape == (0, 1)
        assert tollbooth.rows_at(["E6-Klett"], np.array([], dtype="datetime64[h]")).shape == (1, 0)

    def test_tollbooth_hours_match_by_timestamp_across_tables(self):
        rng = np.random.default_rng(5)
        tollbooth, _ = generate_synthetic(trondheim_fixture(), 1, identity_profile())
        shuffled = take_rows(tollbooth, rng.permutation(len(tollbooth)))
        assert not np.array_equal(shuffled.hours, tollbooth.hours)
        keys = [*tollbooth.count_keys(), "ØstreRosten", "elsewhere"]
        assert "ØstreRosten|Inbound" in keys
        rows = shuffled.rows_at(keys, tollbooth.hours)
        assert rows.shape == (len(keys), len(tollbooth.hours))
        for (i, j), row in np.ndenumerate(rows):
            original = tollbooth.rows_at([keys[i]], tollbooth.hours[j:j + 1])[0, 0]
            assert (row < 0) == (original < 0)
            if row >= 0:
                assert shuffled[row] == tollbooth[original]
        assert (rows >= 0).sum() == len(tollbooth)


class TestJoinParity:
    """The column join against the per-pair join, on rows shuffled, thinned
    and mixed with reports of nodes no station counts."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dataset_and_differences_match_per_pair_join(self, seed):
        rng = np.random.default_rng(seed)
        net = grid_network(n_stations=3, n_dest=2)
        profile = BiasProfile(gains={tag: 1.2 for tag in RoadTag}, noise_scale=0.3, censor_threshold=70, seed=seed)
        tb, rt = generate_synthetic(net, 2, profile)
        tb_rows = rng.permutation(len(tb))[: int(len(tb) * rng.uniform(0.5, 1.0))]
        rt_rows = rng.permutation(len(rt))[: int(len(rt) * rng.uniform(0.5, 1.0))]
        tb, rt = take_rows(tb, tb_rows), take_rows(rt, rt_rows)
        X, Y, node_keys, hours, split_index = reference_dataset(tb, rt, 0.3)
        ds = build_dataset(tb, rt, 0.3)
        assert np.array_equal(ds.X, X) and np.array_equal(ds.Y, Y)
        assert (ds.node_keys, ds.split_index) == (node_keys, split_index)
        assert ds.hours.dtype == hours.dtype and np.array_equal(ds.hours, hours)
        assert difference_series(tb, rt) == reference_difference_series(tb, rt)

    def test_first_duplicate_routing_row_is_named(self):
        rt_a, rt_b = ("A", H8, 12), ("B", H9, 22)
        with pytest.raises(DataError, match="duplicate routing row for node 'B' at 2023-11-06T09:00"):
            build_dataset(*tables([("A", H8, 10), ("B", H9, 20)], [rt_b, rt_a, rt_b, rt_a]))


# Text pools for generated CSV files: canonical hours from the years 1 to
# 9999, one hour in four text forms, names that carry a direction, counts
# near 2**53 (where float64 would round) and of 17 or 18 digits, and per column
# the malformed values a corrupted row gets, among them canonical-looking
# hours that are no hour. Half the files are canonical, so that the byte
# scan reads them when they are valid; the rest can also draw a name that
# needs quoting, counts that int() reads but the scan leaves to the per-row
# reader, and blank lines. Half the files draw only canonical hours, which
# the scan parses as one vector; the rest also draw the other spellings,
# which the scan leaves to the per-row reader.
_CANONICAL_TIMESTAMPS = ["2023-11-06T08:00", "2023-11-06T09:00", "2023-11-11T23:00", "2024-02-29T00:00",
                         "0001-01-01T00:00", "0999-12-31T23:00", "9999-12-31T23:00"]
_TIMESTAMPS = _CANONICAL_TIMESTAMPS + ["2023-11-06 08:00", "2023-11-06T08", "2023-11-06T08:00:00"]
_STATIONS = ["E6-Klett", "ØstreRosten"]
_DIRECTIONS = ["Inbound", "Outbound", "Undirected"]
_NODES = ["Brøttemsvegen", "ØstreRosten|Inbound", "E6-Klett"]
_TAGS = ["Primary", "Trunk", "Secondary"]
_QUOTED_NAME = 'Gate, "7"'
_CANONICAL_COUNTS = st.one_of(st.integers(0, 10**7), st.integers(2**53 - 2, 2**53 + 2),
                              st.integers(10**16, 10**18 - 1)).map(str) | st.sampled_from(["0", "007"])
_LENIENT_COUNTS = st.sampled_from([" 7", "1_000", "+5", "٣", str(10**18), str(2**63 - 1)])
_BAD_TIMESTAMPS = ["2023-11-06T08:30", "nonsense", "", "2023-02-29T00:00", "2023-11-06T24:00", "2023-13-01T00:00",
                   "0000-01-01T00:00"]
_BAD_COUNTS = ["-1", "", "x", "1.5", str(2**63), str(2**63 + 1)]


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


def _respelt(draw, rows):
    """A third of the tollbooth files gain a row, anywhere and at any hour,
    that spells a directed row's series as its count key, undirected
    (``A|Inbound,Undirected`` for ``A,Inbound``): the table rejects the file."""
    directed = [row for row in rows if row[2] != "Undirected"]
    if directed and draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(directed))
        respelt = [draw(st.sampled_from(_TIMESTAMPS)), f"{row[1]}|{row[2]}", "Undirected", *row[3:]]
        rows.insert(draw(st.integers(0, len(rows))), respelt)
    return rows


def _file_text(draw, header, columns, bad_values, canonical, key, respell=lambda draw, rows: rows):
    rows = [[draw(column) for column in columns] for _ in range(draw(st.integers(0, 12)))]
    if draw(st.booleans()):
        # Half the files keep the first row of each key: a file of many rows
        # drawn at random almost always repeats one, which the table rejects.
        distinct = {}
        for row in rows:
            distinct.setdefault(key(row), row)
        rows = list(distinct.values())
    rows = _corrupted(draw, respell(draw, rows), bad_values)
    blank_after = set() if canonical else draw(st.sets(st.integers(0, 12), max_size=3))
    return _csv_text(header, rows, blank_after, draw(st.booleans()), draw(st.booleans()))


def _timestamps(draw):
    return st.sampled_from(_CANONICAL_TIMESTAMPS if draw(st.booleans()) else _TIMESTAMPS)


@st.composite
def tollbooth_files(draw):
    canonical = draw(st.booleans())
    counts = _CANONICAL_COUNTS if canonical else _CANONICAL_COUNTS | _LENIENT_COUNTS
    columns = [_timestamps(draw), st.sampled_from(_STATIONS + ([] if canonical else [_QUOTED_NAME])),
               st.sampled_from(_DIRECTIONS)]
    columns += [counts] * 7
    bad = [_BAD_TIMESTAMPS, [""], ["Sideways", "inbound"]] + [_BAD_COUNTS] * 7
    return _file_text(draw, TOLLBOOTH_HEADER.split(","), columns, bad, canonical,
                      lambda row: (make_hour_key(row[0]), row[1], row[2]), _respelt)


@st.composite
def routing_files(draw):
    canonical = draw(st.booleans())
    counts = _CANONICAL_COUNTS if canonical else _CANONICAL_COUNTS | _LENIENT_COUNTS
    columns = [_timestamps(draw), st.sampled_from(_NODES + ([] if canonical else [_QUOTED_NAME])),
               st.just("<T") | counts, st.sampled_from(_TAGS)]
    bad = [_BAD_TIMESTAMPS, [""], _BAD_COUNTS + ["<t"], ["Motorway", ""]]
    return _file_text(draw, ["timestamp", "node", "people_flow", "road_tag"], columns, bad, canonical,
                      lambda row: (make_hour_key(row[0]), row[1]))


def _outcome(read, path):
    try:
        rows = read(path)
    except DataError as exc:
        return "DataError", str(exc)
    observations = list(rows)
    if isinstance(rows, (TollboothTable, RoutingTable)):
        # Code tables hold each distinct hour (by timestamp) and series or
        # node once, in order of first appearance.
        assert rows.hours.tolist() == list(dict.fromkeys(o.hour.timestamp for o in observations))
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
    @given(text=tollbooth_files())
    def test_tollbooth_reader_matches_per_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("parity") / "tollbooth.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_tollbooth_csv, path) == _outcome(reference_read_tollbooth_csv, path)

    @_FUZZ
    @given(text=routing_files())
    def test_routing_reader_matches_per_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("parity") / "routing.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_routing_csv, path) == _outcome(reference_read_routing_csv, path)

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


def _table_or_error(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


class TestByteScan:
    """The byte scan against the per-row reader: canonical files take the
    scan and give the same tables; every other file declines it and reads
    exactly as the per-row reader reads it."""

    @pytest.mark.parametrize("days", [30, 56])
    @pytest.mark.parametrize("which", ["tollbooth", "routing"])
    def test_synth_output_takes_the_scan(self, synth_output, days, which):
        scan, read_rows, _ = _READERS[which]
        path = synth_output[days] / f"{which}.csv"
        table = scan(path)
        assert table is not None
        assert_tables_equal(table, read_rows(path))

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
        table = scan(path)
        assert table is not None
        assert_tables_equal(table, read_rows(path))
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
            assert_tables_equal(scan(path), read_rows(path))

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
        assert scan(path) is None
        expected, outcome = _table_or_error(read_rows, path), _table_or_error(read, path)
        if isinstance(expected, str):
            assert outcome == expected
        else:
            assert_tables_equal(outcome, expected)

    # Each form replaces the second row's hour, 2023-11-06T09:00. Canonical
    # texts of real hours are parsed as one vector, without make_hour_key.
    # Other spellings, the first row's hour spelt another way among them,
    # decline the scan and read through the per-row reader ("per-text");
    # canonical-looking texts of no hour decline it and raise its message.
    @pytest.mark.parametrize(("form", "path"), [
        ("2023-11-06T05:00", "vector"), ("2023-11-06T08:00", "vector"), ("2024-02-29T00:00", "vector"),
        ("0001-01-01T00:00", "vector"), ("0999-12-31T23:00", "vector"), ("9999-12-31T23:00", "vector"),
        ("2023-11-06 05:00", "per-text"), ("2023-11-06T05", "per-text"), ("2023-11-06T05:00:00", "per-text"),
        ("2023-11-06 08:00", "per-text"),
        ("2023-02-29T00:00", "declined"), ("2023-11-06T24:00", "declined"), ("2023-11-06T05:30", "declined"),
        ("2023-13-01T00:00", "declined"), ("0000-01-01T00:00", "declined"),
    ])
    @pytest.mark.parametrize("which", ["tollbooth", "routing"])
    def test_timestamp_forms_read_as_per_row(self, tmp_path, which, form, path):
        scan, read_rows, read = _READERS[which]
        file = tmp_path / f"{which}.csv"
        file.write_text("\r\n".join(self._ROWS[which]).replace("2023-11-06T09:00", form) + "\r\n",
                        encoding="utf-8", newline="")
        expected = _table_or_error(read_rows, file)
        if path == "declined":
            assert scan(file) is None
            assert isinstance(expected, str) and _table_or_error(read, file) == expected
            return
        with mock.patch.object(ingest, "make_hour_key", wraps=make_hour_key) as parse:
            table = scan(file)
        if path == "vector":
            assert table is not None and not parse.called
            assert_tables_equal(table, expected)
        else:
            assert table is None
        table = read(file)
        assert_tables_equal(table, expected)
        assert table.hours.tolist() == list(dict.fromkeys(o.hour.timestamp for o in expected))

    @pytest.mark.parametrize(("which", "row", "message"), [
        ("tollbooth", "2023-11-06T08:00,E6-Klett,Inbound,1,0,0,0,0,0,1",
         "duplicate tollbooth series 'E6-Klett|Inbound' at 2023-11-06T08:00"),
        ("routing", "2023-11-06T08:00,E6-Klett,5,Primary", "duplicate routing row for node 'E6-Klett' at 2023-11-06T08:00"),
        ("tollbooth", "2023-11-06T10:00,E6-Klett|Inbound,Undirected,1,0,0,0,0,0,1",
         "tollbooth series ('E6-Klett', Inbound) and ('E6-Klett|Inbound', Undirected) share count key 'E6-Klett|Inbound'"),
    ], ids=["tollbooth", "routing", "respelt-series"])
    def test_repeated_row_declines_and_raises_the_table_message(self, tmp_path, which, row, message):
        scan, read_rows, read = _READERS[which]
        path = tmp_path / f"{which}.csv"
        path.write_text("\r\n".join(self._ROWS[which] + [row]) + "\r\n", encoding="utf-8", newline="")
        assert scan(path) is None
        assert _table_or_error(read_rows, path) == _table_or_error(read, path) == f"{path}: {message}"

    @pytest.mark.parametrize("width", [255, 256, 257, 5000])
    def test_wide_last_name_takes_the_scan(self, tmp_path, width):
        path = tmp_path / "routing.csv"
        rows = self._ROWS["routing"]
        path.write_text("\r\n".join(rows[:-1] + [rows[-1].replace("ØstreRosten", "N" * width)]) + "\r\n",
                        encoding="utf-8", newline="")
        table = _scan_routing_csv(path)
        assert table is not None and table.nodes[-1] == "N" * width
        assert_tables_equal(table, _read_routing_rows(path))

    def test_field_beyond_the_csv_field_limit_declines(self, tmp_path):
        path = tmp_path / "routing.csv"
        path.write_text("\r\n".join(self._ROWS["routing"]).replace("ØstreRosten", "N" * 101) + "\r\n",
                        encoding="utf-8", newline="")
        limit = csv.field_size_limit(100)
        try:
            assert _scan_routing_csv(path) is None
            with pytest.raises(DataError, match="field larger than field limit"):
                read_routing_csv(path)
        finally:
            csv.field_size_limit(limit)

    def test_missing_file_declines(self, tmp_path):
        assert _scan_tollbooth_csv(tmp_path / "absent.csv") is None
        assert _scan_routing_csv(tmp_path) is None  # a directory


class TestWholeCounts:
    """Counts, totals and flows stay int64 from file to table to file: exact
    past 2**53, where float64 would round, up to 2**63 - 1. The row views
    carry them as Python ints."""

    @staticmethod
    def _text(which, count):
        if which == "tollbooth":
            return f"{TOLLBOOTH_HEADER}\r\n2023-11-06T08:00,E6-Klett,Inbound,{count},23,31,12,18,4,{count}\r\n"
        return f"timestamp,node,people_flow,road_tag\r\n2023-11-06T08:00,E6-Klett,{count},Primary\r\n"

    # A canonical count of up to 18 digits takes the byte scan, and a quoted
    # station or node name, or a count of 19 digits, the per-row reader.
    @pytest.mark.parametrize("count", [2**53 + 1, 2**63 - 1])
    @pytest.mark.parametrize("form", ["canonical", "quoted"])
    @pytest.mark.parametrize("which", ["tollbooth", "routing"])
    def test_count_reads_exactly_and_writes_back_byte_for_byte(self, tmp_path, which, form, count):
        scan, read_rows, read = _READERS[which]
        text = self._text(which, count)
        path = tmp_path / f"{which}.csv"
        path.write_text(text if form == "canonical" else text.replace("E6-Klett", '"E6-Klett"'),
                        encoding="utf-8", newline="")
        table = read(path)
        assert (scan(path) is not None) == (form == "canonical" and count < 10**18)
        assert_tables_equal(table, read_rows(path))
        for column in ((table.counts[:, 0], table.total) if which == "tollbooth" else (table.flow,)):
            assert column.dtype == np.int64 and column.tolist() == [count]
        write = write_tollbooth_csv if which == "tollbooth" else write_routing_csv
        write(tmp_path / "written.csv", table)
        assert (tmp_path / "written.csv").read_bytes() == text.encode()

    # 2**53 + 1 in c_under5_6 and total, or in people_flow, which float64 rounds to 2**53.
    @pytest.mark.parametrize("form", ["canonical", "quoted"])
    @pytest.mark.parametrize("which", ["tollbooth", "routing"])
    def test_row_views_carry_the_count_as_an_int(self, tmp_path, which, form):
        scan, _, read = _READERS[which]
        text = self._text(which, 2**53 + 1)
        path = tmp_path / f"{which}.csv"
        path.write_text(text if form == "canonical" else text.replace("E6-Klett", '"E6-Klett"'),
                        encoding="utf-8", newline="")
        table = read(path)
        assert (scan(path) is not None) == (form == "canonical")
        if which == "tollbooth":
            values = [table[0].counts.total, table[0].counts.counts[CATEGORY_ORDER[0]]]
        else:
            values = [table[0].people_flow]
        assert all(type(value) is int and value == 2**53 + 1 for value in values)

    @pytest.mark.parametrize("form", ["canonical", "quoted"])
    @pytest.mark.parametrize(("which", "field"), [("tollbooth", "c_under5_6"), ("routing", "people_flow")])
    def test_count_of_2_63_is_too_large(self, tmp_path, which, field, form):
        scan, _, read = _READERS[which]
        text = self._text(which, 2**63)
        path = tmp_path / f"{which}.csv"
        path.write_text(text if form == "canonical" else text.replace("E6-Klett", '"E6-Klett"'),
                        encoding="utf-8", newline="")
        assert scan(path) is None
        reference = reference_read_tollbooth_csv if which == "tollbooth" else reference_read_routing_csv
        for reader in (read, reference):
            with pytest.raises(DataError, match=re.escape(f"{path}: count too large at line 2, field {field!r}")):
                reader(path)
