import csv
import dataclasses
import re
import warnings
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odfuse.core import (
    CATEGORY_ORDER,
    Direction,
    RoadTag,
    RoutingTable,
    TollboothTable,
    VehicleType,
    make_hour_key,
)
from odfuse.core import write_csv
from odfuse import core, routing
from odfuse.errors import DataError, InternalError
from odfuse.fusion import FusionModel, GbtHyperparams, predict_matrix, train
from odfuse.ingest import (FEATURE_NAMES, TARGET_NAMES, BiasProfile, build_dataset, feature_matrix, generate_synthetic,
                           read_tollbooth_csv, write_tollbooth_csv)
from odfuse.network import (
    BoundaryConfig,
    BoundaryDirection,
    NetworkConfig,
    PassthroughPair,
    RampConfig,
    trondheim_fixture,
)
from odfuse.routing import (
    FlowDecision,
    JointDistribution,
    Scenario,
    _apportion,
    _composite_key,
    _consume,
    _distinct_rows,
    build_od_matrix,
    conservation_violations,
    decide_flows,
    distribute,
    joint_from_predictions,
    largest_remainder,
    marginals,
    write_ledger_csv,
    write_od_csv,
)

from _helpers import (
    check_routing_files,
    destination,
    expected_hour_total,
    make_tree,
    minimax_apportionment,
    pair_only_network,
    ramp_network,
    reference_features,
    reference_decide_flows,
    reference_largest_remainder,
    reference_route,
    station,
    take_rows,
    target_model,
)

HOUR = make_hour_key("2025-01-30T17:00")

C1, C2, C3 = CATEGORY_ORDER[0], CATEGORY_ORDER[1], CATEGORY_ORDER[2]


def worked_example_joint(hour=HOUR) -> JointDistribution:
    """Worked-example joint: Brøttemsvegen 0.3 (22/5/3 mix), Heimsdalvegen
    0.2, a third destination absorbing the remaining half, so 100 net
    vehicles send 50 to the {Brøttemsvegen, Heimsdalvegen} subset split
    60/40 after renormalization."""
    return JointDistribution(
        hour=hour,
        mass={
            ("Brøttemsvegen", C1): 0.22,
            ("Brøttemsvegen", C2): 0.05,
            ("Brøttemsvegen", C3): 0.03,
            ("Heimsdalvegen", C1): 0.20,
            ("Industripark", C1): 0.50,
        },
    )


class TestLargestRemainder:
    def test_exact_quotas(self):
        assert largest_remainder(10, [0.5, 0.5]) == [5, 5]

    def test_worked_example_split(self):
        assert largest_remainder(50, [0.6, 0.4]) == [30, 20]

    def test_three_way_against_minimax_oracle(self):
        weights = [0.4, 0.35, 0.25]
        got = largest_remainder(7, weights)
        assert got == [3, 2, 2]
        assert got == minimax_apportionment(7, weights)

    def test_remainder_tie_prefers_larger_weight(self):
        # quotas 1.5 / 1.0 / 0.5: the two .5 remainders tie, weight wins
        assert largest_remainder(3, [0.5, 1 / 3, 1 / 6]) == [2, 1, 0]

    def test_all_equal_tie_prefers_earlier_index(self):
        assert largest_remainder(2, [0.25, 0.25, 0.25, 0.25]) == [1, 1, 0, 0]

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(DataError, match="sum"):
            largest_remainder(5, [0.5, 0.4])

    def test_zero_total(self):
        assert largest_remainder(0, [0.3, 0.7]) == [0, 0]

    def test_drift_from_inexact_weights_is_a_data_error(self):
        # The weights pass the 1e-9 sum tolerance, but the total scales
        # their 1e-10 excess into a whole unit too many.
        with pytest.raises(DataError, match=r"total 10000000000 by weights summing to 1\.0000000001"):
            largest_remainder(10**10, [0.5, 0.5 + 1e-10])

    def test_total_beyond_the_exact_bound_is_a_data_error(self):
        # 0.1 + 0.2 + 0.7 is exactly 1.0 in float64, yet the quotas of 2**62
        # drift through float64 rounding, and the floors of 2**63 - 1 sum past int64.
        for total, weights in [(2**62, [0.1, 0.2, 0.7]), (2**63 - 1, [0.5, 0.5]), (2**53 // 10 + 1, [0.1, 0.2, 0.7]),
                               (-5, [0.5, 0.5])]:
            limit = 2**53 // (2 * (len(weights) + 2))
            message = f"total must be a non-negative integer of at most {limit}, the largest split exactly over " \
                      f"{len(weights)} weights, got {total!r}"
            with pytest.raises(DataError, match=re.escape(message)):
                largest_remainder(total, weights)

    def test_total_at_the_exact_bound_sums_exactly(self):
        limit = 2**53 // 10
        assert sum(largest_remainder(limit, [0.1, 0.2, 0.7])) == limit

    @pytest.mark.parametrize("total", [2**63, 2**70, -2**70, float("inf"), float("nan")])
    def test_total_outside_int64_is_a_data_error(self, total):
        message = f"total must be a non-negative integer of at most {2**53 // 8}, the largest split exactly over " \
                  f"2 weights, got {total!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            largest_remainder(total, [0.5, 0.5])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100000),
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=50),
    )
    def test_sum_exact_and_quota_rule(self, total, raw):
        weights = [w / sum(raw) for w in raw]
        result = largest_remainder(total, weights)
        assert sum(result) == total
        for r, w in zip(result, weights):
            q = total * w
            assert np.floor(q) <= r <= np.ceil(q)


class TestJointAndMarginals:
    def test_single_destination_normalization(self):
        joint = joint_from_predictions(HOUR, ["A"], np.array([[90.0, 0, 10.0, 0, 0, 0]]), [False])
        assert joint.mass[("A", C1)] == pytest.approx(0.9)
        assert joint.mass[("A", C3)] == pytest.approx(0.1)
        assert sum(joint.mass.values()) == pytest.approx(1.0, abs=1e-9)

    def test_identical_predictions_split_evenly(self):
        preds = np.array([[50.0, 10, 0, 0, 0, 0], [50.0, 10, 0, 0, 0, 0]])
        joint = joint_from_predictions(HOUR, ["A", "B"], preds, [False, False])
        marg = marginals(joint)
        assert marg.global_by_destination["A"] == pytest.approx(0.5)
        assert marg.global_by_destination["B"] == pytest.approx(0.5)

    def test_all_censored_falls_back_to_uniform(self):
        preds = np.array([[50.0, 0, 0, 0, 0, 0], [30.0, 0, 0, 0, 0, 0]])
        joint = joint_from_predictions(HOUR, ["A", "B"], preds, [True, True])
        assert joint.fallback_uniform
        assert all(v == pytest.approx(1 / 12) for v in joint.mass.values())

    def test_negative_predictions_clamped(self):
        preds = np.array([[100.0, -50.0, 0, 0, 0, 0]])
        joint = joint_from_predictions(HOUR, ["A"], preds, [False])
        assert joint.mass[("A", C2)] == 0.0

    def test_marginals_mixed(self):
        joint = JointDistribution(
            hour=HOUR, mass={("A", C1): 0.3, ("A", C2): 0.3, ("B", C1): 0.4}
        )
        marg = marginals(joint)
        assert marg.global_by_destination == pytest.approx({"A": 0.6, "B": 0.4})
        assert marg.per_destination["A"][C1] == pytest.approx(0.5)
        assert marg.per_destination["A"][C2] == pytest.approx(0.5)
        assert marg.per_destination["B"][C1] == pytest.approx(1.0)

    def test_zero_marginal_destination_flagged_uniform(self):
        joint = JointDistribution(hour=HOUR, mass={("A", C1): 1.0, ("B", C1): 0.0})
        marg = marginals(joint)
        assert marg.uniform_category_destinations == ("B",)
        assert marg.per_destination["B"][C3] == pytest.approx(1 / 6)

    def test_mass_must_sum_to_one(self):
        with pytest.raises(DataError, match="sums"):
            JointDistribution(hour=HOUR, mass={("A", C1): 0.5})

    def test_subset_renormalization_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            raw = rng.random(5) + 1e-3
            names = list("ABCDE")
            mass = {(n, C1): float(v / raw.sum()) for n, v in zip(names, raw)}
            joint = JointDistribution(hour=HOUR, mass=mass)
            marg = marginals(joint)
            small = ["A", "B"]
            big = ["A", "B", "C"]
            share_small = marg.global_by_destination["A"] / sum(
                marg.global_by_destination[d] for d in small
            )
            share_big = marg.global_by_destination["A"] / sum(
                marg.global_by_destination[d] for d in big
            )
            assert share_big <= share_small + 1e-12


class TestDecideFlows:
    def test_500_400_worked_example(self):
        net = pair_only_network()
        counts = {"E6-Klett": 500, "Storlersbakken-Trondheim": 400}
        decisions, events = decide_flows(net, counts, HOUR)
        by_scenario = {d.scenario: d for d in decisions}
        net_d = by_scenario[Scenario.PASSTHROUGH_NET]
        bypass = by_scenario[Scenario.PASSTHROUGH_BYPASS]
        assert net_d.volume == 100
        assert net_d.direction == "northbound:inflow"
        assert net_d.origin == "E6-Klett"
        assert bypass.volume == 400
        assert bypass.eligible_destinations == ("Storlersbakken-Trondheim",)
        balance = [e for e in events if e.entry_type == "balance"][0]
        assert balance.amount == 500

    def test_balanced_pair(self):
        net = pair_only_network()
        counts = {"E6-Klett": 250, "Storlersbakken-Trondheim": 250}
        decisions, _ = decide_flows(net, counts, HOUR)
        by_scenario = {d.scenario: d for d in decisions}
        assert by_scenario[Scenario.PASSTHROUGH_NET].volume == 0
        assert by_scenario[Scenario.PASSTHROUGH_BYPASS].volume == 250

    def test_downstream_heavy_pair_is_outflow(self):
        net = pair_only_network()
        counts = {"E6-Klett": 300, "Storlersbakken-Trondheim": 420}
        decisions, _ = decide_flows(net, counts, HOUR)
        net_d = next(d for d in decisions if d.scenario is Scenario.PASSTHROUGH_NET)
        assert net_d.volume == 120
        assert net_d.reversed_roles
        assert net_d.origin == "Storlersbakken-Trondheim"
        assert net_d.direction == "northbound:outflow"

    def test_internal_consumes_ramp_before_local(self):
        net = ramp_network()
        counts = {
            "Boundary|Inbound": 80,
            "Boundary|Outbound": 50,
            "Onramp": 80,
            "Offramp": 30,
        }
        decisions, events = decide_flows(net, counts, HOUR)
        by_scenario = {d.scenario: d for d in decisions}
        internal = by_scenario[Scenario.INTERNAL]
        assert internal.volume == 30
        assert internal.direction == "eastbound"
        assert internal.eligible_destinations == ("East-A", "East-B")
        assert by_scenario[Scenario.LOCAL_INFLOW].volume == 50
        assert by_scenario[Scenario.LOCAL_OUTFLOW].volume == 30
        assert by_scenario[Scenario.LOCAL_OUTFLOW].reversed_roles
        consumed = [e for e in events if e.entry_type == "consume"][0]
        assert (consumed.key, consumed.amount) == ("Onramp", 30)
        # conservation ledger: 30 internal + 50 in + 30 out
        balance = [e for e in events if e.entry_type == "balance"][0]
        assert balance.amount == 110
        assert balance.amount == expected_hour_total(net, counts)

    def test_westbound_consumes_offramp(self):
        net = ramp_network()
        counts = {
            "Boundary|Inbound": 40,
            "Boundary|Outbound": 65,
            "Onramp": 20,
            "Offramp": 70,
        }
        decisions, _ = decide_flows(net, counts, HOUR)
        by_scenario = {d.scenario: d for d in decisions}
        assert by_scenario[Scenario.INTERNAL].volume == 25
        assert by_scenario[Scenario.INTERNAL].direction == "westbound"
        assert by_scenario[Scenario.LOCAL_OUTFLOW].volume == 45
        assert by_scenario[Scenario.LOCAL_INFLOW].volume == 20

    def test_capped_consumption_is_flagged(self):
        net = ramp_network()
        counts = {
            "Boundary|Inbound": 200,
            "Boundary|Outbound": 50,
            "Onramp": 40,
            "Offramp": 10,
        }
        decisions, events = decide_flows(net, counts, HOUR)
        by_scenario = {d.scenario: d for d in decisions}
        assert by_scenario[Scenario.INTERNAL].volume == 150
        assert Scenario.LOCAL_INFLOW not in by_scenario  # onramp fully consumed
        consumed = [e for e in events if e.entry_type == "consume"][0]
        assert consumed.amount == 40
        assert consumed.flag == "capped"
        assert [e for e in events if e.entry_type == "balance"][0].amount == expected_hour_total(
            net, counts
        )

    def test_missing_counts_listed(self):
        net = pair_only_network()
        with pytest.raises(DataError, match="Storlersbakken-Trondheim"):
            decide_flows(net, {"E6-Klett": 10}, HOUR)

    def test_non_integer_count_rejected(self):
        net = pair_only_network()
        with pytest.raises(DataError, match="non-negative integer"):
            decide_flows(net, {"E6-Klett": 1.5, "Storlersbakken-Trondheim": 2}, HOUR)

    @pytest.mark.parametrize("count", [2**63, 2**70, float("inf"), float("nan")])
    def test_count_outside_int64_is_a_data_error(self, count):
        net = pair_only_network()
        k = max(len(net.destination_names()), len(CATEGORY_ORDER))
        message = f"count for 'E6-Klett' must be a non-negative integer of at most {count_bound(net)}, the largest " \
                  f"split exactly over {k} weights, got {count!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            decide_flows(net, {"E6-Klett": count, "Storlersbakken-Trondheim": 2}, HOUR)

    def test_count_above_the_bound_is_a_data_error(self):
        # At 2**63 - 1 one hour's decision volumes sum past int64 in its balance event.
        net = trondheim_fixture()
        counts = dict.fromkeys(net.referenced_count_keys(), 5)
        for count in (count_bound(net) + 1, 2**63 - 1):
            counts["ØstreRosten|Inbound"] = count
            with pytest.raises(DataError, match=re.escape(f"count for 'ØstreRosten|Inbound' must be a non-negative "
                                                          f"integer of at most {count_bound(net)}")):
                decide_flows(net, counts, HOUR)
        counts["ØstreRosten|Inbound"] = count_bound(net)
        _, events = decide_flows(net, counts, HOUR)
        assert events[-1].amount == expected_hour_total(net, counts)


class TestDistribute:
    def test_worked_example_destination_split(self):
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.PASSTHROUGH_NET,
            direction="northbound:inflow",
            volume=50,
            origin="E6-Klett",
            eligible_destinations=("Brøttemsvegen", "Heimsdalvegen"),
        )
        entries = distribute(decision, worked_example_joint())
        per_dest = {}
        for e in entries:
            per_dest[e.destination] = per_dest.get(e.destination, 0) + e.count
        assert per_dest == {"Brøttemsvegen": 30, "Heimsdalvegen": 20}

    def test_worked_example_category_breakdown(self):
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.PASSTHROUGH_NET,
            direction="northbound:inflow",
            volume=100,
            origin="E6-Klett",
            eligible_destinations=("Brøttemsvegen", "Heimsdalvegen", "Industripark"),
        )
        entries = distribute(decision, worked_example_joint())
        bro = {e.vehicle_type: e.count for e in entries if e.destination == "Brøttemsvegen"}
        assert bro == {
            VehicleType.PASSENGER_VEHICLE: 22,
            VehicleType.LIGHT_COMMERCIAL: 5,
            VehicleType.BUS_MEDIUM_TRUCK: 3,
        }
        assert sum(e.count for e in entries) == 100

    def test_zero_volume_no_entries(self):
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.LOCAL_INFLOW,
            direction="onramp:in",
            volume=0,
            origin="Onramp",
            eligible_destinations=("Brøttemsvegen",),
        )
        assert distribute(decision, worked_example_joint()) == []

    def test_bypass_single_aggregate_entry(self):
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.PASSTHROUGH_BYPASS,
            direction="northbound:bypass",
            volume=400,
            origin="E6-Klett",
            eligible_destinations=("Storlersbakken-Trondheim",),
        )
        entries = distribute(decision, worked_example_joint())
        assert len(entries) == 1
        assert entries[0].vehicle_type is VehicleType.ALL
        assert entries[0].count == 400
        assert entries[0].destination == "Storlersbakken-Trondheim"

    def test_reversed_roles_swap_origin_destination(self):
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.LOCAL_OUTFLOW,
            direction="offramp:out",
            volume=10,
            origin="Offramp",
            eligible_destinations=("Brøttemsvegen",),
            reversed_roles=True,
        )
        joint = JointDistribution(hour=HOUR, mass={("Brøttemsvegen", C1): 1.0})
        entries = distribute(decision, joint)
        assert entries[0].origin == "Brøttemsvegen"
        assert entries[0].destination == "Offramp"

    def test_zero_mass_subset_uniform_fallback(self):
        joint = JointDistribution(
            hour=HOUR, mass={("A", C1): 1.0, ("B", C1): 0.0, ("C", C1): 0.0}
        )
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.LOCAL_INFLOW,
            direction="onramp:in",
            volume=10,
            origin="Onramp",
            eligible_destinations=("B", "C"),
        )
        entries = distribute(decision, joint)
        per_dest: dict[str, int] = {}
        for e in entries:
            per_dest[e.destination] = per_dest.get(e.destination, 0) + e.count
        assert sum(per_dest.values()) == 10
        assert per_dest == {"B": 5, "C": 5}

    def test_unknown_destination_rejected(self):
        decision = FlowDecision(
            hour=HOUR,
            scenario=Scenario.LOCAL_INFLOW,
            direction="onramp:in",
            volume=10,
            origin="Onramp",
            eligible_destinations=("Nowhere",),
        )
        with pytest.raises(DataError, match="Nowhere"):
            distribute(decision, worked_example_joint())

    @pytest.mark.parametrize("volume", [2**62, 2**53 // 16 + 1, -5])
    def test_volume_beyond_the_exact_bound_is_a_data_error(self, volume):
        # The volume comes from the caller, so a bad one is a data error.
        decision = FlowDecision(hour=HOUR, scenario=Scenario.PASSTHROUGH_NET, direction="northbound:inflow",
                                volume=volume, origin="E6-Klett",
                                eligible_destinations=("Brøttemsvegen", "Heimsdalvegen", "Industripark"))
        message = f"decision volume must be a non-negative integer of at most {2**53 // 16}, the largest split " \
                  f"exactly over 6 weights, got {volume}"
        with pytest.raises(DataError, match=re.escape(message)):
            distribute(decision, worked_example_joint())


def destination_rows(net, hour, flows):
    """A routing table with one uncensored report per destination at ``hour``."""
    dests = net.destinations()
    return RoutingTable.from_rows([hour] * len(dests), [d.name for d in dests],
                                  [flows.get(d.name, 0.0) for d in dests], [d.road_tag for d in dests],
                                  [False] * len(dests))


@pytest.fixture(scope="module")
def trained_small():
    net = trondheim_fixture()
    profile = BiasProfile(
        gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7},
        noise_scale=0.1,
        censor_threshold=120,
        seed=23,
    )
    tb, rt = generate_synthetic(net, 2, profile)
    ds = build_dataset(tb, rt, 0.2)
    model = train(ds, GbtHyperparams(n_trees=15, max_depth=3))
    return net, model, tb, rt


class TestBuildOdMatrix:
    def test_full_run_conserves_every_hour(self, trained_small):
        net, model, tb, rt = trained_small
        run = build_od_matrix(net, model, tb, rt)
        assert conservation_violations(run) == []
        # independent recomputation from the raw counts
        counts_by_hour = {}
        for obs in tb:
            counts_by_hour.setdefault(obs.hour.timestamp, {})[obs.join_key()] = int(
                obs.counts.total
            )
        decided = {}
        for d in run.decisions:
            decided[d.hour.timestamp] = decided.get(d.hour.timestamp, 0) + d.volume
        for ts, counts in counts_by_hour.items():
            assert decided[ts] == expected_hour_total(net, counts)
        # the OD rows of every decision sum to its volume
        allocated = [0] * len(run.decisions)
        for k, n in zip(run.matrix.decision.tolist(), run.matrix.count.tolist()):
            allocated[k] += n
        assert allocated == [d.volume for d in run.decisions]

    def test_window_bounds_are_inclusive_and_none_is_open(self, trained_small):
        net, model, tb, rt = trained_small
        stamps = sorted(tb.hours.tolist())
        for start, end, routed in [(stamps[3], stamps[5], stamps[3:6]), (None, stamps[2], stamps[:3]),
                                   (stamps[-2], None, stamps[-2:]), (stamps[4], stamps[4], stamps[4:5]),
                                   (stamps[0] - timedelta(days=9), stamps[-1] + timedelta(days=9), stamps)]:
            run = build_od_matrix(net, model, tb, rt, start, end)
            assert run.decisions.hours.tolist() == routed
            assert set(run.decisions.hour.tolist()) == set(range(len(routed)))
            assert conservation_violations(run) == []

    @pytest.mark.parametrize("days", [(9, None), (None, -9), (1, -1)])
    def test_window_without_tollbooth_hours_is_a_data_error(self, trained_small, days):
        net, model, tb, rt = trained_small
        first, last = tb.hours.min().item(), tb.hours.max().item()
        start = None if days[0] is None else last + timedelta(days=days[0])
        end = None if days[1] is None else first + timedelta(days=days[1])
        with pytest.raises(DataError, match="^no tollbooth hours inside the requested simulation window$"):
            build_od_matrix(net, model, tb, rt, start, end)

    def test_header_only_tollbooth_routes_to_empty_tables(self, trained_small):
        net, model, tb, rt = trained_small
        run = build_od_matrix(net, model, take_rows(tb, []), rt)
        assert (len(run.matrix), len(run.decisions), len(run.ledger), len(run.decisions.hours)) == (0, 0, 0, 0)
        assert run.decisions.hours.dtype == np.dtype("datetime64[h]")
        with pytest.raises(DataError, match="no tollbooth hours inside"):
            build_od_matrix(net, model, take_rows(tb, []), rt, end=tb.hours[0])

    def test_table_with_an_hour_listed_twice_is_rejected_before_routing(self, trained_small):
        # The table rejects its own repeated hour before anything is routed.
        net, model, tb, rt = trained_small
        twice = np.append(tb.hours, tb.hours[0])
        row = np.flatnonzero(tb.hour == 1)[0]
        with pytest.raises(DataError, match=re.escape(f"hour {tb[0].hour.isoformat()} is listed twice in the "
                                                      "table's hours")):
            build_od_matrix(net, model, dataclasses.replace(
                tb, hours=twice, hour=np.where(np.arange(len(tb)) == row, len(tb.hours), tb.hour)), rt)

    @pytest.mark.parametrize("year", [1, 999, 9999])
    def test_four_digit_years_survive_the_route_writers(self, trained_small, tmp_path, year):
        net, model, tb, rt = trained_small
        shift = np.datetime64(f"{year:04d}-03-01T00", "h") - tb.hours.min()
        tb, rt = (dataclasses.replace(table, hours=table.hours + shift) for table in (tb, rt))
        run = build_od_matrix(net, model, tb, rt)
        write_od_csv(tmp_path / "od_matrix.csv", run.matrix)
        write_ledger_csv(tmp_path / "ledger.csv", run.ledger)
        write_tollbooth_csv(tmp_path / "tollbooth.csv", tb)
        check_routing_files(tmp_path, net)
        for name, items in (("od_matrix.csv", run.matrix.entries), ("ledger.csv", list(run.ledger))):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                stamps = [row[0] for row in list(csv.reader(fh))[1:]]
            assert stamps == [item.hour.isoformat() for item in items]
            assert stamps[0].startswith(f"{year:04d}-03-01T")
        assert np.array_equal(read_tollbooth_csv(tmp_path / "tollbooth.csv").hours, tb.hours)

    def test_entries_share_one_hour_key_per_hour(self, criterion7):
        run = build_od_matrix(*criterion7)
        with mock.patch.object(core, "make_hour_key", wraps=core.make_hour_key) as made:
            entries = run.matrix.entries + run.matrix.entries
        assert 0 < made.call_count <= len(run.matrix.hours) < len(entries)
        assert {id(e.hour) for e in entries} <= {id(key) for key in run.decisions.hour_keys}
        assert {id(d.hour) for d in run.decisions} <= {id(key) for key in run.decisions.hour_keys}

    def test_deterministic_od_csv(self, trained_small, tmp_path):
        net, model, tb, rt = trained_small
        for tag in ("a", "b"):
            run = build_od_matrix(net, model, tb, rt)
            write_od_csv(tmp_path / f"od_{tag}.csv", run.matrix)
        assert (tmp_path / "od_a.csv").read_bytes() == (tmp_path / "od_b.csv").read_bytes()

    def test_balanced_hour_emits_only_bypass(self):
        net = pair_only_network()
        hour = HOUR
        names = ("E6-Klett", "Storlersbakken-Trondheim")
        tb = TollboothTable.from_rows(
            [hour] * 2, [(name, Direction.UNDIRECTED) for name in names],
            [[250, 0, 0, 0, 0, 0, 250]] * 2,
        )
        rt = destination_rows(net, hour, {"Brøttemsvegen": 60, "Heimsdalvegen": 40, "Industripark": 50})
        from odfuse.fusion import FusionModel
        from odfuse.ingest import FEATURE_NAMES, TARGET_NAMES

        model = FusionModel(hyperparams=GbtHyperparams(), feature_names=FEATURE_NAMES)
        for name in TARGET_NAMES:
            model.targets[name] = target_model(10.0, [])
        run = build_od_matrix(net, model, tb, rt)
        assert run.matrix.entries
        assert all(e.scenario is Scenario.PASSTHROUGH_BYPASS for e in run.matrix.entries)

    def test_missing_destination_rows_fail_with_hour(self, trained_small):
        net, model, tb, rt = trained_small
        with pytest.raises(DataError, match="destination routing rows"):
            build_od_matrix(net, model, tb, take_rows(rt, []))

    def test_first_duplicate_tollbooth_series_is_named(self, trained_small):
        _, _, tb, _ = trained_small
        key, hour = tb[25].join_key(), tb[25].hour.isoformat()
        with pytest.raises(DataError, match=re.escape(f"duplicate tollbooth series {key!r} at {hour}")):
            take_rows(tb, np.r_[0:30, 25, 7, 30:len(tb)])

    def test_joint_sums_to_one_every_hour(self, trained_small):
        net, model, tb, rt = trained_small
        dest_names = set(net.destination_names())
        by_hour = {}
        for obs in rt:
            if obs.node in dest_names:
                by_hour.setdefault(obs.hour, []).append(obs)
        for hour, rows in list(by_hour.items())[:24]:
            preds = predict_matrix(model, np.array([reference_features(r) for r in rows]))[:, 1:]
            joint = joint_from_predictions(hour, [r.node for r in rows], preds, [r.censored for r in rows])
            assert sum(joint.mass.values()) == pytest.approx(1.0, abs=1e-9)


@st.composite
def apportion_batches(draw):
    """Rows of one width k: small integer weights and equal weights give
    exact remainder ties, floats give the general case."""
    k = draw(st.integers(min_value=1, max_value=12))
    n_rows = draw(st.integers(min_value=1, max_value=5))
    style = draw(st.sampled_from(["integers", "equal", "floats"]))
    weights = []
    for _ in range(n_rows):
        if style == "equal":
            raw = [1.0] * k
        elif style == "integers":
            raw = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        else:
            raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k))
        total = sum(raw)
        weights.append([r / total for r in raw])
    totals = draw(
        st.lists(st.integers(0, 20) | st.integers(0, 100_000), min_size=n_rows, max_size=n_rows)
    )
    return np.array(totals, dtype=np.int64), np.array(weights)


class TestBatchedApportionment:
    @settings(max_examples=300, deadline=None)
    @given(apportion_batches())
    @example((np.array([3, 2, 0]), np.array([[0.5, 1 / 3, 1 / 6]] * 3)))
    @example((np.array([2, 5]), np.array([[0.25] * 4, [0.25, 0.25, 0.5, 0.0]])))
    def test_matches_scalar_reference_row_for_row(self, batch):
        totals, weights = batch
        got = _apportion(totals, weights)
        for total, w, row in zip(totals.tolist(), weights.tolist(), got.tolist()):
            assert row == reference_largest_remainder(total, w)


@pytest.fixture(scope="module")
def criterion7():
    """The 48-hour criterion-7 acceptance fixture."""
    net = trondheim_fixture()
    gains = {RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7}
    profile = BiasProfile(gains=gains, noise_scale=0.1, censor_threshold=120, seed=77)
    tb, rt = generate_synthetic(net, 2, profile)
    model = train(build_dataset(tb, rt, 0.2), GbtHyperparams(n_trees=20, max_depth=3, seed=77))
    return net, model, tb, rt


def mixed_network() -> NetworkConfig:
    """Boundary, ramps and a passthrough pair; one destination name needs
    CSV quoting."""
    return NetworkConfig(
        name="mixed",
        nodes=(
            station("Boundary", directions=("Inbound", "Outbound")),
            station("Onramp"),
            station("Offramp"),
            station("Up"),
            station("Down"),
            destination("East-A"),
            destination('East, "B"'),
            destination("West-A"),
        ),
        destination_groups={"east": ("East-A", 'East, "B"'), "west": ("West-A",)},
        passthrough_pairs=(PassthroughPair(upstream="Up", downstream="Down", axis="north"),),
        scenario_subsets={
            "LocalInflow": ("east", "west"),
            "LocalOutflow": ("west", "east"),
            "PassthroughNet": ("east", "west"),
        },
        boundary=BoundaryConfig(
            node="Boundary",
            inbound_key="Boundary|Inbound",
            outbound_key="Boundary|Outbound",
            positive=BoundaryDirection(label="eastbound", consumes="onramp", groups=("east",)),
            negative=BoundaryDirection(label="westbound", consumes="offramp", groups=("west",)),
        ),
        ramps=RampConfig(onramp="Onramp", offramp="Offramp"),
    )


def mixed_tables(net, censored_hour: int, n_hours: int = 8, seed: int = 5):
    """Random counts where the pair alternates between net inflow and net
    outflow; every report of ``censored_hour`` is censored."""
    rng = np.random.default_rng(seed)
    start = make_hour_key("2024-03-04T06:00").timestamp
    series = [("Boundary", Direction.INBOUND), ("Boundary", Direction.OUTBOUND),
              ("Onramp", Direction.UNDIRECTED), ("Offramp", Direction.UNDIRECTED),
              ("Up", Direction.UNDIRECTED), ("Down", Direction.UNDIRECTED)]
    tb, rt = [], []  # rows as from_rows arguments
    for h in range(n_hours):
        hour = make_hour_key(start + timedelta(hours=h))
        counts = rng.integers(20, 400, size=len(series))
        up, down = sorted(counts[4:])
        counts[4:] = (up, down) if h % 2 else (down, up)
        for (name, direction), n in zip(series, counts.tolist()):
            tb.append((hour, (name, direction), [n, 0, 0, 0, 0, 0, n]))
        for node in net.destinations():
            censored = h == censored_hour
            rt.append((hour, node.name, 0 if censored else int(rng.integers(0, 3000)), node.road_tag, censored))
    return TollboothTable.from_rows(*zip(*tb)), RoutingTable.from_rows(*zip(*rt))


def od_rows(run) -> list[tuple]:
    return [
        (e.hour.isoformat(), e.origin, e.destination, e.vehicle_type.value, e.count,
         e.scenario.value, e.direction)
        for e in run.matrix.entries
    ]


def csv_key(row: tuple) -> tuple:
    """The key of an OD row in the CSV: (timestamp, scenario, origin,
    destination, vehicle type)."""
    return row[0], row[5], row[1], row[2], row[3]


def file_order(rows) -> list[tuple]:
    """OD rows in the CSV's order: sorted by ``csv_key``, stably."""
    return sorted(rows, key=csv_key)


def write_reference_od_csv(path, rows) -> None:
    """The OD CSV as written from one entry object per row, in ``file_order``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "origin", "destination", "vehicle_type", "count", "scenario"])
        writer.writerows(r[:6] for r in file_order(rows))


def by_hour(items) -> dict:
    """Decisions or ledger events grouped by hour, in run order."""
    out: dict = {}
    for item in items:
        out.setdefault(item.hour.timestamp, []).append(item)
    return out


def check_against_reference(run, net, model, tb, rt, start=None, end=None) -> list[tuple]:
    """The run's decisions and ledger equal the per-hour loop's over the
    same window, hour by hour and in order; returns the loop's OD rows."""
    decisions, ledger, rows = reference_route(net, model, tb, rt, start, end)
    assert by_hour(run.decisions) == by_hour(decisions)
    assert by_hour(run.ledger) == by_hour(ledger)
    assert list(run.decisions) == decisions
    assert list(run.ledger) == ledger
    return rows


class TestOdParity:
    """The batched build against the per-decision reference loop: the same
    decisions and ledger in the same order, the reference's rows in the
    CSV's order, and the same OD CSV bytes; the files written conserve the
    tollbooth counts."""

    def check(self, tmp_path, net, model, tb, rt, start=None, end=None):
        run = build_od_matrix(net, model, tb, rt, start, end)
        expected = check_against_reference(run, net, model, tb, rt, start, end)
        assert od_rows(run) == file_order(expected)
        assert len(run.matrix) == len(expected)
        write_od_csv(tmp_path / "od_matrix.csv", run.matrix)
        write_reference_od_csv(tmp_path / "reference.csv", expected)
        assert (tmp_path / "od_matrix.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert conservation_violations(run) == []
        write_ledger_csv(tmp_path / "ledger.csv", run.ledger)
        write_tollbooth_csv(tmp_path / "tollbooth.csv", tb)
        check_routing_files(tmp_path, net)
        return run

    def test_criterion7_fixture(self, criterion7, tmp_path):
        self.check(tmp_path, *criterion7)

    def test_censored_hour_and_reversed_roles(self, trained_small, tmp_path):
        _, model, _, _ = trained_small
        net = mixed_network()
        tb, rt = mixed_tables(net, censored_hour=3)
        run = self.check(tmp_path, net, model, tb, rt)
        fallback = [e for e in run.ledger if e.flag == "uniform_fallback"]
        assert [e.hour.isoformat() for e in fallback] == ["2024-03-04T09:00"]
        reversed_scenarios = {d.scenario for d in run.decisions if d.reversed_roles and d.volume}
        assert reversed_scenarios == {Scenario.LOCAL_OUTFLOW, Scenario.PASSTHROUGH_NET}
        assert b'"East, ""B"""' in (tmp_path / "od_matrix.csv").read_bytes()

    def test_rows_shuffled_within_hours(self, criterion7, tmp_path):
        net, model, tb, rt = criterion7
        rng = np.random.default_rng(11)
        by_hour: dict = {}
        for row, hour in enumerate(rt.hour.tolist()):
            by_hour.setdefault(hour, []).append(row)
        shuffled = [rows[i] for rows in by_hour.values() for i in rng.permutation(len(rows))]
        assert shuffled != list(range(len(rt)))
        self.check(tmp_path, net, model, tb, take_rows(rt, shuffled))

    def test_simulation_window(self, criterion7, tmp_path):
        net, model, tb, rt = criterion7
        start = make_hour_key("2023-11-06T05:00").timestamp
        end = make_hour_key("2023-11-06T17:00").timestamp
        run = self.check(tmp_path, net, model, tb, rt, start, end)
        assert run.decisions.hours.tolist() == [start + timedelta(hours=i) for i in range(13)]

    def test_equal_csv_keys_keep_decision_order(self, trained_small, tmp_path):
        _, model, _, _ = trained_small
        net = shared_downstream_network()
        tb, rt = tables_from_counts(net, [{"UpA": 10, "UpB": 20, "Down": 50}] * 2)
        run = self.check(tmp_path, net, model, tb, rt)
        rows = od_rows(run)
        ties = [i for i in range(1, len(rows)) if csv_key(rows[i]) == csv_key(rows[i - 1])]
        # Both net outflows leave through Down from every destination, for
        # every category: each such row ties with the other pair's.
        assert len(ties) > 6
        assert all(run.matrix.decision[i - 1] < run.matrix.decision[i] for i in ties)
        assert {(rows[i - 1][6], rows[i][6]) for i in ties} == {("a:outflow", "b:outflow")}


def tables_from_counts(net, hourly_counts: list[dict], seed: int = 3):
    """One hour per dict of count-key totals, from 2024-05-06T00:00, with an
    uncensored random report per destination."""
    rng = np.random.default_rng(seed)
    start = make_hour_key("2024-05-06T00:00").timestamp
    tb, rt = [], []  # rows as from_rows arguments
    for h, counts in enumerate(hourly_counts):
        hour = make_hour_key(start + timedelta(hours=h))
        for key, n in counts.items():
            name, _, direction = key.partition("|")
            series = (name, Direction(direction or "Undirected"))
            tb.append((hour, series, [n, 0, 0, 0, 0, 0, n]))
        for node in net.destinations():
            rt.append((hour, node.name, int(rng.integers(0, 3000)), node.road_tag, False))
    return TollboothTable.from_rows(*zip(*tb)), RoutingTable.from_rows(*zip(*rt))


def mixed_counts(inbound, outbound, onramp, offramp, up, down) -> dict:
    return {"Boundary|Inbound": inbound, "Boundary|Outbound": outbound, "Onramp": onramp, "Offramp": offramp,
            "Up": up, "Down": down}


def bare_network() -> NetworkConfig:
    """No boundary, no ramps and no booth pairs: every hour only balances."""
    return NetworkConfig(name="bare", nodes=(station("A"), destination("D1"), destination("D2")),
                         destination_groups={"all": ("D1", "D2")}, passthrough_pairs=(), scenario_subsets={})


def shared_downstream_network() -> NetworkConfig:
    """Two booth pairs with one downstream booth: their net outflows both
    leave the area through ``Down``."""
    return NetworkConfig(
        name="shared-downstream",
        nodes=(station("UpA"), station("UpB"), station("Down"), destination("D1"), destination("D2")),
        destination_groups={"all": ("D1", "D2")},
        passthrough_pairs=(PassthroughPair(upstream="UpA", downstream="Down", axis="a"),
                           PassthroughPair(upstream="UpB", downstream="Down", axis="b")),
        scenario_subsets={"PassthroughNet": ("all",)},
    )


def shared_ramp_network() -> NetworkConfig:
    """The mixed network with one booth as both ramps and the pair's
    upstream, so each phase reads what the one before left."""
    net = mixed_network()
    return dataclasses.replace(net, ramps=RampConfig(onramp="Up", offramp="Up"), _by_name={})


KERNEL_CASES = {
    "capped internal, both sides": (mixed_network, [
        mixed_counts(200, 50, 40, 10, 5, 9),  # eastbound 150 capped at the onramp's 40
        mixed_counts(30, 90, 70, 25, 8, 3),  # westbound 60 capped at the offramp's 25
        mixed_counts(80, 80, 12, 7, 4, 4),  # balanced boundary: no internal decision
    ]),
    "zero-volume hours": (mixed_network, [
        mixed_counts(0, 0, 0, 0, 0, 0),
        mixed_counts(5, 2, 9, 1, 3, 7),
        mixed_counts(0, 0, 0, 0, 0, 0),
    ]),
    "no boundary, ramps or pairs": (bare_network, [{"A": 5}, {"A": 0}]),
    "one booth read by every phase": (shared_ramp_network, [
        mixed_counts(90, 20, 0, 0, 50, 30),
        mixed_counts(20, 90, 0, 0, 100, 30),
    ]),
}


class TestDecisionKernel:
    """The whole-run kernel against the per-hour loop on hand-picked counts."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_matches_per_hour_loop(self, case, trained_small, tmp_path):
        _, model, _, _ = trained_small
        make_net, hourly_counts = KERNEL_CASES[case]
        net = make_net()
        tb, rt = tables_from_counts(net, hourly_counts)
        run = build_od_matrix(net, model, tb, rt)
        assert od_rows(run) == file_order(check_against_reference(run, net, model, tb, rt))
        assert conservation_violations(run) == []
        for hour, counts in zip(sorted(tb.hour_keys, key=lambda h: h.timestamp), hourly_counts):
            decisions, events = decide_flows(net, counts, hour)
            assert (list(decisions), list(events)) == reference_decide_flows(net, counts, hour)

    def test_capped_rows_and_zero_hours_are_ledgered(self, trained_small):
        _, model, _, _ = trained_small
        net = mixed_network()
        tb, rt = tables_from_counts(net, KERNEL_CASES["capped internal, both sides"][1])
        ledger = build_od_matrix(net, model, tb, rt).ledger
        capped = [(e.direction, e.key, e.amount) for e in ledger if e.flag == "capped"]
        assert capped == [("eastbound", "Onramp", 40), ("westbound", "Offramp", 25)]
        tb, rt = tables_from_counts(net, KERNEL_CASES["zero-volume hours"][1])
        zero_hour = by_hour(build_od_matrix(net, model, tb, rt).decisions)[tb.hours[0].item()]
        assert [(d.scenario, d.volume) for d in zero_hour] == [
            (Scenario.PASSTHROUGH_BYPASS, 0), (Scenario.PASSTHROUGH_NET, 0)]

    def test_bare_network_only_balances(self, trained_small):
        _, model, _, _ = trained_small
        net = bare_network()
        tb, rt = tables_from_counts(net, KERNEL_CASES["no boundary, ramps or pairs"][1])
        run = build_od_matrix(net, model, tb, rt)
        assert len(run.decisions) == 0 and len(run.matrix) == 0
        assert [(e.entry_type, e.amount) for e in run.ledger] == [("balance", 0), ("balance", 0)]

    def test_ledger_csv_bytes_match_rows_writer(self, trained_small, tmp_path):
        _, model, _, _ = trained_small
        net = mixed_network()
        tb, rt = mixed_tables(net, censored_hour=3)
        capped_tb, capped_rt = tables_from_counts(net, KERNEL_CASES["capped internal, both sides"][1])
        for name, (tollbooth, routing) in {"censored": (tb, rt), "capped": (capped_tb, capped_rt)}.items():
            run = build_od_matrix(net, model, tollbooth, routing)
            _, ledger, _ = reference_route(net, model, tollbooth, routing)
            write_ledger_csv(tmp_path / f"{name}.csv", run.ledger)
            write_csv(tmp_path / f"{name}_rows.csv", ["timestamp", "entry_type", "scenario", "direction", "key",
                                                      "amount", "flag"],
                      ([e.hour.isoformat(), e.entry_type, e.scenario, e.direction, e.key, e.amount, e.flag]
                       for e in ledger))
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_rows.csv").read_bytes()
            flags = {e.flag for e in ledger} | {e.entry_type for e in ledger}
            assert {"balance", "consume"} <= flags
        assert {"uniform_fallback"} <= {e.flag for e in reference_route(net, model, tb, rt)[1]}
        assert {"capped"} <= {e.flag for e in reference_route(net, model, capped_tb, capped_rt)[1]}


def without_rows(table, drop) -> object:
    """The table without the rows whose observation ``drop`` accepts."""
    return take_rows(table, [i for i, obs in enumerate(table) if not drop(obs)])


class TestHourChecks:
    """Of the hours that fail a check the earliest is reported, with the
    first failing check of that hour."""

    def test_earlier_hour_wins_over_earlier_check(self, criterion7):
        net, model, tb, rt = criterion7
        hours = sorted(tb.hour_keys, key=lambda h: h.timestamp)
        key = net.referenced_count_keys()[0]
        keep = net.destination_names()[0]
        tb = without_rows(tb, lambda o: o.hour == hours[5] and o.join_key() == key)
        rt = without_rows(rt, lambda o: o.hour == hours[3] and o.node in net.destination_names()
                          and o.node != keep)
        counts = {o.join_key(): int(o.counts.total) for o in tb if o.hour == hours[3]}
        decisions, _ = reference_decide_flows(net, counts, hours[3])
        first = next(d for d in decisions if d.volume and d.scenario is not Scenario.PASSTHROUGH_BYPASS)
        unknown = [d for d in first.eligible_destinations if d != keep]
        message = f"eligible destinations {unknown} absent from the joint distribution at {hours[3].isoformat()}"
        with pytest.raises(DataError, match=re.escape(message)):
            build_od_matrix(net, model, tb, rt)

    def test_missing_key_before_absent_destination_in_one_hour(self, criterion7):
        net, model, tb, rt = criterion7
        hours = sorted(tb.hour_keys, key=lambda h: h.timestamp)
        key = net.referenced_count_keys()[0]
        keep = net.destination_names()[0]
        tb = without_rows(tb, lambda o: o.hour == hours[3] and o.join_key() == key)
        rt = without_rows(rt, lambda o: o.hour == hours[3] and o.node in net.destination_names()
                          and o.node != keep)
        message = f"missing tollbooth counts for {[key]} at {hours[3].isoformat()}"
        with pytest.raises(DataError, match=re.escape(message)):
            build_od_matrix(net, model, tb, rt)

    @pytest.mark.parametrize("late_hour", [7, 2])
    def test_no_counts_and_missing_rows(self, criterion7, late_hour):
        net, model, tb, rt = criterion7
        hours = sorted(tb.hour_keys, key=lambda h: h.timestamp)
        dests = set(net.destination_names())
        tb = without_rows(tb, lambda o: o.hour == hours[late_hour])
        rt = without_rows(rt, lambda o: o.hour == hours[2] and o.node in dests)
        if late_hour == 2:
            # An hour the tollbooth lacks is not routed, so its lack of rows does not matter.
            run = build_od_matrix(net, model, tb, rt)
            assert run.decisions.hour_keys == tuple(hours[:2] + hours[3:])
            assert conservation_violations(run) == []
            return
        # An hour without rows must fail on its check, not on mass arithmetic first.
        message = f"no destination routing rows for hour {hours[2].isoformat()}"
        with warnings.catch_warnings(), pytest.raises(DataError, match=re.escape(message)):
            warnings.simplefilter("error")
            build_od_matrix(net, model, tb, rt)

    def test_missing_rows_before_later_missing_key(self, criterion7):
        net, model, tb, rt = criterion7
        hours = sorted(tb.hour_keys, key=lambda h: h.timestamp)
        key = net.referenced_count_keys()[-1]
        dests = set(net.destination_names())
        tb = without_rows(tb, lambda o: o.hour == hours[6] and o.join_key() == key)
        rt = without_rows(rt, lambda o: o.hour == hours[4] and o.node in dests)
        with pytest.raises(DataError, match=re.escape(f"no destination routing rows for hour {hours[4].isoformat()}")):
            build_od_matrix(net, model, tb, rt)


def count_bound(net) -> int:
    """The largest tollbooth count routing apportions exactly in float64:
    2**53 / (2 * (k + 2)) for splits over at most k weights."""
    return 2**53 // (2 * (max(len(net.destination_names()), len(CATEGORY_ORDER)) + 2))


class TestCountBound:
    """Counts above the bound are data errors, not apportionment drift."""

    def bound_counts(self, net, top: int) -> dict:
        counts = dict.fromkeys(net.referenced_count_keys(), 0)
        # Internal and passthrough-net volumes at or near the bound, and a local outflow.
        counts.update({"ØstreRosten|Inbound": top, "Onramp-Isdamvegen": top - 5, "E6-Klett": top,
                       "E6-Trondheim": top - 7, "Isdamvegen-Offramp": top // 3})
        return counts

    def test_count_at_the_bound_routes_exactly(self, trained_small):
        net, model, _, _ = trained_small
        counts = self.bound_counts(net, count_bound(net))
        tb, rt = tables_from_counts(net, [counts])
        run = build_od_matrix(net, model, tb, rt)
        assert conservation_violations(run) == []
        assert int(run.decisions.volume.sum()) == expected_hour_total(net, counts)
        assert run.decisions.volume.max() == count_bound(net)

    def test_count_above_the_bound_is_a_data_error(self, trained_small):
        net, model, _, _ = trained_small
        counts = self.bound_counts(net, count_bound(net))
        counts["E6-Trondheim"] = count_bound(net) + 1
        tb, rt = tables_from_counts(net, [counts])
        message = f"tollbooth count for 'E6-Trondheim' at 2024-05-06T00:00 exceeds {count_bound(net)}"
        with pytest.raises(DataError, match=re.escape(message)):
            build_od_matrix(net, model, tb, rt)

    def test_count_above_the_bound_on_an_unreferenced_series_routes(self, trained_small):
        net, model, _, _ = trained_small
        counts = self.bound_counts(net, count_bound(net))
        assert "Bjørndalsbrua" not in net.referenced_count_keys()
        tb, rt = tables_from_counts(net, [{**counts, "Bjørndalsbrua": 2**60}])
        run = build_od_matrix(net, model, tb, rt)
        assert conservation_violations(run) == []
        assert int(run.decisions.volume.sum()) == expected_hour_total(net, counts)

    def test_count_above_the_bound_outside_the_window_routes(self, trained_small):
        net, model, _, _ = trained_small
        counts = self.bound_counts(net, count_bound(net))
        tb, rt = tables_from_counts(net, [counts, {**counts, "E6-Trondheim": count_bound(net) + 1}])
        run = build_od_matrix(net, model, tb, rt, end=make_hour_key("2024-05-06T00:00").timestamp)
        assert conservation_violations(run) == []
        assert [h.isoformat() for h in run.decisions.hour_keys] == ["2024-05-06T00:00"]
        assert int(run.decisions.volume.sum()) == expected_hour_total(net, counts)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 8, 17, 40])
    def test_splits_at_the_bound_sum_exactly(self, k):
        rng = np.random.default_rng(k)
        top = 2**53 // (2 * (max(k, len(CATEGORY_ORDER)) + 2))
        for _ in range(20):
            shares = rng.random((50, k)) ** rng.uniform(0.1, 30)
            shares[rng.random((50, k)) < 0.2] = 0.0
            mass = rng.random((50 * k, len(CATEGORY_ORDER))) ** rng.uniform(0.1, 30)
            per_destination = (mass / routing._sequential_sum(mass)[:, None]).reshape(50, k, -1)
            volumes = top - rng.integers(0, 3, 50)
            counts = routing._split(volumes, shares, per_destination)
            assert (counts.sum(axis=(1, 2)) == volumes).all()


class TestInvariants:
    def test_negative_residual(self):
        left = {"Onramp": np.array([3, 5])}
        with pytest.raises(InternalError, match="negative residual for count key 'Onramp': -1"):
            _consume(left, "Onramp", np.array([1, 6]))

    def test_negative_volume(self):
        decisions, _ = decide_flows(pair_only_network(), {"E6-Klett": 500, "Storlersbakken-Trondheim": 400}, HOUR)
        with pytest.raises(InternalError, match="negative decision volume -3"):
            dataclasses.replace(decisions, volume=np.array([400, -3]))

    def test_bypass_with_two_destinations(self):
        decisions, _ = decide_flows(pair_only_network(), {"E6-Klett": 500, "Storlersbakken-Trondheim": 400}, HOUR)
        assert [d.scenario for d in decisions] == [Scenario.PASSTHROUGH_BYPASS, Scenario.PASSTHROUGH_NET]
        with pytest.raises(InternalError, match="exactly one destination"):
            dataclasses.replace(decisions, eligible=decisions.eligible[::-1].copy())

    def test_composite_key_overflow(self):
        column = np.zeros(3, dtype=np.int64)
        assert _composite_key([2**31, 2**31], [column, column + 1]).tolist() == [1, 1, 1]
        with pytest.raises(InternalError, match="overflow int64"):
            _composite_key([2**32, 2**31], [column, column])


class TestConservationViolations:
    def test_changed_od_count_is_reported(self, criterion7):
        run = build_od_matrix(*criterion7)
        run.matrix.count[0] += 1
        d = run.decisions[run.matrix.decision[0]]
        assert conservation_violations(run) == [
            f"{d.hour.isoformat()} {d.scenario.value} {d.direction}: "
            f"decided {d.volume}, allocated {d.volume + 1}"
        ]

    def test_changed_ledger_balance_is_reported(self, criterion7):
        run = build_od_matrix(*criterion7)
        i = next(i for i, e in enumerate(run.ledger) if e.entry_type == "balance")
        event = run.ledger[i]
        amount = run.ledger.amount.copy()  # the table's columns are read-only
        amount[i] += 1
        run.ledger = dataclasses.replace(run.ledger, amount=amount)
        assert conservation_violations(run) == [
            f"balance mismatch at {event.hour.isoformat()}: ledger {event.amount + 1}, "
            f"decisions {event.amount}"
        ]


# The narrow ODMatrix column types: a fallback to int64 shows here.
OD_TYPES = {"origin": np.int16, "destination": np.int16, "vehicle_type": np.int8, "count": np.int64,
            "decision": np.int32}


class TestOdBlocks:
    """The OD matrix and both CSVs do not depend on how many decisions are
    assembled and sorted together."""

    @pytest.mark.parametrize("case", ["trained_small", "criterion7", "no decisions"])
    def test_every_block_size_gives_the_same_run(self, request, case, tmp_path, monkeypatch):
        if case == "no decisions":
            _, model, _, _ = request.getfixturevalue("trained_small")
            net = bare_network()
            tb, rt = tables_from_counts(net, KERNEL_CASES["no boundary, ramps or pairs"][1])
        else:
            net, model, tb, rt = request.getfixturevalue(case)

        def route(tag):
            run = build_od_matrix(net, model, tb, rt)
            write_od_csv(tmp_path / f"od_{tag}.csv", run.matrix)
            write_ledger_csv(tmp_path / f"ledger_{tag}.csv", run.ledger)
            return run

        default = route("default")
        assert (len(default.decisions) == 0) == (case == "no decisions")
        assert {name: getattr(default.matrix, name).dtype for name in OD_TYPES} == {
            name: np.dtype(t) for name, t in OD_TYPES.items()}
        for block in (1, 2, 5):
            monkeypatch.setattr(routing, "_OD_BLOCK", block)
            run = route(block)
            for name in OD_TYPES:
                got, want = getattr(run.matrix, name), getattr(default.matrix, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (block, name)
            for artifact in ("od", "ledger"):
                assert (tmp_path / f"{artifact}_{block}.csv").read_bytes() == (
                    tmp_path / f"{artifact}_default.csv").read_bytes(), (block, artifact)

    def test_decisions_out_of_hour_order_are_not_assembled(self, criterion7):
        decisions = build_od_matrix(*criterion7).decisions
        for shuffled in (dataclasses.replace(decisions, hour=decisions.hour[::-1].copy()),
                         dataclasses.replace(decisions, hours=decisions.hours[::-1])):
            with pytest.raises(InternalError, match="not hour-major in timestamp order"):
                routing._od_matrix(shuffled, np.zeros((0, 0)), np.zeros((0, 0, 6)), [])

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_counts_are_not_written(self, criterion7, tmp_path, count):
        matrix = build_od_matrix(*criterion7).matrix
        counts = matrix.count.copy()
        counts[len(counts) // 2] = count
        with pytest.raises(InternalError, match="non-positive count"):
            write_od_csv(tmp_path / "od.csv", dataclasses.replace(matrix, count=counts))
        assert not (tmp_path / "od.csv").exists()


def zero_threshold_model() -> FusionModel:
    """Every target splits the first feature at 0.0 and then at -0.0."""
    model = FusionModel(hyperparams=GbtHyperparams(learning_rate=0.5), feature_names=FEATURE_NAMES)
    tree = make_tree([0, 0, -1, -1, -1], [0.0, -0.0, 0.0, 0.0, 0.0], [1, 2, -1, -1, -1], [4, 3, -1, -1, -1],
                     [0.0, 0.0, 1.0, 2.0, 4.0], [6.0, 4.0, 2.0, 2.0, 2.0])
    for name in TARGET_NAMES:
        model.targets[name] = target_model(1.0, [tree])
    return model


def signed_zero_rows(X):
    """The first row four times, its first feature 0.0, -0.0, 0.0, -0.0."""
    rows = np.repeat(X[:1], 4, axis=0)
    rows[:, 0] = [0.0, -0.0, 0.0, -0.0]
    return rows


# Feature rows built from a routing table's features X, and how many are distinct.
DISTINCT_CASES = {
    "repeated rows": (lambda X: X[[0, 1, 0, 2, 1, 0]], 3),
    "-0.0 against 0.0": (signed_zero_rows, 1),
    "single row": (lambda X: X[:1], 1),
    "all rows identical": (lambda X: np.repeat(X[1:2], 5, axis=0), 1),
    "zero rows": (lambda X: X[:0], 0),
}


class TestDistinctRowScoring:
    """Scoring each distinct feature row once and gathering the scores back
    equals scoring every row."""

    @pytest.mark.parametrize("model_name", ["trained", "zero thresholds"])
    @pytest.mark.parametrize("case", list(DISTINCT_CASES))
    def test_equals_scoring_every_row(self, trained_small, case, model_name):
        _, trained, _, rt = trained_small
        model = trained if model_name == "trained" else zero_threshold_model()
        features = feature_matrix(rt, np.arange(3))
        assert len(np.unique(features, axis=0)) == 3
        make_rows, n_distinct = DISTINCT_CASES[case]
        X = make_rows(features)
        distinct, back = _distinct_rows(X)
        assert len(distinct) == n_distinct and back.shape == (len(X),)
        assert np.array_equal(distinct[back], X)
        every_row = predict_matrix(model, X, TARGET_NAMES[1:])
        assert np.array_equal(predict_matrix(model, distinct, TARGET_NAMES[1:])[back], every_row)

    def test_signed_zeros_score_alike(self, trained_small):
        _, _, _, rt = trained_small
        scores = predict_matrix(zero_threshold_model(), signed_zero_rows(feature_matrix(rt, np.arange(1))))
        assert np.array_equal(scores, np.repeat(scores[:1], 4, axis=0))
        assert scores[0, 0] == 1.0 + 0.5 * 1.0
