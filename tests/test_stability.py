import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odfuse.core import RoadTag, RoutingTable, make_hour_key
from odfuse.errors import DataError
from odfuse.stability import (
    DIURNAL,
    WEEKLY,
    TemporalProfile,
    build_profile,
    compare_periods,
    nmse,
    pearson,
    sym_kl,
)


def flow_table(rows):
    """A routing table of one node's trunk-road reports, one per (timestamp, flow) pair."""
    n = len(rows)
    return RoutingTable.from_rows([make_hour_key(ts) for ts, _ in rows], ["N"] * n, [flow for _, flow in rows],
                                  [RoadTag.TRUNK] * n, [False] * n)


def profile(kind, values):
    arr = np.asarray(values, dtype=np.float64)
    return TemporalProfile(kind=kind, mass=arr / arr.sum())


def random_profiles(seed, kind=DIURNAL, n=24):
    rng = np.random.default_rng(seed)
    return (
        profile(kind, rng.random(n) + 1e-3),
        profile(kind, rng.random(n) + 1e-3),
    )


class TestBuildProfile:
    def test_uniform_flows(self):
        rows = [(f"2023-11-06T{h:02d}:00", 10) for h in range(24)]
        prof = build_profile(flow_table(rows), DIURNAL)
        assert np.allclose(prof.mass, 1 / 24)

    def test_point_mass(self):
        prof = build_profile(flow_table([("2023-11-06T08:00", 50)]), DIURNAL)
        assert prof.mass[8] == 1.0
        assert prof.mass.sum() == 1.0

    def test_two_identical_days_same_as_one(self):
        day1 = [(f"2023-11-06T{h:02d}:00", 10 + h) for h in range(24)]
        day2 = [(f"2023-11-07T{h:02d}:00", 10 + h) for h in range(24)]
        p1 = build_profile(flow_table(day1), DIURNAL)
        p2 = build_profile(flow_table(day1 + day2), DIURNAL)
        assert np.allclose(p1.mass, p2.mass)

    def test_weekly_binning(self):
        prof = build_profile(flow_table([("2023-11-06T08:00", 30), ("2023-11-11T08:00", 10)]), WEEKLY)
        assert prof.mass[0] == pytest.approx(0.75)
        assert prof.mass[5] == pytest.approx(0.25)

    def test_all_zero_flows_error(self):
        with pytest.raises(DataError, match="all flows are zero"):
            build_profile(flow_table([("2023-11-06T08:00", 0)]), DIURNAL)

    def test_scale_invariance(self):
        rows = [(f"2023-11-06T{h:02d}:00", 10 + 3 * h) for h in range(24)]
        scaled = [(f"2023-11-06T{h:02d}:00", 7 * (10 + 3 * h)) for h in range(24)]
        p1, p2 = (build_profile(flow_table(r), DIURNAL) for r in (rows, scaled))
        assert np.allclose(p1.mass, p2.mass)


class TestPearson:
    def test_self_correlation_exactly_one(self):
        p = profile(DIURNAL, np.arange(1.0, 25.0))
        assert pearson(p, p) == 1.0

    def test_affine_transform_preserves_correlation(self):
        base = np.arange(1.0, 25.0)
        p = profile(DIURNAL, base)
        q = profile(DIURNAL, 3.0 * base + 5.0)
        assert pearson(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_slopes_anticorrelate(self):
        p = profile(DIURNAL, np.arange(1.0, 25.0))
        q = profile(DIURNAL, np.arange(24.0, 0.0, -1.0))
        assert pearson(p, q) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_undefined(self):
        p = profile(DIURNAL, np.ones(24))
        q = profile(DIURNAL, np.arange(1.0, 25.0))
        assert pearson(p, q) is None

    def test_kind_mismatch(self):
        with pytest.raises(DataError, match="cannot compare"):
            pearson(profile(DIURNAL, np.ones(24)), profile(WEEKLY, np.ones(7)))


class TestSymKl:
    def test_identity_is_exact_zero(self):
        p = profile(DIURNAL, np.arange(1.0, 25.0))
        assert sym_kl(p, p) == 0.0

    def test_two_bin_closed_form(self):
        p = profile(DIURNAL, [0.51, 0.49] + [0.0] * 22)
        q = profile(DIURNAL, [0.50, 0.50] + [0.0] * 22)
        # closed form: sum over bins of (p-q)ln(p/q) collapses to
        # 0.01 ln((0.51*0.50)/(0.50*0.49)) = 0.01 ln(0.51/0.49)
        closed = 0.01 * math.log(0.51 / 0.49)
        # direct summation of both KL terms as an independent check
        direct = (
            0.51 * math.log(0.51 / 0.50)
            + 0.49 * math.log(0.49 / 0.50)
            + 0.50 * math.log(0.50 / 0.51)
            + 0.50 * math.log(0.50 / 0.49)
        )
        got = sym_kl(p, q, epsilon=0.0)
        assert abs(closed - direct) < 1e-12
        assert abs(got - closed) < 1e-12
        assert got == pytest.approx(4.0e-4, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetric_and_nonnegative(self, seed):
        p, q = random_profiles(seed)
        j_pq = sym_kl(p, q)
        j_qp = sym_kl(q, p)
        assert j_pq >= 0.0
        assert j_pq == pytest.approx(j_qp, abs=1e-12)

    def test_zero_iff_equal_after_smoothing(self):
        p, q = random_profiles(3)
        assert sym_kl(p, q) > 0.0
        assert sym_kl(p, TemporalProfile(kind=p.kind, mass=p.mass.copy())) == 0.0

    def test_smoothing_guards_empty_bins(self):
        p = profile(DIURNAL, [1.0] + [0.0] * 23)
        q = profile(DIURNAL, [0.0] * 23 + [1.0])
        j = sym_kl(p, q)  # default epsilon
        assert math.isfinite(j) and j > 0


class TestNmse:
    def test_identity_zero(self):
        p = profile(DIURNAL, np.arange(1.0, 25.0))
        assert nmse(p, p) == 0.0

    def test_disjoint_support_undefined(self):
        p = profile(WEEKLY, [1, 0, 0, 0, 0, 0, 0])
        q = profile(WEEKLY, [0, 1, 0, 0, 0, 0, 0])
        assert nmse(p, q) is None

    def test_hand_computed_two_bin_case(self):
        p = profile(WEEKLY, [0.6, 0.4, 0, 0, 0, 0, 0])
        q = profile(WEEKLY, [0.5, 0.5, 0, 0, 0, 0, 0])
        assert nmse(p, q) == pytest.approx(0.04, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetry(self, seed):
        p, q = random_profiles(seed, kind=WEEKLY, n=7)
        assert nmse(p, q) == pytest.approx(nmse(q, p), abs=1e-15)


class TestComparePeriods:
    def test_identical_periods_are_stable(self):
        rows = [(f"2023-11-06T{h:02d}:00", 10 + h * h) for h in range(24)]
        report = compare_periods(flow_table(rows), flow_table(rows))
        for row in report:
            assert row.pearson == 1.0
            assert row.sym_kl_nats == 0.0
            assert row.nmse == 0.0
        assert [r.profile_kind for r in report] == [DIURNAL, WEEKLY]

    def test_hour_listed_twice_cannot_double_a_report(self):
        # A second 00:00 entry in the hour table would let a second report of
        # node N at 00:00 through as a row of another hour code.
        rows = [(f"2023-11-06T{h:02d}:00", 10 + h * h) for h in range(24)]
        original = flow_table(rows)
        hours = np.append(original.hours, original.hours[0])
        with pytest.raises(DataError, match="hour 2023-11-06T00:00 is listed twice in the table's hours"):
            compare_periods(RoutingTable(hours=hours, nodes=original.nodes, hour=np.r_[original.hour, 24],
                                         node=np.r_[original.node, 0], flow=np.r_[original.flow, 500.0],
                                         tag=np.r_[original.tag, original.tag[0]],
                                         censored=np.r_[original.censored, False]), original)
