import csv
import io
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odfuse.core import (
    CATEGORY_ORDER,
    CountsByCategory,
    Direction,
    VehicleCategory,
    VehicleType,
    category_of_length,
    csv_cell,
    hour_array,
    hour_text,
    hours_field,
    make_hour_key,
    map_vehicle_type,
)
from odfuse.errors import DataError


class TestMakeHourKey:
    def test_monday_morning(self):
        key = make_hour_key("2023-11-06T08:00")
        assert (key.hour_of_day, key.day_of_week, key.is_weekend) == (8, 0, False)

    def test_saturday_night(self):
        key = make_hour_key("2023-11-11T23:00")
        assert (key.hour_of_day, key.day_of_week, key.is_weekend) == (23, 5, True)

    def test_simulation_period_thursday(self):
        key = make_hour_key("2025-01-30T17:00")
        assert (key.hour_of_day, key.day_of_week, key.is_weekend) == (17, 3, False)

    def test_accepts_datetime(self):
        key = make_hour_key(datetime(2023, 11, 6, 8))
        assert key.hour_of_day == 8

    @pytest.mark.parametrize("bad", ["2023-11-06T08:30", "not-a-date", "2023-11-06T08:00:05"])
    def test_rejects_subhour_and_garbage(self, bad):
        with pytest.raises(DataError):
            make_hour_key(bad)

    def test_rejects_timezone_aware(self):
        with pytest.raises(DataError):
            make_hour_key("2023-11-06T08:00+01:00")

    @pytest.mark.parametrize("year, text", [
        (1, "0001-03-01T05:00"), (999, "0999-03-01T05:00"), (1000, "1000-03-01T05:00"), (9999, "9999-03-01T05:00"),
    ])
    def test_four_digit_years_round_trip(self, year, text):
        key = make_hour_key(datetime(year, 3, 1, 5))
        assert key.isoformat() == text
        assert make_hour_key(text) == key

    @given(
        st.datetimes().map(lambda d: d.replace(minute=0, second=0, microsecond=0))
    )
    def test_roundtrip_through_iso(self, ts):
        key = make_hour_key(ts)
        assert make_hour_key(key.isoformat()) == key

    @given(
        st.datetimes(
            min_value=datetime(2000, 1, 1),
            max_value=datetime(2030, 12, 31),
        ).map(lambda d: d.replace(minute=0, second=0, microsecond=0))
    )
    def test_weekend_agrees_with_day_of_week(self, ts):
        key = make_hour_key(ts)
        assert key.is_weekend == (key.day_of_week in (5, 6))


class TestHourArrays:
    """The array arithmetic of hours against ``HourKey``, one hour at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.datetimes(max_value=datetime(9999, 12, 31, 23)).map(
        lambda d: d.replace(minute=0, second=0, microsecond=0)), max_size=40))
    @example([datetime(1, 1, 1, 0), datetime(1969, 12, 31, 23), datetime(1970, 1, 1, 0), datetime(1970, 1, 4, 5),
              datetime(1899, 12, 30, 12), datetime(9999, 12, 31, 23)])
    def test_fields_and_texts_equal_the_hour_keys(self, stamps):
        keys = [make_hour_key(ts) for ts in stamps]
        hours = hour_array(keys)
        assert hours.dtype == np.dtype("datetime64[h]") and hours.tolist() == stamps
        for name in ("hour_of_day", "day_of_week", "is_weekend"):
            field = hours_field(hours, name)
            assert field.dtype == np.int64
            assert field.tolist() == [int(getattr(key, name)) for key in keys], name
        assert hour_text(hours) == [key.isoformat() for key in keys]
        assert [hour_text(hour) for hour in hours] == [key.isoformat() for key in keys]


class TestCategoryOfLength:
    def test_inside_band(self):
        assert category_of_length(4.2) is VehicleCategory.UNDER_5_6

    def test_top_band_is_closed_below(self):
        assert category_of_length(24.0) is VehicleCategory.OVER_24_0

    def test_boundary_goes_to_upper_band(self):
        assert category_of_length(5.6) is VehicleCategory.L5_6_TO_7_6

    @pytest.mark.parametrize(
        "length,cat",
        [
            (7.6, VehicleCategory.L7_6_TO_12_5),
            (12.5, VehicleCategory.L12_5_TO_16_0),
            (16.0, VehicleCategory.L16_0_TO_24_0),
            (100.0, VehicleCategory.OVER_24_0),
        ],
    )
    def test_other_boundaries(self, length, cat):
        assert category_of_length(length) is cat

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DataError):
            category_of_length(bad)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_total_and_monotone(self, a, b):
        ca, cb = category_of_length(a), category_of_length(b)
        order = list(CATEGORY_ORDER)
        if a <= b:
            assert order.index(ca) <= order.index(cb)


class TestCountsByCategory:
    def test_reported_total_within_tolerance(self):
        counts = dict(zip(CATEGORY_ORDER, [412, 23, 31, 12, 18, 4]))
        c = CountsByCategory.with_reported_total(counts, 500)
        assert c.total == 500
        assert not c.total_mismatch

    def test_reported_total_mismatch_flagged(self):
        counts = {VehicleCategory.UNDER_5_6: 90.0}
        c = CountsByCategory.with_reported_total(counts, 100)
        assert c.total_mismatch


class TestVehicleTypeMapping:
    def test_passenger(self):
        assert map_vehicle_type(VehicleCategory.UNDER_5_6) is VehicleType.PASSENGER_VEHICLE

    def test_bus_medium_truck(self):
        assert map_vehicle_type(VehicleCategory.L7_6_TO_12_5) is VehicleType.BUS_MEDIUM_TRUCK

    def test_extra_long(self):
        assert map_vehicle_type(VehicleCategory.OVER_24_0) is VehicleType.EXTRA_LONG

    def test_all_six_mapped_distinctly(self):
        mapped = [map_vehicle_type(cat) for cat in CATEGORY_ORDER]
        assert len(set(mapped)) == 6
        assert VehicleType.ALL not in mapped


class TestObservations:
    def test_join_key_qualifies_direction(self):
        from odfuse.core import TollboothObservation

        obs = TollboothObservation(
            node="B",
            direction=Direction.INBOUND,
            hour=make_hour_key("2023-11-06T08:00"),
            counts=CountsByCategory.with_reported_total({}, 0),
        )
        assert obs.join_key() == "B|Inbound"


def _writer_cell(value: str):
    """What csv.writer writes for a one-cell row in the artifact dialect, line end
    removed, or the type of the error it raises."""
    buf = io.StringIO()
    try:
        csv.writer(buf, lineterminator="\r\n").writerow([value])
    except csv.Error as exc:
        return type(exc)
    return buf.getvalue()[:-2]


class TestCsvCell:
    @given(st.text() | st.text(alphabet=' ,"\r\n\x00\tøß\u2028a'))
    def test_matches_csv_writer(self, value):
        try:
            cell = csv_cell(value)
        except csv.Error as exc:
            cell = type(exc)
        assert cell == _writer_cell(value)
