"""Measured-series ingest: parsing, validation, imbalance statistics."""

from __future__ import annotations

import math
import time

import pytest

from phasebal.errors import NonMonotonicTimestamps, SchemaMismatch
from phasebal.ingest import analyze_series, neutral_current_proxy, read_measured_series


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def local_zone(monkeypatch):
    """Sets the process's local time zone (``TZ``) for one test."""

    def set_zone(zone: str) -> None:
        monkeypatch.setenv("TZ", zone)
        time.tzset()

    yield set_zone
    monkeypatch.undo()
    time.tzset()


class TestReadMeasuredSeries:
    def test_base_columns(self, tmp_path):
        path = write(tmp_path, "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,1,2,3\n1,4,5,6\n")
        series = read_measured_series(path)
        assert series.p_kw == ((1, 2, 3), (4, 5, 6))
        assert series.q_kvar is None
        assert series.i_n_a is None

    def test_with_reactive_and_neutral(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,p_a_kw,p_b_kw,p_c_kw,q_a_kvar,q_b_kvar,q_c_kvar,i_n_a\n"
            "0,1,1,1,0.1,0.2,0.3,5\n",
        )
        series = read_measured_series(path)
        assert series.q_kvar == ((0.1, 0.2, 0.3),)
        assert series.i_n_a == (5.0,)

    def test_iso_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,p_a_kw,p_b_kw,p_c_kw\n"
            "2019-03-17T00:00:00,1,1,1\n2019-03-17T18:30:00,2,2,2\n",
        )
        series = read_measured_series(path)
        assert series.hours == (0.0, 18.5)

    @pytest.mark.parametrize("zone", ["UTC", "America/Los_Angeles"])
    def test_naive_timestamps_order_alike_in_every_local_zone(self, tmp_path, local_zone, zone):
        """02:30 on 2020-03-08 does not exist on Los Angeles clocks, which
        spring from 02:00 to 03:00, so local time would put it at or after
        03:30. Naive stamps are read as UTC: the series parses the same
        under any ``TZ``, and hour of day is the clock hour as written."""
        local_zone(zone)
        assert time.localtime(1583663400).tm_isdst == (zone != "UTC")  # the zone is in effect
        path = write(
            tmp_path,
            "timestamp,p_a_kw,p_b_kw,p_c_kw\n"
            "2020-03-08T01:30:00,1,1,1\n2020-03-08T02:30:00,2,2,2\n"
            "2020-03-08T03:30:00,3,3,3\n",
        )
        series = read_measured_series(path)
        assert series.hours == (1.5, 2.5, 3.5)
        assert series.p_kw == ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0))

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path, "time,pa,pb,pc\n0,1,2,3\n")
        with pytest.raises(SchemaMismatch):
            read_measured_series(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,1,2\n")
        with pytest.raises(SchemaMismatch):
            read_measured_series(path)

    def test_non_monotonic_timestamps(self, tmp_path):
        path = write(tmp_path, "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,1,1,1\n0,2,2,2\n")
        with pytest.raises(NonMonotonicTimestamps) as exc:
            read_measured_series(path)
        assert exc.value.row == 2

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,one,2,3\n")
        with pytest.raises(SchemaMismatch):
            read_measured_series(path)


class TestAnalyzeSeries:
    def test_identical_phases_have_zero_spread(self, tmp_path):
        path = write(tmp_path, "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,7,7,7\n1,3,3,3\n")
        report = analyze_series(read_measured_series(path))
        assert [row["spread_kw"] for row in report.rows] == [0.0, 0.0]
        assert all(row["neutral_proxy_a"] < 1e-9 for row in report.rows)

    def test_single_row_spread(self, tmp_path):
        path = write(tmp_path, "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,20,10,10\n")
        report = analyze_series(read_measured_series(path))
        assert report.rows[0]["spread_kw"] == 10.0
        # the 10 kW surplus on phase A returns as 10000/230 amps
        assert report.rows[0]["neutral_proxy_a"] == pytest.approx(10000 / 230)

    def test_power_factor_when_reactive_present(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,p_a_kw,p_b_kw,p_c_kw,q_a_kvar,q_b_kvar,q_c_kvar\n0,3,4,0,4,3,0\n",
        )
        report = analyze_series(read_measured_series(path))
        assert report.rows[0]["pf_a"] == pytest.approx(3 / 5)
        assert report.rows[0]["pf_b"] == pytest.approx(4 / 5)
        assert report.rows[0]["pf_c"] is None  # zero apparent power

    def test_synthetic_day_peaks_in_evening(self, tmp_path):
        # balanced 10 kW/phase; midday solar dips phase A; evening EV load
        # bumps phase A: hourly spread must peak in the evening hours.
        lines = ["timestamp,p_a_kw,p_b_kw,p_c_kw"]
        for h in range(24):
            p_a = 10.0
            if 10 <= h < 15:
                p_a -= 6.0  # solar on phase A
            if 18 <= h < 23:
                p_a += 10.0  # EV block on phase A
            lines.append(f"{h},{p_a},10,10")
        report = analyze_series(read_measured_series(write(tmp_path, "\n".join(lines) + "\n")))
        by_hour = {row["hour"]: row["max_spread_kw"] for row in report.hourly}
        assert by_hour[20.0] == 10.0
        assert by_hour[12.0] == 6.0
        assert by_hour[3.0] == 0.0
        peak_hours = [h for h, s in by_hour.items() if s == max(by_hour.values())]
        assert set(peak_hours) <= {18.0, 19.0, 20.0, 21.0, 22.0}


class TestNeutralProxy:
    def test_balanced_cancels(self):
        assert neutral_current_proxy((5, 5, 5), (1, 1, 1)) < 1e-9

    def test_matches_phasor_arithmetic(self):
        import cmath

        phasors = [230 * cmath.exp(1j * a) for a in (0, -2 * math.pi / 3, 2 * math.pi / 3)]
        p = (12.0, 3.0, 7.0)
        q = (0.5, -1.0, 2.0)
        expected = abs(
            sum((complex(pk, qk) * 1000 / v).conjugate() for pk, qk, v in zip(p, q, phasors))
        )
        assert neutral_current_proxy(p, q) == pytest.approx(expected)
