"""Symmetrical components, VUF and the norm table."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from conftest import snapshot_solve
from phasebal.checks import (
    SequenceComponents,
    VUF_NORM_LIMITS,
    check_vuf_norm,
    fortescue,
    inverse_fortescue,
    rms_voltage,
    vuf,
)
from phasebal.errors import UnknownNorm, ZeroPositiveSequence
from phasebal.powerflow import ALPHA, node_metric_arrays


def polar(mag: float, deg: float) -> complex:
    return cmath.rect(mag, math.radians(deg))


class TestFortescue:
    def test_balanced_positive_sequence_set(self):
        seq = fortescue(polar(1, 0), polar(1, -120), polar(1, 120))
        assert abs(seq.v0) < 1e-15
        assert abs(seq.v1 - 1) < 1e-15
        assert abs(seq.v2) < 1e-15

    def test_pure_zero_sequence(self):
        seq = fortescue(1 + 0j, 1 + 0j, 1 + 0j)
        assert seq.v0 == pytest.approx(1)
        assert abs(seq.v1) < 1e-15
        assert abs(seq.v2) < 1e-15

    def test_unbalanced_triple_against_direct_arithmetic(self):
        # Expected values computed independently by evaluating the three
        # defining sums with cmath (frozen below to 17 significant digits).
        seq = fortescue(polar(0.95, 0), polar(1.00, -122), polar(1.05, 119))
        assert seq.v0 == pytest.approx(
            -0.029656455163952915 + 0.023434198779979876j, abs=1e-12
        )
        assert seq.v1 == pytest.approx(
            0.99974363564443547 - 0.017741507820549729j, abs=1e-12
        )
        assert seq.v2 == pytest.approx(
            -0.020087180480482563 - 0.0056926909594302577j, abs=1e-12
        )
        assert vuf(seq) == pytest.approx(2.0880321664922357, abs=1e-12)

    def test_round_trip_on_random_triples(self):
        rng = random.Random(42)
        for _ in range(1000):
            orig = tuple(
                cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(-math.pi, math.pi))
                for _ in range(3)
            )
            back = inverse_fortescue(fortescue(*orig))
            for a, b in zip(orig, back):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_scaling_equivariance(self):
        rng = random.Random(7)
        for _ in range(50):
            trip = [cmath.rect(rng.uniform(0.1, 2), rng.uniform(-3, 3)) for _ in range(3)]
            k = cmath.rect(rng.uniform(0.1, 3), rng.uniform(-3, 3))
            seq = fortescue(*trip)
            scaled = fortescue(*(k * v for v in trip))
            assert abs(scaled.v0 - k * seq.v0) < 1e-12 * abs(k)
            assert abs(scaled.v1 - k * seq.v1) < 1e-12 * abs(k)
            assert abs(scaled.v2 - k * seq.v2) < 1e-12 * abs(k)
            if abs(seq.v1) > 1e-9:
                assert vuf(scaled) == pytest.approx(vuf(seq), rel=1e-9)

    def test_swapping_b_and_c_exchanges_sequence_magnitudes(self):
        rng = random.Random(11)
        for _ in range(50):
            va, vb, vc = (
                cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-3, 3)) for _ in range(3)
            )
            seq = fortescue(va, vb, vc)
            swapped = fortescue(va, vc, vb)
            assert abs(swapped.v1) == pytest.approx(abs(seq.v2), abs=1e-12)
            assert abs(swapped.v2) == pytest.approx(abs(seq.v1), abs=1e-12)

    def test_vuf_zero_iff_positive_sequence_only(self):
        pure = SequenceComponents(v0=0j, v1=1 + 0j, v2=0j)
        assert vuf(pure) == 0.0
        va, vb, vc = inverse_fortescue(pure)
        assert vuf(fortescue(va, vb, vc)) < 1e-12

    def test_alpha_is_unit_rotation(self):
        assert abs(ALPHA**3 - 1) < 1e-15
        assert abs(ALPHA - cmath.exp(2j * math.pi / 3)) == 0.0


class TestVuf:
    def test_definition_ratio(self):
        seq = SequenceComponents(v0=0j, v1=1.0 + 0j, v2=0.01 + 0j)
        assert vuf(seq) == pytest.approx(1.0)

    def test_zero_positive_sequence_raises(self):
        with pytest.raises(ZeroPositiveSequence):
            vuf(SequenceComponents(v0=1 + 0j, v1=0j, v2=0.1 + 0j))

    def test_nonnegative(self):
        rng = random.Random(3)
        for _ in range(100):
            trip = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-3, 3)) for _ in range(3)]
            seq = fortescue(*trip)
            if abs(seq.v1) > 0:
                assert vuf(seq) >= 0.0


class TestRmsVoltage:
    def test_equal_magnitudes(self):
        assert rms_voltage(230, 230, 230) == pytest.approx(230)
        assert rms_voltage(1, 1, 1) == pytest.approx(1)

    def test_mixed_magnitudes(self):
        # sqrt((220^2 + 230^2 + 240^2) / 3) = sqrt(158900 / 3)
        assert rms_voltage(220, 230, 240) == pytest.approx(math.sqrt(158900 / 3))


class TestNodeMetrics:
    def test_zero_load_feeder(self):
        from phasebal.network import chain_feeder

        feeder = chain_feeder(3, 0.1)
        vuf_pct, drop_pct, v_rms = node_metric_arrays(
            snapshot_solve(feeder).voltages, feeder.v_base_ln
        )
        assert (vuf_pct < 1e-12).all()
        assert (np.abs(drop_pct) < 1e-12).all()
        assert v_rms == pytest.approx([230.0] * 3)

    def test_balanced_load_equal_drop_zero_vuf(self):
        from phasebal.network import Device, DeviceKind, chain_feeder
        from phasebal.powerflow import SolverSettings

        dev = Device(
            label="l", node="N1", kind=DeviceKind.LOAD, phase=None, s_rated_kva=1.0 + 0j
        )
        feeder = chain_feeder(2, 0.1, devices=[dev])
        sol = snapshot_solve(feeder, settings=SolverSettings(tol_pu=1e-12))
        vuf_pct, drop_pct, _ = node_metric_arrays(sol.voltages, feeder.v_base_ln)
        drops = drop_pct[1].tolist()  # N1
        assert all(d < 0 for d in drops)
        assert drops[0] == pytest.approx(drops[1]) == pytest.approx(drops[2])
        assert vuf_pct[1] < 1e-9

    def test_dg_above_local_load_raises_voltage(self):
        from phasebal.network import Device, DeviceKind, Phase, chain_feeder
        from phasebal.powerflow import SolverSettings

        devices = [
            Device(label="l", node="N1", kind=DeviceKind.LOAD, phase=None, s_rated_kva=1 + 0j),
            Device(
                label="pv", node="N1", kind=DeviceKind.DG, phase=Phase.A, s_rated_kva=-5.0 + 0j
            ),
        ]
        feeder = chain_feeder(2, 0.1, devices=devices)
        sol = snapshot_solve(feeder, settings=SolverSettings(tol_pu=1e-12))
        vuf_pct, drop_pct, _ = node_metric_arrays(sol.voltages, feeder.v_base_ln)
        assert drop_pct[1, 0] > 0  # rise on the injecting phase A of N1
        assert drop_pct[1, 1] < 0
        assert vuf_pct[1] > 0


class TestVufNorms:
    def test_limit_table(self):
        assert VUF_NORM_LIMITS == {
            "PGE": 2.5,
            "NEMA": 1.0,
            "BCH_STD": 2.0,
            "BCH_RURAL": 3.0,
            "EN50160_LV_MV": 2.0,
            "EN50160_HV": 1.0,
        }

    def test_within_en50160_lv(self):
        assert check_vuf_norm(1.30, "EN50160_LV_MV")

    def test_zero_within_every_norm(self):
        for norm in VUF_NORM_LIMITS:
            assert check_vuf_norm(0.0, norm)

    def test_boundary_exceeded(self):
        assert not check_vuf_norm(2.01, "BCH_STD")
        assert check_vuf_norm(2.0, "BCH_STD")

    def test_unknown_norm(self):
        with pytest.raises(UnknownNorm):
            check_vuf_norm(1.0, "IEEE_519")
