"""Power-flow solver correctness: closed forms, cross-solver agreement,
physical invariants."""

from __future__ import annotations

import cmath
import math
import random

import pytest

from conftest import kcl_residual, kvl_residual, max_voltage_gap, random_feeder, snapshot_solve
from phasebal.errors import NonConvergence, ScenarioStepError, VoltageCollapse
from phasebal.network import Device, DeviceKind, Phase, chain_feeder
from phasebal.powerflow import (
    SolverSettings,
    oracle_solve,
    power_balance_residual_kw,
    segment_losses,
    segment_resistances,
    source_phasors,
)

from phasebal.scenarios import build_sweep_scenario, run_scenario

TIGHT = SolverSettings(tol_pu=1e-12, max_iter=200)


def two_bus_closed_form(v0: float, z: complex, s_va: complex) -> complex:
    """Independent closed-form solution of V = V0 - z conj(S/V), V0 real.

    From S conj(z) = V V0 - |V|^2: the squared magnitude u = |V|^2 solves
    u^2 + u (2 Re(w) - V0^2) + |w|^2 = 0 with w = S conj(z), then
    V = (w + u) / V0. The high-voltage root is the physical one.
    """
    w = s_va * z.conjugate()
    b = 2 * w.real - v0 * v0
    disc = b * b - 4 * abs(w) ** 2
    u = (-b + math.sqrt(disc)) / 2
    return (w + u) / v0


def single_phase_load_feeder(kw: float, km: float = 0.1):
    dev = Device(
        label="load", node="N1", kind=DeviceKind.LOAD, phase=Phase.A, s_rated_kva=complex(kw, 0)
    )
    return chain_feeder(2, km, devices=[dev])


class TestTrivialCases:
    def test_zero_load_equals_source_everywhere(self):
        feeder = chain_feeder(3, 0.1)
        sol = snapshot_solve(feeder)
        va, vb, vc = source_phasors(feeder.v_base_ln)
        for node in feeder.nodes:
            assert sol.v[node]["A"] == va
            assert sol.v[node]["B"] == vb
            assert sol.v[node]["C"] == vc
            assert sol.v[node]["N"] == 0
        assert sol.iterations <= 1  # no correction beyond the first sweep

    def test_source_boundary_conditions(self):
        feeder = single_phase_load_feeder(1.0)
        sol = snapshot_solve(feeder, settings=TIGHT)
        src = sol.v[feeder.source_node]
        assert src["N"] == 0
        for c, angle in (("A", 0.0), ("B", -120.0), ("C", 120.0)):
            assert abs(src[c]) == pytest.approx(feeder.v_base_ln)
            assert cmath.phase(src[c]) == pytest.approx(math.radians(angle))

    def test_zero_load_oracle_exact(self):
        feeder = chain_feeder(4, 0.2)
        sol = oracle_solve(feeder)
        for node in feeder.nodes:
            assert abs(sol.v[node]["A"] - 230) < 1e-9
            assert abs(sol.v[node]["N"]) < 1e-9


class TestTwoBusClosedForm:
    def test_balanced_unity_pf_load(self):
        # 1 kW per phase, z = 0.032 + 0.008j ohm total per conductor
        dev = Device(
            label="load", node="N1", kind=DeviceKind.LOAD, phase=None, s_rated_kva=1.0 + 0j
        )
        feeder = chain_feeder(2, 0.1, devices=[dev])
        z_total = feeder.segments[0].z_phase_per_km * 0.1
        assert z_total == pytest.approx(0.032 + 0.008j)

        sol = snapshot_solve(feeder, settings=TIGHT)
        v_exp = two_bus_closed_form(230.0, z_total, 1000.0 + 0j)
        rot = {"A": 1, "B": cmath.exp(-2j * math.pi / 3), "C": cmath.exp(2j * math.pi / 3)}
        for phase in ("A", "B", "C"):
            assert abs(sol.v["N1"][phase] - v_exp * rot[phase]) < 1e-8
        # balanced: no neutral current, no neutral shift anywhere
        assert abs(sol.currents[0, 3]) < 1e-9
        assert abs(sol.v["N1"]["N"]) < 1e-9

    def test_single_phase_load_return_path(self):
        feeder = single_phase_load_feeder(1.0)
        seg = feeder.segments[0]
        z_p = seg.z_phase_per_km * seg.length_km
        z_n = seg.z_neutral_per_km * seg.length_km

        sol = snapshot_solve(feeder, settings=TIGHT)
        # line-to-neutral voltage at the load follows the loop-impedance
        # closed form
        v_ln_exp = two_bus_closed_form(230.0, z_p + z_n, 1000.0 + 0j)
        v_ln = sol.v["N1"]["A"] - sol.v["N1"]["N"]
        assert abs(v_ln - v_ln_exp) < 1e-8

        i_a, i_n = sol.currents[0, 0].item(), sol.currents[0, 3].item()
        assert abs(abs(i_n) - abs(i_a)) < 1e-9  # full return through neutral
        assert abs(i_a + i_n) < 1e-9  # opposite directions
        # neutral potential rises at the load end by z_n * I
        assert abs(sol.v["N1"]["N"] - z_n * i_a) < 1e-8

        phase_loss, neutral_loss = segment_losses(sol.currents, *segment_resistances(feeder))
        assert neutral_loss[0] == pytest.approx(abs(i_n) ** 2 * z_n.real / 1000.0)
        # equal impedances, equal currents: phase-A loss equals neutral loss
        assert phase_loss[0, 0] == pytest.approx(neutral_loss[0])
        assert phase_loss[0, 1] == 0
        assert phase_loss[0, 2] == 0


class TestCrossSolverEquivalence:
    def test_hundred_random_feeders(self):
        rng = random.Random(2024)
        settings = SolverSettings(tol_pu=1e-10, max_iter=300)
        for case in range(100):
            feeder = random_feeder(rng)
            sweep = snapshot_solve(feeder, settings=settings)
            oracle = oracle_solve(feeder, settings=settings)
            gap = max_voltage_gap(sweep, oracle, feeder.nodes)
            assert gap <= 1e-8 * feeder.v_base_ln, f"case {case}: gap {gap}"
            assert power_balance_residual_kw(feeder, sweep) < 1e-6 * feeder.s_base_kva
            assert power_balance_residual_kw(feeder, oracle) < 1e-6 * feeder.s_base_kva

    def test_kirchhoff_residuals_on_random_feeders(self):
        rng = random.Random(7)
        settings = SolverSettings(tol_pu=1e-12, max_iter=300)
        for _ in range(25):
            feeder = random_feeder(rng)
            i_base = feeder.s_base_kva * 1000.0 / (3.0 * feeder.v_base_ln)
            for sol in (
                snapshot_solve(feeder, settings=settings),
                oracle_solve(feeder, settings=settings),
            ):
                assert kcl_residual(feeder, sol) < 1e-9 * i_base
                assert kvl_residual(feeder, sol) < 1e-9 * feeder.v_base_ln


class TestInjectionHandling:
    def test_injections_override_by_label(self):
        feeder = single_phase_load_feeder(1.0)
        dev = feeder.devices[0]
        off = snapshot_solve(feeder, {dev: 0j}, settings=TIGHT)
        assert abs(off.v["N1"]["A"] - 230) < 1e-12
        doubled = snapshot_solve(feeder, {dev: 2.0 + 0j}, settings=TIGHT)
        assert abs(doubled.v["N1"]["A"]) < abs(snapshot_solve(feeder, settings=TIGHT).v["N1"]["A"])

    def test_balanced_device_applies_per_phase(self):
        dev = Device(
            label="l3", node="N1", kind=DeviceKind.LOAD, phase=None, s_rated_kva=1.0 + 0j
        )
        feeder = chain_feeder(2, 0.1, devices=[dev])
        sol = snapshot_solve(feeder, settings=TIGHT)
        # the one segment leaves the source bus (row 0)
        total_p = sum((sol.voltages[0, c] * sol.currents[0, c].conjugate()).real for c in range(3))
        assert total_p / 1000.0 == pytest.approx(3.0, rel=1e-2)  # 1 kW on each phase + loss


class TestDeterminismAndTolerance:
    def test_repeat_solve_bit_identical(self):
        rng = random.Random(5)
        feeder = random_feeder(rng)
        a = snapshot_solve(feeder)
        b = snapshot_solve(feeder)
        assert a == b

    def test_halving_tolerance_is_stable(self):
        rng = random.Random(9)
        for _ in range(10):
            feeder = random_feeder(rng)
            for tol in (1e-6, 1e-8):
                coarse = snapshot_solve(feeder, settings=SolverSettings(tol_pu=tol))
                fine = snapshot_solve(feeder, settings=SolverSettings(tol_pu=tol / 2))
                gap = max_voltage_gap(coarse, fine, feeder.nodes)
                assert gap <= tol * feeder.v_base_ln


class TestFailureModes:
    def test_voltage_collapse_on_infeasible_load(self):
        feeder = single_phase_load_feeder(50.0, km=1.0)
        with pytest.raises(VoltageCollapse) as exc:
            snapshot_solve(feeder)
        assert exc.value.v_min_pu < 0.5

    def test_non_convergence_reports_iterations(self):
        feeder = single_phase_load_feeder(1.0)
        with pytest.raises(NonConvergence) as exc:
            snapshot_solve(feeder, settings=SolverSettings(tol_pu=1e-12, max_iter=1))
        assert exc.value.iterations == 1
        assert exc.value.residual > 0

    def test_oracle_rejects_large_feeders(self):
        feeder = chain_feeder(13, 0.1)
        with pytest.raises(ValueError, match="12 nodes"):
            oracle_solve(feeder)


class TestBalancedSymmetry:
    def test_balanced_network_has_zero_neutral_everywhere(self):
        devices = [
            Device(
                label=f"l{i}",
                node=f"N{i}",
                kind=DeviceKind.LOAD,
                phase=None,
                s_rated_kva=1.0 + 0.2j,
            )
            for i in range(1, 6)
        ]
        feeder = chain_feeder(6, 0.1, devices=devices)
        for sol in (snapshot_solve(feeder, settings=TIGHT), oracle_solve(feeder, settings=TIGHT)):
            for node in feeder.nodes:
                assert abs(sol.v[node]["N"]) < 1e-9 * feeder.v_base_ln
            _, neutral_loss = segment_losses(sol.currents, *segment_resistances(feeder))
            assert neutral_loss.sum() < 1e-12


class TestSolverSettings:
    def test_integral_float_max_iter_runs_as_that_int(self):
        """JSON Schema counts 5.0 as an integer, so the settings take it as
        5. This feeder converges on pass 5 at every step and fails at 4."""
        scenario = build_sweep_scenario(5.0, "N5", DeviceKind.DG, 50, "compact")
        assert type(SolverSettings(max_iter=5.0).max_iter) is int
        assert SolverSettings(max_iter=5.0) == SolverSettings(max_iter=5)
        got = run_scenario(scenario, SolverSettings(max_iter=5.0))
        want = run_scenario(scenario, SolverSettings(max_iter=5))
        assert repr(got) == repr(want) and got == want
        assert [r.solution.iterations for r in got.per_timestep] == [5] * scenario.n_steps
        errors = []
        for max_iter in (4.0, 4):
            with pytest.raises(ScenarioStepError) as exc:
                run_scenario(scenario, SolverSettings(max_iter=max_iter))
            errors.append(str(exc.value))
        assert errors[0] == errors[1] and "after 4 iterations" in errors[0]

    @pytest.mark.parametrize("max_iter", [5.5, 0.5, math.inf, -math.inf, math.nan])
    def test_non_integral_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverSettings(max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, 0.0, -3.0])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            SolverSettings(max_iter=max_iter)
