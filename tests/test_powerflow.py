"""Power-flow solver correctness: closed forms, cross-solver agreement,
physical invariants."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    TREE_SHAPES,
    _reference_device_currents,
    assert_same_steps,
    kcl_residual,
    kvl_residual,
    max_voltage_gap,
    random_feeder,
    random_tree,
    reference_sweep_batch,
    snapshot_solve,
)
from phasebal.checks import oracle_solve, power_balance_residual_kw
from phasebal.errors import NonConvergence, ScenarioStepError, VoltageCollapse
from phasebal.network import Device, DeviceKind, Phase, chain_feeder
from phasebal.powerflow import (
    MAX_ITER,
    SolverSettings,
    Topology,
    _Kernel,
    segment_losses,
    source_phasors,
    sweep_batch,
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

        topo = Topology(feeder)
        phase_loss, neutral_loss = segment_losses(sol.currents, topo.r_phase, topo.r_neutral)
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


#: Segment lengths, km: integers among them, whose product with an impedance
#: Python takes through float.
LENGTHS = st.integers(1, 100) | st.floats(1e-6, 1e4)

#: Impedances per km with resistances of 0.0 and -0.0 among them, as complex
#: numbers (reactance of either sign) and as plain floats.
RESISTANCES = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 10.0)
IMPEDANCES = RESISTANCES | st.builds(
    complex, RESISTANCES, st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
)


class TestTopology:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(TREE_SHAPES),
        n=st.integers(1, 40),
        data=st.data(),
    )
    def test_resistances_have_the_bits_of_python_complex_times_length(
        self, seed, shape, n, data
    ):
        """Every loss rests on these bits: ``r_phase`` and ``r_neutral``
        are byte-equal to ``(z_per_km * length_km).real`` per segment."""
        feeder = random_tree(random.Random(seed), n, shape)
        segments = tuple(
            replace(
                seg,
                length_km=data.draw(LENGTHS),
                z_phase_per_km=data.draw(IMPEDANCES),
                z_neutral_per_km=data.draw(IMPEDANCES),
            )
            for seg in feeder.segments
        )
        topo = Topology(replace(feeder, segments=segments))
        for got, field in ((topo.r_phase, "z_phase_per_km"), (topo.r_neutral, "z_neutral_per_km")):
            want = [(getattr(seg, field) * seg.length_km).real for seg in segments]
            assert got.dtype == float
            assert got.tobytes() == np.array(want, dtype=float).tobytes()

    def test_rows_come_from_the_feeder(self):
        feeder = random_tree(random.Random(3), 30, "mixed")
        topo = Topology(feeder)
        assert topo.nodes == feeder.nodes
        assert [topo.nodes[r] for r in topo.seg_child] == [s.to_node for s in feeder.segments]
        parents = topo.parent[topo.seg_child]
        assert [topo.nodes[r] for r in parents] == [s.from_node for s in feeder.segments]


def kernel_case(seed: int, shape: str, n: int, rows: int):
    """A seeded ``sweep_batch`` input on ``random_tree``: entries anywhere,
    the source bus included, several on one conductor and a third of them
    dead per row; rows scaled from idle through loads that converge on
    different passes to loads that collapse or never converge."""
    rng = np.random.default_rng(seed)
    topo = Topology(random_tree(random.Random(seed), n, shape))
    entries = int(rng.integers(1, 3 * n + 2))
    node = rng.integers(0, n, entries)
    cond = rng.integers(0, 3, entries)
    p_va = rng.uniform(-0.5, 1.0, (rows, entries)) * (120e3 / entries)
    s_va = p_va + 1j * p_va * rng.uniform(0.0, 0.5, (rows, entries))
    s_va[rng.random((rows, entries)) < 0.3] = 0
    s_va *= rng.choice([0.0, 0.2, 1.0, 3.0, 30.0, 300.0], size=(rows, 1))
    return topo, node, cond, s_va


class TestSweepKernel:
    """The bincount and sibling-rank kernel against the scatter reference in
    ``conftest.reference_sweep_batch``, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(TREE_SHAPES),
        n=st.integers(2, 40) | st.integers(41, 2000),
        rows=st.integers(1, 20),
        max_iter=st.sampled_from([3, 40]),
    )
    @example(seed=5, shape="mixed", n=150, rows=20, max_iter=40)
    # rows whose smallest live magnitude passes 1.4e-5 above 0.5 pu on some
    # pass (the screen lets it by) and 1.6e-4 below it (it collapses)
    @example(seed=1613491277, shape="chain", n=19, rows=13, max_iter=40)
    @example(seed=1513457303, shape="recursive", n=25, rows=18, max_iter=40)
    def test_matches_the_scatter_reference(self, seed, shape, n, rows, max_iter):
        topo, node, cond, s_va = kernel_case(seed, shape, n, rows)
        solver = SolverSettings(max_iter=max_iter)
        *got, got_failures = sweep_batch(topo, node, cond, s_va, solver)
        *want, want_failures = reference_sweep_batch(topo, node, cond, s_va, solver)
        for name, a, b in zip(("voltages", "currents", "iterations"), got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert repr(got_failures) == repr(want_failures)

    def test_the_pinned_example_holds_every_outcome(self):
        """The ``@example`` above: rows converged on four different passes,
        a collapsed row and one that did not converge."""
        _, _, iterations, failures = sweep_batch(
            *kernel_case(5, "mixed", 150, 20), SolverSettings(max_iter=40)
        )
        assert set(iterations.tolist()) >= {1, 3, 4, 6}
        kinds = {type(error) for error in failures.values()}
        assert kinds == {VoltageCollapse, NonConvergence}

    def test_the_screen_at_its_edge(self):
        """Hand-placed voltages where the SIMD ``abs`` screen hands rows to
        the exact ``hypot`` path: a live entry a few ulps and 1e-9 either
        side of 0.5 pu and at 0 V, dead entries at 0 V, NaN and infinite
        components, and a row with every entry dead. The same rows collapse
        as in the scatter reference, and those report the exact smallest
        live magnitude; screened rows report +inf. On every row that does
        not collapse the sinks equal the reference's; a collapsed row's
        sinks are never read, and only the reference clamps them."""
        topo = Topology(chain_feeder(4, 0.1))
        node = np.array([1, 1, 2, 3, 3, 2, 1])
        cond = np.array([0, 1, 2, 0, 1, 0, 2])
        half = 0.5 * topo.v_base
        ulps = [half]
        for _ in range(3):
            ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], np.inf)]
        margins = [half * (1 + f) for f in (-2e-9, -1e-9, 1e-9, 2e-9)]
        rows = []  # (node, conductor, value) placements per row
        b = topo.flat[1, 1] / topo.v_base  # phase B's angle
        for magnitude in [*ulps, *margins, 0.0]:  # phase A is at 0 degrees
            rows += [[(1, 0, complex(magnitude))], [(3, 1, magnitude * b)]]
        rows += [
            [],
            [(2, 2, 0j)],  # 0 V on entry 2, dead in this row (s_va below)
            [(3, 3, complex(np.nan, 0.0))],
            [(1, 3, complex(0.0, np.nan)), (1, 0, ulps[0])],
            [(2, 2, complex(np.inf, 0.0))],
            [(1, 1, complex(-np.inf, np.nan))],
            [(3, 0, complex(np.inf, -np.inf)), (1, 0, ulps[-1])],
            [(2, 0, complex(np.nan, np.nan))],  # on entry 5, dead in this row
            [(1, 0, 0j), (2, 2, 0j)],  # every entry dead in this row
        ]
        v = np.repeat(topo.flat[None], len(rows), axis=0)
        for r, placed in enumerate(rows):
            for n, c, value in placed:
                v[r, n, c] = value
        rng = np.random.default_rng(7)
        s_va = (rng.uniform(-2e3, 4e3, (len(rows), len(node))) + 500j).round()
        s_va[len(rows) - 8, 2] = s_va[len(rows) - 2, 5] = 0  # dead entries at 0 V and NaN
        s_va[-1] = 0
        s_va[1::5, 4] = 0  # and some dead entries elsewhere
        kernel = _Kernel(topo, node, cond, s_va)
        with np.errstate(all="ignore"):  # the reference divides by 0 V and infinities
            v_min = kernel.device_currents(v)
            sinks, v_min_ref = _reference_device_currents(topo, v, node, cond, s_va)
        collapsed = v_min < 0.5
        assert collapsed.tolist() == (v_min_ref < 0.5).tolist()
        got, want = kernel.acc[: len(rows)][~collapsed].view(float), sinks[~collapsed].view(float)
        # neither path fixes the sign of a NaN: 0 - x and 0 + (-x) differ there
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all() and nan.any()
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert v_min[collapsed].tobytes() == v_min_ref[collapsed].tobytes()
        screened = np.isinf(v_min) & np.isfinite(v_min_ref)
        exact = ~collapsed & np.isfinite(v_min)  # not passed by the screen, not collapsed
        assert collapsed.sum() >= 9 and screened.sum() >= 9 and exact.sum() >= 9
        assert (v_min[exact] == v_min_ref[exact]).all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(TREE_SHAPES),
        n=st.integers(2, 60),
        rows=st.integers(1, 20),
    )
    @example(seed=5, shape="mixed", n=150, rows=20)
    @example(seed=1613491277, shape="chain", n=19, rows=13)
    def test_rows_that_run_on_see_no_live_entry_below_half_a_pu(self, seed, shape, n, rows):
        """On every pass of a solve, each row the kernel does not flag as
        collapsed sees every live entry at 0.5 pu or more by ``np.hypot``:
        a clamp of the magnitudes below 0.5 pu would change no sink that
        is read."""
        topo, node, cond, s_va = kernel_case(seed, shape, n, rows)
        half = 0.5 * topo.v_base
        device_currents = _Kernel.device_currents
        passes = []

        def checked(kernel, v):
            v_ln = v[:, node, cond] - v[:, node, 3]
            mag = np.hypot(v_ln.real, v_ln.imag)
            v_min = device_currents(kernel, v)
            running = v_min >= 0.5
            assert (mag[running] >= half)[~kernel.dead[running]].all()
            passes.append(len(v))
            return v_min

        with mock.patch.object(_Kernel, "device_currents", checked):
            sweep_batch(topo, node, cond, s_va, SolverSettings(max_iter=40))
        assert passes

    def test_nodes_out_of_breadth_first_order_are_rejected(self):
        feeder = chain_feeder(3, 0.1)
        with pytest.raises(ValueError, match="breadth-first"):
            Topology(replace(feeder, nodes=feeder.nodes[::-1]))


class TestPhysicsAtScale:
    def test_kirchhoff_and_power_balance_on_a_10k_node_tree(self):
        """KCL, KVL and power balance on one seeded 10,000-node random
        recursive tree (the dense oracle stops at 12 nodes)."""
        feeder = random_tree(random.Random(10), 10_000)
        sol = snapshot_solve(feeder, settings=TIGHT)
        i_base = feeder.s_base_kva * 1000.0 / (3.0 * feeder.v_base_ln)
        assert kcl_residual(feeder, sol) < 1e-9 * i_base
        assert kvl_residual(feeder, sol) < 1e-9 * feeder.v_base_ln
        assert power_balance_residual_kw(feeder, sol) < 1e-6 * feeder.s_base_kva


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
        assert a.voltages.tobytes() == b.voltages.tobytes()
        assert a.currents.tobytes() == b.currents.tobytes()
        assert a.iterations == b.iterations

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

    def test_oracle_raises_voltage_collapse_on_infeasible_load(self):
        feeder = single_phase_load_feeder(50.0, km=1.0)
        with pytest.raises(VoltageCollapse) as exc:
            oracle_solve(feeder)
        assert exc.value.v_min_pu < 0.5 and exc.value.iteration >= 1

    def test_oracle_non_convergence_reports_iterations(self):
        feeder = single_phase_load_feeder(1.0)
        with pytest.raises(NonConvergence) as exc:
            oracle_solve(feeder, settings=SolverSettings(tol_pu=1e-12, max_iter=1))
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
        topo = Topology(feeder)
        for sol in (snapshot_solve(feeder, settings=TIGHT), oracle_solve(feeder, settings=TIGHT)):
            for node in feeder.nodes:
                assert abs(sol.v[node]["N"]) < 1e-9 * feeder.v_base_ln
            _, neutral_loss = segment_losses(sol.currents, topo.r_phase, topo.r_neutral)
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
        assert_same_steps(got, want)
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

    @pytest.mark.parametrize("field", ["tol_pu", "max_iter"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected_and_named(self, field, value):
        """A bool is an int to Python, so ``max_iter=True`` would run one
        pass and report "after True iterations"; the schema refuses it too."""
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {value}$"):
            SolverSettings(**{field: value})

    @pytest.mark.parametrize("max_iter", [0, 0.0, -3.0])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            SolverSettings(max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [MAX_ITER + 1, 1e308, 2**1024])
    def test_max_iter_is_bounded(self, max_iter):
        """Else a tolerance that no pass reaches runs without end."""
        with pytest.raises(ValueError, match=f"max_iter must be at most {MAX_ITER}"):
            SolverSettings(max_iter=max_iter)
        assert SolverSettings(max_iter=MAX_ITER).max_iter == MAX_ITER

    @pytest.mark.parametrize("tol_pu", [math.inf, math.nan, 0.0, -1e-8])
    def test_tolerance_must_be_finite_and_positive(self, tol_pu):
        """An infinite tolerance would stop every solve after one pass."""
        with pytest.raises(ValueError, match="tol_pu must be finite and > 0"):
            SolverSettings(tol_pu=tol_pu)
