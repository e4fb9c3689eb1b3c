"""Scenario builders, the simulation loop, and sweep tabulation."""

from __future__ import annotations

import contextlib
import math
import random
import struct
import sys
from collections.abc import Sequence
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    assert_same_steps,
    cell_columns,
    kcl_residual,
    kvl_residual,
    labelled,
    random_feeder,
    reference_dispatch,
    reference_run,
    reference_sweep,
    reference_timeseries_lines,
    snapshot_solve,
    with_device,
    with_greedy_fleet,
    with_profiles,
)
from phasebal.checks import DispatchAction, oracle_solve, power_balance_residual_kw
from phasebal.cli import timeseries_rows
from phasebal.errors import (
    PhasebalError,
    ScenarioStepError,
    SignConventionViolation,
    SocOverflow,
    SocUnderflow,
    UnknownNode,
    UnsupportedNode,
    VoltageCollapse,
    ZeroPositiveSequence,
)
from phasebal.network import (
    PHASES,
    Device,
    DeviceKind,
    LineSegment,
    Phase,
    build_feeder,
    chain_feeder,
)
from phasebal.powerflow import (
    SolverSettings,
    Topology,
    segment_losses,
)
from phasebal import scenarios
from phasebal.scenarios import (
    MAX_STEPS,
    NETWORK_CLASS_SEGMENT_KM,
    SUMMARY_FIELDS,
    SWEEP_KINDS,
    Scenario,
    ScenarioResult,
    SweepTable,
    SweepTemplate,
    _dispatch,
    build_stylized_scenario,
    build_sweep_scenario,
    run_scenario,
    sweep_and_tabulate,
)
from phasebal import storage
from phasebal.storage import Architecture, ArchKind, Battery

FULL_GRID = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 120]


class TestSweepBuilder:
    def test_compact_120_dg_at_n1(self):
        sc = build_sweep_scenario(5.0, "N1", DeviceKind.DG, 120, "compact")
        dg = labelled(sc.feeder, "dg-N1")
        assert dg.s_rated_kva == -6.0 + 0j  # 120% of 5 kW, injecting
        assert dg.phase is Phase.A
        assert all(seg.length_km == 0.1 for seg in sc.feeder.segments)
        loads = [d for d in sc.feeder.devices if d.kind is DeviceKind.LOAD]
        assert len(loads) == 5
        assert all(d.s_rated_kva == 1.0 + 0j and d.phase is None for d in loads)

    def test_zero_penetration_is_nominal(self):
        sc = build_sweep_scenario(5.0, "N5", DeviceKind.EV, 0, "compact")
        assert all(d.kind is DeviceKind.LOAD for d in sc.feeder.devices)

    def test_overload_120_dg_at_n5(self):
        sc = build_sweep_scenario(50.0, "N5", DeviceKind.DG, 120, "overload")
        assert labelled(sc.feeder, "dg-N5").s_rated_kva == -60.0 + 0j

    def test_sparse_segment_length(self):
        sc = build_sweep_scenario(5.0, "N5", DeviceKind.DG, 120, "sparse")
        assert all(seg.length_km == 1.0 for seg in sc.feeder.segments)

    def test_unknown_node_rejected(self):
        with pytest.raises(UnknownNode):
            build_sweep_scenario(5.0, "N9", DeviceKind.DG, 50, "compact")

    def test_phase_and_kind_by_value_build_their_members(self):
        """``"B"`` and ``"dg"`` build the cell of ``Phase.B`` and
        ``DeviceKind.DG``, not a label read off a plain string."""
        want = build_sweep_scenario(5.0, "N5", DeviceKind.DG, 120, "compact", device_phase=Phase.B)
        got = build_sweep_scenario(5.0, "N5", "dg", 120, "compact", device_phase="B")
        assert (got.label, got.feeder) == (want.label, want.feeder)
        assert labelled(got.feeder, "dg-N5").phase is Phase.B
        with pytest.raises(ValueError, match="unknown sweep device_phase 'X'"):
            build_sweep_scenario(5.0, "N5", DeviceKind.DG, 120, "compact", device_phase="X")
        with pytest.raises(ValueError, match="unknown sweep kind 'pv'"):
            build_sweep_scenario(5.0, "N5", "pv", 120, "compact")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_sweep_scenario(5.0, "N5", DeviceKind.DG, 50, "urban")
        with pytest.raises(ValueError):
            build_sweep_scenario(5.0, "N5", DeviceKind.LOAD, 50, "compact")
        with pytest.raises(ValueError):
            build_sweep_scenario(5.0, "N5", DeviceKind.DG, 250, "compact")


class TestStylizedBuilder:
    def test_no_storage(self):
        sc = build_stylized_scenario(None)
        assert sc.batteries == ()
        assert sc.controller == "none"
        labels = {d.label for d in sc.feeder.devices}
        assert {"pv-N3", "ev-N3"} <= labels
        pv = labelled(sc.feeder, "pv-N3")
        assert pv.s_rated_kva == -10.0 + 0j and pv.node == "N3" and pv.phase is Phase.A
        # windows: generation 10:00-15:00, extra load 18:00-23:00
        assert sc.profiles["dg-window"][9] == 0.0
        assert all(sc.profiles["dg-window"][h] == 1.0 for h in range(10, 15))
        assert sc.profiles["dg-window"][15] == 0.0
        assert all(sc.profiles["ev-window"][h] == 1.0 for h in range(18, 23))
        assert sc.profiles["ev-window"][23] == 0.0

    def test_a1_battery(self):
        sc = build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0)
        assert len(sc.batteries) == 1
        bat = sc.batteries[0]
        assert bat.p_max_kw == 3.0 and bat.e_max_kwh == 15.0 and bat.soc_kwh == 0.0
        st = labelled(sc.feeder, "st-1")
        assert st.node == "N5" and st.battery_id == "bat-1"

    def test_a2_three_units_initial_soc(self):
        sc = build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0)
        assert [b.p_max_kw for b in sc.batteries] == [1.0, 1.0, 1.0]
        # target-phase unit charges first (starts empty); companions start full
        assert sc.batteries[0].soc_kwh == 0.0
        assert sc.batteries[1].soc_kwh == 5.0
        assert sc.batteries[2].soc_kwh == 5.0

    def test_storage_node_restricted(self):
        with pytest.raises(UnsupportedNode):
            build_stylized_scenario(Architecture(ArchKind.A1), "N3", 3.0)

    @pytest.mark.parametrize("kind", list(ArchKind))
    def test_phase_and_kind_by_value_run_as_their_members(self, kind):
        """A target phase or architecture kind given as a string builds the
        same fleet and trajectory as its member: with ``"B"`` compared by
        identity, an A2 fleet started all three units full."""
        want = build_stylized_scenario(Architecture(kind), target_phase=Phase.B)
        got = build_stylized_scenario(Architecture(kind.value), target_phase="B")
        assert got.architecture.kind is kind and got.schedule.target_phase is Phase.B
        assert got.batteries == want.batteries
        assert_same_steps(run_scenario(got), run_scenario(want))


class TestScenarioValidation:
    def test_missing_profile(self):
        dev = Device(
            label="l", node="N1", kind=DeviceKind.LOAD, s_rated_kva=1 + 0j, profile_id="nope"
        )
        feeder = chain_feeder(2, 0.1, devices=[dev])
        with pytest.raises(ValueError, match="nope"):
            Scenario(feeder=feeder)

    def test_profile_length_mismatch(self):
        dev = Device(
            label="l", node="N1", kind=DeviceKind.LOAD, s_rated_kva=1 + 0j, profile_id="p"
        )
        feeder = chain_feeder(2, 0.1, devices=[dev])
        with pytest.raises(ValueError, match="entries"):
            Scenario(feeder=feeder, profiles={"p": (1.0,) * 12})

    def test_battery_device_mismatch(self):
        feeder = chain_feeder(2, 0.1)
        with pytest.raises(ValueError, match="storage devices"):
            Scenario(feeder=feeder, batteries=(Battery(id="b", p_max_kw=1.0),))

    def test_battery_shared_by_two_storage_devices(self):
        devices = [
            Device("st-a", "N1", DeviceKind.STORAGE, Phase.A, battery_id="b"),
            Device("st-b", "N2", DeviceKind.STORAGE, Phase.A, battery_id="b"),
        ]
        feeder = chain_feeder(3, 0.1, devices=devices)
        with pytest.raises(ValueError, match="battery 'b' is attached to more than one"):
            Scenario(
                feeder=feeder,
                architecture=Architecture(ArchKind.A1),
                controller="fixed_schedule",
                batteries=(Battery(id="b", p_max_kw=1.0),),
            )

    def test_a2_storage_phase_must_be_its_dispatch_phase(self):
        """A2 dispatches its units on phases A, B and C in ``batteries``
        order, whatever their devices say: listed as bat-c, bat-a, bat-b,
        bat-c would inject on phase A through a device on phase C. A device
        without a phase, or a fleet no controller dispatches, is valid."""
        devices = [
            Device(f"st-{p}", "N1", DeviceKind.STORAGE, Phase(p.upper()), battery_id=f"bat-{p}")
            for p in "abc"
        ]
        feeder = chain_feeder(2, 0.1, devices=devices)
        fleet = Scenario(
            feeder=replace(feeder, devices=tuple(replace(d, phase=None) for d in devices)),
            architecture=Architecture(ArchKind.A2),
            batteries=tuple(Battery(id=f"bat-{p}", p_max_kw=1.0) for p in "cab"),
            controller="fixed_schedule",
        )
        assert run_scenario(fleet).trajectory.phase[12].tolist() == [0, 1, 2]
        replace(fleet, feeder=feeder, controller="none")
        for controller in ("fixed_schedule", "greedy"):
            with pytest.raises(
                ValueError,
                match="A2 battery 'bat-c' dispatches on phase A, "
                "but its storage device 'st-c' is on phase C",
            ):
                replace(fleet, feeder=feeder, controller=controller)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
    def test_profile_value_must_be_finite_and_non_negative(self, bad):
        dev = Device("l", "N1", DeviceKind.LOAD, Phase.A, 1 + 0j, profile_id="p")
        feeder = chain_feeder(2, 0.1, devices=[dev])
        with pytest.raises(ValueError, match=r"profile 'p' entry 1 must be finite and >= 0"):
            Scenario(feeder=feeder, horizon_h=3.0, profiles={"p": (1.0, bad, 1.0)})

    def test_unused_profile_is_checked_too(self):
        with pytest.raises(ValueError, match=r"profile 'spare' entry 0 must be finite"):
            Scenario(feeder=chain_feeder(2, 0.1), horizon_h=1.0, profiles={"spare": (-1.0,)})

    def test_scaled_rating_must_be_finite(self):
        dev = Device("l", "N1", DeviceKind.LOAD, Phase.A, 1e305 + 1j, profile_id="p")
        feeder = chain_feeder(2, 0.1, devices=[dev])
        # the solver takes VA: entries 1 and 2 both overflow there; the first is named
        named = "profile 'p' entry 1 scales the rating of device 'l'"
        with pytest.raises(ValueError, match=named):
            Scenario(feeder=feeder, horizon_h=3.0, profiles={"p": (1.0, 2.0, 10.0)})
        Scenario(feeder=feeder, horizon_h=3.0, profiles={"p": (1.0, 1.5, 0.0)})

    def test_first_device_whose_scaled_rating_overflows_is_named(self):
        """Devices are checked in feeder order against their profile's
        peak: the first that overflows is named, at its own first
        overflowing entry, although a later device overflows at an earlier
        entry and another names an undefined profile."""
        devices = [
            Device("small", "N1", DeviceKind.LOAD, Phase.A, 1 + 0j, profile_id="p"),
            Device("big", "N1", DeviceKind.LOAD, Phase.B, 1e305 + 0j, profile_id="p"),
            Device("bigger", "N1", DeviceKind.LOAD, Phase.C, 1.7e305 + 0j, profile_id="p"),
            Device("orphan", "N1", DeviceKind.LOAD, Phase.A, 1 + 0j, profile_id="none"),
        ]
        feeder = chain_feeder(2, 0.1, devices=devices)
        named = "profile 'p' entry 2 scales the rating of device 'big'"
        with pytest.raises(ValueError, match=named):
            Scenario(feeder=feeder, horizon_h=3.0, profiles={"p": (1.0, 1.5, 10.0)})

    @pytest.mark.parametrize("horizon_h", [1e15, math.inf, MAX_STEPS + 1.0])
    def test_step_count_is_bounded(self, horizon_h):
        # raised in __post_init__, before any per-step array exists
        with pytest.raises(ValueError, match=f"must be at most {MAX_STEPS} steps"):
            Scenario(feeder=chain_feeder(2, 0.1), horizon_h=horizon_h)
        longest = Scenario(feeder=chain_feeder(2, 0.1), horizon_h=float(MAX_STEPS))
        assert longest.n_steps == MAX_STEPS

    def test_greedy_search_size_is_bounded(self):
        # raised in __post_init__, before any search array exists
        with pytest.raises(ValueError, match=r"battery 'bat-a': p_max_kw 1e\+06 makes the greedy"):
            build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3e6, controller="greedy")
        # the fixed schedule builds no search array
        build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3e6)

    @pytest.mark.parametrize("dt_h", [0.0, -0.0, -1.0, math.nan])
    def test_step_must_be_positive(self, dt_h):
        with pytest.raises(ValueError, match=r"^dt_h must be > 0, got"):
            Scenario(feeder=chain_feeder(2, 0.1), dt_h=dt_h)
        with pytest.raises(ValueError, match=r"^dt_h must be > 0, got"):
            build_stylized_scenario(Architecture(ArchKind.A2), dt_h=dt_h)

    @pytest.mark.parametrize(
        "horizon_h, message",
        [
            (math.inf, f"at most {MAX_STEPS} steps, got inf"),
            (math.nan, f"at most {MAX_STEPS} steps, got nan"),
            (4e6, f"at most {MAX_STEPS} steps, got 4e\\+06"),
            (-math.inf, "positive multiple of dt_h"),
        ],
    )
    def test_stylized_horizon_is_refused_before_its_profiles_are_sized(self, horizon_h, message):
        def sized(*args):
            raise AssertionError("a profile was sized")

        with mock.patch.object(scenarios, "_window_profile", sized):
            with pytest.raises(ValueError, match=message):
                build_stylized_scenario(Architecture(ArchKind.A2), horizon_h=horizon_h)
        with pytest.raises(ValueError, match=message):
            Scenario(feeder=chain_feeder(2, 0.1), horizon_h=horizon_h)

    def test_horizon_must_divide(self):
        feeder = chain_feeder(2, 0.1)
        with pytest.raises(ValueError, match="multiple"):
            Scenario(feeder=feeder, horizon_h=24.0, dt_h=0.7)

    def test_unknown_controller(self):
        feeder = chain_feeder(2, 0.1)
        with pytest.raises(ValueError, match="controller"):
            Scenario(feeder=feeder, controller="mpc")


class TestRunScenario:
    def test_balanced_nominal_is_clean(self):
        result = run_scenario(build_sweep_scenario(5.0, "N5", DeviceKind.DG, 0, "compact"))
        assert result.neutral_loss_kwh <= 1e-12
        assert result.max_vuf_pct < 1e-9
        assert result.max_vuf_pct >= result.mean_vuf_pct
        assert result.phase_loss_kwh > 0
        assert len(result.per_timestep) == 24

    def test_solved_arrays_compare_and_hash_by_identity(self):
        """Two greedy-fleet runs solve byte-equal voltages in distinct
        ``Trajectory`` objects: ``==`` compares them by identity instead of
        asking the arrays for a truth value, and ``hash`` works."""
        scenario = build_stylized_scenario(Architecture(ArchKind.A2), "N5", 4.5, "greedy")
        a, b = (run_scenario(scenario).trajectory for _ in range(2))
        assert a.voltages.tobytes() == b.voltages.tobytes()
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_scenario_and_result_are_unhashable_but_compare(self):
        """A scenario's ``profiles`` and a result's ``sum_drop_at`` are
        dicts, so neither class is hashable; ``==`` compares as before."""
        scenario = build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0)
        result = run_scenario(scenario)
        for value in (scenario, result):
            with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
                hash(value)
        assert scenario == replace(scenario) and scenario != replace(scenario, label="other")
        assert result == run_scenario(scenario)
        assert result != run_scenario(replace(scenario, label="other"))

    def test_feeder_without_devices_runs_at_no_load(self):
        """No device means no injection entries: every step is the one
        operating point of an unloaded feeder, without losses."""
        result = run_scenario(Scenario(feeder=chain_feeder(3, 0.1), horizon_h=3.0))
        assert result.step_row.tolist() == [0, 0, 0]
        assert len(result.trajectory.voltages) == 1
        assert result.phase_loss_kwh == result.neutral_loss_kwh == 0.0

    def test_stylized_neutral_current_only_in_windows(self):
        scenario = build_stylized_scenario(None)
        result = run_scenario(scenario)
        topo = Topology(scenario.feeder)
        for rec in result.per_timestep:
            in_window = 10 <= rec.t_h < 15 or 18 <= rec.t_h < 23
            _, neutral_loss = segment_losses(rec.solution.currents, topo.r_phase, topo.r_neutral)
            neutral_kw = neutral_loss.sum()
            if in_window:
                assert neutral_kw > 1e-6
            else:
                assert neutral_kw < 1e-12

    def test_determinism_bit_identical(self):
        a = run_scenario(build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0))
        b = run_scenario(build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0))
        assert a == b
        assert_same_steps(a, b)

    def test_phase_rotation_symmetry(self):
        base = run_scenario(
            build_sweep_scenario(5.0, "N5", DeviceKind.DG, 120, "compact", device_phase=Phase.A)
        )
        for phase in (Phase.B, Phase.C):
            rotated = run_scenario(
                build_sweep_scenario(
                    5.0, "N5", DeviceKind.DG, 120, "compact", device_phase=phase
                )
            )
            assert rotated.max_vuf_pct == pytest.approx(base.max_vuf_pct, rel=1e-9)
            assert rotated.mean_vuf_pct == pytest.approx(base.mean_vuf_pct, rel=1e-9)
            assert rotated.neutral_loss_kwh == pytest.approx(base.neutral_loss_kwh, rel=1e-9)
            assert rotated.phase_loss_kwh == pytest.approx(base.phase_loss_kwh, rel=1e-9)
            assert rotated.max_drop_pct == pytest.approx(base.max_drop_pct, rel=1e-9)

    def test_stylized_rotation_symmetry_with_storage(self):
        base = run_scenario(
            build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0, target_phase=Phase.A)
        )
        rotated = run_scenario(
            build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0, target_phase=Phase.B)
        )
        assert rotated.max_vuf_pct == pytest.approx(base.max_vuf_pct, rel=1e-9)
        assert rotated.neutral_loss_kwh == pytest.approx(base.neutral_loss_kwh, rel=1e-9)

    def test_n5_placement_hurts_more_than_n1(self):
        for kind in (DeviceKind.DG, DeviceKind.EV):
            for pen in (40, 120):
                at_n5 = run_scenario(build_sweep_scenario(5.0, "N5", kind, pen, "compact"))
                at_n1 = run_scenario(build_sweep_scenario(5.0, "N1", kind, pen, "compact"))
                assert at_n5.neutral_loss_kwh >= at_n1.neutral_loss_kwh

    def test_storage_at_feeder_end_beats_feeder_head(self):
        for arch in (Architecture(ArchKind.A1), Architecture(ArchKind.A2)):
            at_n5 = run_scenario(build_stylized_scenario(arch, "N5", 3.0))
            at_n0 = run_scenario(build_stylized_scenario(arch, "N0", 3.0))
            assert at_n5.max_vuf_pct <= at_n0.max_vuf_pct
            assert at_n5.neutral_loss_kwh <= at_n0.neutral_loss_kwh
            assert at_n5.phase_loss_kwh <= at_n0.phase_loss_kwh
            assert max(at_n5.max_drop_pct, at_n5.max_rise_pct) <= max(
                at_n0.max_drop_pct, at_n0.max_rise_pct
            )

    def test_battery_soc_round_trip_over_day(self):
        result = run_scenario(build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0))
        first = result.per_timestep[0].soc_kwh
        last = result.per_timestep[-1].soc_kwh
        # A-unit cycles 0 -> 5 -> 0; companions 5 -> 0 -> 5
        assert last["bat-a"] == pytest.approx(0.0, abs=1e-9)
        assert last["bat-b"] == pytest.approx(5.0, abs=1e-9)
        assert first["bat-a"] == pytest.approx(0.0, abs=1e-9)
        mid = result.per_timestep[15].soc_kwh  # right after the DG window
        assert mid["bat-a"] == pytest.approx(5.0, abs=1e-9)
        assert mid["bat-b"] == pytest.approx(0.0, abs=1e-9)

    def test_collapse_is_tagged_with_timestep(self):
        sc = build_sweep_scenario(50.0, "N5", DeviceKind.EV, 120, "overload")
        with pytest.raises(ScenarioStepError) as exc:
            run_scenario(sc)
        assert exc.value.t_h == 0.0


class TestSweepTabulate:
    def test_full_grid_shape(self):
        rows = sweep_and_tabulate(
            SweepTemplate(total_phase_load_kw=5.0, network_class="compact"),
            FULL_GRID,
            ["N1", "N5"],
            [DeviceKind.DG, DeviceKind.EV],
        )
        assert len(rows) == 2 * 2 * 12
        assert all(r.error is None for r in rows)
        keys = [(r.kind, r.node, r.penetration_pct) for r in rows]
        assert len(set(keys)) == len(keys)

    def test_kinds_and_phase_by_value_tabulate_as_their_members(self):
        want = sweep_and_tabulate(
            SweepTemplate(5.0, device_phase=Phase.C), [60], ["N5"], [DeviceKind.DG, DeviceKind.EV]
        )
        got = sweep_and_tabulate(SweepTemplate(5.0, device_phase="C"), [60], ["N5"], ["dg", "ev"])
        assert [(r.kind, r.result) for r in got] == [(r.kind, r.result) for r in want]
        assert [r.kind for r in got] == [DeviceKind.DG, DeviceKind.EV]
        with pytest.raises(ValueError, match="unknown sweep kind 'pv'"):
            sweep_and_tabulate(SweepTemplate(5.0), [60], ["N5"], ["pv"])

    def test_zero_cell_equals_nominal_run(self):
        rows = sweep_and_tabulate(
            SweepTemplate(total_phase_load_kw=5.0),
            [0],
            ["N5"],
            [DeviceKind.DG],
        )
        nominal = run_scenario(build_sweep_scenario(5.0, "N5", DeviceKind.DG, 0, "compact"))
        assert rows[0].result.max_vuf_pct == nominal.max_vuf_pct
        assert rows[0].result.phase_loss_kwh == nominal.phase_loss_kwh

    def test_vuf_monotone_in_dg_penetration_at_n5(self):
        rows = sweep_and_tabulate(
            SweepTemplate(total_phase_load_kw=5.0),
            FULL_GRID,
            ["N5"],
            [DeviceKind.DG],
        )
        vufs = [r.result.max_vuf_pct for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(vufs, vufs[1:]))

    def test_failed_cell_does_not_abort_others(self):
        rows = sweep_and_tabulate(
            SweepTemplate(total_phase_load_kw=50.0, network_class="overload"),
            [0, 120],
            ["N5"],
            [DeviceKind.EV],
        )
        assert rows[0].error is None
        assert rows[1].error is not None and "collapse" in rows[1].error
        assert rows[1].result is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_and_tabulate(SweepTemplate(5.0), [], ["N5"], [DeviceKind.DG])

    @settings(max_examples=30, deadline=None)
    @given(
        network_class=st.sampled_from(sorted(NETWORK_CLASS_SEGMENT_KM)),
        load_kw=st.sampled_from([5.0, 50.0, 60.0]) | st.floats(0.5, 60.0),
        device_phase=st.sampled_from(PHASES),
        balanced=st.booleans(),
        penetrations=st.lists(
            st.sampled_from([0, 0.0, 60, 120, 200]) | st.floats(0.0, 200.0), min_size=1, max_size=4
        ),
        nodes=st.lists(st.sampled_from(["N1", "N2", "N3", "N4", "N5"]), min_size=1, unique=True),
        kinds=st.lists(st.sampled_from([DeviceKind.DG, DeviceKind.EV]), min_size=1, unique=True),
    )
    def test_batched_sweep_equals_per_cell_runs(
        self, network_class, load_kw, device_phase, balanced, penetrations, nodes, kinds
    ):
        """One batch over all cells gives every cell's own run: rows equal
        by repr (bit-equal aggregates), every step's solution, pass count,
        dispatch and SoC equal in bytes, and failing cells carry the same
        error."""
        template = SweepTemplate(load_kw, network_class, device_phase, balanced)
        got = sweep_and_tabulate(template, penetrations, nodes, kinds)
        want = reference_sweep(template, penetrations, nodes, kinds)
        assert repr(list(got)) == repr(want)
        for row, ref in zip(got, want):
            assert row.error == ref.error
            if ref.result is not None:
                assert_same_steps(row.result, ref.result)

    @settings(max_examples=40, deadline=None)
    @given(
        network_class=st.sampled_from(sorted(NETWORK_CLASS_SEGMENT_KM)),
        load_kw=st.sampled_from([5.0, 60.0]),
        device_phase=st.sampled_from(PHASES),
        balanced=st.booleans(),
        penetrations=st.lists(st.sampled_from([0, 40.0, 120]), min_size=1, max_size=3),
        nodes=st.lists(st.sampled_from(["N1", "N3", "N5"]), min_size=1, max_size=3, unique=True),
        kinds=st.lists(st.sampled_from([DeviceKind.DG, DeviceKind.EV]), min_size=1, unique=True),
    )
    def test_cells_equal_standalone_cells(
        self, network_class, load_kw, device_phase, balanced, penetrations, nodes, kinds
    ):
        """Each cell that runs carries the label of the scenario
        ``build_sweep_scenario`` builds for it, and every cell shares one
        ``trajectory`` whose topology's nodes are that scenario's."""
        template = SweepTemplate(load_kw, network_class, device_phase, balanced)
        rows = sweep_and_tabulate(template, penetrations, nodes, kinds)
        assert len(rows) == len(penetrations) * len(nodes) * len(kinds)
        ran = [row.result for row in rows if row.result is not None]
        assert all(result.trajectory is ran[0].trajectory for result in ran)
        for row in rows:
            want = build_sweep_scenario(
                load_kw, row.node, row.kind, row.penetration_pct, network_class,
                device_phase=device_phase, balanced=balanced,
            )
            if row.result is not None:
                assert row.result.trajectory.topology.nodes == want.feeder.nodes
                assert row.result.label == want.label

    @settings(max_examples=60, deadline=None)
    @given(
        network_class=st.sampled_from(["compact", "sparse", "meshed"]),
        load_kw=st.sampled_from([5.0, -5.0, math.nan, math.inf, 1e305, 1e306]),
        penetrations=st.lists(st.sampled_from([0, 60, 200, -1, 250]), min_size=1, max_size=3),
        nodes=st.lists(st.sampled_from(["N1", "N5", "N0", "N9"]), min_size=1, max_size=3),
        kinds=st.lists(st.sampled_from(list(DeviceKind)), min_size=1, max_size=2),
    )
    # 1e305 kW of load: a 200 % device's rating * 1000 overflows, a 60 % one's does not
    @example("compact", 1e305, [60, 200], ["N1", "N5"], [DeviceKind.EV])
    @example("compact", 1e305, [0, 200], ["N5"], [DeviceKind.DG, DeviceKind.EV])
    def test_first_bad_cell_raises_what_its_standalone_build_raises(
        self, network_class, load_kw, penetrations, nodes, kinds
    ):
        """Every cell is built before any runs, and a grid raises what
        ``build_sweep_scenario`` raises for its first cell that cannot be
        built, although the sweep builds the loaded chain only once: an
        unknown node, a bad kind or penetration of that cell wins over
        invalid loads, and a device whose rating overflows is refused at
        its own cell, also after cells that pass."""
        want = None
        for kind in kinds:
            for node in nodes:
                for pen in penetrations:
                    try:
                        build_sweep_scenario(load_kw, node, kind, pen, network_class)
                    except (PhasebalError, ValueError) as exc:
                        want = want or exc
        template = SweepTemplate(load_kw, network_class)
        if want is None:
            assert len(sweep_and_tabulate(template, penetrations, nodes, kinds)) > 0
            return
        with pytest.raises(type(want)) as got:
            sweep_and_tabulate(template, penetrations, nodes, kinds)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)

    def test_zero_cells_of_every_node_and_kind_collapse_onto_one_row(self):
        """A 0 % cell attaches no device, so the 0 % cells of every node and
        kind have byte-equal injections on one layout: the batch solves them
        as one operating point, and each cell still equals its own run."""
        nodes, kinds = ["N1", "N3", "N5"], [DeviceKind.DG, DeviceKind.EV]
        template = SweepTemplate(5.0)
        got = sweep_and_tabulate(template, [0, 60], nodes, kinds)
        want = reference_sweep(template, [0, 60], nodes, kinds)
        assert repr(list(got)) == repr(want)
        zero = {int(r) for row in got if row.penetration_pct == 0 for r in row.result.step_row}
        assert len(zero) == 1
        # one row for the six 0 % cells, one for each of the six 60 % cells
        traj = got[0].result.trajectory
        assert len(traj.voltages) == 1 + len(nodes) * len(kinds)
        for row, ref in zip(got, want):
            assert row.result.trajectory is traj
            assert_same_steps(row.result, ref.result)

    def test_unknown_node_of_the_first_cell_wins_over_invalid_loads(self):
        template = SweepTemplate(-5.0, "compact")
        with pytest.raises(UnknownNode) as want:
            build_sweep_scenario(-5.0, "N9", DeviceKind.DG, 60, "compact")
        with pytest.raises(UnknownNode) as got:
            sweep_and_tabulate(template, [60, 0], ["N9", "N1"], [DeviceKind.DG])
        assert str(got.value) == str(want.value)
        with pytest.raises(SignConventionViolation):  # a valid first cell meets the loads
            sweep_and_tabulate(template, [60, 0], ["N1", "N9"], [DeviceKind.DG])


class TestSweepTableView:
    """``sweep_and_tabulate`` returns a ``SweepTable``: the cells as
    columns, read as a sequence whose rows are made when they are read."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        args = (SweepTemplate(50.0, "overload"), [0, 60.0, 120], ["N1", "N5"], list(SWEEP_KINDS))
        return sweep_and_tabulate(*args), reference_sweep(*args)

    def test_reads_like_the_list_of_rows(self, sweeps):
        table, want = sweeps
        assert isinstance(table, SweepTable) and isinstance(table, Sequence)
        assert len(table) == len(want) == 12
        assert repr(list(table)) == repr(want)
        assert repr(list(iter(table))) == repr(want)
        for i in (0, 5, 11, -1, -12):
            assert repr(table[i]) == repr(want[i])
        for i in (12, -13):
            with pytest.raises(IndexError):
                table[i]
        for key in (slice(1, 3), 1.0):
            with pytest.raises(TypeError):
                table[key]
        # the overloaded EV at 120 % collapses; its row carries the error
        assert any(row.error for row in table) and not all(row.error for row in table)

    def test_rows_are_made_on_each_read_and_equal_on_re_read(self, sweeps):
        table, _ = sweeps
        first, again = list(table), list(table)
        assert first == again
        assert all(a is not b for a, b in zip(first, again))
        ran = [(i, row.result) for i, row in enumerate(first) if row.result is not None]
        for i, result in ran:
            assert result.trajectory is table.trajectory
            assert result.step_row.tobytes() == table.step_row[i].tobytes()
            assert [getattr(result, f) for f in SUMMARY_FIELDS] == table.summary[i].tolist()
        assert sorted(table.errors) == [i for i, row in enumerate(first) if row.result is None]


class TestStepRecordView:
    """``ScenarioResult.per_timestep`` makes each ``StepRecord`` when it is
    read, from the shared trajectory and the result's ``step_row``."""

    @pytest.fixture(scope="class")
    def result(self):
        arch = Architecture(ArchKind.A3)
        return run_scenario(build_stylized_scenario(arch, "N5", 3.0, dt_h=0.5, horizon_h=6.0))

    def test_reads_each_step_from_the_arrays(self, result):
        view, traj = result.per_timestep, result.trajectory
        assert len(view) == 12
        for k in (0, 5, 11, -1, -12):
            rec, step = view[k], k % 12
            assert (rec.t_h, rec.step, rec.row) == (step * 0.5, step, result.step_row[step])
            assert rec.actions == tuple(
                DispatchAction(bid, PHASES[ph], p, q)
                for bid, ph, p, q in zip(
                    traj.battery_ids, traj.phase[step], traj.p_kw[step], traj.q_kvar[step]
                )
            )
            assert rec.soc_kwh == dict(zip(traj.battery_ids, traj.soc_kwh[step].tolist()))
            sol, row = rec.solution, result.step_row[step]
            assert sol.nodes == traj.topology.nodes
            assert sol.voltages.tobytes() == traj.voltages[row].tobytes()
            assert sol.currents.tobytes() == traj.currents[row].tobytes()
            assert sol.iterations == traj.iterations[row]
        assert view[-1].step == 11 and view[-1].t_h == 5.5
        assert [r.step for r in view] == list(range(12))
        assert [r.t_h for r in view] == [k * 0.5 for k in range(12)]
        for k in (12, -13):
            with pytest.raises(IndexError):
                view[k]
        for k in (1.0, slice(2, 5)):
            with pytest.raises(TypeError):
                view[k]

    def test_results_compare_and_show_their_aggregates(self, result):
        """``==`` and ``repr`` cover the label and the aggregates, not the
        steps; the repr of a two-week run at 15-minute steps stays short."""
        again = run_scenario(build_stylized_scenario(
            Architecture(ArchKind.A3), "N5", 3.0, dt_h=0.5, horizon_h=6.0
        ))
        assert again == result and repr(again) == repr(result)
        assert_same_steps(again, result)
        assert replace(result, step_row=result.step_row[::-1]) == result
        assert replace(result, max_vuf_pct=result.max_vuf_pct + 1.0) != result
        assert "step_row" not in repr(result) and "trajectory" not in repr(result)
        long = run_scenario(build_stylized_scenario(
            Architecture(ArchKind.A2, allow_load_shift=False), "N5", 3.0,
            horizon_h=336.0, dt_h=0.25,
        ))
        assert len(long.per_timestep) == 1344
        assert len(repr(long)) < 1000


def step_injections(scenario, rec, k):
    """The device powers a scenario applies at step k, for snapshot_solve."""
    injections = {}
    for dev in scenario.feeder.devices:
        if dev.kind is not DeviceKind.STORAGE:
            scale = scenario.profiles[dev.profile_id][k] if dev.profile_id else 1.0
            injections[dev] = dev.s_rated_kva * scale
    storage = {d.battery_id: d for d in scenario.feeder.storage_devices()}
    for action in rec.actions:
        injections[replace(storage[action.battery_id], phase=action.phase)] = complex(
            action.p_kw, action.q_kvar
        )
    return injections


def random_tree(rng: random.Random, n: int):
    """Random recursive tree (node i hangs off a uniformly drawn earlier
    node) with a 0.3 kW balanced load at every node and single-phase PV or
    EV at a fifth of them, each on its own profile over 24 steps."""
    nodes = [f"n{i}" for i in range(n)]
    segments = [
        LineSegment(nodes[rng.randrange(i)], nodes[i], rng.uniform(0.002, 0.01))
        for i in range(1, n)
    ]
    devices = [Device(f"load-{i}", nodes[i], DeviceKind.LOAD, None, 0.3 + 0.05j) for i in range(1, n)]
    for i in rng.sample(range(1, n), n // 5):
        kind = rng.choice([DeviceKind.DG, DeviceKind.EV])
        sign = -1.0 if kind is DeviceKind.DG else 1.0
        devices.append(Device(f"{kind.value}-{i}", nodes[i], kind, rng.choice(PHASES), sign * 2.0 + 0j))
    feeder = build_feeder("n0", nodes, segments, devices)
    return with_profiles(feeder, [[rng.uniform(0.0, 1.0) for _ in range(24)] for _ in devices], 24)


class TestBatchedRun:
    """Every step of the batched run is the snapshot solve of its injections."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
        fleet=st.sampled_from([None, ArchKind.A1, ArchKind.A3]),
        data=st.data(),
    )
    def test_steps_equal_snapshot_solves_and_oracle(self, seed, steps, fleet, data):
        rng = random.Random(seed)
        feeder = random_feeder(rng, max_nodes=12)
        # a small value set makes steps repeat, and -0.0 rows differ from 0.0 rows by bytes only
        value = st.sampled_from([-0.0, 0.0, 0.5, 2.0]) | st.floats(0.0, 2.0)
        values = [
            data.draw(st.lists(value, min_size=steps, max_size=steps)) for _ in feeder.devices
        ]
        scenario = with_greedy_fleet(with_profiles(feeder, values, steps), fleet, rng)
        result = run_scenario(scenario)
        assert len(result.per_timestep) == steps
        for k, rec in enumerate(result.per_timestep):
            injections = step_injections(scenario, rec, k)
            snap = snapshot_solve(scenario.feeder, injections)
            sol = rec.solution
            assert sol.voltages.tobytes() == snap.voltages.tobytes()
            assert sol.currents.tobytes() == snap.currents.tobytes()
            assert sol.iterations == snap.iterations
            oracle = oracle_solve(scenario.feeder, injections)
            gap = np.max(np.abs(sol.voltages - oracle.voltages)) / scenario.feeder.v_base_ln
            assert gap <= 1e-6

    @pytest.mark.parametrize("controller", ["none", "fixed_schedule"])
    def test_cells_with_a_device_each_equal_their_own_runs(self, controller):
        """One batch runs the cells of a scenario with a fleet (or none), each
        with its own constant device or none; each cell equals the run of
        the scenario with its unprofiled device attached, down to the bytes
        of every step's voltages. The EV shares node N5 with the storage,
        and two cells share one device."""
        base = build_stylized_scenario(Architecture(ArchKind.A3), "N5", 3.0, controller)
        dg = Device("dg-N2", "N2", DeviceKind.DG, Phase.B, -4 + 0j)
        ev = Device("ev-N5", "N5", DeviceKind.EV, None, 3 + 1j)
        load = Device("load-N1-C", "N1", DeviceKind.LOAD, Phase.C, 2 + 0j)
        cells = [("dg", dg), ("plain", None), ("ev", ev), ("dg-again", dg), ("load", load)]
        keys, cell_va = cell_columns(base.feeder, [device for _, device in cells])
        traj, summary, sum_drop, step_row, errors = scenarios._run_batch(
            base, SolverSettings(), keys, cell_va
        )
        assert not errors and len(step_row) == len(cells)
        for c, (label, device) in enumerate(cells):
            result = scenarios._cell_result(label, traj, summary[c], sum_drop[c], step_row[c])
            feeder = base.feeder if device is None else with_device(base.feeder, device)
            want = run_scenario(replace(base, feeder=feeder, label=label))
            assert repr(result) == repr(want)
            assert result.trajectory is traj
            assert result.trajectory.topology.nodes == feeder.nodes
            assert_same_steps(result, want)

    def test_a_device_cell_is_refused_under_a_greedy_fleet(self):
        """The greedy search reads the devices' net power, so a cell's
        device would change the dispatch the cells share."""
        base = build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0, "greedy")
        dg = Device("dg-N2", "N2", DeviceKind.DG, Phase.B, -4 + 0j)
        with pytest.raises(ValueError, match="greedy"):
            scenarios._run_batch(base, SolverSettings(), *cell_columns(base.feeder, [None, dg]))

    def test_aggregates_equal_builtin_sums_over_few_and_many_lanes(self):
        """The horizon aggregates equal the builtin ``sum`` over the steps'
        rows, bit for bit, where ``_fold_sum`` folds many lanes at once (a
        1,000-node tree's drops and phase losses, a 130-cell sweep's drops)
        and where it folds a few long ones."""

        def assert_builtin_sums(result):
            traj, rows = result.trajectory, result.step_row.tolist()
            n, dt_h = len(rows), traj.dt_h
            for j, name in enumerate(traj.topology.nodes):
                want = sum(sum(traj.drop_pct[r, j].tolist()) for r in rows) / n
                assert struct.pack("d", result.sum_drop_at[name]) == struct.pack("d", want)
            losses = [sum(map(sum, traj.phase_loss[r].tolist())) * dt_h for r in rows]
            assert result.phase_loss_kwh == sum(losses)
            neutral = [sum(traj.neutral_loss[r].tolist()) * dt_h for r in rows]
            assert result.neutral_loss_kwh == sum(neutral)
            vuf = [v for r in rows for v in traj.vuf_pct[r, 1:].tolist()]
            assert result.mean_vuf_pct == sum(vuf) / len(vuf)

        assert_builtin_sums(run_scenario(random_tree(random.Random(3), 1000)))
        nodes = ["N1", "N2", "N3", "N4", "N5"]
        pens = [5.0 * k for k in range(13)]
        table = sweep_and_tabulate(SweepTemplate(5.0), pens, nodes, SWEEP_KINDS)
        for i in range(0, len(table), 7):
            assert_builtin_sums(table[i].result)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_kirchhoff_and_power_balance_on_1000_node_tree(self, seed):
        scenario = random_tree(random.Random(seed), 1000)
        feeder = scenario.feeder
        i_base = feeder.s_base_kva * 1000.0 / (3.0 * feeder.v_base_ln)
        result = run_scenario(scenario)
        assert len(result.per_timestep) == 24
        for k, rec in enumerate(result.per_timestep):
            sol = rec.solution
            injections = step_injections(scenario, rec, k)
            assert kcl_residual(feeder, sol, injections) <= 1e-6 * i_base
            assert kvl_residual(feeder, sol) <= 1e-6 * feeder.v_base_ln
            assert power_balance_residual_kw(feeder, sol, injections) <= 1e-6 * feeder.s_base_kva

    def test_layout_at_the_feeder_1k_shape_equals_the_reference_loop(self):
        """The per-device entry layout at the benchmark's feeder-1k shape: a
        1,000-node random tree, balanced loads on one profile id and
        single-phase PV and EV on two others, and a fixed-schedule A2 fleet
        whose three storage devices sit midway through the device list. The
        run equals the per-step loop (``conftest.reference_run``) in the
        bytes of its distinct voltages, step rows and steps, and in its
        repr."""
        rng = random.Random(18)
        feeder = random_tree(rng, 1000).feeder
        profile_of = {DeviceKind.LOAD: "base", DeviceKind.DG: "pv", DeviceKind.EV: "ev"}
        devices = [replace(d, profile_id=profile_of[d.kind]) for d in feeder.devices]
        node = rng.choice(feeder.nodes[1:])
        devices[len(devices) // 2 : len(devices) // 2] = [
            Device(f"st-{ph.value}", node, DeviceKind.STORAGE, ph, battery_id=f"b-{ph.value}")
            for ph in PHASES
        ]
        hours = range(24)
        scenario = Scenario(
            feeder=replace(feeder, devices=tuple(devices)),
            profiles={
                "base": tuple(rng.choice([0.6, 0.8, 1.0]) for _ in hours),
                "pv": tuple(max(0.0, math.sin(math.pi * (h - 6) / 12)) for h in hours),
                "ev": tuple(1.0 if 18 <= h < 23 else 0.0 for h in hours),
            },
            architecture=Architecture(ArchKind.A2),
            controller="fixed_schedule",
            batteries=tuple(Battery(f"b-{ph.value}", 2.0, soc_kwh=5.0) for ph in PHASES),
        )
        got, want = run_scenario(scenario), reference_run(scenario)
        traj, ref = got.trajectory, want.trajectory
        assert len(traj.voltages) > 10
        assert traj.voltages.tobytes() == ref.voltages.tobytes()
        assert got.step_row.tobytes() == want.step_row.tobytes()
        assert repr(got) == repr(want)
        assert_same_steps(got, want)

    @settings(max_examples=15, deadline=None)
    @given(steps=st.integers(3, 12), data=st.data())
    def test_collapse_at_a_middle_step_raises_that_step(self, steps, data):
        bad = data.draw(st.integers(1, steps - 2))
        load = Device("load", "N1", DeviceKind.LOAD, Phase.A, 50.0 + 0j, profile_id="p")
        feeder = chain_feeder(2, 1.0, devices=[load])
        # light steps before ``bad``, some repeated; from there on the full
        # load collapses at ``bad`` and again at the last step, so that
        # operating point recurs; steps in between may repeat it, collapse
        # at a heavier load or stay light
        light = st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.05)
        values = [data.draw(light) for _ in range(bad)]
        values += [1.0] + [
            data.draw(st.sampled_from([0.01, 1.0, 2.0])) for _ in range(bad + 1, steps - 1)
        ]
        values.append(1.0)
        scenario = Scenario(feeder=feeder, horizon_h=float(steps), profiles={"p": tuple(values)})
        with pytest.raises(ScenarioStepError) as exc:
            run_scenario(scenario)
        assert exc.value.t_h == float(bad)
        with pytest.raises(VoltageCollapse) as alone:
            snapshot_solve(feeder, {load: load.s_rated_kva * 1.0})
        assert str(exc.value.cause) == str(alone.value)
        assert exc.value.cause.iteration == alone.value.iteration

    @pytest.mark.parametrize(
        "undefined, want",
        [
            ([1], (ZeroPositiveSequence, "positive-sequence magnitude is zero")),
            ([4], (ScenarioStepError, "at t=3 h: ")),
            ([3], (ScenarioStepError, "at t=3 h: ")),
        ],
        ids=["before", "after", "same-row"],
    )
    def test_undefined_step_and_solver_failure_the_earliest_wins(self, undefined, want):
        """Steps 0-5 read rows 0, 1, 2, 3, 1, 4, and row 3 (step 3)
        collapses. An undefined VUF on row 1 first meets step 1, before the
        failure, and wins; on row 4 (step 5) it comes after and the failure
        wins; on the failing row itself the failure is reported."""
        load = Device("load", "N1", DeviceKind.LOAD, Phase.A, 50.0 + 0j, profile_id="p")
        values = (0.0, 0.05, 0.02, 1.0, 0.05, 0.03)
        scenario = Scenario(
            feeder=chain_feeder(2, 1.0, devices=[load]), horizon_h=6.0, profiles={"p": values}
        )
        step_row = scenarios._run_batch(scenario, SolverSettings())[3]
        assert step_row.tolist() == [[0, 1, 2, 3, 1, 4]]
        failure = outcome(scenario, run_scenario)
        assert failure[0] is ScenarioStepError and failure[1].startswith("at t=3 h: ")
        with undefined_vuf_at(undefined):
            got = outcome(scenario, run_scenario)
        assert got[0] is want[0] and got[1].startswith(want[1])
        if got[0] is ScenarioStepError:
            assert got == failure

    def test_cells_failing_at_different_steps_each_report_their_earliest(self):
        """Every (cell, step) of this batch is its own row, cell by cell.
        The base load rises step by step (3 to 15 kW, and a phase-A load
        collapses this feeder from about 20.3 kW on), so each cell
        collapses from a step its constant device sets (or never), and an
        undefined VUF marks one chosen step; each cell reports the earlier
        of the two, the failure where they share a step, and a failing
        cell's summary and drops are NaN."""
        load = Device("load", "N1", DeviceKind.LOAD, Phase.A, 30.0 + 0j, profile_id="p")
        feeder = chain_feeder(2, 1.0, devices=[load])
        values = (0.1, 0.2, 0.3, 0.4, 0.5)
        scenario = Scenario(feeder=feeder, horizon_h=5.0, profiles={"p": values})
        # (device kW or None, first collapsing step, undefined step)
        cells = [
            (None, None, None), (10, 3, 1), (16, 1, 3), (13, 2, 2), (3, None, 4), (7, 4, None)
        ]
        columns = cell_columns(
            feeder,
            [
                None if kw is None else Device("x", "N1", DeviceKind.EV, Phase.A, kw + 0j)
                for kw, _, _ in cells
            ],
        )
        *_, step_row, plain_errors = scenarios._run_batch(scenario, SolverSettings(), *columns)
        assert step_row.tolist() == np.arange(30).reshape(6, 5).tolist()
        assert {c: str(e)[: len("at t=3 h: ")] for c, e in plain_errors.items()} == {
            c: f"at t={fail} h: " for c, (_, fail, _) in enumerate(cells) if fail is not None
        }
        undefined = [5 * c + k for c, (_, _, k) in enumerate(cells) if k is not None]
        with undefined_vuf_at(undefined):
            _, summary, sum_drop, _, errors = scenarios._run_batch(
                scenario, SolverSettings(), *columns
            )
        for c, (_, fail, bad) in enumerate(cells):
            err = errors.get(c)
            if fail is None and bad is None:
                assert err is None
                assert np.isfinite(summary[c]).all() and np.isfinite(sum_drop[c]).all()
                continue
            assert np.isnan(summary[c]).all() and np.isnan(sum_drop[c]).all()
            if fail is None or (bad is not None and bad < fail):
                assert type(err) is ZeroPositiveSequence
                assert str(err) == "positive-sequence magnitude is zero"
            else:
                assert type(err) is ScenarioStepError and err.t_h == float(fail)
                assert str(err) == str(plain_errors[c])


def undefined_vuf_at(rows: list[int]):
    """Patch the node metrics so that the VUF of the last node is NaN on
    the solved ``rows``."""
    metrics = scenarios.node_metric_arrays

    def patched(voltages, v_base):
        vuf_pct, drop_pct, v_rms = metrics(voltages, v_base)
        vuf_pct[rows, -1] = np.nan
        return vuf_pct, drop_pct, v_rms

    return mock.patch.object(scenarios, "node_metric_arrays", patched)


class TestDispatchProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(ArchKind)),
        allow_load_shift=st.booleans(),
        controller=st.sampled_from(["greedy", "fixed_schedule"]),
        storage_node=st.sampled_from(["N0", "N5"]),
        target_phase=st.sampled_from(PHASES),
        dt_h=st.sampled_from([1.0, 0.25]),
        data=st.data(),
    )
    def test_soc_within_bounds_and_a2_no_shift_sums_to_zero(
        self, kind, allow_load_shift, controller, storage_node, target_phase, dt_h, data
    ):
        """Random fleets on the stylized day: every step's SoC lies in
        [0, e_max], and A2 without load shift dispatches zero net power."""
        arch = Architecture(kind, allow_load_shift=allow_load_shift)
        scenario = build_stylized_scenario(
            arch, storage_node, 1.0, controller, target_phase=target_phase, dt_h=dt_h
        )
        batteries = []
        for bat in scenario.batteries:
            e_max = data.draw(st.floats(0.1, 8.0))
            batteries.append(
                Battery(
                    id=bat.id,
                    p_max_kw=data.draw(st.floats(0.1, 1.5)),
                    e_max_kwh=e_max,
                    soc_kwh=data.draw(st.sampled_from([0.0, e_max]) | st.floats(0.0, e_max)),
                    eta_c=data.draw(st.floats(0.8, 1.0)),
                    eta_d=data.draw(st.floats(0.8, 1.0)),
                )
            )
        result = run_scenario(replace(scenario, batteries=tuple(batteries)))
        assert len(result.per_timestep) == scenario.n_steps
        for rec in result.per_timestep:
            for bat in batteries:
                assert 0.0 <= rec.soc_kwh[bat.id] <= bat.e_max_kwh
            if kind is ArchKind.A2 and not allow_load_shift:
                assert abs(sum(a.p_kw for a in rec.actions)) <= 1e-9


def outcome(scenario: Scenario, run) -> object:
    """``run(scenario)``'s result, or the type and message of its error."""
    try:
        return run(scenario)
    except (PhasebalError, ValueError) as exc:
        return type(exc), str(exc)


def scheduled_request(scenario: Scenario, k: int) -> list[float]:
    """The fixed schedule's raw request of each unit at step k, written out
    from the schedule's definition."""
    cfg, arch = scenario.schedule, scenario.architecture
    hour = (k * scenario.dt_h) % 24.0
    out = []
    for bat, phase in zip(scenario.batteries, PHASES):
        own = bat.p_max_kw if cfg.dg_window[0] <= hour < cfg.dg_window[1] else (
            -bat.p_max_kw if cfg.ev_window[0] <= hour < cfg.ev_window[1] else 0.0
        )
        out.append(own if arch.kind is ArchKind.A1 or phase is cfg.target_phase else -own)
    return out


@contextlib.contextmanager
def request_changed_at(t_h: float, kw: float):
    """The fixed schedule with every unit's request at time ``t_h`` set to
    ``kw``: in the scan, in the per-step loop (``conftest``) and in
    ``scheduled_request``."""

    def changed(requests):
        def at(times, *args):
            phases, want = requests(times, *args)
            want = want.copy()
            want[times == t_h] = kw
            return phases, want

        return at

    def written_out(scenario: Scenario, k: int) -> list[float]:
        own = scheduled(scenario, k)
        return [kw] * len(own) if k * scenario.dt_h == t_h else own

    scheduled = scheduled_request
    with mock.patch.object(
        storage, "schedule_requests", changed(storage.schedule_requests)
    ), mock.patch.object(
        conftest, "schedule_requests", changed(conftest.schedule_requests)
    ), mock.patch.object(sys.modules[__name__], "scheduled_request", written_out):
        yield


def dispatch_input(scenario: Scenario, k: int) -> list[float]:
    """The input a dispatch step reads at step k, written out from its
    definition: the schedule's requests, or for the greedy search the net
    kW per phase, each phase adding its devices in feeder order."""
    if scenario.controller != "greedy":
        return scheduled_request(scenario, k)
    net = [0.0, 0.0, 0.0]
    for dev in scenario.feeder.devices:
        if dev.kind is not DeviceKind.STORAGE:
            scale = scenario.profiles[dev.profile_id][k] if dev.profile_id else 1.0
            for ph in dev.connected_phases:
                net[PHASES.index(ph)] += (dev.s_rated_kva * scale).real
    return net


def distinct_states(scenario: Scenario, steps: list) -> int:
    """Distinct (SoC going in, input) pairs, by their bytes, over the steps
    of a per-step loop (``reference_dispatch``)."""
    soc = [b.soc_kwh for b in scenario.batteries]
    states = set()
    for k, (_, _, after) in enumerate(steps):
        row = dispatch_input(scenario, k)
        states.add((struct.pack(f"{len(soc)}d", *soc), struct.pack(f"{len(row)}d", *row)))
        soc = list(after.values())
    return len(states)


def assert_scan_equals_the_reference_loop(scenario: Scenario):
    """The array dispatch pass, the run and its CSV lines equal the
    per-step loop bit for bit; returns the run's trajectory, or None when
    dispatch failed."""
    index = Topology(scenario.feeder).index
    layout, s_va, steps, pending = reference_dispatch(scenario, index)
    got_layout, candidates, step_key, _, got_pending = _dispatch(scenario, index)
    assert got_layout.tobytes() == layout.tobytes()
    assert candidates[step_key].tobytes() == s_va.tobytes()
    assert repr(got_pending) == repr(pending)
    got, want = outcome(scenario, run_scenario), outcome(scenario, reference_run)
    assert repr(got) == repr(want)
    if pending is not None:
        return None
    assert_same_steps(got, want)
    traj = got.trajectory
    assert traj.battery_ids == tuple(b.id for b in scenario.batteries)
    node_of = {d.battery_id: d.node for d in scenario.feeder.storage_devices()}
    assert [traj.topology.nodes[i] for i in traj.battery_node.tolist()] == [
        node_of[b] for b in traj.battery_ids
    ]
    actions = [acts for _, acts, _ in steps]
    assert repr(traj.p_kw.tolist()) == repr([[a.p_kw for a in acts] for acts in actions])
    assert repr(traj.q_kvar.tolist()) == repr([[a.q_kvar for a in acts] for acts in actions])
    assert traj.phase.tolist() == [[PHASES.index(a.phase) for a in acts] for acts in actions]
    assert repr(traj.soc_kwh.tolist()) == repr([list(soc.values()) for _, _, soc in steps])
    assert repr([(r.t_h, r.actions, r.soc_kwh) for r in got.per_timestep]) == repr(steps)

    # the CSV reads the arrays; the reference rows read the loop's records
    loop = SimpleNamespace(
        per_timestep=[
            SimpleNamespace(t_h=t_h, actions=acts, soc_kwh=soc, solution=rec.solution)
            for (t_h, acts, soc), rec in zip(steps, got.per_timestep, strict=True)
        ]
    )
    assert "".join(timeseries_rows(got)) == "".join(
        reference_timeseries_lines(scenario, loop)
    )

    # telemetry: the clip mask against the schedule's own requests, the
    # zero-sum flag against the dispatched total, and the states evaluated
    controller, arch = scenario.controller, scenario.architecture
    zero_sum = controller != "none" and arch.kind is ArchKind.A2 and not arch.allow_load_shift
    assert traj.zero_sum_missed.tolist() == [
        zero_sum and abs(sum(a.p_kw for a in acts)) > 1e-9 for _, acts, _ in steps
    ]
    if controller == "fixed_schedule":
        assert traj.clipped.tolist() == [
            [a.p_kw != want for a, want in zip(acts, scheduled_request(scenario, k))]
            for k, (_, acts, _) in enumerate(steps)
        ]
    assert traj.clipped.shape == traj.p_kw.shape
    fleet = controller != "none" and scenario.batteries
    assert traj.dispatch_states == (distinct_states(scenario, steps) if fleet else 0)
    return traj


class TestStepKeys:
    """A run keys each step on its profile values and applied dispatch and
    builds the injections once per key; the per-step loop
    (``conftest.reference_run``) builds every step's. Both give the same
    distinct rows in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(
        fleet=st.sampled_from([None, "none", "fixed_schedule", "greedy"]),
        kind=st.sampled_from(list(ArchKind)),
        idle_phase=st.sampled_from([None, *PHASES]),
        alias=st.booleans(),
        dt_h=st.sampled_from([1.0, 0.5]),
        data=st.data(),
    )
    def test_keyed_run_equals_the_reference_loop(
        self, fleet, kind, idle_phase, alias, dt_h, data
    ):
        """Profiles drawn from a few values, 0.0 and -0.0 among them, so
        steps repeat and keys differ by a sign bit only, plus a load rated
        0 kVA whose profile gives steps different keys but byte-equal
        injections (unless it reads -0.0). With ``alias`` that load reads
        the same profile object as the base loads."""
        arch = None if fleet is None else Architecture(kind)
        scenario = build_stylized_scenario(
            arch, "N5", 1.0, fleet or "none", horizon_h=48.0, dt_h=dt_h
        )
        n = scenario.n_steps
        value = st.sampled_from([0.0, -0.0, 0.5, 1.0])
        profiles = {
            pid: tuple(data.draw(st.lists(value, min_size=n, max_size=n)))
            for pid in ("flat", "dg-window", "ev-window", "idle")
        }
        if alias:
            profiles["idle"] = profiles["flat"]
        idle = Device("idle-N2", "N2", DeviceKind.LOAD, idle_phase, 0j, profile_id="idle")
        scenario = replace(
            scenario, feeder=with_device(scenario.feeder, idle), profiles=profiles
        )

        got, want = outcome(scenario, run_scenario), outcome(scenario, reference_run)
        assert repr(got) == repr(want)
        if not isinstance(got, ScenarioResult):
            return
        traj, ref = got.trajectory, want.trajectory
        assert got.step_row.tobytes() == want.step_row.tobytes()
        assert traj.voltages.tobytes() == ref.voltages.tobytes()
        assert traj.iterations.tobytes() == ref.iterations.tobytes()
        assert_same_steps(got, want)
        # the loop evaluates every step of a fleet; the scan each distinct state
        if fleet in (None, "none"):
            assert traj.dispatch_states == ref.dispatch_states == 0
        else:
            _, _, steps, _ = reference_dispatch(scenario, Topology(scenario.feeder).index)
            assert traj.dispatch_states == distinct_states(scenario, steps)


    def test_steps_apart_only_in_the_dispatched_phase_stay_apart(self):
        """Every step reads the same profile row and applies 1 kW per unit,
        but the units turn through the phases step by step: the phase is
        part of the step key, so each step solves its own injections."""
        scenario = build_stylized_scenario(Architecture(ArchKind.A3), "N5", 3.0, "greedy")
        flat = (1.0,) * scenario.n_steps
        scenario = replace(scenario, profiles=dict.fromkeys(scenario.profiles, flat))
        dispatch_scan = storage.dispatch_scan

        def turning(sc, units, net):
            fields, stopped = dispatch_scan(sc, units, net)
            shape = fields["p_kw"].shape
            fields["p_kw"] = np.ones(shape)
            fields["phase"] = np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 3
            return fields, stopped

        with mock.patch.object(storage, "dispatch_scan", turning):
            result = run_scenario(scenario)
        assert len(set(result.step_row.tolist())) == 3
        for k, rec in enumerate(result.per_timestep):
            snap = snapshot_solve(scenario.feeder, step_injections(scenario, rec, k))
            assert rec.solution.voltages.tobytes() == snap.voltages.tobytes()


class TestDispatchScan:
    """The array dispatch pass equals the per-step loop it replaced
    (``conftest.reference_dispatch``) bit for bit, over one day and over
    several, where the scan reuses the states it has met and tiles the
    days that repeat."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(list(ArchKind)),
        allow_load_shift=st.booleans(),
        controller=st.sampled_from(["none", "fixed_schedule", "greedy"]),
        storage_node=st.sampled_from(["N0", "N5"]),
        target_phase=st.sampled_from(PHASES),
        dt_h=st.sampled_from([1, 1.0, 0.25]),
        horizon_h=st.integers(24, 96),
        data=st.data(),
    )
    def test_scan_equals_the_reference_loop(
        self, kind, allow_load_shift, controller, storage_node, target_phase, dt_h, horizon_h, data
    ):
        arch = Architecture(kind, allow_load_shift=allow_load_shift)
        scenario = build_stylized_scenario(
            arch,
            storage_node,
            1.0,
            controller,
            target_phase=target_phase,
            horizon_h=horizon_h,
            dt_h=dt_h,
        )
        batteries = []
        for bat in scenario.batteries:
            e_max = data.draw(st.floats(0.1, 8.0))
            batteries.append(
                Battery(
                    id=bat.id,
                    p_max_kw=data.draw(st.floats(0.1, 1.5)),
                    e_max_kwh=e_max,
                    soc_kwh=data.draw(
                        st.sampled_from([0.0, e_max, e_max + 1e-9]) | st.floats(0.0, e_max)
                    ),
                    eta_c=data.draw(st.just(1.0) | st.floats(0.8, 1.0)),
                    eta_d=data.draw(st.just(1.0) | st.floats(0.8, 1.0)),
                )
            )
        assert_scan_equals_the_reference_loop(replace(scenario, batteries=tuple(batteries)))

    @pytest.mark.parametrize(
        "kind, allow_load_shift, controller",
        [
            (ArchKind.A1, True, "fixed_schedule"),
            (ArchKind.A2, False, "fixed_schedule"),
            (ArchKind.A3, True, "fixed_schedule"),
            (ArchKind.A1, True, "greedy"),
            (ArchKind.A2, False, "greedy"),
            (ArchKind.A3, True, "greedy"),
        ],
    )
    def test_multiday_runs_reuse_states_and_equal_the_reference_loop(
        self, kind, allow_load_shift, controller
    ):
        """Three days on the clock with 4 kWh units clipped at the end of
        every 5 h window, the shape of the long-horizon workload: the
        states come back day after day, the scan evaluates fewer states
        than it has steps, and every step reused from the memo or tiled
        from an earlier day equals the per-step loop."""
        scenario = build_stylized_scenario(
            Architecture(kind, allow_load_shift=allow_load_shift),
            "N5",
            3.0,
            controller,
            target_phase=Phase.B,
            horizon_h=72.0,
            dt_h=0.5,
        )
        scenario = replace(
            scenario,
            batteries=tuple(
                replace(b, e_max_kwh=4.0, soc_kwh=min(b.soc_kwh, 4.0)) for b in scenario.batteries
            ),
        )
        traj = assert_scan_equals_the_reference_loop(scenario)
        assert 0 < traj.dispatch_states < scenario.n_steps

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(ArchKind)),
        allow_load_shift=st.booleans(),
        controller=st.sampled_from(["fixed_schedule", "greedy"]),
        days=st.integers(2, 6),
        dt_h=st.sampled_from([1.0, 0.5, 0.25, 0.7]),
        broken=st.booleans(),
        failing=st.booleans(),
        data=st.data(),
    )
    def test_repeating_days_tile_and_equal_the_reference_loop(
        self, kind, allow_load_shift, controller, days, dt_h, broken, failing, data
    ):
        """Runs of several days whose inputs repeat day after day, so the
        scan stops at the first day start whose SoC recurs and tiles the
        rest. Units starting mid-range (or at -0.0 kWh) close the cycle on
        a later day, or never within the run. ``dt_h = 0.7`` gives days of
        round(24 / 0.7) = 34 steps, 23.8 h: the clock's requests do not
        repeat then, the greedy search's profiles still do. ``broken``
        changes one step of the last day: a profile value, and for the
        clock one request too, a sign-only change among them, so the
        inputs no longer repeat. ``failing`` gives the clock units of 1e8
        kW and more, which round their SoC out of range part-way through
        the run."""
        day = round(24 / dt_h)
        n_steps = days * day
        arch = Architecture(kind, allow_load_shift=allow_load_shift)
        storage_node = "N0" if failing else "N5"
        controller = "fixed_schedule" if failing else controller
        scenario = build_stylized_scenario(
            arch,
            storage_node,
            1.5,
            controller,
            target_phase=Phase.B,
            horizon_h=n_steps * dt_h,
            dt_h=dt_h,
        )
        assert scenario.n_steps == n_steps
        value = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
        profiles = {}
        for pid in scenario.profiles:
            one_day = data.draw(st.lists(value, min_size=day, max_size=day), label=pid)
            profiles[pid] = tuple(one_day * days)
        late = data.draw(st.integers(n_steps - day, n_steps - 1), label="late step")
        if broken:
            flat = list(profiles["flat"])
            other = st.sampled_from([-0.0, 0.25, 2.5]).filter(
                lambda v: struct.pack("d", v) != struct.pack("d", flat[late])
            )
            flat[late] = data.draw(other, label="late value")
            profiles["flat"] = tuple(flat)
        batteries = []
        for bat in scenario.batteries:
            p_max = bat.p_max_kw
            if failing:
                p_max = data.draw(st.sampled_from([1e8, 3e8]) | st.floats(1e8, 3e9))
            e_max = p_max * data.draw(st.sampled_from([2.0, 2.5, 3.5, 5.0]) | st.floats(0.5, 6.0))
            mid = st.sampled_from([-0.0, 0.5 * e_max]) | st.floats(0.0, e_max)
            batteries.append(
                Battery(
                    id=bat.id,
                    p_max_kw=p_max,
                    e_max_kwh=e_max,
                    soc_kwh=data.draw(st.sampled_from([0.0, e_max]) | mid, label="soc"),
                    eta_c=data.draw(st.sampled_from([1.0, 0.9]) | st.floats(0.8, 1.0)),
                    eta_d=data.draw(st.sampled_from([1.0, 0.9]) | st.floats(0.8, 1.0)),
                )
            )
        scenario = replace(scenario, profiles=profiles, batteries=tuple(batteries))
        if broken and controller == "fixed_schedule":
            kw = data.draw(st.sampled_from([-0.0, 0.0, 0.3, -0.3]), label="late request")
            with request_changed_at(late * dt_h, kw):
                assert_scan_equals_the_reference_loop(scenario)
        else:
            assert_scan_equals_the_reference_loop(scenario)

    def test_a_repeating_year_scans_its_first_days_only(self):
        """A year on the clock whose units start where the clock leaves them
        reads the input rows of its first days, and equals the memo's full
        scan; with one request changed on its last day the inputs no longer
        repeat, and it reads every step's."""
        scenario = build_stylized_scenario(
            Architecture(ArchKind.A2), "N5", 3.0, horizon_h=365 * 24.0
        )
        units, n_steps = scenario.batteries, scenario.n_steps

        def dispatch(changed_at=None, full_scan=False):
            reads = mock.Mock(side_effect=storage._row_bytes)
            with contextlib.ExitStack() as stack:
                stack.enter_context(mock.patch.object(storage, "_row_bytes", reads))
                if changed_at is not None:
                    stack.enter_context(request_changed_at(changed_at, 0.5))
                if full_scan:
                    stack.enter_context(
                        mock.patch.object(storage, "_repeats_after", return_value=False)
                    )
                fields, stopped = storage.dispatch_scan(scenario, units, None)
            assert stopped is None
            return fields, reads.call_count

        fields, reads = dispatch()
        assert reads <= 3 * 24
        full, full_reads = dispatch(full_scan=True)
        assert full_reads == n_steps
        assert fields.keys() == full.keys()
        for name, got in fields.items():
            if isinstance(got, np.ndarray):
                assert (got.shape, got.tobytes()) == (full[name].shape, full[name].tobytes()), name
            else:
                assert got == full[name], name
        late = n_steps - 5  # 19:00 on the last day, in the EV window
        changed, reads = dispatch(changed_at=late * scenario.dt_h)
        assert reads == n_steps
        assert changed["p_kw"][:late].tobytes() == fields["p_kw"][:late].tobytes()
        assert changed["p_kw"][late].tolist() != fields["p_kw"][late].tolist()

    @pytest.mark.parametrize("kind", [ArchKind.A1, ArchKind.A2, ArchKind.A3])
    def test_a_greedy_day_with_a_new_net_row_each_step_evaluates_every_step(self, kind):
        """A base load that differs at every step gives a new net row each
        step, so each step of the day is a new state. On the stylized day
        itself (the greedy-fleet workload) the balanced night steps leave
        the SoC alone and come back as one state."""
        scenario = build_stylized_scenario(Architecture(kind), "N5", 4.5, "greedy")
        assert run_scenario(scenario).trajectory.dispatch_states < scenario.n_steps
        flat = tuple(1.0 + k / 100 for k in range(scenario.n_steps))
        scenario = replace(scenario, profiles={**scenario.profiles, "flat": flat})
        traj = run_scenario(scenario).trajectory
        assert traj.dispatch_states == scenario.n_steps == 24

    def test_no_fleet_evaluates_no_state(self):
        scenario = build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0, "none")
        assert run_scenario(scenario).trajectory.dispatch_states == 0

    def test_signed_zero_soc_is_its_own_state(self):
        """An A1 unit starting at -0.0 kWh meets the discharge row at -0.0
        and, a day later, at 0.0. Its lower bound is 0.0 at the first and
        -0.0 at the second, so the clipped request is 0.0 at the first and
        -0.0 at the second. A key of floats would merge the two states
        (-0.0 == 0.0) and repeat the first; the bytes keep them apart."""
        scenario = build_stylized_scenario(
            Architecture(ArchKind.A1), "N5", 1.0, horizon_h=48.0, dt_h=1.0
        )
        scenario = replace(
            scenario,
            schedule=replace(scenario.schedule, ev_window=(0.0, 2.0), dg_window=(2.0, 3.0)),
            batteries=(replace(scenario.batteries[0], soc_kwh=-0.0),),
        )
        traj = assert_scan_equals_the_reference_loop(scenario)
        _, _, steps, _ = reference_dispatch(scenario, Topology(scenario.feeder).index)
        sign = lambda x: math.copysign(1.0, x)  # noqa: E731
        assert [sign(a.p_kw) for _, acts, _ in steps for a in acts] == [
            sign(p) for p in traj.p_kw[:, 0].tolist()
        ]
        assert [sign(e) for _, _, soc in steps for e in soc.values()] == [
            sign(e) for e in traj.soc_kwh[:, 0].tolist()
        ]
        # step 0 at -0.0 kWh, step 25 at 0.0 kWh after discharging at step 24;
        # both read the discharge row
        assert traj.soc_kwh[23, 0] == 1.0 and traj.soc_kwh[24, 0] == 0.0
        assert sign(traj.p_kw[0, 0]) == 1.0 and sign(traj.p_kw[25, 0]) == -1.0
        assert traj.p_kw[0, 0] == traj.p_kw[25, 0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(ArchKind)),
        allow_load_shift=st.booleans(),
        dt_h=st.sampled_from([1.0, 0.25]),
        data=st.data(),
    )
    def test_failing_dispatch_equals_the_reference_loop(self, kind, allow_load_shift, dt_h, data):
        """Units of 1e8 kW and more at the source node round their SoC past
        0 or e_max now and then, and dispatch fails part-way: at the same
        step, with the same error, and with the same earliest failure of
        the run as in the per-step loop. (The greedy grid grows with the
        rating, so only the schedule gets such units.)"""
        scenario = build_stylized_scenario(
            Architecture(kind, allow_load_shift=allow_load_shift), "N0", 1.0, dt_h=dt_h
        )
        batteries = []
        for bat in scenario.batteries:
            p_max = data.draw(st.sampled_from([1e8, 3e8]) | st.floats(1e8, 3e9))
            e_max = p_max * data.draw(st.sampled_from([2.0, 2.5, 3.5]) | st.floats(0.5, 6.0))
            batteries.append(
                Battery(
                    id=bat.id,
                    p_max_kw=p_max,
                    e_max_kwh=e_max,
                    soc_kwh=data.draw(st.sampled_from([0.0, e_max]) | st.floats(0.0, e_max)),
                    eta_c=data.draw(st.just(0.9) | st.floats(0.8, 1.0)),
                    eta_d=data.draw(st.just(0.9) | st.floats(0.8, 1.0)),
                )
            )
        scenario = replace(scenario, batteries=tuple(batteries))
        index = Topology(scenario.feeder).index
        _, s_va, _, pending = reference_dispatch(scenario, index)
        _, candidates, step_key, _, got_pending = _dispatch(scenario, index)
        assert candidates[step_key].tobytes() == s_va.tobytes()
        assert repr(got_pending) == repr(pending)
        got, want = outcome(scenario, run_scenario), outcome(scenario, reference_run)
        assert repr(got) == repr(want)
        if isinstance(got, ScenarioResult):
            assert_same_steps(got, want)

    @pytest.mark.parametrize("controller", ["fixed_schedule", "greedy"])
    def test_box_without_zero_sum_point_is_flagged_and_leaves_the_csv_alone(self, controller):
        """An A2 fleet 1e-9 kWh above full (see
        ``test_box_without_zero_sum_point_gives_its_nearest_end``) can only
        charge at about -1e-9 kW, so its first step cannot sum to zero. The
        run says so in its telemetry and writes the same rows as the
        per-step loop."""
        scenario = build_stylized_scenario(
            Architecture(ArchKind.A2, allow_load_shift=False), "N5", 3.0, controller
        )
        scenario = replace(
            scenario,
            batteries=tuple(replace(b, soc_kwh=b.e_max_kwh + 1e-9) for b in scenario.batteries),
        )
        result = run_scenario(scenario)
        traj = result.trajectory
        assert traj.zero_sum_missed[0]
        assert traj.clipped[0].all()
        assert abs(sum(a.p_kw for a in result.per_timestep[0].actions)) > 1e-9
        want = reference_run(scenario)
        assert list(timeseries_rows(result)) == list(timeseries_rows(want))
        assert repr(result) == repr(want) and result == want
        assert_same_steps(result, want)

    @pytest.mark.parametrize("collapse_at", [None, 5, 18, 19, 21])
    def test_dispatch_error_at_its_step_and_the_earliest_failure_wins(self, collapse_at):
        """A 1e8 kW unit at the source node rounds its SoC to -1.5e-8 kWh
        while emptying at step 19, and dispatch raises there. A voltage
        collapse at an earlier step wins; a later one is never reached."""
        scenario = build_stylized_scenario(Architecture(ArchKind.A1), "N0", 1.0)
        bat = Battery("bat-1", p_max_kw=1e8, e_max_kwh=2e8, eta_c=0.9, eta_d=0.9)
        flat = [1.0] * scenario.n_steps
        if collapse_at is not None:
            flat[collapse_at] = 100.0  # 200 kW per phase at every node
        scenario = replace(
            scenario, batteries=(bat,), profiles={**scenario.profiles, "flat": tuple(flat)}
        )
        _, _, steps, pending = reference_dispatch(scenario, Topology(scenario.feeder).index)
        assert isinstance(pending, SocUnderflow) and len(steps) == 19
        got = outcome(scenario, run_scenario)
        assert got == outcome(scenario, reference_run)
        if collapse_at is not None and collapse_at < 19:
            assert got[0] is ScenarioStepError and got[1].startswith(f"at t={collapse_at} h")
        else:
            assert got == (SocUnderflow, str(pending))

    @pytest.mark.parametrize("kind", list(ArchKind))
    def test_dispatch_error_at_the_first_step(self, kind):
        """Charging a 1e9 kW unit into 5e8 kWh from the first step rounds its
        SoC past e_max at once: nothing is dispatched or solved."""
        scenario = build_stylized_scenario(Architecture(kind), "N0", 1.0)
        scenario = replace(
            scenario,
            schedule=replace(scenario.schedule, dg_window=(0.0, 5.0)),
            batteries=tuple(
                Battery(b.id, 1e9, 5e8, eta_c=0.9, eta_d=0.9) for b in scenario.batteries
            ),
        )
        _, s_va, steps, pending = reference_dispatch(scenario, Topology(scenario.feeder).index)
        assert steps == [] and isinstance(pending, SocOverflow)
        assert outcome(scenario, run_scenario) == outcome(scenario, reference_run)

    @pytest.mark.parametrize("kind", [ArchKind.A2, ArchKind.A3])
    def test_units_failing_at_one_step_report_the_first(self, kind):
        """Two equal companion units run empty at the same step; as in the
        per-step loop, the first of them in battery order is reported."""
        scenario = build_stylized_scenario(Architecture(kind), "N0", 1.0)
        scenario = replace(
            scenario,
            batteries=tuple(
                Battery(b.id, 1e8, 2e8, 2e8 if b.soc_kwh else 0.0, eta_c=0.9, eta_d=0.9)
                for b in scenario.batteries
            ),
        )
        _, _, steps, pending = reference_dispatch(scenario, Topology(scenario.feeder).index)
        assert len(steps) == 11 and "'bat-b'" in str(pending)
        assert outcome(scenario, run_scenario) == (SocUnderflow, str(pending))

