"""Shared test helpers: random feeder generation, the snapshot solve,
solution residuals, the loop reference of the greedy balancing search, the
per-step loop reference of the dispatch pass, the scalar reference of the
timeseries CSV rows (and their lines, written cell by cell) and the per-cell
reference of the sweep."""

from __future__ import annotations

import csv
import io
import random
from dataclasses import replace
from typing import Mapping, Sequence
from unittest import mock

import numpy as np

from phasebal.cli import _fmt
from phasebal.errors import PhasebalError
from phasebal.metrics import fortescue, rms_voltage, vuf
from phasebal.network import (
    CONDUCTORS,
    Device,
    DeviceKind,
    Feeder,
    FeederSpec,
    PHASES,
    LineSegment,
    Phase,
    build_feeder,
)
from phasebal import scenarios
from phasebal.powerflow import (
    SolverSettings,
    Topology,
    VoltageSolution,
    _snapshot_entries,
    sweep_batch,
)
from phasebal.scenarios import (
    Scenario,
    ScenarioResult,
    SweepRow,
    SweepTemplate,
    _complex_times_real,
    _injection_entries,
    build_sweep_scenario,
    run_scenario,
)
from phasebal.storage import (
    Architecture,
    ArchKind,
    Battery,
    DispatchAction,
    StylizedScheduleCfg,
    _candidate_powers,
    bounds_at,
    clip_power,
    greedy_powers,
    next_soc,
    schedule_requests,
    zero_sum_shift,
)


def random_feeder(rng: random.Random, max_nodes: int = 6) -> Feeder:
    """Random radial tree with random single- or three-phase devices.

    Sized so that every draw is comfortably solvable (no collapse): short
    segments, moderate impedances, device powers up to 2 kW per phase.
    """
    n = rng.randint(2, max_nodes)
    nodes = [f"N{i}" for i in range(n)]
    segments = []
    for i in range(1, n):
        parent = rng.randrange(0, i)
        z_ph = complex(rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.15))
        z_n = complex(rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.15))
        z_m = complex(0.0, rng.uniform(0.0, 0.04)) if rng.random() < 0.3 else 0j
        segments.append(
            LineSegment(
                from_node=nodes[parent],
                to_node=nodes[i],
                length_km=rng.uniform(0.05, 0.3),
                z_phase_per_km=z_ph,
                z_neutral_per_km=z_n,
                z_mutual_per_km=z_m,
            )
        )
    devices = []
    for d in range(rng.randint(0, 6)):
        kind = rng.choice([DeviceKind.LOAD, DeviceKind.EV, DeviceKind.DG])
        p_kw = rng.uniform(0.0, 2.0)
        if kind is DeviceKind.DG:
            s = complex(-p_kw, 0.0)
        else:
            s = complex(p_kw, p_kw * rng.uniform(0.0, 0.48))  # pf 0.9..1 lagging
        devices.append(
            Device(
                label=f"dev{d}",
                node=rng.choice(nodes[1:]),
                kind=kind,
                phase=rng.choice([Phase.A, Phase.B, Phase.C, None]),
                s_rated_kva=s,
            )
        )
    return build_feeder(
        FeederSpec(source_node="N0", nodes=nodes, segments=segments, devices=devices)
    )


def with_profiles(feeder: Feeder, values, steps: int) -> Scenario:
    """The feeder with device i following profile ``p{i}`` (``values[i]``),
    as a scenario over ``steps`` hourly steps."""
    devices = [replace(d, profile_id=f"p{i}") for i, d in enumerate(feeder.devices)]
    profiles = {f"p{i}": tuple(v) for i, v in enumerate(values)}
    return Scenario(
        feeder=replace(feeder, devices=tuple(devices)), horizon_h=float(steps), profiles=profiles
    )


def with_greedy_fleet(scenario: Scenario, kind: ArchKind | None, rng: random.Random) -> Scenario:
    """The scenario with a greedy ``kind`` fleet of 1 kW units (one for A1,
    three otherwise) at a random non-source node; unchanged for None. A1
    and A3 units select their phase, so they change phase and may share one."""
    if kind is None:
        return scenario
    node = rng.choice(scenario.feeder.nodes[1:])
    units = 1 if kind is ArchKind.A1 else 3
    batteries = tuple(
        Battery(id=f"b{u}", p_max_kw=1.0, soc_kwh=rng.uniform(0.0, 5.0)) for u in range(units)
    )
    storage = tuple(
        Device(f"st{u}", node, DeviceKind.STORAGE, Phase.A, battery_id=f"b{u}")
        for u in range(units)
    )
    return replace(
        scenario,
        feeder=replace(scenario.feeder, devices=scenario.feeder.devices + storage),
        architecture=Architecture(kind),
        controller="greedy",
        batteries=batteries,
    )


def snapshot_solve(
    feeder: Feeder,
    injections: Mapping[Device, complex] | None = None,
    settings: SolverSettings = SolverSettings(),
) -> VoltageSolution:
    """One snapshot as a one-row ``sweep_batch`` over ``_snapshot_entries``
    (the feeder's rated powers, overridden by ``injections`` in kVA by
    device label), raising the row's VoltageCollapse or NonConvergence."""
    topo = Topology(feeder)
    node, cond, s_va = _snapshot_entries(topo, feeder, injections)
    result = sweep_batch(topo, node, cond, s_va[None], settings)
    if result.failures:
        raise result.failures[0]
    return result.solution(feeder.nodes, 0)


def max_voltage_gap(a: VoltageSolution, b: VoltageSolution, nodes) -> float:
    va, vb = a.v, b.v
    return max(abs(va[n][c] - vb[n][c]) for n in nodes for c in CONDUCTORS)


def kvl_residual(feeder: Feeder, sol: VoltageSolution) -> float:
    """Worst violation of V_child = V_parent - Z I over all segments."""
    v, branch = sol.v, sol.currents.tolist()
    worst = 0.0
    for k, seg in enumerate(feeder.segments):
        zp = seg.z_phase_per_km * seg.length_km
        zn = seg.z_neutral_per_km * seg.length_km
        zm = seg.z_mutual_per_km * seg.length_km
        amps = branch[k]
        for row, c in enumerate(CONDUCTORS):
            z_row = [zm] * 4
            z_row[row] = zn if c == "N" else zp
            drop = sum(z_row[col] * amps[col] for col in range(4))
            expect = v[seg.from_node][c] - drop
            worst = max(worst, abs(v[seg.to_node][c] - expect))
    return worst


def kcl_residual(feeder: Feeder, sol: VoltageSolution, injections=None) -> float:
    """Worst nodal current imbalance, with device currents recomputed from
    the solved voltages (independent of how branch currents were built).

    ``injections`` overrides device powers by label, as the solvers do.
    """
    v, branch = sol.v, sol.currents.tolist()
    powers = {d.label: (d, d.s_rated_kva) for d in feeder.devices}
    for dev, s in (injections or {}).items():
        powers[dev.label] = (dev, complex(s))
    drawn = {(node, c): 0j for node in feeder.nodes for c in CONDUCTORS}
    for dev, s in powers.values():
        for ph in dev.connected_phases:
            amps = (s * 1000.0 / (v[dev.node][ph.value] - v[dev.node]["N"])).conjugate()
            drawn[dev.node, ph.value] += amps
            drawn[dev.node, "N"] -= amps
    net_in = dict.fromkeys(drawn, 0j)
    for k, seg in enumerate(feeder.segments):
        for c, amps in zip(CONDUCTORS, branch[k]):
            net_in[seg.to_node, c] += amps
            net_in[seg.from_node, c] -= amps
    # the slack source balances the whole feeder by construction
    return max(
        (abs(net_in[key] - drawn[key]) for key in drawn if key[0] != feeder.source_node),
        default=0.0,
    )


def _spread(per_phase: Mapping[Phase, float]) -> float:
    values = [per_phase[ph] for ph in PHASES]
    return max(values) - min(values)


def reference_greedy(
    per_phase_net_kw: Mapping[Phase, float],
    arch: Architecture,
    batteries: Sequence[Battery],
    dt_h: float,
) -> list[DispatchAction]:
    """The greedy balancing search as a per-candidate Python loop: the
    reference that ``storage.greedy_powers`` must match unit for unit, tie
    rule included."""
    net = {ph: float(per_phase_net_kw[ph]) for ph in PHASES}

    if arch.kind is ArchKind.A1:
        bat = batteries[0]
        best = (DispatchAction(bat.id, Phase.A), _spread(net))
        for phase in PHASES:
            for p in _candidate_powers(*bounds_at(bat, bat.soc_kwh, dt_h)):
                adj = dict(net)
                adj[phase] += p
                s = _spread(adj)
                if s < best[1] - 1e-12:
                    best = (DispatchAction(bat.id, phase, p), s)
        return [best[0]]

    if len(batteries) != 3:
        raise ValueError(f"{arch.kind.value} needs exactly three batteries")

    if arch.kind is ArchKind.A2:
        cands = [_candidate_powers(*bounds_at(b, b.soc_kwh, dt_h)) for b in batteries]
        zero_sum = not arch.allow_load_shift
        best_actions = [DispatchAction(b.id, ph) for b, ph in zip(batteries, PHASES)]
        best_spread = _spread(net)
        lo_c, hi_c = bounds_at(batteries[2], batteries[2].soc_kwh, dt_h)
        for pa in cands[0]:
            for pb in cands[1]:
                if zero_sum:
                    pc_list = [-(pa + pb)]
                    if not lo_c - 1e-12 <= pc_list[0] <= hi_c + 1e-12:
                        continue
                else:
                    pc_list = cands[2]
                for pc in pc_list:
                    s = _spread(
                        {
                            Phase.A: net[Phase.A] + pa,
                            Phase.B: net[Phase.B] + pb,
                            Phase.C: net[Phase.C] + pc,
                        }
                    )
                    if s < best_spread - 1e-12:
                        best_spread = s
                        best_actions = [
                            DispatchAction(batteries[0].id, Phase.A, pa),
                            DispatchAction(batteries[1].id, Phase.B, pb),
                            DispatchAction(batteries[2].id, Phase.C, pc),
                        ]
        return best_actions

    # A3: sequential greedy with per-battery phase selection.
    adjusted = dict(net)
    actions: list[DispatchAction] = []
    for bat in batteries:
        best = (DispatchAction(bat.id, Phase.A), _spread(adjusted))
        for phase in PHASES:
            for p in _candidate_powers(*bounds_at(bat, bat.soc_kwh, dt_h)):
                trial = dict(adjusted)
                trial[phase] += p
                s = _spread(trial)
                if s < best[1] - 1e-12:
                    best = (DispatchAction(bat.id, phase, p), s)
        actions.append(best[0])
        adjusted[best[0].phase] += best[0].p_kw
    return actions


def reference_dispatch(
    scenario: Scenario, index: dict[str, int]
) -> tuple[list[tuple[int, int]], np.ndarray, list, Exception | None]:
    """The dispatch pass as a per-step loop over ``Battery`` and
    ``DispatchAction`` objects: the reference that ``scenarios._dispatch``
    must match bit for bit.

    Pass 1 of a run: step through time, evaluate profiles, ask the
    controller for actions (the fixed schedule's requests, shifted to a zero
    sum for A2 without load shift and clipped, or the greedy search), clip
    them once more (a no-op, the clip being idempotent) and apply them to
    the batteries. Neither controller reads voltages, so this fixes every
    step's injections up front.

    Returns the entry layout as ``(node row, conductor)`` pairs, the
    ``(step, entry)`` complex VA of the steps dispatched, their
    ``(t_h, actions, soc_kwh)``, and the error that stopped dispatch early
    (None if every step ran).
    """
    feeder = scenario.feeder
    n_steps = scenario.n_steps
    dt_h = scenario.dt_h
    plain = [d for d in feeder.devices if d.kind is not DeviceKind.STORAGE]
    scale = np.array(
        [scenario.profiles[d.profile_id] if d.profile_id else (1.0,) * n_steps for d in plain],
        dtype=float,
    ).reshape(len(plain), n_steps).T
    rated = np.array([d.s_rated_kva for d in plain], dtype=complex)
    dev_p, dev_q = _complex_times_real(rated.real, rated.imag, scale)

    node, cond, owner, battery_entry = _injection_entries(feeder, index)
    has_dev = owner >= 0
    p_kw = np.zeros((n_steps, len(node)))
    q_kvar = np.zeros((n_steps, len(node)))
    p_kw[:, has_dev] = dev_p[:, owner[has_dev]]
    q_kvar[:, has_dev] = dev_q[:, owner[has_dev]]

    arch = scenario.architecture
    batteries = list(scenario.batteries)
    bat_index = {b.id: i for i, b in enumerate(batteries)}
    steps: list[tuple[float, tuple[DispatchAction, ...], dict[str, float]]] = []
    pending: Exception | None = None
    for k in range(n_steps):
        t_h = k * dt_h
        try:
            bounds = [bounds_at(b, b.soc_kwh, dt_h) for b in batteries]
            if scenario.controller == "fixed_schedule" and batteries:
                phases, raw = schedule_requests(
                    np.array([t_h]), arch, scenario.schedule or StylizedScheduleCfg(),
                    [b.p_max_kw for b in batteries],
                )
                powers = raw[0].tolist()
                if arch.kind is ArchKind.A2 and not arch.allow_load_shift:
                    powers = zero_sum_shift(powers, *zip(*bounds))
                actions = [
                    DispatchAction(b.id, ph, *clip_power(b, p, 0.0, *bd))
                    for b, ph, p, bd in zip(batteries, phases, powers, bounds)
                ]
            elif scenario.controller == "greedy" and batteries:
                net_kw = dict.fromkeys(PHASES, 0.0)
                for dev, p in zip(plain, dev_p[k].tolist()):
                    for ph in dev.connected_phases:
                        net_kw[ph] += p
                choice = greedy_powers([net_kw[ph] for ph in PHASES], arch, bounds)
                actions = [
                    DispatchAction(b.id, PHASES[ph], p) for b, (ph, p) in zip(batteries, choice)
                ]
            else:
                actions = []
            applied: list[DispatchAction] = []
            for action in actions:
                i = bat_index[action.battery_id]
                bat = batteries[i]
                p, q = clip_power(
                    bat, action.p_kw, action.q_kvar, *bounds_at(bat, bat.soc_kwh, dt_h)
                )
                final = replace(action, p_kw=p, q_kvar=q)
                batteries[i] = replace(bat, soc_kwh=next_soc(bat, bat.soc_kwh, p, q, dt_h))
                applied.append(final)
                entry = battery_entry[action.battery_id] + PHASES.index(final.phase)
                p_kw[k, entry] = final.p_kw
                q_kvar[k, entry] = final.q_kvar
        except (PhasebalError, ValueError) as exc:  # an earlier solver failure wins
            pending = exc
            break
        steps.append((t_h, tuple(applied), {b.id: b.soc_kwh for b in batteries}))

    n_ok = len(steps)
    s_va = np.empty((n_ok, len(node)), dtype=complex)
    s_va.real, s_va.imag = _complex_times_real(p_kw[:n_ok], q_kvar[:n_ok], 1000.0)
    return list(zip(node.tolist(), cond.tolist())), s_va, steps, pending


def reference_run(
    scenario: Scenario, settings: SolverSettings = SolverSettings()
) -> ScenarioResult:
    """``run_scenario`` with ``reference_dispatch`` as its dispatch pass:
    the run as the per-step loop made it. Its trajectory holds the loop's
    actions and SoC; the clip mask and zero-sum flags, which the loop
    does not report, are all False."""

    def dispatch(sc: Scenario, index: dict[str, int]):
        layout, s_va, steps, pending = reference_dispatch(sc, index)
        units = len(steps[0][1]) if steps else 0
        shape = (len(steps), units)
        arrays = {
            name: np.array(
                [[get(a) for a in actions] for _, actions, _ in steps], dtype=dtype
            ).reshape(shape)
            for name, get, dtype in (
                ("p_kw", lambda a: a.p_kw, float),
                ("q_kvar", lambda a: a.q_kvar, float),
                ("phase", lambda a: PHASES.index(a.phase), np.intp),
            )
        }
        arrays["soc_kwh"] = np.array(
            [list(soc.values()) for _, _, soc in steps], dtype=float
        ).reshape(len(steps), len(sc.batteries))
        arrays["clipped"] = np.zeros(shape, dtype=bool)
        arrays["zero_sum_missed"] = np.zeros(len(steps), dtype=bool)
        arrays["battery_ids"] = tuple(b.id for b in sc.batteries)
        return layout, s_va, arrays, pending

    with mock.patch.object(scenarios, "_dispatch", dispatch):
        return run_scenario(scenario, settings)


def reference_timeseries_rows(scenario: Scenario, result: ScenarioResult):
    """The timeseries CSV rows computed step by step from each step's
    ``solution.v`` and branch currents with the scalar formulas (``vuf`` of
    ``fortescue``, ``rms_voltage``, |I|^2 R per conductor), independent of
    the array code, as values; ``reference_timeseries_lines`` writes
    them."""
    feeder = scenario.feeder
    v_base = feeder.v_base_ln
    feed_seg = {seg.to_node: k for k, seg in enumerate(feeder.segments)}
    storage_node = {d.battery_id: d.node for d in feeder.storage_devices()}
    for rec in result.per_timestep:
        per_node_p = {}
        per_node_q = {}
        per_node_soc = {}
        for action in rec.actions:
            node = storage_node[action.battery_id]
            per_node_p.setdefault(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            per_node_q.setdefault(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            per_node_p[node][action.phase.value] += action.p_kw
            per_node_q[node][action.phase.value] += action.q_kvar
        for bat_id, soc in rec.soc_kwh.items():
            node = storage_node[bat_id]
            per_node_soc[node] = per_node_soc.get(node, 0.0) + soc

        solution = rec.solution
        v = solution.v
        branch = solution.currents.tolist()
        for node in feeder.nodes:
            v_n = v[node]["N"]
            phasors = [v[node][p] - v_n for p in ("A", "B", "C")]
            mags = [abs(x) for x in phasors]
            drop = [100 * (mag - v_base) / v_base for mag in mags]
            k = feed_seg.get(node)
            if k is None:
                phase_loss = neutral_loss = 0.0
            else:
                seg = feeder.segments[k]
                r_ph = (seg.z_phase_per_km * seg.length_km).real
                r_n = (seg.z_neutral_per_km * seg.length_km).real
                phase_loss = sum(abs(amps) ** 2 * r_ph / 1000 for amps in branch[k][:3])
                neutral_loss = abs(branch[k][3]) ** 2 * r_n / 1000
            p_fill = per_node_p.get(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            q_fill = per_node_q.get(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            yield (
                rec.t_h,
                node,
                *mags,
                abs(v_n),
                vuf(fortescue(*phasors)),
                *drop,
                rms_voltage(*mags),
                phase_loss,
                neutral_loss,
                p_fill["A"],
                p_fill["B"],
                p_fill["C"],
                q_fill["A"],
                q_fill["B"],
                q_fill["C"],
                per_node_soc.get(node, 0.0),
            )


def reference_timeseries_lines(scenario: Scenario, result: ScenarioResult) -> list[str]:
    """The lines ``cli.timeseries_rows`` must match byte for byte: each
    reference row written cell by cell, every value through ``cli._fmt`` and
    the row through one ``csv.writer.writerow``. ``%.17g`` round-trips a
    float and prints -0.0 as ``-0``, so equal lines mean bit-equal values."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    lines = []
    for row in reference_timeseries_rows(scenario, result):
        writer.writerow([_fmt(cell) for cell in row])
        lines.append(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
    return lines


def reference_sweep(
    template: SweepTemplate,
    penetrations: Sequence[float],
    nodes: Sequence[str],
    kinds: Sequence[DeviceKind],
    settings: SolverSettings = SolverSettings(),
) -> list[SweepRow]:
    """The sweep as one ``run_scenario`` per cell: the reference that
    ``sweep_and_tabulate`` must match row for row."""
    if not penetrations or not nodes or not kinds:
        raise ValueError("penetrations, nodes and kinds must be non-empty")
    rows = []
    for kind in kinds:
        for node in nodes:
            for pen in penetrations:
                scenario = build_sweep_scenario(
                    template.total_phase_load_kw,
                    node,
                    kind,
                    pen,
                    template.network_class,
                    device_phase=template.device_phase,
                    balanced=template.balanced,
                )
                try:
                    rows.append(SweepRow(kind, node, pen, run_scenario(scenario, settings)))
                except PhasebalError as exc:
                    rows.append(SweepRow(kind, node, pen, None, error=str(exc)))
    return rows
