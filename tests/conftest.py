"""Shared test helpers: random feeder generation, the snapshot solve, the
scatter reference of the sweep kernel, solution residuals, the loop
reference of the greedy balancing search, the per-step loop reference of
the dispatch pass, the byte comparison of two results' steps, the scalar
reference of the timeseries CSV rows (and their lines, written cell by
cell), the per-cell reference of the sweep and of its five CSV tables, and
the device columns of batch cells given as ``Device`` objects."""

from __future__ import annotations

import csv
import io
import random
from dataclasses import replace
from typing import Mapping, Sequence
from unittest import mock

import numpy as np

from phasebal.cli import SWEEP_COLUMNS, SWEEP_EXTRACTS, SUMMARY_COLUMNS, _fmt
from phasebal.errors import NonConvergence, PhasebalError, VoltageCollapse
from phasebal.metrics import fortescue, rms_voltage, vuf
from phasebal.network import (
    CONDUCTORS,
    Device,
    DeviceKind,
    Feeder,
    PHASES,
    LineSegment,
    Phase,
    build_feeder,
)
from phasebal import scenarios
from phasebal.powerflow import (
    BatchSolution,
    SolverSettings,
    Topology,
    VoltageSolution,
    _snapshot_entries,
    source_phasors,
    sweep_batch,
)
from phasebal.scenarios import (
    Scenario,
    ScenarioResult,
    SweepRow,
    SweepTemplate,
    _PHASE_ROW,
    _CellDevices,
    _complex_times_real,
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
    return build_feeder("N0", nodes, segments, devices)


TREE_SHAPES = ("recursive", "chain", "star", "mixed")


def random_tree(rng: random.Random, n: int, shape: str = "recursive") -> Feeder:
    """A feeder of ``n`` nodes in one of ``TREE_SHAPES``: each node hangs
    off a uniformly drawn earlier one, off the one before it, off the
    source, or (mixed) a bus with a fifth of the nodes as children, a deep
    branch of another fifth and a recursive rest. Segments and nodes are
    declared shuffled and some segments reversed, so breadth-first order
    and segment order differ from the declaration. About half the nodes
    get a three-phase load and a fifth a single-phase PV or EV unit, about
    40 kW per phase in all whatever ``n``; segments are short enough that
    this load converges on every shape."""
    bus_end, branch_end = 1 + n // 5, 1 + 2 * (n // 5)
    parents = []
    for i in range(1, n):
        if shape == "chain" or (shape == "mixed" and bus_end < i <= branch_end):
            parents.append(i - 1)
        elif shape == "star" or (shape == "mixed" and i == 1):
            parents.append(0)
        elif shape == "mixed" and i <= bus_end:
            parents.append(1)
        else:
            parents.append(rng.randrange(1 if shape == "mixed" else 0, i))
    scale_km = 0.4 / n if shape in ("chain", "mixed") else 0.05
    nodes = [f"T{i}" for i in range(n)]
    segments = []
    for i, parent in enumerate(parents, 1):
        ends = (nodes[parent], nodes[i]) if rng.random() < 0.7 else (nodes[i], nodes[parent])
        segments.append(
            LineSegment(
                *ends,
                length_km=scale_km * rng.uniform(0.5, 1.5),
                z_phase_per_km=complex(rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.15)),
                z_neutral_per_km=complex(rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.15)),
                z_mutual_per_km=complex(0.0, rng.uniform(0.0, 0.04)) if rng.random() < 0.3 else 0j,
            )
        )
    kw = 40.0 / n
    devices = []
    for i in range(1, n):
        if rng.random() < 0.5:
            load = complex(2 * kw, 0.4 * kw)
            devices.append(Device(f"load{i}", nodes[i], DeviceKind.LOAD, None, load))
        if rng.random() < 0.2:
            kind, p_kw = rng.choice([(DeviceKind.DG, -3 * kw), (DeviceKind.EV, 3 * kw)])
            phase = rng.choice(PHASES)
            devices.append(Device(f"{kind.value}{i}", nodes[i], kind, phase, complex(p_kw, 0)))
    rng.shuffle(segments)
    rng.shuffle(nodes)
    return build_feeder("T0", nodes, segments, devices)


def labelled(feeder: Feeder, label: str) -> Device:
    """The device of ``feeder`` whose label is ``label``."""
    return next(d for d in feeder.devices if d.label == label)


def with_device(feeder: Feeder, device: Device) -> Feeder:
    """The feeder with ``device`` appended, validated by ``build_feeder``."""
    devices = feeder.devices + (device,)
    return build_feeder(
        feeder.source_node, feeder.nodes, feeder.segments, devices, feeder.v_base_ln,
        feeder.s_base_kva,
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


def _reference_levels(topo: Topology) -> list[np.ndarray]:
    """The rows at depth 1, 2, ... from ``topo.parent``, each level in
    decreasing order: the order the scatter adds siblings in."""
    depth = [0] * topo.n
    for i in range(1, topo.n):  # parents precede children in breadth-first order
        depth[i] = depth[topo.parent[i]] + 1
    depth_arr = np.array(depth)
    return [np.flatnonzero(depth_arr == d)[::-1] for d in range(1, max(depth, default=0) + 1)]


def _reference_device_currents(
    topo: Topology, v: np.ndarray, node: np.ndarray, cond: np.ndarray, s_va: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Device sinks ``(batch, node, 4)`` scattered entry by entry with
    ``np.add.at``/``np.subtract.at``, and the smallest live line-to-neutral
    magnitude per row in pu, the denominator clamped at 0.5 pu."""
    floor = 0.5 * topo.v_base
    v_ln = v[:, node, cond] - v[:, node, 3]
    mag = np.hypot(v_ln.real, v_ln.imag)
    live = s_va != 0
    v_min = np.fmin.reduce(np.where(live, mag / topo.v_base, np.inf), axis=1, initial=np.inf)
    low = mag < floor
    if low.any():
        nominal = np.array([p * 0.5 for p in source_phasors(topo.v_base)])[cond]
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = v_ln * (floor / mag)
        v_ln = np.where(low, np.where(mag == 0.0, nominal, scaled), v_ln)
    i_dev = np.where(live, np.conj(s_va / v_ln), 0)
    sinks = np.zeros(v.shape, dtype=complex)
    np.add.at(sinks, (slice(None), node, cond), i_dev)
    np.subtract.at(sinks, (slice(None), node, 3), i_dev)
    return sinks, v_min


def _reference_branch_currents(topo: Topology, levels, sinks: np.ndarray) -> np.ndarray:
    """Branch currents in segment order, accumulated leaf to root with one
    ``np.add.at`` per level; within a level siblings add into their parent
    from the highest row down."""
    acc = sinks.copy()
    for level in reversed(levels):
        np.add.at(acc, (slice(None), topo.parent[level]), acc[:, level])
    currents = np.empty((sinks.shape[0], topo.z.shape[0], 4), dtype=complex)
    currents[:, topo.feed_seg[1:]] = acc[:, 1:]
    return currents


def _reference_forward_voltages(topo: Topology, levels, v: np.ndarray, currents: np.ndarray):
    """V_child = V_parent - Z I across all four conductors, level by level."""
    drop = np.matmul(topo.z, currents[..., None])[..., 0]
    v_new = v.copy()
    for level in levels:
        v_new[:, level] = v_new[:, topo.parent[level]] - drop[:, topo.feed_seg[level]]
    return v_new


def reference_sweep_batch(
    topo: Topology,
    node: np.ndarray,
    cond: np.ndarray,
    s_va: np.ndarray,
    settings: SolverSettings = SolverSettings(),
) -> BatchSolution:
    """``sweep_batch`` as the scatter kernel computed it, fresh arrays on
    every pass and ``ufunc.at`` for the sinks and the branch sums: the
    reference the production kernel must match byte for byte, failures
    included (a row whose largest change is not finite fails on that pass
    with NonConvergence)."""
    levels = _reference_levels(topo)
    batch = s_va.shape[0]
    out_v = np.zeros((batch, topo.n, 4), dtype=complex)
    out_i = np.zeros((batch, topo.z.shape[0], 4), dtype=complex)
    iterations = np.zeros(batch, dtype=int)
    failures: dict[int, PhasebalError] = {}
    rows = np.arange(batch)
    v = np.repeat(topo.flat[None], batch, axis=0)
    tol_v = settings.tol_pu * topo.v_base
    delta = np.full(batch, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, settings.max_iter + 1):
            if rows.size == 0:
                break
            sinks, v_min = _reference_device_currents(topo, v, node, cond, s_va)
            collapsed = v_min < 0.5
            if collapsed.any():
                for row, v_pu in zip(rows[collapsed].tolist(), v_min[collapsed].tolist()):
                    failures[row] = VoltageCollapse(it, v_pu)
                keep = ~collapsed
                rows, v, s_va, sinks = rows[keep], v[keep], s_va[keep], sinks[keep]
            currents = _reference_branch_currents(topo, levels, sinks)
            v_new = _reference_forward_voltages(topo, levels, v, currents)
            delta = np.abs(v_new - v).max(axis=(1, 2))
            v = v_new
            done = delta <= tol_v
            diverged = ~np.isfinite(delta)
            if done.any():
                out_v[rows[done]] = v[done]
                out_i[rows[done]] = currents[done]
                iterations[rows[done]] = it
            for row, residual in zip(rows[diverged].tolist(), delta[diverged].tolist()):
                failures[row] = NonConvergence(it, residual)
            keep = ~(done | diverged)
            rows, v, s_va, delta = rows[keep], v[keep], s_va[keep], delta[keep]
    for row, residual in zip(rows.tolist(), delta.tolist()):
        failures[row] = NonConvergence(settings.max_iter, residual)
    return BatchSolution(out_v, out_i, iterations, failures)


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


def _injection_entries(
    feeder: Feeder, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Injection entries in the order the devices sit on the feeder.

    A device takes one entry per connected phase. A storage device takes
    three (A, B, C): the phase its battery is dispatched on carries the
    power and the other two stay zero. ``index`` maps node names to rows.
    Returns the entries as flat keys ``node row * 4 + conductor``, the
    column of each entry's device among the non-storage devices (-1 for
    storage), and the first entry of the device of each battery.
    """
    keys: list[int] = []
    owner: list[int] = []
    battery_entry: dict[str, int] = {}
    col = 0
    for dev in feeder.devices:
        base = index[dev.node] * 4
        if dev.kind is DeviceKind.STORAGE:
            battery_entry[dev.battery_id] = len(keys)
            phases, dev_col = PHASES, -1
        else:
            phases, dev_col = dev.connected_phases, col
            col += 1
        keys += [base + _PHASE_ROW[ph] for ph in phases]
        owner += [dev_col] * len(phases)
    return np.array(keys, dtype=np.intp), np.array(owner, dtype=np.intp), battery_entry


def reference_dispatch(
    scenario: Scenario, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, list, Exception | None]:
    """The dispatch pass as a per-step loop over ``Battery`` and
    ``DispatchAction`` objects: the reference that ``scenarios._dispatch``
    must match bit for bit.

    Pass 1 of a run: step through time, evaluate profiles, ask the
    controller for actions (the fixed schedule's requests, shifted to a zero
    sum for A2 without load shift and clipped, or the greedy search), clip
    them once more (a no-op, the clip being idempotent) and apply them to
    the batteries. Neither controller reads voltages, so this fixes every
    step's injections up front.

    Returns the entry layout as flat keys ``node row * 4 + conductor``, the
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

    keys, owner, battery_entry = _injection_entries(feeder, index)
    has_dev = owner >= 0
    p_kw = np.zeros((n_steps, len(keys)))
    q_kvar = np.zeros((n_steps, len(keys)))
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
    s_va = np.empty((n_ok, len(keys)), dtype=complex)
    s_va.real, s_va.imag = _complex_times_real(p_kw[:n_ok], q_kvar[:n_ok], 1000.0)
    return keys, s_va, steps, pending


def reference_run(
    scenario: Scenario, settings: SolverSettings = SolverSettings()
) -> ScenarioResult:
    """``run_scenario`` with ``reference_dispatch`` as its dispatch pass:
    the run as the per-step loop made it. Its trajectory holds the loop's
    actions and SoC; the clip mask and zero-sum flags, which the loop
    does not report, are all False, and the loop evaluates every step of a
    dispatched fleet."""

    def dispatch_one(sc: Scenario, index: dict[str, int]):
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
        arrays["dispatch_states"] = len(steps) if units else 0
        # every step is its own candidate row
        return layout, s_va, np.arange(len(s_va)), arrays, pending

    def dispatch(sc: Scenario, cells: _CellDevices, index: dict[str, int]):
        assert cells.node.tolist() == [-1]  # a run is one cell without a device
        return dispatch_one(sc, index)

    with mock.patch.object(scenarios, "_dispatch", dispatch):
        return run_scenario(scenario, settings)


def assert_same_steps(got: ScenarioResult, want: ScenarioResult) -> None:
    """Two results hold the same steps byte for byte: the voltages, branch
    currents and pass counts of each step's row, and the dispatch (units,
    phase, p, q) and SoC of each step at the same ``dt_h``. Result ``==``
    and ``repr`` cover only the aggregates."""
    ours, theirs = got.trajectory, want.trajectory
    for name in ("voltages", "currents", "iterations"):
        a = getattr(ours.solved, name)[got.step_row]
        b = getattr(theirs.solved, name)[want.step_row]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (ours.dt_h, ours.battery_ids) == (theirs.dt_h, theirs.battery_ids)
    for name in ("p_kw", "q_kvar", "phase", "soc_kwh"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


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
    """The lines whose joined text ``cli.timeseries_rows`` must match byte
    for byte: each reference row written cell by cell, every value through
    ``cli._fmt`` and the row through one ``csv.writer.writerow``. ``%.17g``
    round-trips a float and prints -0.0 as ``-0``, so equal lines mean
    bit-equal values."""
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


def reference_sweep_tables(rows: Sequence[SweepRow]) -> dict[str, str]:
    """The text of the five sweep CSV files, by name, as the CLI wrote them
    row by row from ``SweepRow`` objects: each cell's values as a record
    keyed by column name, projected onto each file's columns (a column the
    record lacks is an empty field), every value through ``cli._fmt``
    (``%.17g`` for a float) and each row through ``csv.writer``."""
    records = []
    for row in rows:
        values = {
            "kind": row.kind.value,
            "node": row.node,
            "penetration_pct": row.penetration_pct,
            "error": row.error or "",
        }
        if row.result is not None:
            r = row.result
            values.update(
                {name: getattr(r, name) for name in SUMMARY_COLUMNS},
                sum_drop_n1_pct=r.sum_drop_at.get("N1"),
                sum_drop_n5_pct=r.sum_drop_at.get("N5"),
                total_loss_kwh=r.phase_loss_kwh + r.neutral_loss_kwh,
            )
        records.append(values)
    ran = [rec for rec, row in zip(records, rows) if row.result is not None]
    failed = [rec for rec, row in zip(records, rows) if row.result is None]
    tables = {
        "sweep": (SWEEP_COLUMNS, records),
        **{name: (columns, ran) for name, columns in SWEEP_EXTRACTS.items()},
        "failures": (("kind", "node", "penetration_pct", "error"), failed),
    }
    texts = {}
    for name, (columns, recs) in tables.items():
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for rec in recs:
            writer.writerow([_fmt(rec.get(c)) for c in columns])
        texts[name] = buffer.getvalue()
    return texts


def cell_devices(feeder: Feeder, devices: Sequence[Device | None]) -> _CellDevices:
    """The device columns of batch cells on ``feeder``, one cell per entry
    of ``devices`` (None: the cell has no device)."""
    index = Topology(feeder).index
    return _CellDevices(
        np.array([-1 if d is None else index[d.node] for d in devices]),
        np.array([3 if d is None or d.phase is None else _PHASE_ROW[d.phase] for d in devices]),
        np.array([0j if d is None else d.s_rated_kva for d in devices], dtype=complex),
        tuple(None if d is None else d.profile_id for d in devices),
    )
