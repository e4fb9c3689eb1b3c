"""Scenario builders, the time-stepped simulation, and aggregation.

A scenario couples a feeder with hourly device profiles, an optional storage
fleet and a dispatch controller. ``run_scenario`` makes three passes: a
dispatch pass that steps through time and fixes every step's injections
and the battery SoC trajectory (no controller reads voltages), one batched
power flow over all steps, and an array pass for unbalance and loss
metrics and their aggregates over the horizon. Per-step records build
their solution, node metrics and flow summary from those arrays on read.

Two builder families cover the bundled studies:

- ``build_sweep_scenario``: a six-node chain with balanced base load plus a
  single-phase DG or EV of a given penetration (percent of the per-phase
  load) at a chosen node, on a compact, overloaded or sparse network.
- ``build_stylized_scenario``: the storage showcase; 2 kW per phase per
  node of base load, a 10 kW single-phase solar block from 10:00 to 15:00
  and a 10 kW single-phase EV block from 18:00 to 23:00 at mid-feeder,
  optionally corrected by one of the storage architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    PhasebalError,
    ScenarioStepError,
    UnknownNode,
    UnsupportedNode,
    ZeroPositiveSequence,
)
from .metrics import NodeMetrics, metrics_dict, node_metric_arrays
from .network import (
    PHASES,
    Device,
    DeviceKind,
    Feeder,
    Phase,
    chain_feeder,
)
from .powerflow import (
    BatchSolution,
    FlowSummary,
    SolverSettings,
    Topology,
    VoltageSolution,
    flow_summary,
    segment_losses,
    segment_resistances,
    sweep_batch,
)
from .storage import (
    Architecture,
    ArchKind,
    Battery,
    DispatchAction,
    StylizedScheduleCfg,
    apply_action,
    feasible_action,
    fixed_schedule_controller,
    greedy_balance_controller,
)

#: Segment length (km) per network class; load level is the caller's choice,
#: with 5 kW per phase canonical for compact/sparse and 50 kW for overload.
NETWORK_CLASS_SEGMENT_KM: dict[str, float] = {
    "compact": 0.1,
    "overload": 0.1,
    "sparse": 1.0,
}

CONTROLLERS = ("none", "fixed_schedule", "greedy")

_SWEEP_NODES = ("N1", "N2", "N3", "N4", "N5")


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulation run."""

    feeder: Feeder
    horizon_h: float = 24.0
    dt_h: float = 1.0
    profiles: dict[str, tuple[float, ...]] = field(default_factory=dict)
    architecture: Architecture | None = None
    controller: str = "none"
    batteries: tuple[Battery, ...] = ()
    schedule: StylizedScheduleCfg | None = None
    label: str = "scenario"

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        steps = self.horizon_h / self.dt_h
        if abs(steps - round(steps)) > 1e-9 or steps < 1:
            raise ValueError("horizon_h must be a positive multiple of dt_h")
        n = self.n_steps
        for dev in self.feeder.devices:
            if dev.profile_id is None:
                continue
            profile = self.profiles.get(dev.profile_id)
            if profile is None:
                raise ValueError(f"device {dev.label!r}: profile {dev.profile_id!r} not defined")
            if len(profile) != n:
                raise ValueError(
                    f"profile {dev.profile_id!r} has {len(profile)} entries, expected {n}"
                )
        battery_ids = {b.id for b in self.batteries}
        if len(battery_ids) != len(self.batteries):
            raise ValueError("duplicate battery ids")
        attached: set[str] = set()
        for dev in self.feeder.storage_devices():
            if dev.battery_id in attached:
                raise ValueError(
                    f"battery {dev.battery_id!r} is attached to more than one storage device"
                )
            attached.add(dev.battery_id)
        if battery_ids != attached:
            raise ValueError(
                f"batteries {sorted(battery_ids)} do not match storage devices {sorted(attached)}"
            )
        if self.architecture is not None and len(self.batteries) != self.architecture.n_batteries:
            raise ValueError(
                f"{self.architecture.kind.value} needs {self.architecture.n_batteries} batteries"
            )
        if self.controller != "none" and self.batteries and self.architecture is None:
            raise ValueError("a storage controller needs an architecture")

    @property
    def n_steps(self) -> int:
        return round(self.horizon_h / self.dt_h)


@dataclass(frozen=True, eq=False)
class StepRecord:
    """Everything observed at one timestep.

    ``solution``, ``metrics`` and ``flows`` are built from the run's arrays
    on every read; hold on to the returned object to read it repeatedly.
    """

    t_h: float
    actions: tuple[DispatchAction, ...]
    soc_kwh: dict[str, float]
    trajectory: "_Trajectory" = field(repr=False)
    step: int = field(repr=False)

    @property
    def solution(self) -> VoltageSolution:
        return self.trajectory.solution(self.step)

    @property
    def metrics(self) -> dict[str, NodeMetrics]:
        return self.trajectory.metrics(self.step)

    @property
    def flows(self) -> FlowSummary:
        return self.trajectory.flows(self.step)

    def _observed(self) -> tuple:
        return (self.t_h, self.actions, self.soc_kwh, self.solution, self.metrics, self.flows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepRecord):
            return NotImplemented
        return self._observed() == other._observed()


@dataclass(frozen=True)
class ScenarioResult:
    """Time-aggregated metrics for one scenario run.

    VUF statistics run over all non-source nodes and all timesteps.
    ``max_drop_pct`` / ``max_rise_pct`` are magnitudes (both >= 0) of the
    worst negative / positive line-to-neutral deviation. ``sum_drop_at``
    maps a node to the time-average of its three phase deviations summed.
    """

    label: str
    mean_vuf_pct: float
    max_vuf_pct: float
    neutral_loss_kwh: float
    phase_loss_kwh: float
    max_drop_pct: float
    max_rise_pct: float
    sum_drop_at: dict[str, float]
    per_timestep: tuple[StepRecord, ...]


@dataclass(frozen=True, eq=False)
class _Trajectory:
    """Solved arrays of every timestep of one run: power flow
    ``(step, node | segment, conductor)`` and the metrics derived from it."""

    feeder: Feeder
    solved: BatchSolution
    vuf_pct: np.ndarray
    drop_pct: np.ndarray
    v_rms: np.ndarray
    phase_loss: np.ndarray
    neutral_loss: np.ndarray

    def solution(self, k: int) -> VoltageSolution:
        return self.solved.solution(self.feeder.nodes, k)

    def metrics(self, k: int) -> dict[str, NodeMetrics]:
        return metrics_dict(self.feeder.nodes, self.vuf_pct[k], self.drop_pct[k], self.v_rms[k])

    def flows(self, k: int) -> FlowSummary:
        return flow_summary(
            self.feeder,
            self.solved.voltages[k],
            self.solved.currents[k],
            self.phase_loss[k],
            self.neutral_loss[k],
        )


def _complex_times_real(re: np.ndarray, im: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """Python's complex * float, (re + j im) * f, component by component."""
    return re * f - im * 0.0, re * 0.0 + im * f


def _injection_entries(
    feeder: Feeder, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int]]:
    """Injection entries in the order the devices sit on the feeder.

    A device takes one entry per connected phase. A storage device takes
    three (A, B, C): the phase its battery is dispatched on carries the
    power and the other two stay zero, so phase-selecting units need no
    second layout. ``index`` maps node names to rows. Returns (node rows,
    conductors, column of the entry's device among the non-storage devices
    or -1 for storage, first entry of the device of each battery).
    """
    node, cond, owner = [], [], []
    battery_entry: dict[str, int] = {}
    col = 0
    for dev in feeder.devices:
        if dev.kind is DeviceKind.STORAGE:
            battery_entry[dev.battery_id] = len(node)
            phases, dev_col = PHASES, -1
        else:
            phases, dev_col = dev.connected_phases, col
            col += 1
        for ph in phases:
            node.append(index[dev.node])
            cond.append(PHASES.index(ph))
            owner.append(dev_col)
    return (
        np.array(node, dtype=np.intp),
        np.array(cond, dtype=np.intp),
        np.array(owner, dtype=np.intp),
        battery_entry,
    )


def run_scenario(scenario: Scenario, settings: SolverSettings = SolverSettings()) -> ScenarioResult:
    """Execute the scenario in three passes and aggregate the results.

    1. Dispatch: step through time, evaluate profiles, ask the controller
       for actions, clip and apply them to the batteries. Neither controller
       reads voltages, so this fixes every step's injections up front.
    2. Power flow: one forward-backward sweep over all steps at once.
    3. Metrics: VUF, deviations, losses and the aggregates, as arrays.

    Failures surface as a step-by-step loop would raise them: the earliest
    failing step wins, a solver failure as a ScenarioStepError tagged with
    its time, anything else as raised. Deterministic: identical scenarios
    produce identical results.
    """
    feeder = scenario.feeder
    n_steps = scenario.n_steps
    dt_h = scenario.dt_h

    # --- 1. dispatch pass ----------------------------------------------------
    plain = [d for d in feeder.devices if d.kind is not DeviceKind.STORAGE]
    scale = np.array(
        [scenario.profiles[d.profile_id] if d.profile_id else (1.0,) * n_steps for d in plain],
        dtype=float,
    ).reshape(len(plain), n_steps).T
    rated = np.array([d.s_rated_kva for d in plain], dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        dev_p, dev_q = _complex_times_real(rated.real, rated.imag, scale)
    finite = np.isfinite(dev_p) & np.isfinite(dev_q)
    bad_steps = np.flatnonzero(~finite.all(axis=1))

    topo = Topology(feeder)
    node, cond, owner, battery_entry = _injection_entries(feeder, topo.index)
    has_dev = owner >= 0
    p_kw = np.zeros((n_steps, len(node)))
    q_kvar = np.zeros((n_steps, len(node)))
    p_kw[:, has_dev] = dev_p[:, owner[has_dev]]
    q_kvar[:, has_dev] = dev_q[:, owner[has_dev]]

    batteries = list(scenario.batteries)
    bat_index = {b.id: i for i, b in enumerate(batteries)}
    steps: list[tuple[float, tuple[DispatchAction, ...], dict[str, float]]] = []
    pending: Exception | None = None
    # a non-finite injection fails its step after that step's dispatch
    n_dispatch = int(bad_steps[0]) + 1 if bad_steps.size else n_steps
    for k in range(n_dispatch):
        t_h = k * dt_h
        try:
            if scenario.controller == "fixed_schedule" and batteries:
                actions = fixed_schedule_controller(
                    t_h, scenario.architecture, scenario.schedule or StylizedScheduleCfg(),
                    batteries, dt_h,
                )
            elif scenario.controller == "greedy" and batteries:
                net_kw = dict.fromkeys(PHASES, 0.0)
                for dev, p in zip(plain, dev_p[k].tolist()):
                    for ph in dev.connected_phases:
                        net_kw[ph] += p
                actions = greedy_balance_controller(net_kw, scenario.architecture, batteries, dt_h)
            else:
                actions = []
            applied: list[DispatchAction] = []
            for action in actions:
                i = bat_index[action.battery_id]
                final = feasible_action(batteries[i], action, dt_h)
                batteries[i] = apply_action(batteries[i], final, dt_h)
                applied.append(final)
                entry = battery_entry[action.battery_id] + PHASES.index(final.phase)
                p_kw[k, entry] = final.p_kw
                q_kvar[k, entry] = final.q_kvar
        except (PhasebalError, ValueError) as exc:  # an earlier solver failure wins
            pending = exc
            break
        steps.append((t_h, tuple(applied), {b.id: b.soc_kwh for b in batteries}))
    if pending is None and bad_steps.size:
        k = int(bad_steps[0])
        d = int(np.flatnonzero(~finite[k])[0])
        s = complex(dev_p[k, d], dev_q[k, d])
        pending = ValueError(f"injection for {plain[d].label!r} must be finite, got {s!r}")
        del steps[k:]
    n_ok = len(steps)

    # --- 2. power-flow pass --------------------------------------------------
    s_va = np.empty((n_ok, len(node)), dtype=complex)
    s_va.real, s_va.imag = _complex_times_real(p_kw[:n_ok], q_kvar[:n_ok], 1000.0)
    solved = sweep_batch(topo, node, cond, s_va, settings)
    failed_at = min(solved.failures, default=n_ok)

    # --- 3. metrics pass -----------------------------------------------------
    vuf_pct, drop_pct, v_rms = node_metric_arrays(solved.voltages, feeder.v_base_ln)
    if not np.isfinite(vuf_pct[:failed_at]).all():
        raise ZeroPositiveSequence("positive-sequence magnitude is zero")
    if failed_at < n_ok:
        raise ScenarioStepError(failed_at * dt_h, solved.failures[failed_at])
    if pending is not None:
        raise pending

    phase_loss, neutral_loss = segment_losses(solved.currents, *segment_resistances(feeder))
    # the sums below run in the order of FlowSummary's totals and of the
    # per-node phase sums, one step after another
    neutral_kwh = 0.0
    phase_kwh = 0.0
    for step_phase, step_neutral in zip(phase_loss.tolist(), neutral_loss.tolist()):
        neutral_kwh += sum(step_neutral) * dt_h
        phase_kwh += sum(sum(per) for per in step_phase) * dt_h
    drop_sums = [0.0] * len(feeder.nodes)
    for step_drop in drop_pct.tolist():
        for i, per_phase in enumerate(step_drop):
            drop_sums[i] += sum(per_phase)
    vuf_values = vuf_pct[:, 1:].ravel().tolist()  # the source is node row 0

    trajectory = _Trajectory(feeder, solved, vuf_pct, drop_pct, v_rms, phase_loss, neutral_loss)
    return ScenarioResult(
        label=scenario.label,
        mean_vuf_pct=sum(vuf_values) / len(vuf_values) if vuf_values else 0.0,
        max_vuf_pct=max(vuf_values, default=0.0),
        neutral_loss_kwh=neutral_kwh,
        phase_loss_kwh=phase_kwh,
        max_drop_pct=max(0.0, -float(drop_pct.min())),
        max_rise_pct=max(0.0, float(drop_pct.max())),
        sum_drop_at={name: s / n_steps for name, s in zip(feeder.nodes, drop_sums)},
        per_timestep=tuple(
            StepRecord(t_h, actions, soc, trajectory, k)
            for k, (t_h, actions, soc) in enumerate(steps)
        ),
    )


def _flat_profiles(n_steps: int) -> dict[str, tuple[float, ...]]:
    return {"flat": (1.0,) * n_steps}


def _window_profile(n_steps: int, dt_h: float, window: tuple[float, float]) -> tuple[float, ...]:
    return tuple(1.0 if window[0] <= (k * dt_h) % 24.0 < window[1] else 0.0 for k in range(n_steps))


def build_sweep_scenario(
    total_phase_load_kw: float,
    device_node: str,
    kind: DeviceKind,
    penetration_pct: float,
    network_class: str,
    *,
    device_phase: Phase = Phase.A,
    balanced: bool = False,
    horizon_h: float = 24.0,
    dt_h: float = 1.0,
) -> Scenario:
    """Six-node chain with balanced base load plus one DG or EV.

    The base load (``total_phase_load_kw`` per phase) splits equally over
    N1..N5. The added device is sized at ``penetration_pct`` percent of the
    per-phase load per connected phase: on ``device_phase`` only by default,
    or on all three phases with ``balanced=True``. ``network_class`` picks
    the segment length (compact/overload: 0.1 km, sparse: 1.0 km); profiles
    are constant over the horizon.
    """
    if network_class not in NETWORK_CLASS_SEGMENT_KM:
        raise ValueError(f"unknown network class {network_class!r}")
    if kind not in (DeviceKind.DG, DeviceKind.EV):
        raise ValueError(f"sweep device must be DG or EV, got {kind}")
    if not 0 <= penetration_pct <= 200:
        raise ValueError(f"penetration_pct must be in [0, 200], got {penetration_pct}")
    if device_node not in _SWEEP_NODES:
        raise UnknownNode(device_node, "sweep device placement (N1..N5)")

    per_node_kw = total_phase_load_kw / len(_SWEEP_NODES)
    devices = [
        Device(
            label=f"load-{node}",
            node=node,
            kind=DeviceKind.LOAD,
            phase=None,
            s_rated_kva=complex(per_node_kw, 0.0),
            profile_id="flat",
        )
        for node in _SWEEP_NODES
    ]
    if penetration_pct > 0:
        size_kw = penetration_pct / 100.0 * total_phase_load_kw
        sign = -1.0 if kind is DeviceKind.DG else 1.0
        devices.append(
            Device(
                label=f"{kind.value}-{device_node}",
                node=device_node,
                kind=kind,
                phase=None if balanced else device_phase,
                s_rated_kva=complex(sign * size_kw, 0.0),
                profile_id="flat",
            )
        )

    feeder = chain_feeder(
        6, NETWORK_CLASS_SEGMENT_KM[network_class], devices=devices
    )
    n_steps = round(horizon_h / dt_h)
    tag = "balanced" if balanced else f"phase-{device_phase.value}"
    return Scenario(
        feeder=feeder,
        horizon_h=horizon_h,
        dt_h=dt_h,
        profiles=_flat_profiles(n_steps),
        label=f"{network_class}-{kind.value}-{device_node}-{penetration_pct:g}pct-{tag}",
    )


def build_stylized_scenario(
    arch: Architecture | None,
    storage_node: str = "N5",
    battery_kw: float = 3.0,
    controller: str = "fixed_schedule",
    *,
    target_phase: Phase = Phase.A,
    segment_km: float = 0.1,
    horizon_h: float = 24.0,
    dt_h: float = 1.0,
) -> Scenario:
    """Storage showcase scenario on the six-node chain.

    Base load is 2 kW per phase at each of N1..N5. A 10 kW DG on
    ``target_phase`` at N3 runs 10:00-15:00 and a 10 kW EV block on the same
    phase runs 18:00-23:00. With ``arch`` set, storage of ``battery_kw``
    total rating sits at ``storage_node`` (N0: feeder head, N5: feeder end):
    one unit for A1, three units of a third the rating each for A2/A3. The
    unit on the target phase starts empty (it charges first); companion
    units start full (they discharge first).
    """
    if storage_node not in ("N0", "N5"):
        raise UnsupportedNode(storage_node, ("N0", "N5"))
    if arch is not None and not battery_kw > 0:
        raise ValueError("battery_kw must be > 0 when an architecture is present")

    schedule = StylizedScheduleCfg(target_phase=target_phase)
    devices = [
        Device(
            label=f"load-{node}",
            node=node,
            kind=DeviceKind.LOAD,
            phase=None,
            s_rated_kva=complex(2.0, 0.0),
            profile_id="flat",
        )
        for node in _SWEEP_NODES
    ]
    devices.append(
        Device(
            label="pv-N3",
            node="N3",
            kind=DeviceKind.DG,
            phase=target_phase,
            s_rated_kva=complex(-10.0, 0.0),
            profile_id="dg-window",
        )
    )
    devices.append(
        Device(
            label="ev-N3",
            node="N3",
            kind=DeviceKind.EV,
            phase=target_phase,
            s_rated_kva=complex(10.0, 0.0),
            profile_id="ev-window",
        )
    )

    batteries: list[Battery] = []
    if arch is None:
        controller = "none"
        label = "stylized-nostorage"
    elif arch.kind is ArchKind.A1:
        batteries.append(Battery(id="bat-1", p_max_kw=battery_kw, soc_kwh=0.0))
        devices.append(
            Device(
                label="st-1",
                node=storage_node,
                kind=DeviceKind.STORAGE,
                phase=target_phase,
                battery_id="bat-1",
            )
        )
        label = f"stylized-a1-{storage_node.lower()}"
    else:
        unit_kw = battery_kw / 3.0
        for phase in PHASES:
            unit = Battery(id=f"bat-{phase.value.lower()}", p_max_kw=unit_kw, soc_kwh=0.0)
            if phase is not target_phase:
                unit = replace(unit, soc_kwh=unit.e_max_kwh)
            batteries.append(unit)
            devices.append(
                Device(
                    label=f"st-{phase.value.lower()}",
                    node=storage_node,
                    kind=DeviceKind.STORAGE,
                    phase=phase,
                    battery_id=f"bat-{phase.value.lower()}",
                )
            )
        shift = "" if arch.allow_load_shift else "-noshift"
        label = f"stylized-{arch.kind.value.lower()}-{storage_node.lower()}{shift}"

    feeder = chain_feeder(6, segment_km, devices=devices)
    n_steps = round(horizon_h / dt_h)
    profiles = _flat_profiles(n_steps)
    profiles["dg-window"] = _window_profile(n_steps, dt_h, schedule.dg_window)
    profiles["ev-window"] = _window_profile(n_steps, dt_h, schedule.ev_window)
    return Scenario(
        feeder=feeder,
        horizon_h=horizon_h,
        dt_h=dt_h,
        profiles=profiles,
        architecture=arch,
        controller=controller if arch is not None else "none",
        batteries=tuple(batteries),
        schedule=schedule,
        label=label,
    )


@dataclass(frozen=True)
class SweepTemplate:
    """Fixed parameters of a penetration sweep."""

    total_phase_load_kw: float
    network_class: str = "compact"
    device_phase: Phase = Phase.A
    balanced: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One cell of a sweep table; ``error`` is set when the run failed."""

    kind: DeviceKind
    node: str
    penetration_pct: float
    result: ScenarioResult | None
    error: str | None = None


def sweep_and_tabulate(
    template: SweepTemplate,
    penetrations: Sequence[float],
    nodes: Sequence[str],
    kinds: Sequence[DeviceKind],
    settings: SolverSettings = SolverSettings(),
) -> list[SweepRow]:
    """Run the cross product of (kind, node, penetration) and tabulate.

    Rows come back in loop order. A failing cell is recorded with its error
    message instead of aborting the remaining cells.
    """
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
