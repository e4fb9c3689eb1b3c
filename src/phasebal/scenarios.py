"""Scenario builders, the time-stepped simulation, and aggregation.

A scenario couples a feeder with hourly device profiles, an optional storage
fleet and a dispatch controller. ``run_scenario`` makes three passes: a
dispatch pass that fixes every step's injections and the battery SoC
trajectory (no controller reads voltages), one batched power flow, and an
array pass for unbalance and loss metrics and their aggregates over the
horizon. Dispatch is a scan in plain floats over ``(step, unit)`` arrays:
the fixed schedule's requests for all steps at once, then one pass over
the steps that calls the ``storage`` functions for each unit: bounds,
greedy search or zero-sum shift, clip and SoC update. Steps with
byte-equal injections share one operating point, so the power flow and
the metrics run once per distinct row, and each step reads its row
through ``Trajectory.step_row``: the lossless case of vector-quantised
QSTS (Deboever, Grijalva, Reno & Broderick, Solar Energy 159, 2018). The
horizon aggregates still add every step in step order.
``sweep_and_tabulate`` runs all cells of a sweep through the same passes
as one batch on one ``Topology``, with one power flow over the distinct
rows of every cell.

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

import cmath
import math
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
from .metrics import node_metric_arrays
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
    SolverSettings,
    Topology,
    VoltageSolution,
    segment_losses,
    segment_resistances,
    sweep_batch,
)
from .storage import (
    MAX_GREEDY_CELLS,
    Architecture,
    ArchKind,
    Battery,
    DispatchAction,
    StylizedScheduleCfg,
    bounds_at,
    clip_power,
    greedy_cells,
    greedy_powers,
    next_soc,
    schedule_requests,
    zero_sum_shift,
)

#: Segment length (km) per network class; load level is the caller's choice,
#: with 5 kW per phase canonical for compact/sparse and 50 kW for overload.
NETWORK_CLASS_SEGMENT_KM: dict[str, float] = {
    "compact": 0.1,
    "overload": 0.1,
    "sparse": 1.0,
}

CONTROLLERS = ("none", "fixed_schedule", "greedy")

#: Most timesteps a scenario may have, checked before any per-step array is
#: sized; a one-minute year (525,600 steps) fits.
MAX_STEPS = 1_000_000

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
        if not steps <= MAX_STEPS:
            raise ValueError(f"horizon_h / dt_h must be at most {MAX_STEPS} steps, got {steps:g}")
        if abs(steps - round(steps)) > 1e-9 or steps < 1:
            raise ValueError("horizon_h must be a positive multiple of dt_h")
        n = self.n_steps
        for pid, profile in self.profiles.items():
            for i, value in enumerate(profile):
                if not 0 <= value < math.inf:
                    raise ValueError(
                        f"profile {pid!r} entry {i} must be finite and >= 0, got {value!r}"
                    )
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
            # values are >= 0, so a finite product at the largest is finite at
            # all; the solver takes the power in VA
            kva = dev.s_rated_kva
            if not cmath.isfinite(kva * max(profile) * 1000):
                i = next(i for i, v in enumerate(profile) if not cmath.isfinite(kva * v * 1000))
                raise ValueError(
                    f"profile {dev.profile_id!r} entry {i} scales the rating of device "
                    f"{dev.label!r} to a non-finite power"
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
        if self.controller == "greedy" and self.batteries:
            cells = greedy_cells(self.architecture, [b.p_max_kw for b in self.batteries])
            if not cells <= MAX_GREEDY_CELLS:
                big = max(self.batteries, key=lambda b: b.p_max_kw)
                raise ValueError(
                    f"battery {big.id!r}: p_max_kw {big.p_max_kw:g} makes the greedy search "
                    f"build {cells:g} cells, above {MAX_GREEDY_CELLS}"
                )

    @property
    def n_steps(self) -> int:
        return round(self.horizon_h / self.dt_h)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solved arrays of one run, one row per distinct operating point:
    power flow ``(row, node | segment, conductor)`` and the metrics derived
    from it, ``(row, node[, phase])`` for VUF, signed deviation and RMS
    voltage and ``(row, segment[, phase])`` for losses in kW. ``step_row``
    maps each timestep to its row; steps with byte-equal injections share
    one. Node and segment axes follow ``feeder.nodes`` and
    ``feeder.segments``. The cells of a sweep share one set of arrays, so
    rows of other cells sit beside this run's.

    Dispatch is held per step. ``soc_kwh`` is ``(step, battery)`` after
    each step's action, batteries in ``battery_ids`` order. ``p_kw``,
    ``q_kvar``, ``phase`` (index into ``PHASES``) and ``clipped`` are
    ``(step, unit)``: the dispatched units are the batteries in the same
    order, or none when the scenario has no controller. ``clipped`` is
    True where the applied p differs from the controller's request (the
    zero-sum shift of A2 without load shift counts). ``zero_sum_missed``
    is True at the steps where such a fleet's box held no zero-sum point,
    so its dispatch does not sum to zero."""

    feeder: Feeder
    solved: BatchSolution
    vuf_pct: np.ndarray
    drop_pct: np.ndarray
    v_rms: np.ndarray
    phase_loss: np.ndarray
    neutral_loss: np.ndarray
    step_row: np.ndarray
    battery_ids: tuple[str, ...]
    p_kw: np.ndarray
    q_kvar: np.ndarray
    phase: np.ndarray
    soc_kwh: np.ndarray
    clipped: np.ndarray
    zero_sum_missed: np.ndarray


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One timestep of a run, the one per-step view of its trajectory.

    ``actions``, ``soc_kwh`` (by battery id) and ``solution`` are built
    from the trajectory's arrays on every read; hold on to the returned
    objects to read them repeatedly.
    """

    t_h: float
    trajectory: Trajectory = field(repr=False)
    step: int = field(repr=False)

    @property
    def actions(self) -> tuple[DispatchAction, ...]:
        traj, k = self.trajectory, self.step
        rows = traj.phase[k].tolist(), traj.p_kw[k].tolist(), traj.q_kvar[k].tolist()
        return tuple(
            DispatchAction(bid, PHASES[ph], p, q) for bid, ph, p, q in zip(traj.battery_ids, *rows)
        )

    @property
    def soc_kwh(self) -> dict[str, float]:
        traj = self.trajectory
        return dict(zip(traj.battery_ids, traj.soc_kwh[self.step].tolist()))

    @property
    def solution(self) -> VoltageSolution:
        traj = self.trajectory
        return traj.solved.solution(traj.feeder.nodes, int(traj.step_row[self.step]))

    def __repr__(self) -> str:
        return f"StepRecord(t_h={self.t_h!r}, actions={self.actions!r}, soc_kwh={self.soc_kwh!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepRecord):
            return NotImplemented
        return (self.t_h, self.actions, self.soc_kwh, self.solution) == (
            other.t_h, other.actions, other.soc_kwh, other.solution
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Time-aggregated metrics for one scenario run.

    VUF statistics run over all non-source nodes and all timesteps.
    ``max_drop_pct`` / ``max_rise_pct`` are magnitudes (both >= 0) of the
    worst negative / positive line-to-neutral deviation. ``sum_drop_at``
    maps a node to the time-average of its three phase deviations summed.
    ``trajectory`` holds the per-step arrays behind ``per_timestep``.
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
    trajectory: Trajectory = field(repr=False, compare=False)


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


def _dispatch(
    scenario: Scenario, index: dict[str, int]
) -> tuple[list[tuple[int, int]], np.ndarray, dict, Exception | None]:
    """Pass 1 of a run: evaluate profiles, then dispatch storage over all
    steps (``_dispatch_storage``). Neither controller reads voltages, so
    this fixes every step's injections up front.

    Returns the entry layout as ``(node row, conductor)`` pairs, the
    ``(step, entry)`` complex VA of the steps dispatched, their dispatch
    arrays keyed by ``Trajectory`` field, and the error that stopped
    dispatch early (None if every step ran).
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

    units = scenario.batteries if scenario.controller != "none" else ()
    dispatched, pending = _dispatch_storage(scenario, units, plain, dev_p)
    n_ok = len(dispatched["soc_kwh"])
    if units:  # each unit feeds the entry of its dispatched phase; the other two stay 0
        steps = np.arange(n_ok)[:, None]
        cols = np.array([battery_entry[b.id] for b in units], dtype=np.intp) + dispatched["phase"]
        p_kw[steps, cols] = dispatched["p_kw"]
        q_kvar[steps, cols] = dispatched["q_kvar"]
    s_va = np.empty((n_ok, len(node)), dtype=complex)
    s_va.real, s_va.imag = _complex_times_real(p_kw[:n_ok], q_kvar[:n_ok], 1000.0)
    return list(zip(node.tolist(), cond.tolist())), s_va, dispatched, pending


def _dispatch_storage(
    scenario: Scenario, units: Sequence[Battery], plain: list[Device], dev_p: np.ndarray
) -> tuple[dict, Exception | None]:
    """The storage half of the dispatch pass, in plain floats. ``units``
    are the batteries the controller dispatches, or none.

    The fixed schedule's requests come as one ``(step, unit)`` array
    (``schedule_requests``); the greedy search makes its requests step by
    step from every unit's bounds. One scan then steps through time, and
    at each step reads each unit's bounds at its SoC, shifts the requests
    of A2 without load shift to a zero sum (``zero_sum_shift``), clips and
    updates the SoC, unit after unit.

    Returns the ``Trajectory`` dispatch arrays of the steps that ran, keyed
    by field, and the error that stopped dispatch early (None if every
    step ran).
    """
    n_steps, dt_h, arch = scenario.n_steps, scenario.dt_h, scenario.architecture
    soc = [b.soc_kwh for b in scenario.batteries]
    if not units:  # no actions, and the SoC stays where it starts
        none = np.zeros((n_steps, 0))
        soc_kwh = np.array([soc], dtype=float).repeat(n_steps, axis=0)
        return _dispatch_fields(scenario, none.astype(np.intp), none, none, none, soc_kwh), None
    greedy = scenario.controller == "greedy"
    zero_sum = arch.kind is ArchKind.A2 and not arch.allow_load_shift
    if greedy:
        net = np.zeros((n_steps, 3))  # each phase adds its devices in feeder order
        for d, dev in enumerate(plain):
            for ph in dev.connected_phases:
                net[:, PHASES.index(ph)] += dev_p[:, d]
        net_rows, phase_rows, want_rows = net.tolist(), [], []
    else:
        phases, want = schedule_requests(
            np.arange(n_steps) * dt_h,
            arch,
            scenario.schedule or StylizedScheduleCfg(),
            [b.p_max_kw for b in units],
        )
        want_rows = want.tolist()

    pending, steps = None, []
    try:
        for k in range(n_steps):
            bounds = [bounds_at(b, e, dt_h) for b, e in zip(units, soc)]
            if greedy:
                phase_k, want_k = zip(*greedy_powers(net_rows[k], arch, bounds))
                phase_rows.append(phase_k)
                want_rows.append(want_k)
            elif zero_sum:
                want_k = zero_sum_shift(want_rows[k], *zip(*bounds))
            else:
                want_k = want_rows[k]
            step = []
            for i, (bat, (lo, hi), p) in enumerate(zip(units, bounds, want_k)):
                p, q = clip_power(bat, p, 0.0, lo, hi)
                soc[i] = e = next_soc(bat, soc[i], p, q, dt_h)
                step += p, q, e
            steps.append(step)
    except (PhasebalError, ValueError) as exc:
        pending = exc
    n_ok = len(steps)
    p, q, soc_kwh = np.array(steps, dtype=float).reshape(n_ok, len(units), 3).transpose(2, 0, 1)
    if greedy:
        phase, want = np.array(phase_rows[:n_ok], dtype=np.intp), np.array(want_rows[:n_ok])
    else:
        phase = np.tile(np.array([PHASES.index(ph) for ph in phases], dtype=np.intp), (n_ok, 1))
    shape = (n_ok, len(units))  # the arrays of a greedy run stopped at step 0 are flat
    fields = _dispatch_fields(
        scenario, phase.reshape(shape), want[:n_ok].reshape(shape), p, q, soc_kwh
    )
    if zero_sum:  # the box held no zero-sum point, so zero_sum_shift missed zero
        fields["zero_sum_missed"] = np.abs(_fold_sum(p)) > 1e-9
    return fields, pending


def _dispatch_fields(scenario: Scenario, phase, want, p_kw, q_kvar, soc_kwh) -> dict:
    """The ``Trajectory`` dispatch fields from ``(step, unit)`` phase,
    requested and applied powers and ``(step, battery)`` SoC."""
    return {
        "battery_ids": tuple(b.id for b in scenario.batteries),
        "p_kw": p_kw,
        "q_kvar": q_kvar,
        "phase": phase,
        "soc_kwh": soc_kwh,
        "clipped": p_kw != want,
        "zero_sum_missed": np.zeros(len(p_kw), dtype=bool),
    }


def _union_layout(
    layouts: Sequence[list[tuple[int, int]]],
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """One entry layout holding every ``(node row, conductor)`` layout as a
    subsequence, and the columns each layout takes in it.

    Entries add into a node's sinks in layout order, so each layout keeps
    its own order. A column a layout does not use carries 0 VA, which the
    solver treats as no device: it adds +0.0 to an accumulator that starts
    at +0.0 and so never holds -0.0, which leaves every sum bit-identical.
    """
    union: list[tuple[int, int]] = []
    for layout in dict.fromkeys(map(tuple, layouts)):
        merged, i = [], 0
        for key in layout:
            try:
                j = union.index(key, i)
            except ValueError:
                merged.append(key)
                continue
            merged.extend(union[i : j + 1])
            i = j + 1
        union = merged + union[i:]
    columns = []
    for layout in layouts:
        cols = [-1]
        for key in layout:
            cols.append(union.index(key, cols[-1] + 1))
        columns.append(cols[1:])
    return union, columns


def _distinct_rows(s_va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``s_va`` in order of first appearance, compared
    by their bytes (so -0.0 and 0.0 differ), and the row each input row
    maps to."""
    if s_va.shape[1] == 0:
        keys = np.zeros(len(s_va), dtype="V1")
    else:
        keys = np.ascontiguousarray(s_va).view(np.dtype((np.void, s_va.itemsize * s_va.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return s_va[first[order]], rank[inverse]


def _fold_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The builtin ``sum`` along ``axis``, bit for bit: a left fold from
    0.0 (``np.sum`` adds pairwise and differs in the last bits)."""
    x = np.moveaxis(x, axis, -1)
    lanes = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)
    return np.add.accumulate(lanes, axis=-1)[..., -1]


def _run_batch(
    scenarios: Sequence[Scenario], settings: SolverSettings
) -> list[ScenarioResult | Exception]:
    """Run scenarios that share one network (nodes and segments), step
    count and step length, with one power flow for all of them.

    1. Dispatch each scenario (``_dispatch``).
    2. Lay every scenario's ``(step, entry)`` injections out in one union
       layout (``_union_layout``), reduce the stacked rows to the distinct
       ones and solve those in one ``sweep_batch``. Rows of a batch do not
       interact, so a row's solution and iteration count are those of a
       solve on its own.
    3. Node metrics and segment losses once over the distinct rows; each
       scenario gathers its steps back through its row index, and the
       horizon aggregates fold over every step in step order, all
       scenarios at once.

    Returns a ScenarioResult or the error of each scenario, as a
    step-by-step loop would raise it: the earliest failing step wins, a
    solver failure as a ScenarioStepError tagged with its time, anything
    else as raised.
    """
    first = scenarios[0]
    topo = Topology(first.feeder)
    layouts, blocks, dispatched, pending = zip(*(_dispatch(sc, topo.index) for sc in scenarios))
    union, columns = _union_layout(layouts)
    bounds = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    s_va = np.zeros((bounds[-1], len(union)), dtype=complex)
    for block, cols, lo, hi in zip(blocks, columns, bounds, bounds[1:]):
        s_va[lo:hi, cols] = block
    distinct, row = _distinct_rows(s_va)
    node, cond = np.array(union, dtype=np.intp).reshape(-1, 2).T
    solved = sweep_batch(topo, node, cond, distinct, settings)
    vuf_pct, drop_pct, v_rms = node_metric_arrays(solved.voltages, first.feeder.v_base_ln)
    phase_loss, neutral_loss = segment_losses(solved.currents, *segment_resistances(first.feeder))

    # --- errors: the earliest step on a failing or undefined row ------------
    failed = np.zeros(len(distinct), dtype=bool)
    failed[list(solved.failures)] = True
    finite = np.isfinite(vuf_pct).all(axis=1)
    outcomes: list[ScenarioResult | Exception | None] = []
    for sc, stopped, lo, hi in zip(scenarios, pending, bounds, bounds[1:]):
        rows = row[lo:hi]
        bad = failed[rows]
        failed_at = int(bad.argmax()) if bad.any() else len(rows)
        if not finite[rows[:failed_at]].all():
            outcomes.append(ZeroPositiveSequence("positive-sequence magnitude is zero"))
        elif failed_at < len(rows):
            outcomes.append(ScenarioStepError(failed_at * sc.dt_h, solved.failures[rows[failed_at]]))
        else:
            outcomes.append(stopped)
    ok = [c for c, outcome in enumerate(outcomes) if outcome is None]
    if not ok:
        return outcomes

    # --- horizon aggregates, (scenario, step) gathered from per-row values --
    # each step adds losses segment by segment (phases A, B, C within one) and
    # deviations phase by phase, as the builtin sum does; then the steps add
    n_steps, dt_h = first.n_steps, first.dt_h
    step_row = np.stack([row[bounds[c] : bounds[c + 1]] for c in ok])
    neutral_kwh = _fold_sum(_fold_sum(neutral_loss)[step_row] * dt_h).tolist()
    phase_kwh = _fold_sum(_fold_sum(_fold_sum(phase_loss))[step_row] * dt_h).tolist()
    drop_sums = _fold_sum(_fold_sum(drop_pct)[step_row], axis=1) / n_steps
    vuf_values = vuf_pct[step_row][..., 1:].reshape(len(ok), -1)  # the source is node row 0
    mean_vuf = (_fold_sum(vuf_values) / max(vuf_values.shape[1], 1)).tolist()  # 0.0 if none
    max_vuf = vuf_values.max(axis=1, initial=0.0).tolist()
    drop_min = drop_pct.min(axis=(1, 2))[step_row].min(axis=1).tolist()
    drop_max = drop_pct.max(axis=(1, 2))[step_row].max(axis=1).tolist()
    times = [k * dt_h for k in range(n_steps)]
    for i, c in enumerate(ok):
        sc = scenarios[c]
        trajectory = Trajectory(
            sc.feeder, solved, vuf_pct, drop_pct, v_rms, phase_loss, neutral_loss, step_row[i],
            **dispatched[c],
        )
        outcomes[c] = ScenarioResult(
            label=sc.label,
            mean_vuf_pct=mean_vuf[i],
            max_vuf_pct=max_vuf[i],
            neutral_loss_kwh=neutral_kwh[i],
            phase_loss_kwh=phase_kwh[i],
            max_drop_pct=max(0.0, -drop_min[i]),
            max_rise_pct=max(0.0, drop_max[i]),
            sum_drop_at=dict(zip(sc.feeder.nodes, drop_sums[i].tolist())),
            per_timestep=tuple(
                StepRecord(t_h, trajectory, k) for k, t_h in enumerate(times)
            ),
            trajectory=trajectory,
        )
    return outcomes


def run_scenario(scenario: Scenario, settings: SolverSettings = SolverSettings()) -> ScenarioResult:
    """Execute the scenario in three passes and aggregate the results.

    1. Dispatch: step through time, evaluate profiles, ask the controller
       for actions, clip and apply them to the batteries.
    2. Power flow: one forward-backward sweep over the distinct operating
       points of all steps at once.
    3. Metrics: VUF, deviations, losses and the aggregates, as arrays.

    Failures surface as a step-by-step loop would raise them: the earliest
    failing step wins, a solver failure as a ScenarioStepError tagged with
    its time, anything else as raised. Deterministic: identical scenarios
    produce identical results.
    """
    [outcome] = _run_batch([scenario], settings)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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

    Every cell shares the six-node chain, so the cells run as one batch:
    one power flow over the distinct operating points of all of them.
    Rows come back in (kind, node, penetration) loop order. A failing cell
    is recorded with its error message instead of aborting the others.
    """
    if not penetrations or not nodes or not kinds:
        raise ValueError("penetrations, nodes and kinds must be non-empty")
    cells = [(kind, node, pen) for kind in kinds for node in nodes for pen in penetrations]
    scenarios = [
        build_sweep_scenario(
            template.total_phase_load_kw,
            node,
            kind,
            pen,
            template.network_class,
            device_phase=template.device_phase,
            balanced=template.balanced,
        )
        for kind, node, pen in cells
    ]
    rows = []
    for (kind, node, pen), outcome in zip(cells, _run_batch(scenarios, settings)):
        if isinstance(outcome, ScenarioResult):
            rows.append(SweepRow(kind, node, pen, outcome))
        elif isinstance(outcome, PhasebalError):
            rows.append(SweepRow(kind, node, pen, None, error=str(outcome)))
        else:
            raise outcome
    return rows
