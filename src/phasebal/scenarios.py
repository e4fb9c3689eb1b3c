"""Scenario builders, the time-stepped simulation, and aggregation.

A scenario couples a feeder with hourly device profiles, an optional storage
fleet and a dispatch controller. ``run_scenario`` makes three passes: a
dispatch pass that fixes every step's injections and the battery SoC
trajectory (no controller reads voltages), one batched power flow, and an
array pass for unbalance and loss metrics and their aggregates over the
horizon. Dispatch is a scan in plain floats over ``(step, unit)`` arrays:
the fixed schedule's requests for all steps at once, then one pass over
the steps that calls the ``storage`` functions for each unit: bounds,
greedy search or zero-sum shift, clip and SoC update, once for each
distinct (SoC, input row) state the steps meet. Steps with
byte-equal injections share one operating point, so the power flow and
the metrics run once per distinct row, and each step reads its row
through ``ScenarioResult.step_row``: the lossless case of vector-quantised
QSTS (Deboever, Grijalva, Reno & Broderick, Solar Energy 159, 2018).
Dispatch quantises before the injections exist: each step is keyed on the
bytes of its profile values and, with a dispatched fleet, of its applied
``(p, q, phase)`` row, and the injections are built only at the first step
of each key. The horizon aggregates still add every step in step order,
and ``ScenarioResult.per_timestep`` makes each step's ``StepRecord`` only
when it is read.
A batch is one scenario plus constant cell columns: extra entry keys after
the scenario's entries, and each cell's constant VA in them. A run has no
keys and one cell; ``sweep_and_tabulate`` builds the loaded chain of a
sweep once and gives each cell its DG or EV as the VA of its node's
columns. The cells share the scenario's dispatch, step keys and entry
layout, and one power flow covers the distinct rows of every cell. A
batch's outcome is arrays (``_Batch``): one
``Trajectory``, and per cell its summary values, summed drops, ``step_row``
and error. A cell's ``ScenarioResult`` is made from them when it is read,
and a sweep's ``SweepTable`` makes each row so.

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
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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

#: Device kinds a sweep cell may add, and the stylized scenario's storage nodes.
SWEEP_KINDS = (DeviceKind.DG, DeviceKind.EV)
STORAGE_NODES = ("N0", "N5")

#: Most timesteps a scenario may have, checked before any per-step array is
#: sized; a one-minute year (525,600 steps) fits.
MAX_STEPS = 1_000_000

_SWEEP_NODES = ("N1", "N2", "N3", "N4", "N5")


def _step_count(horizon_h: float, dt_h: float) -> int:
    """The steps of ``horizon_h`` at ``dt_h``, checked before anything is sized from them."""
    if not dt_h > 0:
        raise ValueError(f"dt_h must be > 0, got {dt_h!r}")
    steps = horizon_h / dt_h
    if not steps <= MAX_STEPS:
        raise ValueError(f"horizon_h / dt_h must be at most {MAX_STEPS} steps, got {steps:g}")
    if steps < 1 or abs(steps - round(steps)) > 1e-9:
        raise ValueError("horizon_h must be a positive multiple of dt_h")
    return round(steps)

#: Row of each phase in a node's conductor 4-vector (the neutral is 3).
_PHASE_ROW = {ph: c for c, ph in enumerate(PHASES)}


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
        n, peaks = _step_count(self.horizon_h, self.dt_h), {}
        for pid, profile in self.profiles.items():
            for i, value in enumerate(profile):
                if not 0 <= value < math.inf:
                    raise ValueError(
                        f"profile {pid!r} entry {i} must be finite and >= 0, got {value!r}"
                    )
            peaks[pid] = max(profile, default=0.0)
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
            if not cmath.isfinite(kva * peaks[dev.profile_id] * 1000):
                i = next(i for i, v in enumerate(profile) if not cmath.isfinite(kva * v * 1000))
                raise ValueError(
                    f"profile {dev.profile_id!r} entry {i} scales the rating of device "
                    f"{dev.label!r} to a non-finite power"
                )
        battery_ids = {b.id for b in self.batteries}
        if len(battery_ids) != len(self.batteries):
            raise ValueError("duplicate battery ids")
        attached: dict[str, Device] = {}  # battery id -> its storage device
        for dev in self.feeder.storage_devices():
            if dev.battery_id in attached:
                raise ValueError(
                    f"battery {dev.battery_id!r} is attached to more than one storage device"
                )
            attached[dev.battery_id] = dev
        if battery_ids != attached.keys():
            raise ValueError(
                f"batteries {sorted(battery_ids)} do not match storage devices {sorted(attached)}"
            )
        if self.architecture is not None and len(self.batteries) != self.architecture.n_batteries:
            raise ValueError(
                f"{self.architecture.kind.value} needs {self.architecture.n_batteries} batteries"
            )
        if self.controller != "none" and self.batteries and self.architecture is None:
            raise ValueError("a storage controller needs an architecture")
        if self.controller != "none" and getattr(self.architecture, "kind", None) is ArchKind.A2:
            # A2 dispatches unit i on PHASES[i], whatever its device says
            for bat, phase in zip(self.batteries, PHASES):
                dev = attached[bat.id]
                if dev.phase not in (None, phase):
                    raise ValueError(
                        f"A2 battery {bat.id!r} dispatches on phase {phase.value}, but its "
                        f"storage device {dev.label!r} is on phase {dev.phase.value}"
                    )
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
    """Solved arrays of one batch, one row per distinct operating point:
    power flow ``(row, node | segment, conductor)`` and the metrics derived
    from it, ``(row, node[, phase])`` for VUF, signed deviation and RMS
    voltage and ``(row, segment[, phase])`` for losses in kW. Each result
    maps its timesteps to rows through its own ``step_row``; steps with
    byte-equal injections share one. Node and segment axes follow
    ``topology``, the feeder's index. Every cell of a batch (a run is one)
    shares this one object, so rows of other cells sit beside a run's.

    Dispatch is held per step, every cell alike; step k starts at
    ``k * dt_h`` hours. ``soc_kwh`` is ``(step, battery)`` after each
    step's action, batteries in ``battery_ids`` order, and
    ``battery_node`` the node row of each battery's storage device in the
    same order. ``p_kw``,
    ``q_kvar``, ``phase`` (index into ``PHASES``) and ``clipped`` are
    ``(step, unit)``: the dispatched units are the batteries in the same
    order, or none when the scenario has no controller. ``clipped`` is
    True where the applied p differs from the controller's request (the
    zero-sum shift of A2 without load shift counts). ``zero_sum_missed``
    is True at the steps where such a fleet's box held no zero-sum point,
    so its dispatch does not sum to zero. ``dispatch_states`` counts the
    distinct (SoC, input row) states of the run's steps, each of which the
    dispatch scan evaluated once; the other ``n_steps - dispatch_states``
    steps reused a stored state, or repeated a scanned step once the days
    cycled. It is 0 when no fleet is dispatched."""

    topology: Topology
    solved: BatchSolution
    vuf_pct: np.ndarray
    drop_pct: np.ndarray
    v_rms: np.ndarray
    phase_loss: np.ndarray
    neutral_loss: np.ndarray
    dt_h: float
    battery_ids: tuple[str, ...]
    battery_node: np.ndarray
    p_kw: np.ndarray
    q_kvar: np.ndarray
    phase: np.ndarray
    soc_kwh: np.ndarray
    clipped: np.ndarray
    zero_sum_missed: np.ndarray
    dispatch_states: int


@dataclass(frozen=True, eq=False, repr=False)
class StepRecord:
    """One timestep of a run, read from its trajectory: ``actions``,
    ``soc_kwh`` (by battery id) and ``solution`` are built from the arrays
    on every read; hold on to the returned objects to read them
    repeatedly."""

    t_h: float
    trajectory: Trajectory
    step: int
    row: int

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
        return self.trajectory.solved.solution(self.trajectory.topology.nodes, self.row)


class _StepRecords(Sequence):
    """The ``StepRecord`` of every step of a run, each made when it is
    read: ``len``, indices (negative too) and iteration."""

    __slots__ = ("_trajectory", "_step_row")

    def __init__(self, trajectory: Trajectory, step_row: np.ndarray) -> None:
        self._trajectory, self._step_row = trajectory, step_row

    def __len__(self) -> int:
        return len(self._step_row)

    def __getitem__(self, k: int) -> StepRecord:
        k = range(len(self))[operator.index(k)]  # bounds and negative indices as a tuple's
        return StepRecord(k * self._trajectory.dt_h, self._trajectory, k, int(self._step_row[k]))


@dataclass(frozen=True)
class ScenarioResult:
    """Time-aggregated metrics for one scenario run.

    VUF statistics run over all non-source nodes and all timesteps.
    ``max_drop_pct`` / ``max_rise_pct`` are magnitudes (both >= 0) of the
    worst negative / positive line-to-neutral deviation. ``sum_drop_at``
    maps a node to the time-average of its three phase deviations summed.
    ``==`` and ``repr`` cover the label and these aggregates. ``trajectory``
    holds the arrays of the batch the run was solved in, shared by every
    cell of a sweep, and ``step_row`` the row of each timestep;
    ``per_timestep`` makes each step's ``StepRecord`` from them when it is
    read (``len``, indices and iteration).
    """

    label: str
    mean_vuf_pct: float
    max_vuf_pct: float
    neutral_loss_kwh: float
    phase_loss_kwh: float
    max_drop_pct: float
    max_rise_pct: float
    sum_drop_at: dict[str, float]
    trajectory: Trajectory = field(repr=False, compare=False)
    step_row: np.ndarray = field(repr=False, compare=False)

    @property
    def per_timestep(self) -> Sequence[StepRecord]:
        return _StepRecords(self.trajectory, self.step_row)


#: The aggregates of a run, in ``ScenarioResult`` field order.
SUMMARY_FIELDS = (
    "mean_vuf_pct",
    "max_vuf_pct",
    "neutral_loss_kwh",
    "phase_loss_kwh",
    "max_drop_pct",
    "max_rise_pct",
)


class _Batch(NamedTuple):
    """The outcome of every cell of a batch (``_run_batch``): the shared
    ``trajectory``; ``summary`` ``(cell, 6)``, the ``SUMMARY_FIELDS`` values,
    and ``sum_drop`` ``(cell, node)``, each node's time-average of its three
    phase deviations summed, both NaN at a failing cell; ``step_row``
    ``(cell, step)``, the row of each step; and ``errors``, the error of
    each failing cell by cell, in cell order."""

    trajectory: Trajectory
    summary: np.ndarray
    sum_drop: np.ndarray
    step_row: np.ndarray
    errors: dict[int, Exception]


def _cell_result(cells: _Batch | SweepTable, c: int, label: str) -> ScenarioResult:
    """The ScenarioResult of cell ``c`` of a batch or sweep under ``label``,
    made from the columns."""
    sum_drop_at = dict(zip(cells.trajectory.topology.nodes, cells.sum_drop[c].tolist()))
    return ScenarioResult(
        label, *cells.summary[c].tolist(), sum_drop_at, cells.trajectory, cells.step_row[c]
    )


def _complex_times_real(re: np.ndarray, im: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """Python's complex * float, (re + j im) * f, component by component."""
    return re * f - im * 0.0, re * 0.0 + im * f


def _va(p_kw: np.ndarray, q_kvar: np.ndarray) -> np.ndarray:
    """Complex VA of kW and kvar arrays, as ``complex(p, q) * 1000``."""
    s_va = np.empty(p_kw.shape, dtype=complex)
    s_va.real, s_va.imag = _complex_times_real(p_kw, q_kvar, 1000.0)
    return s_va


def _dispatch(
    scenario: Scenario, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict, Exception | None]:
    """Pass 1 of a run: lay out the injection entries, dispatch storage
    over all steps (``_dispatch_storage``) and build the injections of the
    steps that can differ. Neither controller reads voltages, so this
    fixes every step's injections up front.

    A device takes one entry per connected phase, keyed ``node row * 4 +
    conductor``, in the order the devices sit on the feeder. A storage
    device takes three (A, B, C): the phase its battery is dispatched on
    carries the power and the other two stay zero, so phase-selecting
    units need no second layout.

    A step's injections follow from its key: its byte-distinct row of
    profile values, one column per profile id the devices read, and for a
    dispatched fleet also its applied ``(p, q, phase)`` row. Bytes keep a
    -0.0 profile value apart from 0.0. Steps of one key have byte-equal
    injections, so the ``(row, entry)`` complex VA is built only at the
    first step of each key, its candidate row.

    Returns the entry layout as flat keys, the candidate rows, the
    candidate row of each step dispatched, the dispatch arrays keyed by
    ``Trajectory`` field, and the error that stopped dispatch early (None
    if every step ran).
    """
    n_steps = scenario.n_steps
    units = scenario.batteries if scenario.controller != "none" else ()
    greedy = bool(units) and scenario.controller == "greedy"

    # one pass over the devices: the node row and phase (3: all three) of
    # each, the rating and profile column of each device column (storage
    # has none) and the device of each battery
    profile_col: dict[str | None, int] = {}
    node_row, phase, has_col, rated, dev_profile, battery_dev = [], [], [], [], [], {}
    for d in scenario.feeder.devices:
        node_row.append(index[d.node])
        if d.kind is DeviceKind.STORAGE:
            battery_dev[d.battery_id] = len(phase)
            phase.append(3)
            has_col.append(False)
        else:
            phase.append(3 if d.phase is None else _PHASE_ROW[d.phase])
            has_col.append(True)
            rated.append(d.s_rated_kva)
            dev_profile.append(profile_col.setdefault(d.profile_id, len(profile_col)))
    rated = np.array(rated, dtype=complex)
    # the entries of each device, in device order; storage reads the zero column
    phase, has_col = np.array(phase, dtype=np.intp), np.array(has_col, dtype=bool)
    width = np.where(phase == 3, 3, 1)
    start = np.cumsum(width) - width
    owner = np.repeat(np.arange(len(phase)), width)
    cond = np.where(width[owner] == 3, np.arange(len(owner)) - start[owner], phase[owner])
    layout = np.array(node_row, dtype=np.intp)[owner] * 4 + cond
    zero = len(rated)
    col = np.where(has_col, np.cumsum(has_col) - 1, zero)[owner]

    profiles = [scenario.profiles[pid] if pid else (1.0,) * n_steps for pid in profile_col]
    scale = np.array(profiles, dtype=float).reshape(len(profiles), n_steps).T
    dev_profile = np.array(dev_profile, dtype=np.intp)

    if units:
        net = None
        if greedy:  # each phase adds its devices in feeder order
            p_kw = _complex_times_real(rated.real, rated.imag, scale[:, dev_profile])[0]
            net = np.zeros((n_steps, 3))
            placed = col < zero
            for c, k in zip(cond[placed].tolist(), col[placed].tolist()):
                net[:, c] += p_kw[:, k]
        fields, stopped = _dispatch_storage(scenario, units, net)
        n_ok = len(fields["soc_kwh"])
        step_key = np.concatenate(
            [scale[:n_ok], fields["p_kw"], fields["q_kvar"], fields["phase"]], axis=1
        )
    else:
        fields, stopped, step_key = _idle_fields(scenario), None, scale
    first, step_key = _distinct_rows(step_key)

    # VA per (candidate row, device column), then gathered into the entries:
    # element-wise arithmetic gives the same bits before or after a gather
    va = np.zeros((len(first), zero + 1), dtype=complex)  # the zero column carries 0 VA
    va[:, :zero] = _va(*_complex_times_real(rated.real, rated.imag, scale[first][:, dev_profile]))
    candidates = va[:, col]
    if units:  # each unit feeds the entry of its dispatched phase; the other two stay 0
        cols = start[[battery_dev[b.id] for b in units]] + fields["phase"][first]
        rows = np.arange(len(first))[:, None]
        candidates[rows, cols] = _va(fields["p_kw"][first], fields["q_kvar"][first])
    return layout, candidates, step_key, fields, stopped


def _dispatch_storage(
    scenario: Scenario, units: Sequence[Battery], net: np.ndarray | None
) -> tuple[dict, Exception | None]:
    """The storage half of the dispatch pass, in plain floats. ``units``
    are the batteries the controller dispatches, at least one.

    The fixed schedule's requests come as one ``(step, unit)`` array
    (``schedule_requests``); the greedy search makes its requests step by
    step from every unit's bounds and ``net``, the ``(step, phase)`` kW of
    the scenario's devices. One scan then steps through time, and at each
    step reads each unit's bounds at its SoC, shifts the requests of A2
    without load shift to a zero sum (``zero_sum_shift``), clips and
    updates the SoC, unit after unit.

    A step's outcome depends only on the SoC going in and the step's input
    row: the request row for the fixed schedule, the net phase-power row
    for the greedy search. So the scan keeps a memo keyed on the bytes of
    both (the SoC packed as doubles, the input row as stored), and
    evaluates each distinct state once; a clock schedule meets the same
    states day after day. Bytes keep 0.0 and -0.0 apart, which a key of
    floats would merge. A step enters the memo only once it has completed,
    so a failing step raises as it would without the memo.

    When the inputs repeat day after day, ``round(24 / dt_h)`` steps
    apart byte for byte (``_repeats_after``), the scan also keeps the SoC
    bytes at each day start, and stops at the first day start k whose SoC
    is that of an earlier day start j: from there every step meets the
    state of the step ``k - j`` before it, so steps k onward tile steps j
    to k - 1. Only completed steps are tiled, and no state is new after
    k, so the steps, the error and the states counted are the full scan's.

    Returns the ``Trajectory`` dispatch arrays of the steps that ran, keyed
    by field, and the error that stopped dispatch early (None if every
    step ran).
    """
    n_steps, dt_h, arch = scenario.n_steps, scenario.dt_h, scenario.architecture
    soc = [b.soc_kwh for b in scenario.batteries]
    greedy = scenario.controller == "greedy"
    zero_sum = arch.kind is ArchKind.A2 and not arch.allow_load_shift
    if greedy:
        inputs = net
    else:
        phases, inputs = schedule_requests(
            np.arange(n_steps) * dt_h,
            arch,
            scenario.schedule or StylizedScheduleCfg(),
            [b.p_max_kw for b in units],
        )
    pack = struct.Struct(f"{len(units)}d").pack
    memo: dict[tuple[bytes, bytes], tuple] = {}
    day = round(24.0 / dt_h)
    daily = 0 < day < n_steps and _repeats_after(inputs, day)
    day_start: dict[bytes, int] = {}  # SoC bytes -> the first day start at it

    pending, steps, cycle = None, [], None
    try:
        for k in range(n_steps):
            held = pack(*soc)
            if daily and k % day == 0 and day_start.setdefault(held, k) != k:
                cycle = day_start[held]
                break
            key = held, _row_bytes(inputs, k)
            done = memo.get(key)
            if done is None:
                bounds = [bounds_at(b, e, dt_h) for b, e in zip(units, soc)]
                row, phase_k = inputs[k].tolist(), None
                if greedy:  # greedy_powers adds to its net row, a fresh list here
                    phase_k, want_k = zip(*greedy_powers(row, arch, bounds))
                elif zero_sum:
                    want_k = zero_sum_shift(row, *zip(*bounds))
                else:
                    want_k = row
                step = []
                for bat, (lo, hi), p, e in zip(units, bounds, want_k, soc):
                    p, q = clip_power(bat, p, 0.0, lo, hi)
                    step += p, q, next_soc(bat, e, p, q, dt_h)
                done = memo[key] = step, phase_k, want_k
            steps.append(done)
            soc = done[0][2::3]
    except (PhasebalError, ValueError) as exc:
        pending = exc
    n_ok = len(steps) if cycle is None else n_steps
    at = np.arange(n_ok)  # the scanned step each step repeats
    if cycle is not None:
        at[len(steps) :] = cycle + np.arange(n_steps - len(steps)) % (len(steps) - cycle)
    shape = (n_ok, len(units))  # the arrays of a greedy run stopped at step 0 are flat
    scanned = np.array([step for step, _, _ in steps], dtype=float)
    p, q, soc_kwh = scanned.reshape(len(steps), len(units), 3)[at].transpose(2, 0, 1)
    if greedy:
        phase = np.array([phase_k for _, phase_k, _ in steps], dtype=np.intp)[at]
        want = np.array([want_k for _, _, want_k in steps])[at]
    else:
        phase = np.tile(np.array([_PHASE_ROW[ph] for ph in phases], dtype=np.intp), (n_ok, 1))
        want = inputs[:n_ok]
    fields = _dispatch_fields(
        scenario, phase.reshape(shape), want.reshape(shape), p, q, soc_kwh, len(memo)
    )
    if zero_sum:  # the box held no zero-sum point, so zero_sum_shift missed zero
        fields["zero_sum_missed"] = np.abs(_fold_sum(p)) > 1e-9
    return fields, pending


def _idle_fields(scenario: Scenario) -> dict:
    """The ``Trajectory`` dispatch fields of a scenario whose batteries (if
    any) no controller dispatches: no actions, and the SoC stays where it
    starts."""
    n_steps = scenario.n_steps
    none = np.zeros((n_steps, 0))
    soc_kwh = np.array([[b.soc_kwh for b in scenario.batteries]], dtype=float).repeat(n_steps, 0)
    return _dispatch_fields(scenario, none.astype(np.intp), none, none, none, soc_kwh, 0)


def _dispatch_fields(scenario: Scenario, phase, want, p_kw, q_kvar, soc_kwh, states) -> dict:
    """The ``Trajectory`` dispatch fields from ``(step, unit)`` phase,
    requested and applied powers, ``(step, battery)`` SoC and the number
    of dispatch states evaluated."""
    return {
        "battery_ids": tuple(b.id for b in scenario.batteries),
        "p_kw": p_kw,
        "q_kvar": q_kvar,
        "phase": phase,
        "soc_kwh": soc_kwh,
        "clipped": p_kw != want,
        "zero_sum_missed": np.zeros(len(p_kw), dtype=bool),
        "dispatch_states": states,
    }


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of a 2-d array, in order of first
    appearance, compared by their bytes (so -0.0 and 0.0 differ), and the
    distinct row each row maps to. A dict keyed on each row's bytes finds
    them without a sort."""
    data, width = np.ascontiguousarray(rows).tobytes(), rows.itemsize * rows.shape[1]
    first_at: dict[bytes, int] = {}
    at = [first_at.setdefault(data[k * width : (k + 1) * width], k) for k in range(len(rows))]
    first = np.array(list(first_at.values()), dtype=np.intp)
    rank = np.zeros(len(rows), dtype=np.intp)
    rank[first] = np.arange(len(first))
    return first, rank[at]


def _repeats_after(rows: np.ndarray, period: int) -> bool:
    """Whether each row of a 2-d float array equals the row ``period``
    before it, byte for byte: compared as 64-bit words, -0.0 differs from
    0.0 (and a NaN equals its own bytes)."""
    words = np.ascontiguousarray(rows).view(np.uint64)
    return np.array_equal(words[period:], words[:-period])


def _row_bytes(rows: np.ndarray, k: int) -> bytes:
    """The bytes of row ``k``: the input half of a dispatch memo key."""
    return rows[k].tobytes()


def _fold_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The builtin ``sum`` along ``axis``, bit for bit: a left fold from
    0.0 (``np.sum`` adds pairwise and differs in the last bits). The fold
    runs along the first axis, so each step adds one slice of all lanes."""
    x = np.moveaxis(x, axis, 0)
    lanes = np.concatenate([np.zeros((1,) + x.shape[1:]), x])
    return np.add.accumulate(lanes, axis=0)[-1]


def _run_batch(
    scenario: Scenario, settings: SolverSettings, keys=np.zeros(0, int), cell_va=np.zeros((1, 0))
) -> _Batch:
    """Run the cells of one scenario with one power flow for all of them:
    extra entry ``keys`` after the scenario's, and each cell's constant VA
    in them, ``cell_va`` ``(cell, len(keys))``. A run has no keys and one
    cell; a sweep is the loaded chain with one DG or EV per cell. A greedy
    fleet's search would read the cells' devices, so it takes no keys.

    1. Dispatch (``_dispatch``), which gives the candidate rows, the
       injections at the first step of each step key, and the candidate
       row of each step; each cell's rows are those with its columns
       appended, stacked cell by cell.
    2. Reduce the candidate rows to the byte-distinct rows and solve those
       in one ``sweep_batch``. The first step of each distinct row is the
       first step of a key, so these are the distinct rows of all steps in
       order of first appearance. Rows of a batch do not interact, so a
       row's solution and iteration count are those of a solve on its
       own. A column that carries 0 VA the solver treats as no device: it
       adds +0.0 to a sink that starts at +0.0 and so never holds -0.0,
       which leaves every sum bit-identical to a layout without it.
    3. Node metrics and segment losses once over the distinct rows; each
       cell gathers its steps back through its candidate rows, and the
       horizon aggregates fold over every step in step order, all cells
       at once.

    Returns the arrays of every cell (``_Batch``), with the error of each
    failing cell as a step-by-step loop would raise it: the earliest
    failing step wins, a solver failure as a ScenarioStepError tagged with
    its time, anything else as raised.
    """
    if len(keys) and scenario.controller == "greedy" and scenario.batteries:
        raise ValueError("a greedy fleet's dispatch would read the cells' devices")
    topo = Topology(scenario.feeder)
    layout, candidates, step_key, fields, stopped = _dispatch(scenario, topo.index)
    n_cells, n_rows, width = len(cell_va), len(candidates), len(layout) + len(keys)
    if n_cells > 1 or len(keys):  # each cell: the scenario's rows, then its own columns
        stacked = np.empty((n_cells, n_rows, width), dtype=complex)
        stacked[:, :, : len(layout)] = candidates
        stacked[:, :, len(layout) :] = cell_va[:, None]
        candidates = stacked.reshape(n_cells * n_rows, width)  # a feeder may have no entries
        layout = np.concatenate([layout, keys])
    at, rank = _distinct_rows(candidates)
    distinct = candidates if len(at) == len(candidates) else candidates[at]  # no copy if all differ
    node, cond = np.divmod(layout, 4)
    solved = sweep_batch(topo, node, cond, distinct, settings)
    vuf_pct, drop_pct, v_rms = node_metric_arrays(solved.voltages, topo.v_base)
    phase_loss, neutral_loss = segment_losses(solved.currents, topo.r_phase, topo.r_neutral)
    n_steps, dt_h = scenario.n_steps, scenario.dt_h
    node_of = {d.battery_id: topo.index[d.node] for d in scenario.feeder.storage_devices()}
    trajectory = Trajectory(
        topo, solved, vuf_pct, drop_pct, v_rms, phase_loss, neutral_loss, dt_h,
        battery_node=np.array([node_of[b.id] for b in scenario.batteries], dtype=np.intp),
        **fields,
    )
    step_row = rank.reshape(n_cells, n_rows)[:, step_key]  # (cell, step)

    # --- errors: the earliest step on a failing or undefined row ------------
    # a sentinel row past the last, flagged both ways, puts a cell without
    # such a step at len(step_key); a failed row's voltages are zeros, so it
    # is undefined too, and the failure is reported
    ends = np.c_[step_row, np.full(n_cells, len(distinct))]
    failed = np.zeros(len(distinct) + 1, dtype=bool)
    failed[[*solved.failures, -1]] = True
    fail_at = failed[ends].argmax(axis=1)
    undefined_at = np.append(~np.isfinite(vuf_pct).all(axis=1), True)[ends].argmax(axis=1)
    undefined = undefined_at < fail_at
    errors: dict[int, Exception] = {}
    for c in np.flatnonzero(undefined | (fail_at < len(step_key))).tolist():
        if undefined[c]:
            errors[c] = ZeroPositiveSequence("positive-sequence magnitude is zero")
        else:
            k = int(fail_at[c])
            errors[c] = ScenarioStepError(k * dt_h, solved.failures[int(step_row[c, k])])
    if stopped is not None:
        errors = {c: errors.get(c, stopped) for c in range(n_cells)}
    summary = np.full((n_cells, len(SUMMARY_FIELDS)), np.nan)
    sum_drop = np.full((n_cells, topo.n), np.nan)
    batch = _Batch(trajectory, summary, sum_drop, step_row, errors)
    ok = np.ones(n_cells, dtype=bool)
    ok[list(errors)] = False
    if not ok.any():
        return batch

    # --- horizon aggregates, (cell, step) gathered from per-row values ------
    # each step adds losses segment by segment (phases A, B, C within one) and
    # deviations phase by phase, as the builtin sum does; then the steps add
    rows = step_row[ok]
    vuf_values = vuf_pct[:, 1:][rows].reshape(len(rows), -1)  # the source is node row 0
    drop_min = -drop_pct.min(axis=(1, 2))[rows].min(axis=1)
    drop_max = drop_pct.max(axis=(1, 2))[rows].max(axis=1)
    summary[ok] = np.stack(
        [
            _fold_sum(vuf_values) / max(vuf_values.shape[1], 1),  # 0.0 if no node but the source
            vuf_values.max(axis=1, initial=0.0),
            _fold_sum(_fold_sum(neutral_loss)[rows] * dt_h),
            _fold_sum(_fold_sum(_fold_sum(phase_loss))[rows] * dt_h),
            np.where(drop_min > 0.0, drop_min, 0.0),  # max(0.0, x), as the builtin
            np.where(drop_max > 0.0, drop_max, 0.0),
        ],
        axis=1,
    )
    sum_drop[ok] = _fold_sum(_fold_sum(drop_pct)[rows], axis=1) / n_steps
    return batch


def run_scenario(scenario: Scenario, settings: SolverSettings = SolverSettings()) -> ScenarioResult:
    """Execute the scenario in three passes and aggregate the results.

    1. Dispatch: step through time, evaluate profiles, ask the controller
       for actions, clip and apply them to the batteries. Each distinct
       state, keyed on the bytes of the SoC and of the step's input row
       (request row or net phase powers), is evaluated once and reused
       when it recurs (``Trajectory.dispatch_states`` counts them). When
       the inputs repeat day after day, the scan stops at the first day
       whose starting SoC recurs and tiles the days since that SoC was
       first met over the rest of the run. Each step is then keyed on the
       bytes of its profile values and applied ``(p, q, phase)`` row, and
       the injections are built once per key.
    2. Power flow: one forward-backward sweep over the distinct operating
       points of all steps at once.
    3. Metrics: VUF, deviations, losses and the aggregates, as arrays.

    The run is a batch of one cell without cell columns (``_run_batch``).
    Failures surface as a step-by-step loop would raise them: the earliest
    failing step wins, a solver failure as a ScenarioStepError tagged with
    its time, anything else as raised. Deterministic: identical scenarios
    produce identical results.
    """
    batch = _run_batch(scenario, settings)
    if batch.errors:
        raise batch.errors[0]
    return _cell_result(batch, 0, scenario.label)


def _flat_profiles(n_steps: int) -> dict[str, tuple[float, ...]]:
    return {"flat": (1.0,) * n_steps}


def _flat_loads(kw: float) -> list[Device]:
    """A three-phase load of ``kw`` per phase at each of N1..N5, on the flat profile."""
    return [
        Device(f"load-{node}", node, DeviceKind.LOAD, None, complex(kw, 0.0), profile_id="flat")
        for node in _SWEEP_NODES
    ]


def _window_profile(n_steps: int, dt_h: float, window: tuple[float, float]) -> tuple[float, ...]:
    return tuple(1.0 if window[0] <= (k * dt_h) % 24.0 < window[1] else 0.0 for k in range(n_steps))


def _check_cell(template: SweepTemplate, kind: DeviceKind, node: str, pen: float) -> None:
    """Raise what a sweep cell's arguments are refused for, in this order."""
    if template.network_class not in NETWORK_CLASS_SEGMENT_KM:
        raise ValueError(f"unknown network class {template.network_class!r}")
    if kind not in SWEEP_KINDS:
        raise ValueError(f"sweep device must be DG or EV, got {kind}")
    if not 0 <= pen <= 200:
        raise ValueError(f"penetration_pct must be in [0, 200], got {pen}")
    if node not in _SWEEP_NODES:
        raise UnknownNode(node, "sweep device placement (N1..N5)")


def _cell_label(template: SweepTemplate, kind: DeviceKind, node: str, pen: float) -> str:
    tag = "balanced" if template.balanced else f"phase-{template.device_phase.value}"
    return f"{template.network_class}-{kind.value}-{node}-{pen:g}pct-{tag}"


def _cell_device(template: SweepTemplate, kind: DeviceKind, node: str, pen: float) -> Device | None:
    """The DG or EV of a checked (kind, node, penetration) sweep cell, none at 0 %."""
    if not pen > 0:
        return None
    sign = -1.0 if kind is DeviceKind.DG else 1.0
    phase = None if template.balanced else template.device_phase
    rating = complex(sign * (pen / 100.0 * template.total_phase_load_kw), 0.0)
    return Device(f"{kind.value}-{node}", node, kind, phase, rating, profile_id="flat")


def _sweep_chain(
    template: SweepTemplate, cell: tuple | None = None, label: str = "scenario"
) -> Scenario:
    """The loaded six-node chain of a template under ``label``, plus the
    device of the checked ``cell`` if given (``_cell_device``), built after
    the loads and so checked after them."""
    devices = _flat_loads(template.total_phase_load_kw / len(_SWEEP_NODES))
    device = None if cell is None else _cell_device(template, *cell)
    if device is not None:
        devices.append(device)
    feeder = chain_feeder(6, NETWORK_CLASS_SEGMENT_KM[template.network_class], devices=devices)
    return Scenario(feeder=feeder, profiles=_flat_profiles(24), label=label)


def build_sweep_scenario(
    total_phase_load_kw: float,
    device_node: str,
    kind: DeviceKind,
    penetration_pct: float,
    network_class: str,
    *,
    device_phase: Phase = Phase.A,
    balanced: bool = False,
    label: str | None = None,
) -> Scenario:
    """Six-node chain with balanced base load plus one DG or EV.

    The base load (``total_phase_load_kw`` per phase) splits equally over
    N1..N5. The added device is sized at ``penetration_pct`` percent of the
    per-phase load per connected phase: on ``device_phase`` only by default,
    or on all three phases with ``balanced=True``. ``network_class`` picks
    the segment length (compact/overload: 0.1 km, sparse: 1.0 km); profiles
    are constant over the day. The scenario is labelled ``label``, by
    default after the cell.
    """
    template = SweepTemplate(total_phase_load_kw, network_class, device_phase, balanced)
    cell = (kind, device_node, penetration_pct)
    _check_cell(template, *cell)
    return _sweep_chain(template, cell, _cell_label(template, *cell) if label is None else label)


def _sweep_cells(
    template: SweepTemplate,
    kinds: Sequence[DeviceKind],
    nodes: Sequence[str],
    penetrations: Sequence[float],
) -> tuple[Scenario, np.ndarray, np.ndarray]:
    """The loaded chain of a template, built and validated once, and the
    device of each cell of the (kind, node, penetration) grid, in loop
    order, as ``_run_batch``'s cell columns: ``keys``, one entry per
    connected phase of each distinct node of ``nodes`` in order of first
    appearance, and ``(cell, key)`` VA, the device's in its node's columns
    and 0 elsewhere (a 0 % cell adds no device). A cell is the chain with
    its device attached, as ``build_sweep_scenario`` builds it, and its
    flat profile scales the device by 1.0, which the VA repeats.

    A cell fails if ``_check_cell`` refuses its node, or its kind and
    penetration, or if its device (``_cell_device``) is refused; neither
    depends on the other, so each node is checked once and each (kind,
    penetration) once, with a valid stand-in for the rest. The first
    failing cell in the order a loop over the cells checks them (its
    arguments, then at the first cell the chain, then its device) raises
    what ``build_sweep_scenario`` raises for it, from the same calls.
    """
    grid = (len(kinds), len(nodes), len(penetrations))
    kind_pen = (len(kinds), 1, len(penetrations))
    failed, rating = np.zeros(kind_pen, bool), np.zeros(kind_pen, complex)
    for k, kind in enumerate(kinds):
        for p, pen in enumerate(penetrations):
            try:
                _check_cell(template, kind, _SWEEP_NODES[0], pen)
                device = _cell_device(template, kind, _SWEEP_NODES[0], pen)
            except (PhasebalError, ValueError):
                failed[k, 0, p] = True
            else:
                rating[k, 0, p] = 0j if device is None else device.s_rated_kva
    node_failed = np.zeros((len(nodes), 1), bool)
    for n, node in enumerate(nodes):
        try:
            _check_cell(template, SWEEP_KINDS[0], node, 0.0)
        except (PhasebalError, ValueError):
            node_failed[n] = True

    def cell(c: int) -> tuple[DeviceKind, str, float]:
        k, n, p = np.unravel_index(c, grid)
        return kinds[k], nodes[n], penetrations[p]

    first = np.flatnonzero(failed | node_failed)[:1].tolist()
    if first == [0]:
        _check_cell(template, *cell(0))
    chain = _sweep_chain(template)
    for c in first:  # raises
        _check_cell(template, *cell(c))
        _cell_device(template, *cell(c))
    distinct = list(dict.fromkeys(nodes))
    conds = (0, 1, 2) if template.balanced else (_PHASE_ROW[template.device_phase],)
    rows = [chain.feeder.nodes.index(node) for node in distinct]
    keys = np.array([row * 4 + c for row in rows for c in conds], dtype=np.intp)
    at = np.array([distinct.index(node) for node in nodes])[:, None] == np.arange(len(distinct))
    va = _va(*_complex_times_real(rating.real, rating.imag, 1.0))  # (kind, 1, pen)
    # (kind, node, pen, distinct node, 1): the device's VA at its node's columns
    cell_va = np.where(at[:, None, :, None], va[..., None, None], 0j)
    shape = (*grid, len(distinct), len(conds))
    return chain, keys, np.broadcast_to(cell_va, shape).reshape(-1, len(keys))


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
    label: str | None = None,
) -> Scenario:
    """Storage showcase scenario on the six-node chain.

    Base load is 2 kW per phase at each of N1..N5. A 10 kW DG on
    ``target_phase`` at N3 runs 10:00-15:00 and a 10 kW EV block on the same
    phase runs 18:00-23:00. With ``arch`` set, storage of ``battery_kw``
    total rating sits at ``storage_node`` (N0: feeder head, N5: feeder end):
    one unit for A1, three units of a third the rating each for A2/A3. The
    unit on the target phase starts empty (it charges first); companion
    units start full (they discharge first). The scenario is labelled
    ``label``, by default after the architecture and storage node.
    """
    if storage_node not in STORAGE_NODES:
        raise UnsupportedNode(storage_node, STORAGE_NODES)
    if arch is not None and not battery_kw > 0:
        raise ValueError("battery_kw must be > 0 when an architecture is present")

    schedule = StylizedScheduleCfg(target_phase=target_phase)
    devices = _flat_loads(2.0)
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
        name = "stylized-nostorage"
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
        name = f"stylized-a1-{storage_node.lower()}"
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
        name = f"stylized-{arch.kind.value.lower()}-{storage_node.lower()}{shift}"

    feeder = chain_feeder(6, segment_km, devices=devices)
    n_steps = _step_count(horizon_h, dt_h)
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
        label=name if label is None else label,
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


class SweepTable(Sequence):
    """A sweep's cells as columns, read as a sequence of ``SweepRow`` in
    (kind, node, penetration) loop order: each row, with its
    ``ScenarioResult``, label and ``sum_drop_at`` dict, is made from the
    columns when it is read (``len``, indices, negative too, and
    iteration), so rows read twice are equal, not the same object.

    Columns, one entry per cell: ``summary`` ``(cell, 6)`` holds the
    ``SUMMARY_FIELDS`` values, ``sum_drop`` ``(cell, node)`` each node's
    time-average of its summed phase deviations, nodes in
    ``trajectory.topology`` order, both NaN at a failing cell; ``step_row``
    ``(cell, step)`` the row of each step of the ``trajectory`` every cell
    shares; ``errors`` the message of each failing cell, by cell. The
    grid's axes ``kinds``, ``nodes`` and ``penetrations`` are held as
    given: a row's kind, node and penetration are the objects passed in.
    """

    __slots__ = ("template", "kinds", "nodes", "penetrations", "trajectory", "summary",
                 "sum_drop", "step_row", "errors")

    def __init__(self, template: SweepTemplate, kinds, nodes, penetrations, batch: _Batch) -> None:
        self.template, self.kinds, self.nodes = template, tuple(kinds), tuple(nodes)
        self.penetrations = tuple(penetrations)
        self.trajectory, self.summary, self.sum_drop, self.step_row = batch[:4]  # all but errors
        self.errors = {c: str(error) for c, error in batch.errors.items()}

    def __len__(self) -> int:
        return len(self.step_row)

    def __getitem__(self, i: int) -> SweepRow:
        i = range(len(self))[operator.index(i)]  # bounds and negative indices as a tuple's
        k, n = divmod(i, len(self.nodes) * len(self.penetrations))
        n, p = divmod(n, len(self.penetrations))
        kind, node, pen = self.kinds[k], self.nodes[n], self.penetrations[p]
        if i in self.errors:
            return SweepRow(kind, node, pen, None, error=self.errors[i])
        label = _cell_label(self.template, kind, node, pen)
        return SweepRow(kind, node, pen, _cell_result(self, i, label))


def sweep_and_tabulate(
    template: SweepTemplate,
    penetrations: Sequence[float],
    nodes: Sequence[str],
    kinds: Sequence[DeviceKind],
    settings: SolverSettings = SolverSettings(),
) -> SweepTable:
    """Run the cross product of (kind, node, penetration) and tabulate.

    Every cell is the six-node chain, built and validated once with its
    loads, plus the cell's device, so the cells run as one batch: one power
    flow over the distinct operating points of all of them. Every cell is
    checked before any runs, and the first that cannot be built raises as
    ``build_sweep_scenario`` would. The power flow, metrics, aggregates
    and each cell's error are computed here, as columns; the returned
    ``SweepTable`` makes each ``SweepRow`` only when it is read. Rows come
    in (kind, node, penetration) loop order. A failing cell is recorded
    with its error message instead of aborting the others; an error that
    is no ``PhasebalError`` is raised.
    """
    if not penetrations or not nodes or not kinds:
        raise ValueError("penetrations, nodes and kinds must be non-empty")
    chain, keys, cell_va = _sweep_cells(template, kinds, nodes, penetrations)
    batch = _run_batch(chain, settings, keys, cell_va)
    for error in batch.errors.values():
        if not isinstance(error, PhasebalError):
            raise error
    return SweepTable(template, kinds, nodes, penetrations, batch)
