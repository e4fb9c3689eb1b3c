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
through ``Trajectory.step_row``: the lossless case of vector-quantised
QSTS (Deboever, Grijalva, Reno & Broderick, Solar Energy 159, 2018).
Dispatch quantises before the injections exist: each step is keyed on the
bytes of its profile values and, with a dispatched fleet, of its applied
``(p, q, phase)`` row, and the injections are built only at the first step
of each key. The horizon aggregates still add every step in step order,
and ``ScenarioResult.per_timestep`` makes each step's ``StepRecord`` only
when it is read.
A batch is one scenario and its cells, each the scenario with at most one
device attached: a run is one cell without a device, and
``sweep_and_tabulate`` builds the loaded chain of a sweep once and gives
each cell its DG or EV. The cells share the scenario's dispatch, step keys
and entry layout, each device takes columns after the scenario's entries,
and one power flow covers the distinct rows of every cell.

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
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

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
    attach_device,
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
        steps = self.horizon_h / self.dt_h
        if not steps <= MAX_STEPS:
            raise ValueError(f"horizon_h / dt_h must be at most {MAX_STEPS} steps, got {steps:g}")
        if abs(steps - round(steps)) > 1e-9 or steps < 1:
            raise ValueError("horizon_h must be a positive multiple of dt_h")
        n, peaks = self.n_steps, {}
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
    """Solved arrays of one run, one row per distinct operating point:
    power flow ``(row, node | segment, conductor)`` and the metrics derived
    from it, ``(row, node[, phase])`` for VUF, signed deviation and RMS
    voltage and ``(row, segment[, phase])`` for losses in kW. ``step_row``
    maps each timestep to its row; steps with byte-equal injections share
    one. Node and segment axes follow ``topology``, the feeder's index.
    The cells of a sweep share it and one set of arrays, so rows of other
    cells sit beside this run's.

    Dispatch is held per step. ``soc_kwh`` is ``(step, battery)`` after
    each step's action, batteries in ``battery_ids`` order. ``p_kw``,
    ``q_kvar``, ``phase`` (index into ``PHASES``) and ``clipped`` are
    ``(step, unit)``: the dispatched units are the batteries in the same
    order, or none when the scenario has no controller. ``clipped`` is
    True where the applied p differs from the controller's request (the
    zero-sum shift of A2 without load shift counts). ``zero_sum_missed``
    is True at the steps where such a fleet's box held no zero-sum point,
    so its dispatch does not sum to zero. ``dispatch_states`` counts the
    distinct (SoC, input row) states the dispatch scan evaluated; the other
    ``n_steps - dispatch_states`` steps reused a stored state. It is 0
    when no fleet is dispatched."""

    topology: Topology
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
    dispatch_states: int


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
        return traj.solved.solution(traj.topology.nodes, int(traj.step_row[self.step]))

    def __repr__(self) -> str:
        return f"StepRecord(t_h={self.t_h!r}, actions={self.actions!r}, soc_kwh={self.soc_kwh!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepRecord):
            return NotImplemented
        return (self.t_h, self.actions, self.soc_kwh, self.solution) == (
            other.t_h, other.actions, other.soc_kwh, other.solution
        )


class _StepRecords(Sequence):
    """The ``StepRecord`` of every step of a trajectory, each made when it
    is read. Reads like the tuple of them: ``len``, indices (negative
    too), slices (a tuple), iteration, ``==`` against such a tuple or
    another view, and ``repr``."""

    __slots__ = ("_trajectory", "_dt_h")

    def __init__(self, trajectory: Trajectory, dt_h: float) -> None:
        self._trajectory, self._dt_h = trajectory, dt_h

    def _at(self, k: int) -> StepRecord:
        return StepRecord(k * self._dt_h, self._trajectory, k)

    def __len__(self) -> int:
        return len(self._trajectory.step_row)

    def __getitem__(self, k):
        steps = range(len(self))[k]  # bounds, negative indices and slices as a tuple's
        return tuple(map(self._at, steps)) if isinstance(steps, range) else self._at(steps)

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _StepRecords):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class ScenarioResult:
    """Time-aggregated metrics for one scenario run.

    VUF statistics run over all non-source nodes and all timesteps.
    ``max_drop_pct`` / ``max_rise_pct`` are magnitudes (both >= 0) of the
    worst negative / positive line-to-neutral deviation. ``sum_drop_at``
    maps a node to the time-average of its three phase deviations summed.
    ``trajectory`` holds the per-step arrays behind ``per_timestep``, a
    read-only sequence that makes each step's ``StepRecord`` when it is
    read and otherwise behaves as the tuple of them.
    """

    label: str
    mean_vuf_pct: float
    max_vuf_pct: float
    neutral_loss_kwh: float
    phase_loss_kwh: float
    max_drop_pct: float
    max_rise_pct: float
    sum_drop_at: dict[str, float]
    per_timestep: Sequence[StepRecord]
    trajectory: Trajectory = field(repr=False, compare=False)


def _complex_times_real(re: np.ndarray, im: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """Python's complex * float, (re + j im) * f, component by component."""
    return re * f - im * 0.0, re * 0.0 + im * f


def _va(p_kw: np.ndarray, q_kvar: np.ndarray) -> np.ndarray:
    """Complex VA of kW and kvar arrays, as ``complex(p, q) * 1000``."""
    s_va = np.empty(p_kw.shape, dtype=complex)
    s_va.real, s_va.imag = _complex_times_real(p_kw, q_kvar, 1000.0)
    return s_va


def _dispatch(
    scenario: Scenario, devices: Sequence[Device | None], index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict, Exception | None]:
    """Pass 1 of a run, for the cells of one scenario: lay out the
    injection entries, dispatch storage over all steps
    (``_dispatch_storage``) and build the injections of the steps that can
    differ. A cell is the scenario with one of ``devices`` attached, or
    with none where it is None. Neither controller reads voltages, so this
    fixes every step's injections up front. A device must not change the
    dispatch it rides on, so devices are refused under a greedy fleet,
    whose search reads the devices' net power.

    A device takes one entry per connected phase, keyed ``node row * 4 +
    conductor``, in the order the devices sit on the feeder. A storage
    device takes three (A, B, C): the phase its battery is dispatched on
    carries the power and the other two stay zero, so phase-selecting
    units need no second layout. The cells' devices follow, one column
    per distinct entry key in order of first appearance; a cell's row
    carries 0 VA in the columns it does not use.

    A step's injections follow from its key: its byte-distinct row of
    profile values, one column per profile id the devices read, and for a
    dispatched fleet also its applied ``(p, q, phase)`` row. Bytes keep a
    -0.0 profile value apart from 0.0. Steps of one key have byte-equal
    injections, so the ``(row, entry)`` complex VA is built only at the
    first step of each key, its candidate row. Every cell has the same
    keys.

    Returns the entry layout as flat keys, the candidate rows of all cells
    stacked cell by cell, the candidate row of each step dispatched, the
    dispatch arrays keyed by ``Trajectory`` field, and the error that
    stopped dispatch early (None if every step ran).
    """
    n_steps = scenario.n_steps
    units = scenario.batteries if scenario.controller != "none" else ()
    greedy = bool(units) and scenario.controller == "greedy"
    if greedy and any(d is not None for d in devices):
        raise ValueError("a greedy fleet's dispatch would read the device attached to a cell")

    # one pass over the scenario's devices, then the cells': the node row and
    # phase (3: all three) of each, the rating and profile column of each
    # device column (storage has none) and the device of each battery
    cell = [c for c, d in enumerate(devices) if d is not None]
    profile_col: dict[str | None, int] = {}
    node_row, phase, has_col, rated, dev_profile, battery_dev = [], [], [], [], [], {}
    for d in (*scenario.feeder.devices, *(devices[c] for c in cell)):
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
    # the entries of each device, in device order; storage reads the zero column
    phase, has_col = np.array(phase, dtype=np.intp), np.array(has_col, dtype=bool)
    width = np.where(phase == 3, 3, 1)
    start = np.cumsum(width) - width
    owner = np.repeat(np.arange(len(phase)), width)
    cond = np.where(width[owner] == 3, np.arange(len(owner)) - start[owner], phase[owner])
    keys = np.array(node_row, dtype=np.intp)[owner] * 4 + cond
    zero = len(rated)
    col = np.where(has_col, np.cumsum(has_col) - 1, zero)[owner]
    # the cells' entries: one layout column per distinct key, in order of first appearance
    base = int(start[len(phase) - len(cell)]) if cell else len(keys)
    extra: dict[int, int] = {}
    slot = [base + extra.setdefault(k, len(extra)) for k in keys[base:].tolist()]
    cell_at = np.repeat(np.array(cell, dtype=np.intp), width[len(phase) - len(cell) :])
    layout = np.concatenate([keys[:base], np.array(list(extra), dtype=np.intp)])
    src = np.full((len(devices), len(layout)), zero, dtype=np.intp)  # (cell, layout column)
    src[:, :base] = col[:base]
    src[cell_at, np.array(slot, dtype=np.intp)] = col[base:]

    profiles = [scenario.profiles[pid] if pid else (1.0,) * n_steps for pid in profile_col]
    scale = np.array(profiles, dtype=float).reshape(len(profiles), n_steps).T
    dev_profile, rated = np.array(dev_profile, dtype=np.intp), np.array(rated, dtype=complex)

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
    candidates = np.take(va, src, axis=1).transpose(1, 0, 2)  # (cell, row, layout column)
    if units:  # each unit feeds the entry of its dispatched phase; the other two stay 0
        cols = start[[battery_dev[b.id] for b in units]] + fields["phase"][first]
        rows = np.arange(len(first))[:, None]
        candidates[:, rows, cols] = _va(fields["p_kw"][first], fields["q_kvar"][first])
    shape = (len(devices) * len(first), len(layout))  # a feeder may have no entries
    return layout, candidates.reshape(shape), step_key, fields, stopped


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
    for the greedy search. So the scan keeps a memo keyed on (the SoC
    packed as doubles, the input row's id among the byte-distinct rows),
    and evaluates each distinct state once; a clock schedule meets the same
    states day after day. Bytes keep 0.0 and -0.0 apart, which a key of
    floats would merge. A step enters the memo only once it has completed,
    so a failing step raises as it would without the memo.

    Returns the ``Trajectory`` dispatch arrays of the steps that ran, keyed
    by field, and the error that stopped dispatch early (None if every
    step ran).
    """
    n_steps, dt_h, arch = scenario.n_steps, scenario.dt_h, scenario.architecture
    soc = [b.soc_kwh for b in scenario.batteries]
    greedy = scenario.controller == "greedy"
    zero_sum = arch.kind is ArchKind.A2 and not arch.allow_load_shift
    if greedy:
        inputs, net_rows, phase_rows, want_rows = net, net.tolist(), [], []
    else:
        phases, want = schedule_requests(
            np.arange(n_steps) * dt_h,
            arch,
            scenario.schedule or StylizedScheduleCfg(),
            [b.p_max_kw for b in units],
        )
        inputs, want_rows = want, want.tolist()
    pack = struct.Struct(f"{len(units)}d").pack
    memo: dict[tuple[bytes, int], tuple] = {}

    pending, steps = None, []
    try:
        for k, row in enumerate(_distinct_rows(inputs)[1].tolist()):
            key = pack(*soc), row
            done = memo.get(key)
            if done is None:
                bounds = [bounds_at(b, e, dt_h) for b, e in zip(units, soc)]
                phase_k = None
                if greedy:  # greedy_powers adds to its net row; each row is read once
                    phase_k, want_k = zip(*greedy_powers(net_rows[k], arch, bounds))
                elif zero_sum:
                    want_k = zero_sum_shift(want_rows[k], *zip(*bounds))
                else:
                    want_k = want_rows[k]
                step = []
                for bat, (lo, hi), p, e in zip(units, bounds, want_k, soc):
                    p, q = clip_power(bat, p, 0.0, lo, hi)
                    step += p, q, next_soc(bat, e, p, q, dt_h)
                done = memo[key] = step, phase_k, want_k
            step, phase_k, want_k = done
            steps.append(step)
            soc = step[2::3]
            if greedy:
                phase_rows.append(phase_k)
                want_rows.append(want_k)
    except (PhasebalError, ValueError) as exc:
        pending = exc
    n_ok = len(steps)
    p, q, soc_kwh = np.array(steps, dtype=float).reshape(n_ok, len(units), 3).transpose(2, 0, 1)
    if greedy:
        phase, want = np.array(phase_rows[:n_ok], dtype=np.intp), np.array(want_rows[:n_ok])
    else:
        phase = np.tile(np.array([_PHASE_ROW[ph] for ph in phases], dtype=np.intp), (n_ok, 1))
    shape = (n_ok, len(units))  # the arrays of a greedy run stopped at step 0 are flat
    fields = _dispatch_fields(
        scenario, phase.reshape(shape), want[:n_ok].reshape(shape), p, q, soc_kwh, len(memo)
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


def _first_flagged(flags: np.ndarray, bounds: list[int]) -> list[int]:
    """For each part ``bounds[c]:bounds[c + 1]`` of ``flags``, the index
    of its first True, or ``bounds[c + 1]`` if it holds none."""
    at = np.append(np.flatnonzero(flags), bounds[-1])
    return np.minimum(at[np.searchsorted(at, bounds[:-1])], bounds[1:]).tolist()


def _fold_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The builtin ``sum`` along ``axis``, bit for bit: a left fold from
    0.0 (``np.sum`` adds pairwise and differs in the last bits)."""
    x = np.moveaxis(x, axis, -1)
    lanes = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)
    return np.add.accumulate(lanes, axis=-1)[..., -1]


def _run_batch(
    scenario: Scenario, cells: Sequence[tuple[str, Device | None]], settings: SolverSettings
) -> list[ScenarioResult | Exception]:
    """Run the cells of one scenario with one power flow for all of them.
    A cell is the scenario under its own label, with its device attached
    (none where it is None). A run is one cell without a device; a sweep
    is the loaded chain with one DG or EV per cell.

    1. Dispatch (``_dispatch``), which gives every cell its candidate rows,
       the injections at the first step of each step key, stacked cell by
       cell, and the candidate row of each step.
    2. Reduce the candidate rows to the byte-distinct rows and solve those
       in one ``sweep_batch``. The first step of each distinct row is the
       first step of a key, so these are the distinct rows of all steps in
       order of first appearance. Rows of a batch do not interact, so a
       row's solution and iteration count are those of a solve on its
       own. A column a cell does not use carries 0 VA, which the solver
       treats as no device: it adds +0.0 to a sink that starts at +0.0 and
       so never holds -0.0, which leaves every sum bit-identical to the
       cell's own layout.
    3. Node metrics and segment losses once over the distinct rows; each
       cell gathers its steps back through its candidate rows, and the
       horizon aggregates fold over every step in step order, all cells
       at once.

    Returns a ScenarioResult or the error of each cell, as a step-by-step
    loop would raise it: the earliest failing step wins, a solver failure
    as a ScenarioStepError tagged with its time, anything else as raised.
    """
    topo = Topology(scenario.feeder)
    devices = [device for _, device in cells]
    layout, candidates, step_key, fields, stopped = _dispatch(scenario, devices, topo.index)
    at, rank = _distinct_rows(candidates)
    distinct = candidates if len(at) == len(candidates) else candidates[at]  # no copy if all differ
    node, cond = np.divmod(layout, 4)
    solved = sweep_batch(topo, node, cond, distinct, settings)
    vuf_pct, drop_pct, v_rms = node_metric_arrays(solved.voltages, topo.v_base)
    phase_loss, neutral_loss = segment_losses(solved.currents, topo.r_phase, topo.r_neutral)

    # --- errors: the earliest step on a failing or undefined row ------------
    # a cell's candidates appear in step order, so its earliest failing step
    # is the first step of its first candidate on a failing row
    bounds = (np.arange(len(cells) + 1) * (len(candidates) // len(cells))).tolist()
    failed = np.zeros(len(distinct), dtype=bool)
    failed[list(solved.failures)] = True
    fail_at = _first_flagged(failed[rank], bounds)
    undefined_at = _first_flagged(~np.isfinite(vuf_pct).all(axis=1)[rank], bounds)
    outcomes: list[ScenarioResult | Exception | None] = []
    for c in range(len(cells)):
        if undefined_at[c] < fail_at[c]:
            outcomes.append(ZeroPositiveSequence("positive-sequence magnitude is zero"))
        elif fail_at[c] < bounds[c + 1]:
            step = step_key.tolist().index(fail_at[c] - bounds[c])
            error = solved.failures[rank[fail_at[c]]]
            outcomes.append(ScenarioStepError(step * scenario.dt_h, error))
        else:
            outcomes.append(stopped)
    ok = [c for c, outcome in enumerate(outcomes) if outcome is None]
    if not ok:
        return outcomes

    # --- horizon aggregates, (cell, step) gathered from per-row values ------
    # each step adds losses segment by segment (phases A, B, C within one) and
    # deviations phase by phase, as the builtin sum does; then the steps add
    n_steps, dt_h = scenario.n_steps, scenario.dt_h
    step_row = rank[np.array(bounds)[ok][:, None] + step_key]
    neutral_kwh = _fold_sum(_fold_sum(neutral_loss)[step_row] * dt_h).tolist()
    phase_kwh = _fold_sum(_fold_sum(_fold_sum(phase_loss))[step_row] * dt_h).tolist()
    drop_sums = (_fold_sum(_fold_sum(drop_pct)[step_row], axis=1) / n_steps).tolist()
    vuf_values = vuf_pct[step_row][..., 1:].reshape(len(ok), -1)  # the source is node row 0
    mean_vuf = (_fold_sum(vuf_values) / max(vuf_values.shape[1], 1)).tolist()  # 0.0 if none
    max_vuf = vuf_values.max(axis=1, initial=0.0).tolist()
    drop_min = drop_pct.min(axis=(1, 2))[step_row].min(axis=1).tolist()
    drop_max = drop_pct.max(axis=(1, 2))[step_row].max(axis=1).tolist()
    for i, c in enumerate(ok):
        trajectory = Trajectory(
            topo, solved, vuf_pct, drop_pct, v_rms, phase_loss, neutral_loss, step_row[i], **fields
        )
        outcomes[c] = ScenarioResult(
            label=cells[c][0],
            mean_vuf_pct=mean_vuf[i],
            max_vuf_pct=max_vuf[i],
            neutral_loss_kwh=neutral_kwh[i],
            phase_loss_kwh=phase_kwh[i],
            max_drop_pct=max(0.0, -drop_min[i]),
            max_rise_pct=max(0.0, drop_max[i]),
            sum_drop_at=dict(zip(topo.nodes, drop_sums[i])),
            per_timestep=_StepRecords(trajectory, dt_h),
            trajectory=trajectory,
        )
    return outcomes


def run_scenario(scenario: Scenario, settings: SolverSettings = SolverSettings()) -> ScenarioResult:
    """Execute the scenario in three passes and aggregate the results.

    1. Dispatch: step through time, evaluate profiles, ask the controller
       for actions, clip and apply them to the batteries. Each distinct
       state, keyed on the SoC's bytes and the id of the step's input row
       (request row or net phase powers), is evaluated once and reused
       when it recurs (``Trajectory.dispatch_states`` counts them). Each
       step is then keyed on the bytes of its profile values and applied
       ``(p, q, phase)`` row, and the injections are built once per key.
    2. Power flow: one forward-backward sweep over the distinct operating
       points of all steps at once.
    3. Metrics: VUF, deviations, losses and the aggregates, as arrays.

    The run is a batch of one cell without a device (``_run_batch``).
    Failures surface as a step-by-step loop would raise them: the earliest
    failing step wins, a solver failure as a ScenarioStepError tagged with
    its time, anything else as raised. Deterministic: identical scenarios
    produce identical results.
    """
    [outcome] = _run_batch(scenario, [(scenario.label, None)], settings)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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


def build_sweep_scenario(
    total_phase_load_kw: float,
    device_node: str,
    kind: DeviceKind,
    penetration_pct: float,
    network_class: str,
    *,
    device_phase: Phase = Phase.A,
    balanced: bool = False,
) -> Scenario:
    """Six-node chain with balanced base load plus one DG or EV.

    The base load (``total_phase_load_kw`` per phase) splits equally over
    N1..N5. The added device is sized at ``penetration_pct`` percent of the
    per-phase load per connected phase: on ``device_phase`` only by default,
    or on all three phases with ``balanced=True``. ``network_class`` picks
    the segment length (compact/overload: 0.1 km, sparse: 1.0 km); profiles
    are constant over the day.
    """
    template = SweepTemplate(total_phase_load_kw, network_class, device_phase, balanced)
    chain, [(label, device)] = _sweep_cells(template, [(kind, device_node, penetration_pct)])
    feeder = chain.feeder if device is None else attach_device(chain.feeder, device)
    return replace(chain, feeder=feeder, label=label)


def _sweep_cells(
    template: SweepTemplate, cells: Sequence[tuple[DeviceKind, str, float]]
) -> tuple[Scenario, list[tuple[str, Device | None]]]:
    """The loaded chain of a template, built and validated once, and the
    label and device of each (kind, node, penetration) cell, in order: a
    0 % cell attaches no device. A cell is the chain with its device
    attached under its label, as ``build_sweep_scenario`` builds it.

    A cell's arguments are checked before the chain is built, so the
    first bad cell raises what ``build_sweep_scenario`` raises for it.
    """
    network_class, total_kw = template.network_class, template.total_phase_load_kw
    tag = "balanced" if template.balanced else f"phase-{template.device_phase.value}"
    chain, labelled = None, []
    for kind, node, pen in cells:
        if network_class not in NETWORK_CLASS_SEGMENT_KM:
            raise ValueError(f"unknown network class {network_class!r}")
        if kind not in SWEEP_KINDS:
            raise ValueError(f"sweep device must be DG or EV, got {kind}")
        if not 0 <= pen <= 200:
            raise ValueError(f"penetration_pct must be in [0, 200], got {pen}")
        if node not in _SWEEP_NODES:
            raise UnknownNode(node, "sweep device placement (N1..N5)")
        if chain is None:
            loads = _flat_loads(total_kw / len(_SWEEP_NODES))
            feeder = chain_feeder(6, NETWORK_CLASS_SEGMENT_KM[network_class], devices=loads)
            chain = Scenario(feeder=feeder, profiles=_flat_profiles(24))
        device = None
        if pen > 0:
            sign = -1.0 if kind is DeviceKind.DG else 1.0
            device = Device(
                label=f"{kind.value}-{node}",
                node=node,
                kind=kind,
                phase=None if template.balanced else template.device_phase,
                s_rated_kva=complex(sign * (pen / 100.0 * total_kw), 0.0),
                profile_id="flat",
            )
        labelled.append((f"{network_class}-{kind.value}-{node}-{pen:g}pct-{tag}", device))
    return chain, labelled


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

    Every cell is the six-node chain, built and validated once with its
    loads, plus the cell's device, so the cells run as one batch: one power
    flow over the distinct operating points of all of them. Every cell is built before any runs, and the
    first that cannot be built raises as ``build_sweep_scenario`` would.
    Rows come back in (kind, node, penetration) loop order. A failing cell
    is recorded with its error message instead of aborting the others.
    """
    if not penetrations or not nodes or not kinds:
        raise ValueError("penetrations, nodes and kinds must be non-empty")
    cells = [(kind, node, pen) for kind in kinds for node in nodes for pen in penetrations]
    chain, labelled = _sweep_cells(template, cells)
    rows = []
    for (kind, node, pen), outcome in zip(cells, _run_batch(chain, labelled, settings)):
        if isinstance(outcome, ScenarioResult):
            rows.append(SweepRow(kind, node, pen, outcome))
        elif isinstance(outcome, PhasebalError):
            rows.append(SweepRow(kind, node, pen, None, error=str(outcome)))
        else:
            raise outcome
    return rows
