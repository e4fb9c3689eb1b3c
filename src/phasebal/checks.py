"""Checks and per-step views: what only tests, the benchmark's checks and
per-step reads use. A run, a sweep or an ingest never loads this module;
``ScenarioResult.per_timestep`` and ``SweepTable`` rows import it when
they are read, and ``phasebal`` resolves its names on first access.

- The dense oracle: ``oracle_solve``, a structurally different solver of
  one snapshot that checks the batched sweep (``powerflow.sweep_batch``),
  and ``power_balance_residual_kw``, the power balance of a solution.
  Both read ``_effective_injections``, the feeder's rated devices with
  explicit injections merged over them.
- The scalar metrics of one three-phase set: ``fortescue``,
  ``inverse_fortescue``, ``vuf``, ``rms_voltage`` and ``check_vuf_norm``
  against ``VUF_NORM_LIMITS``. ``powerflow.node_metric_arrays`` computes
  the same values over arrays, bit for bit.
- The per-step views, made from the arrays of a run on every read:
  ``StepRecord`` (with ``DispatchAction``, and the ``VoltageSolution`` of
  its row of the trajectory's ``voltages``, ``currents`` and
  ``iterations``), the ``_StepRecords`` sequence behind
  ``per_timestep``, and ``SweepRow``.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import NonConvergence, UnknownNode, UnknownNorm, VoltageCollapse, ZeroPositiveSequence
from .network import CONDUCTORS, PHASES, Device, DeviceKind, Feeder, Phase
from .powerflow import ALPHA, _COLLAPSE_PU, SolverSettings, Topology, _Kernel, segment_losses

if TYPE_CHECKING:
    from .scenarios import ScenarioResult, Trajectory

# --- the dense oracle --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VoltageSolution:
    """Converged node voltages and branch currents for one snapshot.

    ``voltages[i, c]`` is conductor c (A, B, C, N) of ``nodes[i]`` in volts;
    ``currents[k, c]`` is the current of segment k in amps, positive from
    parent to child. ``iterations`` counts full sweep passes. The ``v``
    property gives the voltages as a dict (node -> conductor -> volts),
    built anew on every read.
    """

    nodes: tuple[str, ...]
    voltages: np.ndarray
    currents: np.ndarray
    iterations: int

    @property
    def v(self) -> dict[str, dict[str, complex]]:
        return {
            name: dict(zip(CONDUCTORS, row))
            for name, row in zip(self.nodes, self.voltages.tolist())
        }


def _effective_injections(
    feeder: Feeder, injections: Mapping[Device, complex] | None
) -> list[tuple[Device, complex]]:
    """Merge explicit injections over the feeder's rated devices.

    Entries are matched by device label; an injection whose label is not in
    the feeder acts as a transient extra device (its node must exist).
    Storage devices default to zero injection when not dispatched.
    """
    merged: dict[str, tuple[Device, complex]] = {
        d.label: (d, d.s_rated_kva) for d in feeder.devices
    }
    if injections:
        nodes = set(feeder.nodes)
        for dev, s in injections.items():
            if dev.node not in nodes:
                raise UnknownNode(dev.node, f"injection for device {dev.label!r}")
            if not cmath.isfinite(s):
                raise ValueError(f"injection for {dev.label!r} must be finite, got {s!r}")
            merged[dev.label] = (dev, complex(s))
    return list(merged.values())


def _snapshot_entries(
    topo: Topology, feeder: Feeder, injections: Mapping[Device, complex] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node rows, conductors, VA) of one snapshot, one entry per connected
    phase of each device in ``_effective_injections`` order."""
    node, cond, s_va = [], [], []
    for dev, s_kva in _effective_injections(feeder, injections):
        for ph in dev.connected_phases:
            node.append(topo.index[dev.node])
            cond.append(CONDUCTORS.index(ph.value))
            s_va.append(s_kva * 1000.0)
    return (
        np.array(node, dtype=np.intp),
        np.array(cond, dtype=np.intp),
        np.array(s_va, dtype=complex),
    )


def oracle_solve(
    feeder: Feeder,
    injections: Mapping[Device, complex] | None = None,
    settings: SolverSettings = SolverSettings(),
) -> VoltageSolution:
    """Dense verification solver for feeders of at most 12 nodes.

    Same contract as a ``sweep_batch`` row, structurally different: builds
    the full 4n x 4n nodal admittance matrix, partitions out the four fixed
    source conductors, and fixed-point iterates device current injections
    against the reduced linear system. ``injections`` maps devices to
    complex kVA per connected phase (P > 0 consumes) and overrides rated
    powers by device label; see ``_effective_injections``.
    """
    topo = Topology(feeder)
    if topo.n > 12:
        raise ValueError(f"oracle_solve supports at most 12 nodes, got {topo.n}")
    node, cond, s_va = _snapshot_entries(topo, feeder, injections)
    s_va = s_va[None]

    n4 = 4 * topo.n
    y = np.zeros((n4, n4), dtype=complex)
    ends = zip((4 * topo.parent[topo.seg_child]).tolist(), (4 * topo.seg_child).tolist())
    for k, (p, c) in enumerate(ends):
        yb = np.linalg.inv(topo.z[k])
        y[p : p + 4, p : p + 4] += yb
        y[c : c + 4, c : c + 4] += yb
        y[p : p + 4, c : c + 4] -= yb
        y[c : c + 4, p : p + 4] -= yb

    fixed = np.arange(4)  # source node is index 0 after normalization
    free = np.arange(4, n4)
    v = topo.flat[None].copy()
    if free.size == 0:
        return VoltageSolution(topo.nodes, v[0], np.zeros((0, 4), dtype=complex), 1)

    y_uu = y[np.ix_(free, free)]
    y_uf = y[np.ix_(free, fixed)]
    v_fixed = v.reshape(-1)[fixed]
    tol_v = settings.tol_pu * topo.v_base
    delta = math.inf
    kernel = _Kernel(topo, node, cond, s_va)
    for it in range(1, settings.max_iter + 1):
        v_min = kernel.device_currents(v)
        if v_min[0] < _COLLAPSE_PU:
            raise VoltageCollapse(it, float(v_min[0]))
        rhs = -kernel.acc.reshape(-1)[free] - y_uf @ v_fixed
        v_new = v.copy()
        v_new.reshape(-1)[free] = np.linalg.solve(y_uu, rhs)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= tol_v:
            kernel.device_currents(v)
            currents = kernel.branch_currents(1)[0, topo.seg_child]
            return VoltageSolution(topo.nodes, v[0], currents, it)
    raise NonConvergence(settings.max_iter, delta)


def power_balance_residual_kw(
    feeder: Feeder,
    solution: VoltageSolution,
    injections: Mapping[Device, complex] | None = None,
) -> float:
    """|source P - (device P + losses)| in kW, over devices below the source.

    Uses the requested device powers, so a converged solution must show the
    source supplying exactly the demanded power plus conductor losses.
    Devices on the source bus draw from the stiff source directly and do not
    appear in branch flows, hence their exclusion on both sides. Reads the
    segments itself, not through ``Topology``.
    """
    r_ph = np.array([(s.z_phase_per_km * s.length_km).real for s in feeder.segments], float)
    r_n = np.array([(s.z_neutral_per_km * s.length_km).real for s in feeder.segments], float)
    phase_loss, neutral_loss = segment_losses(solution.currents, r_ph, r_n)
    v_src = solution.voltages[0].tolist()  # the source is row 0 after normalization
    injection = [0j, 0j, 0j]  # kVA per phase, over the segments leaving the source bus
    for k, seg in enumerate(feeder.segments):
        if seg.from_node == feeder.source_node:
            for c, amps in enumerate(solution.currents[k, :3].tolist()):
                injection[c] += v_src[c] * amps.conjugate() / 1000.0
    source_p = sum(s.real for s in injection)
    losses = sum(map(sum, phase_loss.tolist())) + sum(neutral_loss.tolist())
    device_p = 0.0
    for dev, s_kva in _effective_injections(feeder, injections):
        if dev.node == feeder.source_node:
            continue
        device_p += s_kva.real * len(dev.connected_phases)
    return abs(source_p - device_p - losses)


# --- scalar metrics of one three-phase set -----------------------------------

#: Voltage-unbalance limits in percent, by utility/standard.
VUF_NORM_LIMITS: dict[str, float] = {
    "PGE": 2.5,
    "NEMA": 1.0,
    "BCH_STD": 2.0,
    "BCH_RURAL": 3.0,
    "EN50160_LV_MV": 2.0,
    "EN50160_HV": 1.0,
}


@dataclass(frozen=True)
class SequenceComponents:
    """Zero/positive/negative-sequence phasors of a three-phase set."""

    v0: complex
    v1: complex
    v2: complex


def fortescue(va: complex, vb: complex, vc: complex) -> SequenceComponents:
    """Decompose (Va, Vb, Vc) into symmetrical components.

    v0 = (Va + Vb + Vc) / 3
    v1 = (Va + a Vb + a^2 Vc) / 3      with a = 1 at +120 deg
    v2 = (Va + a^2 Vb + a Vc) / 3
    """
    a = ALPHA
    a2 = ALPHA * ALPHA
    return SequenceComponents(
        v0=(va + vb + vc) / 3,
        v1=(va + a * vb + a2 * vc) / 3,
        v2=(va + a2 * vb + a * vc) / 3,
    )


def inverse_fortescue(seq: SequenceComponents) -> tuple[complex, complex, complex]:
    """Reconstruct (Va, Vb, Vc) from sequence components (exact inverse)."""
    a = ALPHA
    a2 = ALPHA * ALPHA
    va = seq.v0 + seq.v1 + seq.v2
    vb = seq.v0 + a2 * seq.v1 + a * seq.v2
    vc = seq.v0 + a * seq.v1 + a2 * seq.v2
    return va, vb, vc


def vuf(seq: SequenceComponents) -> float:
    """Voltage unbalance factor: 100 |v2| / |v1| percent.

    Raises ZeroPositiveSequence when |v1| = 0 (the ratio is undefined).
    """
    mag1 = abs(seq.v1)
    if mag1 == 0.0:
        raise ZeroPositiveSequence("positive-sequence magnitude is zero")
    return 100.0 * abs(seq.v2) / mag1


def rms_voltage(va_mag: float, vb_mag: float, vc_mag: float) -> float:
    """RMS of the three phase-voltage magnitudes: sqrt((Va^2+Vb^2+Vc^2)/3)."""
    return math.sqrt((va_mag * va_mag + vb_mag * vb_mag + vc_mag * vc_mag) / 3.0)


def check_vuf_norm(vuf_pct: float, norm: str) -> bool:
    """True iff the given VUF (percent) is within the named norm's limit."""
    try:
        limit = VUF_NORM_LIMITS[norm]
    except KeyError:
        raise UnknownNorm(norm) from None
    return vuf_pct <= limit


# --- per-step views ----------------------------------------------------------


@dataclass(frozen=True)
class DispatchAction:
    """Per-timestep command for one battery: connection phase and power."""

    battery_id: str
    phase: Phase
    p_kw: float = 0.0
    q_kvar: float = 0.0


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
        traj, row = self.trajectory, self.row
        return VoltageSolution(
            traj.topology.nodes, traj.voltages[row], traj.currents[row], int(traj.iterations[row])
        )


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
class SweepRow:
    """One cell of a sweep table; ``error`` is set when the run failed."""

    kind: DeviceKind
    node: str
    penetration_pct: float
    result: ScenarioResult | None
    error: str | None = None
