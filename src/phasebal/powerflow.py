"""Three-phase four-wire power flow for radial feeders.

Two structurally different solvers cover the same contract:

- ``sweep_batch``: the branch-incidence forward-backward sweep (Teng, "A
  direct approach for distribution system load flow solutions", IEEE TPWRD
  18(3), 2003) on the explicit-neutral four-wire model of Ciric, Feltrin &
  Ochoa (IEEE TPWRS 18(4), 2003). Every snapshot of a batch is one row of a
  ``(batch, node, conductor)`` array. Each pass evaluates constant-power
  device currents at the present voltages, accumulates branch currents
  leaf-to-root one tree level at a time, then propagates the voltage drops
  of all four conductors root-to-leaf. A row stops on the pass where it
  converges, so its iteration count is that of a solve on its own.
- ``oracle_solve``: dense cross-check for small feeders. Assembles the full
  4n x 4n nodal admittance system and fixed-point iterates on device current
  injections against the reduced linear system.

Both treat devices as constant-power (re-evaluated against updated voltage
every iteration), start flat (source phasors, zero neutral), and stop when
the largest voltage change in one pass is at most tol_pu * v_base_ln.
Unbalanced phase currents return through the explicit neutral conductor,
which is grounded at the source only. ``segment_losses`` gives |I|^2 R per
conductor, exact when the mutual impedance has no resistive part.

Arrays are combined element by element in the order the scalar formulas
read, so results do not depend on batch size or row position. Magnitudes
use ``np.hypot`` (what ``abs`` of a complex computes) and squares
``np.float_power(x, 2.0)`` (what ``x ** 2`` computes).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    NonConvergence,
    PhasebalError,
    UnknownNode,
    VoltageCollapse,
)
from .network import CONDUCTORS, Device, Feeder

#: Conductor indices within the per-node 4-vector.
_IDX = {"A": 0, "B": 1, "C": 2, "N": 3}
_COLLAPSE_PU = 0.5


@dataclass(frozen=True)
class SolverSettings:
    tol_pu: float = 1e-8
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not self.tol_pu > 0:
            raise ValueError(f"tol_pu must be > 0, got {self.tol_pu}")
        if isinstance(self.max_iter, float):  # JSON Schema's integers include 5.0
            if not self.max_iter.is_integer():
                raise ValueError(f"max_iter must be an integer, got {self.max_iter}")
            object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VoltageSolution):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.iterations == other.iterations
            and np.array_equal(self.voltages, other.voltages)
            and np.array_equal(self.currents, other.currents)
        )


def source_phasors(v_base_ln: float) -> tuple[complex, complex, complex]:
    """Balanced source phasors: A at 0 deg, B at -120 deg, C at +120 deg."""
    return (
        complex(v_base_ln, 0.0),
        v_base_ln * cmath.exp(-2j * math.pi / 3),
        v_base_ln * cmath.exp(+2j * math.pi / 3),
    )


class Topology:
    """Index arrays and stacked segment impedances of one feeder.

    ``index`` maps node name to its row (breadth-first order, source 0);
    ``parent`` and ``feed_seg`` give each node's parent row and feeding
    segment (-1 at the source); ``levels[d]`` holds the rows at depth d + 1
    in decreasing order, which is the order the leaf-to-root accumulation
    adds siblings into their parent; ``z`` stacks the 4x4 segment
    impedance matrices in ohms.
    """

    def __init__(self, feeder: Feeder) -> None:
        n = len(feeder.nodes)
        self.n = n
        self.v_base = feeder.v_base_ln
        self.index = {name: i for i, name in enumerate(feeder.nodes)}
        self.parent = np.full(n, -1, dtype=np.intp)
        self.feed_seg = np.full(n, -1, dtype=np.intp)
        zp, zn, zm = [], [], []
        for k, seg in enumerate(feeder.segments):
            child = self.index[seg.to_node]
            self.parent[child] = self.index[seg.from_node]
            self.feed_seg[child] = k
            zp.append(seg.z_phase_per_km * seg.length_km)
            zn.append(seg.z_neutral_per_km * seg.length_km)
            zm.append(seg.z_mutual_per_km * seg.length_km)
        self.z = np.empty((len(zm), 4, 4), dtype=complex)
        self.z[:] = np.array(zm, dtype=complex)[:, None, None]
        for c in range(3):
            self.z[:, c, c] = zp
        self.z[:, 3, 3] = zn

        depth = [0] * n
        for i in range(1, n):  # parents precede children in breadth-first order
            depth[i] = depth[self.parent[i]] + 1
        depth_arr = np.array(depth)
        self.levels = [
            np.flatnonzero(depth_arr == d)[::-1] for d in range(1, max(depth, default=0) + 1)
        ]
        self.flat = np.zeros((n, 4), dtype=complex)
        self.flat[:, :3] = source_phasors(self.v_base)


@dataclass(frozen=True)
class BatchSolution:
    """Result of ``sweep_batch``: per-row voltages ``(batch, node, 4)``,
    branch currents ``(batch, segment, 4)`` and pass counts, with
    ``failures`` mapping each row that did not converge to the
    VoltageCollapse or NonConvergence it raised (its other entries are 0)."""

    voltages: np.ndarray
    currents: np.ndarray
    iterations: np.ndarray
    failures: dict[int, PhasebalError]

    def solution(self, nodes: tuple[str, ...], row: int) -> VoltageSolution:
        return VoltageSolution(
            nodes, self.voltages[row], self.currents[row], int(self.iterations[row])
        )


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


def _device_currents(
    topo: Topology, v: np.ndarray, node: np.ndarray, cond: np.ndarray, s_va: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Current drawn at each node per conductor, from constant-power devices.

    ``v`` is ``(batch, node, 4)``; entry e draws ``s_va[:, e]`` (VA) between
    conductor ``cond[e]`` of row ``node[e]`` and that node's neutral:
    I = conj(S / V_ln) leaves the phase and returns through the neutral.
    Returns (sinks, v_min_pu) with the smallest line-to-neutral magnitude
    seen by a nonzero entry per row (inf without one). The denominator is
    clamped at 0.5 pu; a clamp shows up as v_min_pu < 0.5.
    """
    floor = _COLLAPSE_PU * topo.v_base
    v_ln = v[:, node, cond] - v[:, node, 3]
    mag = np.hypot(v_ln.real, v_ln.imag)
    live = s_va != 0
    v_min = np.fmin.reduce(np.where(live, mag / topo.v_base, np.inf), axis=1, initial=np.inf)
    low = mag < floor
    if low.any():
        nominal = np.array([p * _COLLAPSE_PU for p in source_phasors(topo.v_base)])[cond]
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = v_ln * (floor / mag)
        v_ln = np.where(low, np.where(mag == 0.0, nominal, scaled), v_ln)
    i_dev = np.where(live, np.conj(s_va / v_ln), 0)
    sinks = np.zeros(v.shape, dtype=complex)
    np.add.at(sinks, (slice(None), node, cond), i_dev)
    np.subtract.at(sinks, (slice(None), node, 3), i_dev)
    return sinks, v_min


def _branch_currents(topo: Topology, sinks: np.ndarray) -> np.ndarray:
    """Accumulate branch currents leaf-to-root, deepest level first; within
    a level siblings add into their parent from the highest row down."""
    acc = sinks.copy()
    for level in reversed(topo.levels):
        np.add.at(acc, (slice(None), topo.parent[level]), acc[:, level])
    currents = np.empty((sinks.shape[0], topo.z.shape[0], 4), dtype=complex)
    currents[:, topo.feed_seg[1:]] = acc[:, 1:]
    return currents


def _forward_voltages(topo: Topology, v: np.ndarray, currents: np.ndarray) -> np.ndarray:
    """V_child = V_parent - Z I across all four conductors, root to leaf."""
    drop = np.matmul(topo.z, currents[..., None])[..., 0]
    v_new = v.copy()
    for level in topo.levels:
        v_new[:, level] = v_new[:, topo.parent[level]] - drop[:, topo.feed_seg[level]]
    return v_new


def sweep_batch(
    topo: Topology,
    node: np.ndarray,
    cond: np.ndarray,
    s_va: np.ndarray,
    settings: SolverSettings = SolverSettings(),
) -> BatchSolution:
    """Solve every row of ``s_va`` (``(batch, entry)`` complex VA, load
    convention) by forward-backward sweep over one ``(batch, node, 4)``
    array. Entry e sits on conductor ``cond[e]`` of node row ``node[e]``.

    A row leaves the batch on the pass where its largest voltage change
    falls to tol_pu * v_base_ln, or where a line-to-neutral voltage of a
    nonzero entry falls below 0.5 pu (VoltageCollapse); rows still running
    after ``max_iter`` passes fail with NonConvergence.
    """
    batch = s_va.shape[0]
    out_v = np.zeros((batch, topo.n, 4), dtype=complex)
    out_i = np.zeros((batch, topo.z.shape[0], 4), dtype=complex)
    iterations = np.zeros(batch, dtype=int)
    failures: dict[int, PhasebalError] = {}
    rows = np.arange(batch)
    v = np.repeat(topo.flat[None], batch, axis=0)
    tol_v = settings.tol_pu * topo.v_base
    delta = np.full(batch, np.inf)
    for it in range(1, settings.max_iter + 1):
        if rows.size == 0:
            break
        sinks, v_min = _device_currents(topo, v, node, cond, s_va)
        collapsed = v_min < _COLLAPSE_PU
        if collapsed.any():
            for row, v_pu in zip(rows[collapsed].tolist(), v_min[collapsed].tolist()):
                failures[row] = VoltageCollapse(it, v_pu)
            keep = ~collapsed
            rows, v, s_va, sinks = rows[keep], v[keep], s_va[keep], sinks[keep]
        currents = _branch_currents(topo, sinks)
        v_new = _forward_voltages(topo, v, currents)
        delta = np.abs(v_new - v).max(axis=(1, 2))
        v = v_new
        done = delta <= tol_v
        if done.any():
            out_v[rows[done]] = v[done]
            out_i[rows[done]] = currents[done]
            iterations[rows[done]] = it
            keep = ~done
            rows, v, s_va, delta = rows[keep], v[keep], s_va[keep], delta[keep]
    for row, residual in zip(rows.tolist(), delta.tolist()):
        failures[row] = NonConvergence(settings.max_iter, residual)
    return BatchSolution(out_v, out_i, iterations, failures)


def _snapshot_entries(
    topo: Topology, feeder: Feeder, injections: Mapping[Device, complex] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node rows, conductors, VA) of one snapshot, one entry per connected
    phase of each device in ``_effective_injections`` order."""
    node, cond, s_va = [], [], []
    for dev, s_kva in _effective_injections(feeder, injections):
        for ph in dev.connected_phases:
            node.append(topo.index[dev.node])
            cond.append(_IDX[ph.value])
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
    for k, seg in enumerate(feeder.segments):
        yb = np.linalg.inv(topo.z[k])
        p = 4 * topo.index[seg.from_node]
        c = 4 * topo.index[seg.to_node]
        y[p : p + 4, p : p + 4] += yb
        y[c : c + 4, c : c + 4] += yb
        y[p : p + 4, c : c + 4] -= yb
        y[c : c + 4, p : p + 4] -= yb

    fixed = np.arange(4)  # source node is index 0 after normalization
    free = np.arange(4, n4)
    v = topo.flat[None].copy()
    if free.size == 0:
        return VoltageSolution(feeder.nodes, v[0], np.zeros((0, 4), dtype=complex), 1)

    y_uu = y[np.ix_(free, free)]
    y_uf = y[np.ix_(free, fixed)]
    v_fixed = v.reshape(-1)[fixed]
    tol_v = settings.tol_pu * feeder.v_base_ln
    delta = math.inf
    for it in range(1, settings.max_iter + 1):
        sinks, v_min = _device_currents(topo, v, node, cond, s_va)
        if v_min[0] < _COLLAPSE_PU:
            raise VoltageCollapse(it, float(v_min[0]))
        rhs = -sinks.reshape(-1)[free] - y_uf @ v_fixed
        v_new = v.copy()
        v_new.reshape(-1)[free] = np.linalg.solve(y_uu, rhs)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= tol_v:
            sinks, _ = _device_currents(topo, v, node, cond, s_va)
            currents = _branch_currents(topo, sinks)
            return VoltageSolution(feeder.nodes, v[0], currents[0], it)
    raise NonConvergence(settings.max_iter, delta)


def segment_resistances(feeder: Feeder) -> tuple[np.ndarray, np.ndarray]:
    """Phase and neutral conductor resistance of every segment, ohms."""
    r_ph = [(seg.z_phase_per_km * seg.length_km).real for seg in feeder.segments]
    r_n = [(seg.z_neutral_per_km * seg.length_km).real for seg in feeder.segments]
    return np.array(r_ph, dtype=float), np.array(r_n, dtype=float)


def segment_losses(
    currents: np.ndarray, r_ph: np.ndarray, r_n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|I|^2 R / 1000 per conductor for currents ``(..., segment, 4)``:
    phase losses ``(..., segment, 3)`` and neutral losses ``(..., segment)``
    in kW."""
    amps_sq = np.float_power(np.hypot(currents.real, currents.imag), 2.0)
    return amps_sq[..., :3] * r_ph[:, None] / 1000.0, amps_sq[..., 3] * r_n / 1000.0


def power_balance_residual_kw(
    feeder: Feeder,
    solution: VoltageSolution,
    injections: Mapping[Device, complex] | None = None,
) -> float:
    """|source P - (device P + losses)| in kW, over devices below the source.

    Uses the requested device powers, so a converged solution must show the
    source supplying exactly the demanded power plus conductor losses.
    Devices on the source bus draw from the stiff source directly and do not
    appear in branch flows, hence their exclusion on both sides.
    """
    phase_loss, neutral_loss = segment_losses(solution.currents, *segment_resistances(feeder))
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
