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

The sweep runs on ``Topology``, the feeder's one index of rows and
impedances, built once per call from the breadth-first node order, and on
work buffers that ``_Kernel`` allocates once per call:

- each depth level is one contiguous row range, so the forward sweep
  assigns a level as a slice, ``v[:, lo:hi] = v[:, parent[lo:hi]] - drop``;
- siblings sit on adjacent rows, so the children of a level fall into
  sibling-rank groups (the r-th child to add into its parent, adding from
  the highest row down); each group is one plain fancy-index ``+=``, since
  no parent appears twice in a group, and the groups run in rank order;
- voltages are gathered through flat indices ``node*4 + cond`` and
  ``node*4 + 3`` into a ``(row, node*4)`` view;
- device sinks are two ``np.bincount`` calls (real and imaginary parts)
  over flat ``(row, node, conductor)`` indices, phase entries first, then
  the negated neutral ones. This equals adding entry by entry into zeros,
  bit for bit: ``bincount`` adds in input order starting from +0.0; phase
  and neutral bins never overlap; ``a - x`` and ``a + (-x)`` give the same
  bits; a dead entry adds exactly +0.0;
- a row collapses when a live entry sees less than 0.5 pu line to
  neutral; nothing is clamped, since a collapsed row leaves the batch
  before its sinks are read. The rows are screened with numpy's SIMD
  ``abs`` of the complex line-to-neutral voltages, which is several times
  faster than ``np.hypot`` but may differ from it in the last bits. A row
  whose smallest live ``abs`` exceeds 0.5 pu by a relative 1e-9, far more
  than the two can differ, cannot collapse; every other row, and every row
  holding a live NaN, takes the exact path: the smallest live ``np.hypot``
  magnitude. The screen's values reach no output;
- gathers along the node axis of a level's parents or a sibling group use
  ``np.take`` where the rows do not step by one, and a slice where they do.

Both treat devices as constant-power (re-evaluated against updated voltage
every iteration), start flat (source phasors, zero neutral), and stop when
the largest voltage change in one pass is at most tol_pu * v_base_ln. A
sweep row whose largest change is not finite (an overflow) fails on that
pass, and the kernel raises no numpy warning for it.
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
from operator import attrgetter
from typing import Mapping

import numpy as np

from .errors import (
    NonConvergence,
    PhasebalError,
    UnknownNode,
    VoltageCollapse,
)
from .network import CONDUCTORS, Device, Feeder

_COLLAPSE_PU = 0.5

_SEGMENT_FIELDS = attrgetter(
    "to_node", "from_node", "length_km", "z_phase_per_km", "z_neutral_per_km", "z_mutual_per_km"
)

#: Most sweep passes a solve may take: a hundred times the default, so that a
#: tolerance no pass can reach still ends in NonConvergence.
MAX_ITER = 10_000


@dataclass(frozen=True)
class SolverSettings:
    tol_pu: float = 1e-8
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.tol_pu < math.inf:
            raise ValueError(f"tol_pu must be finite and > 0, got {self.tol_pu}")
        if isinstance(self.max_iter, float):  # JSON Schema's integers include 5.0
            if not self.max_iter.is_integer():
                raise ValueError(f"max_iter must be an integer, got {self.max_iter}")
            object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.max_iter > MAX_ITER:
            raise ValueError(f"max_iter must be at most {MAX_ITER}, got {self.max_iter}")


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


def source_phasors(v_base_ln: float) -> tuple[complex, complex, complex]:
    """Balanced source phasors: A at 0 deg, B at -120 deg, C at +120 deg."""
    return (
        complex(v_base_ln, 0.0),
        v_base_ln * cmath.exp(-2j * math.pi / 3),
        v_base_ln * cmath.exp(+2j * math.pi / 3),
    )


class Topology:
    """Index arrays and stacked impedances of one feeder: its one map from
    names to rows. ``nodes`` names the rows (breadth-first order, source
    0), ``index`` maps a name to its row; ``parent`` and ``feed_seg`` give
    each node's parent row and feeding segment (-1 at the source),
    ``seg_child`` the child row of each segment; ``z`` stacks the 4x4
    segment impedances in ohms in segment order, ``z_node`` the same in
    node order (row i holds the segment feeding node i + 1), and
    ``r_phase``, ``r_neutral`` the real parts of their phase and neutral
    diagonals, bit for bit Python's ``(z_per_km * length_km).real``.

    ``levels`` holds, for depth 1, 2, ..., the level's contiguous rows as
    ``(lo, hi)``, their parents, and the level's sibling-rank groups as
    ``(parents, children)`` in rank order: the children that are the r-th
    to add into their parent when siblings add from the highest row down.
    Rows are slices where they step by one, else index arrays.
    """

    def __init__(self, feeder: Feeder) -> None:
        n, segments = len(feeder.nodes), feeder.segments
        self.n = n
        self.v_base = feeder.v_base_ln
        self.nodes = feeder.nodes
        self.index = dict(zip(feeder.nodes, range(n)))
        to, frm, length, *per_km = list(zip(*map(_SEGMENT_FIELDS, segments))) or [()] * 6
        row = self.index.__getitem__
        self.seg_child = np.fromiter(map(row, to), np.intp, len(to))
        self.parent = np.full(n, -1, dtype=np.intp)
        self.parent[self.seg_child] = np.fromiter(map(row, frm), np.intp, len(frm))
        self.feed_seg = np.full(n, -1, dtype=np.intp)
        self.feed_seg[self.seg_child] = np.arange(len(segments))
        # phase, neutral and mutual z * length as Python's complex * float makes them
        length, per_km = np.array(length, dtype=float), np.array(per_km, dtype=complex)
        zp, zn, zm = z_seg = np.empty((3, len(segments)), dtype=complex)
        z_seg.real = per_km.real * length - per_km.imag * 0.0
        z_seg.imag = per_km.real * 0.0 + per_km.imag * length
        self.r_phase, self.r_neutral = z_seg.real[:2].copy()
        self.z = np.empty((len(segments), 4, 4), dtype=complex)
        self.z[:] = zm[:, None, None]
        for c in range(3):
            self.z[:, c, c] = zp
        self.z[:, 3, 3] = zn
        self.z_node = self.z[self.feed_seg[1:]]

        par = self.parent[1:]
        if (par < 0).any() or (par >= np.arange(1, n)).any() or (par[1:] < par[:-1]).any():
            raise ValueError("feeder nodes are not in breadth-first order")
        # depth by pointer jumping: (distance to ``up``, ``up``) doubles each round
        depth = np.ones(n, dtype=np.intp)
        depth[0], up = 0, self.parent.copy()
        up[0] = 0
        while up.any():
            depth += depth[up]
            up = up[up]
        # siblings sit on adjacent rows: rank = later siblings, ordered by parent
        rank = np.searchsorted(par, par, side="right") - np.arange(1, n)
        # children by (depth, rank), rows ascending within a group
        order = 1 + np.lexsort((rank, depth[1:]))
        key = depth[order] * n + rank[order - 1]
        cuts = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(), n - 1] if n > 1 else [0]
        lo, hi = cuts[:-1], cuts[1:]
        starts = ((depth[1:] != depth[:-1]).nonzero()[0] + 1).tolist()
        level_groups = [[] for _ in starts]
        pairs = zip(_as_indices(self.parent[order], lo, hi), _as_indices(order, lo, hi))
        for d, pair in zip(depth[order[lo]].tolist(), pairs):
            level_groups[d - 1].append(pair)
        self.levels = [
            # a level of one group has one child per parent: its group's parents
            (a, b, groups[0][0] if len(groups) == 1 else self.parent[a:b], groups)
            for a, b, groups in zip(starts, starts[1:] + [n], level_groups)
        ]
        self.flat = np.zeros((n, 4), dtype=complex)
        self.flat[:, :3] = source_phasors(self.v_base)


def _as_indices(rows: np.ndarray, lo: list[int], hi: list[int]) -> list[slice | np.ndarray]:
    """Each strictly increasing ``rows[lo:hi]`` as a slice when it steps by
    one (indexing with it then copies no data), else as an index array."""
    first, last = rows[lo].tolist(), rows[np.array(hi, dtype=np.intp) - 1].tolist()
    return [
        slice(f, l + 1) if l - f == b - a - 1 else rows[a:b]
        for a, b, f, l in zip(lo, hi, first, last)
    ]


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


class _Kernel:
    """The per-pass arithmetic of ``sweep_batch`` on work buffers allocated
    once per call for its ``(row, entry)`` injections ``s_va``; a pass
    works on the first rows of each buffer, the rows still running. Entry
    e draws ``s_va[:, e]`` (VA) between conductor ``cond[e]`` of node row
    ``node[e]`` and that node's neutral; ``take`` holds its flat indices in
    a row and ``bins`` those of every row, row by row, so that the rows still
    running are a prefix (see the module docstring). The kernel reads the
    voltages it is given and edits none of them.
    """

    def __init__(self, topo: Topology, node: np.ndarray, cond: np.ndarray, s_va: np.ndarray):
        batch, entries = s_va.shape
        self.topo = topo
        self.s_va = s_va
        self.dead = s_va == 0
        # above this, abs(v) within a few ulps of hypot is above 0.5 pu
        self.screen = _COLLAPSE_PU * topo.v_base * (1 + 1e-9)
        self.take = node * 4 + cond, node * 4 + 3
        offset = np.arange(batch)[:, None] * (topo.n * 4)
        self.bins = (offset + np.concatenate(self.take)).ravel()
        self.gather = np.empty((2, batch, entries), dtype=complex)
        self.acc = np.empty((batch, topo.n, 4), dtype=complex)

    def keep(self, keep: np.ndarray, *buffers: np.ndarray) -> None:
        """Keep the rows where ``keep`` holds, in order, moving them to the
        front of ``buffers``."""
        self.s_va, self.dead = self.s_va[keep], self.dead[keep]
        for buffer in buffers:
            buffer[: len(self.s_va)] = buffer[: len(keep)][keep]

    def device_currents(self, v: np.ndarray) -> np.ndarray:
        """Fill ``acc`` with the current each node draws per conductor at
        the voltages ``v`` ``(row, node, 4)`` and return ``v_min`` per row:
        on the rows the ``abs`` screen hands to the exact path (see the
        module docstring), the smallest line-to-neutral magnitude a nonzero
        entry sees, in pu; +inf on the rows it passes, all of whose live
        magnitudes are above 0.5 pu, and on rows without a nonzero entry.
        So ``v_min < 0.5`` marks exactly the rows that collapse, with their
        exact minimum.

        I = conj(S / V_ln) leaves the phase and returns through the
        neutral, at ``v`` as it is: nothing is clamped, and the sinks of a
        row that collapses are never read. Each sink is the sum in entry
        order from +0.0 that adding entry by entry into zeros makes, bit for
        bit (see the module docstring); a dead entry adds exactly +0.0, not
        ``conj(0 / v)``, whose imaginary part is -0.0, nor a NaN.
        """
        rows, e = len(v), self.s_va.shape[1]
        flat = v.reshape(rows, -1)
        v_ln, v_n = self.gather[:, :rows]
        np.take(flat, self.take[0], axis=1, out=v_ln, mode="clip")
        np.take(flat, self.take[1], axis=1, out=v_n, mode="clip")
        np.subtract(v_ln, v_n, out=v_ln)
        spare = v_n.view(float)  # (row, 2 * entry), free once v_ln is made
        # screen with numpy's SIMD abs, within a few ulps of hypot; NaN fails it
        mag = np.abs(v_ln, out=spare[:, :e])
        np.copyto(mag, np.inf, where=self.dead)
        v_min = np.full(rows, np.inf)
        exact = np.flatnonzero(~(mag.min(axis=1, initial=np.inf) > self.screen))
        if exact.size:
            near = v_ln[exact]
            mag = np.hypot(near.real, near.imag)
            # dividing by v_base rounds monotonically, so it commutes with the minimum
            least = np.fmin.reduce(mag, axis=1, where=~self.dead[exact], initial=np.inf)
            v_min[exact] = least / self.topo.v_base
        # a dead entry at 0 V, and a live one on a row that collapses
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = np.divide(self.s_va, v_ln, out=v_ln)  # I = conj(q)
        np.copyto(q, 0, where=self.dead)
        bins, size, acc = self.bins[: rows * 2 * e], v.size, self.acc[:rows]
        spare[:, :e] = q.real  # weights: the phase entries, then the negated neutral ones
        np.negative(q.real, out=spare[:, e:])
        acc.real = np.bincount(bins, spare.ravel(), size).reshape(acc.shape)
        spare[:, e:] = q.imag
        weights = q.view(float)
        np.negative(spare[:, e:], out=weights[:, :e])
        weights[:, e:] = spare[:, e:]
        acc.imag = np.bincount(bins, weights.ravel(), size).reshape(acc.shape)
        return v_min

    def branch_currents(self, rows: int) -> np.ndarray:
        """Accumulate the sinks in ``acc`` into branch currents leaf to
        root, deepest level first; within a level siblings add into their
        parent from the highest row down, one sibling-rank group at a time.
        Returns ``acc[:rows]``, where each node holds the current of the
        segment feeding it."""
        acc = self.acc[:rows]
        for _, _, _, groups in reversed(self.topo.levels):
            for parents, children in groups:
                if isinstance(parents, slice):
                    acc[:, parents] += _columns(acc, children)
                else:
                    acc[:, parents] = _columns(acc, parents) + _columns(acc, children)
        return acc

    def forward_voltages(self, v: np.ndarray, v_new: np.ndarray) -> np.ndarray:
        """V_child = V_parent - Z I across all four conductors, root to
        leaf, into ``v_new``, whose source row holds the source. The drops
        go into the rows they update, so each level is one subtraction in
        place. Returns the largest |V_new - V| of each row, the change
        written into ``v``."""
        rows = len(v)
        np.matmul(self.topo.z_node, self.acc[:rows, 1:, :, None], out=v_new[:, 1:, :, None])
        for lo, hi, parents, _ in self.topo.levels:
            np.subtract(_columns(v_new, parents), v_new[:, lo:hi], out=v_new[:, lo:hi])
        change = np.subtract(v_new[:, 1:], v[:, 1:], out=v[:, 1:])
        return np.abs(change).max(axis=(1, 2), initial=0.0)


def _columns(a: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """``a[:, rows]``: a view for a slice, else a copy by ``np.take``,
    which gathers faster than fancy indexing."""
    return a[:, rows] if isinstance(rows, slice) else np.take(a, rows, axis=1)


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
    nonzero entry falls below 0.5 pu (VoltageCollapse). A row whose
    largest change is not finite (an overflow) fails on that pass with
    NonConvergence and that residual; rows still running after
    ``max_iter`` passes fail with NonConvergence.
    """
    batch = s_va.shape[0]
    out_v = np.zeros((batch, topo.n, 4), dtype=complex)
    out_i = np.zeros((batch, topo.z.shape[0], 4), dtype=complex)
    iterations = np.zeros(batch, dtype=int)
    failures: dict[int, PhasebalError] = {}
    kernel = _Kernel(topo, node, cond, s_va)
    rows = np.arange(batch)
    v = np.repeat(topo.flat[None], batch, axis=0)
    v_new = v.copy()
    tol_v = settings.tol_pu * topo.v_base
    delta = np.full(batch, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, settings.max_iter + 1):
            live = len(rows)
            if live == 0:
                break
            v_min = kernel.device_currents(v[:live])
            collapsed = v_min < _COLLAPSE_PU
            if collapsed.any():
                for row, v_pu in zip(rows[collapsed].tolist(), v_min[collapsed].tolist()):
                    failures[row] = VoltageCollapse(it, v_pu)
                keep = ~collapsed
                kernel.keep(keep, v, kernel.acc)
                rows, live = rows[keep], int(keep.sum())
            currents = kernel.branch_currents(live)
            delta = kernel.forward_voltages(v[:live], v_new[:live])
            v, v_new = v_new, v
            done = delta <= tol_v
            diverged = ~np.isfinite(delta)
            if done.any():
                finished = np.flatnonzero(done)
                out_v[rows[done]] = v[finished]
                out_i[rows[done]] = currents[np.ix_(finished, topo.seg_child)]
                iterations[rows[done]] = it
            for row, residual in zip(rows[diverged].tolist(), delta[diverged].tolist()):
                failures[row] = NonConvergence(it, residual)
            if done.any() or diverged.any():
                keep = ~(done | diverged)
                kernel.keep(keep, v)
                rows, delta = rows[keep], delta[keep]
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
