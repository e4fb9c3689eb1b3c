"""Battery model, converter limits and phase-balancing dispatch.

Three control architectures are supported:

- A1: one battery behind a phase selector (it picks its phase each step).
- A2: three batteries with fixed phase assignments A, B, C. With
  ``allow_load_shift=False`` the three active powers are additionally
  constrained to sum to zero each timestep, so the fleet redistributes
  power among phases without moving energy in time.
- A3: three batteries, each behind its own phase selector.

Dispatch sign convention follows the device convention: p_kw > 0 charges
(consumes from the grid), p_kw < 0 discharges (injects). Reactive power
rides on the converter rating and never touches the state of charge.

Dispatch is one function per operation, on plain floats: ``bounds_at``,
``clip_power``, ``next_soc``, ``zero_sum_shift``, ``schedule_requests`` and
``greedy_powers``. A scenario's dispatch scan calls them for each unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import RatingExceeded, SocOverflow, SocUnderflow
from .network import PHASES, Phase

#: Default energy sizing: enough capacity to charge or discharge for 5 hours
#: at rated power.
DEFAULT_HOURS_AT_RATED = 5.0

#: Search resolution of the greedy balancing controller, kW.
GRID_STEP_KW = 0.1

#: Most cells a greedy search step may build (``greedy_cells``); at a peak
#: of 16-41 bytes a cell (tracemalloc), at most about 170 MB.
MAX_GREEDY_CELLS = 2**22

_EPS = 1e-9


@dataclass(frozen=True)
class Battery:
    """Storage unit state: converter ratings, efficiencies and SoC.

    ``e_max_kwh`` defaults to 5 h at rated power; ``s_conv_kva`` defaults to
    the active-power rating (no spare reactive headroom). The numbers are
    stored as floats, so dispatch reports float powers and SoC.
    """

    id: str
    p_max_kw: float
    e_max_kwh: float | None = None
    soc_kwh: float = 0.0
    eta_c: float = 1.0
    eta_d: float = 1.0
    s_conv_kva: float | None = None

    def __post_init__(self) -> None:
        if not self.p_max_kw > 0:
            raise ValueError(f"battery {self.id!r}: p_max_kw must be > 0")
        if self.e_max_kwh is None:
            object.__setattr__(self, "e_max_kwh", DEFAULT_HOURS_AT_RATED * self.p_max_kw)
        if self.s_conv_kva is None:
            object.__setattr__(self, "s_conv_kva", self.p_max_kw)
        for name in ("p_max_kw", "e_max_kwh", "soc_kwh", "s_conv_kva"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"battery {self.id!r}: {name} must be finite")
        for name in ("p_max_kw", "s_conv_kva"):  # dispatch injects up to these, in VA
            if not math.isfinite(getattr(self, name) * 1000):
                raise ValueError(f"battery {self.id!r}: {name} * 1000 must be finite")
        if not 0 < self.eta_c <= 1 or not 0 < self.eta_d <= 1:
            raise ValueError(f"battery {self.id!r}: efficiencies must be in (0, 1]")
        if self.p_max_kw > self.s_conv_kva + _EPS:
            raise ValueError(f"battery {self.id!r}: p_max_kw exceeds converter rating")
        if not 0 <= self.soc_kwh <= self.e_max_kwh + _EPS:
            raise ValueError(f"battery {self.id!r}: soc_kwh outside [0, e_max_kwh]")
        for name in ("p_max_kw", "e_max_kwh", "soc_kwh", "eta_c", "eta_d", "s_conv_kva"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class DispatchAction:
    """Per-timestep command for one battery: connection phase and power."""

    battery_id: str
    phase: Phase
    p_kw: float = 0.0
    q_kvar: float = 0.0


class ArchKind(str, Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"


@dataclass(frozen=True)
class Architecture:
    """Storage control architecture; ``allow_load_shift`` applies to A2."""

    kind: ArchKind
    allow_load_shift: bool = True

    @property
    def n_batteries(self) -> int:
        return 1 if self.kind is ArchKind.A1 else 3


@dataclass(frozen=True)
class StylizedScheduleCfg:
    """Clock windows and target phase for the fixed charge/discharge schedule.

    Windows are [start_h, end_h) in hours of day. During the generation
    window the unit on ``target_phase`` charges at rated power (the other
    two units, if any, discharge); during the load window the roles swap.
    """

    dg_window: tuple[float, float] = (10.0, 15.0)
    ev_window: tuple[float, float] = (18.0, 23.0)
    target_phase: Phase = Phase.A


def next_soc(battery: Battery, soc_kwh: float, p_kw: float, q_kvar: float, dt_h: float) -> float:
    """State of charge after drawing p_kw / q_kvar for dt_h hours from
    ``soc_kwh``: charging stores eta_c * p * dt, discharging drains
    |p| * dt / eta_d, reactive power leaves it alone. A power not clipped
    first (``clip_power``) raises RatingExceeded, SocUnderflow or SocOverflow."""
    if abs(p_kw) > battery.p_max_kw + _EPS:
        raise RatingExceeded(battery.id, f"|p|={abs(p_kw):.6g} kW > rating {battery.p_max_kw} kW")
    if math.hypot(p_kw, q_kvar) > battery.s_conv_kva + _EPS:
        raise RatingExceeded(
            battery.id,
            f"|s|={math.hypot(p_kw, q_kvar):.6g} kVA > converter rating {battery.s_conv_kva} kVA",
        )
    if p_kw > 0:
        soc = soc_kwh + battery.eta_c * p_kw * dt_h
    elif p_kw < 0:
        soc = soc_kwh + p_kw * dt_h / battery.eta_d
    else:
        soc = soc_kwh
    if soc < -_EPS:
        raise SocUnderflow(battery.id, soc)
    if soc > battery.e_max_kwh + _EPS:
        raise SocOverflow(battery.id, soc, battery.e_max_kwh)
    return min(max(soc, 0.0), battery.e_max_kwh)


def bounds_at(battery: Battery, soc_kwh: float, dt_h: float) -> tuple[float, float]:
    """Feasible active-power interval [p_min, p_max] for one step of dt_h
    from state of charge ``soc_kwh``."""
    headroom = (battery.e_max_kwh - soc_kwh) / (battery.eta_c * dt_h)
    available = soc_kwh * battery.eta_d / dt_h
    return (max(-battery.p_max_kw, -available), min(battery.p_max_kw, headroom))


def clip_power(
    battery: Battery, p_kw: float, q_kvar: float, lo: float, hi: float
) -> tuple[float, float]:
    """Clip (p_kw, q_kvar) into the feasible set (idempotent): p into [lo, hi]
    (``bounds_at``), then q scaled down into the converter circle."""
    p = min(max(p_kw, lo), hi)
    q = q_kvar
    if math.hypot(p, q) > battery.s_conv_kva:
        q_max = math.sqrt(max(battery.s_conv_kva**2 - p * p, 0.0))
        q = math.copysign(min(abs(q), q_max), q)
    return p, q


def zero_sum_shift(
    raw: Sequence[float], lo: Sequence[float], hi: Sequence[float]
) -> list[float]:
    """Euclidean projection of the raw powers onto {sum(p) = 0} within each
    unit's [lo, hi] (``bounds_at``): p_i = clip(raw_i - lam, lo_i, hi_i) for
    one shift lam shared by all units, found by a breakpoint search over the
    piecewise-linear, nonincreasing total (Brucker, "An O(n) algorithm for
    quadratic knapsack problems", Oper. Res. Letters 3(3), 1984). Powers
    whose clamped sum is already zero within 1e-9 kW come back clamped
    (lam = 0), so the map is idempotent. A box with no zero-sum point (only
    through the SoC slack ``Battery`` allows) gives its nearest end, which
    the caller tells by the sum."""

    def shifted(lam: float) -> list[float]:
        return [min(max(r - lam, l), h) for r, l, h in zip(raw, lo, hi)]

    lam = 0.0
    if abs(sum(shifted(0.0))) > 1e-9:
        knots = sorted({r - h for r, h in zip(raw, hi)} | {r - l for r, l in zip(raw, lo)})
        totals = [sum(shifted(t)) for t in knots]
        if totals[0] <= 0.0:
            lam = knots[0]
        elif totals[-1] >= 0.0:
            lam = knots[-1]
        else:
            # the total is linear between consecutive knots, so the root
            # follows by interpolation across the first sign change
            j = next(j for j, total in enumerate(totals) if total <= 0.0)
            a, b, ga, gb = knots[j - 1], knots[j], totals[j - 1], totals[j]
            lam = a + (b - a) * ga / (ga - gb)
    return shifted(lam)


def schedule_requests(
    t_h: np.ndarray,
    arch: Architecture,
    cfg: StylizedScheduleCfg,
    p_max_kw: Sequence[float],
) -> tuple[list[Phase], np.ndarray]:
    """Raw powers of the fixed schedule at the times ``t_h``: each unit's
    phase and a ``(time, unit)`` array of kW, before any clip.

    The target-phase unit requests its rating in the generation window and
    minus its rating in the load window; the companion units of A2/A3
    request the opposite; outside both windows every request is zero (-0.0
    for a companion). A1 takes the first rating only.
    """
    hour = t_h % 24.0
    in_dg = ((cfg.dg_window[0] <= hour) & (hour < cfg.dg_window[1]))[:, None]
    in_ev = ((cfg.ev_window[0] <= hour) & (hour < cfg.ev_window[1]))[:, None]
    if arch.kind is ArchKind.A1:
        phases, p_max_kw = [cfg.target_phase], p_max_kw[:1]
    elif len(p_max_kw) != 3:
        raise ValueError(f"{arch.kind.value} needs exactly three batteries")
    else:
        phases = list(PHASES)
    rating = np.array(p_max_kw, dtype=float)
    target = np.where(in_dg, rating, np.where(in_ev, -rating, 0.0))
    is_target = np.array([phase is cfg.target_phase for phase in phases])
    return phases, np.where(is_target, target, -target)


def greedy_cells(arch: Architecture, p_max_kw: Sequence[float]) -> float:
    """Cells of the largest array one ``greedy_powers`` step builds: a unit
    has at most k = floor(2 p_max / GRID_STEP_KW) + 4 candidates, A2 spans
    kA kB kC (kA kB without load shift), and A1/A3 9 k for each unit."""
    k = [math.floor(2 * p / GRID_STEP_KW) + 4 if p < math.inf else math.inf for p in p_max_kw]
    if arch.kind is not ArchKind.A2:
        return 9 * max(k)
    return math.prod(k if arch.allow_load_shift else k[:2])


def _candidate_powers(lo: float, hi: float) -> list[float]:
    """Grid of powers in [lo, hi] at 0.1 kW resolution plus the exact
    bounds, ordered by (|p|, p) so earlier candidates win spread ties."""
    vals = {0.0} if lo <= 0.0 <= hi else set()
    k = math.ceil(lo / GRID_STEP_KW - 1e-12)
    while k * GRID_STEP_KW <= hi + 1e-12:
        vals.add(round(k * GRID_STEP_KW, 6))
        k += 1
    vals.update((lo, hi))
    return sorted(vals, key=lambda p: (abs(p), p))


def _spread3(a, b, c):
    """Elementwise max(a, b, c) - min(a, b, c) over broadcastable arrays,
    with the builtin ``max``/``min`` rule: a later value replaces the
    running extreme only if strictly beyond it, so a NaN is skipped unless
    it comes first."""
    hi = np.where(b > a, b, a)
    hi = np.where(c > hi, c, hi)
    lo = np.where(b < a, b, a)
    lo = np.where(c < lo, c, lo)
    with np.errstate(invalid="ignore"):  # inf - inf on a non-finite net, as in floats
        return np.subtract(hi, lo, out=hi)


def _last_improvement(spreads: np.ndarray, best: float) -> int | None:
    """Index the scan ``if s < best - 1e-12: best = s`` over ``spreads`` in
    C order settles on, or None when nothing beats the starting ``best``.

    The tolerance chains from each accepted value, so the result need not
    be the first occurrence of the minimum. An accepted value lies strictly
    below the starting best and every earlier value that is not NaN, so
    the scan is replayed exactly on those strict running minima alone.
    """
    flat = spreads.ravel()
    running = np.fmin.accumulate(flat)  # fmin skips NaN, which is never accepted
    np.fmin(running, best, out=running)
    record = np.empty(flat.size, dtype=bool)
    record[0] = flat[0] < best
    np.less(flat[1:], running[:-1], out=record[1:])
    j = None
    for i in np.flatnonzero(record).tolist():
        if flat[i] < best - 1e-12:
            best, j = flat[i], i
    return j


def greedy_powers(
    net: list[float], arch: Architecture, bounds: Sequence[tuple[float, float]]
) -> list[tuple[int, float]]:
    """(phase index, p_kw) per unit minimizing the max-min spread of the
    per-phase net kW (consumed) after storage, on a 0.1 kW grid within each
    unit's ``bounds_at``. A2 searches its units' joint grid (zero-sum
    triples, C taking -(p_A + p_B), without load shift); A1 and A3 assign
    units one at a time, each by exhaustive phase x power choice.

    Tie rule: candidates are scanned phase-major, then in
    ``_candidate_powers`` order by (|p|, p), A unit outermost for A2. The
    scan starts from the all-zero spread as the running best and accepts a
    candidate only below the running best minus 1e-12; the last accepted
    one wins, so the spread never worsens. One search's spreads are one
    array, on which the scan is replayed exactly."""
    if arch.kind is not ArchKind.A1 and len(bounds) != 3:
        raise ValueError(f"{arch.kind.value} needs exactly three batteries")

    if arch.kind is ArchKind.A2:
        ca, cb, cc = (np.array(_candidate_powers(lo, hi)) for lo, hi in bounds)
        pa, pb = ca[:, None], cb[None, :]
        if arch.allow_load_shift:  # (kA, kB, kC) tensor
            spreads = _spread3(
                (net[0] + pa)[..., None], (net[1] + pb)[..., None], net[2] + cc
            )
        else:  # (kA, kB) plane; a pair whose C power is out of bounds is skipped
            pc = -(pa + pb)
            lo_c, hi_c = bounds[2]
            spreads = _spread3(net[0] + pa, net[1] + pb, net[2] + pc)
            spreads[(pc < lo_c - 1e-12) | (pc > hi_c + 1e-12)] = np.inf
        j = _last_improvement(spreads, max(net) - min(net))
        if j is None:
            return [(0, 0.0), (1, 0.0), (2, 0.0)]
        ia, ib, *ic = np.unravel_index(j, spreads.shape)
        pc_j = cc[ic[0]] if arch.allow_load_shift else -(ca[ia] + cb[ib])
        return [(ph, p.item()) for ph, p in enumerate((ca[ia], cb[ib], pc_j))]

    # A1 and A3: sequential greedy with per-battery phase selection.
    out = []
    for lo, hi in bounds:
        cands = np.array(_candidate_powers(lo, hi))
        trial = np.empty((3, 3, cands.size))  # (phase value, phase chosen, candidate)
        trial[:] = np.array(net)[:, None, None]
        trial[[0, 1, 2], [0, 1, 2]] += cands
        j = _last_improvement(_spread3(*trial), max(net) - min(net))
        phase, p = (0, 0.0) if j is None else (j // cands.size, cands[j % cands.size].item())
        out.append((phase, p))
        net[phase] += p
    return out
