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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import RatingExceeded, SocOverflow, SocUnderflow
from .network import PHASES, Phase

#: Default energy sizing: enough capacity to charge or discharge for 5 hours
#: at rated power.
DEFAULT_HOURS_AT_RATED = 5.0

#: Search resolution of the greedy balancing controller, kW.
GRID_STEP_KW = 0.1

_EPS = 1e-9


@dataclass(frozen=True)
class Battery:
    """Storage unit state: converter ratings, efficiencies and SoC.

    ``e_max_kwh`` defaults to 5 h at rated power; ``s_conv_kva`` defaults to
    the active-power rating (no spare reactive headroom).
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
        if not 0 < self.eta_c <= 1 or not 0 < self.eta_d <= 1:
            raise ValueError(f"battery {self.id!r}: efficiencies must be in (0, 1]")
        if self.p_max_kw > self.s_conv_kva + _EPS:
            raise ValueError(f"battery {self.id!r}: p_max_kw exceeds converter rating")
        if not 0 <= self.soc_kwh <= self.e_max_kwh + _EPS:
            raise ValueError(f"battery {self.id!r}: soc_kwh outside [0, e_max_kwh]")


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


def apply_action(battery: Battery, action: DispatchAction, dt_h: float) -> Battery:
    """Advance SoC by one action over dt_h hours; returns the new battery.

    Charging stores eta_c * p * dt; discharging drains |p| * dt / eta_d.
    Reactive power does not affect the state of charge. The action must
    already respect the converter ratings and SoC bounds (clip with
    ``feasible_action`` first), otherwise RatingExceeded / SocUnderflow /
    SocOverflow is raised.
    """
    p, q = action.p_kw, action.q_kvar
    if abs(p) > battery.p_max_kw + _EPS:
        raise RatingExceeded(battery.id, f"|p|={abs(p):.6g} kW > rating {battery.p_max_kw} kW")
    if math.hypot(p, q) > battery.s_conv_kva + _EPS:
        raise RatingExceeded(
            battery.id,
            f"|s|={math.hypot(p, q):.6g} kVA > converter rating {battery.s_conv_kva} kVA",
        )
    if p > 0:
        soc = battery.soc_kwh + battery.eta_c * p * dt_h
    elif p < 0:
        soc = battery.soc_kwh + p * dt_h / battery.eta_d
    else:
        soc = battery.soc_kwh
    if soc < -_EPS:
        raise SocUnderflow(battery.id, soc)
    if soc > battery.e_max_kwh + _EPS:
        raise SocOverflow(battery.id, soc, battery.e_max_kwh)
    return replace(battery, soc_kwh=min(max(soc, 0.0), battery.e_max_kwh))


def power_bounds(battery: Battery, dt_h: float) -> tuple[float, float]:
    """Feasible active-power interval [p_min, p_max] for one step of dt_h."""
    headroom = (battery.e_max_kwh - battery.soc_kwh) / (battery.eta_c * dt_h)
    available = battery.soc_kwh * battery.eta_d / dt_h
    return (max(-battery.p_max_kw, -available), min(battery.p_max_kw, headroom))


def feasible_action(battery: Battery, desired: DispatchAction, dt_h: float) -> DispatchAction:
    """Clip a desired action into the battery's feasible set (idempotent).

    Active power is limited by energy headroom and the power rating; the
    reactive part is then scaled down so the apparent power fits inside the
    converter circle.
    """
    lo, hi = power_bounds(battery, dt_h)
    p = min(max(desired.p_kw, lo), hi)
    q = desired.q_kvar
    if math.hypot(p, q) > battery.s_conv_kva:
        q_max = math.sqrt(max(battery.s_conv_kva**2 - p * p, 0.0))
        q = math.copysign(min(abs(q), q_max), q)
    return replace(desired, p_kw=p, q_kvar=q)


def sum_to_zero(
    actions: Sequence[DispatchAction],
    batteries: Sequence[Battery],
    dt_h: float,
) -> tuple[list[DispatchAction], bool]:
    """Project a three-battery action set onto zero total active power.

    Returns the Euclidean projection of the raw powers onto
    {sum(p) = 0} intersected with each unit's ``power_bounds`` box. It has
    the form p_i = clip(raw_i - lam, lo_i, hi_i) for one shift lam shared
    by all units, found by a breakpoint search over the piecewise-linear,
    nonincreasing total (Brucker, "An O(n) algorithm for quadratic
    knapsack problems", Oper. Res. Letters 3(3), 1984). Actions whose
    clipped powers already sum to zero within 1e-9 kW come back clipped
    and otherwise unchanged (lam = 0), so the map is idempotent.

    Returns (actions, clipped): ``clipped`` is True only when no point of
    the box sums to zero within 1e-9 kW, and the nearest end of the box is
    returned. Since ``power_bounds`` always contains 0 (up to the SoC slack
    that ``Battery`` allows), a zero-sum point is otherwise always reached.
    """
    if len(actions) != 3 or len(batteries) != 3:
        raise ValueError("sum_to_zero expects exactly three actions and batteries")
    raw = [a.p_kw for a in actions]
    lo, hi = zip(*(power_bounds(b, dt_h) for b in batteries))

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
    out = [
        feasible_action(bat, replace(a, p_kw=p), dt_h)
        for bat, a, p in zip(batteries, actions, shifted(lam))
    ]
    return out, abs(sum(a.p_kw for a in out)) > 1e-9


def fixed_schedule_controller(
    t_h: float,
    arch: Architecture,
    cfg: StylizedScheduleCfg,
    batteries: Sequence[Battery],
    dt_h: float,
) -> list[DispatchAction]:
    """Clock-driven dispatch: charge in the generation window, discharge in
    the load window (target-phase unit), with the companion units doing the
    opposite under A2/A3. Outside both windows all actions are zero.

    Raw scheduled powers are the batteries' ratings; the result is clipped
    by ``feasible_action`` and, for A2 without load shifting, passed through
    ``sum_to_zero`` first.
    """
    hour = t_h % 24.0
    in_dg = cfg.dg_window[0] <= hour < cfg.dg_window[1]
    in_ev = cfg.ev_window[0] <= hour < cfg.ev_window[1]

    def target_power(bat: Battery) -> float:
        return bat.p_max_kw if in_dg else (-bat.p_max_kw if in_ev else 0.0)

    if arch.kind is ArchKind.A1:
        bat = batteries[0]
        raw = [DispatchAction(bat.id, cfg.target_phase, target_power(bat))]
    else:
        if len(batteries) != 3:
            raise ValueError(f"{arch.kind.value} needs exactly three batteries")
        raw = []
        for bat, phase in zip(batteries, PHASES):
            p = target_power(bat) if phase is cfg.target_phase else -target_power(bat)
            raw.append(DispatchAction(bat.id, phase, p))
        if arch.kind is ArchKind.A2 and not arch.allow_load_shift:
            raw, _ = sum_to_zero(raw, batteries, dt_h)
    return [feasible_action(b, a, dt_h) for b, a in zip(batteries, raw)]


def _candidate_powers(battery: Battery, dt_h: float) -> list[float]:
    """Grid of feasible powers at 0.1 kW resolution plus the exact bounds,
    ordered by (|p|, p) so earlier candidates win spread ties."""
    lo, hi = power_bounds(battery, dt_h)
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


def _best_phase_power(net: list[float], battery: Battery, dt_h: float) -> DispatchAction:
    """One phase-selecting unit: the exhaustive phase x power choice,
    scanned phase-major with candidates in ``_candidate_powers`` order."""
    cands = np.array(_candidate_powers(battery, dt_h))
    trial = np.empty((3, 3, cands.size))  # (phase value, phase chosen, candidate)
    trial[:] = np.array(net)[:, None, None]
    diag = np.arange(3)
    trial[diag, diag] += cands
    j = _last_improvement(_spread3(*trial), max(net) - min(net))
    if j is None:
        return DispatchAction(battery.id, Phase.A)
    phase, i = divmod(j, cands.size)
    return DispatchAction(battery.id, PHASES[phase], cands[i].item())


def greedy_balance_controller(
    per_phase_net_kw: Mapping[Phase, float],
    arch: Architecture,
    batteries: Sequence[Battery],
    dt_h: float,
) -> list[DispatchAction]:
    """Pick feasible actions that minimize the max-min spread of per-phase
    power after storage, searching a 0.1 kW power grid.

    A1 searches phase x power exhaustively. A2 searches the joint power grid
    of its three fixed-phase units (restricted to zero-sum triples, with
    the C unit taking -(p_A + p_B) within its bounds, when load shifting is
    disallowed). A3 assigns its units one at a time, each taking the
    exhaustive phase x power choice against the running adjusted load.

    Tie rule: candidates are scanned in a fixed order (phase-major, then
    ``_candidate_powers`` order by (|p|, p); for A2 the A unit outermost
    and the C unit innermost). The scan starts from the all-zero action's
    spread as the running best and accepts a candidate only if its spread
    is below the running best minus 1e-12; the last accepted candidate is
    the answer, so the spread never worsens. The spreads of one search are
    computed as one array and the scan is replayed on it exactly.
    """
    net = [float(per_phase_net_kw[ph]) for ph in PHASES]

    if arch.kind is ArchKind.A1:
        return [_best_phase_power(net, batteries[0], dt_h)]

    if len(batteries) != 3:
        raise ValueError(f"{arch.kind.value} needs exactly three batteries")

    if arch.kind is ArchKind.A2:
        ca, cb, cc = (np.array(_candidate_powers(b, dt_h)) for b in batteries)
        pa, pb = ca[:, None], cb[None, :]
        if arch.allow_load_shift:  # (kA, kB, kC) tensor
            spreads = _spread3(
                (net[0] + pa)[..., None], (net[1] + pb)[..., None], net[2] + cc
            )
        else:  # (kA, kB) plane; a pair whose C power is out of bounds is skipped
            pc = -(pa + pb)
            lo_c, hi_c = power_bounds(batteries[2], dt_h)
            spreads = _spread3(net[0] + pa, net[1] + pb, net[2] + pc)
            spreads[(pc < lo_c - 1e-12) | (pc > hi_c + 1e-12)] = np.inf
        j = _last_improvement(spreads, max(net) - min(net))
        if j is None:
            return [DispatchAction(b.id, ph) for b, ph in zip(batteries, PHASES)]
        ia, ib, *ic = np.unravel_index(j, spreads.shape)
        pc_j = cc[ic[0]] if arch.allow_load_shift else -(ca[ia] + cb[ib])
        powers = (ca[ia], cb[ib], pc_j)
        return [
            DispatchAction(b.id, ph, p.item()) for b, ph, p in zip(batteries, PHASES, powers)
        ]

    # A3: sequential greedy with per-battery phase selection.
    actions: list[DispatchAction] = []
    for bat in batteries:
        action = _best_phase_power(net, bat, dt_h)
        actions.append(action)
        net[PHASES.index(action.phase)] += action.p_kw
    return actions
