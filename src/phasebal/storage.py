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
``greedy_powers``. ``dispatch_scan``, the storage half of a scenario's
dispatch pass, calls them for each unit. ``scenarios`` and ``cli`` import
this module only where a fleet, an architecture or a schedule is built or
dispatched, so a sweep or a run without storage never loads it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import PhasebalError, RatingExceeded, SocOverflow, SocUnderflow
from .network import DG_WINDOW, EV_WINDOW, PHASES, ArchKind, Phase, as_member

if TYPE_CHECKING:
    from .scenarios import Scenario

#: Default energy sizing: enough capacity to charge or discharge for 5 hours
#: at rated power.
DEFAULT_HOURS_AT_RATED = 5.0

#: Search resolution of the greedy balancing controller, kW.
GRID_STEP_KW = 0.1

#: Most cells a greedy search step may build (``greedy_cells``); at a peak
#: of 16-41 bytes a cell (tracemalloc), at most about 170 MB. A2 with load
#: shift builds only its record rows, but in the worst case all of them.
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
class Architecture:
    """Storage control architecture; ``allow_load_shift`` applies to A2."""

    kind: ArchKind
    allow_load_shift: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", as_member(ArchKind, self.kind, "architecture kind"))
        if not isinstance(self.allow_load_shift, bool):
            raise ValueError(f"allow_load_shift must be a bool, got {self.allow_load_shift!r}")

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

    dg_window: tuple[float, float] = DG_WINDOW
    ev_window: tuple[float, float] = EV_WINDOW
    target_phase: Phase = Phase.A

    def __post_init__(self) -> None:
        phase = as_member(Phase, self.target_phase, "schedule target_phase")
        object.__setattr__(self, "target_phase", phase)
        for name in ("dg_window", "ev_window"):
            window = getattr(self, name)
            if not all(-math.inf < h < math.inf for h in window):
                raise ValueError(f"schedule {name} must be finite, got {window!r}")


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
    """Cells of the largest array one ``greedy_powers`` step may build: a
    unit has at most k = floor(2 p_max / GRID_STEP_KW) + 4 candidates, A2
    spans kA kB kC (kA kB without load shift), and A1/A3 9 k for each unit.
    A2 with load shift builds kC cells for each (A, B) row that can hold a
    record (``_record_rows``): all kA kB rows in the worst case."""
    k = [math.floor(2 * p / GRID_STEP_KW) + 4 if p < math.inf else math.inf for p in p_max_kw]
    if arch.kind is not ArchKind.A2:
        return 9 * max(k)
    return math.prod(k if arch.allow_load_shift else k[:2])


@functools.lru_cache(maxsize=16)
def _candidate_powers(lo: float, hi: float) -> np.ndarray:
    """Grid of powers in [lo, hi] at 0.1 kW resolution plus the exact
    bounds, ordered by (|p|, p) so earlier candidates win spread ties.
    A read-only array, kept for the last 16 bound pairs (at most 60 MB, at
    the ``MAX_GREEDY_CELLS`` / 9 candidates of the largest unit); a -0.0
    bound gives the grid of 0.0, so the two may share it."""
    vals = {0.0} if lo <= 0.0 <= hi else set()
    k = math.ceil(lo / GRID_STEP_KW - 1e-12)
    while k * GRID_STEP_KW <= hi + 1e-12:
        vals.add(round(k * GRID_STEP_KW, 6))
        k += 1
    vals.update((lo, hi))
    grid = np.array(sorted(vals, key=lambda p: (abs(p), p)))
    grid.flags.writeable = False
    return grid


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
    record[:1] = flat[:1] < best  # nothing to record in an empty array
    np.less(flat[1:], running[:-1], out=record[1:])
    j = None
    for i in np.flatnonzero(record).tolist():
        if flat[i] < best - 1e-12:
            best, j = flat[i], i
    return j


def _record_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray, best: float) -> np.ndarray:
    """Flat indices, in C order, of the rows (i, j) of the spread tensor
    ``_spread3(a[:, None, None], b[None, :, None], c)`` that can hold a
    record of the ``_last_improvement`` scan from ``best``: rows whose
    minimum lies below ``best`` and every earlier row's minimum. No other
    row lowers the running minimum, so the scan over the kept rows accepts
    what the scan over all rows accepts. A row spans [lo, hi] = [min, max]
    of (a_i, b_j), and its minimum is hi - lo if some c lies in [lo, hi],
    else hi minus the largest c below lo or the smallest c above hi minus
    lo: one of its own elements, as float subtraction is monotone. With a
    non-finite value every row is kept, the full tensor as before.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        return np.arange(a.size * b.size)
    hi, lo = np.maximum.outer(a, b).ravel(), np.minimum.outer(a, b).ravel()
    ends = np.array([-np.inf, *sorted(c.tolist()), np.inf])  # np.sort: +0.2 MB peak RSS
    below = np.searchsorted(ends, lo)  # ends[below - 1] < lo <= ends[below]
    above = np.searchsorted(ends, hi, side="right")  # ends[above - 1] <= hi < ends[above]
    row_min = np.where(above > below, hi - lo, np.minimum(hi - ends[below - 1], ends[above] - lo))
    running = np.minimum.accumulate(np.concatenate(([best], row_min[:-1])))
    return np.flatnonzero(row_min < running)


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
    one wins, so the spread never worsens. The scan is replayed exactly on
    the spreads of one A1/A3 unit, of the A2 (A, B) plane without load
    shift, or with it of the (A, B) rows that can hold a record, each over
    the C candidates: few as a rule, all rows at worst (``greedy_cells``)."""
    if arch.kind is not ArchKind.A1 and len(bounds) != 3:
        raise ValueError(f"{arch.kind.value} needs exactly three batteries")

    if arch.kind is ArchKind.A2:
        ca, cb, cc = (_candidate_powers(lo, hi) for lo, hi in bounds)
        best = max(net) - min(net)
        if arch.allow_load_shift:  # (row, kC) spreads over the record rows
            a, b, c = net[0] + ca, net[1] + cb, net[2] + cc
            rows_a, rows_b = np.divmod(_record_rows(a, b, c, best), cb.size)
            spreads = _spread3(a[rows_a, None], b[rows_b, None], c)
        else:  # (kA, kB) plane; a pair whose C power is out of bounds is skipped
            pa, pb = ca[:, None], cb[None, :]
            pc = -(pa + pb)
            lo_c, hi_c = bounds[2]
            spreads = _spread3(net[0] + pa, net[1] + pb, net[2] + pc)
            spreads[(pc < lo_c - 1e-12) | (pc > hi_c + 1e-12)] = np.inf
        j = _last_improvement(spreads, best)
        if j is None:
            return [(0, 0.0), (1, 0.0), (2, 0.0)]
        if arch.allow_load_shift:
            row, ic = divmod(j, cc.size)
            picks = ca[rows_a[row]], cb[rows_b[row]], cc[ic]
        else:
            ia, ib = divmod(j, cb.size)
            picks = ca[ia], cb[ib], -(ca[ia] + cb[ib])
        return [(ph, p.item()) for ph, p in enumerate(picks)]

    # A1 and A3: sequential greedy with per-battery phase selection.
    out = []
    for lo, hi in bounds:
        cands = _candidate_powers(lo, hi)
        trial = np.empty((3, 3, cands.size))  # (phase value, phase chosen, candidate)
        trial[:] = np.array(net)[:, None, None]
        trial[[0, 1, 2], [0, 1, 2]] += cands
        j = _last_improvement(_spread3(*trial), max(net) - min(net))
        phase, p = (0, 0.0) if j is None else (j // cands.size, cands[j % cands.size].item())
        out.append((phase, p))
        net[phase] += p
    return out


def dispatch_scan(
    scenario: Scenario, units: Sequence[Battery], net: np.ndarray | None
) -> tuple[dict, Exception | None]:
    """The storage half of a scenario's dispatch pass, in plain floats.
    ``units`` are the batteries the controller dispatches, at least one.

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
    by field (all but ``battery_ids``), and the error that stopped dispatch
    early (None if every step ran).
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
        phase = np.tile(np.array([PHASES.index(ph) for ph in phases], dtype=np.intp), (n_ok, 1))
        want = inputs[:n_ok]
    missed = np.zeros(n_ok, dtype=bool)
    if zero_sum:  # the box held no zero-sum point, so zero_sum_shift missed zero
        # each step's sum as the builtin makes it: a left fold from 0.0, unit by unit
        missed = np.abs(sum(p.T, np.zeros(n_ok))) > 1e-9
    return {
        "p_kw": p,
        "q_kvar": q,
        "phase": phase.reshape(shape),
        "soc_kwh": soc_kwh,
        "clipped": p != want.reshape(shape),
        "zero_sum_missed": missed,
        "dispatch_states": len(memo),
    }, pending


def _repeats_after(rows: np.ndarray, period: int) -> bool:
    """Whether each row of a 2-d float array equals the row ``period``
    before it, byte for byte: compared as 64-bit words, -0.0 differs from
    0.0 (and a NaN equals its own bytes)."""
    words = np.ascontiguousarray(rows).view(np.uint64)
    return np.array_equal(words[period:], words[:-period])


def _row_bytes(rows: np.ndarray, k: int) -> bytes:
    """The bytes of row ``k``: the input half of a dispatch memo key."""
    return rows[k].tobytes()
