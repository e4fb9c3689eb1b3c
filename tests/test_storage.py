"""Battery dynamics, converter limits and dispatch controllers."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_greedy
from phasebal.errors import RatingExceeded, SocOverflow, SocUnderflow
from phasebal.network import PHASES, Phase
from phasebal.storage import (
    DEFAULT_HOURS_AT_RATED,
    MAX_GREEDY_CELLS,
    Architecture,
    ArchKind,
    Battery,
    StylizedScheduleCfg,
    _candidate_powers,
    _record_rows,
    _spread3,
    bounds_at,
    clip_power,
    greedy_cells,
    greedy_powers,
    next_soc,
    schedule_requests,
    zero_sum_shift,
)


def clip(bat: Battery, soc: float, p: float, q: float, dt_h: float) -> tuple[float, float]:
    """(p, q) clipped into the battery's feasible set at state of charge ``soc``."""
    return clip_power(bat, p, q, *bounds_at(bat, soc, dt_h))


class TestBattery:
    def test_default_sizing_five_hours(self):
        bat = Battery(id="b", p_max_kw=3.0)
        assert bat.e_max_kwh == 15.0
        assert bat.s_conv_kva == 3.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            Battery(id="b", p_max_kw=0.0)
        with pytest.raises(ValueError):
            Battery(id="b", p_max_kw=1.0, eta_c=0.0)
        with pytest.raises(ValueError):
            Battery(id="b", p_max_kw=2.0, s_conv_kva=1.0)
        with pytest.raises(ValueError):
            Battery(id="b", p_max_kw=1.0, soc_kwh=9.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["p_max_kw", "e_max_kwh", "soc_kwh", "s_conv_kva"])
    def test_non_finite_rating_or_soc_rejected_and_named(self, field, value):
        with pytest.raises(ValueError, match=f"battery 'b': {field} must be"):
            Battery(id="b", **{"p_max_kw": 1.0, field: value})


class TestNextSoc:
    def test_charge_at_rated_power(self):
        bat = Battery(id="b", p_max_kw=3.0, soc_kwh=0.0)
        assert next_soc(bat, 0.0, 3.0, 0.0, dt_h=1.0) == 3.0

    def test_reactive_only_leaves_soc_bit_identical(self):
        bat = Battery(id="b", p_max_kw=3.0, s_conv_kva=4.0)
        soc = 1.2345678901234567
        assert next_soc(bat, soc, 0.0, 2.0, dt_h=1.0) == soc

    def test_efficiencies(self):
        bat = Battery(id="b", p_max_kw=2.0, eta_c=0.9, eta_d=0.8)
        assert next_soc(bat, 5.0, 2.0, 0.0, dt_h=1.0) == pytest.approx(5.0 + 0.9 * 2.0)
        assert next_soc(bat, 5.0, -2.0, 0.0, dt_h=1.0) == pytest.approx(5.0 - 2.0 / 0.8)

    def test_soc_underflow(self):
        bat = Battery(id="b", p_max_kw=3.0)
        with pytest.raises(SocUnderflow):
            next_soc(bat, 1.0, -3.0, 0.0, dt_h=1.0)

    def test_soc_overflow(self):
        bat = Battery(id="b", p_max_kw=3.0, e_max_kwh=5.0)
        with pytest.raises(SocOverflow):
            next_soc(bat, 4.0, 3.0, 0.0, dt_h=1.0)

    def test_rating_exceeded(self):
        bat = Battery(id="b", p_max_kw=3.0)
        with pytest.raises(RatingExceeded):
            next_soc(bat, 0.0, 4.0, 0.0, dt_h=1.0)
        with pytest.raises(RatingExceeded):
            next_soc(bat, 0.0, 3.0, 3.0, dt_h=1.0)  # |s| > s_conv


class TestClipPower:
    def test_power_clip(self):
        bat = Battery(id="b", p_max_kw=3.0)
        assert clip(bat, 0.0, 5.0, 0.0, dt_h=1.0)[0] == 3.0

    def test_energy_clip_on_discharge(self):
        bat = Battery(id="b", p_max_kw=3.0)
        assert clip(bat, 1.0, -3.0, 0.0, dt_h=1.0)[0] == pytest.approx(-1.0)

    def test_reactive_scaled_into_converter_circle(self):
        bat = Battery(id="b", p_max_kw=3.0, s_conv_kva=3.5)
        p, q = clip(bat, 0.0, 3.0, 3.0, dt_h=1.0)
        assert p == 3.0
        assert q == pytest.approx(math.sqrt(3.5**2 - 3.0**2))

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(200):
            bat = Battery(
                id="b",
                p_max_kw=rng.uniform(0.5, 5),
                soc_kwh=0.0,
                s_conv_kva=6.0,
                eta_c=rng.uniform(0.8, 1.0),
                eta_d=rng.uniform(0.8, 1.0),
            )
            soc = rng.uniform(0, bat.e_max_kwh)
            once = clip(bat, soc, rng.uniform(-10, 10), rng.uniform(-10, 10), dt_h=1.0)
            twice = clip(bat, soc, *once, dt_h=1.0)
            assert once == twice

    def test_soc_stays_in_bounds_through_1000_random_steps(self):
        rng = random.Random(99)
        bat = Battery(id="b", p_max_kw=2.0, eta_c=0.95, eta_d=0.9)
        soc = 3.0
        for _ in range(1000):
            p, q = clip(bat, soc, rng.uniform(-5, 5), rng.uniform(-3, 3), dt_h=0.5)
            soc = next_soc(bat, soc, p, q, dt_h=0.5)
            assert 0.0 <= soc <= bat.e_max_kwh

    def test_reactive_only_sequences_never_change_soc(self):
        rng = random.Random(5)
        bat = Battery(id="b", p_max_kw=2.0, s_conv_kva=3.0)
        soc = start = 7.7
        for _ in range(100):
            p, q = clip(bat, soc, 0.0, rng.uniform(-5, 5), dt_h=1.0)
            soc = next_soc(bat, soc, p, q, dt_h=1.0)
            assert soc == start

    def test_energy_bookkeeping_reconciles(self):
        rng = random.Random(17)
        bat = Battery(id="b", p_max_kw=3.0, eta_c=0.92, eta_d=0.88)
        soc = start = 6.0
        delta = 0.0
        for _ in range(500):
            p, q = clip(bat, soc, rng.uniform(-6, 6), 0.0, dt_h=0.25)
            soc = next_soc(bat, soc, p, q, dt_h=0.25)
            if p > 0:
                delta += bat.eta_c * p * 0.25
            else:
                delta += p * 0.25 / bat.eta_d
        assert soc == pytest.approx(start + delta, abs=1e-6)


def bounds_of(bats: list[Battery], dt_h: float = 1.0) -> list[tuple[float, float]]:
    """Each battery's power bounds at its own state of charge."""
    return [bounds_at(b, b.soc_kwh, dt_h) for b in bats]


def shift(raw: list[float], bats: list[Battery], dt_h: float = 1.0) -> list[float]:
    return zero_sum_shift(raw, *zip(*bounds_of(bats, dt_h)))


class TestZeroSumShift:
    def three_units(self, soc: float = 2.5) -> list[Battery]:
        return [Battery(id=f"b{i}", p_max_kw=1.0, soc_kwh=soc) for i in range(3)]

    def test_already_zero_sum_unchanged(self):
        assert shift([1.0, -0.5, -0.5], self.three_units()) == [1.0, -0.5, -0.5]

    def test_common_mode_removed(self):
        assert shift([1.0, 1.0, 1.0], self.three_units()) == [0.0, 0.0, 0.0]

    def test_mean_subtraction(self):
        bats = [Battery(id=f"b{i}", p_max_kw=2.0, soc_kwh=5.0) for i in range(3)]
        out = shift([1.0, -1.0, 0.4], bats)
        mean = 0.4 / 3
        assert out[0] == pytest.approx(1.0 - mean)
        assert out[1] == pytest.approx(-1.0 - mean)
        assert out[2] == pytest.approx(0.4 - mean)
        assert sum(out) == pytest.approx(0.0, abs=1e-9)

    def test_clamp_keeps_exact_zero(self):
        # the mean shift (1/3) would push b0 beyond its 1 kW rating; the
        # projection instead pins b0 at 1 and solves 1 + 2(-1 - lam) = 0 for
        # the free units, lam = -1/2, so b1 = b2 = -1 - (-1/2) = -1/2 and the
        # sum is exactly zero
        assert shift([1.0, -1.0, -1.0], self.three_units()) == [1.0, -0.5, -0.5]

    def test_box_without_zero_sum_point_gives_its_nearest_end(self):
        # SoC within the 1e-9 kWh slack above e_max leaves each unit a
        # charging bound of about -1e-9 kW, so no feasible triple sums to zero
        bats = [Battery(id=f"b{i}", p_max_kw=1.0, soc_kwh=5.0 + 1e-9) for i in range(3)]
        out = shift([1.0, 1.0, 1.0], bats)
        assert abs(sum(out)) > 1e-9
        assert out == [hi for _, hi in bounds_of(bats)]

    @settings(max_examples=300, deadline=None)
    @given(
        units=st.lists(
            st.tuples(
                st.floats(0.1, 5.0),  # p_max_kw
                st.floats(0.5, 10.0),  # hours at rated power
                st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),  # SoC fraction
                st.floats(0.5, 1.0),  # eta_c
                st.floats(0.5, 1.0),  # eta_d
                st.floats(-12.0, 12.0),  # raw p_kw
            ),
            min_size=3,
            max_size=3,
        ),
        dt_h=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_exact_projection_property(self, units, dt_h):
        bats = [
            Battery(
                id=f"b{i}",
                p_max_kw=p_max,
                e_max_kwh=p_max * hours,
                soc_kwh=p_max * hours * frac,
                eta_c=eta_c,
                eta_d=eta_d,
            )
            for i, (p_max, hours, frac, eta_c, eta_d, _) in enumerate(units)
        ]
        raw = [u[5] for u in units]
        p = shift(raw, bats, dt_h)
        bounds = bounds_of(bats, dt_h)
        assert all(lo <= pi <= hi for pi, (lo, hi) in zip(p, bounds))
        assert abs(sum(p)) <= 1e-9
        # p_i = clip(raw_i - lam, lo_i, hi_i) for one lam: a free unit fixes
        # lam, a unit at hi needs lam <= raw_i - hi_i, one at lo lam >= raw_i - lo_i
        tol = 1e-9
        lam_lo, lam_hi = -math.inf, math.inf
        for r, pi, (lo, hi) in zip(raw, p, bounds):
            if lo < pi < hi:
                lam_lo, lam_hi = max(lam_lo, r - pi - tol), min(lam_hi, r - pi + tol)
            elif pi == hi and pi != lo:
                lam_hi = min(lam_hi, r - hi + tol)
            elif pi == lo and pi != hi:
                lam_lo = max(lam_lo, r - lo - tol)
        assert lam_lo <= lam_hi
        # a zero-sum result is a fixed point, bit for bit, and so is its clip
        assert shift(p, bats, dt_h) == p
        assert [clip_power(b, pi, 0.0, *bd)[0] for b, pi, bd in zip(bats, p, bounds)] == p


class TestArchitecture:
    @pytest.mark.parametrize("kind", list(ArchKind))
    def test_kind_by_value_becomes_its_member(self, kind):
        arch = Architecture(kind=kind.value)
        assert arch.kind is kind and arch == Architecture(kind)
        assert arch.n_batteries == (1 if kind is ArchKind.A1 else 3)

    @pytest.mark.parametrize("bad", ["A9", "a1", None])
    def test_unknown_kind_rejected_and_named(self, bad):
        with pytest.raises(ValueError, match=f"unknown architecture kind {bad!r}"):
            Architecture(kind=bad)

    @pytest.mark.parametrize("bad", ["no", "", 0, 1, None])
    def test_non_bool_load_shift_rejected_and_named(self, bad):
        """A truthy string would run load-shifting A2 whatever it says."""
        with pytest.raises(ValueError, match=f"allow_load_shift must be a bool, got {bad!r}"):
            Architecture(ArchKind.A2, allow_load_shift=bad)


class TestFixedSchedule:
    CFG = StylizedScheduleCfg()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["dg_window", "ev_window"])
    def test_window_bounds_must_be_finite(self, name, bad):
        """A NaN or infinite bound leaves a window that never opens."""
        with pytest.raises(ValueError, match=f"schedule {name} must be finite"):
            StylizedScheduleCfg(**{name: (10.0, bad)})

    def test_target_phase_by_value_becomes_its_member(self):
        assert StylizedScheduleCfg(target_phase="B").target_phase is Phase.B

    @pytest.mark.parametrize("bad", ["X", "b", None, 1])
    def test_unknown_target_phase_rejected_and_named(self, bad):
        with pytest.raises(ValueError, match=f"unknown schedule target_phase {bad!r}"):
            StylizedScheduleCfg(target_phase=bad)

    def requests(self, t_h: float, arch: Architecture, p_max_kw: list[float]):
        phases, raw = schedule_requests(np.array([t_h]), arch, self.CFG, p_max_kw)
        return phases, raw[0].tolist()

    def test_a1_charges_in_dg_window(self):
        assert self.requests(11.0, Architecture(ArchKind.A1), [3.0]) == ([Phase.A], [3.0])

    def test_a1_discharges_in_ev_window(self):
        assert self.requests(20.0, Architecture(ArchKind.A1), [3.0]) == ([Phase.A], [-3.0])

    def test_outside_windows_all_zero(self):
        for arch in (Architecture(ArchKind.A1), Architecture(ArchKind.A2)):
            _, raw = self.requests(8.0, arch, [1.0] * arch.n_batteries)
            assert all(p == 0.0 for p in raw)

    def test_a2_companions_oppose_target_unit(self):
        phases, raw = self.requests(12.0, Architecture(ArchKind.A2), [1.0, 1.0, 1.0])
        assert phases == list(PHASES)
        assert raw == [1.0, -1.0, -1.0]

    def test_a2_no_load_shift_shifts_to_zero_sum(self):
        bats = [
            Battery(id="ba", p_max_kw=1.0, soc_kwh=0.0),
            Battery(id="bb", p_max_kw=1.0, soc_kwh=5.0),
            Battery(id="bc", p_max_kw=1.0, soc_kwh=5.0),
        ]
        arch = Architecture(ArchKind.A2, allow_load_shift=False)
        _, raw = self.requests(12.0, arch, [b.p_max_kw for b in bats])
        p = shift(raw, bats)
        # raw schedule [1, -1, -1] projected onto zero sum: ba stays pinned at
        # its 1 kW rating, the companions share the balance, 1 + 2(-1 - lam) = 0
        # gives lam = -1/2 and [1, -1/2, -1/2]
        assert p == [1.0, -0.5, -0.5]
        assert sum(p) == 0.0


def brute_force_best_spread(net, batteries, phases_per_battery, dt_h, zero_sum=False):
    """Independent exhaustive oracle on the same 0.1 kW grid.

    ``phases_per_battery``: list of candidate phase tuples per battery.
    Enumerates the full joint assignment space and returns the minimum
    achievable max-min spread.
    """
    import itertools

    def powers(bat):
        lo, hi = bounds_at(bat, bat.soc_kwh, dt_h)
        vals = {0.0, lo, hi}
        k = math.ceil(lo / 0.1 - 1e-12)
        while k * 0.1 <= hi + 1e-12:
            vals.add(round(k * 0.1, 6))
            k += 1
        return sorted(vals)

    best = max(net.values()) - min(net.values())
    spaces = [
        [(ph, p) for ph in phases for p in powers(bat)]
        for bat, phases in zip(batteries, phases_per_battery)
    ]
    for combo in itertools.product(*spaces):
        if zero_sum and abs(sum(p for _, p in combo)) > 1e-9:
            continue
        adj = dict(net)
        for ph, p in combo:
            adj[ph] += p
        spread = max(adj.values()) - min(adj.values())
        best = min(best, spread)
    return best


class TestGreedyCells:
    def test_largest_array_of_each_search(self):
        k = 34  # floor(2 * 1.5 / 0.1) + 4
        assert greedy_cells(Architecture(ArchKind.A2), [1.5] * 3) == k**3
        assert greedy_cells(Architecture(ArchKind.A2, allow_load_shift=False), [1.5] * 3) == k**2
        assert greedy_cells(Architecture(ArchKind.A3), [0.5, 1.5, 1.0]) == 9 * k
        assert greedy_cells(Architecture(ArchKind.A1), [math.inf]) == math.inf
        # a stylized 4.5 kW A2 fleet, the largest greedy fleet any preset,
        # golden, test scenario or bench workload builds, stays two orders of
        # magnitude below the cap
        assert 100 * k**3 <= MAX_GREEDY_CELLS

    @settings(max_examples=200, deadline=None)
    @given(
        p_max=st.floats(0.01, 50.0),
        soc_frac=st.floats(0.0, 1.0),
        dt_h=st.sampled_from([0.25, 1.0]),
    )
    def test_bounds_every_candidate_grid(self, p_max, soc_frac, dt_h):
        bat = Battery(id="b", p_max_kw=p_max, soc_kwh=DEFAULT_HOURS_AT_RATED * p_max * soc_frac)
        cands = _candidate_powers(*bounds_at(bat, bat.soc_kwh, dt_h))
        assert 9 * len(cands) <= greedy_cells(Architecture(ArchKind.A1), [p_max])


class TestCandidatePowers:
    @pytest.mark.parametrize("end", [0.0, 0.3, 1.5, 0.37])
    def test_signed_zero_bounds_build_one_grid(self, end):
        """A -0.0 bound (the lower bound of an empty unit) builds the grid of 0.0 bit
        for bit, so the cache may hand either bound the other's grid."""
        build = _candidate_powers.__wrapped__
        assert build(-0.0, end).tobytes() == build(0.0, end).tobytes()
        assert build(-end, -0.0).tobytes() == build(-end, 0.0).tobytes()

    def test_built_once_and_read_only(self):
        grid = _candidate_powers(-1.5, 1.5)
        assert _candidate_powers(-1.5, 1.5) is grid
        assert not grid.flags.writeable
        assert grid.tolist() == sorted(grid.tolist(), key=lambda p: (abs(p), p))


def greedy(net: dict[Phase, float], arch: Architecture, bats: list[Battery], dt_h: float = 1.0):
    """``greedy_powers`` on a per-phase net dict: (phase, p_kw) per unit."""
    choice = greedy_powers([net[ph] for ph in PHASES], arch, bounds_of(bats, dt_h))
    return [(PHASES[ph], p) for ph, p in choice]


def adjusted_spread(net: dict[Phase, float], choice) -> float:
    adjusted = dict(net)
    for phase, p in choice:
        adjusted[phase] += p
    return max(adjusted.values()) - min(adjusted.values())


class TestGreedyBalance:
    def test_a1_discharges_on_heavy_phase(self):
        net = {Phase.A: 20.0, Phase.B: 10.0, Phase.C: 10.0}
        bat = Battery(id="b", p_max_kw=3.0, soc_kwh=15.0)
        ((phase, p),) = greedy(net, Architecture(ArchKind.A1), [bat])
        assert phase is Phase.A
        assert p == pytest.approx(-3.0)

    def test_balanced_input_stays_idle(self):
        net = {Phase.A: 10.0, Phase.B: 10.0, Phase.C: 10.0}
        bat = Battery(id="b", p_max_kw=3.0, soc_kwh=7.0)
        ((_, p),) = greedy(net, Architecture(ArchKind.A1), [bat])
        assert p == 0.0

    def test_a2_no_shift_splits_counter_charge(self):
        net = {Phase.A: 20.0, Phase.B: 10.0, Phase.C: 10.0}
        bats = [
            Battery(id="ba", p_max_kw=1.0, soc_kwh=5.0),
            Battery(id="bb", p_max_kw=1.0, soc_kwh=0.0),
            Battery(id="bc", p_max_kw=1.0, soc_kwh=0.0),
        ]
        choice = greedy(net, Architecture(ArchKind.A2, allow_load_shift=False), bats)
        assert [p for _, p in choice] == pytest.approx([-1.0, 0.5, 0.5])
        assert sum(p for _, p in choice) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("arch_kind", [ArchKind.A1, ArchKind.A2, ArchKind.A3])
    def test_never_worsens_spread(self, arch_kind):
        rng = random.Random(31)
        for _ in range(30):
            net = {ph: rng.uniform(0, 25) for ph in PHASES}
            arch = Architecture(arch_kind, allow_load_shift=rng.random() < 0.5)
            n = arch.n_batteries
            bats = [
                Battery(id=f"b{i}", p_max_kw=rng.uniform(0.5, 2), soc_kwh=0.0)
                for i in range(n)
            ]
            bats = [
                Battery(
                    id=b.id, p_max_kw=b.p_max_kw, soc_kwh=rng.uniform(0, b.e_max_kwh)
                )
                for b in bats
            ]
            before = max(net.values()) - min(net.values())
            assert adjusted_spread(net, greedy(net, arch, bats)) <= before + 1e-9

    def test_a1_matches_exhaustive_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            net = {ph: rng.uniform(5, 20) for ph in PHASES}
            bat = Battery(id="b", p_max_kw=1.5, soc_kwh=rng.uniform(0, 7.5))
            got = adjusted_spread(net, greedy(net, Architecture(ArchKind.A1), [bat]))
            best = brute_force_best_spread(net, [bat], [tuple(PHASES)], 1.0)
            assert got == pytest.approx(best, abs=1e-9)

    def test_a2_matches_exhaustive_oracle_under_zero_sum(self):
        rng = random.Random(29)
        for _ in range(10):
            net = {ph: rng.uniform(5, 20) for ph in PHASES}
            bats = [
                Battery(id=f"b{i}", p_max_kw=1.0, soc_kwh=rng.uniform(0, 5.0))
                for i in range(3)
            ]
            arch = Architecture(ArchKind.A2, allow_load_shift=False)
            got = adjusted_spread(net, greedy(net, arch, bats))
            best = brute_force_best_spread(
                net, bats, [(Phase.A,), (Phase.B,), (Phase.C,)], 1.0, zero_sum=True
            )
            assert got == pytest.approx(best, abs=1e-9)

    def test_deterministic(self):
        net = {Phase.A: 12.0, Phase.B: 9.0, Phase.C: 15.0}
        bats = [Battery(id=f"b{i}", p_max_kw=1.0, soc_kwh=2.5) for i in range(3)]
        arch = Architecture(ArchKind.A3)
        assert greedy(net, arch, bats) == greedy(net, arch, bats)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(list(ArchKind)),
        allow_load_shift=st.booleans(),
        lattice_kw=st.sampled_from([0.05, 0.1]),
        net_steps=st.lists(st.integers(-40, 120), min_size=3, max_size=3),
        units=st.lists(
            st.tuples(
                st.sampled_from([0.3, 0.5, 1.0, 1.5, 0.73]),
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),  # SoC / e_max
            ),
            min_size=3,
            max_size=3,
        ),
        dt_h=st.sampled_from([1.0, 0.25]),
    )
    def test_matches_loop_reference(
        self, kind, allow_load_shift, lattice_kw, net_steps, units, dt_h
    ):
        """Nets on a coarse lattice make many candidates tie; the chosen
        actions must still equal the per-candidate loop's, bit for bit."""
        net = {ph: k * lattice_kw for ph, k in zip(PHASES, net_steps)}
        arch = Architecture(kind, allow_load_shift=allow_load_shift)
        bats = [
            Battery(
                id=f"b{i}", p_max_kw=p_max, soc_kwh=DEFAULT_HOURS_AT_RATED * p_max * soc_frac
            )
            for i, (p_max, soc_frac) in enumerate(units[: arch.n_batteries])
        ]
        got = greedy(net, arch, bats, dt_h)
        assert got == [(a.phase, a.p_kw) for a in reference_greedy(net, arch, bats, dt_h)]
        assert all(type(p) is float for _, p in got)

    @settings(max_examples=300, deadline=None)
    @given(
        lattice_kw=st.sampled_from([0.05, 0.1]),
        net_steps=st.lists(st.integers(-40, 120), min_size=3, max_size=3),
        non_finite=st.none()
        | st.tuples(st.integers(0, 2), st.sampled_from([math.inf, -math.inf, math.nan])),
        units=st.lists(
            st.tuples(
                st.sampled_from([0.3, 0.5, 1.0, 1.5, 0.73]),
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),  # SoC / e_max
                st.sampled_from([1.0, 0.9]),  # eta_c and eta_d
            ),
            min_size=3,
            max_size=3,
        ),
        dt_h=st.sampled_from([1.0, 0.25, 0.7]),
    )
    @example(0.1, [100, 0, 0], None, [(1.5, 0.0, 1.0), (1.5, 1.0, 1.0), (1.5, 0.0, 1.0)], 1.0)
    @example(0.1, [100, 0, 0], (1, math.inf), [(1.5, 0.5, 1.0)] * 3, 1.0)
    @example(0.1, [100, 0, 0], (2, -math.inf), [(1.5, 0.5, 1.0)] * 3, 1.0)
    @example(0.1, [30, 0, 0], (0, math.nan), [(1.5, 0.5, 1.0)] * 3, 1.0)
    @example(0.1, [30, 20, 0], (1, math.nan), [(1.5, 0.5, 1.0)] * 3, 1.0)
    @example(0.05, [31, 3, 17], None, [(0.73, 0.13, 0.9), (1.5, 0.97, 0.9), (1.0, 0.0, 0.9)], 0.7)
    def test_a2_load_shift_matches_loop_reference(
        self, lattice_kw, net_steps, non_finite, units, dt_h
    ):
        """The A2 load-shift search scans only the (A, B) rows that can hold
        a record. With ties on a lattice, bounds off the grid or at -0.0 (an
        empty unit), and a net not finite in one phase, it still chooses
        what the per-candidate loop chooses, zero signs included, and keeps
        exactly the rows whose minimum is a strict running minimum of the
        full spread tensor."""
        net = {ph: k * lattice_kw for ph, k in zip(PHASES, net_steps)}
        if non_finite is not None:
            net[PHASES[non_finite[0]]] = non_finite[1]
        arch = Architecture(ArchKind.A2)
        bats = [
            Battery(
                id=f"b{i}",
                p_max_kw=p_max,
                soc_kwh=DEFAULT_HOURS_AT_RATED * p_max * soc_frac,
                eta_c=eta,
                eta_d=eta,
            )
            for i, (p_max, soc_frac, eta) in enumerate(units)
        ]
        got = greedy(net, arch, bats, dt_h)
        want = [(a.phase, a.p_kw) for a in reference_greedy(net, arch, bats, dt_h)]
        assert [(ph, p, math.copysign(1.0, p)) for ph, p in got] == [
            (ph, p, math.copysign(1.0, p)) for ph, p in want
        ]

        values = [net[ph] for ph in PHASES]
        best = max(values) - min(values)
        a, b, c = (v + _candidate_powers(*bd) for v, bd in zip(values, bounds_of(bats, dt_h)))
        rows = _record_rows(a, b, c, best).tolist()
        if non_finite is not None:
            assert rows == list(range(a.size * b.size))
        else:
            row_min = _spread3(a[:, None, None], b[None, :, None], c).min(axis=2).ravel()
            prior = np.minimum.accumulate(np.concatenate(([best], row_min[:-1])))
            assert rows == np.flatnonzero(row_min < prior).tolist()

    def test_a2_load_shift_search_memory(self):
        """One A2 load-shift search over 1.5 kW units at full bounds builds
        its record rows only: it peaks under 160 kB (the full 31^3 spread
        tensor took about 650 kB), so the heap top stays below glibc's trim
        threshold and warm runs take no page faults."""
        arch, bounds = Architecture(ArchKind.A2), [(-1.5, 1.5)] * 3
        rng = random.Random(5)
        for net in ([12.0, 3.0, 3.0], [-6.5, 2.5, 4.0], [5.0, 5.0, 5.0]) + tuple(
            [rng.uniform(-20, 20) for _ in range(3)] for _ in range(5)
        ):
            greedy_powers(list(net), arch, bounds)  # the grids are built once
            tracemalloc.start()
            try:
                greedy_powers(list(net), arch, bounds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 160_000, (net, peak)
