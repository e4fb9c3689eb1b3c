"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

from __future__ import annotations

import cmath
import filecmp
import math
import random
import time
from dataclasses import replace

from conftest import max_voltage_gap, random_feeder
from phasebal.cli import main
from phasebal.errors import ScenarioStepError, VoltageCollapse
from phasebal.metrics import SequenceComponents, fortescue, inverse_fortescue, vuf
from phasebal.network import DeviceKind
from phasebal.powerflow import (
    SolverSettings,
    oracle_solve,
    power_balance_residual_kw,
    solve_snapshot,
)
from phasebal.presets import RUN_PRESET_NAMES
from phasebal.scenarios import build_stylized_scenario, build_sweep_scenario, run_scenario
from phasebal.storage import Architecture, ArchKind, Battery, bounds_at, clip_power, next_soc

FULL_GRID = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 120]


def _report(criterion: int, failures: list[str], elapsed: float, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({elapsed:.2f}s) - {detail}")
    for failure in failures:
        print(f"  - {failure}")


def test_criterion_1_fortescue_kernel():
    """Round trip < 1e-12 on 1000 triples; balanced VUF exactly 0; derived
    triple matches direct arithmetic to 1e-12; under 1 second."""
    start = time.perf_counter()
    failures: list[str] = []

    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        triple = tuple(
            cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(-math.pi, math.pi)) for _ in range(3)
        )
        back = inverse_fortescue(fortescue(*triple))
        worst = max(worst, max(abs(a - b) for a, b in zip(triple, back)))
    if worst >= 1e-12:
        failures.append(f"round-trip error {worst:.2e} >= 1e-12")

    if vuf(SequenceComponents(v0=0j, v1=1 + 0j, v2=0j)) != 0.0:
        failures.append("balanced (pure positive-sequence) set does not give VUF exactly 0")
    numeric = fortescue(
        cmath.rect(1, 0), cmath.rect(1, -2 * math.pi / 3), cmath.rect(1, 2 * math.pi / 3)
    )
    if not vuf(numeric) < 1e-12:
        failures.append(f"numerically balanced set gives VUF {vuf(numeric):.2e} >= 1e-12")

    # independent direct-arithmetic oracle, frozen at test-writing time
    seq = fortescue(
        cmath.rect(0.95, 0.0),
        cmath.rect(1.00, math.radians(-122)),
        cmath.rect(1.05, math.radians(119)),
    )
    expected = {
        "v0": -0.029656455163952915 + 0.023434198779979876j,
        "v1": 0.99974363564443547 - 0.017741507820549729j,
        "v2": -0.020087180480482563 - 0.0056926909594302577j,
    }
    for name, value in expected.items():
        if abs(getattr(seq, name) - value) > 1e-12:
            failures.append(f"derived triple {name} off by {abs(getattr(seq, name) - value):.2e}")
    if abs(vuf(seq) - 2.0880321664922357) > 1e-12:
        failures.append("derived triple VUF does not match direct-arithmetic value")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, failures, elapsed, "Fortescue/VUF kernel, 1000-triple round trip")
    assert not failures


def test_criterion_2_solver_cross_validation():
    """solve_snapshot vs oracle_solve within 1e-8 pu on 100 random feeders;
    power balance residual < 1e-6 * s_base everywhere; under 30 seconds."""
    start = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(20240601)
    settings = SolverSettings(tol_pu=1e-10, max_iter=300)
    worst_gap = 0.0
    worst_residual = 0.0
    for case in range(100):
        feeder = random_feeder(rng, max_nodes=6)
        sweep = solve_snapshot(feeder, settings=settings)
        oracle = oracle_solve(feeder, settings=settings)
        gap = max_voltage_gap(sweep, oracle, feeder.nodes) / feeder.v_base_ln
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            failures.append(f"case {case}: cross-solver gap {gap:.2e} pu > 1e-8")
        for sol, name in ((sweep, "sweep"), (oracle, "oracle")):
            residual = power_balance_residual_kw(feeder, sol)
            worst_residual = max(worst_residual, residual / feeder.s_base_kva)
            if residual >= 1e-6 * feeder.s_base_kva:
                failures.append(f"case {case}: {name} power balance residual {residual:.2e} kW")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    _report(
        2,
        failures,
        elapsed,
        f"100 random feeders, worst gap {worst_gap:.2e} pu, "
        f"worst balance residual {worst_residual:.2e} of s_base",
    )
    assert not failures


def test_criterion_3_balanced_symmetry():
    """Every all-balanced scenario: neutral losses 0 (to 1e-12 kWh) and
    max VUF < 1e-9."""
    start = time.perf_counter()
    failures: list[str] = []
    cases = [
        ("compact nominal", build_sweep_scenario(5.0, "N5", DeviceKind.DG, 0, "compact")),
        ("overload nominal", build_sweep_scenario(50.0, "N5", DeviceKind.DG, 0, "overload")),
        ("sparse nominal", build_sweep_scenario(5.0, "N5", DeviceKind.DG, 0, "sparse")),
        (
            "balanced 40% DG",
            build_sweep_scenario(5.0, "N5", DeviceKind.DG, 40, "compact", balanced=True),
        ),
        (
            "balanced 40% EV",
            build_sweep_scenario(5.0, "N1", DeviceKind.EV, 40, "compact", balanced=True),
        ),
    ]
    for name, scenario in cases:
        result = run_scenario(scenario)
        if not result.neutral_loss_kwh <= 1e-12:
            failures.append(f"{name}: neutral {result.neutral_loss_kwh:.2e} kWh > 1e-12")
        if not result.max_vuf_pct < 1e-9:
            failures.append(f"{name}: max VUF {result.max_vuf_pct:.2e} >= 1e-9")

    elapsed = time.perf_counter() - start
    _report(3, failures, elapsed, f"{len(cases)} all-balanced scenarios at the noise floor")
    assert not failures


def test_criterion_4_penetration_trends():
    """(a) VUF monotone in DG penetration at N5; (b) 120% neutral losses at
    N5 > 2x N1; (c) sparse/overload exceed 2% max VUF while compact stays
    below 1% at 120%; under 10 seconds."""
    start = time.perf_counter()
    failures: list[str] = []

    vufs = [
        run_scenario(build_sweep_scenario(5.0, "N5", DeviceKind.DG, p, "compact")).max_vuf_pct
        for p in FULL_GRID
    ]
    if not all(b >= a - 1e-12 for a, b in zip(vufs, vufs[1:])):
        failures.append(f"(a) VUF not monotone along grid: {['%.3f' % v for v in vufs]}")

    ratios = {}
    for kind in (DeviceKind.DG, DeviceKind.EV):
        n5 = run_scenario(build_sweep_scenario(5.0, "N5", kind, 120, "compact")).neutral_loss_kwh
        n1 = run_scenario(build_sweep_scenario(5.0, "N1", kind, 120, "compact")).neutral_loss_kwh
        ratios[kind.value] = n5 / n1
        if not n5 > 2 * n1:
            failures.append(f"(b) {kind.value}: N5/N1 neutral ratio {n5 / n1:.2f} <= 2")

    # stressed classes: single-phase DG at 120% pushes max VUF past 2%; the
    # EV counterpart is infeasible at these defaults and must collapse loudly
    stressed = {}
    for cls, load in (("overload", 50.0), ("sparse", 5.0)):
        r = run_scenario(build_sweep_scenario(load, "N5", DeviceKind.DG, 120, cls))
        stressed[cls] = r.max_vuf_pct
        if not r.max_vuf_pct > 2.0:
            failures.append(f"(c) {cls} DG 120%: max VUF {r.max_vuf_pct:.3f}% <= 2%")
        try:
            run_scenario(build_sweep_scenario(load, "N5", DeviceKind.EV, 120, cls))
            failures.append(f"(c) {cls} EV 120%: expected VoltageCollapse, but it solved")
        except ScenarioStepError as exc:
            if not isinstance(exc.cause, VoltageCollapse):
                failures.append(f"(c) {cls} EV 120%: unexpected failure {exc.cause}")
    compact = {}
    for kind in (DeviceKind.DG, DeviceKind.EV):
        for node in ("N1", "N5"):
            r = run_scenario(build_sweep_scenario(5.0, node, kind, 120, "compact"))
            compact[f"{kind.value}@{node}"] = r.max_vuf_pct
            if not r.max_vuf_pct < 1.0:
                failures.append(
                    f"(c) compact {kind.value} at {node} 120%: max VUF {r.max_vuf_pct:.3f}% >= 1%"
                )

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(
        4,
        failures,
        elapsed,
        f"monotone VUF, N5/N1 neutral ratios {ratios}, "
        f"stressed {dict((k, round(v, 2)) for k, v in stressed.items())}%, "
        f"compact max {max(compact.values()):.3f}%",
    )
    assert not failures


def phase_unbalance_loss_kwh(scenario, result) -> float:
    """Unbalance part of the phase-conductor losses, kWh.

    The three phase conductors of a segment share one resistance R, so by
    Parseval their loss splits exactly into sequence parts:
    R(|Ia|^2 + |Ib|^2 + |Ic|^2) = 3R(|I1|^2 + |I0|^2 + |I2|^2). This keeps
    3R(|I0|^2 + |I2|^2), the loss that balanced currents with the same
    positive-sequence component would not incur.
    """
    r_ph = [(seg.z_phase_per_km * seg.length_km).real for seg in scenario.feeder.segments]
    total_kw = 0.0
    for rec in result.per_timestep:
        for k, r in enumerate(r_ph):
            amps = rec.solution.branch_current[k]
            seq = fortescue(amps["A"], amps["B"], amps["C"])
            total_kw += 3.0 * r * (abs(seq.v0) ** 2 + abs(seq.v2) ** 2) / 1000.0
    return total_kw * scenario.dt_h


def test_criterion_5_storage_architecture_ordering():
    """Per-metric ordering A1-N5 < A2-N5 < A2-N5-noshift < no-storage with
    3 kW total storage and fixed schedules, phase loss compared on its
    unbalance part; raw phase loss of every N5 fleet below no-storage; N0
    placements improve nothing by more than 5%; under 5 seconds.

    Raw phase loss cannot order A2 against its no-shift variant: both give
    phase A the same dispatch, and on phases B and C the load-shifting fleet
    adds a day-sum-zero swing of +-1 kW against +-1/2 kW, which I^2 R
    (convex) always charges more for. That gap is throughput loss in the
    positive-sequence part, not unbalance.
    """
    start = time.perf_counter()
    failures: list[str] = []

    scenarios = {
        "none": build_stylized_scenario(None),
        "a1-n5": build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0),
        "a2-n5": build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0),
        "a2-n5-noshift": build_stylized_scenario(
            Architecture(ArchKind.A2, allow_load_shift=False), "N5", 3.0
        ),
        "a1-n0": build_stylized_scenario(Architecture(ArchKind.A1), "N0", 3.0),
        "a2-n0": build_stylized_scenario(Architecture(ArchKind.A2), "N0", 3.0),
    }
    runs = {label: run_scenario(scenario) for label, scenario in scenarios.items()}
    unbalance = {
        label: phase_unbalance_loss_kwh(scenarios[label], runs[label]) for label in runs
    }

    def metric(label, name):
        result = runs[label]
        if name == "max_drop_rise":
            return max(result.max_drop_pct, result.max_rise_pct)
        if name == "phase_unbalance_loss_kwh":
            return unbalance[label]
        return getattr(result, name)

    metrics = ("max_vuf_pct", "neutral_loss_kwh", "phase_unbalance_loss_kwh", "max_drop_rise")
    chain = ("a1-n5", "a2-n5", "a2-n5-noshift", "none")
    links: list[str] = []
    for name in metrics:
        values = [metric(k, name) for k in chain]
        link = f"{name}: {chain[0]}={values[0]:.6g}"
        for (ka, va), (kb, vb) in zip(zip(chain, values), zip(chain[1:], values[1:])):
            link += f" {'<' if va < vb else '>='} {kb}={vb:.6g}"
            if not va < vb:
                failures.append(f"{name}: {ka}={va:.6g} not < {kb}={vb:.6g}")
        links.append(link)

    base_phase = metric("none", "phase_loss_kwh")
    raw_links = []
    for label in chain[:-1]:
        value = metric(label, "phase_loss_kwh")
        raw_links.append(f"{label}={value:.6g} {'<' if value < base_phase else '>='} none")
        if not value < base_phase:
            failures.append(f"phase_loss_kwh: {label}={value:.6g} not < none={base_phase:.6g}")
    links.append(f"phase_loss_kwh (none={base_phase:.6g}): " + ", ".join(raw_links))

    for label in ("a1-n0", "a2-n0"):
        for name in metrics + ("phase_loss_kwh",):
            base = metric("none", name)
            improvement = (base - metric(label, name)) / base
            if improvement > 0.05:
                failures.append(
                    f"{label} improves {name} by {improvement:.1%} > 5% (head placement "
                    "should be nearly inert)"
                )

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(5, failures, elapsed, "storage deployment ordering\n  " + "\n  ".join(links))
    assert not failures


def test_criterion_6_storage_invariants():
    """SoC bounds under 1000-step fuzz; reactive-only sequences leave SoC
    bit-identical; A2 no-load-shift satisfies sum(p)=0 within 1e-9 kW at
    every timestep."""
    start = time.perf_counter()
    failures: list[str] = []

    rng = random.Random(777)
    bat = Battery(id="fuzz", p_max_kw=2.0, eta_c=0.93, eta_d=0.91, s_conv_kva=2.5)
    soc = 4.0
    for step in range(1000):
        p, q = clip_power(bat, rng.uniform(-6, 6), rng.uniform(-4, 4), *bounds_at(bat, soc, 0.5))
        soc = next_soc(bat, soc, p, q, 0.5)
        if not 0.0 <= soc <= bat.e_max_kwh:
            failures.append(f"fuzz step {step}: SoC {soc} out of bounds")
            break

    q_bat = Battery(id="q", p_max_kw=2.0, s_conv_kva=3.0)
    soc = soc0 = 3.3330000000000002
    for _ in range(200):
        p, q = clip_power(q_bat, 0.0, rng.uniform(-5, 5), *bounds_at(q_bat, soc, 1.0))
        soc = next_soc(q_bat, soc, p, q, 1.0)
    if soc != soc0:
        failures.append("reactive-only sequence changed SoC")

    noshift = build_stylized_scenario(
        Architecture(ArchKind.A2, allow_load_shift=False), "N5", 3.0
    )
    greedy = replace(
        build_stylized_scenario(
            Architecture(ArchKind.A2, allow_load_shift=False), "N5", 3.0, controller="greedy"
        ),
        label="greedy-noshift",
    )
    for name, scenario in (("fixed", noshift), ("greedy", greedy)):
        for rec in run_scenario(scenario).per_timestep:
            total = sum(a.p_kw for a in rec.actions)
            if abs(total) > 1e-9:
                failures.append(f"{name} t={rec.t_h}: sum(p)={total:.2e} kW exceeds 1e-9")

    elapsed = time.perf_counter() - start
    _report(6, failures, elapsed, "SoC fuzz, reactive bit-identity, zero-sum dispatch")
    assert not failures


def test_criterion_7_determinism_and_presets(tmp_path):
    """Repeated runs of every preset produce byte-identical CSVs; all ten
    presets complete in under 10 seconds total."""
    start = time.perf_counter()
    failures: list[str] = []

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for preset in RUN_PRESET_NAMES:
        for out in (dir_a, dir_b):
            code = main(["run", "--preset", preset, "--out", str(out / preset)])
            if code != 0:
                failures.append(f"{preset}: exit code {code}")
    elapsed = time.perf_counter() - start

    if not failures:
        for preset in RUN_PRESET_NAMES:
            cmp = filecmp.dircmp(dir_a / preset, dir_b / preset)
            if cmp.diff_files or cmp.left_only or cmp.right_only:
                failures.append(f"{preset}: outputs differ between reruns: {cmp.diff_files}")
            for name in (f"{preset}-summary.csv", f"{preset}-timeseries.csv"):
                a = (dir_a / preset / name).read_bytes()
                b = (dir_b / preset / name).read_bytes()
                if a != b:
                    failures.append(f"{name}: not byte-identical")

    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s for two passes over all presets")
    _report(
        7,
        failures,
        elapsed,
        f"{len(RUN_PRESET_NAMES)} presets run twice, byte-compared",
    )
    assert not failures
