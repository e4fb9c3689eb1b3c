"""Shared test helpers: random feeder generation, solution residuals and
the loop reference of the greedy balancing search."""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from phasebal.network import (
    CONDUCTORS,
    Device,
    DeviceKind,
    Feeder,
    FeederSpec,
    PHASES,
    LineSegment,
    Phase,
    build_feeder,
)
from phasebal.powerflow import VoltageSolution
from phasebal.storage import (
    Architecture,
    ArchKind,
    Battery,
    DispatchAction,
    _candidate_powers,
    power_bounds,
)


def random_feeder(rng: random.Random, max_nodes: int = 6) -> Feeder:
    """Random radial tree with random single- or three-phase devices.

    Sized so that every draw is comfortably solvable (no collapse): short
    segments, moderate impedances, device powers up to 2 kW per phase.
    """
    n = rng.randint(2, max_nodes)
    nodes = [f"N{i}" for i in range(n)]
    segments = []
    for i in range(1, n):
        parent = rng.randrange(0, i)
        z_ph = complex(rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.15))
        z_n = complex(rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.15))
        z_m = complex(0.0, rng.uniform(0.0, 0.04)) if rng.random() < 0.3 else 0j
        segments.append(
            LineSegment(
                from_node=nodes[parent],
                to_node=nodes[i],
                length_km=rng.uniform(0.05, 0.3),
                z_phase_per_km=z_ph,
                z_neutral_per_km=z_n,
                z_mutual_per_km=z_m,
            )
        )
    devices = []
    for d in range(rng.randint(0, 6)):
        kind = rng.choice([DeviceKind.LOAD, DeviceKind.EV, DeviceKind.DG])
        p_kw = rng.uniform(0.0, 2.0)
        if kind is DeviceKind.DG:
            s = complex(-p_kw, 0.0)
        else:
            s = complex(p_kw, p_kw * rng.uniform(0.0, 0.48))  # pf 0.9..1 lagging
        devices.append(
            Device(
                label=f"dev{d}",
                node=rng.choice(nodes[1:]),
                kind=kind,
                phase=rng.choice([Phase.A, Phase.B, Phase.C, None]),
                s_rated_kva=s,
            )
        )
    return build_feeder(
        FeederSpec(source_node="N0", nodes=nodes, segments=segments, devices=devices)
    )


def max_voltage_gap(a: VoltageSolution, b: VoltageSolution, nodes) -> float:
    va, vb = a.v, b.v
    return max(abs(va[n][c] - vb[n][c]) for n in nodes for c in CONDUCTORS)


def kvl_residual(feeder: Feeder, sol: VoltageSolution) -> float:
    """Worst violation of V_child = V_parent - Z I over all segments."""
    v, branch = sol.v, sol.branch_current
    worst = 0.0
    for k, seg in enumerate(feeder.segments):
        zp = seg.z_phase_per_km * seg.length_km
        zn = seg.z_neutral_per_km * seg.length_km
        zm = seg.z_mutual_per_km * seg.length_km
        amps = [branch[k][c] for c in CONDUCTORS]
        for row, c in enumerate(CONDUCTORS):
            z_row = [zm] * 4
            z_row[row] = zn if c == "N" else zp
            drop = sum(z_row[col] * amps[col] for col in range(4))
            expect = v[seg.from_node][c] - drop
            worst = max(worst, abs(v[seg.to_node][c] - expect))
    return worst


def kcl_residual(feeder: Feeder, sol: VoltageSolution, injections=None) -> float:
    """Worst nodal current imbalance, with device currents recomputed from
    the solved voltages (independent of how branch currents were built).

    ``injections`` overrides device powers by label, as the solvers do.
    """
    v, branch = sol.v, sol.branch_current
    powers = {d.label: (d, d.s_rated_kva) for d in feeder.devices}
    for dev, s in (injections or {}).items():
        powers[dev.label] = (dev, complex(s))
    drawn = {(node, c): 0j for node in feeder.nodes for c in CONDUCTORS}
    for dev, s in powers.values():
        for ph in dev.connected_phases:
            amps = (s * 1000.0 / (v[dev.node][ph.value] - v[dev.node]["N"])).conjugate()
            drawn[dev.node, ph.value] += amps
            drawn[dev.node, "N"] -= amps
    net_in = dict.fromkeys(drawn, 0j)
    for k, seg in enumerate(feeder.segments):
        for c in CONDUCTORS:
            net_in[seg.to_node, c] += branch[k][c]
            net_in[seg.from_node, c] -= branch[k][c]
    # the slack source balances the whole feeder by construction
    return max(
        (abs(net_in[key] - drawn[key]) for key in drawn if key[0] != feeder.source_node),
        default=0.0,
    )


def _spread(per_phase: Mapping[Phase, float]) -> float:
    values = [per_phase[ph] for ph in PHASES]
    return max(values) - min(values)


def reference_greedy(
    per_phase_net_kw: Mapping[Phase, float],
    arch: Architecture,
    batteries: Sequence[Battery],
    dt_h: float,
) -> list[DispatchAction]:
    """The greedy balancing search as a per-candidate Python loop: the
    reference that ``greedy_balance_controller`` must match action for
    action, tie rule included."""
    net = {ph: float(per_phase_net_kw[ph]) for ph in PHASES}

    if arch.kind is ArchKind.A1:
        bat = batteries[0]
        best = (DispatchAction(bat.id, Phase.A), _spread(net))
        for phase in PHASES:
            for p in _candidate_powers(bat, dt_h):
                adj = dict(net)
                adj[phase] += p
                s = _spread(adj)
                if s < best[1] - 1e-12:
                    best = (DispatchAction(bat.id, phase, p), s)
        return [best[0]]

    if len(batteries) != 3:
        raise ValueError(f"{arch.kind.value} needs exactly three batteries")

    if arch.kind is ArchKind.A2:
        cands = [_candidate_powers(b, dt_h) for b in batteries]
        zero_sum = not arch.allow_load_shift
        best_actions = [DispatchAction(b.id, ph) for b, ph in zip(batteries, PHASES)]
        best_spread = _spread(net)
        lo_c, hi_c = power_bounds(batteries[2], dt_h)
        for pa in cands[0]:
            for pb in cands[1]:
                if zero_sum:
                    pc_list = [-(pa + pb)]
                    if not lo_c - 1e-12 <= pc_list[0] <= hi_c + 1e-12:
                        continue
                else:
                    pc_list = cands[2]
                for pc in pc_list:
                    s = _spread(
                        {
                            Phase.A: net[Phase.A] + pa,
                            Phase.B: net[Phase.B] + pb,
                            Phase.C: net[Phase.C] + pc,
                        }
                    )
                    if s < best_spread - 1e-12:
                        best_spread = s
                        best_actions = [
                            DispatchAction(batteries[0].id, Phase.A, pa),
                            DispatchAction(batteries[1].id, Phase.B, pb),
                            DispatchAction(batteries[2].id, Phase.C, pc),
                        ]
        return best_actions

    # A3: sequential greedy with per-battery phase selection.
    adjusted = dict(net)
    actions: list[DispatchAction] = []
    for bat in batteries:
        best = (DispatchAction(bat.id, Phase.A), _spread(adjusted))
        for phase in PHASES:
            for p in _candidate_powers(bat, dt_h):
                trial = dict(adjusted)
                trial[phase] += p
                s = _spread(trial)
                if s < best[1] - 1e-12:
                    best = (DispatchAction(bat.id, phase, p), s)
        actions.append(best[0])
        adjusted[best[0].phase] += best[0].p_kw
    return actions
