"""Seeded generators of the benchmark's phasebal configs.

Each generator returns ``(command, config, sizes)``: the CLI subcommand to
run, the JSON config document handed to the program, and the input sizes
recorded next to every result. The same (workload, seed, size) always gives
the same document; the program sees only that document.

Rules the generated configs follow so they stay valid as the package
evolves: no ``seed`` config key, no ``sweep --jobs``, A2 fleets always allow
load shifting, and every profile value is finite and >= 0. The seed varies
placement, phases and profile shapes but never the amount of work (node,
step and cell counts, fleet rating), so run time does not depend on it.

Only the standard library is used here: run.py imports this module
without importing phasebal.
"""

from __future__ import annotations

import math
import random

PHASES = ("A", "B", "C")
SIZES = ("full", "smoke")

#: Full compact penetration grid: 0..120 % in 10 % steps.
SWEEP_PENETRATIONS = [10 * k for k in range(13)]


def sweep_cells(seed: int, size: str = "full"):
    rng = random.Random(seed)
    pens = SWEEP_PENETRATIONS if size == "full" else [0, 60, 120]
    nodes = ["N1", "N2", "N3", "N4", "N5"] if size == "full" else ["N5"]
    doc = {
        "label": "sweep-cells",
        "sweep": {
            "total_phase_load_kw": round(4.5 + rng.random(), 3),
            "network_class": "compact",
            "penetrations_pct": pens,
            "nodes": nodes,
            "kinds": ["dg", "ev"],
            "device_phase": PHASES[rng.randrange(3)],
        },
    }
    cells = 2 * len(nodes) * len(pens)
    return "sweep", doc, {"nodes": 6, "steps": 24, "cells": cells}


def _daily(n_steps: int, dt_h: float, shape) -> list[float]:
    return [round(max(0.0, shape(k, (k * dt_h) % 24.0)), 6) for k in range(n_steps)]


def feeder_1k(seed: int, size: str = "full"):
    """Random recursive tree: node i hangs off a parent drawn uniformly from
    nodes 0..i-1, which keeps the depth near ln(n) for every seed. Deep trees
    (parent among the last few nodes) collapse at this loading."""
    rng = random.Random(seed)
    n = 1000 if size == "full" else 60
    steps = 24
    names = [f"n{i}" for i in range(n)]
    segments = [
        {
            "from_node": names[rng.randrange(i)],
            "to_node": names[i],
            "length_km": round(0.005 + 0.015 * rng.random(), 6),
        }
        for i in range(1, n)
    ]
    devices = []
    for i in range(1, n):
        devices.append(
            {"label": f"load-{i}", "node": names[i], "kind": "load", "p_kw": 0.05, "profile": "base"}
        )
        u = rng.random()
        if u < 0.20:
            kind, p_kw, profile = "dg", -0.3, "pv"
        elif u < 0.35:
            kind, p_kw, profile = "ev", 0.3, "ev"
        else:
            continue
        devices.append(
            {
                "label": f"{kind}-{i}",
                "node": names[i],
                "kind": kind,
                "phase": PHASES[rng.randrange(3)],
                "p_kw": p_kw,
                "profile": profile,
            }
        )
    peak = 0.7 + 0.3 * rng.random()
    ev_start = 17 + rng.randrange(3)
    profiles = {
        "base": _daily(steps, 1.0, lambda k, h: 0.6 + 0.4 * math.sin(math.pi * h / 24.0) ** 2),
        "pv": _daily(steps, 1.0, lambda k, h: peak * math.sin(math.pi * (h - 6.0) / 12.0)),
        "ev": _daily(steps, 1.0, lambda k, h: 1.0 if ev_start <= h < ev_start + 5 else 0.0),
    }
    doc = {
        "label": "feeder-1k",
        "scenario": {
            "type": "custom",
            "feeder": {"source_node": names[0], "nodes": names, "segments": segments, "devices": devices},
            "profiles": profiles,
            "horizon_h": float(steps),
            "dt_h": 1.0,
        },
    }
    return "run", doc, {"nodes": n, "steps": steps, "cells": 1}


def greedy_fleet(seed: int, size: str = "full"):
    rng = random.Random(seed)
    doc = {
        "label": "greedy-fleet",
        "scenario": {
            "type": "stylized",
            "architecture": "A2",
            "allow_load_shift": True,
            "storage_node": ("N0", "N5")[rng.randrange(2)],
            "battery_kw": 4.5 if size == "full" else 1.5,
            "controller": "greedy",
            "target_phase": PHASES[rng.randrange(3)],
        },
    }
    return "run", doc, {"nodes": 6, "steps": 24, "cells": 1}


def long_horizon(seed: int, size: str = "full"):
    """The stylized chain as a custom scenario at 15-minute steps over two
    weeks: 2 kW/phase loads at N1..N5, a 10 kW single-phase PV window and a
    10 kW single-phase EV window at N3, and an A2 fleet on the clock. The
    units hold 4 kWh, less than a 5 h window at 1 kW, so the schedule is
    clipped at the end of every window."""
    rng = random.Random(seed)
    days = 14 if size == "full" else 1
    dt_h = 0.25
    n_steps = round(days * 24 / dt_h)
    target = PHASES[rng.randrange(3)]
    storage_node = ("N0", "N5")[rng.randrange(2)]
    sun = [0.5 + 0.5 * rng.random() for _ in range(days)]
    ev = [0.6 + 0.4 * rng.random() for _ in range(days)]
    nodes = [f"N{i}" for i in range(6)]
    devices = [
        {"label": f"load-{node}", "node": node, "kind": "load", "p_kw": 2.0, "profile": "flat"}
        for node in nodes[1:]
    ]
    devices += [
        {"label": "pv-N3", "node": "N3", "kind": "dg", "phase": target, "p_kw": -10.0, "profile": "pv"},
        {"label": "ev-N3", "node": "N3", "kind": "ev", "phase": target, "p_kw": 10.0, "profile": "ev"},
    ]
    batteries = []
    for ph in PHASES:
        bid = f"bat-{ph.lower()}"
        devices.append(
            {"label": f"st-{ph.lower()}", "node": storage_node, "kind": "storage", "phase": ph, "battery_id": bid}
        )
        # target-phase unit starts empty (it charges first), companions full
        batteries.append(
            {"id": bid, "p_max_kw": 1.0, "e_max_kwh": 4.0, "soc_kwh": 0.0 if ph == target else 4.0}
        )
    day = lambda k: int(k * dt_h // 24)  # noqa: E731
    doc = {
        "label": "long-horizon",
        "scenario": {
            "type": "custom",
            "feeder": {
                "source_node": "N0",
                "nodes": nodes,
                "segments": [
                    {"from_node": nodes[i], "to_node": nodes[i + 1], "length_km": 0.1} for i in range(5)
                ],
                "devices": devices,
            },
            "profiles": {
                "flat": [1.0] * n_steps,
                "pv": _daily(n_steps, dt_h, lambda k, h: sun[day(k)] if 10.0 <= h < 15.0 else 0.0),
                "ev": _daily(n_steps, dt_h, lambda k, h: ev[day(k)] if 18.0 <= h < 23.0 else 0.0),
            },
            "horizon_h": days * 24.0,
            "dt_h": dt_h,
            "batteries": batteries,
            "architecture": "A2",
            "allow_load_shift": True,
            "controller": "fixed_schedule",
            "schedule": {"dg_window": [10.0, 15.0], "ev_window": [18.0, 23.0], "target_phase": target},
        },
    }
    return "run", doc, {"nodes": 6, "steps": n_steps, "cells": 1}


WORKLOADS = {
    "sweep-cells": sweep_cells,
    "feeder-1k": feeder_1k,
    "greedy-fleet": greedy_fleet,
    "long-horizon": long_horizon,
}
