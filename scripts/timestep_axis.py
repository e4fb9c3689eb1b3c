"""Time a long clock-schedule run in process: the timestep axis.

Usage: python scripts/timestep_axis.py CHECKOUT [DAYS [REPEAT]]

Imports ``phasebal`` from ``CHECKOUT/src`` and runs the long-horizon
shape over ``DAYS`` days (default 365) at 15-minute steps: the six-node
chain with 2 kW/phase loads at N1..N5, a 10 kW single-phase PV window
(10:00-15:00) and EV window (18:00-23:00) at N3 whose daily levels are
drawn from a fixed seed, and an A2 fleet of 1 kW / 4 kWh units on the
clock, clipped at the end of every window. Prints one JSON line with the
day and step counts and the minimum over ``REPEAT`` calls (default 5), in
raw ``perf_counter`` seconds, of:

- ``run_scenario_s``: ``run_scenario`` on the parsed scenario;
- ``main_run_s``: ``main(["run", CONFIG, "--out", DIR])`` on the same
  config, parsing it and writing its CSV files to a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time


def best_of(repeat: int, call) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def config(days: int) -> dict:
    """The long-horizon run over ``days`` days, its levels drawn from seed 1."""
    rng = random.Random(1)
    dt_h, n_steps = 0.25, days * 96
    sun = [0.5 + 0.5 * rng.random() for _ in range(days)]
    ev = [0.6 + 0.4 * rng.random() for _ in range(days)]

    def daily(levels: list[float], window: tuple[float, float]) -> list[float]:
        return [
            levels[k // 96] if window[0] <= (k % 96) * dt_h < window[1] else 0.0
            for k in range(n_steps)
        ]

    nodes = [f"N{i}" for i in range(6)]
    devices = [
        {"label": f"load-{n}", "node": n, "kind": "load", "p_kw": 2.0, "profile": "flat"}
        for n in nodes[1:]
    ]
    devices += [
        {"label": "pv-N3", "node": "N3", "kind": "dg", "phase": "B", "p_kw": -10.0, "profile": "pv"},
        {"label": "ev-N3", "node": "N3", "kind": "ev", "phase": "B", "p_kw": 10.0, "profile": "ev"},
    ]
    batteries = []
    for ph in "ABC":
        bid = f"bat-{ph.lower()}"
        devices.append(
            {"label": f"st-{ph.lower()}", "node": "N5", "kind": "storage", "phase": ph, "battery_id": bid}
        )
        batteries.append(
            {"id": bid, "p_max_kw": 1.0, "e_max_kwh": 4.0, "soc_kwh": 0.0 if ph == "B" else 4.0}
        )
    return {
        "label": "timestep-axis",
        "scenario": {
            "type": "custom",
            "feeder": {
                "source_node": "N0",
                "nodes": nodes,
                "segments": [
                    {"from_node": a, "to_node": b, "length_km": 0.1} for a, b in zip(nodes, nodes[1:])
                ],
                "devices": devices,
            },
            "profiles": {
                "flat": [1.0] * n_steps,
                "pv": daily(sun, (10.0, 15.0)),
                "ev": daily(ev, (18.0, 23.0)),
            },
            "horizon_h": days * 24.0,
            "dt_h": dt_h,
            "batteries": batteries,
            "architecture": "A2",
            "allow_load_shift": True,
            "controller": "fixed_schedule",
            "schedule": {"dg_window": [10.0, 15.0], "ev_window": [18.0, 23.0], "target_phase": "B"},
        },
    }


def main() -> None:
    checkout = sys.argv[1]
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 365
    repeat = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    sys.path.insert(0, os.path.join(checkout, "src"))
    from phasebal.cli import main as cli_main
    from phasebal.cli import parse_config
    from phasebal.scenarios import run_scenario

    doc = config(days)
    scenario = parse_config(doc).scenario
    times = {
        "days": days,
        "steps": scenario.n_steps,
        "run_scenario_s": best_of(repeat, lambda: run_scenario(scenario)),
    }
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "timestep-axis.json")
        with open(path, "w") as f:
            json.dump(doc, f)

        def run_cli() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["run", path, "--out", out])

        times["main_run_s"] = best_of(repeat, run_cli)
    print(json.dumps(times))


if __name__ == "__main__":
    main()
