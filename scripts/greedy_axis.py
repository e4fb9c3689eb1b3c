"""Time the greedy A2 search in process: the dispatch axis.

Usage: python scripts/greedy_axis.py CHECKOUT [REPEAT]

Imports ``phasebal`` from ``CHECKOUT/src`` and runs the greedy-fleet
shape, the stylized day with an A2 fleet at N5 that may shift load, under
the greedy controller, at fleets of 1.5, 4.5 and 7.5 kW (three units of a
third each). Prints one JSON line per fleet with its number of searches
and the minimum over ``REPEAT`` calls (default 20), in raw
``perf_counter`` seconds, of:

- ``greedy_search_s``: the run's ``greedy_powers`` calls replayed on their
  recorded nets and bounds, per search;
- ``run_scenario_s``: ``run_scenario`` on the parsed scenario.
"""

from __future__ import annotations

import json
import os
import sys
import time

FLEETS_KW = (1.5, 4.5, 7.5)


def best_of(repeat: int, call) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def config(fleet_kw: float) -> dict:
    return {
        "label": "greedy-axis",
        "scenario": {
            "type": "stylized",
            "architecture": "A2",
            "allow_load_shift": True,
            "storage_node": "N5",
            "battery_kw": fleet_kw,
            "controller": "greedy",
            "target_phase": "A",
        },
    }


def main() -> None:
    checkout = sys.argv[1]
    repeat = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    sys.path.insert(0, os.path.join(checkout, "src"))
    from phasebal import scenarios
    from phasebal.cli import parse_config

    search = scenarios.greedy_powers
    for fleet_kw in FLEETS_KW:
        scenario = parse_config(config(fleet_kw)).scenario
        calls = []

        def record(net, arch, bounds):
            calls.append((list(net), arch, list(bounds)))
            return search(net, arch, bounds)

        scenarios.greedy_powers = record
        try:
            scenarios.run_scenario(scenario)
        finally:
            scenarios.greedy_powers = search

        def replay() -> None:
            for net, arch, bounds in calls:
                search(list(net), arch, bounds)  # A1/A3 add to their net row

        times = {
            "fleet_kw": fleet_kw,
            "searches": len(calls),
            "greedy_search_s": best_of(repeat, replay) / max(len(calls), 1),
            "run_scenario_s": best_of(repeat, lambda: scenarios.run_scenario(scenario)),
        }
        print(json.dumps(times))


if __name__ == "__main__":
    main()
