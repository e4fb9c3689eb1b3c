"""Time a large DG/EV penetration sweep in process: the cells axis.

Usage: python scripts/cells_axis.py CHECKOUT [STEP_PCT [REPEAT]]

Imports ``phasebal`` from ``CHECKOUT/src`` and sweeps the 5.0 kW compact
chain over penetrations 0-120 % in ``STEP_PCT`` steps (default 0.1:
1,201 penetrations), nodes N1-N5 and kinds DG and EV (12,010 cells at the
default step, 130 at a step of 10). Prints one JSON line with the cell
count and the minimum over ``REPEAT`` calls (default 5), in raw
``perf_counter`` seconds, of:

- ``sweep_and_tabulate_s``: ``sweep_and_tabulate`` alone;
- ``rows_read_s``: ``sweep_and_tabulate`` and then ``list`` of its rows,
  so every row and result is made;
- ``main_sweep_s``: ``main(["sweep", CONFIG, "--out", DIR])`` on the same
  grid, writing its five tables to a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
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


def main() -> None:
    checkout = sys.argv[1]
    step = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1
    repeat = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    sys.path.insert(0, os.path.join(checkout, "src"))
    from phasebal import DeviceKind, SweepTemplate, sweep_and_tabulate
    from phasebal.cli import main as cli_main

    pens = [round(i * step, 10) for i in range(round(120 / step) + 1)]
    nodes, kinds = ["N1", "N2", "N3", "N4", "N5"], [DeviceKind.DG, DeviceKind.EV]
    template = SweepTemplate(5.0)
    times = {
        "cells": len(pens) * len(nodes) * len(kinds),
        "sweep_and_tabulate_s": best_of(
            repeat, lambda: sweep_and_tabulate(template, pens, nodes, kinds)
        ),
        "rows_read_s": best_of(
            repeat, lambda: list(sweep_and_tabulate(template, pens, nodes, kinds))
        ),
    }
    sweep = {"total_phase_load_kw": 5.0, "network_class": "compact",
             "penetrations_pct": pens, "nodes": nodes, "kinds": ["dg", "ev"]}
    with tempfile.TemporaryDirectory() as out:
        config = os.path.join(out, "cells-axis.json")
        with open(config, "w") as f:
            json.dump({"label": "cells-axis", "sweep": sweep}, f)

        def run_cli() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["sweep", config, "--out", out])

        times["main_sweep_s"] = best_of(repeat, run_cli)
    print(json.dumps(times))


if __name__ == "__main__":
    main()
