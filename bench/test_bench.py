"""Self-test of the benchmark at reduced input size.

    python3 -m pytest bench/test_bench.py

Run from the root of a checkout. Each case runs ``bench/run.py`` with
``--size smoke`` and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("powerflow.iterations", "powerflow.solve_calls", "cli.csv_rows")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_reported(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_layer_metrics_reported_and_counts_repeat(workload):
    first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == units(second) == want
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("size", ["full", "smoke"])
def test_generated_configs_are_deterministic_and_valid(workload, size):
    """Same seed, same document; and the rules that keep configs valid as
    the package evolves: no seed key, A2 always with load shift, profiles
    finite and non-negative."""
    command, doc, sizes = WORKLOADS[workload](7, size)
    assert (command, doc, sizes) == WORKLOADS[workload](7, size)
    body = doc.get("scenario") or doc["sweep"]
    assert "seed" not in body
    if body.get("architecture") == "A2":
        assert body["allow_load_shift"] is True
    for values in body.get("profiles", {}).values():
        assert all(math.isfinite(v) and v >= 0 for v in values)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("greedy-fleet", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
