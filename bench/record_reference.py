"""Record ``reference.json``: each workload's result fingerprint per seed.

    python3 bench/record_reference.py [--seeds 32]

Run from the root of a checkout at a commit whose results are trusted; the
benchmark then checks every later commit against these values for the same
seeds (``run.py`` compares them with a relative tolerance of 1e-9).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, CHILD_ENV
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32, help="record seeds 0..N-1")
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    work = root / ".bench_out" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)
    reference = {}
    try:
        for name, generate in WORKLOADS.items():
            configs = {}
            for seed in range(args.seeds):
                path = work / f"{name}-{seed}.json"
                path.write_text(json.dumps(generate(seed)[1]), encoding="utf-8")
                configs[str(seed)] = str(path)
            job, out = work / "job.json", work / "out.json"
            job.write_text(json.dumps({"configs": configs, "src": str(root / "src")}), encoding="utf-8")
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), "reference", str(job), str(out)],
                env=env, cwd=root, check=True,
            )
            reference[name] = json.loads(out.read_text(encoding="utf-8"))
            print(f"{name}: {len(reference[name])} seeds", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
