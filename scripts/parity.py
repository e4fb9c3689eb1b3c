"""Compare the CLI of two checkouts on one fixed set of inputs, byte for byte.

Usage: python3 scripts/parity.py A B

Runs ``phasebal.cli`` from ``A/src`` and from ``B/src``, one fresh
process per job and checkout, without writing bytecode, and each in its
own empty directory with ``--out out``. The jobs are fixed by the
repository this script sits in:

- every bundled preset (``run`` or ``sweep``);
- every config under ``tests/golden/`` (``run`` or ``sweep`` by its top
  key) and every measured series there (``ingest``);
- the four bench workloads at seeds 0-2, full and smoke size, generated
  by ``bench/workloads.py``.

For each job it compares the exit code, stdout, stderr, the names of the
output files and the bytes of each. Prints one JSON line with the job and
file counts, the number of differences and the first few of them; exits
1 if any differ. ``python3 scripts/parity.py . .`` checks that two runs
of one checkout write the same bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)

#: Runs the CLI of the checkout whose ``src`` is argv[1] on argv[2:].
_CLI = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from phasebal.cli import main; sys.exit(main(sys.argv[1:]))"
)


def jobs(configs: Path) -> list[tuple[str, list[str]]]:
    """Each job's name and CLI arguments; generated configs are written to
    ``configs``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from phasebal.presets import RUN_PRESET_NAMES, SWEEP_PRESET_NAMES
    from workloads import SIZES, WORKLOADS

    out = [(f"preset-{name}", ["run", "--preset", name]) for name in RUN_PRESET_NAMES]
    out += [(f"preset-{name}", ["sweep", "--preset", name]) for name in SWEEP_PRESET_NAMES]
    for path in sorted((ROOT / "tests" / "golden").iterdir()):
        if path.name.startswith("golden-"):  # a frozen output
            continue
        if path.suffix == ".csv":
            out.append((f"golden-{path.stem}", ["ingest", str(path)]))
        elif path.suffix == ".json":
            command = "sweep" if "sweep" in json.loads(path.read_text()) else "run"
            out.append((f"golden-{path.stem}", [command, str(path)]))
    for name, generate in WORKLOADS.items():
        for size in SIZES:
            for seed in SEEDS:
                command, doc, _ = generate(seed, size)
                config = configs / f"{name}-{size}-{seed}.json"
                config.write_text(json.dumps(doc))
                out.append((config.stem, [command, str(config)]))
    return out


def run(checkout: Path, args: list[str], where: Path) -> tuple[int, bytes, bytes, dict]:
    """Exit code, stdout, stderr and output files (name -> bytes) of one job."""
    where.mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CLI, str(checkout / "src"), *args, "--out", "out"],
        cwd=where,
        capture_output=True,
        timeout=600,
    )
    files = {
        str(p.relative_to(where)): p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()
    }
    return done.returncode, done.stdout, done.stderr, files


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (Path(x).resolve() for x in argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        todo = jobs(tmp / "configs")
        n_files, differences = 0, []
        for name, args in todo:
            got_a = run(a, args, tmp / "a" / name)
            got_b = run(b, args, tmp / "b" / name)
            for what, x, y in zip(("exit code", "stdout", "stderr"), got_a, got_b):
                if x != y:
                    differences.append(f"{name}: {what}")
            files_a, files_b = got_a[3], got_b[3]
            n_files += len(files_a.keys() | files_b.keys())
            for path in sorted(files_a.keys() | files_b.keys()):
                if files_a.get(path) != files_b.get(path):
                    differences.append(f"{name}: {path}")
    print(
        json.dumps(
            {
                "a": str(a),
                "b": str(b),
                "jobs": len(todo),
                "files": n_files,
                "differences": len(differences),
                "first": differences[:10],
            }
        )
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
