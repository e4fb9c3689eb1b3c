"""phasebal benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a phasebal checkout; the code under test is that
checkout's ``src/phasebal``, put first on the children's PYTHONPATH. The load
is a closed loop with one client: one child process at a time, started only
after the previous one has ended, with BLAS/OpenMP pinned to one thread.

``--trace 0`` measures the end-to-end metrics within about S seconds, in
rounds of one setup probe, one CLI pass and one in-process compute call.
Times are reported in reference seconds (see ``KERNEL_REF_S``):

- ``setup_s``: fresh interpreter spawn until ``phasebal.cli.parse_config``
  has returned the built scenario or sweep (imports, schema validation,
  feeder build), median over repeated probes;
- ``wall_s`` and ``peak_rss_mb``: repeated ``phasebal run|sweep`` CLI
  invocations (``python -m phasebal.cli``), spawn to exit, with peak RSS from
  ``os.wait4``; every pass's outputs are checked;
- ``solve_s``: the public compute call in-process after one warm-up call
  (see ``worker.py``).

``--trace 1`` makes a separate traced run that gives the per-layer metrics.
Outside the timed region every run checks its outputs: all files present
and byte-identical across passes, the CLI summary equal to the in-process
result, power balance on every step, agreement with ``oracle_solve`` on
sampled steps, and, for the seeds in ``reference.json``, the values recorded
at the seed commit. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the
environment, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent

#: Child environment on top of the caller's: one BLAS/OpenMP thread and a
#: fixed hash seed, so run time and output do not depend on the machine's
#: thread count or on string hashing.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Files each CLI command writes, as ``<label>-<suffix>``.
EXPECTED_OUTPUTS = {
    "run": ("config.json", "timeseries.csv", "summary.csv"),
    "sweep": ("config.json", "sweep.csv", "fig-losses.csv", "fig-vuf.csv", "fig-drop.csv", "failures.csv"),
}
#: The CLI file holding the rows compared with the in-process result.
SUMMARY_OUTPUT = {"run": "summary.csv", "sweep": "sweep.csv"}

#: The least and most rounds a run makes.
MIN_SAMPLES, MAX_SAMPLES = 3, 60

#: Host-speed calibration. On the shared 2-vCPU host the benchmark was
#: defined on, CPU speed drifts by up to 1.8x in regimes that last from
#: seconds to minutes (CPU time drifts with wall time; there is no steal), so
#: raw times of runs a minute apart differ by more than any useful bound.
#: Every timed sample is therefore bracketed by runs of a fixed kernel and
#: reported in reference seconds: raw seconds x KERNEL_REF_S / (mean kernel
#: time around the sample). KERNEL_REF_S is the kernel's time on that host
#: when it was fast, so there reference seconds read as wall seconds. Raw
#: samples are kept in the result record.
KERNEL_REF_S = 0.021

#: Past this many seconds no new sample starts, so a very slow commit still
#: finishes within the 180 s a run may take.
HARD_STOP_S = 140.0

#: Tolerance for reference values (feeder-1k included): a batched solver
#: was measured 3e-14 V off on large trees, far inside this.
REF_REL_TOL, REF_ABS_TOL = 1e-9, 1e-12

SETUP_PROBE = """\
import json, sys
import phasebal.cli
with open(sys.argv[1], encoding="utf-8") as handle:
    phasebal.cli.parse_config(json.load(handle), sys.argv[1])
print("ready", flush=True)
"""

IMPORT_PROBE = """\
from time import perf_counter
start = perf_counter()
import phasebal.cli
print(perf_counter() - start)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.parse_config_s": "s",
    "cli.csv_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "network.build_feeder_s": "s",
    "network.build_feeder_calls": "count",
    "scenarios.run_scenario_calls": "count",
    "scenarios.loop_self_s": "s",
    "scenarios.build_s": "s",
    "scenarios.cells_failed": "count",
    "storage.dispatch_s": "s",
    "storage.dispatch_calls": "count",
    "storage.clip_s": "s",
    "storage.clip_calls": "count",
    "storage.clip_frac": "ratio",
    "powerflow.solve_s": "s",
    "powerflow.solve_calls": "count",
    "powerflow.iterations": "count",
    "powerflow.us_per_node_iter": "us",
    "powerflow.solve_ms_p50": "ms",
    "powerflow.solve_ms_p99": "ms",
    "powerflow.summarize_s": "s",
    "metrics.node_metrics_s": "s",
    "metrics.node_metrics_calls": "count",
    "trace.overhead_s": "s",
}


def kernel_s() -> float:
    """Median of three runs of a fixed kernel shaped like phasebal's work:
    4x4 complex products in a Python loop with dict and float updates."""
    z = np.eye(4, dtype=complex) * (0.01 + 0.002j)
    times = []
    for _ in range(3):
        start = perf_counter()
        v = np.ones(4, dtype=complex)
        acc: dict[int, float] = {}
        total = 0.0
        for i in range(12000):
            v = v - z @ v
            acc[i & 255] = abs(complex(v[0])) + total
            total += 1e-9
        times.append(perf_counter() - start)
    return statistics.median(times)


class BenchError(Exception):
    """A failure that leaves a metric unmeasured; the run prints no result."""


class Run:
    """One benchmark run: its checkout, scratch directory, child environment,
    clock and the failures its checks found."""

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.start = perf_counter()
        self.work = root / ".bench_out" / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
        self.results = root / ".bench_out" / "results"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def outcome(self, ok: bool, what: str) -> None:
        """Count one attempted pass or check, and its failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # --- children ----------------------------------------------------------------

    def _wait(self, proc: subprocess.Popen, limit: float):
        """Reap ``proc`` with its rusage, killing it after ``limit`` seconds."""
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage

    def setup_probe(self, config: Path) -> float | None:
        log = self.work / "probe.log"
        with open(log, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", SETUP_PROBE, str(config)],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root,
            )
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.close()
            self._wait(proc, 120)
        return elapsed if proc.returncode == 0 and line.strip() == b"ready" else None

    def import_probe(self) -> float | None:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, env=self.env, cwd=self.root, timeout=120,
        )
        return float(proc.stdout) if proc.returncode == 0 else None

    def cli_pass(self, command: str, config: Path, out: Path) -> tuple[float, float, int]:
        """One CLI invocation: (wall s, peak RSS MB, exit code)."""
        with open(self.work / "cli.log", "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "phasebal.cli", command, str(config), "--out", str(out)],
                stdout=log, stderr=log, env=self.env, cwd=self.root,
            )
            usage = self._wait(proc, 120)
            wall = perf_counter() - start
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def worker(self, mode: str, job: dict) -> dict:
        job = dict(job, src=str(self.root / "src"))
        job_path, out_path = self.work / f"{mode}-job.json", self.work / f"{mode}-out.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        limit = max(10.0, 175.0 - self.elapsed())
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), mode, str(job_path), str(out_path)],
            capture_output=True, env=self.env, cwd=self.root, timeout=limit,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
        return json.loads(out_path.read_text(encoding="utf-8"))

    # --- checks ------------------------------------------------------------------

    def check_outputs(self, command: str, label: str, out: Path, code: int) -> dict[str, bytes]:
        """Exit code and expected files of one pass; returns their contents."""
        names = [f"{label}-{suffix}" for suffix in EXPECTED_OUTPUTS[command]]
        missing = [n for n in names if not (out / n).is_file()]
        self.outcome(code == 0 and not missing, f"{out.name}: exit {code}, missing {missing}")
        return {n: (out / n).read_bytes() for n in names if n not in missing}

    def check_same(self, first: dict, other: dict, what: str) -> None:
        self.outcome(first == other, f"{what}: outputs differ from the first pass")

    def check_rows(self, csv_bytes: bytes | None, rows: list[list]) -> None:
        """CLI summary (or sweep table) equals the in-process result exactly;
        floats are printed with 17 significant digits, which round-trips."""
        ok = csv_bytes is not None
        if ok:
            table = list(csv.reader(csv_bytes.decode("utf-8").splitlines()))[1:]
            ok = len(table) == len(rows) and all(
                len(got) == len(want) and all(_cell_equal(g, w) for g, w in zip(got, want))
                for got, want in zip(table, rows)
            )
        self.outcome(ok, "CLI summary differs from the in-process result")

    def check_reference(self, fingerprint: dict) -> str:
        ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
        expected = ref.get(self.args.workload, {}).get(str(self.args.seed))
        if self.args.size != "full" or expected is None:
            return "no reference for this seed and size"
        self.outcome(_close(fingerprint, expected), "result differs from reference.json")
        return "checked"

    def check_physics(self, checks: dict) -> None:
        self.outcome(
            checks["n_failures"] == 0,
            f"physics checks: {checks['n_failures']} failed, e.g. {checks['failures'][:3]}",
        )

    # --- the two kinds of run -------------------------------------------------------

    def timed(self, command: str, label: str, config: Path) -> tuple[dict, dict]:
        """Rounds of (setup probes, one CLI pass, one in-process compute call)
        until --seconds have passed, so every metric samples the whole run."""
        samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": [], "solve_s": []}
        raw: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "solve_s": []}
        kernel = [kernel_s()]

        def record(name: str, seconds: float) -> None:
            kernel.append(kernel_s())
            raw[name].append(seconds)
            samples[name].append(seconds * KERNEL_REF_S * 2 / (kernel[-2] + kernel[-1]))

        self.setup_probe(config)  # untimed: fills the bytecode and file caches
        first = None
        with SolveServer(self, config) as server:
            round_s = 0.0
            while len(samples["wall_s"]) < MIN_SAMPLES or (
                self.elapsed() + round_s <= self.args.seconds
                and self.elapsed() < HARD_STOP_S
                and len(samples["wall_s"]) < MAX_SAMPLES
            ):
                round_start = perf_counter()
                value = self.setup_probe(config)
                self.outcome(value is not None, "setup probe failed")
                if value is not None:
                    record("setup_s", value)

                out = self.work / f"pass-{len(samples['wall_s'])}"
                wall, rss, code = self.cli_pass(command, config, out)
                files = self.check_outputs(command, label, out, code)
                record("wall_s", wall)
                samples["peak_rss_mb"].append(rss)
                if first is None:
                    first = files
                else:
                    self.check_same(first, files, out.name)
                    shutil.rmtree(out)

                record("solve_s", server.solve_pass())
                self.attempted += 1
                round_s = perf_counter() - round_start
            solve = server.finish()

        self.check_rows(first.get(f"{label}-{SUMMARY_OUTPUT[command]}"), solve["rows"])
        self.check_physics(solve["checks"])
        reference = self.check_reference(solve["fingerprint"])

        if not samples["setup_s"]:
            raise BenchError("no sample of setup_s")
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        detail = {
            "samples": samples, "raw_samples_s": raw, "kernel_s": kernel,
            "raw_medians_s": {name: statistics.median(values) for name, values in raw.items()},
            "checks": solve["checks"], "reference": reference,
        }
        return metrics, detail

    def traced(self, command: str, label: str, config: Path) -> tuple[dict, dict]:
        seconds = self.args.seconds
        imports = [self.import_probe() for _ in range(3)]
        self.outcome(None not in imports, "import probe failed")
        imports = [t for t in imports if t is not None]

        out = self.work / "untraced"
        _, _, code = self.cli_pass(command, config, out)
        untraced = self.check_outputs(command, label, out, code)

        budget = max(1.0, seconds - (perf_counter() - self.start))
        spans_path = self.results / f"{self.args.workload}-seed{self.args.seed}-{self.args.size}-spans.json"
        trace = self.worker(
            "trace",
            {"config": str(config), "command": command, "seconds": budget,
             "out_dir": str(self.work), "spans_path": str(spans_path)},
        )
        for i, code in enumerate(trace["cli_exit_codes"]):
            traced_files = self.check_outputs(command, label, self.work / f"traced-{i}", code)
            self.check_same(untraced, traced_files, f"traced-{i}")
        self.check_rows(untraced.get(f"{label}-{SUMMARY_OUTPUT[command]}"), trace["rows"])
        self.check_physics(trace["checks"])
        reference = self.check_reference(trace["fingerprint"])
        self.outcome(trace["counts_repeat"], "per-layer counts differ between traced passes")

        if not imports:
            raise BenchError("no sample of cli.import_s")
        metrics = {"cli.import_s": statistics.median(imports), **trace["layers"]}
        detail = {
            "import_samples_s": imports,
            "traced_passes": trace["traced_passes"],
            "missing_targets": trace["missing_targets"],
            "overhead_untraced_s": trace["overhead_untraced_s"],
            "overhead_traced_s": trace["overhead_traced_s"],
            "spans": str(spans_path.relative_to(self.root)),
            "checks": trace["checks"],
            "reference": reference,
        }
        return metrics, detail


class SolveServer:
    """The ``serve`` worker: one long-lived child that makes a timed compute
    call whenever asked, between the runner's other samples."""

    def __init__(self, run: Run, config: Path) -> None:
        self.job = run.work / "serve-job.json"
        self.out = run.work / "serve-out.json"
        self.errors = run.work / "serve.log"
        self.job.write_text(json.dumps({"config": str(config), "src": str(run.root / "src")}), encoding="utf-8")
        with open(self.errors, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), "serve", str(self.job), str(self.out)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=run.env, cwd=run.root, text=True,
            )
        self.killer = threading.Timer(max(10.0, 175.0 - run.elapsed()), self.proc.kill)
        self.killer.start()

    def __enter__(self) -> "SolveServer":
        try:
            self._reply()  # "ready" after the warm-up call
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.killer.cancel()
        for stream in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            tail = self.errors.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"serve worker exited {self.proc.returncode}: {tail}")
        return line.strip()

    def solve_pass(self) -> float:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def finish(self) -> dict:
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            self._reply()
        return json.loads(self.out.read_text(encoding="utf-8"))


def _cell_equal(got: str, want) -> bool:
    if want is None:
        return got == ""
    if isinstance(want, str):
        return got == want
    try:
        return float(got) == want
    except ValueError:
        return False


def _close(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL)
    return got == want


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=root)
        commit = proc.stdout.decode().strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None
            )
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "child_env": {"PYTHONPATH": "src", **CHILD_ENV},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="smoke: reduced inputs for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "phasebal" / "__init__.py").is_file():
        print(f"error: no phasebal source at {root / 'src' / 'phasebal'}; run from a checkout root",
              file=sys.stderr)
        return 2
    command, doc, sizes = WORKLOADS[args.workload](args.seed, args.size)
    label = doc["label"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "sizes": sizes, "environment": environment(root),
        "loadavg_before": os.getloadavg(),
    }
    # one CPU for the runner and every child, so the calibration kernel runs
    # where the samples run
    record["environment"]["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["environment"]["pinned_cpu"]})
    run = Run(root, args)
    run.work.mkdir(parents=True)
    run.results.mkdir(parents=True, exist_ok=True)
    try:
        config = run.work / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        measure = run.traced if args.trace else run.timed
        metrics, detail = measure(command, label, config)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    record.update(
        detail, metrics=metrics, loadavg_after=os.getloadavg(), wall_total_s=run.elapsed(),
        attempted=run.attempted, failed=run.failed, failures=run.failures,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (run.results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} sizes={sizes} trace={args.trace} size={args.size}")
    samples, raw = detail.get("samples", {}), detail.get("raw_medians_s", {})
    for key, unit in units.items():
        count = f"  (median of {len(samples[key])})" if key in samples else ""
        if key in raw:
            count += f", raw median {raw[key]:.6g} s"
        print(f"{key:30s} {metrics[key]:.6g} {unit}{count}")
    print(f"{'fail_frac':30s} {run.failed / run.attempted:.6g} ratio  ({run.failed} of {run.attempted} passes)")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
