"""In-process half of the benchmark, run as a child of ``run.py``.

    python bench/worker.py serve|trace|reference JOB.json OUT.json

The child environment puts the checkout's ``src`` first on PYTHONPATH, so
``import phasebal`` is the code under test. Modes:

- ``serve``: parse the config, make one warm-up call of the public compute
  function, then time one more call each time run.py asks on stdin
  (``solve_s`` is their median). The warm-up result is then checked.
- ``trace``: run ``phasebal.cli.main`` with every layer boundary wrapped by
  ``tracer.Tracer`` and derive the per-layer metrics from the spans; then
  alternate untraced and traced compute calls to measure tracing overhead.
  The warm-up result is checked as in ``serve``.
- ``reference``: compute each listed config once and return its fingerprint,
  used to record ``reference.json`` from a known-good commit.

The compute call is ``phasebal.run_scenario(scenario, settings)`` for a run
config and ``phasebal.sweep_and_tabulate(template, pens, nodes, kinds,
settings)`` for a sweep config, as returned by ``phasebal.cli.parse_config``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

import phasebal
import phasebal.cli
from tracer import SpanView, Tracer, percentile

#: Minimum and maximum traced/untraced compute-call pairs for the overhead.
MIN_PASSES, MAX_PASSES = 2, 40

#: Power-balance residual allowed on every step, as a share of s_base_kva
#: (the acceptance suite's bound).
RESIDUAL_TOL_SHARE = 1e-6

#: Largest voltage gap to oracle_solve, in pu of v_base_ln, on sampled steps.
#: Both solvers stop at tol_pu = 1e-8, so their gap is a few 1e-8 at most.
ORACLE_TOL_PU = 1e-6
ORACLE_MAX_NODES = 12
ORACLE_SAMPLES = 12


# --- the public compute call ---------------------------------------------------


def compute_call(cfg):
    """The API user's compute call for a parsed config. The function is looked
    up on the package at every call, so a traced wrapper takes effect."""
    if cfg.scenario is not None:
        return lambda: phasebal.run_scenario(cfg.scenario, cfg.settings)
    pens, nodes, kinds = cfg.sweep_grid
    return lambda: phasebal.sweep_and_tabulate(cfg.sweep_template, pens, nodes, kinds, cfg.settings)


def parse(config_path: str):
    with open(config_path, encoding="utf-8") as handle:
        return phasebal.cli.parse_config(json.load(handle), config_path)


# --- results as rows, fingerprints and checks ---------------------------------


def summary_values(result) -> list[float]:
    return [
        result.mean_vuf_pct,
        result.max_vuf_pct,
        result.neutral_loss_kwh,
        result.phase_loss_kwh,
        result.max_drop_pct,
        result.max_rise_pct,
    ]


def result_rows(cfg, result) -> list[list]:
    """The rows the CLI writes to ``<label>-summary.csv`` (run) or
    ``<label>-sweep.csv`` (sweep), as values, for an exact comparison."""
    if cfg.scenario is not None:
        return [[result.label, *summary_values(result)]]
    rows = []
    for row in result:
        if row.result is None:
            rows.append([row.kind.value, row.node, row.penetration_pct, *[None] * 8, row.error])
        else:
            r = row.result
            rows.append(
                [row.kind.value, row.node, row.penetration_pct, *summary_values(r),
                 r.sum_drop_at.get("N1"), r.sum_drop_at.get("N5"), ""]
            )
    return rows


def fingerprint(cfg, result) -> dict:
    """Seed-specific values compared against ``reference.json``."""
    if cfg.scenario is not None:
        return {
            "summary": summary_values(result),
            "sum_drop_total_pct": sum(result.sum_drop_at.values()),
            "soc_total_kwh": sum(sum(rec.soc_kwh.values()) for rec in result.per_timestep),
            "steps": len(result.per_timestep),
        }
    ok = [row[3:11] for row in result_rows(cfg, result) if row[3] is not None]
    columns = list(zip(*ok))
    return {
        "cells_ok": len(ok),
        "column_sum": [sum(c) for c in columns],
        "column_min": [min(c) for c in columns],
        "column_max": [max(c) for c in columns],
    }


def step_injections(scenario, record, k: int) -> dict:
    """Device powers the scenario applied at step k: profile-scaled ratings
    plus the dispatched storage actions on the phase each one chose."""
    feeder = scenario.feeder
    injections = {}
    for dev in feeder.devices:
        if dev.kind is phasebal.DeviceKind.STORAGE:
            continue
        scale = scenario.profiles[dev.profile_id][k] if dev.profile_id else 1.0
        injections[dev] = dev.s_rated_kva * scale
    storage = {d.battery_id: d for d in feeder.storage_devices()}
    for action in record.actions:
        dev = dataclasses.replace(storage[action.battery_id], phase=action.phase)
        injections[dev] = complex(action.p_kw, action.q_kvar)
    return injections


def scenarios_of(cfg, result):
    """(scenario, ScenarioResult) pairs behind a run or sweep result."""
    if cfg.scenario is not None:
        return [(cfg.scenario, result)]
    t = cfg.sweep_template
    return [
        (
            phasebal.build_sweep_scenario(
                t.total_phase_load_kw, row.node, row.kind, row.penetration_pct, t.network_class,
                device_phase=t.device_phase, balanced=t.balanced,
            ),
            row.result,
        )
        for row in result
        if row.result is not None
    ]


def check(cfg, result) -> dict:
    """Power balance on every step; oracle agreement on sampled steps of
    feeders small enough for the dense solver."""
    failures: list[str] = []
    cases = scenarios_of(cfg, result)
    worst_residual = 0.0
    for scenario, res in cases:
        feeder = scenario.feeder
        limit = RESIDUAL_TOL_SHARE * feeder.s_base_kva
        for k, rec in enumerate(res.per_timestep):
            residual = phasebal.power_balance_residual_kw(
                feeder, rec.solution, step_injections(scenario, rec, k)
            )
            worst_residual = max(worst_residual, residual / feeder.s_base_kva)
            if not residual <= limit:
                failures.append(f"{scenario.label} step {k}: power balance residual {residual:.3e} kW")

    # sample steps spread over cells and time, deterministically
    samples = [(c, k) for c, (_, res) in enumerate(cases) for k in range(len(res.per_timestep))]
    stride = max(1, len(samples) // ORACLE_SAMPLES)
    worst_gap = 0.0
    checked = 0
    for c, k in samples[stride // 2 :: stride]:
        scenario, res = cases[c]
        feeder = scenario.feeder
        if len(feeder.nodes) > ORACLE_MAX_NODES:
            break
        rec = res.per_timestep[k]
        oracle = phasebal.oracle_solve(feeder, step_injections(scenario, rec, k), cfg.settings)
        gap = max(
            abs(rec.solution.v[n][c_] - oracle.v[n][c_]) for n in feeder.nodes for c_ in "ABCN"
        ) / feeder.v_base_ln
        worst_gap = max(worst_gap, gap)
        checked += 1
        if not gap <= ORACLE_TOL_PU:
            failures.append(f"{scenario.label} step {k}: oracle gap {gap:.3e} pu")
    return {
        "failures": failures[:20],
        "n_failures": len(failures),
        "residual_worst_share": worst_residual,
        "residual_tol_share": RESIDUAL_TOL_SHARE,
        "oracle_steps": checked,
        "oracle_worst_pu": worst_gap,
        "oracle_tol_pu": ORACLE_TOL_PU,
    }


# --- tracing --------------------------------------------------------------------


def _solve_attrs(args, kwargs, result):
    feeder = args[0] if args else kwargs["feeder"]
    return {"nodes": len(feeder.nodes), "iterations": result.iterations}


def _csv_attrs(args, kwargs, result):
    data = Path(args[0] if args else kwargs["path"]).read_bytes()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _clip_attrs(args, kwargs, result):
    desired = args[1] if len(args) > 1 else kwargs["desired"]
    return {"changed": int((result.p_kw, result.q_kvar) != (desired.p_kw, desired.q_kvar))}


def _sweep_attrs(args, kwargs, result):
    return {"failed": sum(1 for row in result if row.error is not None)}


#: (module, name callers look up, span name, annotation). A name is wrapped
#: in each module that looks it up; feasible_action is wrapped both where the
#: scenario loop calls it and where the controllers call it.
TARGETS = [
    ("phasebal.cli", "parse_config", "cli.parse_config", None),
    ("phasebal.cli", "write_csv_atomic", "cli.write_csv", _csv_attrs),
    ("phasebal.cli", "build_feeder", "network.build_feeder", None),
    ("phasebal.network", "build_feeder", "network.build_feeder", None),
    ("phasebal.cli", "build_sweep_scenario", "scenarios.build", None),
    ("phasebal.cli", "build_stylized_scenario", "scenarios.build", None),
    ("phasebal.scenarios", "build_sweep_scenario", "scenarios.build", None),
    ("phasebal", "run_scenario", "scenarios.run_scenario", None),
    ("phasebal.cli", "run_scenario", "scenarios.run_scenario", None),
    ("phasebal.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("phasebal", "sweep_and_tabulate", "scenarios.sweep", _sweep_attrs),
    ("phasebal.cli", "sweep_and_tabulate", "scenarios.sweep", _sweep_attrs),
    ("phasebal.scenarios", "fixed_schedule_controller", "storage.dispatch", None),
    ("phasebal.scenarios", "greedy_balance_controller", "storage.dispatch", None),
    ("phasebal.scenarios", "feasible_action", "storage.clip", _clip_attrs),
    ("phasebal.storage", "feasible_action", "storage.clip", _clip_attrs),
    ("phasebal.scenarios", "apply_action", "storage.apply", None),
    ("phasebal.scenarios", "solve_snapshot", "powerflow.solve", _solve_attrs),
    ("phasebal.scenarios", "summarize_flows", "powerflow.summarize", None),
    ("phasebal.scenarios", "node_metrics", "metrics.node_metrics", None),
]


def layer_metrics(view: SpanView) -> dict[str, float]:
    """Per-layer metrics of one traced CLI pass (``cli.import_s`` and
    ``trace.overhead_s`` are measured elsewhere)."""
    solve_ms = [d * 1e3 for d in view.durations("powerflow.solve")]
    node_iters = sum(
        view.spans[i].attrs.get("nodes", 0) * view.spans[i].attrs.get("iterations", 0)
        for i in view.by_name.get("powerflow.solve", ())
    )
    clip_calls = view.calls("storage.clip")
    return {
        "cli.parse_config_s": view.total("cli.parse_config"),
        "cli.csv_s": view.total("cli.write_csv"),
        "cli.csv_rows": view.attr_sum("cli.write_csv", "rows"),
        "cli.csv_bytes": view.attr_sum("cli.write_csv", "bytes"),
        "network.build_feeder_s": view.total("network.build_feeder"),
        "network.build_feeder_calls": view.calls("network.build_feeder"),
        "scenarios.run_scenario_calls": view.calls("scenarios.run_scenario"),
        "scenarios.loop_self_s": view.self_time("scenarios.run_scenario"),
        "scenarios.build_s": view.total("scenarios.build"),
        "scenarios.cells_failed": view.attr_sum("scenarios.sweep", "failed"),
        "storage.dispatch_s": view.total("storage.dispatch"),
        "storage.dispatch_calls": view.calls("storage.dispatch"),
        "storage.clip_s": view.total("storage.clip"),
        "storage.clip_calls": clip_calls,
        "storage.clip_frac": view.attr_sum("storage.clip", "changed") / clip_calls if clip_calls else 0.0,
        "powerflow.solve_s": view.total("powerflow.solve"),
        "powerflow.solve_calls": view.calls("powerflow.solve"),
        "powerflow.iterations": view.attr_sum("powerflow.solve", "iterations"),
        "powerflow.us_per_node_iter": view.total("powerflow.solve") / node_iters * 1e6 if node_iters else 0.0,
        "powerflow.solve_ms_p50": percentile(solve_ms, 50),
        "powerflow.solve_ms_p99": percentile(solve_ms, 99),
        "powerflow.summarize_s": view.total("powerflow.summarize"),
        "metrics.node_metrics_s": view.total("metrics.node_metrics"),
        "metrics.node_metrics_calls": view.calls("metrics.node_metrics"),
    }


#: Per-layer metrics that are exact counts; they must repeat across passes.
COUNT_METRICS = (
    "cli.csv_rows", "cli.csv_bytes", "network.build_feeder_calls", "scenarios.run_scenario_calls",
    "scenarios.cells_failed", "storage.dispatch_calls", "storage.clip_calls", "storage.clip_frac",
    "powerflow.solve_calls", "powerflow.iterations", "metrics.node_metrics_calls",
)


def another_fits(start: float, last: float, seconds: float) -> bool:
    """Whether a pass as long as the one begun at ``last`` still ends within
    ``seconds`` of ``start``."""
    now = perf_counter()
    return (now - start) + (now - last) <= seconds


def traced_cli_passes(job: dict, tracer: Tracer, seconds: float) -> tuple[list[dict], list[int]]:
    """Run ``phasebal.cli.main`` traced: once, then again while another pass
    fits in ``seconds``. Pass i writes to ``<out_dir>/traced-<i>``."""
    metrics, codes = [], []
    start = last = perf_counter()
    while not codes or (another_fits(start, last, seconds) and len(codes) < 5):
        last = perf_counter()
        i = len(codes)
        out = Path(job["out_dir"]) / f"traced-{i}"
        tracer.pass_id = f"cli-{i}"
        first = len(tracer.spans)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes.append(phasebal.cli.main([job["command"], job["config"], "--out", str(out)]))
        metrics.append(layer_metrics(SpanView(tracer.spans, list(range(first, len(tracer.spans))))))
    return metrics, codes


def overhead_passes(compute, tracer: Tracer, seconds: float) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced compute calls while another pair fits in
    ``seconds``; the spans of these calls are discarded."""
    plain, traced = [], []
    keep = len(tracer.spans)
    start = last = perf_counter()
    while len(traced) < MIN_PASSES or (another_fits(start, last, seconds) and len(traced) < MAX_PASSES):
        last = perf_counter()
        for times, on in ((plain, False), (traced, True)):
            if on:
                tracer.pass_id = f"overhead-{len(traced)}"
                tracer.install(TARGETS)
            begin = perf_counter()
            result = compute()
            times.append(perf_counter() - begin)
            del result
            if on:
                tracer.uninstall()
                del tracer.spans[keep:]
    return plain, traced


# --- modes ----------------------------------------------------------------------


def run_serve(job: dict) -> dict:
    """Answer run.py's requests on stdin: ``pass`` times one compute call
    and replies with its seconds; end of input ends the loop. run.py asks
    only between its other samples, so one process runs at a time."""
    cfg = parse(job["config"])
    compute = compute_call(cfg)
    result = compute()  # warm-up, kept for the checks
    print("ready", flush=True)
    times = []
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        start = perf_counter()
        again = compute()
        times.append(perf_counter() - start)
        del again  # freed outside the timed region
        print(times[-1], flush=True)
    return {
        "solve_times_s": times,
        "rows": result_rows(cfg, result),
        "fingerprint": fingerprint(cfg, result),
        "checks": check(cfg, result),
    }


def run_trace(job: dict) -> dict:
    start = perf_counter()
    tracer = Tracer()
    tracer.install(TARGETS)
    missing = list(tracer.missing)
    layers, codes = traced_cli_passes(job, tracer, job["seconds"] * 0.45)
    tracer.uninstall()
    with open(job["spans_path"], "w", encoding="utf-8") as handle:
        json.dump([s.as_list() for s in tracer.spans], handle)

    cfg = parse(job["config"])
    compute = compute_call(cfg)
    result = compute()
    plain, traced = overhead_passes(compute, tracer, job["seconds"] - (perf_counter() - start))

    metrics = {}
    repeat_ok = True
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name in COUNT_METRICS:
            repeat_ok &= len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {
        "layers": metrics,
        "traced_passes": len(layers),
        "counts_repeat": repeat_ok,
        "missing_targets": missing,
        "cli_exit_codes": codes,
        "overhead_untraced_s": plain,
        "overhead_traced_s": traced,
        "rows": result_rows(cfg, result),
        "fingerprint": fingerprint(cfg, result),
        "checks": check(cfg, result),
    }


def run_reference(job: dict) -> dict:
    out = {}
    for key, path in job["configs"].items():
        cfg = parse(path)
        out[key] = fingerprint(cfg, compute_call(cfg)())
    return out


def main(argv: list[str]) -> int:
    mode, job_path, out_path = argv
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = Path(job["src"]).resolve()
    if src not in Path(phasebal.__file__).resolve().parents:
        print(f"phasebal imported from {phasebal.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"serve": run_serve, "trace": run_trace, "reference": run_reference}[mode](job)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
