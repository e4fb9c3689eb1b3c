"""Command-line front end: run/sweep/ingest with CSV outputs.

Commands:
  run <config.json>     solve one scenario, write per-timestep and summary CSVs
  sweep <config.json>   run a penetration grid, write the long-format table
                        plus plot-ready extracts and a failed-cell manifest
  ingest <series.csv>   turn measured per-phase powers into imbalance reports

Configs are JSON, validated against CONFIG_SCHEMA (unknown keys rejected)
before any computation. ``--preset NAME`` substitutes a bundled config.
Exit codes: 0 ok, 2 config error, 3 solver failure, 4 I/O error.

All CSVs are UTF-8, comma-separated, LF-terminated, with floats printed at
17 significant digits; reruns of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import jsonschema

from .errors import (
    ConfigInvalid,
    NonMonotonicTimestamps,
    PhasebalError,
    SchemaMismatch,
)
from .ingest import analyze_series, read_measured_series
from .metrics import NodeMetrics
from .network import (
    Device,
    DeviceKind,
    Feeder,
    FeederSpec,
    LineSegment,
    Phase,
    build_feeder,
)
from .powerflow import SolverSettings
from .presets import preset_config, preset_names
from .scenarios import (
    Scenario,
    ScenarioResult,
    SweepRow,
    SweepTemplate,
    build_stylized_scenario,
    build_sweep_scenario,
    run_scenario,
    sweep_and_tabulate,
)
from .storage import Architecture, ArchKind, Battery, StylizedScheduleCfg

# --- configuration schema ----------------------------------------------------

# two-number array: [re, im] for impedances, [start_h, end_h] for windows
_NUM_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_SOLVER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "tol_pu": {"type": "number", "exclusiveMinimum": 0},
        "max_iter": {"type": "integer", "minimum": 1},
    },
}

_SEGMENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["from_node", "to_node", "length_km"],
    "properties": {
        "from_node": {"type": "string"},
        "to_node": {"type": "string"},
        "length_km": {"type": "number"},
        "z_phase_per_km": _NUM_PAIR,
        "z_neutral_per_km": _NUM_PAIR,
        "z_mutual_per_km": _NUM_PAIR,
    },
}

_DEVICE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label", "node", "kind"],
    "properties": {
        "label": {"type": "string"},
        "node": {"type": "string"},
        "kind": {"enum": ["load", "dg", "ev", "storage"]},
        "phase": {"enum": ["A", "B", "C", None]},
        "p_kw": {"type": "number"},
        "q_kvar": {"type": "number"},
        "profile": {"type": "string"},
        "battery_id": {"type": "string"},
    },
}

_FEEDER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["source_node", "nodes", "segments"],
    "properties": {
        "source_node": {"type": "string"},
        "nodes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "segments": {"type": "array", "items": _SEGMENT_SCHEMA},
        "devices": {"type": "array", "items": _DEVICE_SCHEMA},
        "v_base_ln": {"type": "number", "exclusiveMinimum": 0},
        "s_base_kva": {"type": "number", "exclusiveMinimum": 0},
    },
}

_BATTERY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["id", "p_max_kw"],
    "properties": {
        "id": {"type": "string"},
        "p_max_kw": {"type": "number", "exclusiveMinimum": 0},
        "e_max_kwh": {"type": "number", "exclusiveMinimum": 0},
        "soc_kwh": {"type": "number", "minimum": 0},
        "eta_c": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "eta_d": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "s_conv_kva": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SCHEDULE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dg_window": _NUM_PAIR,
        "ev_window": _NUM_PAIR,
        "target_phase": {"enum": ["A", "B", "C"]},
    },
}

_SCENARIO_SCHEMAS = {
    "sweep_cell": {
        "type": "object",
        "additionalProperties": False,
        "required": [
            "type",
            "total_phase_load_kw",
            "device_node",
            "kind",
            "penetration_pct",
            "network_class",
        ],
        "properties": {
            "type": {"const": "sweep_cell"},
            "total_phase_load_kw": {"type": "number", "exclusiveMinimum": 0},
            "device_node": {"type": "string"},
            "kind": {"enum": ["dg", "ev"]},
            "penetration_pct": {"type": "number", "minimum": 0, "maximum": 200},
            "network_class": {"enum": ["compact", "overload", "sparse"]},
            "device_phase": {"enum": ["A", "B", "C"]},
            "balanced": {"type": "boolean"},
        },
    },
    "stylized": {
        "type": "object",
        "additionalProperties": False,
        "required": ["type", "architecture"],
        "properties": {
            "type": {"const": "stylized"},
            "architecture": {"enum": ["A1", "A2", "A3", None]},
            "allow_load_shift": {"type": "boolean"},
            "storage_node": {"enum": ["N0", "N5"]},
            "battery_kw": {"type": "number", "exclusiveMinimum": 0},
            "controller": {"enum": ["none", "fixed_schedule", "greedy"]},
            "target_phase": {"enum": ["A", "B", "C"]},
        },
    },
    "custom": {
        "type": "object",
        "additionalProperties": False,
        "required": ["type", "feeder"],
        "properties": {
            "type": {"const": "custom"},
            "feeder": _FEEDER_SCHEMA,
            "profiles": {
                "type": "object",
                "additionalProperties": {"type": "array", "items": {"type": "number"}},
            },
            "horizon_h": {"type": "number", "exclusiveMinimum": 0},
            "dt_h": {"type": "number", "exclusiveMinimum": 0},
            "batteries": {"type": "array", "items": _BATTERY_SCHEMA},
            "architecture": {"enum": ["A1", "A2", "A3", None]},
            "allow_load_shift": {"type": "boolean"},
            "controller": {"enum": ["none", "fixed_schedule", "greedy"]},
            "schedule": _SCHEDULE_SCHEMA,
        },
    },
}

_SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["total_phase_load_kw", "network_class", "penetrations_pct", "nodes", "kinds"],
    "properties": {
        "total_phase_load_kw": {"type": "number", "exclusiveMinimum": 0},
        "network_class": {"enum": ["compact", "overload", "sparse"]},
        "penetrations_pct": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 200},
            "minItems": 1,
        },
        "nodes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "kinds": {"type": "array", "items": {"enum": ["dg", "ev"]}, "minItems": 1},
        "device_phase": {"enum": ["A", "B", "C"]},
        "balanced": {"type": "boolean"},
    },
}

#: Published top-level configuration schema; scenario/sweep bodies are
#: validated against the matching sub-schema above.
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "label": {"type": "string"},
        "scenario": {"type": "object"},
        "sweep": {"type": "object"},
        "solver": _SOLVER_SCHEMA,
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "timeseries": {"type": "boolean"},
                "summary": {"type": "boolean"},
            },
        },
    },
}

# --- parsing -----------------------------------------------------------------

TIMESERIES_COLUMNS = (
    "t_h",
    "node",
    "v_ln_a_v",
    "v_ln_b_v",
    "v_ln_c_v",
    "v_n_v",
    "vuf_pct",
    "drop_a_pct",
    "drop_b_pct",
    "drop_c_pct",
    "v_rms_v",
    "seg_phase_loss_kw",
    "seg_neutral_loss_kw",
    "storage_p_a_kw",
    "storage_p_b_kw",
    "storage_p_c_kw",
    "storage_q_a_kvar",
    "storage_q_b_kvar",
    "storage_q_c_kvar",
    "storage_soc_kwh",
)

SUMMARY_COLUMNS = (
    "label",
    "mean_vuf_pct",
    "max_vuf_pct",
    "neutral_loss_kwh",
    "phase_loss_kwh",
    "max_drop_pct",
    "max_rise_pct",
)

SWEEP_COLUMNS = (
    "kind",
    "node",
    "penetration_pct",
    "mean_vuf_pct",
    "max_vuf_pct",
    "neutral_loss_kwh",
    "phase_loss_kwh",
    "max_drop_pct",
    "max_rise_pct",
    "sum_drop_n1_pct",
    "sum_drop_n5_pct",
    "error",
)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: exactly one of ``scenario`` / ``sweep_*``."""

    label: str
    settings: SolverSettings
    scenario: Scenario | None = None
    sweep_template: SweepTemplate | None = None
    sweep_grid: tuple[tuple[float, ...], tuple[str, ...], tuple[DeviceKind, ...]] | None = None
    write_timeseries: bool = True
    write_summary: bool = True


def _validator(schema: dict):
    """Validator of the schema's draft; ``test_cli`` checks every schema
    against its metaschema once, so validation here skips that check."""
    return jsonschema.validators.validator_for(schema)(schema)


_CONFIG_VALIDATOR = _validator(CONFIG_SCHEMA)
_SWEEP_VALIDATOR = _validator(_SWEEP_SCHEMA)
_SCENARIO_VALIDATORS = {kind: _validator(schema) for kind, schema in _SCENARIO_SCHEMAS.items()}


def _validate(doc: Any, validator, path: str, where: str) -> None:
    """Raise ConfigInvalid for the error ``jsonschema.validate`` would pick."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        field = where + "/" + "/".join(str(p) for p in error.absolute_path)
        raise ConfigInvalid(path, field.strip("/") or "config", error.message)


def _complex(pair: Sequence[float] | None, default: complex) -> complex:
    if pair is None:
        return default
    return complex(pair[0], pair[1])


def _parse_feeder(doc: dict) -> Feeder:
    segments = [
        LineSegment(
            from_node=s["from_node"],
            to_node=s["to_node"],
            length_km=s["length_km"],
            z_phase_per_km=_complex(s.get("z_phase_per_km"), LineSegment.z_phase_per_km),
            z_neutral_per_km=_complex(s.get("z_neutral_per_km"), LineSegment.z_neutral_per_km),
            z_mutual_per_km=_complex(s.get("z_mutual_per_km"), 0j),
        )
        for s in doc["segments"]
    ]
    devices = [
        Device(
            label=d["label"],
            node=d["node"],
            kind=DeviceKind(d["kind"]),
            phase=Phase(d["phase"]) if d.get("phase") is not None else None,
            s_rated_kva=complex(d.get("p_kw", 0.0), d.get("q_kvar", 0.0)),
            profile_id=d.get("profile"),
            battery_id=d.get("battery_id"),
        )
        for d in doc.get("devices", [])
    ]
    return build_feeder(
        FeederSpec(
            source_node=doc["source_node"],
            nodes=doc["nodes"],
            segments=segments,
            devices=devices,
            **{key: doc[key] for key in ("v_base_ln", "s_base_kva") if key in doc},
        )
    )


def _parse_architecture(doc: dict) -> Architecture | None:
    if doc.get("architecture") is None:
        return None
    return Architecture(
        kind=ArchKind(doc["architecture"]),
        allow_load_shift=doc.get("allow_load_shift", True),
    )


def _parse_scenario(doc: dict, label: str, path: str) -> Scenario:
    kind = doc.get("type")
    if kind not in _SCENARIO_SCHEMAS:
        raise ConfigInvalid(
            path, "scenario/type", f"expected one of {sorted(_SCENARIO_SCHEMAS)}, got {kind!r}"
        )
    _validate(doc, _SCENARIO_VALIDATORS[kind], path, "scenario")

    if kind == "sweep_cell":
        scenario = build_sweep_scenario(
            doc["total_phase_load_kw"],
            doc["device_node"],
            DeviceKind(doc["kind"]),
            doc["penetration_pct"],
            doc["network_class"],
            device_phase=Phase(doc.get("device_phase", "A")),
            balanced=doc.get("balanced", False),
        )
    elif kind == "stylized":
        scenario = build_stylized_scenario(
            _parse_architecture(doc),
            doc.get("storage_node", "N5"),
            doc.get("battery_kw", 3.0),
            doc.get("controller", "fixed_schedule"),
            target_phase=Phase(doc.get("target_phase", "A")),
        )
    else:
        scenario = Scenario(
            feeder=_parse_feeder(doc["feeder"]),
            horizon_h=doc.get("horizon_h", 24.0),
            dt_h=doc.get("dt_h", 1.0),
            profiles={k: tuple(v) for k, v in doc.get("profiles", {}).items()},
            architecture=_parse_architecture(doc),
            controller=doc.get("controller", "none"),
            batteries=tuple(
                Battery(
                    id=b["id"],
                    p_max_kw=b["p_max_kw"],
                    e_max_kwh=b.get("e_max_kwh"),
                    soc_kwh=b.get("soc_kwh", 0.0),
                    eta_c=b.get("eta_c", 1.0),
                    eta_d=b.get("eta_d", 1.0),
                    s_conv_kva=b.get("s_conv_kva"),
                )
                for b in doc.get("batteries", [])
            ),
            schedule=StylizedScheduleCfg(
                **{
                    key: Phase(value) if key == "target_phase" else tuple(value)
                    for key, value in doc.get("schedule", {}).items()
                }
            ),
            label=label,
        )
    return scenario


def parse_config(doc: Any, path: str = "<config>") -> RunConfig:
    """Validate a configuration document and build the runnable objects.

    Raises ConfigInvalid naming the offending field. Semantic errors from
    the model layer (bad topology, sign conventions, ...) propagate as the
    corresponding package errors.
    """
    _validate(doc, _CONFIG_VALIDATOR, path, "")
    has_scenario = "scenario" in doc
    has_sweep = "sweep" in doc
    if has_scenario == has_sweep:
        raise ConfigInvalid(path, "scenario|sweep", "exactly one of 'scenario' or 'sweep' required")

    solver = doc.get("solver", {})
    settings = SolverSettings(
        tol_pu=solver.get("tol_pu", 1e-8), max_iter=solver.get("max_iter", 100)
    )
    label = doc.get("label", "run")
    output = doc.get("output", {})

    if has_scenario:
        scenario = replace(_parse_scenario(doc["scenario"], label, path), label=label)
        return RunConfig(
            label=label,
            settings=settings,
            scenario=scenario,
            write_timeseries=output.get("timeseries", True),
            write_summary=output.get("summary", True),
        )

    sw = doc["sweep"]
    _validate(sw, _SWEEP_VALIDATOR, path, "sweep")
    template = SweepTemplate(
        total_phase_load_kw=sw["total_phase_load_kw"],
        network_class=sw["network_class"],
        device_phase=Phase(sw.get("device_phase", "A")),
        balanced=sw.get("balanced", False),
    )
    grid = (
        tuple(float(p) for p in sw["penetrations_pct"]),
        tuple(sw["nodes"]),
        tuple(DeviceKind(k) for k in sw["kinds"]),
    )
    return RunConfig(label=label, settings=settings, sweep_template=template, sweep_grid=grid)


# --- CSV emission ------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv_atomic(path: Path, header: Sequence[str], rows) -> None:
    """Write via a temp file and rename, so failures never leave partial files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    os.replace(tmp, path)


def timeseries_rows(scenario: Scenario, result: ScenarioResult):
    """Flatten a result into one row per timestep x node."""
    feeder = scenario.feeder
    feed_seg = {seg.to_node: k for k, seg in enumerate(feeder.segments)}
    storage_node = {d.battery_id: d.node for d in feeder.storage_devices()}
    for rec in result.per_timestep:
        per_node_p = {}
        per_node_q = {}
        per_node_soc = {}
        for action in rec.actions:
            node = storage_node[action.battery_id]
            per_node_p.setdefault(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            per_node_q.setdefault(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            per_node_p[node][action.phase.value] += action.p_kw
            per_node_q[node][action.phase.value] += action.q_kvar
        for bat_id, soc in rec.soc_kwh.items():
            node = storage_node[bat_id]
            per_node_soc[node] = per_node_soc.get(node, 0.0) + soc

        v = rec.solution.v
        metrics = rec.metrics
        flows = rec.flows
        for node in feeder.nodes:
            nm: NodeMetrics = metrics[node]
            v_n = v[node]["N"]
            v_ln = {p: abs(v[node][p] - v_n) for p in ("A", "B", "C")}
            k = feed_seg.get(node)
            p_fill = per_node_p.get(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            q_fill = per_node_q.get(node, {"A": 0.0, "B": 0.0, "C": 0.0})
            yield (
                rec.t_h,
                node,
                v_ln["A"],
                v_ln["B"],
                v_ln["C"],
                abs(v_n),
                nm.vuf_pct,
                nm.drop_pct[Phase.A],
                nm.drop_pct[Phase.B],
                nm.drop_pct[Phase.C],
                nm.v_rms,
                sum(flows.phase_loss_kw[k].values()) if k is not None else 0.0,
                flows.neutral_loss_kw[k] if k is not None else 0.0,
                p_fill["A"],
                p_fill["B"],
                p_fill["C"],
                q_fill["A"],
                q_fill["B"],
                q_fill["C"],
                per_node_soc.get(node, 0.0),
            )


def summary_row(result: ScenarioResult):
    return (
        result.label,
        result.mean_vuf_pct,
        result.max_vuf_pct,
        result.neutral_loss_kwh,
        result.phase_loss_kwh,
        result.max_drop_pct,
        result.max_rise_pct,
    )


def sweep_rows(rows: list[SweepRow]):
    for row in rows:
        if row.result is None:
            yield (
                row.kind.value,
                row.node,
                row.penetration_pct,
                None,
                None,
                None,
                None,
                None,
                None,
                None,
                None,
                row.error,
            )
        else:
            r = row.result
            yield (
                row.kind.value,
                row.node,
                row.penetration_pct,
                r.mean_vuf_pct,
                r.max_vuf_pct,
                r.neutral_loss_kwh,
                r.phase_loss_kwh,
                r.max_drop_pct,
                r.max_rise_pct,
                r.sum_drop_at.get("N1"),
                r.sum_drop_at.get("N5"),
                "",
            )


def _write_run_outputs(cfg: RunConfig, result: ScenarioResult, out_dir: Path) -> list[Path]:
    written = []
    if cfg.write_timeseries:
        path = out_dir / f"{cfg.label}-timeseries.csv"
        write_csv_atomic(path, TIMESERIES_COLUMNS, timeseries_rows(cfg.scenario, result))
        written.append(path)
    if cfg.write_summary:
        path = out_dir / f"{cfg.label}-summary.csv"
        write_csv_atomic(path, SUMMARY_COLUMNS, [summary_row(result)])
        written.append(path)
    return written


def _write_sweep_outputs(cfg: RunConfig, rows: list[SweepRow], out_dir: Path) -> list[Path]:
    written = [out_dir / f"{cfg.label}-sweep.csv"]
    write_csv_atomic(written[0], SWEEP_COLUMNS, sweep_rows(rows))

    ok = [r for r in rows if r.result is not None]
    losses = out_dir / f"{cfg.label}-fig-losses.csv"
    write_csv_atomic(
        losses,
        ("kind", "node", "penetration_pct", "phase_loss_kwh", "neutral_loss_kwh", "total_loss_kwh"),
        (
            (
                r.kind.value,
                r.node,
                r.penetration_pct,
                r.result.phase_loss_kwh,
                r.result.neutral_loss_kwh,
                r.result.phase_loss_kwh + r.result.neutral_loss_kwh,
            )
            for r in ok
        ),
    )
    vuf = out_dir / f"{cfg.label}-fig-vuf.csv"
    write_csv_atomic(
        vuf,
        ("kind", "node", "penetration_pct", "mean_vuf_pct", "max_vuf_pct"),
        (
            (r.kind.value, r.node, r.penetration_pct, r.result.mean_vuf_pct, r.result.max_vuf_pct)
            for r in ok
        ),
    )
    drop = out_dir / f"{cfg.label}-fig-drop.csv"
    write_csv_atomic(
        drop,
        (
            "kind",
            "node",
            "penetration_pct",
            "sum_drop_n1_pct",
            "sum_drop_n5_pct",
            "max_drop_pct",
            "max_rise_pct",
        ),
        (
            (
                r.kind.value,
                r.node,
                r.penetration_pct,
                r.result.sum_drop_at.get("N1"),
                r.result.sum_drop_at.get("N5"),
                r.result.max_drop_pct,
                r.result.max_rise_pct,
            )
            for r in ok
        ),
    )
    manifest = out_dir / f"{cfg.label}-failures.csv"
    write_csv_atomic(
        manifest,
        ("kind", "node", "penetration_pct", "error"),
        (
            (r.kind.value, r.node, r.penetration_pct, r.error)
            for r in rows
            if r.error is not None
        ),
    )
    written.extend([losses, vuf, drop, manifest])
    return written


# --- commands ----------------------------------------------------------------


def _load_config(args: argparse.Namespace) -> tuple[dict, str]:
    if args.preset:
        try:
            doc = preset_config(args.preset)
        except KeyError as exc:
            raise ConfigInvalid("<args>", "preset", exc.args[0]) from None
        source = f"<preset:{args.preset}>"
    else:
        if not args.config:
            raise ConfigInvalid("<args>", "config", "a config path or --preset is required")
        source = args.config
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigInvalid(source, "<json>", str(exc)) from None
    if args.tol is not None or args.max_iter is not None:
        solver = dict(doc.get("solver", {}))
        if args.tol is not None:
            solver["tol_pu"] = args.tol
        if args.max_iter is not None:
            solver["max_iter"] = args.max_iter
        doc["solver"] = solver
    return doc, source


def _emit_config(doc: dict, label: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f"{label}-config.json.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, out_dir / f"{label}-config.json")


def _parse_or_config_error(doc: dict, source: str) -> RunConfig:
    """Any failure while building the model from a config is a config error."""
    try:
        return parse_config(doc, source)
    except ConfigInvalid:
        raise
    except (PhasebalError, ValueError) as exc:
        raise ConfigInvalid(source, "scenario", str(exc)) from exc


def cmd_run(args: argparse.Namespace) -> int:
    doc, source = _load_config(args)
    cfg = _parse_or_config_error(doc, source)
    if cfg.scenario is None:
        raise ConfigInvalid(source, "scenario", "'run' needs a 'scenario' config (not 'sweep')")
    result = run_scenario(cfg.scenario, cfg.settings)
    out_dir = Path(args.out)
    _emit_config(doc, cfg.label, out_dir)
    written = _write_run_outputs(cfg, result, out_dir)
    for path in written:
        print(path)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    doc, source = _load_config(args)
    cfg = _parse_or_config_error(doc, source)
    if cfg.sweep_template is None:
        raise ConfigInvalid(source, "sweep", "'sweep' needs a 'sweep' config (not 'scenario')")
    pens, nodes, kinds = cfg.sweep_grid
    rows = sweep_and_tabulate(cfg.sweep_template, pens, nodes, kinds, cfg.settings)
    out_dir = Path(args.out)
    _emit_config(doc, cfg.label, out_dir)
    written = _write_sweep_outputs(cfg, rows, out_dir)
    for path in written:
        print(path)
    failures = sum(1 for r in rows if r.error is not None)
    if failures:
        print(f"{failures} cell(s) failed; see failures manifest", file=sys.stderr)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    series = read_measured_series(args.csv)
    report = analyze_series(series)
    out_dir = Path(args.out)
    stem = Path(args.csv).stem
    row_header = ["timestamp", "spread_kw", "neutral_proxy_a", "pf_a", "pf_b", "pf_c"]
    if series.i_n_a is not None:
        row_header.append("i_n_measured_a")
    rows_path = out_dir / f"{stem}-imbalance.csv"
    write_csv_atomic(
        rows_path,
        row_header,
        ([row.get(col) for col in row_header] for row in report.rows),
    )
    hourly_path = out_dir / f"{stem}-hourly.csv"
    write_csv_atomic(
        hourly_path,
        ("hour", "mean_spread_kw", "max_spread_kw"),
        ((h["hour"], h["mean_spread_kw"], h["max_spread_kw"]) for h in report.hourly),
    )
    print(rows_path)
    print(hourly_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebal",
        description="Phase-unbalance simulation for radial LV feeders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", nargs="?", help="path to a JSON config")
        p.add_argument(
            "--preset",
            help=f"use a bundled config instead of a file ({', '.join(preset_names())})",
        )
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--tol", type=float, default=None, help="override solver tol_pu")
        p.add_argument("--max-iter", type=int, default=None, help="override solver max_iter")

    run_p = sub.add_parser("run", help="run one scenario and write CSV results")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a penetration grid")
    add_common(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    ingest_p = sub.add_parser("ingest", help="analyze a measured per-phase power CSV")
    ingest_p.add_argument("csv", help="measured series CSV path")
    ingest_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    ingest_p.set_defaults(func=cmd_ingest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigInvalid, SchemaMismatch, NonMonotonicTimestamps, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhasebalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
