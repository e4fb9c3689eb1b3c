"""Command-line front end: run/sweep/ingest with CSV outputs.

Commands:
  run <config.json>     solve one scenario, write per-timestep and summary CSVs
                        (the config's ``output`` switches leave either out)
  sweep <config.json>   run a penetration grid, write the long-format table
                        plus plot-ready extracts (``SWEEP_EXTRACTS``) and a
                        failed-cell manifest
  ingest <series.csv>   turn measured per-phase powers into imbalance reports

Configs are JSON, validated against CONFIG_SCHEMA (unknown keys rejected)
before any computation. ``--preset NAME`` substitutes a bundled config.
Exit codes: 0 ok, 2 config error, 3 solver failure, 4 I/O error.
``main(argv)`` runs a command in process; ``process_main`` is the process
entry (``python -m phasebal.cli``, the ``phasebal`` script).

This module imports neither numpy nor the solver: ``parse_config`` loads
them, so ``phasebal ingest`` never does (the rule is set out in ``g17``).

All CSVs are UTF-8, comma-separated, LF-terminated, with floats printed at
17 significant digits and text quoted only where ``csv.writer`` would quote
it; reruns of the same config are byte-identical. Every CSV but the
timeseries and the sweep tables is written by ``_write_table`` as a
projection of records, dicts keyed by column name (``result_values``, the
ingest report's rows), onto the file's columns. The timeseries is
formatted from the run's arrays by ``timeseries_rows``, and the five sweep
tables from the columns of a ``SweepTable`` by ``_write_sweep_outputs``,
the floats of each table through one ``g17.lines`` call.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NoReturn, Sequence, TextIO

from .errors import (
    ConfigInvalid,
    NonMonotonicTimestamps,
    PhasebalError,
    SchemaMismatch,
)
from .network import (
    CONTROLLERS,
    NETWORK_CLASS_SEGMENT_KM,
    STORAGE_NODES,
    SUMMARY_FIELDS,
    SWEEP_KINDS,
    ArchKind,
    Device,
    DeviceKind,
    Feeder,
    LineSegment,
    Phase,
    build_feeder,
    check_label,
)
from .presets import preset_config, preset_names

if TYPE_CHECKING:
    from .scenarios import Scenario, ScenarioResult, SolverSettings, SweepTable, SweepTemplate
    from .storage import Architecture

# --- configuration schema ----------------------------------------------------

def _enum(*members) -> dict:
    """An ``enum`` of the values of model enum members and constants."""
    return {"enum": [getattr(member, "value", member) for member in members]}


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
        "kind": _enum(*DeviceKind),
        "phase": _enum(*Phase, None),
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
        "target_phase": _enum(*Phase),
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
            "kind": _enum(*SWEEP_KINDS),
            "penetration_pct": {"type": "number", "minimum": 0, "maximum": 200},
            "network_class": _enum(*NETWORK_CLASS_SEGMENT_KM),
            "device_phase": _enum(*Phase),
            "balanced": {"type": "boolean"},
        },
    },
    "stylized": {
        "type": "object",
        "additionalProperties": False,
        "required": ["type", "architecture"],
        "properties": {
            "type": {"const": "stylized"},
            "architecture": _enum(*ArchKind, None),
            "allow_load_shift": {"type": "boolean"},
            "storage_node": _enum(*STORAGE_NODES),
            "battery_kw": {"type": "number", "exclusiveMinimum": 0},
            "controller": _enum(*CONTROLLERS),
            "target_phase": _enum(*Phase),
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
            "architecture": _enum(*ArchKind, None),
            "allow_load_shift": {"type": "boolean"},
            "controller": _enum(*CONTROLLERS),
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
        "network_class": _enum(*NETWORK_CLASS_SEGMENT_KM),
        "penetrations_pct": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 200},
            "minItems": 1,
        },
        "nodes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "kinds": {"type": "array", "items": _enum(*SWEEP_KINDS), "minItems": 1},
        "device_phase": _enum(*Phase),
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

SUMMARY_COLUMNS = ("label", *SUMMARY_FIELDS)

#: The columns that place a sweep cell, first in every sweep file.
_CELL = ("kind", "node", "penetration_pct")

# the place, the summary values less the label, the summed drops, the error
SWEEP_COLUMNS = (*_CELL, *SUMMARY_COLUMNS[1:], "sum_drop_n1_pct", "sum_drop_n5_pct", "error")

#: The plot-ready extracts of a sweep, ``<label>-<name>.csv``, over the
#: cells that ran.
SWEEP_EXTRACTS = {
    "fig-losses": (*_CELL, "phase_loss_kwh", "neutral_loss_kwh", "total_loss_kwh"),
    "fig-vuf": (*_CELL, "mean_vuf_pct", "max_vuf_pct"),
    "fig-drop": (*_CELL, "sum_drop_n1_pct", "sum_drop_n5_pct", "max_drop_pct", "max_rise_pct"),
}


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

    __hash__ = None  # a scenario's ``profiles`` is a dict


# --- validation --------------------------------------------------------------

#: The least integer that float() overflows on (it would round to 2**1024).
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is_number(x: Any) -> bool:
    if isinstance(x, float):
        return True
    return isinstance(x, int) and not isinstance(x, bool) and -_FLOAT_OVERFLOW < x < _FLOAT_OVERFLOW


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: (
        isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer()
    ),
}

# keyword: (test that fails the number, words of the message)
_BOUNDS = {
    "minimum": (lambda x, bound: x < bound, "less than the minimum"),
    "maximum": (lambda x, bound: x > bound, "greater than the maximum"),
    "exclusiveMinimum": (lambda x, bound: x <= bound, "less than or equal to the minimum"),
}


def _type_message(doc: Any, name: str) -> str:
    if name == "number" and isinstance(doc, int) and not isinstance(doc, bool):
        return "integer is too large for a float"
    return f"{doc!r} is not of type {name!r}"


def _errors(doc: Any, schema: dict, path: tuple) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, message)`` for each keyword of ``schema`` that ``doc``
    fails, in jsonschema's order: schema keys in order, ``properties`` in
    schema order, array items by index."""
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](doc):
                yield path, _type_message(doc, value)
        elif key == "enum":
            if doc not in value:
                yield path, f"{doc!r} is not one of {value!r}"
        elif key == "const":
            if doc != value:
                yield path, f"{value!r} was expected"
        elif key in _BOUNDS:
            fails, words = _BOUNDS[key]
            if _is_number(doc) and fails(doc, value):
                yield path, f"{doc!r} is {words} of {value!r}"
        elif isinstance(doc, list):
            if key == "minItems" and len(doc) < value:
                words = "should be non-empty" if value == 1 else "is too short"
                yield path, f"{doc!r} {words}"
            elif key == "maxItems" and len(doc) > value:
                words = "is expected to be empty" if value == 0 else "is too long"
                yield path, f"{doc!r} {words}"
            elif key == "items" and value.keys() == {"type"}:
                # profiles, pairs, node lists: one loop, no generator per item
                is_type = _TYPES[value["type"]]
                for i, item in enumerate(doc):
                    if not is_type(item):
                        yield path + (i,), _type_message(item, value["type"])
            elif key == "items":
                for i, item in enumerate(doc):
                    yield from _errors(item, value, path + (i,))
        elif isinstance(doc, dict):
            if key == "required":
                for name in value:
                    if name not in doc:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in value.items():
                    if name in doc:
                        yield from _errors(doc[name], sub, path + (name,))
            elif key == "additionalProperties":
                extras = [name for name in doc if name not in schema.get("properties", {})]
                if value is False and extras:
                    names = ", ".join(repr(name) for name in sorted(extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
                elif isinstance(value, dict):
                    for name in extras:
                        yield from _errors(doc[name], value, path + (name,))


def _best_error(doc: Any, schema: dict) -> tuple[tuple, str] | None:
    """The ``(path, message)`` that ``jsonschema.validate`` would raise.

    Covers the keywords the schemas above use (``type``, ``properties``,
    ``required``, ``additionalProperties``, ``items``, ``enum``, ``const``,
    ``minimum``, ``maximum``, ``exclusiveMinimum``, ``minItems``,
    ``maxItems``) on documents made of JSON values, with jsonschema 4.26's
    messages; ``enum`` and ``const`` values are strings or null, so ``==``
    is JSON equality. Of all errors, the pick is the one
    ``jsonschema.exceptions.best_match`` makes: the shallowest, then the
    largest path, then the first. One deliberate divergence: an integer
    too large for a float is not a ``number`` here, so it is rejected at
    the field that holds it instead of overflowing later.
    """
    return max(_errors(doc, schema, ()), key=lambda error: (-len(error[0]), error[0]), default=None)


def _validate(doc: Any, schema: dict, path: str, where: str) -> None:
    """Raise ConfigInvalid naming the field of ``_best_error``."""
    error = _best_error(doc, schema)
    if error is not None:
        field = where + "/" + "/".join(str(p) for p in error[0])
        raise ConfigInvalid(path, field.strip("/") or "config", error[1])


def _complex(pair: Sequence[float] | None, default: complex) -> complex:
    if pair is None:
        return default
    return complex(pair[0], pair[1])


def _present(doc: dict, *keys: str) -> dict:
    """The keys of ``doc`` among ``keys``, so that the model's own defaults
    stand for the ones left out (the model takes a phase or kind by value)."""
    return {key: doc[key] for key in keys if key in doc}


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
            kind=d["kind"],
            phase=d.get("phase"),
            s_rated_kva=complex(d.get("p_kw", 0.0), d.get("q_kvar", 0.0)),
            profile_id=d.get("profile"),
            battery_id=d.get("battery_id"),
        )
        for d in doc.get("devices", [])
    ]
    bases = _present(doc, "v_base_ln", "s_base_kva")
    return build_feeder(doc["source_node"], doc["nodes"], segments, devices, **bases)


def _parse_architecture(doc: dict) -> Architecture | None:
    if doc.get("architecture") is None:
        return None
    from .storage import Architecture  # only a fleet's config loads storage

    return Architecture(kind=doc["architecture"], **_present(doc, "allow_load_shift"))


def _parse_fleet(doc: dict) -> dict:
    """The ``batteries`` and ``schedule`` of a custom scenario, as keyword
    arguments of ``Scenario``: none without either key, so that a config
    without a fleet does not load storage. Without a schedule, dispatch
    reads the default one."""
    if "batteries" not in doc and "schedule" not in doc:
        return {}
    from .storage import Battery, StylizedScheduleCfg

    fleet = {"batteries": tuple(Battery(**b) for b in doc.get("batteries", []))}
    if "schedule" in doc:
        fleet["schedule"] = StylizedScheduleCfg(
            **{
                key: value if key == "target_phase" else tuple(value)
                for key, value in doc["schedule"].items()
            }
        )
    return fleet


def _parse_scenario(doc: dict, label: str, path: str) -> Scenario:
    """The scenario of a run config, built under ``label``."""
    from .scenarios import Scenario, build_stylized_scenario, build_sweep_scenario

    kind = doc.get("type")
    if kind not in _SCENARIO_SCHEMAS:
        raise ConfigInvalid(
            path, "scenario/type", f"expected one of {sorted(_SCENARIO_SCHEMAS)}, got {kind!r}"
        )
    _validate(doc, _SCENARIO_SCHEMAS[kind], path, "scenario")

    if kind == "sweep_cell":
        return build_sweep_scenario(
            doc["total_phase_load_kw"],
            doc["device_node"],
            doc["kind"],
            doc["penetration_pct"],
            doc["network_class"],
            label=label,
            **_present(doc, "device_phase", "balanced"),
        )
    if kind == "stylized":
        return build_stylized_scenario(
            _parse_architecture(doc),
            label=label,
            **_present(doc, "storage_node", "battery_kw", "controller", "target_phase"),
        )
    return Scenario(
        feeder=_parse_feeder(doc["feeder"]),
        profiles={k: tuple(v) for k, v in doc.get("profiles", {}).items()},
        architecture=_parse_architecture(doc),
        **_parse_fleet(doc),
        label=label,
        **_present(doc, "horizon_h", "dt_h", "controller"),
    )


def parse_config(doc: Any, path: str = "<config>") -> RunConfig:
    """Validate a configuration document and build the runnable objects.

    Raises ConfigInvalid naming the offending field. Semantic errors from
    the model layer (bad topology, sign conventions, ...) propagate as the
    corresponding package errors.
    """
    from .scenarios import SolverSettings, SweepTemplate

    _validate(doc, CONFIG_SCHEMA, path, "")
    has_scenario = "scenario" in doc
    has_sweep = "sweep" in doc
    if has_scenario == has_sweep:
        raise ConfigInvalid(path, "scenario|sweep", "exactly one of 'scenario' or 'sweep' required")

    with _config_errors(path, "solver"):
        settings = SolverSettings(**doc.get("solver", {}))
    label = doc.get("label", "run")
    with _config_errors(path, "label"):
        check_label(label)

    if has_scenario:
        return RunConfig(
            label=label,
            settings=settings,
            scenario=_parse_scenario(doc["scenario"], label, path),
            **{f"write_{key}": value for key, value in doc.get("output", {}).items()},
        )

    if "output" in doc:  # a sweep always writes its five tables
        raise ConfigInvalid(path, "output", "'output' applies to 'run' configs only")
    sw = doc["sweep"]
    _validate(sw, _SWEEP_SCHEMA, path, "sweep")
    template = SweepTemplate(
        total_phase_load_kw=sw["total_phase_load_kw"],
        network_class=sw["network_class"],
        **_present(sw, "device_phase", "balanced"),
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


def csv_lines(rows) -> Iterator[str]:
    """Each row as one CSV line: cells through ``_fmt`` (``None`` empty,
    floats at 17 significant digits) and ``csv.writer``'s minimal quoting."""
    # writerow returns what the file's write returns: here, the line itself
    writer = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\n")
    for row in rows:
        yield writer.writerow([_fmt(cell) for cell in row])


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it as one field of a row of several."""
    # the field of a row (text, "") is the line less its ",\n"
    return [line[:-2] for line in csv_lines((text, "") for text in texts)]


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text file written beside ``path`` and renamed over it when the
    block ends, so that ``path`` never holds part of a file; if the block
    raises, the file is removed and the error propagates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv_atomic(path: Path, header: Sequence[str], lines) -> None:
    """Write the header row, then ``lines`` (finished CSV text in strings of
    whole lines, each line ending in ``\n``, as ``csv_lines`` and
    ``timeseries_rows`` make them), via a temp file and rename, so failures
    never leave partial files."""
    with _replacing(path) as handle:
        handle.writelines(csv_lines([header]))
        handle.writelines(lines)


def timeseries_rows(result: ScenarioResult) -> Iterator[str]:
    """The timeseries CSV lines as text made from the run's trajectory
    arrays, one string per timestep holding a line per node. Fields read as
    ``csv_lines`` would write them: floats at 17 significant digits (by
    ``g17.lines``), names quoted as ``csv.writer`` quotes a field of a
    multi-field row.

    The node name and the 11 power-flow columns depend only on the step's
    distinct operating point, so they are formatted once per distinct row,
    the first time a step uses it, and kept as text in which each line
    starts with a carriage return (no node name holds one: ``build_feeder``
    rejects it). A step's text is that with each carriage return replaced
    by the step's ``t_h`` and a comma, and the 7 storage columns of the
    step spliced in after each storage node."""
    import numpy as np

    from . import g17  # off the start-up path: only a run's timeseries needs it

    traj = result.trajectory
    topo = traj.topology
    n = topo.n
    # storage columns (p by phase, q by phase, SoC) of the storage nodes; units
    # sharing a node and phase add up in battery order
    battery_node = traj.battery_node.tolist()
    stor_nodes = sorted(set(battery_node))
    at = [stor_nodes.index(i) for i in battery_node]
    steps = np.arange(len(result.step_row))
    storage = np.zeros((len(steps), len(stor_nodes), 7))
    for i, (p, q, ph) in enumerate(zip(traj.p_kw.T, traj.q_kvar.T, traj.phase.T)):
        storage[steps, at[i], ph] += p
        storage[steps, at[i], 3 + ph] += q
    for i, soc in enumerate(traj.soc_kwh.T):
        storage[:, at[i], 6] += soc
    heads = ["\r" + name for name in _csv_fields(topo.nodes)]
    # the storage columns of a node without storage are one constant text
    tails = ["" if i in stor_nodes else ",0,0,0,0,0,0,0\n" for i in range(n)]
    # a distinct row's text, cut after each storage node
    ends = [i + 1 for i in stor_nodes] + [n]
    cuts = list(zip([0] + ends[:-1], ends))

    def row_texts(rows: list[int]) -> Iterator[list[str]]:
        """The text of each distinct row in ``rows``, cut as ``cuts`` says."""
        cols = np.zeros((len(rows), n, 11))
        v = traj.voltages[rows]
        v_ln = v[..., :3] - v[..., 3:]
        cols[..., 0:3] = np.hypot(v_ln.real, v_ln.imag)
        cols[..., 3] = np.hypot(v[..., 3].real, v[..., 3].imag)
        cols[..., 4] = traj.vuf_pct[rows]
        cols[..., 5:8] = traj.drop_pct[rows]
        cols[..., 8] = traj.v_rms[rows]
        # per-segment phase loss summed as the builtin sum does, from 0.0
        pl = traj.phase_loss[rows]
        cols[:, topo.seg_child, 9] = 0.0 + pl[..., 0] + pl[..., 1] + pl[..., 2]
        cols[:, topo.seg_child, 10] = traj.neutral_loss[rows]
        fields = g17.lines(cols.reshape(-1, 11)).split("\n")
        for j in range(len(rows)):
            parts = [""] * (3 * n)
            parts[0::3] = heads
            parts[1::3] = fields[j * n : (j + 1) * n]
            parts[2::3] = tails
            yield ["".join(parts[3 * a : 3 * z]) for a, z in cuts]

    # steps and distinct rows in groups of about g17.BLOCK values each
    per_group = max(1, g17.BLOCK // (n * 11))
    per_chunk = max(1, g17.BLOCK // (7 * len(stor_nodes) + 1))
    texts: dict[int, list[str]] = {}
    step_rows = result.step_row.tolist()
    for k0 in range(0, len(steps), per_chunk):
        chunk = steps[k0 : k0 + per_chunk]
        rows = [r for r in dict.fromkeys(step_rows[k0 : k0 + per_chunk]) if r not in texts]
        for g in range(0, len(rows), per_group):
            texts.update(zip(rows[g : g + per_group], row_texts(rows[g : g + per_group])))
        times = g17.lines((chunk * traj.dt_h)[:, None]).split("\n")
        stored = iter(g17.lines(storage[chunk].reshape(-1, 7)).splitlines(True))
        for k, t in zip(chunk.tolist(), times):
            t = t[1:] + ","
            *cuts_before, last = texts[step_rows[k]]
            text = [cut.replace("\r", t) + next(stored) for cut in cuts_before]
            yield "".join(text) + last.replace("\r", t)


def result_values(result: ScenarioResult) -> dict[str, Any]:
    """The ``SUMMARY_COLUMNS`` of one run, keyed by column name."""
    return {name: getattr(result, name) for name in SUMMARY_COLUMNS}


def _write_table(path: Path, columns: Sequence[str], records: Iterable[dict]) -> Path:
    """Write ``columns`` of each record (a dict keyed by column name) as one
    CSV row and return ``path``; a column a record lacks is an empty cell."""
    write_csv_atomic(path, columns, csv_lines([rec.get(c) for c in columns] for rec in records))
    return path


def _write_run_outputs(cfg: RunConfig, result: ScenarioResult, out_dir: Path) -> list[Path]:
    written = []
    if cfg.write_timeseries:
        path = out_dir / f"{cfg.label}-timeseries.csv"
        write_csv_atomic(path, TIMESERIES_COLUMNS, timeseries_rows(result))
        written.append(path)
    if cfg.write_summary:
        path = out_dir / f"{cfg.label}-summary.csv"
        written.append(_write_table(path, SUMMARY_COLUMNS, [result_values(result)]))
    return written


def _write_sweep_outputs(cfg: RunConfig, table: SweepTable, out_dir: Path) -> list[Path]:
    """The sweep table, the extracts of the cells that ran and the manifest
    of the cells that failed, in that order, from the table's columns as
    ``csv_lines`` would write each row: text through ``csv.writer``'s
    quoting, and the floats of each file through one ``g17.lines`` call. A
    failing cell's row shows its place, empty values and its error."""
    import numpy as np

    from . import g17  # off the start-up path: only a run's or a sweep's CSVs need it

    failed = np.zeros(len(table), dtype=bool)
    failed[list(table.errors)] = True
    error = dict(zip(table.errors, _csv_fields(table.errors.values())))
    kinds = _csv_fields(kind.value for kind in table.kinds)
    places = [f"{kind},{node}" for kind in kinds for node in _csv_fields(table.nodes)]
    place = [p for p in places for _ in table.penetrations]  # of each cell
    index = table.trajectory.topology.index
    # a failing cell's NaN values are cut from its row; 0.0 keeps g17 on its fast path
    values = dict(zip(SUMMARY_FIELDS, np.where(failed[:, None], 0.0, table.summary).T))
    values.update(
        penetration_pct=np.tile(np.array(table.penetrations, dtype=float), len(places)),
        sum_drop_n1_pct=np.where(failed, 0.0, table.sum_drop[:, index["N1"]]),
        sum_drop_n5_pct=np.where(failed, 0.0, table.sum_drop[:, index["N5"]]),
        total_loss_kwh=values["phase_loss_kwh"] + values["neutral_loss_kwh"],
    )

    def lines(columns: Sequence[str], cells: np.ndarray) -> list[str]:
        """The rows of ``cells``: place, floats and, if the file has one, error."""
        tail = columns[-1] == "error"
        floats = columns[2 : len(columns) - tail]
        text = g17.lines(np.column_stack([values[name][cells] for name in floats])).split("\n")
        empty = "," * (len(floats) - 1)  # the fields after a failing cell's penetration
        rows = []
        for c, t in zip(cells.tolist(), text):
            if empty and failed[c]:
                t = t[: t.index(",", 1)] + empty
            rows.append(place[c] + t + ("," + error.get(c, "") if tail else "") + "\n")
        return rows

    every, ran = np.arange(len(table)), np.flatnonzero(~failed)
    tables = [
        ("sweep", SWEEP_COLUMNS, every),
        *((name, columns, ran) for name, columns in SWEEP_EXTRACTS.items()),
        ("failures", (*_CELL, "error"), np.flatnonzero(failed)),
    ]
    written = []
    for name, columns, cells in tables:
        path = out_dir / f"{cfg.label}-{name}.csv"
        write_csv_atomic(path, columns, lines(columns, cells))
        written.append(path)
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
    flags = {"tol_pu": args.tol, "max_iter": args.max_iter}
    overrides = {key: value for key, value in flags.items() if value is not None}
    # merged into objects only, so that validation rejects and names anything else
    if overrides and isinstance(doc, dict) and isinstance(doc.get("solver", {}), dict):
        doc["solver"] = {**doc.get("solver", {}), **overrides}
    return doc, source


def _json_float(x: float) -> str:
    """A float as ``json`` writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_text(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, character for
    character, for a document of dicts with string keys, lists, tuples,
    and str, int, float, bool and None values (what ``json.load`` returns,
    and tuples). Python 3.11's ``json`` takes its pure-Python encoder
    whenever ``indent`` is set; this makes the same parts with ``json``'s C
    string quoting and the int and float reprs, into one list."""
    parts: list[str] = []
    add = parts.append
    scalar = {
        str: encode_basestring_ascii,
        int: int.__repr__,
        float: _json_float,
        bool: lambda b: "true" if b else "false",
        type(None): lambda _: "null",
    }.get

    def emit(value: Any, indent: str) -> None:
        text = scalar(type(value))
        if text is not None:
            add(text(value))
        elif isinstance(value, (list, tuple)):
            inner = indent + "  "
            sep = "[" + inner
            for item in value:
                add(sep)
                emit(item, inner)
                sep = "," + inner
            add("[]" if not value else indent + "]")
        elif isinstance(value, dict):
            inner = indent + "  "
            sep = "{" + inner
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                add(sep + encode_basestring_ascii(key) + ": ")
                emit(item, inner)
                sep = "," + inner
            add("{}" if not value else indent + "}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    emit(doc, "\n")
    return "".join(parts)


def _emit_config(doc: dict, label: str, out_dir: Path) -> None:
    """Copy the config as ``<label>-config.json``: ``json.dump(doc,
    indent=2, sort_keys=True)`` and a newline (``_json_text``)."""
    with _replacing(out_dir / f"{label}-config.json") as handle:
        handle.write(_json_text(doc) + "\n")


@contextmanager
def _config_errors(source: str, field: str) -> Iterator[None]:
    """Any failure while building the model from a config is a config
    error, at ``field`` unless it names its own."""
    try:
        yield
    except ConfigInvalid:
        raise
    except (PhasebalError, ValueError) as exc:
        raise ConfigInvalid(source, field, str(exc)) from exc


def cmd_run(args: argparse.Namespace) -> int:
    from .scenarios import run_scenario

    doc, source = _load_config(args)
    with _config_errors(source, "scenario"):
        cfg = parse_config(doc, source)
    if cfg.scenario is None:
        raise ConfigInvalid(source, "scenario", "'run' needs a 'scenario' config (not 'sweep')")
    result = run_scenario(cfg.scenario, cfg.settings)
    out_dir = Path(args.out)
    _emit_config(doc, cfg.label, out_dir)
    for path in _write_run_outputs(cfg, result, out_dir):
        print(path)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .scenarios import sweep_and_tabulate

    doc, source = _load_config(args)
    with _config_errors(source, "scenario"):
        cfg = parse_config(doc, source)
    if cfg.sweep_template is None:
        raise ConfigInvalid(source, "sweep", "'sweep' needs a 'sweep' config (not 'scenario')")
    pens, nodes, kinds = cfg.sweep_grid
    with _config_errors(source, "sweep"):  # every cell is built before any runs
        table = sweep_and_tabulate(cfg.sweep_template, pens, nodes, kinds, cfg.settings)
    out_dir = Path(args.out)
    _emit_config(doc, cfg.label, out_dir)
    for path in _write_sweep_outputs(cfg, table, out_dir):
        print(path)
    if table.errors:
        print(f"{len(table.errors)} cell(s) failed; see failures manifest", file=sys.stderr)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .ingest import analyze_series, read_measured_series  # off the run/sweep start-up path

    series = read_measured_series(args.csv)
    report = analyze_series(series)
    out_dir = Path(args.out)
    stem = Path(args.csv).stem
    columns = ["timestamp", "spread_kw", "neutral_proxy_a", "pf_a", "pf_b", "pf_c"]
    if series.i_n_a is not None:
        columns.append("i_n_measured_a")
    hourly = ("hour", "mean_spread_kw", "max_spread_kw")
    for path in (
        _write_table(out_dir / f"{stem}-imbalance.csv", columns, report.rows),
        _write_table(out_dir / f"{stem}-hourly.csv", hourly, report.hourly),
    ):
        print(path)
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


def process_main() -> NoReturn:
    """The process entry (``python -m phasebal.cli``, the ``phasebal``
    script): run ``main`` on ``sys.argv``, then exit with its code.

    Before exiting it freezes the heap (``gc.freeze``), so the collections
    that interpreter shutdown runs skip every object the run made: they
    took about 15 ms of a 20 ms exit on a 2-vCPU x86-64 host, whatever the
    workload. Exit is otherwise the usual one: ``atexit`` handlers run,
    stdout and stderr are flushed, and an exception escaping ``main``
    prints its traceback and exits 1. ``main`` itself never freezes: it is
    called in process, where a frozen heap would never collect its cycles.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
