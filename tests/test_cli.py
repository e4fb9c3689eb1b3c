"""CLI: config validation, presets, CSV contracts, exit codes."""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    random_feeder,
    random_tree,
    reference_sweep,
    reference_sweep_tables,
    reference_timeseries_lines,
    with_greedy_fleet,
    with_profiles,
)

from phasebal import cli, g17
from phasebal.cli import (
    _SCENARIO_SCHEMAS,
    _SWEEP_SCHEMA,
    _best_error,
    _emit_config,
    CONFIG_SCHEMA,
    SUMMARY_COLUMNS,
    SWEEP_COLUMNS,
    TIMESERIES_COLUMNS,
    main,
    parse_config,
    timeseries_rows,
    write_csv_atomic,
)
from phasebal.errors import ConfigInvalid
from phasebal.network import (
    PHASES,
    Device,
    DeviceKind,
    LineSegment,
    Phase,
    build_feeder,
)
from phasebal.presets import RUN_PRESET_NAMES, SWEEP_PRESET_NAMES, preset_config, preset_names
from phasebal.scenarios import (
    MAX_STEPS,
    NETWORK_CLASS_SEGMENT_KM,
    Scenario,
    ScenarioResult,
    SweepRow,
    SweepTemplate,
    build_stylized_scenario,
    build_sweep_scenario,
    run_scenario,
    sweep_and_tabulate,
)
from phasebal.storage import Architecture, ArchKind, Battery, StylizedScheduleCfg


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


CUSTOM_DOC = {
    "label": "tiny",
    "scenario": {
        "type": "custom",
        "feeder": {
            "source_node": "N0",
            "nodes": ["N0", "N1"],
            "segments": [{"from_node": "N0", "to_node": "N1", "length_km": 0.1}],
            "devices": [
                {"label": "l1", "node": "N1", "kind": "load", "phase": "A", "p_kw": 1.0}
            ],
        },
        "horizon_h": 2.0,
        "dt_h": 1.0,
    },
}


# --- differential check of the config validator against jsonschema -----------

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)  # no integer too large for a float: see the divergence
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["A", "N0", "N5", "dg", "ev", "storage", "custom", "stylized", "greedy"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def custom_docs(draw):
    """Schema-valid custom scenarios with profiles, batteries and the optional keys."""
    nodes = [f"N{i}" for i in range(draw(st.integers(1, 4)))]
    steps = draw(st.integers(1, 4))
    profiles = {
        f"p{i}": draw(st.lists(st.floats(0, 3), min_size=steps, max_size=steps))
        for i in range(draw(st.integers(0, 2)))
    }
    batteries = [
        {"id": f"b{i}", "p_max_kw": draw(st.floats(0.5, 5)), "e_max_kwh": 4, "eta_c": 0.95}
        for i in range(draw(st.integers(0, 2)))
    ]
    devices = [
        {
            "label": f"d{i}",
            "node": draw(st.sampled_from(nodes)),
            "kind": draw(st.sampled_from(["load", "dg", "ev"])),
            "phase": draw(st.sampled_from(["A", "B", "C", None])),
            "p_kw": draw(st.floats(-5, 5)),
            **({"profile": draw(st.sampled_from(sorted(profiles)))} if profiles else {}),
        }
        for i in range(draw(st.integers(0, 3)))
    ]
    devices += [
        {"label": b["id"], "node": nodes[-1], "kind": "storage", "battery_id": b["id"]}
        for b in batteries
    ]
    segments = [
        {"from_node": a, "to_node": b, "length_km": 0.1, "z_phase_per_km": [0.3, 0.08]}
        for a, b in zip(nodes, nodes[1:])
    ]
    scenario = {
        "type": "custom",
        "feeder": {"source_node": "N0", "nodes": nodes, "segments": segments, "devices": devices},
        "profiles": profiles,
        "horizon_h": steps,
        "dt_h": 1.0,
        "batteries": batteries,
        "architecture": "A1" if batteries else None,
        "controller": "greedy" if batteries else "none",
        "schedule": {"dg_window": [10.0, 15.0], "target_phase": "B"},
    }
    return {"label": "custom", "solver": {"max_iter": 50}, "scenario": scenario}


def schema_sites(doc, schema, path=()):
    """(path, schema) of every value in ``doc`` that ``schema`` describes."""
    yield path, schema
    if isinstance(doc, dict):
        extra = schema.get("additionalProperties")
        for key, value in doc.items():
            sub = schema.get("properties", {}).get(key, extra)
            if isinstance(sub, dict):
                yield from schema_sites(value, sub, path + (key,))
    elif isinstance(doc, list) and "items" in schema:
        for i, value in enumerate(doc):
            yield from schema_sites(value, schema["items"], path + (i,))


def mutated(doc, schema, data):
    """``doc`` with the value at one site changed: a wrong type, a missing or
    extra key, a number at or past a bound, a bad enum or const, a longer
    or shorter array, or a bool where a number belongs."""
    path, sub = data.draw(st.sampled_from(list(schema_sites(doc, schema))))
    value = doc
    for key in path:
        value = value[key]
    changes = [JSON_VALUES]
    if sub.get("type") in ("number", "integer"):
        bounds = [sub[k] for k in ("minimum", "maximum", "exclusiveMinimum") if k in sub]
        offsets = st.sampled_from([-1, -1e-9, 0, 1e-9, 1])
        near_bounds = st.builds(sum, st.tuples(st.sampled_from(bounds or [0]), offsets))
        changes += [st.booleans(), near_bounds]
    if isinstance(value, dict):
        changes.append(st.builds(lambda k, v: {**value, k: v}, st.text(max_size=4), JSON_VALUES))
        if value:
            keys = st.sampled_from(sorted(value))
            changes.append(keys.map(lambda k: {n: v for n, v in value.items() if n != k}))
    if isinstance(value, list):
        changes.append(st.lists(JSON_VALUES | st.sampled_from(value or [0]), min_size=1).map(
            lambda more: value + more
        ))
        changes.append(st.integers(0, len(value)).map(lambda n: value[:n]))
    return replaced(doc, path, data.draw(st.one_of(changes)))


def replaced(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def jsonschema_verdict(doc, schema):
    """What ``jsonschema.validate`` raises, without its check of the schema
    (26 ms a call; test_every_schema_is_valid_under_its_metaschema makes it)."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    return None if error is None else (tuple(error.absolute_path), error.message)


def assert_validators_agree(config, data):
    """Each part of ``config`` validated as parse_config does, unchanged and
    after one to three mutations: the same decision, path and message."""
    body_key = "scenario" if "scenario" in config else "sweep"
    body = config[body_key]
    body_schema = _SWEEP_SCHEMA if body_key == "sweep" else _SCENARIO_SCHEMAS[body["type"]]
    for doc, schema in ((config, CONFIG_SCHEMA), (body, body_schema)):
        assert _best_error(doc, schema) is None
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutated(doc, schema, data)
            assert _best_error(doc, schema) == jsonschema_verdict(doc, schema)


class TestParseConfig:
    def test_every_schema_is_valid_under_its_metaschema(self):
        for schema in (CONFIG_SCHEMA, _SWEEP_SCHEMA, *_SCENARIO_SCHEMAS.values()):
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_rejection_names_the_error_jsonschema_validate_picks(self):
        bad_scenario = preset_config("a1-n5")
        bad_scenario["scenario"]["battery_kw"] = -1
        # of sibling errors the largest path wins, not the first
        bad_sweep = preset_config("grid-compact")
        bad_sweep["sweep"]["penetrations_pct"] = [0, "x", 500, -1]
        # a shallow error beats a deeper one
        shallow = json.loads(json.dumps(CUSTOM_DOC))
        shallow["scenario"]["feeder"]["segments"][0]["length_km"] = "x"
        shallow["scenario"]["seed"] = 7
        cases = [
            ({"label": 3, "scenario": {}}, "", CONFIG_SCHEMA, "label"),
            (bad_scenario, "scenario", _SCENARIO_SCHEMAS["stylized"], "scenario/battery_kw"),
            (bad_sweep, "sweep", _SWEEP_SCHEMA, "sweep/penetrations_pct/3"),
            (shallow, "scenario", _SCENARIO_SCHEMAS["custom"], "scenario"),
        ]
        for doc, where, schema, field in cases:
            with pytest.raises(jsonschema.ValidationError) as want:
                jsonschema.validate(doc[where] if where else doc, schema)
            with pytest.raises(ConfigInvalid) as got:
                parse_config(doc)
            assert str(got.value).endswith(want.value.message)
            assert got.value.field == field
            assert field == "/".join([where, *map(str, want.value.absolute_path)]).strip("/")

    def test_schemas_use_only_the_validated_keywords(self):
        keywords = {
            "type", "properties", "required", "additionalProperties", "items", "enum", "const",
            "minimum", "maximum", "exclusiveMinimum", "minItems", "maxItems",
        }  # fmt: skip

        def walk(schema):
            assert set(schema) <= keywords, set(schema) - keywords
            # _validate compares enum and const values with ==
            for value in schema.get("enum", []) + ([schema["const"]] if "const" in schema else []):
                assert value is None or isinstance(value, str)
            for sub in [*schema.get("properties", {}).values(), schema.get("items")]:
                if sub is not None:
                    walk(sub)
            if isinstance(schema.get("additionalProperties"), dict):
                walk(schema["additionalProperties"])

        for schema in (CONFIG_SCHEMA, _SWEEP_SCHEMA, *_SCENARIO_SCHEMAS.values()):
            walk(schema)

    @pytest.mark.parametrize("name", preset_names())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_validator_matches_jsonschema_on_mutated_presets(self, name, data):
        assert_validators_agree(preset_config(name), data)

    @settings(max_examples=150, deadline=None)
    @given(doc=custom_docs(), data=st.data())
    def test_validator_matches_jsonschema_on_mutated_custom_feeders(self, doc, data):
        assert_validators_agree(doc, data)

    @pytest.mark.parametrize(
        "where",
        [
            ("scenario", "profiles", "p", 1),
            ("scenario", "feeder", "devices", 0, "p_kw"),
            ("scenario", "feeder", "segments", 0, "length_km"),
            ("scenario", "horizon_h"),
        ],
        ids=["profile-entry", "p_kw", "length_km", "horizon_h"],
    )
    def test_integer_too_large_for_a_float_is_rejected_and_named(self, where):
        """The validator's one divergence from jsonschema, which accepts it."""
        doc = replaced(CUSTOM_DOC, ("scenario", "profiles"), {"p": [1.0, 1.0]})
        with pytest.raises(ConfigInvalid, match="integer is too large for a float") as exc:
            parse_config(replaced(doc, where, 10**400))
        assert exc.value.field == "/".join(map(str, where))

    def test_number_bound_is_where_float_overflows(self):
        """The integer below the bound rounds down to the largest float."""
        below, at = 2**1024 - 2**970 - 1, 2**1024 - 2**970
        assert float(below) == sys.float_info.max
        assert _best_error(below, {"type": "number"}) is None
        with pytest.raises(OverflowError):
            float(at)
        assert _best_error(at, {"type": "number"}) == ((), "integer is too large for a float")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config({"label": "x", "scenario": {"type": "stylized", "architecture": None},
                          "extra": 1})

    def test_unknown_scenario_key_rejected(self):
        doc = preset_config("a1-n5")
        doc["scenario"]["battery_count"] = 7
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(doc)
        assert "battery_count" in str(exc.value)

    def test_requires_exactly_one_of_scenario_or_sweep(self):
        with pytest.raises(ConfigInvalid):
            parse_config({"label": "x"})
        both = {**preset_config("a1-n5"), "sweep": preset_config("grid-compact")["sweep"]}
        with pytest.raises(ConfigInvalid):
            parse_config(both)

    def test_solver_overrides(self):
        doc = preset_config("a1-n5")
        doc["solver"] = {"tol_pu": 1e-10, "max_iter": 42}
        cfg = parse_config(doc)
        assert cfg.settings.tol_pu == 1e-10
        assert cfg.settings.max_iter == 42

    def test_custom_feeder_scenario(self):
        cfg = parse_config(CUSTOM_DOC)
        assert cfg.scenario.feeder.nodes == ("N0", "N1")
        assert cfg.scenario.n_steps == 2
        assert cfg.scenario.label == "tiny"

    def test_custom_segment_impedances_are_complex_pairs(self):
        """Each ``[R, X]`` pair of a segment parses to ``complex(R, X)``,
        and the parsed feeder solves byte for byte as the same feeder built
        through the API."""
        z = {
            "z_phase_per_km": [0.27, 0.081],
            "z_neutral_per_km": [1, 0.1],
            "z_mutual_per_km": [0.0, 0.04],
        }
        (seg_doc,) = CUSTOM_DOC["scenario"]["feeder"]["segments"]
        doc = replaced(CUSTOM_DOC, ("scenario", "feeder", "segments"), [{**seg_doc, **z}])
        parsed = parse_config(doc).scenario
        (seg,) = parsed.feeder.segments
        for key, (r, x) in z.items():
            assert type(getattr(seg, key)) is complex and getattr(seg, key) == complex(r, x)
        z_api = {key: complex(r, x) for key, (r, x) in z.items()}
        load = Device("l1", "N1", DeviceKind.LOAD, Phase.A, 1.0 + 0j)
        feeder = build_feeder("N0", ["N0", "N1"], [LineSegment("N0", "N1", 0.1, **z_api)], [load])
        assert parsed.feeder == feeder
        got = run_scenario(parsed).trajectory.solved
        want = run_scenario(replace(parsed, feeder=feeder)).trajectory.solved
        assert got.voltages.tobytes() == want.voltages.tobytes()
        assert got.currents.tobytes() == want.currents.tobytes()

    def test_custom_scenario_is_validated_once(self):
        """Every scenario is built under the config's label, so its checks
        run once: a custom one, and a builder's, which is not re-labelled."""
        checked = []
        check = Scenario.__post_init__

        def counted(scenario):
            checked.append(scenario.label)
            check(scenario)

        with mock.patch.object(Scenario, "__post_init__", counted):
            assert parse_config(CUSTOM_DOC).scenario.label == "tiny"
            assert checked == ["tiny"]
            # a stylized and a sweep_cell builder build under the config's label
            for name in ("a2-n5", "baseline-n5"):
                checked.clear()
                assert parse_config(preset_config(name)).scenario.label == name
                assert checked == [name]

    def test_every_run_preset_parses_to_builder_equivalent(self):
        built = {
            "baseline-n1": build_sweep_scenario(5.0, "N1", DeviceKind.DG, 120, "compact"),
            "baseline-n5": build_sweep_scenario(5.0, "N5", DeviceKind.DG, 120, "compact"),
            "overload-n5": build_sweep_scenario(50.0, "N5", DeviceKind.DG, 120, "overload"),
            "sparse-n5": build_sweep_scenario(5.0, "N5", DeviceKind.DG, 120, "sparse"),
            "stylized-nostorage": build_stylized_scenario(None),
            "a1-n0": build_stylized_scenario(Architecture(ArchKind.A1), "N0", 3.0),
            "a1-n5": build_stylized_scenario(Architecture(ArchKind.A1), "N5", 3.0),
            "a2-n0": build_stylized_scenario(Architecture(ArchKind.A2), "N0", 3.0),
            "a2-n5": build_stylized_scenario(Architecture(ArchKind.A2), "N5", 3.0),
            "a2-n5-noshift": build_stylized_scenario(
                Architecture(ArchKind.A2, allow_load_shift=False), "N5", 3.0
            ),
        }
        assert set(built) == set(RUN_PRESET_NAMES)
        for name, expected in built.items():
            parsed = parse_config(preset_config(name)).scenario
            assert parsed == replace(expected, label=name), name

    def test_preset_json_round_trip_is_identical(self):
        for name in preset_names():
            doc = preset_config(name)
            reparsed = json.loads(json.dumps(doc))
            assert reparsed == doc
            if name in RUN_PRESET_NAMES:
                assert parse_config(doc).scenario == parse_config(reparsed).scenario


class TestRunCommand:
    def test_run_preset_writes_expected_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--preset", "a1-n5", "--out", str(out)]) == 0
        summary = (out / "a1-n5-summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        assert len(summary) == 2
        ts = (out / "a1-n5-timeseries.csv").read_text().splitlines()
        assert ts[0] == ",".join(TIMESERIES_COLUMNS)
        assert len(ts) == 1 + 24 * 6  # 24 steps x 6 nodes
        assert (out / "a1-n5-config.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--preset", "a2-n5-noshift", "--out", str(out)]) == 0
        for name in ("a2-n5-noshift-summary.csv", "a2-n5-noshift-timeseries.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_emitted_config_reparses_to_identical_scenario(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--preset", "a2-n5", "--out", str(out)]) == 0
        emitted = json.loads((out / "a2-n5-config.json").read_text())
        assert parse_config(emitted).scenario == parse_config(preset_config("a2-n5")).scenario

    def test_custom_config_runs(self, tmp_path):
        path = write_config(tmp_path, CUSTOM_DOC)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert (out / "tiny-summary.csv").exists()

    @pytest.mark.parametrize(
        "switch, written",
        [
            ("timeseries", ["config.json", "summary.csv"]),
            ("summary", ["config.json", "timeseries.csv"]),
        ],
    )
    def test_output_switch_leaves_its_file_out(self, tmp_path, capsys, switch, written):
        doc = preset_config("a1-n5")
        doc["output"] = {switch: False}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [f"a1-n5-{name}" for name in written]
        assert capsys.readouterr().out.split() == [str(out / f"a1-n5-{written[1]}")]

    def test_integral_float_max_iter_runs_that_many_passes(self, tmp_path):
        """JSON Schema counts 5.0 as an integer: it runs as max_iter 5.
        baseline-n1 converges on pass 5 at every step, so 5 is the fewest
        passes that run it."""
        outputs = []
        for max_iter in (5.0, 5):
            doc = preset_config("baseline-n1")
            doc["solver"] = {"max_iter": max_iter}
            assert type(parse_config(doc).settings.max_iter) is int
            out = tmp_path / repr(max_iter)
            assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
            outputs.append(
                [(out / f"baseline-n1-{kind}.csv").read_bytes() for kind in ("summary", "timeseries")]
            )
        assert outputs[0] == outputs[1]

    def test_negative_length_exits_2_and_names_segment(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"]["segments"][0]["length_km"] = -0.5
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "N0" in err and "N1" in err

    def test_negative_profile_exits_2_and_names_profile(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"]["devices"][0]["profile"] = "p"
        doc["scenario"]["profiles"] = {"p": [1, -5]}
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "profile 'p' entry 1 must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a2_storage_on_another_phase_exits_2(self, tmp_path, capsys):
        """An A2 fleet listed as bat-c, bat-a, bat-b dispatches bat-c on
        phase A, so its device on phase C contradicts the dispatch."""
        scenario = json.loads(json.dumps(CUSTOM_DOC))["scenario"]
        storage = {"node": "N1", "kind": "storage"}
        scenario["feeder"]["devices"] += [
            {"label": f"st-{p}", "phase": p.upper(), "battery_id": f"bat-{p}", **storage}
            for p in "abc"
        ]
        scenario.update(
            batteries=[{"id": f"bat-{p}", "p_max_kw": 1.0} for p in "cab"],
            architecture="A2",
            controller="fixed_schedule",
        )
        out = tmp_path / "out"
        path = write_config(tmp_path, {"label": "a2", "scenario": scenario})
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid config at 'scenario'" in err
        assert "battery 'bat-c' dispatches on phase A" in err and "'st-c' is on phase C" in err
        assert not out.exists()

    @pytest.mark.parametrize("km", [1e308, float("inf")])
    def test_non_finite_or_huge_length_exits_2_and_names_segment(self, tmp_path, capsys, km):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"]["segments"][0]["length_km"] = km
        with pytest.raises(ValueError, match="segment N0->N1 length_km must be finite"):
            parse_config(doc)
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "segment N0->N1 length_km must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["battery_kw", "p_max_kw", "e_max_kwh", "soc_kwh", "s_conv_kva"]
    )
    def test_non_finite_battery_rating_exits_2_and_names_it(self, tmp_path, capsys, field, value):
        """JSON's Infinity reaches the model as a float: the schema turns
        away -inf at its lower bound and ``Battery`` turns away +inf, before
        anything is dispatched."""
        if field == "battery_kw":
            scenario = {"type": "stylized", "architecture": "A2", field: value}
            # a stylized fleet splits battery_kw into per-unit p_max_kw
            named = "battery_kw" if value < 0 else "battery 'bat-a': p_max_kw must be finite"
        else:
            scenario = json.loads(json.dumps(CUSTOM_DOC))["scenario"]
            scenario["feeder"]["devices"].append(
                {"label": "st", "node": "N1", "kind": "storage", "phase": "A", "battery_id": "b"}
            )
            scenario.update(
                batteries=[{"id": "b", "p_max_kw": 1.0, field: value}],
                architecture="A1",
                controller="fixed_schedule",
            )
            named = f"batteries/0/{field}" if value < 0 else f"battery 'b': {field} must be finite"
        out = tmp_path / "out"
        path = write_config(tmp_path, {"label": "inf", "scenario": scenario})
        assert main(["run", path, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, value, named",
        [
            ("battery_kw", 1e308, "battery 'bat-a': p_max_kw * 1000 must be finite"),
            ("p_kw", 1e306, "device 'l1' s_rated_kva * 1000 must be finite"),
            ("profile", 1e306, "profile 'p' entry 1 scales the rating of device 'l1'"),
        ],
        ids=["battery_kw", "p_kw", "profile"],
    )
    def test_rating_whose_va_overflows_exits_2_and_names_it(
        self, tmp_path, capsys, where, value, named
    ):
        """The solver takes powers in VA, kW times 1000: a finite rating
        whose VA figure overflows is turned away before anything runs."""
        if where == "battery_kw":
            doc = {"label": "va", "scenario": {"type": "stylized", "architecture": "A2"}}
            doc["scenario"][where] = value
        else:
            doc = json.loads(json.dumps(CUSTOM_DOC))
            device = doc["scenario"]["feeder"]["devices"][0]
            if where == "p_kw":
                device["p_kw"] = value
            else:
                device.update(p_kw=10.0, profile="p")
                doc["scenario"]["profiles"] = {"p": [1.0, value]}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_rating_with_finite_va_runs_to_a_clean_collapse(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"]["devices"][0]["p_kw"] = 1e305
        assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 3
        assert "voltage collapsed" in capsys.readouterr().err

    def test_overflowing_pass_ends_its_row_at_once(self, tmp_path, capsys):
        """A rating whose VA figure fits still overflows the drop of a
        10,000 km segment: the first pass's voltage change is not finite,
        so the step fails on that pass, without a numpy RuntimeWarning
        (pytest turns one into an error)."""
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"]["devices"][0]["p_kw"] = 1e305
        doc["scenario"]["feeder"]["segments"][0]["length_km"] = 1e4
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "at t=0 h" in err and "did not converge after 1 iterations (residual nan V)" in err
        assert not out.exists() or not list(out.iterdir())

    def test_carriage_return_in_node_name_exits_2_and_names_it(self, tmp_path, capsys):
        """``csv.writer`` leaves a lone carriage return unquoted, so the row
        would not read back; see the quoting test of ``timeseries_rows``."""
        doc = json.loads(json.dumps(CUSTOM_DOC))
        feeder = doc["scenario"]["feeder"]
        feeder["nodes"][1] = feeder["segments"][0]["to_node"] = "a\rb"
        feeder["devices"][0]["node"] = "a\rb"
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "node name 'a\\rb' holds a carriage return" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "label, what",
        [
            ("../escaped", "a '/'"),
            ("sub/label", "a '/'"),
            ("a\rb", "a carriage return"),
            ("a\0b", "a NUL"),
        ],
    )
    def test_label_that_leaves_out_or_splits_a_row_exits_2_and_names_it(
        self, tmp_path, capsys, command, label, what
    ):
        """The label names the output files, so a '/' would write outside
        ``--out``; a lone carriage return in the summary CSV's label cell
        would not read back."""
        doc = json.loads(json.dumps(CUSTOM_DOC)) if command == "run" else preset_config("grid-compact")
        doc["label"] = label
        path = write_config(tmp_path, doc)
        out = tmp_path / "sub" / "out"
        assert main([command, path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid config at 'label': label {label!r} holds {what}" in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == [Path(path).name]

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CUSTOM_DOC).replace('"p_kw": 1.0', '"p_kw": 1' + "0" * 400))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "'scenario/feeder/devices/0/p_kw': integer is too large for a float" in err

    def test_unbounded_step_count_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        def run_scenario(*args):
            raise AssertionError("a 1e15-step scenario reached run_scenario")

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        doc = json.loads(json.dumps(CUSTOM_DOC))
        del doc["scenario"]["dt_h"]
        doc["scenario"]["horizon_h"] = 1e15
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert f"must be at most {MAX_STEPS} steps" in capsys.readouterr().err

    def test_oversized_greedy_search_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        def run_scenario(*args):
            raise AssertionError("an oversized greedy search reached run_scenario")

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        doc = {
            "label": "huge",
            "scenario": {
                "type": "stylized",
                "architecture": "A2",
                "battery_kw": 3e6,
                "controller": "greedy",
            },
        }
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "battery 'bat-a': p_max_kw 1e+06 makes the greedy search" in capsys.readouterr().err

    def test_seed_key_rejected_and_named(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["seed"] = 7
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_battery_shared_by_two_storage_devices_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        scenario = doc["scenario"]
        scenario["feeder"]["devices"] += [
            {"label": f"st-{i}", "node": "N1", "kind": "storage", "phase": "A", "battery_id": "b"}
            for i in range(2)
        ]
        scenario.update(
            batteries=[{"id": "b", "p_max_kw": 1.0}], architecture="A1", controller="greedy"
        )
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "battery 'b'" in capsys.readouterr().err

    def test_failed_run_writes_no_output_files(self, tmp_path, capsys):
        doc = {
            "label": "boom",
            "scenario": {
                "type": "sweep_cell",
                "total_phase_load_kw": 50.0,
                "device_node": "N5",
                "kind": "ev",
                "penetration_pct": 120,
                "network_class": "overload",
            },
        }
        out = tmp_path / "out"
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(out)]) == 3
        assert not out.exists() or not list(out.iterdir())
        assert "collapse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, solver",
        [
            (["--tol", "inf"], None),
            ([], {"tol_pu": math.inf}),
            ([], {"tol_pu": math.nan}),
            ([], {"max_iter": 1e308, "tol_pu": 5e-324}),
        ],
        ids=["tol-flag", "inf", "nan", "endless"],
    )
    def test_solver_setting_out_of_range_exits_2_and_names_solver(
        self, tmp_path, capsys, argv, solver
    ):
        """An infinite tolerance would stop after one pass with an answer
        that has not converged, and write Infinity (not JSON) into the
        config copy; a tolerance no pass reaches with unbounded passes
        would never end."""
        doc = preset_config("a2-n5")
        if solver is not None:
            doc["solver"] = solver
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out), *argv]) == 2
        assert "invalid config at 'solver'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--tol", "1e-6"], ["--max-iter", "5"]])
    @pytest.mark.parametrize(
        "doc, named",
        [([], "config"), ({"solver": 5}, "solver"), ({"solver": [1, 2]}, "solver")],
        ids=["list", "number-solver", "list-solver"],
    )
    def test_solver_flags_leave_a_config_that_is_no_object_to_validation(
        self, tmp_path, capsys, doc, named, flags
    ):
        """The flags merge into the config's solver only where both are
        objects; anything else exits 2 and is named, with the flags or
        without them."""
        if isinstance(doc, dict):
            doc = {**preset_config("a2-n5"), **doc}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out), *flags]) == 2
        assert f"invalid config at '{named}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("v_base_ln", math.inf, "v_base_ln must be in [1, 1e+06] V, got inf"),
            ("v_base_ln", math.nan, "v_base_ln must be in [1, 1e+06] V, got nan"),
            ("v_base_ln", 1e300, "v_base_ln must be in [1, 1e+06] V, got 1e+300"),
            ("v_base_ln", 5e-324, "v_base_ln must be in [1, 1e+06] V, got 5e-324"),
            ("s_base_kva", math.inf, "s_base_kva must be finite and > 0, got inf"),
            ("s_base_kva", math.nan, "s_base_kva must be finite and > 0, got nan"),
        ],
        ids=["v-inf", "v-nan", "v-1e300", "v-subnormal", "s-inf", "s-nan"],
    )
    def test_base_value_out_of_range_exits_2_and_names_it(
        self, tmp_path, capsys, field, value, named
    ):
        """Infinity ended in a residual of nan V after numpy warnings, and
        1e300 V in inf in every v_rms_v cell; a subnormal voltage overflows
        the device currents."""
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"][field] = value
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_schedule_window_exits_2_and_names_it(self, tmp_path, capsys):
        doc = json.loads((Path(__file__).parent / "golden" / "quoting.json").read_text())
        doc["scenario"]["schedule"]["ev_window"][1] = math.nan
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "schedule ev_window must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert main(["run", "--preset", "nope", "--out", str(tmp_path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_run_rejects_sweep_config(self, tmp_path):
        assert main(["run", "--preset", "grid-compact", "--out", str(tmp_path)]) == 2

    def test_tol_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--preset", "stylized-nostorage", "--out", str(out), "--max-iter", "1"]
        )
        assert code == 3  # one sweep pass cannot converge at default tolerance

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way", encoding="utf-8")
        assert main(["run", "--preset", "stylized-nostorage", "--out", str(blocker)]) == 4
        assert "error" in capsys.readouterr().err


class TestStartUp:
    def test_import_leaves_the_validator_oracle_and_ingest_unloaded(self):
        code = (
            "import sys, phasebal.cli; print(sorted(set(sys.modules) & "
            "{'jsonschema', 'attrs', 'referencing', 'rpds', 'phasebal.ingest', 'phasebal.g17'}))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_import_builds_no_formatter_table(self):
        """``setup_s`` pays for every module-level line: the timeseries
        formatter's 10**k and digit tables are built on first use, and
        neither ``fractions`` nor ``decimal`` is imported for them."""
        code = (
            "import sys, phasebal.cli, phasebal.g17 as g; "
            "print(sorted(set(sys.modules) & {'fractions', 'decimal'}), "
            "g._pow10.cache_info().currsize, g._tables.cache_info().currsize)"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[] 0 0"


class TestGoldenFiles:
    """Column layout and numeric formatting are a frozen public contract."""

    def test_outputs_match_frozen_golden_files(self, tmp_path):
        golden_dir = Path(__file__).parent / "golden"
        out = tmp_path / "out"
        # a one-load two-node feeder; and node names that csv quoting must
        # carry (a comma, a quote, the empty name, a leading space) over
        # steps that reuse one operating point with other storage columns
        for label in ("golden", "quoting"):
            assert main(["run", str(golden_dir / f"{label}.json"), "--out", str(out)]) == 0
        # the sweep table of the grid-compact preset, frozen from the per-cell sweep
        assert main(["sweep", "--preset", "grid-compact", "--out", str(out)]) == 0
        # storage columns, frozen from the per-step dispatch loop: A2 through
        # the zero-sum shift, and A1 choosing its phase
        for preset in ("a2-n5-noshift", "a1-n0"):
            assert main(["run", "--preset", preset, "--out", str(out)]) == 0
        # the greedy search, frozen from the object-level controllers: A1 and
        # A3 choosing phases, A2 restricted to zero-sum triples; and A2 with
        # load shift, frozen from the search over the full candidate tensor
        greedy = ("greedy-a1-n5", "greedy-a2-n5-noshift", "greedy-a3-n5", "greedy-a2-n5")
        # several days on the clock, frozen before dispatch reused its states:
        # A2 through the zero-sum shift with clipped windows, and greedy A3;
        # a week frozen before dispatch tiled repeating days, whose A3 units
        # start mid-range and meet their first repeated day start on day 3;
        # and greedy A2 with load shift, frozen from the full candidate tensor,
        # whose lossy units reach their SoC limits and so search off-grid bounds
        multiday = (
            "multiday-a2-noshift",
            "multiday-greedy-a3",
            "multiday-late-cycle",
            "multiday-greedy-a2",
        )
        for label in greedy + multiday:
            assert main(["run", str(golden_dir / f"{label}.json"), "--out", str(out)]) == 0
        # a branched 150-node tree: a bus with 24 children, a 30-level branch,
        # single-phase PV and EV, segments declared out of breadth-first order;
        # its config copy too, frozen from json.dump's pure-Python encoder
        assert main(["run", str(golden_dir / "tree-150.json"), "--out", str(out)]) == 0
        # a sweep whose collapsed cells fill the error column and the manifest
        # and are left out of the extracts
        assert main(["sweep", str(golden_dir / "sweep-overload.json"), "--out", str(out)]) == 0
        # sparse sweeps of both kinds: balanced devices, and devices on phase C
        sparse = ("sweep-sparse-balanced", "sweep-sparse-phase-c")
        # sweeps whose axes repeat entries (N5 and ev twice, 50 % twice), with
        # devices on phase B and balanced
        repeat = ("sweep-repeat-phase-b", "sweep-repeat-balanced")
        for label in sparse + repeat:
            assert main(["sweep", str(golden_dir / f"{label}.json"), "--out", str(out)]) == 0
        # measured series with every optional column, ISO stamps and an
        # all-zero row (empty power factors), and with the base columns only
        measured = ("measured-full", "measured-base")
        for stem in measured:
            assert main(["ingest", str(golden_dir / f"{stem}.csv"), "--out", str(out)]) == 0
        extracts = ("fig-losses", "fig-vuf", "fig-drop")
        for name, golden in (
            ("golden-summary.csv", "golden-summary.csv"),
            ("golden-timeseries.csv", "golden-timeseries.csv"),
            ("golden-quoting-timeseries.csv", "golden-quoting-timeseries.csv"),
            ("grid-compact-sweep.csv", "golden-sweep.csv"),
            *((f"grid-compact-{x}.csv", f"golden-{x}.csv") for x in extracts),
            *(
                (f"sweep-overload-{x}.csv", f"golden-sweep-overload-{x}.csv")
                for x in ("sweep", *extracts, "failures")
            ),
            *(
                (f"{label}-{x}.csv", f"golden-{label}-{x}.csv")
                for label in sparse
                for x in ("sweep", "failures")
            ),
            *(
                (f"{label}-{x}.csv", f"golden-{label}-{x}.csv")
                for label in repeat
                for x in ("sweep", *extracts, "failures")
            ),
            *(
                (f"{stem}-{report}.csv", f"golden-{stem}-{report}.csv")
                for stem in measured
                for report in ("imbalance", "hourly")
            ),
            ("tree-150-timeseries.csv", "golden-tree-150-timeseries.csv"),
            ("tree-150-summary.csv", "golden-tree-150-summary.csv"),
            ("tree-150-config.json", "golden-tree-150-config.json"),
            ("multiday-late-cycle-summary.csv", "golden-multiday-late-cycle-summary.csv"),
            ("a2-n5-noshift-timeseries.csv", "golden-a2-n5-noshift-timeseries.csv"),
            ("a1-n0-timeseries.csv", "golden-a1-n0-timeseries.csv"),
            *(
                (f"{label}-timeseries.csv", f"golden-{label}-timeseries.csv")
                for label in greedy + multiday
            ),
        ):
            assert (out / name).read_bytes() == (golden_dir / golden).read_bytes()


#: JSON documents as json.load returns them, and tuples: unicode and control
#: characters in strings and keys, -0.0, extremes and non-finite floats
_JSON_TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\n\t", "é€\u2028\U0001f600"])
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, 2**53 + 1])
    | _JSON_TEXT
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=40,
)


class TestOutputFiles:
    @settings(max_examples=200, deadline=None)
    @given(doc=_JSON_DOCS)
    def test_config_copy_is_json_dump_with_indent(self, doc):
        """The config copy is ``json.dump(doc, indent=2, sort_keys=True)``
        and a newline, byte for byte, whatever the document holds."""
        with tempfile.TemporaryDirectory() as out:
            _emit_config(doc, "doc", Path(out))
            written = (Path(out) / "doc-config.json").read_bytes()
        buffer = io.StringIO()
        json.dump(doc, buffer, indent=2, sort_keys=True)
        assert written == (buffer.getvalue() + "\n").encode("utf-8")

    def test_a_failing_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        """A row iterator that raises mid-file, and a config that cannot be
        encoded: the error propagates, the file written before stays as it
        was, and no ``.tmp`` file is left behind."""
        path = tmp_path / "t.csv"
        write_csv_atomic(path, ["x"], ["1\n"])

        def rows():
            yield "2\n"
            raise RuntimeError("row 3")

        with pytest.raises(RuntimeError, match="row 3"):
            write_csv_atomic(path, ["x"], rows())
        _emit_config({"label": "ok"}, "c", tmp_path)
        with pytest.raises(TypeError, match="not JSON serializable"):
            _emit_config({"label": "c", "bad": {1j}}, "c", tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c-config.json", "t.csv"]
        assert path.read_text() == "x\n1\n"
        assert json.loads((tmp_path / "c-config.json").read_text()) == {"label": "ok"}


class TestTimeseriesRows:
    """The lines written from the trajectory arrays equal the rows read
    through the per-step dict views and written cell by cell, byte for
    byte."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
        fleet=st.sampled_from([None, ArchKind.A1, ArchKind.A3]),
        data=st.data(),
    )
    def test_random_trees_with_profiles_and_fleets(self, seed, steps, fleet, data):
        rng = random.Random(seed)
        feeder = random_feeder(rng, max_nodes=12)
        values = [
            data.draw(st.lists(st.floats(0.0, 2.0), min_size=steps, max_size=steps))
            for _ in feeder.devices
        ]
        scenario = with_greedy_fleet(with_profiles(feeder, values, steps), fleet, rng)
        result = run_scenario(scenario)
        chunks = list(timeseries_rows(result))
        lines = reference_timeseries_lines(scenario, result)
        assert "".join(chunks) == "".join(lines)
        assert len(chunks) == steps  # one chunk per step
        assert len(lines) == steps * len(feeder.nodes)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from([None, *ArchKind]),
        allow_load_shift=st.booleans(),
        controller=st.sampled_from(["greedy", "fixed_schedule"]),
        storage_node=st.sampled_from(["N0", "N5"]),
        target_phase=st.sampled_from(PHASES),
        battery_kw=st.sampled_from([1.5, 3.0, 4.5]),
    )
    def test_stylized_fleets(
        self, kind, allow_load_shift, controller, storage_node, target_phase, battery_kw
    ):
        arch = None if kind is None else Architecture(kind, allow_load_shift=allow_load_shift)
        scenario = build_stylized_scenario(
            arch, storage_node, battery_kw, controller, target_phase=target_phase
        )
        result = run_scenario(scenario)
        assert "".join(timeseries_rows(result)) == "".join(
            reference_timeseries_lines(scenario, result)
        )

    def test_a3_units_sharing_a_phase_add_up(self):
        scenario = build_stylized_scenario(Architecture(ArchKind.A3), "N5", 3.0, "greedy")
        result = run_scenario(scenario)
        shared = [
            rec
            for rec in result.per_timestep
            if sum(1 for a in rec.actions if a.phase is Phase.A and a.p_kw != 0) >= 2
        ]
        assert shared, "no step where two A3 units dispatch on one phase"
        text = "".join(timeseries_rows(result))
        assert text == "".join(reference_timeseries_lines(scenario, result))
        rows = [line.split(",") for line in text.splitlines()]
        col = TIMESERIES_COLUMNS.index("storage_p_a_kw")
        for rec in shared:
            (row,) = [r for r in rows if float(r[0]) == rec.t_h and r[1] == "N5"]
            assert float(row[col]) == sum(a.p_kw for a in rec.actions if a.phase is Phase.A)

    def test_negative_zero_resistance_loses_plus_zero(self):
        """A conductor resistance of -0.0 gives -0.0 segment losses; the
        phase-loss column sums them from 0.0, as the builtin sum does."""
        seg = LineSegment("N0", "N1", 0.1, z_phase_per_km=complex(-0.0, 0.08))
        load = Device("l", "N1", DeviceKind.LOAD, Phase.A, 2.0 + 0j)
        scenario = Scenario(
            feeder=build_feeder("N0", ["N0", "N1"], [seg], [load]), horizon_h=1.0
        )
        result = run_scenario(scenario)
        assert result.trajectory.phase_loss[0, 0, 0] == 0.0  # the per-conductor loss
        assert math.copysign(1.0, result.trajectory.phase_loss[0, 0, 0]) == -1.0  # is -0.0
        text = "".join(timeseries_rows(result))
        assert text == "".join(reference_timeseries_lines(scenario, result))
        line = text.splitlines()[1]
        assert line.split(",")[TIMESERIES_COLUMNS.index("seg_phase_loss_kw")] == "0"

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1500, 2000))
    def test_trees_past_one_formatting_block_with_an_a2_fleet(self, seed, n):
        """Every distinct row spans several ``g17.BLOCK``s (11 values
        per node). Three A2 units on a clock schedule sit at two nodes, so
        storage columns are written, and two units share a node."""
        rng = random.Random(seed)
        feeder = random_tree(rng, n)
        steps = 6
        devices = [replace(d, profile_id="p") for d in feeder.devices]
        nodes = rng.sample(feeder.nodes[1:], 2)
        units = [(f"b{i}", nodes[min(i, 1)], ph) for i, ph in enumerate(PHASES)]
        devices += [
            Device(f"s{b}", node, DeviceKind.STORAGE, ph, battery_id=b) for b, node, ph in units
        ]
        scenario = Scenario(
            feeder=replace(feeder, devices=tuple(devices)),
            profiles={"p": tuple(rng.uniform(0.5, 1.5) for _ in range(steps))},
            horizon_h=float(steps),
            architecture=Architecture(ArchKind.A2),
            controller="fixed_schedule",
            schedule=StylizedScheduleCfg(dg_window=(1.0, 3.0), ev_window=(3.0, 5.0)),
            batteries=tuple(Battery(b, 2.0, soc_kwh=rng.uniform(1.0, 5.0)) for b, _, _ in units),
        )
        result = run_scenario(scenario)
        assert np.count_nonzero(result.trajectory.p_kw) > 0
        assert "".join(timeseries_rows(result)) == "".join(
            reference_timeseries_lines(scenario, result)
        )

    def test_node_names_are_quoted_as_csv_writer_quotes_a_field(self):
        """Minimal quoting, field by field: a comma, a quote or a newline
        makes the name quoted, the empty name is an empty field (not the
        ``""`` of a one-field row), and a leading space stays bare."""
        names = ["a,b", 'q"x', "", " lead", "x\ny"]
        segments = [LineSegment(names[0], name, 0.1) for name in names[1:]]
        loads = [
            Device(f"l{i}", name, DeviceKind.LOAD, PHASES[i % 3], 1.0 + 0j, profile_id="p")
            for i, name in enumerate(names[1:])
        ]
        scenario = Scenario(
            feeder=build_feeder(names[0], names, segments, loads),
            profiles={"p": (1.0, 0.5, 1.0)},
            horizon_h=3.0,
        )
        result = run_scenario(scenario)
        text = "".join(timeseries_rows(result))
        lines = reference_timeseries_lines(scenario, result)
        assert text == "".join(lines)
        fields = ['"a,b"', '"q""x"', "", " lead", '"x\ny"']
        for line, field in zip(lines[5:10], fields, strict=True):
            assert line.startswith(f"1,{field},2")  # t_h, name, v_ln_a_v of 2xx V
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [row[1] for row in rows] == names * 3


class TestG17Lines:
    """``g17.lines`` writes each value as ``'%.17g' %`` (``cli._fmt``)
    does, byte for byte, raising no numpy warning (pytest turns a
    RuntimeWarning into an error)."""

    @staticmethod
    def assert_formats(values, cols=1):
        values = np.asarray(values, dtype=float).reshape(-1, cols)
        want = "".join("".join("," + cli._fmt(v) for v in row) + "\n" for row in values.tolist())
        assert g17.lines(values) == want

    # powers of ten and their neighbours, where log10 rounds to the wrong
    # exponent; the fixed/scientific switches; ties of 18 significant
    # digits (1 + 2**-17 rounds down to even, 1 + 3 * 2**-17 up); the
    # extreme doubles; 1e-248, a little under its power of ten
    @example(
        [
            v
            for k in range(-300, 301)
            for p in [float(f"1e{k}")]
            for v in (p, math.nextafter(p, 0), math.nextafter(p, math.inf))
        ]
    )
    @example([1e-5, 1e-4, 9.9999999999999991e-05, 1e16, 1e17, 99999999999999999.0, -1e17])
    @example([1 + 2**-17, 1 + 3 * 2**-17, 10 + 2**-16, 0.5 + 2**-18, -(2**-20 + 2**-37)])
    @example([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -5e-324, 1e-248])
    @example([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-250, 1e250, 1.5e-250, 9.9e249])
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60))
    def test_matches_percent_17g(self, values):
        self.assert_formats(values)
        self.assert_formats(values, cols=len(values))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(19).integers(0, 2**64, size=60_000, dtype=np.uint64)
        self.assert_formats(bits.view(float), cols=6)

    def test_exact_ties_round_half_to_even(self):
        """Odd multiples of 2**(a - 17) in [10**a, 10**(a + 1)) have 18
        significant digits, the last a 5: %.17g rounds each to even."""
        rng = np.random.default_rng(20)
        ties = []
        for a in range(-6, 16):
            step = 2.0 ** (a - 17)
            m = rng.integers(int(10.0**a / step), int(min(10.0 ** (a + 1) / step, 2**53)), 2000)
            ties.append((m | 1) * step)
        self.assert_formats(np.concatenate(ties), cols=4)

    def test_near_ties_of_an_inexact_product(self):
        """x * 10**26 within 1e-15 of a half-integer (found by solving
        m * 5**26 = 2**(j-1) + d mod 2**j for small d): the double-double
        product cannot tell the side, so ``%`` writes these."""
        self.assert_formats(
            [4.8677287764934085e-09, 4.910296614260184e-09, 4.95286445202696e-09]
            + [4.974148370910348e-09, 5.016716208677124e-09, 5.0592840464439e-09]
            + [9.895086944612226e-10, 4.974148370910348e-10, 7.594247049386696e-10]
        )

    def test_blocks_split_on_whole_rows(self):
        values = np.random.default_rng(21).lognormal(0, 30, (g17.BLOCK // 7 + 3, 11))
        self.assert_formats(values, cols=11)


class TestSweepCommand:
    def test_full_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--preset", "grid-compact", "--out", str(out)]) == 0
        table = (out / "grid-compact-sweep.csv").read_text().splitlines()
        assert table[0] == ",".join(SWEEP_COLUMNS)
        assert len(table) == 1 + 48
        assert (out / "grid-compact-fig-losses.csv").exists()
        assert (out / "grid-compact-fig-vuf.csv").exists()
        assert (out / "grid-compact-fig-drop.csv").exists()
        failures = (out / "grid-compact-failures.csv").read_text().splitlines()
        assert len(failures) == 1  # header only

    def test_failed_cells_flagged_in_manifest(self, tmp_path, capsys):
        doc = {
            "label": "ov",
            "sweep": {
                "total_phase_load_kw": 50.0,
                "network_class": "overload",
                "penetrations_pct": [0, 120],
                "nodes": ["N5"],
                "kinds": ["ev"],
            },
        }
        out = tmp_path / "out"
        path = write_config(tmp_path, doc)
        assert main(["sweep", path, "--out", str(out)]) == 0
        table = (out / "ov-sweep.csv").read_text().splitlines()
        assert len(table) == 3
        assert "collapse" in table[2]
        manifest = (out / "ov-failures.csv").read_text().splitlines()
        assert len(manifest) == 2
        assert "failed" in capsys.readouterr().err


    @settings(max_examples=25, deadline=None)
    @given(
        network_class=st.sampled_from(sorted(NETWORK_CLASS_SEGMENT_KM)),
        load_kw=st.sampled_from([5.0, 50.0, 60.0]) | st.floats(0.5, 60.0),
        device_phase=st.sampled_from(PHASES),
        balanced=st.booleans(),
        penetrations=st.lists(
            st.sampled_from([0.0, -0.0, 120.0, 200.0]) | st.floats(0.0, 200.0),
            min_size=1,
            max_size=4,
        ),
        nodes=st.lists(st.sampled_from(["N1", "N2", "N3", "N4", "N5"]), min_size=1, unique=True),
        kinds=st.lists(st.sampled_from(["dg", "ev"]), min_size=1, unique=True),
    )
    @example(  # cells that collapse, single-phase and balanced
        network_class="overload",
        load_kw=50.0,
        device_phase=Phase.C,
        balanced=False,
        penetrations=[0.0, 120.0, 33.3],
        nodes=["N5", "N1"],
        kinds=["ev", "dg"],
    )
    @example(
        network_class="overload",
        load_kw=60.0,
        device_phase=Phase.A,
        balanced=True,
        penetrations=[200.0, -0.0],
        nodes=["N3"],
        kinds=["ev"],
    )
    def test_tables_equal_the_row_by_row_writer(
        self, network_class, load_kw, device_phase, balanced, penetrations, nodes, kinds
    ):
        """The five files, written from the table's columns with one g17
        call each, equal byte for byte what ``csv.writer`` and ``%.17g``
        write row by row from the per-cell reference sweep; overloaded cells
        collapse, so the failures manifest and empty fields show too."""
        sweep = {
            "total_phase_load_kw": load_kw,
            "network_class": network_class,
            "penetrations_pct": penetrations,
            "nodes": nodes,
            "kinds": kinds,
            "device_phase": device_phase.value,
            "balanced": balanced,
        }
        template = SweepTemplate(load_kw, network_class, device_phase, balanced)
        rows = reference_sweep(template, penetrations, nodes, [DeviceKind(k) for k in kinds])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "grid.json")
            path.write_text(json.dumps({"label": "grid", "sweep": sweep}))
            with mock.patch("sys.stdout", io.StringIO()), mock.patch("sys.stderr", io.StringIO()):
                assert main(["sweep", str(path), "--out", tmp]) == 0
            for name, text in reference_sweep_tables(rows).items():
                assert Path(tmp, f"grid-{name}.csv").read_bytes() == text.encode()

    def test_writes_its_tables_without_row_or_result_objects(self, tmp_path):
        """``sweep`` writes its five files from the table's columns: it
        makes no ScenarioResult and no SweepRow, which reading the rows of
        a table does make, one of each per cell that ran."""
        doc = {**preset_config("grid-compact"), "label": "ov"}
        doc["sweep"].update(total_phase_load_kw=50.0, network_class="overload")
        path = write_config(tmp_path, doc)
        made = {}
        with mock.patch.object(
            ScenarioResult, "__init__", autospec=True, side_effect=ScenarioResult.__init__
        ) as made["result"], mock.patch.object(
            SweepRow, "__init__", autospec=True, side_effect=SweepRow.__init__
        ) as made["row"]:
            assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 0
            assert (made["result"].call_count, made["row"].call_count) == (0, 0)
            sweep = parse_config(doc).sweep_grid
            table = sweep_and_tabulate(parse_config(doc).sweep_template, *sweep)
            assert (made["result"].call_count, made["row"].call_count) == (0, 0)
            rows = list(table)
            ran = sum(row.result is not None for row in rows)
            assert 0 < ran < len(rows) == made["row"].call_count
            assert made["result"].call_count == ran
        failures = (tmp_path / "out" / "ov-failures.csv").read_text().splitlines()
        assert len(failures) == 1 + len(rows) - ran

    def test_output_switches_exit_2_and_are_named(self, tmp_path, capsys):
        """A sweep always writes its five tables; ``output`` was ignored."""
        doc = preset_config("grid-compact")
        doc["output"] = {"summary": False}
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "invalid config at 'output'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_scenario_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--preset", "a1-n5", "--out", str(out)]) == 2
        assert "invalid config at 'sweep'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("nodes", ["N1", "N7"], "unknown node 'N7'"),
            ("penetrations_pct", [0, math.nan], "penetration_pct must be in [0, 200], got nan"),
            ("total_phase_load_kw", 1e308, "s_rated_kva * 1000 must be finite"),
        ],
        ids=["node", "nan-penetration", "va-overflow"],
    )
    def test_cell_that_cannot_be_built_exits_2_and_names_sweep(
        self, tmp_path, capsys, field, value, named
    ):
        """Every cell is built before any runs; an unknown node exited 3,
        the others 2 without naming the field."""
        doc = preset_config("grid-compact")
        doc["sweep"][field] = value
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid config at 'sweep'" in err and named in err
        assert not out.exists()


class TestIngestCommand:
    def test_ingest_writes_reports(self, tmp_path):
        src = tmp_path / "meas.csv"
        src.write_text(
            "timestamp,p_a_kw,p_b_kw,p_c_kw\n0,20,10,10\n1,10,10,10\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        rows = (out / "meas-imbalance.csv").read_text().splitlines()
        assert rows[0] == "timestamp,spread_kw,neutral_proxy_a,pf_a,pf_b,pf_c"
        assert rows[1].startswith("0,10,")
        hourly = (out / "meas-hourly.csv").read_text().splitlines()
        assert hourly[0] == "hour,mean_spread_kw,max_spread_kw"

    def test_bad_schema_exits_2(self, tmp_path, capsys):
        src = tmp_path / "meas.csv"
        src.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 2
        assert "columns" in capsys.readouterr().err

    def test_non_monotonic_exits_2(self, tmp_path):
        src = tmp_path / "meas.csv"
        src.write_text(
            "timestamp,p_a_kw,p_b_kw,p_c_kw\n5,1,1,1\n4,1,1,1\n", encoding="utf-8"
        )
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "rows, named",
        [
            (["0,nan,1,1"], "row 1: p_a_kw 'nan' is not finite"),
            (["0,1,1,1", "1,inf,1,1"], "row 2: p_a_kw 'inf' is not finite"),
            (["0,1,1,-inf"], "row 1: p_c_kw '-inf' is not finite"),
            (["nan,1,1,1"], "row 1: timestamp 'nan' is not finite"),
            (["0,1,1,1", "inf,1,1,1"], "row 2: timestamp 'inf' is not finite"),
            (["0,1,1,1", "2,1e308,-1e308,0"], "row 2: spread_kw overflows"),
            (["0,1e306,0,0"], "row 1: neutral_proxy_a overflows"),
            # every row finite, but 700 spreads of 3e305 kW sum past the largest float
            (
                [f"{k / 1000},1.5e305,0,-1.5e305" for k in range(700)],
                "hour 0: mean_spread_kw overflows",
            ),
        ],
    )
    def test_non_finite_data_exits_2_naming_it(self, tmp_path, capsys, rows, named):
        src = tmp_path / "meas.csv"
        lines = ["timestamp,p_a_kw,p_b_kw,p_c_kw", *rows]
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_reactive_power_exits_2_naming_it(self, tmp_path, capsys):
        src = tmp_path / "meas.csv"
        src.write_text(
            "timestamp,p_a_kw,p_b_kw,p_c_kw,q_a_kvar,q_b_kvar,q_c_kvar,i_n_a\n0,1,1,1,0,nan,0,1\n",
            encoding="utf-8",
        )
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 2
        assert "row 1: q_b_kvar 'nan' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, named",
        [
            ("0,1_000,1,1", "row 1: p_a_kw '1_000' is not a plain decimal"),
            ("0, 4 ,1,1", "row 1: p_a_kw ' 4 ' is not a plain decimal"),
            ("0,\u0661\u0662,1,1", "row 1: p_a_kw '\u0661\u0662' is not a plain decimal"),
            (" 4 ,1,1,1", "row 1: timestamp ' 4 ' is not a plain decimal"),
            ("1_0,1,1,1", "row 1: timestamp '1_0' is not a plain decimal"),
        ],
    )
    def test_numbers_float_reads_but_are_not_plain_exit_2(self, tmp_path, capsys, row, named):
        """``float()`` reads underscores, padding and digits of other
        scripts; a measured series holds plain ASCII decimals only."""
        src = tmp_path / "meas.csv"
        src.write_text(f"timestamp,p_a_kw,p_b_kw,p_c_kw\n{row}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, named",
        [
            (b"0,1,1,1\n1,1,\xff,1\n", "row 2: p_b_kw '\\udcff' is not UTF-8"),
            (b"0,1,1,1\xe2\x82", "row 1: p_c_kw '1\\udce2\\udc82' is not UTF-8"),
            (b"0,1,1,1\n\xff1,1,1,1\n", "row 2: timestamp '\\udcff1' is not UTF-8"),
            # fromisoformat reads any one character between the date and the time
            (
                b"2020-01-01\xff00:00:00,1,1,1\n",
                "row 1: timestamp '2020-01-01\\udcff00:00:00' is not UTF-8",
            ),
            (b"0,1,1\n\xff\n", "row 1: expected 4 cells, got 3"),
        ],
    )
    def test_a_byte_that_is_not_utf8_exits_2_naming_its_row(self, tmp_path, capsys, data, named):
        """The byte shows as ``surrogateescape`` reads it, 0xff as \\udcff."""
        src = tmp_path / "meas.csv"
        src.write_bytes(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n" + data)
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, named",
        [
            (
                ["2020-01-01x00:00:00,1,1,1"],
                "row 1: timestamp '2020-01-01x00:00:00' does not separate date and time",
            ),
            # a NEL, which str.splitlines breaks a line at
            (
                ["2020-01-01T00:00:00,1,1,1", "2020-01-01\u008501:00:00,1,1,1"],
                "row 2: timestamp '2020-01-01\\x8501:00:00' does not separate date and time",
            ),
            (["20200101512:00,1,1,1"], "row 1: timestamp '20200101512:00' does not separate"),
            (
                ["5,1,1,1", "2024-03-01T00:00:00,1,1,1"],
                "row 2: timestamp '2024-03-01T00:00:00' is ISO 8601, but row 1's is plain hours",
            ),
            (
                ["2024-03-01T00:00:00,1,1,1", "2024-03-01 01:00,1,1,1", "5,1,1,1"],
                "row 3: timestamp '5' is plain hours, but row 1's is ISO 8601",
            ),
        ],
    )
    def test_stamps_apart_by_another_character_or_of_two_kinds_exit_2(
        self, tmp_path, capsys, rows, named
    ):
        """``datetime.fromisoformat`` reads any one character between date
        and time, and plain hours do not order against ISO 8601 stamps."""
        src = tmp_path / "meas.csv"
        lines = ["timestamp,p_a_kw,p_b_kw,p_c_kw", *rows]
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_iso_stamps_apart_by_t_or_a_space_run(self, tmp_path):
        src = tmp_path / "meas.csv"
        src.write_text(
            "timestamp,p_a_kw,p_b_kw,p_c_kw\n2024-03-01,1,1,1\n2024-03-01T01:00,2,1,1\n"
            "2024-03-01 02:00:00+00:00,3,1,1\n20240301T0300,4,1,1\n",
            encoding="utf-8",
        )
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "meas-hourly.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2", "3"]

    def test_a_byte_that_is_not_utf8_in_the_header_exits_2_naming_it(self, tmp_path, capsys):
        src = tmp_path / "meas.csv"
        src.write_bytes(b"timestamp,p_a_kw\xff,p_b_kw,p_c_kw\n0,1,1,1\n")
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 2
        assert "unexpected columns ['timestamp', 'p_a_kw\\udcff'," in capsys.readouterr().err


class TestPresetInventory:
    def test_ten_run_presets_plus_sweep(self):
        assert len(RUN_PRESET_NAMES) == 10
        assert SWEEP_PRESET_NAMES == ("grid-compact",)
        expected = {
            "baseline-n1",
            "baseline-n5",
            "overload-n5",
            "sparse-n5",
            "stylized-nostorage",
            "a1-n0",
            "a1-n5",
            "a2-n0",
            "a2-n5",
            "a2-n5-noshift",
        }
        assert set(RUN_PRESET_NAMES) == expected
