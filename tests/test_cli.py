"""CLI: config validation, presets, CSV contracts, exit codes."""

from __future__ import annotations

import json
from dataclasses import replace

import jsonschema
import pytest

from phasebal.cli import (
    _SCENARIO_SCHEMAS,
    _SWEEP_SCHEMA,
    CONFIG_SCHEMA,
    SUMMARY_COLUMNS,
    SWEEP_COLUMNS,
    TIMESERIES_COLUMNS,
    main,
    parse_config,
)
from phasebal.errors import ConfigInvalid
from phasebal.network import DeviceKind
from phasebal.presets import RUN_PRESET_NAMES, SWEEP_PRESET_NAMES, preset_config, preset_names
from phasebal.scenarios import build_stylized_scenario, build_sweep_scenario
from phasebal.storage import Architecture, ArchKind


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


class TestParseConfig:
    def test_every_schema_is_valid_under_its_metaschema(self):
        for schema in (CONFIG_SCHEMA, _SWEEP_SCHEMA, *_SCENARIO_SCHEMAS.values()):
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_rejection_names_the_error_jsonschema_validate_picks(self):
        bad_scenario = preset_config("a1-n5")
        bad_scenario["scenario"]["battery_kw"] = -1
        bad_sweep = preset_config("grid-compact")
        bad_sweep["sweep"]["penetrations_pct"] = [0, "x", 500]
        cases = [
            ({"label": 3, "scenario": {}}, {"label": 3, "scenario": {}}, CONFIG_SCHEMA),
            (bad_scenario, bad_scenario["scenario"], _SCENARIO_SCHEMAS["stylized"]),
            (bad_sweep, bad_sweep["sweep"], _SWEEP_SCHEMA),
        ]
        for doc, body, schema in cases:
            with pytest.raises(jsonschema.ValidationError) as want:
                jsonschema.validate(body, schema)
            with pytest.raises(ConfigInvalid) as got:
                parse_config(doc)
            assert str(got.value).endswith(want.value.message)

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

    def test_negative_length_exits_2_and_names_segment(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CUSTOM_DOC))
        doc["scenario"]["feeder"]["segments"][0]["length_km"] = -0.5
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "N0" in err and "N1" in err

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


class TestGoldenFiles:
    """Column layout and numeric formatting are a frozen public contract."""

    GOLDEN_DOC = {
        "label": "golden",
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

    def test_outputs_match_frozen_golden_files(self, tmp_path):
        from pathlib import Path

        golden_dir = Path(__file__).parent / "golden"
        path = write_config(tmp_path, self.GOLDEN_DOC)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        for name in ("golden-summary.csv", "golden-timeseries.csv"):
            assert (out / name).read_bytes() == (golden_dir / name).read_bytes()


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
