"""Feeder model construction and validation."""

from __future__ import annotations

import math

import pytest

from conftest import labelled, snapshot_solve, with_device
from phasebal.errors import (
    CyclicTopology,
    DisconnectedNode,
    NonPositiveLength,
    SignConventionViolation,
    UnknownNode,
)
from phasebal.network import (
    MAX_SEGMENT_KM,
    MAX_V_BASE_LN,
    MIN_V_BASE_LN,
    Device,
    DeviceKind,
    LineSegment,
    Phase,
    build_feeder,
    chain_feeder,
)


def seg(a: str, b: str, km: float = 0.1) -> LineSegment:
    return LineSegment(from_node=a, to_node=b, length_km=km)


def balanced_load(label: str, node: str, kw: float) -> Device:
    return Device(
        label=label, node=node, kind=DeviceKind.LOAD, phase=None, s_rated_kva=complex(kw, 0)
    )


class TestBuildFeeder:
    def test_six_node_chain_with_balanced_loads(self):
        devices = [balanced_load(f"l{i}", f"N{i}", 1.0) for i in range(1, 6)]
        spec = dict(
            source_node="N0",
            nodes=[f"N{i}" for i in range(6)],
            segments=[seg(f"N{i}", f"N{i+1}") for i in range(5)],
            devices=devices,
        )
        feeder = build_feeder(**spec)
        assert feeder.nodes == ("N0", "N1", "N2", "N3", "N4", "N5")
        assert len(feeder.segments) == 5
        assert len(feeder.devices) == 5

    def test_trivial_single_node_feeder(self):
        feeder = build_feeder(source_node="N0", nodes=["N0"])
        assert feeder.nodes == ("N0",)
        assert feeder.segments == ()

    def test_extra_segment_raises_cyclic(self):
        spec = dict(
            source_node="N0",
            nodes=[f"N{i}" for i in range(6)],
            segments=[seg(f"N{i}", f"N{i+1}") for i in range(5)] + [seg("N2", "N4")],
        )
        with pytest.raises(CyclicTopology) as exc:
            build_feeder(**spec)
        assert exc.value.from_node == "N2"
        assert exc.value.to_node == "N4"

    def test_disconnected_node(self):
        spec = dict(
            source_node="N0",
            nodes=["N0", "N1", "N2", "N3"],
            segments=[seg("N0", "N1"), seg("N2", "N3")],
        )
        with pytest.raises(DisconnectedNode) as exc:
            build_feeder(**spec)
        assert exc.value.node in ("N2", "N3")

    def test_unknown_segment_endpoint(self):
        spec = dict(
            source_node="N0", nodes=["N0", "N1"], segments=[seg("N0", "N9")]
        )
        with pytest.raises(UnknownNode) as exc:
            build_feeder(**spec)
        assert exc.value.node == "N9"

    def test_non_positive_length_names_segment(self):
        with pytest.raises(NonPositiveLength) as exc:
            seg("N0", "N1", km=0.0)
        assert exc.value.from_node == "N0"

    @pytest.mark.parametrize("km", [math.inf, 1e308, MAX_SEGMENT_KM * 1.5])
    def test_length_must_be_finite_and_bounded(self, km):
        with pytest.raises(ValueError, match=r"segment N0->N1 length_km must be finite"):
            seg("N0", "N1", km=km)
        seg("N0", "N1", km=MAX_SEGMENT_KM)

    @pytest.mark.parametrize(
        "v_base_ln", [math.inf, math.nan, 1e300, MAX_V_BASE_LN * 1.5, 5e-324, 0.5, 0.0]
    )
    def test_base_voltage_must_be_in_range(self, v_base_ln):
        """Beyond the range the RMS voltage's squares or the device currents
        overflow in the solver."""
        with pytest.raises(ValueError, match=r"v_base_ln must be in \[1, 1e\+06\] V"):
            build_feeder("N0", ["N0", "N1"], [seg("N0", "N1")], v_base_ln=v_base_ln)
        for v in (MIN_V_BASE_LN, MAX_V_BASE_LN):
            assert build_feeder("N0", ["N0"], v_base_ln=v).v_base_ln == v

    @pytest.mark.parametrize("s_base_kva", [math.inf, math.nan, 0.0])
    def test_base_power_must_be_finite_and_positive(self, s_base_kva):
        with pytest.raises(ValueError, match="s_base_kva must be finite and > 0"):
            build_feeder("N0", ["N0"], s_base_kva=s_base_kva)

    def test_impedance_times_length_must_be_finite(self):
        with pytest.raises(ValueError, match=r"segment N0->N1 z_mutual_per_km \* length_km"):
            LineSegment("N0", "N1", 10.0, z_mutual_per_km=complex(0.0, 1e308))

    def test_bfs_order_on_branched_tree(self):
        # N0 feeds N1 and N2; N1 feeds N3 -> breadth-first order.
        spec = dict(
            source_node="N0",
            nodes=["N3", "N1", "N0", "N2"],
            segments=[seg("N1", "N3"), seg("N0", "N1"), seg("N0", "N2")],
        )
        feeder = build_feeder(**spec)
        assert feeder.nodes == ("N0", "N1", "N2", "N3")
        # re-oriented parent -> child even if declared child -> parent
        reversed_spec = dict(
            source_node="N0",
            nodes=["N0", "N1"],
            segments=[seg("N1", "N0")],
        )
        f2 = build_feeder(**reversed_spec)
        assert f2.segments[0].from_node == "N0"
        assert f2.segments[0].to_node == "N1"

    def test_deterministic_normalization(self):
        spec = dict(
            source_node="N0",
            nodes=["N2", "N0", "N1"],
            segments=[seg("N0", "N1"), seg("N1", "N2")],
        )
        assert build_feeder(**spec) == build_feeder(**spec)
        assert build_feeder(**spec).nodes == ("N0", "N1", "N2")

    def test_unique_path_from_source_to_every_node(self):
        feeder = chain_feeder(6, 0.1)
        # each non-source node has exactly one feeding segment
        for node in feeder.nodes[1:]:
            feeding = [s for s in feeder.segments if s.to_node == node]
            assert len(feeding) == 1
        assert not any(s.to_node == feeder.source_node for s in feeder.segments)

    def test_path_count_property_on_random_trees(self):
        # enumerate all simple paths source -> node; a valid feeder has
        # exactly one for every node
        import random

        from conftest import random_feeder

        def count_paths(feeder, target):
            adjacency = {}
            for s in feeder.segments:
                adjacency.setdefault(s.from_node, []).append(s.to_node)
                adjacency.setdefault(s.to_node, []).append(s.from_node)
            total = 0
            stack = [(feeder.source_node, {feeder.source_node})]
            while stack:
                here, seen = stack.pop()
                if here == target:
                    total += 1
                    continue
                for nxt in adjacency.get(here, []):
                    if nxt not in seen:
                        stack.append((nxt, seen | {nxt}))
            return total

        rng = random.Random(123)
        for _ in range(25):
            feeder = random_feeder(rng)
            for node in feeder.nodes:
                if node != feeder.source_node:
                    assert count_paths(feeder, node) == 1


class TestDeviceValidation:
    def test_dg_with_positive_p_rejected(self):
        with pytest.raises(SignConventionViolation):
            Device(label="g", node="N1", kind=DeviceKind.DG, phase=Phase.A, s_rated_kva=6.0 + 0j)

    def test_load_with_negative_p_rejected(self):
        with pytest.raises(SignConventionViolation):
            Device(label="l", node="N1", kind=DeviceKind.LOAD, s_rated_kva=-1.0 + 0j)

    def test_storage_with_rating_rejected(self):
        with pytest.raises(SignConventionViolation):
            Device(
                label="s",
                node="N1",
                kind=DeviceKind.STORAGE,
                phase=Phase.A,
                s_rated_kva=1.0 + 0j,
                battery_id="b",
            )

    def test_storage_requires_battery_id(self):
        with pytest.raises(ValueError):
            Device(label="s", node="N1", kind=DeviceKind.STORAGE, phase=Phase.A)

    def test_duplicate_labels_rejected(self):
        spec = dict(
            source_node="N0",
            nodes=["N0", "N1"],
            segments=[seg("N0", "N1")],
            devices=[balanced_load("dup", "N1", 1.0), balanced_load("dup", "N1", 2.0)],
        )
        with pytest.raises(ValueError, match="duplicate"):
            build_feeder(**spec)


class TestAttachDevice:
    def setup_method(self):
        loads = [balanced_load(f"l{i}", f"N{i}", 1.0) for i in range(1, 6)]
        self.feeder = chain_feeder(6, 0.1, devices=loads)

    def test_attach_dg_returns_new_feeder(self):
        dg = Device(
            label="pv", node="N1", kind=DeviceKind.DG, phase=Phase.A, s_rated_kva=-6.0 + 0j
        )
        updated = with_device(self.feeder, dg)
        assert updated.devices == self.feeder.devices + (dg,)
        assert updated.nodes == self.feeder.nodes
        assert updated.segments == self.feeder.segments

    def test_attach_zero_three_phase_load_leaves_solution_unchanged(self):
        zero = balanced_load("zero", "N2", 0.0)
        updated = with_device(self.feeder, zero)
        assert labelled(updated, "zero").s_rated_kva == 0
        assert snapshot_solve(updated).v == snapshot_solve(self.feeder).v

    def test_attach_at_unknown_node(self):
        ev = Device(label="ev", node="N9", kind=DeviceKind.EV, phase=Phase.A, s_rated_kva=7.0 + 0j)
        with pytest.raises(UnknownNode) as exc:
            with_device(self.feeder, ev)
        assert exc.value.node == "N9"

    def test_attach_duplicate_label(self):
        ev = Device(label="l3", node="N2", kind=DeviceKind.EV, phase=Phase.A, s_rated_kva=7.0 + 0j)
        with pytest.raises(ValueError, match="duplicate device label 'l3'"):
            with_device(self.feeder, ev)


class TestPhaseOrdering:
    def test_total_order(self):
        assert Phase.A < Phase.B < Phase.C
        assert sorted([Phase.C, Phase.A, Phase.B]) == [Phase.A, Phase.B, Phase.C]
        assert Phase.A < "B" and not Phase.C < "A"  # ordered as the str values
        with pytest.raises(TypeError):
            Phase.A < 1
