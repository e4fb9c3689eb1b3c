"""Immutable data model of a radial three-phase four-wire feeder.

A feeder is a tree of nodes rooted at the source bus, connected by
four-conductor line segments (phases A, B, C plus an explicit neutral).
Single-phase or balanced three-phase devices (loads, distributed generation,
EV chargers, storage converters) hang off the nodes.

Conventions:
- Loads and EVs consume with P > 0; DG injects with P < 0.
- Powers are kVA (complex), impedances Ohm/km, lengths km, voltages V.
- The neutral is solidly grounded at the source node only.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from .errors import (
    CyclicTopology,
    DisconnectedNode,
    NonPositiveLength,
    SignConventionViolation,
    UnknownNode,
)


class Phase(str, Enum):
    """Phase label; as a ``str`` it orders A < B < C for deterministic iteration."""

    A = "A"
    B = "B"
    C = "C"


PHASES: tuple[Phase, Phase, Phase] = (Phase.A, Phase.B, Phase.C)


def as_member(enum: type[Enum], value, what: str):
    """``value`` as a member of ``enum``: one given by value (``"B"``)
    becomes its member, so identity checks see it; an unknown value raises
    a ``ValueError`` that names ``what``."""
    try:
        return enum(value)
    except ValueError:
        raise ValueError(f"unknown {what} {value!r}") from None


#: Conductor keys in solver order: three phases then the neutral.
CONDUCTORS: tuple[str, str, str, str] = ("A", "B", "C", "N")

#: Typical LV cable series impedance, Ohm/km.
DEFAULT_Z_PHASE_PER_KM = 0.32 + 0.08j
DEFAULT_Z_NEUTRAL_PER_KM = 0.32 + 0.08j

#: Longest segment accepted, km: far beyond any distribution line. Unbounded,
#: 1e308 km of the default cable has a finite impedance (3.2e307 Ohm) that
#: still overflows the solver's voltages.
MAX_SEGMENT_KM = 1e4

DEFAULT_V_BASE_LN = 230.0
DEFAULT_S_BASE_KVA = 100.0

#: Accepted base line-to-neutral voltages, V: from below any supply voltage
#: to above any grid's (1,100 kV line-to-line is 635 kV line-to-neutral).
#: Far outside them the solver overflows: the squares of the RMS voltage
#: above 1.3e154 V, the device currents S / V of kW loads near 1e-305 V.
MIN_V_BASE_LN = 1.0
MAX_V_BASE_LN = 1e6


class DeviceKind(str, Enum):
    LOAD = "load"
    DG = "dg"
    EV = "ev"
    STORAGE = "storage"


def _require_finite(value: complex, what: str) -> None:
    if not (cmath.isfinite(value)):
        raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class LineSegment:
    """Four-conductor series element between two nodes.

    ``z_mutual_per_km`` couples every conductor pair (phase-phase and
    phase-neutral alike); it defaults to zero, which makes the per-conductor
    loss attribution |I|^2 R exact.
    """

    from_node: str
    to_node: str
    length_km: float
    z_phase_per_km: complex = DEFAULT_Z_PHASE_PER_KM
    z_neutral_per_km: complex = DEFAULT_Z_NEUTRAL_PER_KM
    z_mutual_per_km: complex = 0j

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise ValueError(f"segment endpoints must differ, got {self.from_node!r} twice")
        where = f"segment {self.from_node}->{self.to_node}"
        if not self.length_km > 0:
            raise NonPositiveLength(self.from_node, self.to_node, self.length_km)
        if not self.length_km <= MAX_SEGMENT_KM:
            raise ValueError(
                f"{where} length_km must be finite and at most {MAX_SEGMENT_KM:g}, "
                f"got {self.length_km!r}"
            )
        for name, z in (
            ("z_phase_per_km", self.z_phase_per_km),
            ("z_neutral_per_km", self.z_neutral_per_km),
            ("z_mutual_per_km", self.z_mutual_per_km),
        ):
            _require_finite(z, f"{where} {name}")
            _require_finite(z * self.length_km, f"{where} {name} * length_km")
        if self.z_phase_per_km.real < 0 or self.z_neutral_per_km.real < 0:
            raise ValueError(f"{where}: conductor resistance must be >= 0")


@dataclass(frozen=True)
class Device:
    """A power device attached to one node.

    ``phase`` selects a single-phase connection; ``None`` means a balanced
    three-phase connection where ``s_rated_kva`` applies per phase.
    Storage devices carry no fixed rating; their injection comes from a
    dispatch action each timestep and is matched by ``battery_id``.
    """

    label: str
    node: str
    kind: DeviceKind
    phase: Phase | None = None
    s_rated_kva: complex = 0j
    profile_id: str | None = None
    battery_id: str | None = None

    def __post_init__(self) -> None:
        # a kind or phase given by value becomes its member, so the checks below see it
        for name, enum in (("kind", DeviceKind), ("phase", Phase)):
            value = getattr(self, name)
            if not (isinstance(value, enum) or name == "phase" and value is None):
                try:
                    object.__setattr__(self, name, enum(value))
                except ValueError:
                    raise ValueError(f"device {self.label!r}: unknown {name} {value!r}") from None
        _require_finite(self.s_rated_kva, f"device {self.label!r} s_rated_kva")
        _require_finite(self.s_rated_kva * 1000, f"device {self.label!r} s_rated_kva * 1000")
        p = self.s_rated_kva.real
        if self.kind in (DeviceKind.LOAD, DeviceKind.EV) and p < 0:
            raise SignConventionViolation(self.label, f"{self.kind.value} must have P >= 0, got {p}")
        if self.kind is DeviceKind.DG and p > 0:
            raise SignConventionViolation(self.label, f"DG must have P <= 0, got {p}")
        if self.kind is DeviceKind.STORAGE:
            if self.s_rated_kva != 0:
                raise SignConventionViolation(
                    self.label, "storage carries no fixed rating; dispatch sets its injection"
                )
            if not self.battery_id:
                raise ValueError(f"storage device {self.label!r} needs a battery_id")
        elif self.battery_id is not None:
            raise ValueError(f"device {self.label!r}: battery_id is only valid for storage")

    @property
    def connected_phases(self) -> tuple[Phase, ...]:
        return (self.phase,) if self.phase is not None else PHASES


@dataclass(frozen=True)
class Feeder:
    """Validated radial feeder; nodes are in breadth-first order from the source,
    and every segment is oriented parent -> child."""

    source_node: str
    nodes: tuple[str, ...]
    segments: tuple[LineSegment, ...]
    devices: tuple[Device, ...]
    v_base_ln: float = DEFAULT_V_BASE_LN
    s_base_kva: float = DEFAULT_S_BASE_KVA

    def storage_devices(self) -> tuple[Device, ...]:
        return tuple(d for d in self.devices if d.kind is DeviceKind.STORAGE)


def build_feeder(
    source_node: str,
    nodes: Sequence[str],
    segments: Sequence[LineSegment] = (),
    devices: Sequence[Device] = (),
    v_base_ln: float = DEFAULT_V_BASE_LN,
    s_base_kva: float = DEFAULT_S_BASE_KVA,
) -> Feeder:
    """Validate a feeder description, as read from configuration, and
    return the normalized immutable model.

    Topology must be a tree rooted at the source: |segments| = |nodes| - 1,
    connected, no cycles. Node order is normalized breadth-first from the
    source so parents always precede children, and segments are re-oriented
    parent -> child. Deterministic: identical inputs yield identical feeders.

    Raises CyclicTopology, DisconnectedNode, UnknownNode, NonPositiveLength or
    (for a carriage return in a node name) ValueError, each naming the culprit.
    """
    names = list(dict.fromkeys(nodes))  # dedupe, keep declared order
    for name in names:  # csv.writer leaves a lone "\r" unquoted, which splits the row
        if "\r" in name:
            raise ValueError(f"node name {name!r} holds a carriage return")
    if source_node not in names:
        raise UnknownNode(source_node, "source node")
    node_set = set(names)

    if not MIN_V_BASE_LN <= v_base_ln <= MAX_V_BASE_LN:
        raise ValueError(
            f"v_base_ln must be in [{MIN_V_BASE_LN:g}, {MAX_V_BASE_LN:g}] V, got {v_base_ln!r}"
        )
    if not 0 < s_base_kva < math.inf:
        raise ValueError(f"s_base_kva must be finite and > 0, got {s_base_kva!r}")

    # Union-find cycle check; a segment joining two already-connected nodes
    # closes a loop regardless of the overall edge count.
    parent: dict[str, str] = {n: n for n in names}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    adjacency: dict[str, list[tuple[str, int]]] = {n: [] for n in names}
    for idx, seg in enumerate(segments):
        for end in (seg.from_node, seg.to_node):
            if end not in node_set:
                raise UnknownNode(end, f"segment {seg.from_node}->{seg.to_node}")
        ra, rb = find(seg.from_node), find(seg.to_node)
        if ra == rb:
            raise CyclicTopology(seg.from_node, seg.to_node)
        parent[ra] = rb
        adjacency[seg.from_node].append((seg.to_node, idx))
        adjacency[seg.to_node].append((seg.from_node, idx))

    # Breadth-first traversal fixes the normalized node order and orients
    # each segment from parent to child.
    order: list[str] = [source_node]
    visited = {source_node}
    oriented: dict[int, LineSegment] = {}
    queue: deque[str] = deque([source_node])
    while queue:
        here = queue.popleft()
        for neighbor, idx in adjacency[here]:
            if neighbor in visited:
                continue
            visited.add(neighbor)
            seg = segments[idx]
            if seg.from_node != here:
                seg = replace(seg, from_node=seg.to_node, to_node=seg.from_node)
            oriented[idx] = seg
            order.append(neighbor)
            queue.append(neighbor)

    for n in names:
        if n not in visited:
            raise DisconnectedNode(n)

    seen: set[str] = set()
    for dev in devices:
        if dev.label in seen:
            raise ValueError(f"duplicate device label {dev.label!r}")
        seen.add(dev.label)
        if dev.node not in node_set:
            raise UnknownNode(dev.node, f"device {dev.label!r}")

    return Feeder(
        source_node=source_node,
        nodes=tuple(order),
        segments=tuple(oriented[i] for i in sorted(oriented)),
        devices=tuple(devices),
        v_base_ln=float(v_base_ln),
        s_base_kva=float(s_base_kva),
    )


def chain_feeder(n_nodes: int, segment_km: float, *, devices: Sequence[Device] = ()) -> Feeder:
    """Build the standard chain feeder N0 -> N1 -> ... with uniform segments."""
    names = [f"N{i}" for i in range(n_nodes)]
    segs = [
        LineSegment(from_node=names[i], to_node=names[i + 1], length_km=segment_km)
        for i in range(n_nodes - 1)
    ]
    return build_feeder(names[0], names, segs, devices)
