"""Exception types raised across the package.

Every error carries enough context (node id, segment endpoints, iteration
count, ...) to point at the offending element without re-running anything.
"""

from __future__ import annotations


class PhasebalError(Exception):
    """Base class for all package-specific errors."""


# --- network / topology ----------------------------------------------------


class CyclicTopology(PhasebalError):
    """A segment closes a loop; only radial (tree) feeders are supported."""

    def __init__(self, from_node: str, to_node: str) -> None:
        super().__init__(f"segment {from_node}->{to_node} closes a cycle; feeder must be radial")
        self.from_node = from_node
        self.to_node = to_node


class DisconnectedNode(PhasebalError):
    """A node is not reachable from the source."""

    def __init__(self, node: str) -> None:
        super().__init__(f"node {node!r} is not connected to the source")
        self.node = node


class UnknownNode(PhasebalError):
    """A segment or device references a node that is not part of the feeder."""

    def __init__(self, node: str, context: str = "") -> None:
        msg = f"unknown node {node!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.node = node


class NonPositiveLength(PhasebalError):
    """Line segment length must be strictly positive."""

    def __init__(self, from_node: str, to_node: str, length_km: float) -> None:
        super().__init__(
            f"segment {from_node}->{to_node} has non-positive length {length_km} km"
        )
        self.from_node = from_node
        self.to_node = to_node
        self.length_km = length_km


class SignConventionViolation(PhasebalError):
    """Device power violates its sign convention (loads consume, generation injects)."""

    def __init__(self, label: str, detail: str) -> None:
        super().__init__(f"device {label!r}: {detail}")
        self.label = label


# --- power flow --------------------------------------------------------------


class NonConvergence(PhasebalError):
    """Solver failed to converge within the iteration budget."""

    def __init__(self, iterations: int, residual: float) -> None:
        super().__init__(
            f"power flow did not converge after {iterations} iterations "
            f"(residual {residual:.3e} V)"
        )
        self.iterations = iterations
        self.residual = residual


class VoltageCollapse(PhasebalError):
    """A line-to-neutral voltage fell below 0.5 pu; loading is infeasible."""

    def __init__(self, iteration: int, v_min_pu: float) -> None:
        super().__init__(
            f"voltage collapsed to {v_min_pu:.3f} pu at iteration {iteration}; "
            "loading appears infeasible"
        )
        self.iteration = iteration
        self.v_min_pu = v_min_pu


# --- metrics -----------------------------------------------------------------


class ZeroPositiveSequence(PhasebalError):
    """VUF is undefined when the positive-sequence magnitude is zero."""


class UnknownNorm(PhasebalError):
    """Requested voltage-unbalance norm is not in the limit table."""

    def __init__(self, norm: str) -> None:
        super().__init__(f"unknown unbalance norm {norm!r}")
        self.norm = norm


# --- storage -----------------------------------------------------------------


class SocUnderflow(PhasebalError):
    """Action would discharge the battery below empty."""

    def __init__(self, battery_id: str, soc_kwh: float) -> None:
        super().__init__(f"battery {battery_id!r}: action drives SoC to {soc_kwh:.6g} kWh < 0")
        self.battery_id = battery_id
        self.soc_kwh = soc_kwh


class SocOverflow(PhasebalError):
    """Action would charge the battery above its energy capacity."""

    def __init__(self, battery_id: str, soc_kwh: float, e_max_kwh: float) -> None:
        super().__init__(
            f"battery {battery_id!r}: action drives SoC to {soc_kwh:.6g} kWh "
            f"> capacity {e_max_kwh:.6g} kWh"
        )
        self.battery_id = battery_id
        self.soc_kwh = soc_kwh


class RatingExceeded(PhasebalError):
    """Action exceeds the battery converter power or apparent-power rating."""

    def __init__(self, battery_id: str, detail: str) -> None:
        super().__init__(f"battery {battery_id!r}: {detail}")
        self.battery_id = battery_id


# --- scenarios ---------------------------------------------------------------


class UnsupportedNode(PhasebalError):
    """Scenario builder does not support the requested attachment node."""

    def __init__(self, node: str, allowed: tuple[str, ...]) -> None:
        super().__init__(f"node {node!r} not supported here (allowed: {', '.join(allowed)})")
        self.node = node


class ScenarioStepError(PhasebalError):
    """A solver error occurred at a specific timestep of a scenario run."""

    def __init__(self, t_h: float, cause: Exception) -> None:
        super().__init__(f"at t={t_h:g} h: {cause}")
        self.t_h = t_h
        self.cause = cause


# --- cli / ingest ------------------------------------------------------------


class ConfigInvalid(PhasebalError):
    """Run configuration failed schema or semantic validation."""

    def __init__(self, path: str, field: str, detail: str) -> None:
        super().__init__(f"{path}: invalid config at {field!r}: {detail}")
        self.path = path
        self.field = field


class SchemaMismatch(PhasebalError):
    """Measured-series CSV does not match the expected column layout."""


class NonMonotonicTimestamps(PhasebalError):
    """Measured-series timestamps must be strictly increasing."""

    def __init__(self, row: int) -> None:
        super().__init__(f"timestamp at row {row} is not greater than the previous row")
        self.row = row
