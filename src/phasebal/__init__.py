"""phasebal: phase-unbalance simulation for radial low-voltage feeders.

Solves three-phase four-wire power flow on radial networks, quantifies
unbalance (voltage unbalance factor, neutral and phase conductor losses,
voltage drop/rise) and evaluates battery-storage dispatch architectures
that rebalance power among phases.

The package's names are resolved on first access (PEP 562): ``import
phasebal`` loads no submodule, and ``phasebal.run_scenario`` imports
``scenarios`` when it is first read. So a process loads only the modules
it uses; ``python -m phasebal.cli sweep`` never loads ``storage`` or
``checks``.
"""

import importlib

#: The home module of each exported name.
_HOMES = {
    "errors": (
        "ConfigInvalid",
        "CyclicTopology",
        "DisconnectedNode",
        "NonConvergence",
        "NonMonotonicTimestamps",
        "NonPositiveLength",
        "PhasebalError",
        "RatingExceeded",
        "ScenarioStepError",
        "SchemaMismatch",
        "SignConventionViolation",
        "SocOverflow",
        "SocUnderflow",
        "UnknownNode",
        "UnknownNorm",
        "UnsupportedNode",
        "VoltageCollapse",
        "ZeroPositiveSequence",
    ),
    "checks": (
        "DispatchAction",
        "SequenceComponents",
        "StepRecord",
        "SweepRow",
        "VUF_NORM_LIMITS",
        "VoltageSolution",
        "check_vuf_norm",
        "fortescue",
        "inverse_fortescue",
        "oracle_solve",
        "power_balance_residual_kw",
        "rms_voltage",
        "vuf",
    ),
    "network": (
        "CONDUCTORS",
        "NETWORK_CLASS_SEGMENT_KM",
        "PHASES",
        "ArchKind",
        "Device",
        "DeviceKind",
        "Feeder",
        "LineSegment",
        "Phase",
        "build_feeder",
        "chain_feeder",
        "source_phasors",
    ),
    "powerflow": ("SolverSettings",),
    "presets": ("preset_config", "preset_names"),
    "scenarios": (
        "Scenario",
        "ScenarioResult",
        "SweepTemplate",
        "Trajectory",
        "build_stylized_scenario",
        "build_sweep_scenario",
        "run_scenario",
        "sweep_and_tabulate",
    ),
    "storage": (
        "Architecture",
        "Battery",
        "StylizedScheduleCfg",
        "bounds_at",
        "clip_power",
        "greedy_powers",
        "next_soc",
        "schedule_requests",
        "zero_sum_shift",
    ),
}

_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name's home module on first access and keep the
    name in the package, so that later reads are plain lookups."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
