"""phasebal: phase-unbalance simulation for radial low-voltage feeders.

Solves three-phase four-wire power flow on radial networks, quantifies
unbalance (voltage unbalance factor, neutral and phase conductor losses,
voltage drop/rise) and evaluates battery-storage dispatch architectures
that rebalance power among phases.
"""

from .errors import (
    ConfigInvalid,
    CyclicTopology,
    DisconnectedNode,
    NonConvergence,
    NonMonotonicTimestamps,
    NonPositiveLength,
    PhasebalError,
    RatingExceeded,
    ScenarioStepError,
    SchemaMismatch,
    SignConventionViolation,
    SocOverflow,
    SocUnderflow,
    UnknownNode,
    UnknownNorm,
    UnsupportedNode,
    VoltageCollapse,
    ZeroPositiveSequence,
)
from .metrics import (
    SequenceComponents,
    VUF_NORM_LIMITS,
    check_vuf_norm,
    fortescue,
    inverse_fortescue,
    rms_voltage,
    vuf,
)
from .network import (
    CONDUCTORS,
    PHASES,
    Device,
    DeviceKind,
    Feeder,
    LineSegment,
    Phase,
    build_feeder,
    chain_feeder,
)
from .powerflow import (
    SolverSettings,
    VoltageSolution,
    oracle_solve,
    power_balance_residual_kw,
    source_phasors,
)
from .presets import preset_config, preset_names
from .scenarios import (
    NETWORK_CLASS_SEGMENT_KM,
    Scenario,
    ScenarioResult,
    StepRecord,
    SweepRow,
    SweepTemplate,
    Trajectory,
    build_stylized_scenario,
    build_sweep_scenario,
    run_scenario,
    sweep_and_tabulate,
)
from .storage import (
    Architecture,
    ArchKind,
    Battery,
    DispatchAction,
    StylizedScheduleCfg,
    bounds_at,
    clip_power,
    greedy_powers,
    next_soc,
    schedule_requests,
    zero_sum_shift,
)

__version__ = "0.1.0"
