"""Simulation and decay-certificate verification for a magnetically coupled
piezoelectric beam with interior time-varying delay and time-dependent
damping weights."""

from .params import (
    BeamParams,
    DelayProfile,
    StabilityCertificate,
    WeightProfiles,
    build_certificate,
    validate_assumptions,
)
from .scenario import Scenario, load_scenario
from .solver import (
    Grid,
    HistoryBuffer,
    SimState,
    SpatialOperator,
    Trajectory,
    cfl_timestep,
    init_history,
    profile_table,
    run,
    step_explicit,
    step_implicit,
)
from .diagnostics import (
    energy,
    energy_dissipation_check,
    fit_decay_rate,
    lyapunov_equivalence,
    lyapunov_k1,
    lyapunov_k2,
    lyapunov_k3,
    select_multipliers,
)
from .sweep import SweepSpec, execute, expand

__version__ = "0.1.0"
