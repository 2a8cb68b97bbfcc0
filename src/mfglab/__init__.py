"""Numerical laboratory for best-reply controlled particle systems, their
kinetic mean-field limit, and the coupled mean-field game system.

The four corners of the lab and the bridges between them:

* N-player differential game, solved by forward-backward sweeps (``nash``),
* best-reply / receding-horizon controlled particles (``controller``),
* the nonlocal kinetic transport equation they converge to (``kinetic``),
* the coupled value/density mean-field game system (``mfg``),

certified against each other with exact 1D optimal-transport distances
(``measures``) and orchestrated by a deterministic experiment harness
(``harness``).
"""

__version__ = "0.1.0"

from .controller import (
    ParticleTrajectory,
    brs_control,
    integrate_brs,
    mpc_step_exact,
    mpc_step_taylor,
)
from .errors import CFLError, ConfigError, DivergenceError, NumericalError
from .grids import (
    DensityGrid,
    DensityTrajectory,
    SpaceGrid,
    grid_for_support,
    histogram,
    normalized_density,
    time_grid,
)
from .harness import ExperimentConfig, parse_config, run_experiment, sample_initial
from .kinetic import cfl_time_step, solve_kinetic, step_upwind, velocity_field
from .measures import EmpiricalMeasure, empirical, moments, w1, w1_sorted_atoms
from .mfg import (
    MFGResult,
    PicardParams,
    ValueGrid,
    feedback_controls_best_reply,
    feedback_controls_from_value,
    fp_forward,
    hjb_backward,
    mfg_fixed_point,
    mpc_mfg_closure,
    proposition2_gap,
    total_running_cost,
)
from .model import (
    ControlProfile,
    ModelSpec,
    ParticleEnsemble,
    bounded_confidence_model,
    consensus_model,
    cost,
    cost_grad_vector,
    drift,
    mean_field_cost,
    mean_field_cost_grad,
    mean_field_drift,
    polynomial_model,
)
from .nash import (
    AdjointField,
    NashResult,
    SweepParams,
    gradient_via_adjoint,
    nash_sweep,
    simulate_state,
    solve_adjoint,
    value,
)

__all__ = [
    "AdjointField",
    "CFLError",
    "ConfigError",
    "ControlProfile",
    "DensityGrid",
    "DensityTrajectory",
    "DivergenceError",
    "EmpiricalMeasure",
    "ExperimentConfig",
    "MFGResult",
    "ModelSpec",
    "NashResult",
    "NumericalError",
    "ParticleEnsemble",
    "ParticleTrajectory",
    "PicardParams",
    "SpaceGrid",
    "SweepParams",
    "ValueGrid",
    "bounded_confidence_model",
    "brs_control",
    "cfl_time_step",
    "consensus_model",
    "cost",
    "cost_grad_vector",
    "drift",
    "empirical",
    "feedback_controls_best_reply",
    "feedback_controls_from_value",
    "fp_forward",
    "grid_for_support",
    "gradient_via_adjoint",
    "histogram",
    "hjb_backward",
    "integrate_brs",
    "mean_field_cost",
    "mean_field_cost_grad",
    "mean_field_drift",
    "mfg_fixed_point",
    "moments",
    "mpc_mfg_closure",
    "mpc_step_exact",
    "mpc_step_taylor",
    "nash_sweep",
    "normalized_density",
    "parse_config",
    "polynomial_model",
    "proposition2_gap",
    "run_experiment",
    "sample_initial",
    "simulate_state",
    "solve_adjoint",
    "solve_kinetic",
    "step_upwind",
    "time_grid",
    "total_running_cost",
    "value",
    "velocity_field",
    "w1",
    "w1_sorted_atoms",
]
