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

from ._anderson import FixedPoint, FixedPointParams
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
from .measures import moments, w1, w1_sorted_atoms
from .mfg import (
    MFGResult,
    ValueGrid,
    feedback_controls_best_reply,
    feedback_controls_from_value,
    fp_forward,
    hjb_backward,
    mfg_fixed_point,
    proposition2_gap,
    total_running_cost,
)
from .model import (
    ControlProfile,
    ModelSpec,
    PairKernel,
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
    NashResult,
    gradient_via_adjoint,
    nash_sweep,
    simulate_state,
    solve_adjoint,
    value,
)
