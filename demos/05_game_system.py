"""The coupled value/density game system
========================================

A continuum of anticipating agents is described by a backward Hamilton-Jacobi
equation for the value v coupled to a forward continuity equation for the
density m. The pair is solved by Picard iteration on the density path,
accelerated by safeguarded Anderson mixing of the undamped images, and the resulting feedback -(1/alpha) dv/dx is
compared against the myopic best-reply feedback on the population cost.
"""

import numpy as np

from mfglab import (
    consensus_model,
    feedback_controls_best_reply,
    feedback_controls_from_value,
    grid_for_support,
    mfg_fixed_point,
    solve_kinetic,
    total_running_cost,
    w1,
)
from mfglab.harness import density_of
from mfglab.kinetic import cfl_time_step

BUMP = {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74}
horizon = 0.5

model = consensus_model()
grid = grid_for_support(BUMP["lo"], BUMP["hi"], 256)
m0 = density_of(BUMP, grid)
dt = cfl_time_step(model, m0, horizon, safety=0.4)

result = mfg_fixed_point(model, m0, horizon, dt)
print(f"Picard iteration: converged={result.converged} after {result.iterations} steps "
      f"({result.accelerated_steps} Anderson steps accepted, {result.rejected_steps} rejected), "
      f"residual {result.residual:.2e}")
print("history:", " ".join(f"{r:.1e}" for r in result.residual_history[:8]), "...")

# the value field vanishes at the horizon and grows towards t = 0
print(f"\nterminal value slice max: {np.max(np.abs(result.value.data[-1])):.1e}")
print(f"initial value slice range: [{result.value.data[0].min():.5f}, {result.value.data[0].max():.5f}]")

# population cost: the anticipating feedback cannot lose to the myopic one
kinetic = solve_kinetic(model, m0, horizon, dt)
cost_game = total_running_cost(model, result.densities, feedback_controls_from_value(model, result.value))
cost_myopic = total_running_cost(model, kinetic, feedback_controls_best_reply(model, kinetic))
print(f"\npopulation cost, game feedback:   {cost_game:.6f}")
print(f"population cost, myopic feedback: {cost_myopic:.6f}")

# the two final densities stay close on this short horizon
print(f"\nW1 between the game and myopic final densities: {w1(result.densities.final, kinetic.final):.2e}")
