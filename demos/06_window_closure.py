"""Receding-horizon closure of the game system
==============================================

Re-solving the coupled system on a short sliding window [t, t + dt] and
keeping only the first-order term of the backward value equation replaces
v by the instantaneous mean-field cost. Two consequences, demonstrated here:

* the resulting density march coincides with the best-reply kinetic march,
  cell for cell and bit for bit;
* the per-unit-time window value converges to the instantaneous cost at
  first order in the window size, down to the spatial discretization floor.
"""

import numpy as np

from mfglab import consensus_model, grid_for_support, mpc_mfg_closure, proposition2_gap, solve_kinetic
from mfglab.harness import density_of
from mfglab.kinetic import cfl_time_step

BUMP = {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74}

model = consensus_model()
horizon = 0.5
grid = grid_for_support(BUMP["lo"], BUMP["hi"], 256)
m0 = density_of(BUMP, grid)

dt = cfl_time_step(model, m0, horizon)
closure = mpc_mfg_closure(model, m0, horizon, dt)
kinetic = solve_kinetic(model, m0, horizon, dt)
print("closure march == kinetic march, bitwise:", np.array_equal(closure.data, kinetic.data))

print("\nwindow dt     sup_x |v(0,x)/dt - H(x, m0)|")
gaps = []
for window in (0.2, 0.1, 0.05, 0.025):
    gap = proposition2_gap(model, m0, window)
    gaps.append(gap)
    print(f"{window:8.4f}     {gap:.6e}")
print("halving factors:", [round(a / b, 3) for a, b in zip(gaps, gaps[1:])])
print(f"extrapolated floor: {abs(2 * gaps[-1] - gaps[-2]):.2e}  (cell width {grid.dx:.2e})")
