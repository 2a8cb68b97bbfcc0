"""Mean-field limit of the controlled particle system
=====================================================

As N grows, the empirical measure of the best-reply particles approaches the
solution of the nonlocal transport equation

    d/dt m + d/dx ( m ( F(x, m) - (1/alpha) dH/dx(x, m) ) ) = 0,

solved here with conservative upwind finite volumes. The distance is measured
in the exact 1D Wasserstein-1 metric.
"""

import numpy as np

from mfglab import consensus_model, grid_for_support, integrate_brs, moments, solve_kinetic, w1
from mfglab.harness import density_of, sample_initial
from mfglab.kinetic import cfl_time_step

BUMP = {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74}
horizon = 0.5

grid = grid_for_support(BUMP["lo"], BUMP["hi"], 512)
m0 = density_of(BUMP, grid)
model = consensus_model()  # one model for the kinetic march and every particle count
dt_kinetic = cfl_time_step(model, m0, horizon)
kinetic = solve_kinetic(model, m0, horizon, dt_kinetic)
_, mean_t, var_t = moments(kinetic.final)
print(f"kinetic march: {len(kinetic) - 1} steps of {dt_kinetic:.5f}")
print(f"final mean {mean_t:.6f}, final variance {var_t:.6f} (continuum factor e^-2 = {np.exp(-2):.4f})")

print("\n    N    mean W1      per-seed min/max (10 seeds)")
for n in (64, 256, 1024):
    vals = []
    for seed in range(10):
        start = sample_initial(1000 + seed, n, BUMP)
        trajectory, _ = integrate_brs(model, start, horizon, 1 / 200)
        vals.append(w1(trajectory.ensemble(len(trajectory) - 1), kinetic.final))
    print(f"{n:5d}   {np.mean(vals):.6f}    [{np.min(vals):.6f}, {np.max(vals):.6f}]")

print(
    "\nthe seed-averaged distance decays like 1/sqrt(N) until the discretization"
    "\nfloor of the two marches takes over; a single seed is dominated by the"
    "\ninitial sample-mean offset, which the mean-preserving dynamics never forgets"
)
