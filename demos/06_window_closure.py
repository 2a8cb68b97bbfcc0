"""Short windows of the game system
==================================

Re-solving the coupled system on a short window [0, dt] and keeping only the
first-order term of the backward value equation replaces v by the
instantaneous mean-field cost. Demonstrated here: the per-unit-time window
value converges to the instantaneous cost at first order in the window size,
down to the spatial discretization floor.
"""

from mfglab import consensus_model, grid_for_support, proposition2_gap
from mfglab.harness import density_of

BUMP = {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74}

model = consensus_model()
grid = grid_for_support(BUMP["lo"], BUMP["hi"], 256)
m0 = density_of(BUMP, grid)

print("window dt     sup_x |v(0,x)/dt - H(x, m0)|")
gaps = []
for window in (0.2, 0.1, 0.05, 0.025):
    gap = proposition2_gap(model, m0, window)
    gaps.append(gap)
    print(f"{window:8.4f}     {gap:.6e}")
print("halving factors:", [round(a / b, 3) for a, b in zip(gaps, gaps[1:])])
print(f"extrapolated floor: {abs(2 * gaps[-1] - gaps[-2]):.2e}  (cell width {grid.dx:.2e})")
