"""Best-reply particle dynamics
==============================

N interacting agents steer down the steepest descent of their own running
cost. For the all-to-all consensus model with two agents the gap g = x_2 - x_1
obeys dg/dt = -3g exactly (one unit of contraction from the interaction drift,
two from the controls), so the run can be checked against a closed form.
"""

import numpy as np

from mfglab import ParticleEnsemble, consensus_model, integrate_brs

model = consensus_model()
start = ParticleEnsemble(np.array([0.0, 1.0]))

print("step size      gap(T=1)      closed form    error")
for dt in (1 / 25, 1 / 50, 1 / 100, 1 / 200, 1 / 400):
    trajectory, controls = integrate_brs(model, start, 1.0, dt)
    gap = trajectory.positions[-1, 1] - trajectory.positions[-1, 0]
    print(f"{dt:10.5f}   {gap:.8f}   {np.exp(-3.0):.8f}   {abs(gap - np.exp(-3.0)):.2e}")

# the pairwise forces are antisymmetric, so the ensemble mean never moves
trajectory, controls = integrate_brs(model, start, 1.0, 1 / 200)
means = trajectory.positions.mean(axis=1)
print(f"\nmean drift over the run: {np.max(np.abs(means - 0.5)):.2e}")

# the control profile records the per-step best-reply controls, one row per step
print("\nfirst three controls of agent 0:", np.round(controls.values[:3, 0], 6))
print("first three controls of agent 1:", np.round(controls.values[:3, 1], 6))
