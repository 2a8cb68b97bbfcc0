"""One-step receding-horizon control
====================================

Each agent solves a quadratic subproblem on a sliding window [t, t + dt]. The
exact minimizer weighs the control with alpha(t + dt); expanding the weight at
t gives the best-reply control. For a time-varying weight the two differ by
O(dt), and for a constant weight they coincide exactly.
"""

import numpy as np

from mfglab import ParticleEnsemble, brs_control, consensus_model, mpc_step_exact, mpc_step_taylor

state = ParticleEnsemble(np.array([0.0, 1.0]))

# constant weight: all three controls coincide
model = consensus_model(alpha=1.0)
exact, _ = mpc_step_exact(model, state, 0.0, 0.1)
taylor, _ = mpc_step_taylor(model, state, 0.0, 0.1)
myopic = brs_control(model, state, 0.0)
print("constant weight: exact", exact, " expanded", taylor, " best reply", myopic)

# growing weight alpha(t) = 1 + t: the exact step is more cautious
model = consensus_model(alpha=lambda t: 1.0 + t)
print("\nwindow size    exact u_0     expanded u_0   gap        gap/dt")
gaps = []
for dt in (0.2, 0.1, 0.05, 0.025, 0.0125):
    exact, _ = mpc_step_exact(model, state, 0.0, dt)
    taylor, _ = mpc_step_taylor(model, state, 0.0, dt)
    gap = abs(exact[0] - taylor[0])
    gaps.append(gap)
    print(f"{dt:10.4f}   {exact[0]:.8f}   {taylor[0]:.8f}   {gap:.2e}   {gap / dt:.4f}")

print("\nhalving factors:", [round(a / b, 3) for a, b in zip(gaps, gaps[1:])])
