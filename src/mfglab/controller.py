"""Best-reply control, the one-step receding-horizon subproblem, and the particle integrator.

Each particle steers along the steepest descent of its instantaneous cost,

    u_i(t) = -(1/alpha(t)) d h_i / d x_i (X(t)),

which is also the closed-form minimizer of the one-step quadratic subproblem

    min_u  dt * ( h_i(X(t+dt)) + dt * (alpha/2) u^2 ),
    x_i(t+dt) = x_i + dt * (f_i(X) + u),

after linearizing h_i about X(t). The "exact" step weighs the control with
alpha(t+dt) as the subproblem states; the "taylor" step uses alpha(t), which
differs by O(dt) and matches the piecewise-constant discretization of the
best-reply law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .grids import time_grid
from .model import ControlProfile, ModelSpec, ParticleEnsemble, alpha_at, cost_grad_vector, drift

DEFAULT_BLOW_UP_BOUND = 1e6


@dataclass
class ParticleTrajectory:
    """Particle states on a time grid; positions[l] is the ensemble at times[l]."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] != self.times.size:
            raise ValueError(
                f"positions shape {self.positions.shape} does not match {self.times.size} time points"
            )

    def __len__(self) -> int:
        return self.times.size

    def ensemble(self, step: int) -> ParticleEnsemble:
        return ParticleEnsemble(self.positions[step].copy(), time=float(self.times[step]))

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]


def brs_control(model: ModelSpec, ensemble: ParticleEnsemble, t: float) -> np.ndarray:
    """Steepest-descent control u_i = -(1/alpha(t)) d h_i / d x_i."""
    return -cost_grad_vector(model, ensemble) / alpha_at(model, t)


@np.errstate(over="ignore", invalid="ignore")  # a step that leaves the floats is reported instead
def euler_step(positions: np.ndarray, drift_vec: np.ndarray, controls: np.ndarray, dt: float) -> np.ndarray:
    """Shared explicit Euler update; every integrator uses this exact expression.

    Raises ``DivergenceError`` when a new position is not finite.
    """
    new_positions = positions + dt * (drift_vec + controls)
    if not np.isfinite(new_positions).all():
        raise DivergenceError(f"an explicit Euler step of size {dt} left the finite numbers")
    return new_positions


def mpc_step_exact(
    model: ModelSpec,
    ensemble: ParticleEnsemble,
    t: float,
    dt: float,
) -> tuple[np.ndarray, ParticleEnsemble]:
    """One receding-horizon step with the end-of-step control weight alpha(t+dt).

    The returned control solves the per-particle quadratic subproblem exactly;
    its slope ``model.cost.dx`` was checked against ``model.cost.value`` when
    the model was built.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    controls = -cost_grad_vector(model, ensemble) / alpha_at(model, t + dt)
    return controls, _advance(model, ensemble, controls, t, dt)


def mpc_step_taylor(
    model: ModelSpec,
    ensemble: ParticleEnsemble,
    t: float,
    dt: float,
) -> tuple[np.ndarray, ParticleEnsemble]:
    """One receding-horizon step with the start-of-step weight alpha(t); O(dt) from exact."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    controls = brs_control(model, ensemble, t)
    return controls, _advance(model, ensemble, controls, t, dt)


def _advance(
    model: ModelSpec, ensemble: ParticleEnsemble, controls: np.ndarray, t: float, dt: float
) -> ParticleEnsemble:
    new_positions = euler_step(ensemble.positions, drift(model, ensemble), controls, dt)
    return ParticleEnsemble(new_positions, time=t + dt)


def integrate_brs(
    model: ModelSpec,
    initial: ParticleEnsemble,
    horizon: float,
    dt: float,
    scheme: str = "taylor",
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> tuple[ParticleTrajectory, ControlProfile]:
    """Run the controlled particle system on [0, horizon] with explicit Euler steps.

    ``scheme`` picks the control weight: "taylor" uses alpha(t_l) (the
    piecewise-constant best-reply discretization), "exact" uses alpha(t_l + dt).
    Raises ``DivergenceError`` as soon as any |x_i| exceeds ``blow_up_bound``.
    """
    if scheme not in ("taylor", "exact"):
        raise ValueError(f"unknown scheme {scheme!r}, expected 'taylor' or 'exact'")
    n_steps, times = time_grid(horizon, dt)
    n = initial.n
    positions = np.empty((n_steps + 1, n))
    controls = np.empty((n, n_steps))
    state = initial
    positions[0] = state.positions
    for step in range(n_steps):
        t = float(times[step])
        if scheme == "taylor":
            u, state = mpc_step_taylor(model, state, t, dt)
        else:
            u, state = mpc_step_exact(model, state, t, dt)
        controls[:, step] = u
        positions[step + 1] = state.positions
        worst = float(np.max(np.abs(state.positions)))
        if not worst <= blow_up_bound:
            raise DivergenceError(
                f"|x| reached {worst:.3e} > bound {blow_up_bound:.3e} at step {step + 1} (t={t + dt:.6g})"
            )
    return ParticleTrajectory(times, positions), ControlProfile(controls, times)
