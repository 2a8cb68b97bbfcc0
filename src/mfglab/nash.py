"""Open-loop Nash equilibria of the N-player game by forward-backward sweeps.

Player i minimizes the cost-to-go

    V_i = sum_l dt * ( (alpha(t_l)/2) u_{i,l}^2 + h_i(X_l) )

subject to the explicit Euler dynamics x_{l+1} = x_l + dt (f(X_l) + u_l).
The costates are the exact discrete sensitivities phi^i_j(l) = dV_i / dx_{l,j},
obtained by the backward recursion

    phi^i(l) = phi^i(l+1) + dt * ( J(X_l)^T phi^i(l+1) + grad_x h_i(X_l) ),
    phi^i(N_T) = 0,

with J the drift Jacobian. Because the adjoint runs on the same grid as the
state, the per-step gradient of the discrete cost is exact up to round-off:

    dV_i / du_{i,l} = dt * ( alpha(t_l) u_{i,l} + phi^i_i(l+1) ).

The sweep damps the fixed-point update u <- -phi^i_i / alpha to tame the strong
state-costate coupling of the two-point boundary value problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controller import ParticleTrajectory, euler_step
from .errors import DivergenceError, NumericalError
from .grids import time_grid, uniform_dt
from .model import (
    ControlProfile,
    ModelSpec,
    ParticleEnsemble,
    alpha_at,
    cost,
    cost_gradient_full,
    drift,
    drift_jacobian,
)

DEFAULT_BLOW_UP_BOUND = 1e6


@dataclass
class AdjointField:
    """Costates phi^i_j(t_l) stored as values[i, j, l]; the terminal slice is zero."""

    values: np.ndarray
    time_grid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        n = self.values.shape[0]
        if self.values.ndim != 3 or self.values.shape[1] != n or self.values.shape[2] != self.time_grid.size:
            raise ValueError(f"expected (N, N, len(time_grid)) values, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite costate")
        if np.any(self.values[:, :, -1] != 0.0):
            raise ValueError("terminal costate slice must vanish")


@dataclass(frozen=True)
class SweepParams:
    max_iterations: int = 500
    tolerance: float = 1e-8
    relaxation: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.relaxation <= 1:
            raise ValueError("relaxation must lie in (0, 1]")


@dataclass
class NashResult:
    controls: ControlProfile
    trajectory: ParticleTrajectory
    adjoints: AdjointField
    residual: float
    converged: bool
    iterations: int
    residual_history: np.ndarray
    control_history: list[np.ndarray] = field(default_factory=list)


def simulate_state(
    model: ModelSpec,
    initial: ParticleEnsemble,
    controls: ControlProfile,
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> ParticleTrajectory:
    """Forward explicit Euler under a fixed control profile."""
    times = controls.time_grid
    dt = controls.dt
    n_steps = controls.n_steps
    if initial.n != controls.values.shape[0]:
        raise ValueError(f"ensemble has {initial.n} particles, controls are for {controls.values.shape[0]}")
    positions = np.empty((n_steps + 1, initial.n))
    positions[0] = initial.positions
    state = ParticleEnsemble(initial.positions.copy(), time=float(times[0]))
    for step in range(n_steps):
        new_positions = euler_step(state.positions, drift(model, state), controls.values[:, step], dt)
        state = ParticleEnsemble(new_positions, time=float(times[step + 1]))
        positions[step + 1] = new_positions
        worst = float(np.max(np.abs(new_positions)))
        if not worst <= blow_up_bound:
            raise DivergenceError(
                f"|x| reached {worst:.3e} > bound {blow_up_bound:.3e} at step {step + 1}"
            )
    return ParticleTrajectory(times.copy(), positions)


def solve_adjoint(model: ModelSpec, trajectory: ParticleTrajectory, i: int) -> np.ndarray:
    """Backward costate solve for player i; returns phi^i_j(t_l) as an (N, N_T+1) array."""
    times = trajectory.times
    dt = uniform_dt(times)
    n_steps = times.size - 1
    phi = np.zeros((trajectory.n_particles, n_steps + 1))
    for step in range(n_steps - 1, -1, -1):
        state = trajectory.ensemble(step)
        jac = drift_jacobian(model, state)
        source = cost_gradient_full(model, state, i)
        phi[:, step] = phi[:, step + 1] + dt * (jac.T @ phi[:, step + 1] + source)
        if not np.all(np.isfinite(phi[:, step])):
            raise NumericalError(f"non-finite costate for player {i} at step {step}")
    return phi


def value(model: ModelSpec, t: float, start: ParticleEnsemble, controls: ControlProfile, i: int) -> float:
    """Cost-to-go of player i from state ``start`` at grid time t: left Riemann sum."""
    times = controls.time_grid
    dt = controls.dt
    horizon = float(times[-1])
    if t > horizon + 1e-12 * max(1.0, horizon):
        raise ValueError(f"start time {t} exceeds the horizon {horizon}")
    first = int(round(t / dt))
    if abs(first * dt - t) > 1e-12 * max(1.0, horizon):
        raise ValueError(f"start time {t} is not on the control grid")
    state = ParticleEnsemble(start.positions.copy(), time=t)
    total = 0.0
    for step in range(first, controls.n_steps):
        t_step = float(times[step])
        u_i = controls.values[i, step]
        total += dt * (0.5 * alpha_at(model, t_step) * u_i * u_i + cost(model, state, i))
        new_positions = euler_step(state.positions, drift(model, state), controls.values[:, step], dt)
        state = ParticleEnsemble(new_positions, time=float(times[step + 1]))
    return total


def gradient_via_adjoint(
    model: ModelSpec,
    initial: ParticleEnsemble,
    controls: ControlProfile,
    i: int,
) -> np.ndarray:
    """Per-step gradient of player i's discrete cost in its own control.

    Returns g_l = alpha(t_l) u_{i,l} + phi^i_i(t_{l+1}), l = 0..N_T-1. Pairing
    the step-l control with the costate at the step's right endpoint is what
    makes g exactly (1/dt) dV_i/du_{i,l} for the Euler-discretized cost.
    """
    trajectory = simulate_state(model, initial, controls)
    phi = solve_adjoint(model, trajectory, i)
    times = controls.time_grid
    weights = np.array([alpha_at(model, float(t)) for t in times[:-1]])
    return weights * controls.values[i, :] + phi[i, 1:]


def _forward_backward(
    model: ModelSpec, initial: ParticleEnsemble, controls: ControlProfile
) -> tuple[ParticleTrajectory, np.ndarray]:
    """One sweep: the state under ``controls`` and every player's costates along it."""
    trajectory = simulate_state(model, initial, controls)
    return trajectory, np.stack([solve_adjoint(model, trajectory, i) for i in range(initial.n)])


def nash_sweep(
    model: ModelSpec,
    initial: ParticleEnsemble,
    horizon: float,
    dt: float,
    params: SweepParams = SweepParams(),
    record_history: bool = False,
) -> NashResult:
    """Damped fixed-point iteration on the stationarity system of all N players on [0, horizon].

    Each sweep simulates the state forward, solves every player's costate
    backward, and relaxes the controls towards u_{i,l} = -phi^i_i(t_{l+1}) /
    alpha(t_l). The residual max |alpha u + phi^i_i| is the exact sup-norm of
    the discrete cost gradients, so it vanishes precisely at a stationary
    (open-loop Nash) point.

    Non-convergence is reported, never raised. When a sweep after the first
    diverges (``DivergenceError`` from the state, ``NumericalError`` from a
    costate), the iteration stops with ``converged=False`` and returns the last
    finite iterate with its residual history. The first sweep runs the
    uncontrolled system; if that diverges there is no iterate to report and
    the error propagates.
    """
    n_steps, times = time_grid(horizon, dt)
    n = initial.n
    weights = np.array([alpha_at(model, float(t)) for t in times[:-1]])
    controls = np.zeros((n, n_steps))
    history: list[float] = []
    control_history: list[np.ndarray] = []
    theta = params.relaxation
    converged = False
    iterations = 0

    while iterations < params.max_iterations:
        profile = ControlProfile(controls, times)
        try:
            trajectory, costates = _forward_backward(model, initial, profile)
        except (DivergenceError, NumericalError):
            if not history:
                raise
            break  # trajectory and costates still hold the last finite iterate
        accepted = profile
        iterations += 1
        own = np.stack([costates[i, i, 1:] for i in range(n)])  # phi^i_i(t_{l+1})
        residual = float(np.max(np.abs(weights[None, :] * controls + own)))
        history.append(residual)
        if record_history:
            control_history.append(controls.copy())
        if residual <= params.tolerance:
            converged = True
            break
        if iterations == params.max_iterations:
            break
        proposal = -own / weights[None, :]
        controls = (1.0 - theta) * controls + theta * proposal

    return NashResult(
        controls=accepted,
        trajectory=trajectory,
        adjoints=AdjointField(costates, times),
        residual=residual,
        converged=converged,
        iterations=iterations,
        residual_history=np.asarray(history),
        control_history=control_history,
    )
