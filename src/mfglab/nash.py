"""Open-loop Nash equilibria of the N-player game by forward-backward sweeps.

Player i minimizes the cost-to-go

    V_i = sum_l dt * ( (alpha(t_l)/2) u_{i,l}^2 + h_i(X_l) )

subject to the explicit Euler dynamics x_{l+1} = x_l + dt (f(X_l) + u_l).
The costates are the exact discrete sensitivities phi^i_j(l) = dV_i / dx_{l,j}.
Stacked as the N x N matrix Phi(l)[i, j] = phi^i_j(l), all players' costates
solve one backward recursion

    Phi(l) = Phi(l+1) + dt * ( Phi(l+1) J(X_l) + G(X_l) ),
    Phi(N_T) = 0,

with J[k, j] = d f_k / d x_j the drift Jacobian and G[i, j] = d h_i / d x_j
the cost sensitivities; row i is player i's recursion
phi^i(l) = phi^i(l+1) + dt * ( J^T phi^i(l+1) + grad_x h_i ). One Jacobian and
one G per step serve every player. Because the adjoint runs on the same grid
as the state, the per-step gradient of the discrete cost is exact up to
round-off:

    dV_i / du_{i,l} = dt * ( alpha(t_l) u_{i,l} + phi^i_i(l+1) ).

The sweep damps the fixed-point update u <- -phi^i_i / alpha to tame the strong
state-costate coupling of the two-point boundary value problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controller import DEFAULT_BLOW_UP_BOUND, ParticleTrajectory, euler_step
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


def solve_adjoint(model: ModelSpec, trajectory: ParticleTrajectory) -> np.ndarray:
    """Backward costate march of all players at once; returns phi^i_j(t_l) as an (N, N, N_T+1) array.

    One ``drift_jacobian`` and one ``cost_gradient_full`` per step serve every player.
    """
    times = trajectory.times
    dt = uniform_dt(times)
    n_steps = times.size - 1
    n = trajectory.n_particles
    phi = np.zeros((n, n, n_steps + 1))
    for step in range(n_steps - 1, -1, -1):
        state = trajectory.ensemble(step)
        later = phi[:, :, step + 1]
        phi[:, :, step] = later + dt * (later @ drift_jacobian(model, state) + cost_gradient_full(model, state))
        if not np.all(np.isfinite(phi[:, :, step])):
            raise NumericalError(f"non-finite costate at step {step}")
    return phi


def value(model: ModelSpec, start: ParticleEnsemble, controls: ControlProfile) -> np.ndarray:
    """Every player's cost-to-go from ``start`` at time 0: left Riemann sum along ``simulate_state``."""
    trajectory = simulate_state(model, start, controls)
    dt = controls.dt
    total = np.zeros(start.n)
    for step, (weight, u) in enumerate(zip(_weights(model, controls.time_grid), controls.values.T)):
        total += dt * (0.5 * weight * u * u + cost(model, trajectory.ensemble(step)))
    return total


def gradient_via_adjoint(model: ModelSpec, initial: ParticleEnsemble, controls: ControlProfile) -> np.ndarray:
    """Per-step gradient of every player's discrete cost in its own control, as an (N, N_T) array.

    Returns g[i, l] = alpha(t_l) u_{i,l} + phi^i_i(t_{l+1}). Pairing the step-l
    control with the costate at the step's right endpoint is what makes g
    exactly (1/dt) dV_i/du_{i,l} for the Euler-discretized cost.
    """
    costates = solve_adjoint(model, simulate_state(model, initial, controls))
    return _weights(model, controls.time_grid)[None, :] * controls.values + _own(costates)


def _weights(model: ModelSpec, times: np.ndarray) -> np.ndarray:
    """alpha(t_l) at the left end of every step."""
    return np.array([alpha_at(model, float(t)) for t in times[:-1]])


def _own(costates: np.ndarray) -> np.ndarray:
    """phi^i_i(t_{l+1}) as an (N, N_T) array: each player's costate of its own state."""
    return np.diagonal(costates)[1:].T


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
    weights = _weights(model, times)
    controls = np.zeros((initial.n, n_steps))
    history: list[float] = []
    control_history: list[np.ndarray] = []
    theta = params.relaxation
    converged = False
    iterations = 0

    while iterations < params.max_iterations:
        profile = ControlProfile(controls, times)
        try:
            candidate = simulate_state(model, initial, profile)
            costates = solve_adjoint(model, candidate)
        except (DivergenceError, NumericalError):
            if not history:
                raise
            break  # trajectory and costates still hold the last finite iterate
        trajectory, accepted = candidate, profile
        iterations += 1
        own = _own(costates)
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
