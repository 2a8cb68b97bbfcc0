"""Open-loop Nash equilibria of the N-player game by forward-backward sweeps.

Player i minimizes the cost-to-go

    V_i = sum_l dt * ( (alpha(t_l)/2) u_{l,i}^2 + h_i(X_l) )

subject to the explicit Euler dynamics x_{l+1} = x_l + dt (f(X_l) + u_l),
marched by ``controller._march_stack`` under the open-loop law of the controls.
The costates are the exact discrete sensitivities phi^i_j(l) = dV_i / dx_{l,j}.
Stacked as the N x N matrix Phi(l)[i, j] = phi^i_j(l), all players' costates
solve one backward recursion

    Phi(l) = Phi(l+1) + dt * ( Phi(l+1) J(X_l) + G(X_l) ),
    Phi(N_T) = 0,

with J[k, j] = d f_k / d x_j the drift Jacobian and G[i, j] = d h_i / d x_j
the cost sensitivities; row i is player i's recursion
phi^i(l) = phi^i(l+1) + dt * ( J^T phi^i(l+1) + grad_x h_i ). J and G serve
every player, and come from one batched kernel evaluation per block of time
steps (at most ``_BATCH_ENTRIES`` matrix entries, one step at least), bit for
bit what per-step evaluations give; the recursion itself runs step by step.
Like every path of the lab the costates are time first: ``solve_adjoint``
returns the (N_T+1, N, N) array of the Phi(l), and controls and per-step
gradients are (N_T, N) arrays indexed [l, i]. Because the adjoint runs on
the same grid as the state, the per-step gradient of the discrete cost is
exact up to round-off:

    dV_i / du_{l,i} = dt * ( alpha(t_l) u_{l,i} + phi^i_i(l+1) ).

The sweep damps the best-response update u <- -phi^i_i / alpha with a weight
theta in (0, 1], 0.5 in ``SWEEP``, to tame the strong state-costate coupling
of the two-point boundary value problem, and accelerates the damped map by
safeguarded Anderson mixing in ``_anderson.solve``, the loop it shares with
the Picard loop of ``mfg``. Unlike that loop, the sweep keeps damping by
default: undamped, bounded confidence r = 0.1 with 8 players on [0, 1] needs
354 sweeps and 7 growth restarts over seeds 0-5, against 199 and 3 at 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._anderson import FixedPoint, FixedPointParams, solve
from .controller import DEFAULT_BLOW_UP_BOUND, ParticleTrajectory, _march_stack
from .errors import NumericalError
from .grids import time_grid, uniform_dt
from .model import (ControlProfile, ModelSpec, ParticleEnsemble, _batches, alpha_at, cost, cost_gradient_full,
                    drift, drift_jacobian)

SWEEP = FixedPointParams(max_iterations=500, tolerance=1e-8, theta=0.5)


@dataclass
class NashResult(FixedPoint):
    controls: ControlProfile
    trajectory: ParticleTrajectory
    costates: np.ndarray  # solve_adjoint of the trajectory: costates[l, i, j] = phi^i_j(t_l)


def simulate_state(model: ModelSpec, initial: ParticleEnsemble, controls: ControlProfile) -> ParticleTrajectory:
    """Forward explicit Euler under a fixed control profile: ``_march_stack`` with the law (f(X_l), u_l).

    Raises ``DivergenceError`` as soon as any |x_i| exceeds ``DEFAULT_BLOW_UP_BOUND``.
    """
    if initial.n != controls.values.shape[1]:
        raise ValueError(f"ensemble has {initial.n} particles, controls are for {controls.values.shape[1]}")
    times, values = controls.times, controls.values
    positions = np.empty((times.size, initial.n))
    positions[0] = initial.positions
    _march_stack(initial.positions[None], map(float, times[:-1]), controls.dt,
                 lambda step, t, x: (drift(model, x), values[step]), DEFAULT_BLOW_UP_BOUND,
                 path=positions[:, None])
    return ParticleTrajectory(times.copy(), positions)


def solve_adjoint(model: ModelSpec, trajectory: ParticleTrajectory) -> np.ndarray:
    """Backward costate march of all players at once; returns Phi[l, i, j] = phi^i_j(t_l), an (N_T+1, N, N) array.

    The drift Jacobians and cost sensitivities G of a block of steps come
    from one batched evaluation; the march runs step by step, latest block
    first. The terminal slice Phi[N_T] is zero. Raises ``ValueError`` for a
    non-finite state and ``NumericalError`` for a non-finite costate, naming
    its step.
    """
    times = trajectory.times
    dt = uniform_dt(times)
    n_steps = times.size - 1
    n = trajectory.n_particles
    states = trajectory.positions
    if not np.all(np.isfinite(states[:n_steps])):
        raise ValueError("non-finite particle position")
    phi = np.zeros((n_steps + 1, n, n))
    for start, stop in reversed(_batches(n_steps, n * n)):
        jacobians = drift_jacobian(model, states[start:stop])
        sources = cost_gradient_full(model, states[start:stop])
        for step in range(stop - 1, start - 1, -1):
            later = phi[step + 1]
            phi[step] = later + dt * (later @ jacobians[step - start] + sources[step - start])
            if not np.isfinite(phi[step]).all():
                raise NumericalError(f"non-finite costate at step {step}")
    return phi


def value(model: ModelSpec, trajectory: ParticleTrajectory, controls: ControlProfile) -> np.ndarray:
    """Every player's cost-to-go at time 0: left Riemann sum along a trajectory simulated under ``controls``.

    The running costs of a block of steps come from one batched evaluation and
    are added in step order. Raises ``ValueError`` unless the trajectory has one
    state per time of the controls' grid and one position per controlled player.
    """
    states, n = trajectory.positions, trajectory.n_particles
    if states.shape != (controls.n_steps + 1, controls.values.shape[1]):
        raise ValueError(f"trajectory of {states.shape[0]} states of {n} players does not match controls "
                         f"over {controls.n_steps} steps for {controls.values.shape[1]} players")
    costs = np.concatenate([cost(model, states[a:b]) for a, b in _batches(controls.n_steps, n * n)])
    dt = controls.dt
    total = np.zeros(n)
    for weight, u, running in zip(alpha_at(model, controls.times[:-1]), controls.values, costs):
        total += dt * (0.5 * weight * u * u + running)
    return total


def gradient_via_adjoint(model: ModelSpec, initial: ParticleEnsemble, controls: ControlProfile) -> np.ndarray:
    """Per-step gradient of every player's discrete cost in its own control, as an (N_T, N) array.

    Returns g[l, i] = alpha(t_l) u_{l,i} + phi^i_i(t_{l+1}). Pairing the step-l
    control with the costate at the step's right endpoint is what makes g
    exactly (1/dt) dV_i/du_{l,i} for the Euler-discretized cost.
    """
    costates = solve_adjoint(model, simulate_state(model, initial, controls))
    return alpha_at(model, controls.times[:-1])[:, None] * controls.values + _own(costates)


def _own(costates: np.ndarray) -> np.ndarray:
    """phi^i_i(t_{l+1}) as an (N_T, N) array: each player's costate of its own state."""
    return np.diagonal(costates, axis1=1, axis2=2)[1:]


def nash_sweep(
    model: ModelSpec,
    initial: ParticleEnsemble,
    horizon: float,
    dt: float,
    params: FixedPointParams = SWEEP,
) -> NashResult:
    """Damped fixed-point iteration with Anderson mixing on the stationarity system of all N players on [0, horizon].

    Each sweep simulates the state forward, solves every player's costate
    backward, and forms the damped image: the controls relaxed with the weight
    theta = ``params.theta`` in (0, 1], 0.5 in ``SWEEP``, towards the best
    response u_{l,i} = -phi^i_i(t_{l+1}) / alpha(t_l); at theta = 1 the image
    is the best response itself. The residual max |alpha u + phi^i_i| does not
    depend on theta: it is the exact sup-norm of the discrete cost gradients,
    so it vanishes precisely at a stationary (open-loop Nash) point; the
    sweep stops once it is at most the tolerance.

    ``_anderson.solve`` runs the iteration; ``accelerated_steps``,
    ``rejected_steps`` and ``restarts`` of the result count the mixed controls
    used and refused and the growth restarts. Non-convergence is reported,
    never raised: a sweep after the first that diverges (``DivergenceError``
    from the state, ``NumericalError`` from a costate) refuses mixed controls
    for their damped image, and ends the iteration unconverged at the last
    finite iterate otherwise. The first sweep runs the uncontrolled system; if
    that diverges there is no iterate to report and the error propagates.
    """
    n_steps, times = time_grid(horizon, dt)
    weights = alpha_at(model, times[:-1])[:, None]

    # the mixer gets the iterate player-major: its Gram-Schmidt dot products sum in flattening order
    def sweep(iterate: np.ndarray, theta: float) -> tuple[np.ndarray, float, tuple]:
        profile = ControlProfile(iterate.T, times)
        trajectory = simulate_state(model, initial, profile)
        costates = solve_adjoint(model, trajectory)
        controls, own = profile.values, _own(costates)
        residual = float(np.max(np.abs(weights * controls + own)))
        image = (1.0 - theta) * controls + theta * (-own / weights)
        return image.T, residual, (profile, trajectory, costates)

    (_, (profile, trajectory, costates)), run = solve(sweep, np.zeros((initial.n, n_steps)), params)
    return NashResult(**vars(run), controls=profile, trajectory=trajectory, costates=costates)
