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

One loop, ``_march_stack``, is the package's only explicit Euler update. It
integrates an (S, N) stack of states, one row per seed, under a control law
``law(step, t, x) -> (drift, u)``: each step evaluates the law on the whole
stack once, moves every row by x + dt (f(X) + u) and checks the stack with one
max |x|, and every row gets the bits of a separate run. ``_best_reply`` is the
law above; ``integrate_brs`` is its one-row case, and ``mpc_step_taylor`` and
``mpc_step_exact`` are one step of it. ``nash.simulate_state`` marches the
open-loop law of a fixed control profile through the same loop. Paths are
time first: the loop writes step l's controls to row l as it writes the
state after it to row l + 1, so a ``ControlProfile`` holds values[l, i] and a
``ParticleTrajectory`` positions[l, i].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DivergenceError
from .grids import time_grid
from .model import ControlProfile, ModelSpec, ParticleEnsemble, _particle_velocity, alpha_at, cost_grad_vector

DEFAULT_BLOW_UP_BOUND = 1e6

# law(step, t, x) -> (drift, u) of an (S, N) stack x at step ``step``, time t
Law = Callable[[int, float, np.ndarray], tuple[np.ndarray, np.ndarray]]


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
        return ParticleEnsemble(self.positions[step].copy())

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]


def brs_control(model: ModelSpec, ensemble: ParticleEnsemble, t: float) -> np.ndarray:
    """Steepest-descent control u_i = -(1/alpha(t)) d h_i / d x_i."""
    return -cost_grad_vector(model, ensemble.positions) / alpha_at(model, t)


def mpc_step_exact(
    model: ModelSpec,
    ensemble: ParticleEnsemble,
    t: float,
    dt: float,
) -> tuple[np.ndarray, ParticleEnsemble]:
    """One receding-horizon step with the end-of-step control weight alpha(t+dt).

    The returned control solves the per-particle quadratic subproblem exactly;
    its slope ``model.cost.dx`` was checked against ``model.cost.value`` when
    the model was built. Raises ``DivergenceError`` when a new position is not finite.
    """
    return _one_step(model, ensemble, t, dt, "exact")


def mpc_step_taylor(
    model: ModelSpec,
    ensemble: ParticleEnsemble,
    t: float,
    dt: float,
) -> tuple[np.ndarray, ParticleEnsemble]:
    """One receding-horizon step with the start-of-step weight alpha(t); O(dt) from exact."""
    return _one_step(model, ensemble, t, dt, "taylor")


def _one_step(model: ModelSpec, ensemble: ParticleEnsemble, t: float, dt: float,
              scheme: str) -> tuple[np.ndarray, ParticleEnsemble]:
    """One step of ``_march_stack`` from ``ensemble`` at time t; only a non-finite position stops it."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    controls, positions = _march_stack(ensemble.positions[None], [t], dt, _best_reply(model, scheme, dt), math.inf)
    return controls[0], ParticleEnsemble(positions[0])


def _best_reply(model: ModelSpec, scheme: str, dt: float) -> Law:
    """The best-reply law u = -(d h_i / d x_i) / alpha with alpha at t ("taylor") or t + dt ("exact").

    Drift and slopes of the stack come from one ``model._particle_velocity`` evaluation.
    """
    exact = scheme == "exact"

    def law(step: int, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        drift_rows, slopes = _particle_velocity(model, x)
        return drift_rows, -slopes / alpha_at(model, t + dt if exact else t)

    return law


def _march_stack(x: np.ndarray, starts: Iterable[float], dt: float, law: Law, blow_up_bound: float,
                 where: Callable[[int], str] = lambda row: "", path: np.ndarray | None = None,
                 controls: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler steps x + dt (f + u) of an (S, N) stack of states, one step from each time of ``starts``.

    Each step takes ``(f, u) = law(step, t, x)`` for the whole stack and
    moves every row, all under one ``np.errstate``. It writes the new stack to
    ``path[step + 1]`` and the controls to ``controls[step]`` when they are
    given, and returns the last step's controls and the final stack. Each
    step takes one max |x| over the stack. When it exceeds ``blow_up_bound``
    or is not finite (an infinite bound stops only that), ``DivergenceError``
    names the step, t and the first row that failed there, its message
    prefixed by ``where(row)``.
    """
    bound = min(blow_up_bound, sys.float_info.max)  # an infinite position exceeds even an infinite bound
    with np.errstate(over="ignore", invalid="ignore"):
        for step, t in enumerate(starts):
            drift_rows, u = law(step, t, x)
            x = x + dt * (drift_rows + u)
            if not np.maximum.reduce(np.abs(x), axis=None) <= bound:
                raise _divergence(x, bound, dt, step, t, where)
            if path is not None:
                path[step + 1] = x
            if controls is not None:
                controls[step] = u
    return u, x


def _divergence(x: np.ndarray, blow_up_bound: float, dt: float, step: int, t: float,
                where: Callable[[int], str]) -> DivergenceError:
    """The error for the first row of a stack that is not finite or exceeds the bound after a step."""
    worst = np.abs(x).max(axis=-1)
    row = int(np.argmax(~(worst <= blow_up_bound)))
    at = f"at step {step + 1} (t={t + dt:.6g})"
    if not np.isfinite(x[row]).all():
        return DivergenceError(f"{where(row)}an explicit Euler step of size {dt} left the finite numbers {at}")
    return DivergenceError(f"{where(row)}|x| reached {worst[row]:.3e} > bound {blow_up_bound:.3e} {at}")


def integrate_brs(
    model: ModelSpec,
    initial: ParticleEnsemble,
    horizon: float,
    dt: float,
) -> tuple[ParticleTrajectory, ControlProfile]:
    """Run the best-reply particle system on [0, horizon] with explicit Euler steps.

    The control weight is alpha(t_l), the piecewise-constant best-reply
    discretization. The steps are those of ``_march_stack`` on a one-row
    stack, bit for bit chained ``mpc_step_taylor`` calls. Raises
    ``DivergenceError`` as soon as any |x_i| exceeds ``DEFAULT_BLOW_UP_BOUND``.
    """
    n_steps, times = time_grid(horizon, dt)
    positions = np.empty((n_steps + 1, initial.n))
    controls = np.empty((n_steps, initial.n))
    positions[0] = initial.positions
    _march_stack(initial.positions[None], map(float, times[:-1]), dt, _best_reply(model, "taylor", dt),
                 DEFAULT_BLOW_UP_BOUND, path=positions[:, None], controls=controls[:, None])
    return ParticleTrajectory(times, positions), ControlProfile(controls, times)
