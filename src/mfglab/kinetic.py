"""First-order finite-volume solver for the nonlocal best-reply transport equation.

The particle system under the best-reply control has the mean-field limit

    d/dt m + d/dx ( m * c(x, m, t) ) = 0,
    c(x, m, t) = F(x, m) - (1/alpha(t)) dH/dx (x, m),

a 1D conservation law with a velocity that is recomputed from the current
density every step. The scheme is conservative upwind with zero-flux
boundaries on a truncated domain:

    m_k <- m_k - (dt/dx) (G_{k+1/2} - G_{k-1/2}),
    G = c * m_upwind,   G = 0 at the two boundary faces.

Under the CFL restriction dt * max|c| / dx <= 0.9 the update is monotone and
positivity preserving; total mass is conserved exactly by telescoping.

One march serves ``solve_kinetic`` and the game system's forward equation
(``mfg.fp_forward``). It sets up the quadratures of F and dH/dx once, takes
both from one call per step, and works on raw rows of cell averages: each
step checks the CFL restriction with dt * max|c| / dx, moves the row, and
keeps a new row whose minimum is nonnegative and whose mass is within
``MASS_TOL`` of 1. Any other row is clipped or rejected by the checks of
``DensityGrid``. The result is bit for bit the loop of ``velocity_field`` and
``step_upwind`` calls it replaces: the steps call numpy's reductions
directly, with the elementwise operations of those calls in their order. A
dense quadrature that overflowed leaves inf or nan in the velocity without a
numpy warning, and the CFL check reports it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CFLError
from .grids import MASS_TOL, DensityGrid, DensityTrajectory, SpaceGrid, _checked_rows, time_grid
from .model import ModelSpec, _quadrature, alpha_at, mean_field_cost_grad, mean_field_drift

__all__ = ["velocity_field", "step_upwind", "solve_kinetic", "cfl_time_step", "CFL_NUMBER"]

CFL_NUMBER = 0.9


def velocity_field(model: ModelSpec, m: DensityGrid, t: float) -> np.ndarray:
    """Face velocities c = F(x, m) - (1/alpha(t)) dH/dx (x, m) at the M+1 cell faces."""
    faces = m.grid.faces()
    drift_part = mean_field_drift(model, faces, m)
    slope_part = mean_field_cost_grad(model, faces, m)
    return drift_part - slope_part / alpha_at(model, t)


def step_upwind(m: DensityGrid, face_velocity: np.ndarray, dt: float) -> DensityGrid:
    """One conservative upwind step with zero-flux boundary faces.

    Under the face-wise CFL restriction the update is positivity preserving for
    velocity fields whose sign changes are resolved by the grid (any field
    sampled from a continuous velocity, in particular ``velocity_field``
    output). A genuinely negative result raises through ``DensityGrid``.
    """
    grid = m.grid
    face_velocity = np.asarray(face_velocity, dtype=float)
    if face_velocity.shape != (grid.cells + 1,):
        raise ValueError(f"expected {grid.cells + 1} face velocities, got {face_velocity.shape}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return DensityGrid(grid, _upwind(grid, m.cell_averages, face_velocity, dt))


def _upwind(grid: SpaceGrid, values: np.ndarray, face_velocity: np.ndarray, dt: float) -> np.ndarray:
    """The cell averages after one upwind step, unchecked; raises ``CFLError`` naming the worst face.

    The CFL test takes dt * max|c| / dx, which is the largest Courant number
    bit for bit, since rounding is monotone; the Courant array is built only
    to name the face of a violation.
    """
    dx = grid.dx
    if not dt * np.maximum.reduce(np.abs(face_velocity)) / dx <= CFL_NUMBER + 1e-12:  # a NaN velocity fails too
        courant = dt * np.abs(face_velocity) / dx
        worst = int(np.argmax(courant))
        raise CFLError(
            f"CFL violated: dt*|c|/dx = {courant[worst]:.4f} > {CFL_NUMBER} at face {worst} "
            f"(x = {grid.faces()[worst]:.6g})",
            face=worst,
        )
    flux = np.zeros(grid.cells + 1)
    inner = face_velocity[1:-1]
    np.multiply(inner, np.where(inner > 0.0, values[:-1], values[1:]), out=flux[1:-1])
    return values - (dt / dx) * (flux[1:] - flux[:-1])


def _march(model: ModelSpec, m0: DensityGrid, times: np.ndarray, dt: float,
           value_slopes: np.ndarray | None = None, where: str = "") -> np.ndarray:
    """Cell averages of the upwind march from m0 along the time grid, one row per time.

    Step l moves the density with face velocity F(x, m_l) - S_l / alpha(t_l):
    S_l is row l of ``value_slopes`` when given, and dH/dx (x, m_l) otherwise.
    F and dH/dx come from one quadrature set up for the march
    (``model._quadrature``), one call per step, bit for bit ``velocity_field``;
    given value slopes are divided by their weights once, for all steps.
    A new row whose minimum is nonnegative and whose mass is within
    ``MASS_TOL`` of 1 is kept as it is; any other row goes through
    ``_checked_rows``, which clips it or raises as ``DensityGrid`` does. A CFL
    violation, an overflowed velocity included, raises ``CFLError`` with the
    step index, its message prefixed by ``where``; a dt that is not positive
    raises ``ValueError`` before the first step.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = m0.grid
    dx = grid.dx
    quantities = ("drift",) if value_slopes is not None else ("drift", "cost_grad")
    velocity = _quadrature(model, quantities, grid.faces(), grid)
    weights = alpha_at(model, times[:-1])
    if value_slopes is not None:
        value_slopes = value_slopes / weights[:, None]
    data = np.empty((times.size, grid.cells))
    data[0] = m0.cell_averages
    for step, weight in enumerate(weights.tolist()):
        parts = velocity(data[step][None, :] * dx)
        if value_slopes is None:
            face_velocity = parts[0][0] - parts[1][0] / weight
        else:
            face_velocity = parts[0][0] - value_slopes[step]
        try:
            values = _upwind(grid, data[step], face_velocity, dt)
        except CFLError as err:
            raise CFLError(f"{where}step {step}: {err}", step=step, face=err.face) from None
        if np.minimum.reduce(values) >= 0.0 and abs(np.add.reduce(values) * dx - 1.0) <= MASS_TOL:
            data[step + 1] = values
        else:
            data[step + 1] = _checked_rows(grid, values)
    return data


def solve_kinetic(model: ModelSpec, m0: DensityGrid, horizon: float, dt: float) -> DensityTrajectory:
    """March the best-reply transport equation on [0, horizon].

    The velocity is rebuilt from the current density before every step and the
    CFL restriction is re-checked; a violation raises ``CFLError`` carrying the
    step index so the caller can halve dt and retry.
    """
    _, times = time_grid(horizon, dt)
    return DensityTrajectory(m0.grid, times, _march(model, m0, times, dt))


def cfl_time_step(model: ModelSpec, m0: DensityGrid, horizon: float, safety: float = 0.85) -> float:
    """Largest dt dividing the horizon with initial Courant number <= safety.

    The per-step check in the solvers still guards against velocity growth
    along the run. Raises ``CFLError`` when the initial speed max |c| is not
    finite, as no dt can resolve it.
    """
    vmax = float(np.max(np.abs(velocity_field(model, m0, 0.0))))
    if not math.isfinite(vmax):
        raise CFLError(f"the initial face speed max |c| is {vmax}, so no time step meets the CFL restriction")
    n_steps = max(1, math.ceil(horizon * vmax / (safety * m0.grid.dx)))
    return horizon / n_steps
