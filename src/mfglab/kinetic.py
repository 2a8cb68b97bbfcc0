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
(``mfg.fp_forward``). It sets up the quadratures of F and dH/dx once and works
on raw rows of cell averages: each step checks the CFL restriction, moves the
row and checks and clips the new row as ``DensityGrid`` does, bit for bit
the loop of ``velocity_field`` and ``step_upwind`` calls it replaces.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CFLError
from .grids import DensityGrid, DensityTrajectory, SpaceGrid, _checked_rows, time_grid
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
    return DensityGrid(grid, _upwind(grid, m.cell_averages, face_velocity, dt))


def _upwind(grid: SpaceGrid, values: np.ndarray, face_velocity: np.ndarray, dt: float) -> np.ndarray:
    """The cell averages after one upwind step, unchecked; raises ``CFLError`` naming the worst face."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    courant = dt * np.abs(face_velocity) / grid.dx
    worst = int(np.argmax(courant))
    if not courant[worst] <= CFL_NUMBER + 1e-12:  # a NaN velocity fails too
        raise CFLError(
            f"CFL violated: dt*|c|/dx = {courant[worst]:.4f} > {CFL_NUMBER} at face {worst} "
            f"(x = {grid.faces()[worst]:.6g})",
            face=worst,
        )
    flux = np.zeros(grid.cells + 1)
    inner = face_velocity[1:-1]
    upwind = np.where(inner > 0.0, values[:-1], values[1:])
    flux[1:-1] = inner * upwind
    return values - (dt / grid.dx) * (flux[1:] - flux[:-1])


def _march(model: ModelSpec, m0: DensityGrid, times: np.ndarray, dt: float,
           value_slopes: np.ndarray | None = None, where: str = "") -> np.ndarray:
    """Cell averages of the upwind march from m0 along the time grid, one row per time.

    Step l moves the density with face velocity F(x, m_l) - S_l / alpha(t_l):
    S_l is row l of ``value_slopes`` when given, and dH/dx (x, m_l) otherwise.
    F and dH/dx come from quadratures set up once for the march
    (``model._quadrature``), bit for bit ``velocity_field``. Every new row is
    checked and clipped as ``DensityGrid`` does. A CFL violation raises
    ``CFLError`` with the step index, its message prefixed by ``where``.
    """
    grid = m0.grid
    faces = grid.faces()
    drift = _quadrature(model, "drift", faces, grid)
    slope = _quadrature(model, "cost_grad", faces, grid) if value_slopes is None else None
    weights = [alpha_at(model, float(t)) for t in times[:-1]]
    data = np.empty((times.size, grid.cells))
    data[0] = m0.cell_averages
    for step, weight in enumerate(weights):
        masses = data[step][None, :] * grid.dx
        slopes = value_slopes[step] if slope is None else slope(masses)[0]
        face_velocity = drift(masses)[0] - slopes / weight
        try:
            values = _upwind(grid, data[step], face_velocity, dt)
        except CFLError as err:
            raise CFLError(f"{where}step {step}: {err}", step=step, face=err.face) from None
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


def _initial_speed(model: ModelSpec, m0: DensityGrid) -> float:
    """max |c| over the faces at time 0; raises ``CFLError`` when it is not finite, as no dt can resolve it."""
    vmax = float(np.max(np.abs(velocity_field(model, m0, 0.0))))
    if not math.isfinite(vmax):
        raise CFLError(f"the initial face speed max |c| is {vmax}, so no time step meets the CFL restriction")
    return vmax


def cfl_time_step(model: ModelSpec, m0: DensityGrid, horizon: float, safety: float = 0.85) -> float:
    """Largest dt dividing the horizon with initial Courant number <= safety.

    The per-step check in the solvers still guards against velocity growth
    along the run. Raises ``CFLError`` when the initial speed is not finite.
    """
    vmax = _initial_speed(model, m0)
    if vmax == 0.0:
        return horizon
    n_steps = max(1, math.ceil(horizon * vmax / (safety * m0.grid.dx)))
    return horizon / n_steps
