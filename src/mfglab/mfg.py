"""Coupled mean-field game system, and the short-horizon gap of its value to the running cost.

The value function v(t, x) and the agent density m(t, x) solve

    d/dt v + F(x, m) d/dx v - (1/(2 alpha)) (d/dx v)^2 = -H(x, m),   v(T, .) = 0,
    d/dt m + d/dx ( (F(x, m) - (1/alpha) d/dx v) m ) = 0,            m(0, .) = m0,

a backward Hamilton-Jacobi equation coupled to a forward continuity equation.
Discretization: v lives at cell centers, m as cell averages. The transport
term F d/dx v is upwinded against the sign of F in backward time; the
quadratic Hamiltonian uses a monotone local Lax-Friedrichs form with slice
viscosity max|d/dx v| / alpha. The forward equation reuses the conservative
upwind machinery with face velocity F - (1/alpha) * (two-point difference of v).

The backward march, the best-reply feedback and the running cost know their
whole density path in advance, so they take their quadratures for all slices
at once (see ``model``), bit for bit the per-slice values: the backward march
F and H together from one quadrature of both, the others one each. The
backward steps call numpy's reductions directly and keep the elementwise
operations of the per-slice scheme in their order. The forward march computes
each slice from the one before; it is the march of ``kinetic``, with F's
quadrature set up once and the value slopes for all slices taken in one
difference and divided by alpha once.

The coupled system is solved by Anderson-mixed Picard iteration on the
density path: ``_anderson.solve``, the loop shared with the Nash sweep, mixes
the images (1 - theta) m + theta P(m), theta in (0, 1], 1 in ``PICARD``,
where P(m) is the density march under the value along m. At theta = 1 the
stopping residual is the full Picard step sup_t ||P(m) - m||_L1. The solve
returns the path m it stopped on with the value its Picard map marched along
it: E evaluations cost E value marches and E + 1 density marches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._anderson import FixedPoint, FixedPointParams, solve
from .errors import CFLError, NumericalError
from .grids import DensityGrid, DensityTrajectory, SpaceGrid, _checked_rows, time_grid, uniform_dt
from .kinetic import CFL_NUMBER, _march, cfl_time_step
from .model import ModelSpec, _quadrature, _rows, _sum_ascending, alpha_at, mean_field_cost, mean_field_cost_grad


@dataclass
class ValueGrid:
    """Nodal values v(t_l, x_k) at cell centers; the terminal slice vanishes."""

    grid: SpaceGrid
    times: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.times.size, self.grid.cells):
            raise ValueError(
                f"data shape {self.data.shape} does not match {self.times.size} times x {self.grid.cells} cells"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("non-finite value entry")
        if np.any(self.data[-1] != 0.0):
            raise ValueError("terminal value slice must vanish")


PICARD = FixedPointParams(max_iterations=200, tolerance=1e-8, theta=1.0)  # theta 1: plain Picard images


@dataclass
class MFGResult(FixedPoint):
    value: ValueGrid
    densities: DensityTrajectory


@np.errstate(over="ignore", invalid="ignore")  # an overflow leaves inf or nan for the checks
def hjb_backward(model: ModelSpec, m_path: DensityTrajectory) -> ValueGrid:
    """Backward march of the value equation along a given density path.

    Explicit step from t_{l+1} to t_l, everything evaluated at the later slice:

        v_l = v_{l+1} + dt * ( F . Dv - LLF((d/dx v)^2 / (2 alpha)) + H ).

    The CFL restriction dt (max|F| + viscosity)/dx <= 0.9 is enforced per step.
    F and H come for every slice of the path at once, from one quadrature of
    both, and so do alpha, max|F| and the upwind direction of F. Each step
    tests every entry of its slice for finiteness only when the slice's sum
    is not finite.
    """
    times = m_path.times
    dt = uniform_dt(times)
    grid = m_path.grid
    dx = grid.dx
    drifts, sources = _quadrature(model, ("drift", "cost"), grid.centers(), grid)(_rows(m_path) * dx)
    weights = alpha_at(model, times[1:]).tolist()  # weights[l] at the later slice l + 1
    drift_speeds = np.maximum.reduce(np.abs(drifts), axis=1).tolist()
    forward = drifts >= 0.0
    n_slices = times.size
    data = np.zeros((n_slices, grid.cells))
    # backward and forward difference quotients, zero-slope extension at the ends:
    # two overlapping views of the slopes padded with one zero on each side
    padded = np.zeros(grid.cells + 1)
    p_minus, p_plus, slopes = padded[:-1], padded[1:], padded[1:-1]
    for step in range(n_slices - 2, -1, -1):
        weight = weights[step]
        f = drifts[step + 1]
        v_next = data[step + 1]
        np.subtract(v_next[1:], v_next[:-1], out=slopes)
        slopes /= dx
        viscosity = np.maximum.reduce(np.abs(slopes)) / weight
        speed = drift_speeds[step + 1] + viscosity
        if dt * speed / dx > CFL_NUMBER + 1e-12:
            raise CFLError(
                f"value march: dt*(|F|+viscosity)/dx = {dt * speed / dx:.4f} > {CFL_NUMBER} "
                f"at step {step}",
                step=step,
            )
        transport_slope = np.where(forward[step + 1], p_plus, p_minus)
        p_avg = 0.5 * (p_minus + p_plus)
        hamiltonian = p_avg * p_avg / (2.0 * weight) - 0.5 * viscosity * (p_plus - p_minus)
        np.add(v_next, dt * (f * transport_slope - hamiltonian + sources[step + 1]), out=data[step])
        if not math.isfinite(np.add.reduce(data[step])) and not np.isfinite(data[step]).all():
            raise NumericalError(f"non-finite value slice at step {step}")
    return ValueGrid(grid, times.copy(), data)


def fp_forward(model: ModelSpec, value: ValueGrid, m0: DensityGrid) -> DensityTrajectory:
    """Forward continuity march with face velocity F(x, m) - (1/alpha) d/dx v."""
    if m0.grid != value.grid:
        raise ValueError("density and value must share the grid")
    times = value.times
    grid = value.grid
    dv = np.zeros((times.size - 1, grid.cells + 1))
    dv[:, 1:-1] = np.diff(value.data[:-1], axis=1) / grid.dx
    data = _march(model, m0, times, uniform_dt(times), dv, where="density march, ")
    return DensityTrajectory(grid, times.copy(), data)


def mfg_fixed_point(
    model: ModelSpec,
    m0: DensityGrid,
    horizon: float,
    dt: float,
    params: FixedPointParams = PICARD,
) -> MFGResult:
    """Anderson-mixed Picard iteration on the density path of the coupled system on [0, horizon].

    Starts from the transport of m0 by F alone. Each iteration solves the value
    backward along the current path and the density forward under that value,
    and forms the image: the two paths mixed slice-wise with the weight
    theta = ``params.theta`` in (0, 1], 1 in ``PICARD``, each slice renormalized
    to unit mass. The residual is the largest L1 distance between the current
    path and its image at any time slice; at theta = 1 that is the full
    Picard step, at theta < 1 theta times it. The iteration stops once
    the residual is at most the tolerance and returns the path it stopped on,
    with the value its iteration marched along that path and the path's own
    residual; no march is repeated.

    ``_anderson.solve`` runs the iteration, its mixed paths renormalized
    slice-wise and refused when an entry is negative, so every evaluated path
    has nonnegative unit-mass slices; ``accelerated_steps``, ``rejected_steps``
    and ``restarts`` of the result count the mixed paths used and refused and
    the growth restarts. Non-convergence is reported through the flag, never
    raised: a ``NumericalError`` along an image ends the iteration unconverged.
    """
    n_steps, times = time_grid(horizon, dt)
    grid = m0.grid
    zero_value = ValueGrid(grid, times, np.zeros((n_steps + 1, grid.cells)))

    def picard(x: np.ndarray, theta: float) -> tuple[np.ndarray, float, ValueGrid]:
        value = hjb_backward(model, DensityTrajectory(grid, times.copy(), x))
        image = _unit_slices((1.0 - theta) * x + theta * fp_forward(model, value, m0).data, grid.dx)
        return image, float(np.max(np.sum(np.abs(image - x), axis=1) * grid.dx)), value

    (x, value), run = solve(picard, fp_forward(model, zero_value, m0).data, params,
                            admit=lambda x: _unit_slices(x, grid.dx) if x.min() >= 0.0 else None)
    return MFGResult(**vars(run), value=value, densities=DensityTrajectory(grid, times.copy(), x))


def _unit_slices(data: np.ndarray, dx: float) -> np.ndarray:
    """Each row of a density path rescaled to unit mass."""
    return data / (np.sum(data, axis=1) * dx)[:, None]


def proposition2_gap(
    model: ModelSpec,
    m0: DensityGrid,
    dt: float,
    params: FixedPointParams = PICARD,
) -> float:
    """Distance between the one-window game value and its short-horizon surrogate.

    Solves the full coupled system of the same model on the single window
    [0, dt], passed as the horizon, with terminal value zero and returns
    sup_x | v(0, x)/dt - H(x, m0) |. The value is normalized per unit of
    window time, the scale on which the short-horizon expansion
    v(0, .) ~ dt * H(., m0) lives; the gap is O(dt) down to the spatial
    discretization floor. The window takes the steps of ``cfl_time_step`` at
    safety 0.45, two at least. Raises ``CFLError`` when the initial speed is
    not finite, as ``cfl_time_step`` does, and ``NumericalError`` when the
    solve does not converge.
    """
    n_sub = max(2, round(dt / cfl_time_step(model, m0, dt, safety=0.45)))
    result = mfg_fixed_point(model, m0, dt, dt / n_sub, params)
    result.require(f"coupled solve on the window [0, {dt}]")
    surrogate = np.asarray(mean_field_cost(model, m0.grid.centers(), m0))
    return float(np.max(np.abs(result.value.data[0] / dt - surrogate)))


# ---------------------------------------------------------------------------
# feedback-control diagnostics


def feedback_controls_from_value(model: ModelSpec, value: ValueGrid) -> np.ndarray:
    """Game feedback u = -(1/alpha) d/dx v at the nodes (central differences)."""
    dx = value.grid.dx
    slopes = np.gradient(value.data, dx, axis=1)
    weights = alpha_at(model, value.times)
    return -slopes / weights[:, None]


def feedback_controls_best_reply(model: ModelSpec, m_path: DensityTrajectory) -> np.ndarray:
    """Myopic feedback u = -(1/alpha) dH/dx (x, m(t)) at the nodes."""
    slopes = mean_field_cost_grad(model, m_path.grid.centers(), m_path)
    weights = alpha_at(model, m_path.times)
    return -slopes / weights[:, None]


@np.errstate(over="ignore", invalid="ignore")  # a cost beyond the floats is reported as inf
def total_running_cost(model: ModelSpec, m_path: DensityTrajectory, controls: np.ndarray) -> float:
    """Population cost integral of (alpha/2) u^2 + H(x, m) against m dx dt (left rule).

    The cell masses m dx, each at most 1, multiply the running cost before it
    is summed over the cells, so the sums overflow only when the integral does;
    the per-step integrals are then added in ascending step order.
    """
    controls = np.asarray(controls, dtype=float)
    if controls.shape != m_path.data.shape:
        raise ValueError("controls must be given at every (time, cell) node")
    dt = uniform_dt(m_path.times)
    masses = _checked_rows(m_path.grid, m_path.data)[:-1] * m_path.grid.dx
    costs = mean_field_cost(model, m_path.grid.centers(), m_path)
    weights = alpha_at(model, m_path.times[:-1])
    running = 0.5 * weights[:, None] * controls[:-1] ** 2 + costs[:-1]
    return float(_sum_ascending(dt * np.sum(running * masses, axis=1)))
