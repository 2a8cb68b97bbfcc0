"""Interaction models: pairwise drift/cost kernels and their particle and mean-field evaluations.

The interacting system couples N scalar states through a drift kernel P and a
pairwise cost kernel phi:

    f_i(X) = (1/N)   sum_j      P(x_i, x_j) (x_j - x_i)
    h_i(X) = (1/(N-1)) sum_{j != i} phi(x_i, x_j)

Mean-field counterparts replace the sums by integrals against a density m:

    F(x, m)      = integral P(x, y) (y - x) m(y) dy
    dH/dx (x, m) = integral d_x phi(x, y) m(y) dy

A ``ModelSpec`` holds only the interaction (kernels and control weight): the
particle functions read N from the ensemble, and the solvers take the horizon
as an argument, so one model serves the game, every receding window and the
best-reply limit. Every particle function evaluates all N players at once:
``drift``, ``cost`` and ``cost_grad_vector`` return length-N vectors, and
``drift_jacobian`` and ``cost_gradient_full`` the N x N matrices
J[k, j] = d f_k / d x_j and G[i, j] = d h_i / d x_j, whose diagonal is
``cost_grad_vector``.

Reproducibility contract:

* Every sum over particles or grid cells runs in ascending index order
  (``_sum_ascending``), so a run repeats bit for bit.
* A kernel that is a polynomial ``sum_ab C[a, b] x^a y^b`` may carry its
  coefficient table (``ModelSpec.drift_poly``, ``ModelSpec.cost_poly``). Then
  ``drift``, ``cost_grad_vector`` and the three mean-field
  quadratures take the structured path: power moments of the ensemble about
  its mean, or of the density about the grid midpoint, reduce the O(N^2) pair
  sums to O(N deg^2) and the quadratures to O(M deg^2) per call.
* The structured and dense paths agree to round-off, not bitwise.
  ``consensus_model`` and ``polynomial_model`` take the structured path;
  ``bounded_confidence_model`` has no table and always takes the dense one.
  ``cost``, ``cost_gradient_full`` and ``drift_jacobian`` are always dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grids import DensityGrid, uniform_dt

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

FD_STEP = 1e-6  # central-difference step of the construction-time derivative check
TABLE_RTOL = 1e-12  # agreement a coefficient table must show with its kernels
# Agreement each derivative kernel must show with central differences of its
# kernel, relative to max(1, largest |kernel| or |derivative| on the mesh). The
# bounded-confidence window is only C1: across the jump of its second
# derivative at a band edge, a central difference misses by up to
# 3 * FD_STEP / eps^2 for band width eps. The narrowest band that reaches a
# sample distance (0.55 at radius 0.55, eps = 0.0275) bounds that by 4e-3
# (2.0e-3 measured), so 1e-2 accepts every radius, while a sign error or a
# factor 2 misses by the size of the derivative itself (49 at radius 0.56).
DERIVATIVE_RTOL = 1e-2
# the 4 x 4 mesh of sample points where the derivative kernels and tables are checked
_SAMPLE_X, _SAMPLE_Y = (g.ravel() for g in np.meshgrid([-0.9, -0.35, 0.2, 0.75], [-0.9, -0.35, 0.2, 0.75]))


@dataclass(frozen=True)
class ModelSpec:
    """One interaction model: drift and cost kernels, their derivatives and the control weight.

    The particle count comes from the ensemble and the horizon from the
    solver call, so one model serves every N and every window length.

    Kernels must accept numpy arrays and evaluate elementwise; the result may
    have any shape broadcastable to the inputs' common shape (constants may
    return a scalar). ``*_dx`` / ``*_dy`` are the partial derivatives in the
    first and second argument. Construction checks once that each agrees with
    central differences (step ``FD_STEP``) of its kernel at fixed sample points
    to ``DERIVATIVE_RTOL``, and raises ``ValueError`` otherwise.

    ``drift_poly`` and ``cost_poly`` are optional coefficient tables,
    ``K(x, y) = sum_ab C[a, b] x^a y^b``, of the drift and cost kernels. A
    present table selects the moment-based evaluation (see the module
    docstring). Construction checks that each table reproduces its kernel and
    derivative kernels at the sample points to ``TABLE_RTOL``, so a table left
    stale by ``dataclasses.replace`` fails loudly.
    """

    drift_kernel: Kernel
    cost_kernel: Kernel
    cost_kernel_dx: Kernel
    alpha: Callable[[float], float]
    drift_kernel_dx: Kernel
    drift_kernel_dy: Kernel
    cost_kernel_dy: Kernel
    drift_poly: np.ndarray | None = field(default=None, compare=False)
    cost_poly: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        for name, kernels in (
            ("drift", (self.drift_kernel, self.drift_kernel_dx, self.drift_kernel_dy)),
            ("cost", (self.cost_kernel, self.cost_kernel_dx, self.cost_kernel_dy)),
        ):
            table = getattr(self, f"{name}_poly")
            if table is not None:
                table = np.atleast_2d(np.array(table, dtype=float))
                if table.ndim != 2 or table.size == 0:
                    raise ValueError(f"{name}_poly must be a nonempty 2D coefficient table, got shape {table.shape}")
                table.setflags(write=False)
                object.__setattr__(self, f"{name}_poly", table)
                _check_table(name, table, kernels)
            _check_derivatives(name, *kernels)


@dataclass
class ParticleEnsemble:
    """Positions of the N particles at one time instant."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 1:
            raise ValueError("positions must be a 1D array")
        if self.positions.size < 1:
            raise ValueError("an ensemble needs at least one particle")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite particle position")
        if self.time < 0:
            raise ValueError(f"time must be nonnegative, got {self.time}")

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass
class ControlProfile:
    """Piecewise-constant controls: values[i, l] acts on [time_grid[l], time_grid[l+1])."""

    values: np.ndarray
    time_grid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        if self.time_grid.ndim != 1 or self.time_grid.size < 2:
            raise ValueError("time grid needs at least two points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite control value")
        if not np.all(np.diff(self.time_grid) > 0):
            raise ValueError("time grid must be strictly increasing")
        if abs(self.time_grid[0]) > 1e-12:
            raise ValueError(f"time grid must start at 0, got {self.time_grid[0]}")
        n_steps = self.time_grid.size - 1
        if self.values.ndim != 2 or self.values.shape[1] != n_steps:
            raise ValueError(f"values must have shape (N, {n_steps}), got {self.values.shape}")

    @property
    def n_steps(self) -> int:
        return self.time_grid.size - 1

    @property
    def dt(self) -> float:
        return uniform_dt(self.time_grid)


def alpha_at(model: ModelSpec, t: float) -> float:
    """Evaluate the control weight, insisting on positivity."""
    a = float(model.alpha(t))
    if not a > 0.0:
        raise ConfigError(f"control weight alpha({t}) = {a} must be strictly positive")
    return a


def _sum_ascending(values: np.ndarray, axis: int = -1, consume: bool = False) -> np.ndarray:
    """Strictly left-to-right summation (np.sum is pairwise, which reorders).

    With ``consume`` the accumulation overwrites ``values``; only pass arrays
    owned by the caller.
    """
    out = values if consume else None
    return np.take(np.add.accumulate(values, axis=axis, out=out), -1, axis=axis)


def _pair_eval(kernel: Kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate kernel on the full (len(x), len(y)) mesh, as a new array the caller owns."""
    shape = (x.size, y.size)
    xg = np.broadcast_to(x[:, None], shape)
    yg = np.broadcast_to(y[None, :], shape)
    vals = np.asarray(kernel(xg, yg), dtype=float)
    if vals.shape != shape or vals.base is not None or not vals.flags.writeable:
        vals = np.array(np.broadcast_to(vals, shape))
    return vals


# ---------------------------------------------------------------------------
# particle-level evaluations; N is the ensemble size, every function returns all players


def drift(model: ModelSpec, ensemble: ParticleEnsemble) -> np.ndarray:
    """Interaction drift f_i(X) = (1/N) sum_j P(x_i, x_j)(x_j - x_i), ascending j."""
    x = ensemble.positions
    if model.drift_poly is not None:
        centre, u = _centred(x)
        return _pair_sums(_drift_terms(model.drift_poly, centre), u, u) / x.size
    diff = x[None, :] - x[:, None]
    terms = np.multiply(_pair_eval(model.drift_kernel, x, x), diff, out=diff)
    return _sum_ascending(terms, axis=1, consume=True) / x.size


def _peers(x: np.ndarray) -> int:
    """N - 1, the number of peers each player's pairwise cost averages over."""
    if x.size < 2:
        raise ValueError("pairwise cost needs at least two particles")
    return x.size - 1


def _peer_mean(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    """(1/(N-1)) sum_{j != i} K(x_i, x_j) for every i, ascending j.

    The excluded diagonal enters the sum as an exact 0.0, which leaves every
    partial sum unchanged.
    """
    peers = _peers(x)
    mat = _pair_eval(kernel, x, x)
    np.fill_diagonal(mat, 0.0)
    return _sum_ascending(mat, axis=1, consume=True) / peers


def cost(model: ModelSpec, ensemble: ParticleEnsemble) -> np.ndarray:
    """Running costs h_i(X) = (1/(N-1)) sum_{j != i} phi(x_i, x_j) of all players."""
    return _peer_mean(model.cost_kernel, ensemble.positions)


def cost_grad_vector(model: ModelSpec, ensemble: ParticleEnsemble) -> np.ndarray:
    """Own-state cost slopes d h_i / d x_i = (1/(N-1)) sum_{j != i} d_x phi(x_i, x_j) of all players."""
    x = ensemble.positions
    if model.cost_poly is not None:
        return _slope_sums(model.cost_poly, x) / _peers(x)
    return _peer_mean(model.cost_kernel_dx, x)


def cost_gradient_full(model: ModelSpec, ensemble: ParticleEnsemble) -> np.ndarray:
    """Cost sensitivities G[i, j] = d h_i / d x_j; the diagonal is ``cost_grad_vector``."""
    x = ensemble.positions
    grad = _pair_eval(model.cost_kernel_dy, x, x) / _peers(x)
    np.fill_diagonal(grad, cost_grad_vector(model, ensemble))
    return grad


def drift_jacobian(model: ModelSpec, ensemble: ParticleEnsemble) -> np.ndarray:
    """Jacobian J[k, j] = d f_k / d x_j of the interaction drift."""
    x = ensemble.positions
    n = x.size
    diff = x[None, :] - x[:, None]
    p = _pair_eval(model.drift_kernel, x, x)
    dp_dx = _pair_eval(model.drift_kernel_dx, x, x)
    dp_dy = _pair_eval(model.drift_kernel_dy, x, x)
    jac = (dp_dy * diff + p) / n
    own = dp_dx * diff - p  # j-sum terms of d f_k / d x_k, the j = k entry vanishes
    np.fill_diagonal(own, 0.0)
    np.fill_diagonal(jac, _sum_ascending(own, axis=1) / n)
    return jac


# ---------------------------------------------------------------------------
# mean-field evaluations (midpoint quadrature on the grid cells)


def _quadrature(kernel: Kernel, x, m: DensityGrid, weight_shift: bool) -> np.ndarray | float:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    centers = m.grid.centers()
    vals = _pair_eval(kernel, xs, centers)
    if weight_shift:
        vals *= centers[None, :] - xs[:, None]
    integrand = vals * (m.cell_averages[None, :] * m.grid.dx)
    out = _sum_ascending(integrand, axis=1, consume=True)
    return out if np.ndim(x) else float(out[0])


def _moment_quadrature(terms, poly: np.ndarray, x, m: DensityGrid) -> np.ndarray | float:
    """Midpoint rule from the weighted power sums of the cell centers about the grid midpoint.

    ``terms(poly, centre)`` gives the integrand's table in powers of x - centre
    and y - centre.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    centre = 0.5 * (m.grid.x_min + m.grid.x_max)
    table = terms(poly, centre)
    sums = _power_sums(m.grid.centers() - centre, m.cell_averages * m.grid.dx, table.shape[1] - 1)
    out = _moment_eval(table, xs - centre, sums)
    return out if np.ndim(x) else float(out[0])


def mean_field_drift(model: ModelSpec, x, m: DensityGrid) -> np.ndarray | float:
    """F(x, m) = integral P(x, y)(y - x) m(y) dy, midpoint rule in ascending cell order."""
    if model.drift_poly is not None:
        return _moment_quadrature(_drift_terms, model.drift_poly, x, m)
    return _quadrature(model.drift_kernel, x, m, weight_shift=True)


def mean_field_cost_grad(model: ModelSpec, x, m: DensityGrid) -> np.ndarray | float:
    """d/dx of the mean-field cost: integral d_x phi(x, y) m(y) dy."""
    if model.cost_poly is not None:
        return _moment_quadrature(_slope_terms, model.cost_poly, x, m)
    return _quadrature(model.cost_kernel_dx, x, m, weight_shift=False)


def mean_field_cost(model: ModelSpec, x, m: DensityGrid) -> np.ndarray | float:
    """Mean-field running cost H(x, m) = integral phi(x, y) m(y) dy."""
    if model.cost_poly is not None:
        return _moment_quadrature(_taylor_shift, model.cost_poly, x, m)
    return _quadrature(model.cost_kernel, x, m, weight_shift=False)


# ---------------------------------------------------------------------------
# structured path: polynomial kernels evaluated from power moments


def _row_eval(kernel: Kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise kernel values as a 1D array, stretching scalar results."""
    vals = np.asarray(kernel(x, y), dtype=float)
    if vals.shape != y.shape:
        vals = np.broadcast_to(vals, y.shape)
    return vals


def _check_table(name: str, table: np.ndarray, kernels: tuple) -> None:
    """Raise unless the table reproduces the kernel and its derivatives at the samples.

    Runs with numpy's overflow and invalid-value warnings silenced: a table
    whose derivative or values overflow is named in the ``ValueError`` instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tables = (table, _poly_diff_rows(table), _poly_diff_cols(table))
        for suffix, kernel, coeffs in zip(("", "_dx", "_dy"), kernels, tables):
            got = _poly_kernel(coeffs)(_SAMPLE_X, _SAMPLE_Y)
            if not np.all(np.isfinite(got)):
                raise ValueError(
                    f"{name}_poly overflows: its {name}_kernel{suffix} is not finite at the sample points"
                )
            want = _row_eval(kernel, _SAMPLE_X, _SAMPLE_Y)
            gap = np.max(np.abs(want - got))
            if not gap <= TABLE_RTOL * max(np.max(np.abs(want)), np.max(np.abs(got))):
                raise ValueError(
                    f"{name}_poly does not reproduce {name}_kernel{suffix} at the sample points "
                    f"(largest difference {gap:.3e})"
                )


def _check_derivatives(name: str, kernel: Kernel, kernel_dx: Kernel, kernel_dy: Kernel) -> None:
    """Raise unless both derivative kernels match central differences of the kernel at the samples."""
    x, y, h = _SAMPLE_X, _SAMPLE_Y, FD_STEP
    values = [_row_eval(kernel, x + dx, y + dy) for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h))]
    for suffix, derivative, (hi, lo) in (("_dx", kernel_dx, values[:2]), ("_dy", kernel_dy, values[2:])):
        want = (hi - lo) / (2 * h)
        got = _row_eval(derivative, x, y)
        gap = np.max(np.abs(got - want))
        scale = max(1.0, *(np.max(np.abs(v)) for v in (*values, got)))
        if not gap <= DERIVATIVE_RTOL * scale:
            raise ValueError(
                f"{name}_kernel{suffix} does not match central differences of {name}_kernel "
                f"at the sample points (largest difference {gap:.3e})"
            )


def _taylor_shift(table: np.ndarray, centre: float) -> np.ndarray:
    """Table of K(centre + u, centre + v) in powers of u and v.

    Repeated synthetic division along each axis: O(deg^2) vector updates, with
    products and sums only, in a fixed order.
    """
    out = np.array(table, dtype=float)
    for view in (out, out.T):  # rows shift x, then columns shift y
        n = view.shape[0]
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                view[j] += centre * view[j + 1]
    return out


def _drift_terms(drift_poly: np.ndarray, centre: float) -> np.ndarray:
    """Table of P(x, y)(y - x) about ``centre``; the factor (v - u) is applied after the shift."""
    shifted = _taylor_shift(drift_poly, centre)
    rows, cols = shifted.shape
    out = np.zeros((rows + 1, cols + 1))
    out[:rows, 1:] += shifted
    out[1:, :cols] -= shifted
    return out


def _slope_terms(cost_poly: np.ndarray, centre: float) -> np.ndarray:
    """Table of d_x phi(x, y) about ``centre``."""
    return _taylor_shift(_poly_diff_rows(cost_poly), centre)


def _centred(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Ensemble mean (ascending sum) and the positions relative to it."""
    centre = float(_sum_ascending(x)) / x.size
    return centre, x - centre


def _power_sums(u: np.ndarray, weights, degree: int) -> np.ndarray:
    """Ascending sums sum_j w_j u_j^b for b = 0..degree."""
    powers = np.empty((degree + 1, u.size))
    powers[0] = weights
    for b in range(1, degree + 1):
        np.multiply(powers[b - 1], u, out=powers[b])
    return _sum_ascending(powers, axis=1, consume=True)


def _horner(coeffs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] at^k, elementwise, so every entry of ``at`` sees the same operations."""
    out = np.full(at.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= at
        out += c
    return out


def _moment_eval(table: np.ndarray, at: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """sum_a at^a sum_b table[a, b] sums[b], the inner sums ascending."""
    return _horner(_sum_ascending(table * sums[None, :], axis=1), at)


def _diagonal(table: np.ndarray, at: np.ndarray) -> np.ndarray:
    """K(at, at) for a table K: the anti-diagonal sums are the coefficients of at^k."""
    rows, cols = table.shape
    coeffs = np.zeros(rows + cols - 1)
    for a in range(rows):
        coeffs[a:a + cols] += table[a]
    return _horner(coeffs, at)


def _pair_sums(table: np.ndarray, u: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_j K(at_i, u_j) over all particles j, for a centred table K."""
    return _moment_eval(table, at, _power_sums(u, 1.0, table.shape[1] - 1))


def _slope_sums(cost_poly: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{j != i} d_x phi(x_i, x_j) for every particle i: all pairs minus the self pair."""
    centre, u = _centred(x)
    table = _slope_terms(cost_poly, centre)
    return _pair_sums(table, u, u) - _diagonal(table, u)


# ---------------------------------------------------------------------------
# built-in model catalogue


def _ones(x, y):
    # 0-d result; numpy broadcasting stretches it wherever the kernel is used
    return np.float64(1.0)


def _zeros(x, y):
    return np.float64(0.0)


def consensus_model(alpha: Callable[[float], float] | float = 1.0) -> ModelSpec:
    """All-to-all attraction: P == 1, phi(x, y) = (x - y)^2 / 2; both tables given (structured path)."""
    return ModelSpec(
        drift_kernel=_ones,
        cost_kernel=lambda x, y: 0.5 * (x - y) ** 2,
        cost_kernel_dx=lambda x, y: x - y,
        alpha=_as_weight(alpha),
        drift_kernel_dx=_zeros,
        drift_kernel_dy=_zeros,
        cost_kernel_dy=lambda x, y: y - x,
        drift_poly=np.array([[1.0]]),
        cost_poly=np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]]),
    )


def bounded_confidence_model(radius: float, alpha: Callable[[float], float] | float = 1.0) -> ModelSpec:
    """Attraction only within |x - y| <= radius, C1-smoothed over a band of width 0.05*radius.

    The window is not a polynomial, so the model has no tables and takes the dense path.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    eps = 0.05 * radius
    inner = radius - eps

    def smooth_window(x, y):
        r = np.abs(x - y)
        theta = np.clip((radius - r) / eps, 0.0, 1.0)
        return theta * theta * (3.0 - 2.0 * theta)

    def window_slope(x, y):
        # d/dr of the smoothstep, chain rule applied to r = |x - y|
        r = np.abs(x - y)
        theta = (radius - r) / eps
        inside = (r > inner) & (r < radius)
        return np.where(inside, -6.0 * theta * (1.0 - theta) / eps, 0.0)

    return ModelSpec(
        drift_kernel=smooth_window,
        cost_kernel=lambda x, y: 0.5 * (x - y) ** 2,
        cost_kernel_dx=lambda x, y: x - y,
        alpha=_as_weight(alpha),
        drift_kernel_dx=lambda x, y: window_slope(x, y) * np.sign(x - y),
        drift_kernel_dy=lambda x, y: window_slope(x, y) * np.sign(y - x),
        cost_kernel_dy=lambda x, y: y - x,
    )


def polynomial_model(
    drift_coeffs: np.ndarray,
    cost_coeffs: np.ndarray,
    alpha: Callable[[float], float] | float = 1.0,
) -> ModelSpec:
    """Kernels from coefficient tables: P(x,y) = sum_ab C[a,b] x^a y^b, likewise phi.

    The tables are kept as ``drift_poly`` and ``cost_poly``, so the model takes the structured path.
    """
    drift_coeffs = np.atleast_2d(np.asarray(drift_coeffs, dtype=float))
    cost_coeffs = np.atleast_2d(np.asarray(cost_coeffs, dtype=float))
    return ModelSpec(
        drift_kernel=_poly_kernel(drift_coeffs),
        cost_kernel=_poly_kernel(cost_coeffs),
        cost_kernel_dx=_poly_kernel(_poly_diff_rows(cost_coeffs)),
        alpha=_as_weight(alpha),
        drift_kernel_dx=_poly_kernel(_poly_diff_rows(drift_coeffs)),
        drift_kernel_dy=_poly_kernel(_poly_diff_cols(drift_coeffs)),
        cost_kernel_dy=_poly_kernel(_poly_diff_cols(cost_coeffs)),
        drift_poly=drift_coeffs,
        cost_poly=cost_coeffs,
    )


def _as_weight(alpha) -> Callable[[float], float]:
    if callable(alpha):
        return alpha
    value = float(alpha)
    return lambda t: value


def _poly_kernel(coeffs: np.ndarray) -> Kernel:
    def kernel(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for a in range(coeffs.shape[0]):
            for b in range(coeffs.shape[1]):
                c = coeffs[a, b]
                if c != 0.0:
                    out = out + c * x**a * y**b
        return out

    return kernel


def _poly_diff_rows(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient table of d/dx."""
    if coeffs.shape[0] == 1:
        return np.zeros((1, coeffs.shape[1]))
    rows = np.arange(1, coeffs.shape[0])
    with np.errstate(over="ignore"):  # an overflow leaves inf, which the construction check names
        return coeffs[1:, :] * rows[:, None]


def _poly_diff_cols(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient table of d/dy."""
    if coeffs.shape[1] == 1:
        return np.zeros((coeffs.shape[0], 1))
    cols = np.arange(1, coeffs.shape[1])
    with np.errstate(over="ignore"):  # an overflow leaves inf, which the construction check names
        return coeffs[:, 1:] * cols[None, :]
