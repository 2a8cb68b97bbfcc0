"""Interaction models: pairwise drift/cost kernels and their particle and mean-field evaluations.

The interacting system couples N scalar states through a drift kernel P and a
pairwise cost kernel phi:

    f_i(X) = (1/N)   sum_j      P(x_i, x_j) (x_j - x_i)
    h_i(X) = (1/(N-1)) sum_{j != i} phi(x_i, x_j)

Mean-field counterparts replace the sums by integrals against a density m:

    F(x, m)      = integral P(x, y) (y - x) m(y) dy
    dH/dx (x, m) = integral d_x phi(x, y) m(y) dy

A ``ModelSpec`` holds only the interaction: the drift and cost kernels, each
one ``PairKernel`` (its value, both partial derivatives and an optional
coefficient table), and the control weight. The particle functions read N
from the positions, and the solvers take the horizon as an argument, so one
model serves the game, every receding window and the best-reply limit. Every
particle function takes the positions of all N players, (N,) or a stack of
states (..., N), and evaluates them at once: ``drift``, ``cost`` and
``cost_grad_vector`` return (..., N), and ``drift_jacobian`` and
``cost_gradient_full`` the (..., N, N) matrices J[k, j] = d f_k / d x_j and
G[i, j] = d h_i / d x_j, whose diagonal is ``cost_grad_vector``.

Reproducibility contract:

* Every kernel sum over particles and every quadrature over grid cells runs
  in ascending index order (``_sum_ascending``, or ``_cell_sums`` for the
  dense quadratures), so a run repeats bit for bit.
* A kernel that is a polynomial ``sum_ab C[a, b] x^a y^b`` may carry its
  coefficient table (``model.drift.table``, ``model.cost.table``). Then
  ``drift``, ``cost_grad_vector`` and the three mean-field quadratures take
  the structured path. Construction compiles each table quantity once into B
  with value ``sum B[k, p, q] c^k u^p v^q`` at (c + u, c + v), exact from the
  table's binary values, rounded once, trailing exact-zero k, p and q
  trimmed (``_compile``): a translation-invariant table needs no centre. A
  sum over particles or cells is one ascending contraction of B at the
  centre (ensemble mean or grid midpoint) with the power moments about it
  and one Horner in u, O(N deg^2) or O(M deg^2) per call.
* A stack of states, (L, N), gives bit for bit the per-state calls:
  ``_pair_eval`` hands the kernel ``x[..., :, None]`` and ``y[..., None, :]``,
  and every particle function works row by row with the same elementwise
  operations and ascending sums; an array of centres gives each row the
  operator of its own centre (``_at_centre``).
* ``drift``, ``cost_grad_vector`` and ``_particle_velocity`` read their rows
  of one evaluation (``_pair_moments``), so they agree bit for bit: one set
  of power sums and one contraction for both quantities, the self pair of
  the cost slope folded in as one more moment column, of value 1.
* The structured and dense paths agree to round-off, not bitwise.
  ``consensus_model`` and ``polynomial_model`` take the structured path;
  ``bounded_confidence_model`` has no table and always takes the dense one.
  ``cost``, ``cost_gradient_full`` and ``drift_jacobian`` are always dense.
* On the dense path each mean-field quadrature evaluates its kernel matrix
  when it is set up: once per call, or once per march (below). The matrix is
  cell-major, (M, Q) in C order, one row per cell, and its sums over cells
  run strictly left to right and form no prefix sums
  (``_cell_sums``): one ``np.einsum("lk,kq->lq", weights, matrix)`` serves a
  density (L = 1) and a whole density path alike. For Q >= 2 numpy's einsum
  loop adds ``weights[l, k] * matrix[k, :]`` into each output row one cell at
  a time, in ascending k, rounding the multiply and the add separately, so
  each sum is the ascending sum bit for bit except in its sign of zero:
  einsum starts from +0.0, so a sum whose every product is -0.0 comes back
  +0.0. ``_cell_sums`` sets such an exact zero back to -0.0, testing the
  products, since a weight may be -0.0 too.
* A single query point (Q = 1) is never contracted alone: its cell axis is
  contiguous and einsum splits it into partial sums. It is summed as the
  first of two equal columns.
* einsum raises no floating-point warnings. A dense overflow leaves inf or
  nan without one, as the structured path does under ``errstate``, and the
  marches' CFL and finiteness checks report it.
* ``tests/test_model.py::TestReductionOrder`` pins this einsum loop. A numpy
  build whose einsum fuses the multiply and the add (FMA in its baseline,
  as on aarch64) rounds once per cell and fails that test.
* The three mean-field quadratures take a ``DensityTrajectory`` as well as a
  ``DensityGrid``: the path's rows are checked and clipped once as
  ``DensityGrid`` would, and the result has one row per time slice, bit for
  bit what per-slice calls give. No (M, L, Q) product is formed.
* The upwind march (``kinetic``) and the value march (``mfg.hjb_backward``)
  set their quadratures up once per march (``_quadrature``): F and dH/dx at
  the faces, fed one density row per step, and F and H at the centers, fed
  the whole path at once. The dense quantities' matrices sit side by side,
  (M, 2Q), and one ``_cell_sums`` contraction sums every column on its own;
  the structured quantities share one set of power sums of each row, one
  contraction and one Horner. So the marches repeat the per-quantity calls
  bit for bit, with one matrix per point set per march, not per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .grids import TIME_TOL, DensityGrid, DensityTrajectory, SpaceGrid, _checked_rows, uniform_dt

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
# the sample points; the derivative kernels and tables are checked on their 4 x 4 mesh
_SAMPLES = np.array([-0.9, -0.35, 0.2, 0.75])


@dataclass(frozen=True)
class PairKernel:
    """One pairwise kernel K(x, y), its partial derivatives ``dx`` and ``dy``, and optionally its coefficient table.

    The three callables must accept numpy arrays and evaluate elementwise; a
    result may have any shape broadcastable to the inputs' common shape
    (constants may return a scalar). ``table`` is the coefficient table C of a
    polynomial kernel, ``K(x, y) = sum_ab C[a, b] x^a y^b``, kept as a new
    read-only 2D float array; a present table selects the moment-based
    evaluation (see the module docstring). ``ModelSpec`` checks that the parts agree.
    """

    value: Kernel
    dx: Kernel
    dy: Kernel
    table: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.table is not None:
            table = np.array(self.table, dtype=float, ndmin=2)
            if table.ndim != 2 or table.size == 0:
                raise ValueError(f"a coefficient table must be a nonempty 2D array, got shape {table.shape}")
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @classmethod
    def polynomial(cls, coeffs) -> PairKernel:
        """The kernel of a coefficient table, its derivatives from the differentiated tables."""
        table = np.array(coeffs, dtype=float, ndmin=2)
        return cls(_poly_kernel(table), _poly_kernel(_poly_diff(table, 0)),
                   _poly_kernel(_poly_diff(table, 1)), table)


@dataclass(frozen=True)
class ModelSpec:
    """One interaction model: the drift kernel P, the cost kernel phi and the control weight alpha.

    The particle count comes from the ensemble and the horizon from the
    solver call, so one model serves every N and every window length.

    Construction checks once that each kernel's ``dx`` and ``dy`` agree with
    central differences (step ``FD_STEP``) of its ``value`` at fixed sample
    points to ``DERIVATIVE_RTOL``, and that a present table reproduces all
    three parts there to ``TABLE_RTOL``; it raises ``ValueError`` naming the
    kernel and the part otherwise, so a kernel left stale by
    ``dataclasses.replace`` fails loudly, as does a table whose compiled
    coefficients (``_compile``) exceed the floats.
    """

    drift: PairKernel
    cost: PairKernel
    alpha: Callable[[float], float]
    # "particles" and "grid" -> ``_Operator`` of the table quantities, compiled at construction
    _operators: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, kernel in (("drift", self.drift), ("cost", self.cost)):
            if kernel.table is not None:
                _check_table(name, kernel)
            _check_derivatives(name, kernel)
        object.__setattr__(self, "_operators", _compile(self.drift.table, self.cost.table))


@dataclass
class ParticleEnsemble:
    """Positions of the N particles at one time instant."""

    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 1:
            raise ValueError("positions must be a 1D array")
        if self.positions.size < 1:
            raise ValueError("an ensemble needs at least one particle")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite particle position")

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass
class ControlProfile:
    """Piecewise-constant controls: values[l, i] is player i's control on [times[l], times[l+1])."""

    values: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("time grid needs at least two points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite control value")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("time grid must be strictly increasing")
        if abs(self.times[0]) > TIME_TOL:
            raise ValueError(f"time grid must start at 0, got {self.times[0]}")
        if self.values.ndim != 2 or self.values.shape[0] != self.n_steps:
            raise ValueError(f"values must have shape ({self.n_steps}, N), got {self.values.shape}")

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> float:
        return uniform_dt(self.times)


def alpha_at(model: ModelSpec, t: float | np.ndarray) -> float | np.ndarray:
    """The control weight alpha(t), or an array of alpha at every time of an array t; each must be positive."""
    if isinstance(t, np.ndarray):
        return np.array([alpha_at(model, float(s)) for s in t])
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
    return np.add.accumulate(values, axis=axis, out=out).take(-1, axis=axis)


def _pair_eval(kernel: Kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate kernel on the full (..., len(x), len(y)) mesh, as a new array the caller owns.

    The kernel sees ``x[..., :, None]`` and ``y[..., None, :]`` and numpy
    broadcasts them, so an (L, N) stack of states gives one N x N mesh per row.
    A scalar result, or one of another shape, is copied out to the full mesh.
    """
    xg, yg = x[..., :, None], y[..., None, :]
    shape = np.broadcast(xg, yg).shape
    vals = np.asarray(kernel(xg, yg), dtype=float)
    if vals.shape != shape or vals.base is not None or not vals.flags.writeable:
        vals = np.array(np.broadcast_to(vals, shape))
    return vals


def _fill_diagonals(mats: np.ndarray, values) -> None:
    """Write ``values`` onto the diagonal of every N x N matrix of a stack, in place."""
    diagonal = np.arange(mats.shape[-1])
    mats[..., diagonal, diagonal] = values


# ---------------------------------------------------------------------------
# particle-level evaluations at positions (..., N): every function returns all N
# players, one result per state of a stack


@np.errstate(over="ignore", invalid="ignore")
def drift(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Interaction drift f_i(X) = (1/N) sum_j P(x_i, x_j)(x_j - x_i), ascending j; one row per row of a stack.

    A state too wide for floats gives entries that are not finite, with numpy's
    warnings silenced; ``controller._march_stack`` reports them as a divergence.
    """
    if model.drift.table is not None:
        return _pair_moments(model, x)[..., 0, :] / x.shape[-1]
    diff = x[..., None, :] - x[..., :, None]
    terms = np.multiply(_pair_eval(model.drift.value, x, x), diff, out=diff)
    return _sum_ascending(terms, axis=-1, consume=True) / x.shape[-1]


def _peers(x: np.ndarray) -> int:
    """N - 1, the number of peers each player's pairwise cost averages over."""
    if x.shape[-1] < 2:
        raise ValueError("pairwise cost needs at least two particles")
    return x.shape[-1] - 1


def _peer_mean(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    """(1/(N-1)) sum_{j != i} K(x_i, x_j) for every i, ascending j; one row per row of a stack of states.

    The excluded diagonal enters the sum as an exact 0.0, which leaves every
    partial sum unchanged.
    """
    peers = _peers(x)
    mat = _pair_eval(kernel, x, x)
    _fill_diagonals(mat, 0.0)
    return _sum_ascending(mat, axis=-1, consume=True) / peers


def cost(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Running costs h_i(X) = (1/(N-1)) sum_{j != i} phi(x_i, x_j) of all players; one row per row of a stack."""
    return _peer_mean(model.cost.value, x)


@np.errstate(over="ignore", invalid="ignore")
def cost_grad_vector(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Own-state cost slopes d h_i / d x_i = (1/(N-1)) sum_{j != i} d_x phi(x_i, x_j); one row per row of a stack.

    Like ``drift``, a state too wide for floats gives entries that are not finite, without a warning.
    """
    if model.cost.table is not None:
        return _pair_moments(model, x)[..., -1, :] / _peers(x)
    return _peer_mean(model.cost.dx, x)


def cost_gradient_full(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Cost sensitivities G[i, j] = d h_i / d x_j, (..., N, N); the diagonal is ``cost_grad_vector``."""
    grad = _pair_eval(model.cost.dy, x, x) / _peers(x)
    _fill_diagonals(grad, cost_grad_vector(model, x))
    return grad


def drift_jacobian(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Jacobian J[k, j] = d f_k / d x_j of the interaction drift, (..., N, N)."""
    n = x.shape[-1]
    diff = x[..., None, :] - x[..., :, None]
    p = _pair_eval(model.drift.value, x, x)
    dp_dx = _pair_eval(model.drift.dx, x, x)
    dp_dy = _pair_eval(model.drift.dy, x, x)
    jac = (dp_dy * diff + p) / n
    own = dp_dx * diff - p  # j-sum terms of d f_k / d x_k, the j = k entry vanishes
    _fill_diagonals(own, 0.0)
    _fill_diagonals(jac, _sum_ascending(own, axis=-1, consume=True) / n)
    return jac


# ---------------------------------------------------------------------------
# mean-field evaluations (midpoint quadrature on the grid cells); ``m`` is one
# density or a density path, and a path gives one result row per time slice


def _rows(m: DensityGrid | DensityTrajectory) -> np.ndarray:
    """Cell averages to integrate against: one row for a density, one row per slice of a path.

    A path's rows are checked and clipped as ``DensityGrid`` does, in one pass.
    """
    if isinstance(m, DensityTrajectory):
        return _checked_rows(m.grid, m.data)
    return m.cell_averages[None, :]


def _shaped(out: np.ndarray, x, m: DensityGrid | DensityTrajectory) -> np.ndarray | float:
    """An (L, Q) quadrature result without the row axis for a density and the point axis for a scalar x."""
    if not np.ndim(x):
        out = out[:, 0]
    if isinstance(m, DensityTrajectory):
        return out
    return out[0] if np.ndim(x) else float(out[0])


def _cell_sums(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[l, k] vals[k, q] for every row l and point q, strictly in ascending k.

    ``vals`` is cell-major, (M, Q) in C order, and ``weights`` (L, M) in C
    order. One einsum contraction adds ``weights[l, k] * vals[k, :]`` into
    each output row one cell at a time. It starts from +0.0, where the
    ascending sum starts from its first term, so an exact zero whose every
    product carries the sign bit is set back to -0.0. A single point is
    summed as the first of two equal columns, since with Q = 1 the reduced
    axis is contiguous and einsum splits it. No prefix sums, no (M, L, Q)
    product and no floating-point warnings.
    """
    if vals.shape[1] == 1:
        return _cell_sums(np.repeat(vals, 2, axis=1), weights)[:, :1]
    out = np.einsum("lk,kq->lq", weights, vals)
    if np.count_nonzero(out) < out.size:  # some sum is an exact zero, which is rare
        rows, cols = np.nonzero(out == 0.0)
        negative = np.signbit(weights[rows] * vals.T[cols]).all(axis=1)
        out[rows[negative], cols[negative]] = -0.0
    return out


def _quadrature(model: ModelSpec, quantities: tuple[str, ...], xs: np.ndarray,
                grid: SpaceGrid) -> Callable[[np.ndarray], list[np.ndarray]]:
    """The midpoint rules of mean-field quantities at the points ``xs``, set up once for the grid.

    Each of ``quantities`` is "drift", "cost_grad" or "cost". The result maps
    an (L, M) stack of weighted cell averages m dx to a list of (L, Q) sums,
    one per quantity, ascending in the cell. Each dense quantity evaluates
    its cell-major (M, Q) matrix of K(x_q, y_k) at the cell centers y_k,
    times y_k - x_q for the drift, once, at set-up; the matrices sit side by
    side, (M, K Q) in C order, and one ``_cell_sums`` contraction sums them,
    which treats every column alike. Structured quantities take their rows
    of the model's "grid" operator at the grid midpoint, once, cut to the u
    powers and moments those rows use, and share one set of power sums of
    the cell centres about it, one contraction and one Horner. Either way
    each quantity gets bit for bit what it gets alone, but for the zero terms
    of a longer row beside it, which could make +0.0 of a -0.0 or NaN of an
    inf. An overflow leaves inf or nan, without a warning, for the CFL and
    finiteness checks.
    """
    slots, matrices, picks = [], [], []
    operator = model._operators.get("grid")
    with np.errstate(over="ignore", invalid="ignore"):
        centers, centre = grid.centers(), 0.5 * (grid.x_min + grid.x_max)
        u, at = centers - centre, xs - centre
        for quantity in quantities:
            kernel_of, dense_part, weight_shift = _QUANTITIES[quantity]
            kernel = kernel_of(model)
            if kernel.table is None:
                slots.append((False, len(matrices)))
                vals = _pair_eval(dense_part(kernel), xs, centers)
                if weight_shift:
                    vals *= centers[None, :] - xs[:, None]
                matrices.append(np.ascontiguousarray(vals.T))  # each C order, so their hstack is too
            else:
                slots.append((True, len(picks)))
                picks.append(operator.quantities.index(quantity))
        if picks:
            _, _, p, m = (max(axis, default=0) + 1 for axis in np.nonzero(operator.coeffs[:, picks]))
            table = _at_centre(operator.coeffs[:, picks, :p, :m], centre)
    side_by_side = matrices[0] if len(matrices) == 1 else np.hstack(matrices) if matrices else None
    q = xs.size

    def evaluate(weights: np.ndarray) -> list[np.ndarray]:
        dense = _cell_sums(side_by_side, weights) if matrices else None
        if picks:
            with np.errstate(over="ignore", invalid="ignore"):
                moments = _contract(table, _power_sums(u, weights, table.shape[-1] - 1), at)
        return [moments[:, k] if structured else dense[:, k * q:(k + 1) * q] for structured, k in slots]

    return evaluate


def _mean_field(model: ModelSpec, quantity: str, x, m: DensityGrid | DensityTrajectory) -> np.ndarray | float:
    """One mean-field quantity at x against a density, or against every slice of a path."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return _shaped(_quadrature(model, (quantity,), xs, m.grid)(_rows(m) * m.grid.dx)[0], x, m)


def mean_field_drift(model: ModelSpec, x, m: DensityGrid | DensityTrajectory) -> np.ndarray | float:
    """F(x, m) = integral P(x, y)(y - x) m(y) dy, midpoint rule in ascending cell order."""
    return _mean_field(model, "drift", x, m)


def mean_field_cost_grad(model: ModelSpec, x, m: DensityGrid | DensityTrajectory) -> np.ndarray | float:
    """d/dx of the mean-field cost: integral d_x phi(x, y) m(y) dy."""
    return _mean_field(model, "cost_grad", x, m)


def mean_field_cost(model: ModelSpec, x, m: DensityGrid | DensityTrajectory) -> np.ndarray | float:
    """Mean-field running cost H(x, m) = integral phi(x, y) m(y) dy."""
    return _mean_field(model, "cost", x, m)


# ---------------------------------------------------------------------------
# structured path: polynomial kernels evaluated from power moments


def _check_table(name: str, kernel: PairKernel) -> None:
    """Raise unless the table reproduces the kernel and its derivatives on the sample mesh.

    Runs with numpy's overflow and invalid-value warnings silenced: a table
    whose derivative or values overflow is named in the ``ValueError`` instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        reference = PairKernel.polynomial(kernel.table)
        for part, given, from_table in zip(("value", "dx", "dy"), (kernel.value, kernel.dx, kernel.dy),
                                           (reference.value, reference.dx, reference.dy)):
            got = _pair_eval(from_table, _SAMPLES, _SAMPLES)
            if not np.all(np.isfinite(got)):
                raise ValueError(f"{name}.table overflows: its {name}.{part} is not finite at the sample points")
            want = _pair_eval(given, _SAMPLES, _SAMPLES)
            gap = np.max(np.abs(want - got))
            if not gap <= TABLE_RTOL * max(np.max(np.abs(want)), np.max(np.abs(got))):
                raise ValueError(
                    f"{name}.table does not reproduce {name}.{part} at the sample points "
                    f"(largest difference {gap:.3e})"
                )


def _check_derivatives(name: str, kernel: PairKernel) -> None:
    """Raise unless both derivatives match central differences of the kernel on the sample mesh.

    Runs with numpy's divide, overflow and invalid-value warnings silenced: a
    kernel or derivative that is not finite at the samples is named in the
    ``ValueError`` instead, since an infinite value would make any gap pass.
    """
    pts, h = _SAMPLES, FD_STEP
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # one stacked evaluation of the meshes at (x + h, y), (x - h, y), (x, y + h) and (x, y - h)
        shifted = np.stack([pts + h, pts - h, pts, pts]), np.stack([pts, pts, pts + h, pts - h])
        values = _pair_eval(kernel.value, *shifted)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name}.value is not finite at the sample points")
        for part, derivative, (hi, lo) in (("dx", kernel.dx, values[:2]), ("dy", kernel.dy, values[2:])):
            got = _pair_eval(derivative, pts, pts)
            if not np.all(np.isfinite(got)):
                raise ValueError(f"{name}.{part} is not finite at the sample points")
            want = (hi - lo) / (2 * h)
            gap = np.max(np.abs(got - want))
            scale = max(1.0, np.max(np.abs(values)), np.max(np.abs(got)))
            if not gap <= DERIVATIVE_RTOL * scale:
                raise ValueError(
                    f"{name}.{part} does not match central differences of {name}.value "
                    f"at the sample points (largest difference {gap:.3e})"
                )


class _Operator(NamedTuple):
    """``coeffs[k, s, p, m]`` weighs c^k u^p times moment m of quantity s: sum_j w_j u_j^m below ``powers``, then 1."""

    coeffs: np.ndarray
    quantities: tuple[str, ...]
    powers: int


def _expansion(table: np.ndarray) -> tuple[list, int]:
    """Integer terms ((k, p, q), E) and a power of two d: K(c + u, c + v) = sum E c^k u^p v^q / d, exactly."""
    ratios = [value.as_integer_ratio() for value in table.ravel().tolist()]
    scale = max(d for _, d in ratios)
    terms = []
    for index, (n, d) in enumerate(ratios):  # (c + u)^a (c + v)^b by binomials
        a, b = divmod(index, table.shape[1])
        terms += [((a - p + b - q, p, q), n * (scale // d) * math.comb(a, p) * math.comb(b, q))
                  for p in range(a + 1) for q in range(b + 1)]
    return terms, scale


def _rounded(terms: list, scale: int, name: str) -> np.ndarray:
    """The sum of each key's terms over scale, rounded once, in an array that just fits the nonzero ones."""
    sums = {}
    for key, n in terms:
        sums[key] = sums.get(key, 0) + n
    if any(abs(n) >= (2**1024 - 2**970) * scale for n in sums.values()):  # n / scale would round past the floats
        raise ValueError(f"{name}.table overflows: a coefficient of its expansion about a centre is not finite")
    values = {key: n / scale for key, n in sums.items() if n / scale != 0.0}  # integer division rounds correctly
    out = np.zeros([max((key[axis] + 1 for key in values), default=1) for axis in range(3)])
    for key, value in values.items():
        out[key] = value
    return out


def _compile(drift_table: np.ndarray | None, cost_table: np.ndarray | None) -> dict[str, _Operator]:
    """The operators of the table quantities P(x, y)(y - x), d_x phi and phi, for "particles" and for the "grid".

    The particle slopes drop the self pair d_x phi(x, x): its coefficients of u^(p + q) fill one more moment
    column unless all vanish. Zero padding to one shape lets any subset of the quantities evaluate bit for bit.
    """
    parts = {}
    if drift_table is not None:
        shifted, scale = _expansion(drift_table)  # times v - u
        terms = [((k, p, q + 1), n) for (k, p, q), n in shifted] + [((k, p + 1, q), -n) for (k, p, q), n in shifted]
        parts["drift"] = _rounded(terms, scale, "drift")
    if cost_table is not None:
        shifted, scale = _expansion(cost_table)
        slope = [((k, p - 1, q), p * n) for (k, p, q), n in shifted if p]  # d/du of phi(c + u, c + v)
        parts.update(cost=_rounded(shifted, scale, "cost"), cost_grad=_rounded(slope, scale, "cost"),
                     self_pair=_rounded([((k, p + q, 0), -n) for (k, p, q), n in slope], scale, "cost"))

    def stack(names: tuple[str, ...], self_pair: bool = False) -> _Operator:
        blocks = [parts[name] for name in names] + ([parts["self_pair"]] if self_pair else [])
        powers = max(parts[name].shape[2] for name in names)
        k, p = (max(block.shape[axis] for block in blocks) for axis in (0, 1))
        coeffs = np.zeros((k, len(names), p, powers + self_pair))
        for index, block in enumerate(blocks):  # the self pair goes into the last quantity's last column
            column = slice(powers, None) if index == len(names) else slice(block.shape[2])
            coeffs[:len(block), min(index, len(names) - 1), :block.shape[1], column] = block
        coeffs.setflags(write=False)
        return _Operator(coeffs, names, powers)

    return {} if not parts else {
        "particles": stack(tuple(name for name in ("drift", "cost_grad") if name in parts),
                           "self_pair" in parts and bool(parts["self_pair"].any())),
        "grid": stack(tuple(name for name in ("drift", "cost_grad", "cost") if name in parts)),
    }


def _at_centre(coeffs: np.ndarray, centre) -> np.ndarray:
    """``sum_k coeffs[k] centre^k`` by Horner, each entry of an array of centres alone; one k comes back as it is."""
    if len(coeffs) == 1:
        return coeffs[0]
    c = np.reshape(centre, np.shape(centre) + (1,) * (coeffs.ndim - 1))
    out = np.broadcast_to(coeffs[-1], np.shape(centre) + coeffs.shape[1:]).copy()
    for coeff in coeffs[-2::-1]:
        out *= c
        out += coeff
    return out


def _contract(table: np.ndarray, moments: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_p at^p sum_m table[..., s, p, m] moments[..., m], the sums over m ascending: (..., S, points)."""
    return _horner(_sum_ascending(table * moments[..., None, None, :], consume=True), at)


def _power_sums(u: np.ndarray, weights, degree: int) -> np.ndarray:
    """Ascending sums sum_j w_j u_j^b for b = 0..degree, per row of a stack of weights or of points."""
    powers = np.empty((*(np.shape(weights)[:-1] or u.shape[:-1]), degree + 1, u.shape[-1]))
    powers[..., 0, :] = weights
    for b in range(1, degree + 1):
        np.multiply(powers[..., b - 1, :], u, out=powers[..., b, :])
    return _sum_ascending(powers, axis=-1, consume=True)


def _horner(coeffs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] at^k, elementwise, so every entry of ``at`` sees the same operations.

    A stack of coefficient rows, (..., K), gives one result row per coefficient
    row: at the shared points of a 1D ``at``, or at its own row of an (..., P) ``at``.
    """
    coeffs = coeffs[..., None]
    out = np.empty(coeffs.shape[:-2] + at.shape[-1:])
    out[...] = coeffs[..., -1, :]
    for k in range(coeffs.shape[-2] - 2, -1, -1):
        out *= at
        out += coeffs[..., k, :]
    return out


def _pair_moments(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """The particle table quantities summed over j, slopes without the self pair, (..., S, N) drift first: each
    row centred on its mean (an ascending sum), with one set of power sums and one contraction."""
    operator = model._operators["particles"]
    centre = _sum_ascending(x) / x.shape[-1]
    u = (x.T - centre).T
    moments = _power_sums(u, 1.0, operator.powers - 1)
    if operator.coeffs.shape[-1] > operator.powers:  # the self pair's column, moment 1
        moments = np.concatenate((moments, np.ones_like(moments[..., :1])), axis=-1)
    return _contract(_at_centre(operator.coeffs, centre), moments, u[..., None, :])


_BATCH_ENTRIES = 2**16  # working entries of one batch: a block of Nash steps, or a stack of particle seeds


def _batches(count: int, entries: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges over ``count`` items of ``entries`` working entries each: at most
    ``_BATCH_ENTRIES`` entries per range, one item at least."""
    size = max(1, _BATCH_ENTRIES // max(1, entries))
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _row_entries(model: ModelSpec, n: int) -> int:
    """Entries of the largest array ``_particle_velocity`` forms per state row of n particles: the N x N pair
    matrix on the dense path, else N per power sum or per quantity, or the operator at the row's centre."""
    if model.drift.table is None or model.cost.table is None:
        return n * n
    operator = model._operators["particles"]
    return max(n * max(operator.powers, len(operator.quantities)), operator.coeffs[0].size)


def _particle_velocity(model: ModelSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The drift and the own-cost slopes of each row of an (S, N) stack, bit for bit ``drift`` and ``cost_grad_vector``.

    With both tables both come from one ``_pair_moments`` evaluation. Raises ``ValueError`` for fewer than two
    particles. The caller silences numpy's overflow and invalid-value warnings, as ``drift`` does.
    """
    if model.drift.table is None or model.cost.table is None:
        return drift(model, x), cost_grad_vector(model, x)
    sums = _pair_moments(model, x)
    return sums[..., 0, :] / x.shape[-1], sums[..., 1, :] / _peers(x)


# quantity -> (kernel, the part the dense path integrates, weighted by y - x)
_QUANTITIES = {
    "drift": (lambda model: model.drift, lambda kernel: kernel.value, True),
    "cost_grad": (lambda model: model.cost, lambda kernel: kernel.dx, False),
    "cost": (lambda model: model.cost, lambda kernel: kernel.value, False),
}


# ---------------------------------------------------------------------------
# built-in model catalogue


def consensus_model(alpha: Callable[[float], float] | float = 1.0) -> ModelSpec:
    """All-to-all attraction: P == 1, phi(x, y) = (x - y)^2 / 2; both tables given (structured path)."""
    # hand-written cost callables: ones built from the cost table would compute
    # 0.5 x^2 - x y + 0.5 y^2, which loses digits for close pairs
    return ModelSpec(
        drift=PairKernel.polynomial([[1.0]]),
        cost=PairKernel(lambda x, y: 0.5 * (x - y) ** 2, lambda x, y: x - y, lambda x, y: y - x,
                        table=[[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]]),
        alpha=_as_weight(alpha),
    )


def bounded_confidence_model(radius: float, alpha: Callable[[float], float] | float = 1.0) -> ModelSpec:
    """Attraction only within |x - y| <= radius, C1-smoothed over a band of width 0.05*radius.

    The window is not a polynomial, so the drift has no table. The cost carries
    none either, so every evaluation takes the dense path.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    eps = 0.05 * radius
    if not (eps > 0 and math.isfinite(1.5 / eps)):  # 1.5 / eps: the steepest window slope
        raise ValueError(f"radius {radius} gives a window slope of about 1.5 / {eps}, which a float cannot hold")
    inner = radius - eps

    def smooth_window(x, y):
        r = np.abs(x - y)
        theta = np.minimum(np.maximum(radius - r, 0.0), eps) / eps  # clipped first, so a tiny eps cannot overflow
        return theta * theta * (3.0 - 2.0 * theta)

    def window_slope(x, y):
        # d/dr of the smoothstep, chain rule applied to r = |x - y|
        r = np.abs(x - y)
        theta = np.maximum(radius - r, 0.0) / eps  # at most radius / eps = 20: a far pair cannot overflow
        inside = (r > inner) & (r < radius)
        return np.where(inside, -6.0 * theta * (1.0 - theta) / eps, 0.0)

    return ModelSpec(
        drift=PairKernel(smooth_window, lambda x, y: window_slope(x, y) * np.sign(x - y),
                         lambda x, y: window_slope(x, y) * np.sign(y - x)),
        cost=PairKernel(lambda x, y: 0.5 * (x - y) ** 2, lambda x, y: x - y, lambda x, y: y - x),
        alpha=_as_weight(alpha),
    )


def polynomial_model(drift_coeffs, cost_coeffs, alpha: Callable[[float], float] | float = 1.0) -> ModelSpec:
    """Kernels from coefficient tables: P(x,y) = sum_ab C[a,b] x^a y^b, likewise phi; the structured path."""
    return ModelSpec(PairKernel.polynomial(drift_coeffs), PairKernel.polynomial(cost_coeffs), _as_weight(alpha))


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


def _poly_diff(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Coefficient table of d/dx (axis 0) or d/dy (axis 1)."""
    table = np.swapaxes(coeffs, 0, axis)
    if table.shape[0] == 1:
        return np.zeros_like(coeffs)
    with np.errstate(over="ignore"):  # an overflow leaves inf, which the construction check names
        return np.swapaxes(table[1:] * np.arange(1, table.shape[0])[:, None], 0, axis)
