"""Closed forms of the linear consensus model, against the particle, Nash, kinetic and game solvers.

Under ``consensus_model(alpha)`` the drift is mu - x_i and the best-reply
control -(N / ((N - 1) alpha(t))) (x_i - mu), so every solver moves each
deviation x - mu from the mean mu by one common factor s and leaves mu where
it is:

* explicit Euler best reply, N players: s = prod_l (1 - dt (1 + N / ((N - 1) alpha(t_l))));
* the kinetic limit: s = exp(-T - int_0^T 1 / alpha);
* the mean-field game: the value is P(T - t) (x - mu)^2 / 2 with the Riccati
  equation dP/dtau = 1 - 2 P - P^2 / alpha(T - tau), P(0) = 0, so the
  feedback is -(P(T - t) / alpha(t)) (x - mu) and
  s = exp(-T - int_0^T P(tau) / alpha(T - tau) dtau).

Each is checked at constant alpha and at alpha(t) = 1 + 2 t (Huang, Caines &
Malhame, IEEE TAC 2007, give the linear-quadratic game's Riccati equation).

A factor s carries a cell-average density m0 on [a, b] to m0 / s on the
grid scaled by s about its mean, itself a ``DensityGrid``, which ``w1``
compares exactly with a solver's final density; best-reply particles started
at the N quantiles of m0 reach it at first order in 1/N. The open-loop N-player game
is linear-quadratic, so its discrete stationarity system is affine in the
controls and a dense solve gives its Nash point. Its equilibrium is linear in
the deviations and symmetric in the players, so it too moves every deviation
by one factor s_N, which depends on N alone; hypothesis draws the starts.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import (
    ControlProfile,
    DensityGrid,
    ParticleEnsemble,
    SpaceGrid,
    consensus_model,
    gradient_via_adjoint,
    grid_for_support,
    integrate_brs,
    mfg_fixed_point,
    nash_sweep,
    solve_kinetic,
    time_grid,
    w1,
)
from mfglab.harness import density_of, sample_initial
from mfglab.mfg import PICARD
from mfglab.model import alpha_at
from mfglab.nash import SWEEP


def rising(t):
    """The time-dependent weight alpha(t) = 1 + 2 t."""
    return 1.0 + 2.0 * t


@pytest.mark.parametrize("n, dt, horizon, alpha", [
    (7, 0.01, 0.5, 1.0), (12, 0.02, 1.0, 0.3), pytest.param(7, 0.01, 0.5, rising, id="7-0.01-0.5-rising")])
def test_best_reply_particles_contract_by_the_discrete_factor(n, dt, horizon, alpha):
    x = sample_initial(n, n, {"kind": "uniform", "a": -1.0, "b": 2.0}).positions
    mu = x.mean()
    model = consensus_model(alpha)
    trajectory, _ = integrate_brs(model, ParticleEnsemble(x), horizon, dt)
    _, times = time_grid(horizon, dt)
    s = np.prod(1.0 - dt * (1.0 + n / ((n - 1) * alpha_at(model, times[:-1]))))
    scale = np.max(np.abs(x - mu))
    final = trajectory.positions[-1]
    assert np.max(np.abs(final - (mu + s * (x - mu)))) <= 1e-12 * scale
    assert abs(final.mean() - mu) <= 1e-12 * scale


def _dense_nash_gap(alpha):
    """The largest distance between the sweep's controls at tolerance 1e-12 and the dense solve of the
    affine stationarity system."""
    model = consensus_model(alpha)
    n, horizon, dt = 8, 0.5, 0.02
    initial = sample_initial(3, n, {"kind": "uniform", "a": 0.0, "b": 1.0})
    _, times = time_grid(horizon, dt)
    shape = (times.size - 1, n)

    def gradient(u):
        return gradient_via_adjoint(model, initial, ControlProfile(u.reshape(shape), times)).ravel()

    offset = gradient(np.zeros(shape))
    columns = np.empty((offset.size, offset.size))
    for k in range(offset.size):
        unit = np.zeros(offset.size)
        unit[k] = 1.0
        columns[:, k] = gradient(unit) - offset
    nash = np.linalg.solve(columns, -offset).reshape(shape)
    result = nash_sweep(model, initial, horizon, dt, replace(SWEEP, tolerance=1e-12))
    assert result.converged
    return np.max(np.abs(result.controls.values - nash))


def test_nash_sweep_solves_the_affine_stationarity_system():
    assert _dense_nash_gap(1.0) <= 1e-11


def test_nash_sweep_solves_the_affine_stationarity_system_under_a_rising_weight():
    assert _dense_nash_gap(rising) <= 1e-11  # measured 5.4e-13


NASH_DRAWS = settings(max_examples=10, deadline=None, derandomize=True)


def _starts(n):
    """n positions in (-1, 2), at least 0.1 apart at the ends, so round-off stays small against max|x - mu|."""
    return st.lists(st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True), min_size=n, max_size=n).filter(
        lambda xs: max(xs) - min(xs) >= 0.1)


def _nash_factor(x):
    """The factor s with x_i(T) - mu = s (x_i(0) - mu) at the sweep's Nash point (T 0.5, dt 0.02).

    Also returns the spread: the largest miss of that law over the players and of the conserved
    mean, per max|x - mu|.
    """
    x = np.asarray(x)
    mu = x.mean()
    result = nash_sweep(consensus_model(), ParticleEnsemble(x), 0.5, 0.02, replace(SWEEP, tolerance=1e-12))
    assert result.converged
    final = result.trajectory.positions[-1]
    far = np.argmax(np.abs(x - mu))
    s = (final[far] - mu) / (x[far] - mu)
    scale = np.abs(x[far] - mu)
    return s, max(np.max(np.abs(final - mu - s * (x - mu))), abs(final.mean() - mu)) / scale


@settings(NASH_DRAWS, max_examples=30)
@given(data=st.data(), n=st.integers(3, 12))
def test_nash_point_moves_every_deviation_by_one_factor(data, n):
    _, spread = _nash_factor(data.draw(_starts(n)))
    assert spread <= 1e-12


@NASH_DRAWS
@given(data=st.data(), n=st.integers(3, 12))
def test_nash_factor_depends_on_n_alone(data, n):
    first, _ = _nash_factor(data.draw(_starts(n)))
    second, _ = _nash_factor(data.draw(_starts(n)))
    assert abs(first - second) <= 1e-12


@NASH_DRAWS
@given(data=st.data(), n=st.integers(3, 11), more=st.integers(1, 9))
def test_nash_factor_rises_with_n(data, n, more):
    # measured: s_3 = 0.529634, s_12 = 0.548303
    fewer, _ = _nash_factor(data.draw(_starts(n)))
    larger, _ = _nash_factor(data.draw(_starts(min(n + more, 12))))
    assert 0.5296 < fewer < larger < 0.5484


# ---------------------------------------------------------------------------
# convergence of the grid solvers to the continuum factors


HORIZON = 0.5
CELLS = (48, 96, 192, 384)
GAUSSIAN = {"kind": "gaussian", "mu": 0.5, "sigma": 0.1, "lo": 0.0, "hi": 1.0}


def _riccati_factor(horizon, alpha):
    """exp(-T - int_0^T P / alpha) for dP/dtau = 1 - 2 P - P^2 / alpha, P(0) = 0, at a constant alpha.

    With the roots p1 > 0 > p2 of P^2 + 2 alpha P - alpha, P = p2 + (p1 - p2) / (1 - c e^(-k tau)),
    c = p1 / p2 and k = (p1 - p2) / alpha, whose integral is elementary.
    """
    root = math.sqrt(1.0 + 1.0 / alpha)
    p1, p2 = alpha * (root - 1.0), -alpha * (root + 1.0)
    c, k = p1 / p2, 2.0 * root
    integral = p2 * horizon / alpha + math.log((math.exp(k * horizon) - c) / (1.0 - c))
    return math.exp(-horizon - integral)


def _riccati_march(horizon, alpha, steps=1000):
    """exp(-T - int_0^T P(tau) / alpha(T - tau) dtau) for dP/dtau = 1 - 2 P - P^2 / alpha(T - tau), P(0) = 0:
    a classical Runge-Kutta march of P and the integral."""
    def rates(tau, p):  # (P, int_0^tau P / alpha)
        weight = alpha(horizon - tau)
        return np.array([1.0 - 2.0 * p[0] - p[0] * p[0] / weight, p[0] / weight])

    p, h = np.zeros(2), horizon / steps
    for step in range(steps):
        tau = step * h
        k1 = rates(tau, p)
        k2 = rates(tau + 0.5 * h, p + 0.5 * h * k1)
        k3 = rates(tau + 0.5 * h, p + 0.5 * h * k2)
        k4 = rates(tau + h, p + h * k3)
        p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return math.exp(-horizon - p[1])


def _scaled(m0, s):
    """m0 carried by x -> mu + s (x - mu) about its discrete mean mu: again a cell-average density."""
    grid = m0.grid
    mu = float(np.sum(grid.centers() * m0.cell_averages) * grid.dx)
    scaled = SpaceGrid(mu + s * (grid.x_min - mu), mu + s * (grid.x_max - mu), grid.cells)
    return DensityGrid(scaled, m0.cell_averages / s)


@pytest.mark.parametrize("alpha", [1.0, 0.3])
def test_riccati_factor_matches_a_runge_kutta_march(alpha):
    assert abs(_riccati_factor(HORIZON, alpha) - _riccati_march(HORIZON, lambda t: alpha)) <= 1e-12
    if alpha == 1.0:
        assert abs(_riccati_factor(HORIZON, alpha) - 0.554535) <= 1e-6


def _first_order(alpha, brs_factor, game_factor):
    """Check that the final densities of the kinetic and game solvers converge at first order in the cells to
    m0 scaled by their factors, the game's closer on every grid."""
    model = consensus_model(alpha)
    brs_errors, game_errors = [], []
    for cells in CELLS:
        m0 = density_of(GAUSSIAN, SpaceGrid(0.0, 1.0, cells))
        dt = HORIZON / round(HORIZON * cells / 0.6)
        brs_errors.append(w1(solve_kinetic(model, m0, HORIZON, dt).final, _scaled(m0, brs_factor)))
        game = mfg_fixed_point(model, m0, HORIZON, dt, replace(PICARD, tolerance=1e-12))
        assert game.converged
        game_errors.append(w1(game.densities.final, _scaled(m0, game_factor)))
    for errors in (brs_errors, game_errors):
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9), (errors, orders)
    assert all(g < b for g, b in zip(game_errors, brs_errors)), (game_errors, brs_errors)


def test_kinetic_and_game_converge_to_their_closed_forms():
    _first_order(1.0, math.exp(-2.0 * HORIZON), _riccati_factor(HORIZON, 1.0))


def test_kinetic_and_game_converge_to_their_closed_forms_under_a_rising_weight():
    # int_0^T dt / (1 + 2 t) = ln(1 + 2 T) / 2; measured W1 from 5.58e-3 (best reply) and 4.19e-3 (game) at 48
    # cells to 6.92e-4 and 5.19e-4 at 384, order 1.00 at every refinement
    _first_order(rising, math.exp(-HORIZON - 0.5 * math.log(1.0 + 2.0 * HORIZON)), _riccati_march(HORIZON, rising))


# criterion 05's bump and grid; its particles are sampled, these are the quantiles of m0
BUMP = {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74}


def test_quantile_particles_converge_to_the_pushed_density_at_first_order():
    # measured W1 3.42e-4, 8.58e-5 and 2.15e-5 at N = 128, 512 and 2048: order 0.999
    horizon, dt = 0.5, 1.0 / 200
    m0 = density_of(BUMP, grid_for_support(BUMP["lo"], BUMP["hi"], 512))
    cdf = np.concatenate([[0.0], np.cumsum(m0.cell_averages) * m0.grid.dx])
    sizes, errors = (128, 512, 2048), []
    for n in sizes:
        quantiles = np.interp((np.arange(n) + 0.5) / n, cdf, m0.grid.faces())
        trajectory, _ = integrate_brs(consensus_model(), ParticleEnsemble(quantiles), horizon, dt)
        s = (1.0 - dt * (1.0 + n / (n - 1))) ** round(horizon / dt)
        errors.append(w1(trajectory.ensemble(len(trajectory) - 1), _scaled(m0, s)))
    order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert order >= 0.9, (errors, order)
