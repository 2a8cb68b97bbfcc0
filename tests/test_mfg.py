import numpy as np
import pytest

from mfglab import (
    DensityTrajectory,
    PicardParams,
    ValueGrid,
    consensus_model,
    feedback_controls_best_reply,
    feedback_controls_from_value,
    fp_forward,
    grid_for_support,
    hjb_backward,
    mean_field_cost,
    mfg_fixed_point,
    mpc_mfg_closure,
    normalized_density,
    polynomial_model,
    proposition2_gap,
    solve_kinetic,
    total_running_cost,
)
from mfglab.kinetic import cfl_time_step


def gaussian_density(grid, center=0.5, width=0.12):
    x = grid.centers()
    return normalized_density(grid, np.exp(-(((x - center) / width) ** 2) / 2))


def constant_path(grid, density, horizon, steps):
    times = (horizon / steps) * np.arange(steps + 1)
    return DensityTrajectory(grid, times, np.tile(density.cell_averages, (steps + 1, 1)))


class TestHjbBackward:
    def test_zero_cost_zero_value(self):
        model = polynomial_model([[1.0]], [[0.0]])
        grid = grid_for_support(0.2, 0.8, 64)
        path = constant_path(grid, gaussian_density(grid), 0.5, 40)
        v = hjb_backward(model, path)
        assert np.all(v.data == 0.0)

    def test_constant_cost_linear_in_time(self):
        kappa = 0.8
        model = polynomial_model([[0.0]], [[kappa]])
        grid = grid_for_support(0.2, 0.8, 64)
        path = constant_path(grid, gaussian_density(grid), 0.5, 50)
        v = hjb_backward(model, path)
        for step, t in enumerate(path.times):
            assert np.allclose(v.data[step], kappa * (0.5 - t), atol=1e-12)

    def test_short_horizon_second_order(self):
        # sup |v(T - delta) - delta H| = O(delta^2): halving delta -> ratio in [3, 5]
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 256)
        dens = gaussian_density(grid)
        h = np.asarray(mean_field_cost(model, grid.centers(), dens))

        def error(delta):
            path = constant_path(grid, dens, delta, 8)
            v = hjb_backward(model, path)
            return np.max(np.abs(v.data[0] - delta * h))

        e1, e2 = error(0.02), error(0.01)
        assert 3.0 <= e1 / e2 <= 5.0

    def test_terminal_slice_zero(self):
        model = consensus_model()
        grid = grid_for_support(0.2, 0.8, 64)
        path = constant_path(grid, gaussian_density(grid), 0.5, 64)
        v = hjb_backward(model, path)
        assert np.all(v.data[-1] == 0.0)

    def test_value_grid_rejects_nonzero_terminal(self):
        grid = grid_for_support(0.2, 0.8, 64)
        times = np.linspace(0.0, 1.0, 5)
        data = np.ones((5, 64))
        with pytest.raises(ValueError, match="terminal"):
            ValueGrid(grid, times, data)


class TestFpForward:
    def setup_method(self):
        self.model = consensus_model()
        self.grid = grid_for_support(0.26, 0.74, 128)
        self.m0 = gaussian_density(self.grid)
        steps = 200
        self.times = (0.5 / steps) * np.arange(steps + 1)
        self.zero_v = ValueGrid(self.grid, self.times, np.zeros((steps + 1, self.grid.cells)))

    def test_spatially_constant_value_equals_zero_value(self):
        # only the value slope enters the velocity
        flat = np.ones((self.times.size, self.grid.cells)) * np.linspace(1.0, 0.0, self.times.size)[:, None]
        flat[-1] = 0.0
        v_flat = ValueGrid(self.grid, self.times, flat)
        a = fp_forward(self.model, self.zero_v, self.m0)
        b = fp_forward(self.model, v_flat, self.m0)
        assert np.array_equal(a.data, b.data)

    def test_mass_conserved(self):
        path = fp_forward(self.model, self.zero_v, self.m0)
        masses = np.sum(path.data, axis=1) * self.grid.dx
        assert np.max(np.abs(masses - 1.0)) <= 1e-12

    def test_grid_mismatch_rejected(self):
        other = grid_for_support(0.0, 1.0, 128)
        m0 = gaussian_density(other)
        with pytest.raises(ValueError, match="grid"):
            fp_forward(self.model, self.zero_v, m0)


class TestFixedPoint:
    def test_zero_cost_converges_in_one_iteration(self):
        model = polynomial_model([[1.0]], [[0.0]])
        grid = grid_for_support(0.26, 0.74, 64)
        m0 = gaussian_density(grid)
        res = mfg_fixed_point(model, m0, 0.25, 0.25 / 64)
        assert res.converged and res.iterations == 1
        assert np.all(res.value.data == 0.0)

    def test_fixture_converges(self):
        # regression fixture: consensus, unit weight, T = 0.5, 256 cells
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 256)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.5, safety=0.4)
        res = mfg_fixed_point(model, m0, 0.5, dt)
        assert res.converged
        assert res.residual <= 1e-8
        assert res.iterations <= 200

    def test_damping_choices_reach_same_fixed_point(self):
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 128)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.25, safety=0.4)
        paths = {}
        for theta in (1.0, 0.5, 0.25):
            res = mfg_fixed_point(model, m0, 0.25, dt, PicardParams(damping=theta))
            assert res.converged, f"theta={theta}"
            paths[theta] = res.densities.data
        for theta in (1.0, 0.25):
            l1 = np.max(np.sum(np.abs(paths[theta] - paths[0.5]), axis=1) * grid.dx)
            assert l1 <= 1e-6

    def test_nonconvergence_flagged(self):
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 64)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.5, safety=0.4)
        res = mfg_fixed_point(model, m0, 0.5, dt, PicardParams(max_iterations=2))
        assert not res.converged
        assert res.residual > 1e-8


class TestClosure:
    def test_bitwise_identical_to_kinetic(self):
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 256)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.5)
        a = mpc_mfg_closure(model, m0, 0.5, dt)
        b = solve_kinetic(model, m0, 0.5, dt)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.times, b.times)

    def test_constant_cost_reduces_to_pure_transport(self):
        model = polynomial_model([[1.0]], [[2.0]])
        grid = grid_for_support(0.26, 0.74, 64)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.25, safety=0.4)
        closure = mpc_mfg_closure(model, m0, 0.25, dt)
        steps = round(0.25 / dt)
        times = dt * np.arange(steps + 1)
        zero_v = ValueGrid(grid, times, np.zeros((steps + 1, grid.cells)))
        transport = fp_forward(model, zero_v, m0)
        assert np.array_equal(closure.data, transport.data)


class TestPropositionGap:
    def test_zero_cost_gap_vanishes(self):
        model = polynomial_model([[1.0]], [[0.0]])
        grid = grid_for_support(0.26, 0.74, 64)
        m0 = gaussian_density(grid)
        assert proposition2_gap(model, m0, 0.05) == 0.0

    def test_first_order_in_window_size(self):
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 128)
        m0 = gaussian_density(grid)
        gaps = [proposition2_gap(model, m0, dt) for dt in (0.1, 0.05, 0.025)]
        assert 1.5 <= gaps[0] / gaps[1] <= 3.0
        assert 1.5 <= gaps[1] / gaps[2] <= 3.0

    def test_extrapolated_gap_below_grid_floor(self):
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 128)
        m0 = gaussian_density(grid)
        g1, g2 = (proposition2_gap(model, m0, dt) for dt in (0.05, 0.025))
        extrapolated = abs(2.0 * g2 - g1)
        assert extrapolated <= grid.dx


class TestFeedbackCosts:
    def test_game_feedback_not_beaten_by_myopic(self):
        model = consensus_model()
        grid = grid_for_support(0.26, 0.74, 128)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.25, safety=0.4)
        res = mfg_fixed_point(model, m0, 0.25, dt)
        assert res.converged
        kin = solve_kinetic(model, m0, 0.25, dt)
        cost_game = total_running_cost(model, res.densities, feedback_controls_from_value(model, res.value))
        cost_myopic = total_running_cost(model, kin, feedback_controls_best_reply(model, kin))
        assert cost_game <= cost_myopic + 1e-6

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PicardParams(damping=0.0)
        with pytest.raises(ValueError):
            PicardParams(tolerance=-1.0)
        with pytest.raises(ValueError):
            PicardParams(max_iterations=0)
