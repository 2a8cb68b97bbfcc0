import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mfglab import (
    CFLError,
    DensityTrajectory,
    SpaceGrid,
    ValueGrid,
    consensus_model,
    feedback_controls_best_reply,
    feedback_controls_from_value,
    fp_forward,
    grid_for_support,
    hjb_backward,
    bounded_confidence_model,
    mean_field_cost,
    mean_field_cost_grad,
    mean_field_drift,
    mfg_fixed_point,
    normalized_density,
    polynomial_model,
    proposition2_gap,
    solve_kinetic,
    step_upwind,
    total_running_cost,
    velocity_field,
)
from mfglab.grids import time_grid
from mfglab.harness import density_of
from mfglab.kinetic import cfl_time_step
from mfglab.errors import NumericalError
from mfglab.mfg import PICARD
from mfglab.model import PairKernel, alpha_at


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

    def test_overflowed_value_slice_raises(self):
        # a running cost of 1e300 (x - y)^2 on [-1e5, 1e5] leaves the floats in the first step back
        cost = PairKernel(lambda x, y: 1e300 * (x - y) ** 2, lambda x, y: 2e300 * (x - y),
                          lambda x, y: -2e300 * (x - y))
        model = replace(bounded_confidence_model(0.5), cost=cost)
        grid = SpaceGrid(-1e5, 1e5, 16)
        path = constant_path(grid, normalized_density(grid, np.ones(16)), 0.1, 2)
        with pytest.raises(NumericalError, match="non-finite value slice at step 1"):
            hjb_backward(model, path)

    def test_value_grid_rejects_nonzero_terminal(self):
        grid = grid_for_support(0.2, 0.8, 64)
        times = np.linspace(0.0, 1.0, 5)
        data = np.ones((5, 64))
        with pytest.raises(ValueError, match="terminal"):
            ValueGrid(grid, times, data)

    def test_value_grid_rejects_a_wrong_shape_and_non_finite_entries(self):
        grid = grid_for_support(0.2, 0.8, 64)
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=r"data shape \(64, 5\) does not match 5 times x 64 cells"):
            ValueGrid(grid, times, np.zeros((64, 5)))
        data = np.zeros((5, 64))
        data[2, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite value entry"):
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
        assert a.data.tobytes() == b.data.tobytes()

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
            res = mfg_fixed_point(model, m0, 0.25, dt, replace(PICARD, theta=theta))
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
        # undamped, consensus converges in 2 iterations: one is short of it
        res = mfg_fixed_point(model, m0, 0.5, dt, replace(PICARD, max_iterations=1))
        assert not res.converged
        assert res.residual > 1e-8


class TestClosure:
    def test_constant_cost_reduces_to_pure_transport(self):
        model = polynomial_model([[1.0]], [[2.0]])
        grid = grid_for_support(0.26, 0.74, 64)
        m0 = gaussian_density(grid)
        dt = cfl_time_step(model, m0, 0.25, safety=0.4)
        kinetic = solve_kinetic(model, m0, 0.25, dt)
        steps = round(0.25 / dt)
        times = dt * np.arange(steps + 1)
        zero_v = ValueGrid(grid, times, np.zeros((steps + 1, grid.cells)))
        transport = fp_forward(model, zero_v, m0)
        assert np.array_equal(kinetic.data, transport.data)


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

    def test_controls_off_the_nodes_are_refused(self):
        grid = grid_for_support(0.2, 0.8, 16)
        path = constant_path(grid, gaussian_density(grid), 0.5, 10)
        with pytest.raises(ValueError, match="controls must be given at every"):
            total_running_cost(consensus_model(), path, np.zeros((10, 16)))

    def test_params_validation(self):
        # the Picard defaults are a FixedPointParams: a replaced field is validated again
        with pytest.raises(ValueError):
            replace(PICARD, theta=0.0)
        with pytest.raises(ValueError):
            replace(PICARD, tolerance=-1.0)
        with pytest.raises(ValueError):
            replace(PICARD, max_iterations=0)


# Per-slice references: each time slice as its own density, one quadrature call
# per slice, in the operations the path evaluation must reproduce bit for bit.


def _hjb_reference(model, m_path):
    dx = m_path.grid.dx
    centers = m_path.grid.centers()
    dt = m_path.times[1] - m_path.times[0]
    data = np.zeros_like(m_path.data)
    for step in range(len(m_path) - 2, -1, -1):
        weight = alpha_at(model, float(m_path.times[step + 1]))
        m_next = m_path.density(step + 1)
        f = np.asarray(mean_field_drift(model, centers, m_next))
        source = np.asarray(mean_field_cost(model, centers, m_next))
        v_next = data[step + 1]
        p_minus = np.zeros_like(v_next)
        p_plus = np.zeros_like(v_next)
        p_minus[1:] = (v_next[1:] - v_next[:-1]) / dx
        p_plus[:-1] = (v_next[1:] - v_next[:-1]) / dx
        viscosity = max(np.max(np.abs(p_minus)), np.max(np.abs(p_plus))) / weight
        speed = np.max(np.abs(f)) + viscosity
        if dt * speed / dx > 0.9 + 1e-12:
            raise CFLError(f"value march: dt*(|F|+viscosity)/dx = {dt * speed / dx:.4f} > 0.9 at step {step}",
                           step=step)
        transport_slope = np.where(f >= 0.0, p_plus, p_minus)
        p_avg = 0.5 * (p_minus + p_plus)
        hamiltonian = p_avg * p_avg / (2.0 * weight) - 0.5 * viscosity * (p_plus - p_minus)
        data[step] = v_next + dt * (f * transport_slope - hamiltonian + source)
        if not np.all(np.isfinite(data[step])):
            raise NumericalError(f"non-finite value slice at step {step}")
    return data


def _kinetic_reference(model, m0, horizon, dt):
    _, times = time_grid(horizon, dt)
    data = np.empty((times.size, m0.grid.cells))
    data[0] = m0.cell_averages
    current = m0
    for step in range(times.size - 1):
        faces = velocity_field(model, current, float(times[step]))
        try:
            current = step_upwind(current, faces, dt)
        except CFLError as err:
            raise CFLError(f"step {step}: {err}", step=step, face=err.face) from None
        data[step + 1] = current.cell_averages
    return data


def _fp_reference(model, value, m0):
    grid, times = value.grid, value.times
    dt = float(times[1] - times[0])
    data = np.empty((times.size, grid.cells))
    data[0] = m0.cell_averages
    current = m0
    for step in range(times.size - 1):
        weight = alpha_at(model, float(times[step]))
        drift_faces = np.asarray(mean_field_drift(model, grid.faces(), current))
        v_slice = value.data[step]
        dv = np.zeros(grid.cells + 1)
        dv[1:-1] = (v_slice[1:] - v_slice[:-1]) / grid.dx
        try:
            current = step_upwind(current, drift_faces - dv / weight, dt)
        except CFLError as err:
            raise CFLError(f"density march, step {step}: {err}", step=step, face=err.face) from None
        data[step + 1] = current.cell_averages
    return data


def _best_reply_reference(model, m_path):
    centers = m_path.grid.centers()
    out = np.empty_like(m_path.data)
    for step, t in enumerate(m_path.times):
        slope = np.asarray(mean_field_cost_grad(model, centers, m_path.density(step)))
        out[step] = -slope / alpha_at(model, float(t))
    return out


def _running_cost_reference(model, m_path, controls):
    dt = m_path.times[1] - m_path.times[0]
    centers = m_path.grid.centers()
    total = 0.0
    for step in range(len(m_path) - 1):
        weight = alpha_at(model, float(m_path.times[step]))
        m_slice = m_path.density(step)
        running = 0.5 * weight * controls[step] ** 2 + np.asarray(mean_field_cost(model, centers, m_slice))
        total += dt * float(np.sum(running * (m_slice.cell_averages * m_path.grid.dx)))
    return total


def _cubic_model(alpha=lambda t: 1.0 + 0.5 * t):
    return polynomial_model(
        [[1.0, 0.3], [0.2, 0.0]],
        [[0.0, 0.0, 0.5, 0.2], [0.0, -1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [-0.2, 0.0, 0.0, 0.0]],
        alpha=alpha,
    )


class TestPathEvaluation:
    @pytest.mark.parametrize("kind", ["dense", "structured"])
    def test_equal_to_per_slice_reference(self, kind):
        model = (bounded_confidence_model(radius=0.15, alpha=lambda t: 1.0 + 0.5 * t) if kind == "dense"
                 else _cubic_model())
        grid = grid_for_support(0.2, 0.8, 64)
        m0 = normalized_density(grid, gaussian_density(grid, 0.45, 0.1).cell_averages
                                + gaussian_density(grid, 0.6, 0.05).cell_averages)
        path = solve_kinetic(model, m0, 0.2, 0.005)
        value = hjb_backward(model, path)
        assert value.data.tobytes() == _hjb_reference(model, path).tobytes()
        assert np.any(value.data != 0.0)
        controls = feedback_controls_best_reply(model, path)
        assert controls.tobytes() == _best_reply_reference(model, path).tobytes()
        for u in (controls, feedback_controls_from_value(model, value)):
            assert total_running_cost(model, path, u) == _running_cost_reference(model, path, u)

    def test_backward_march_takes_one_quadrature_of_drift_and_cost(self, monkeypatch):
        import mfglab.mfg
        import mfglab.model

        model = bounded_confidence_model(radius=0.15)
        grid = grid_for_support(0.2, 0.8, 32)
        path = constant_path(grid, gaussian_density(grid), 0.1, 10)
        want = hjb_backward(model, path)
        calls = []

        def recording(model, quantities, xs, grid):
            calls.append(quantities)
            return mfglab.model._quadrature(model, quantities, xs, grid)

        monkeypatch.setattr(mfglab.mfg, "_quadrature", recording)
        assert hjb_backward(model, path).data.tobytes() == want.data.tobytes()
        assert calls == [("drift", "cost")]

    def test_running_cost_weights_clipped_rows(self):
        # a round-off negative that densities clip to 0, under a control large
        # enough that an unclipped weight would change the total
        model = bounded_confidence_model(radius=0.15)
        grid = grid_for_support(0.2, 0.8, 32)
        bump = gaussian_density(grid).cell_averages
        path = constant_path(grid, normalized_density(grid, np.where(np.arange(32) == 0, 0.0, bump)), 0.1, 4)
        path.data[1, 0] = -1e-16
        assert path.density(1).clipped_mass > 0.0
        controls = np.zeros_like(path.data)
        controls[1, 0] = 1e9
        assert total_running_cost(model, path, controls) == _running_cost_reference(model, path, controls)

    def test_backward_march_forms_no_cell_by_slice_by_point_product(self):
        # an (M, L, Q) product at 64 cells x 81 slices x 64 points takes 2.65 MB;
        # the march, with its quadrature matrices built, peaks at about 0.32 MB
        model = bounded_confidence_model(radius=0.15)
        grid = grid_for_support(0.2, 0.8, 64)
        path = constant_path(grid, gaussian_density(grid), 0.16, 80)
        tracemalloc.start()
        try:
            hjb_backward(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 81 * 64 * 8 / 4


def _same_failure(march, reference):
    """Both calls raise the same exception type with the same message, step and face."""
    with pytest.raises(Exception) as got:
        march()
    with pytest.raises(Exception) as want:
        reference()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "step", None) == getattr(want.value, "step", None)
    assert getattr(got.value, "face", None) == getattr(want.value, "face", None)
    return got.value


class TestMarchesBitForBit:
    """The three marches against the per-slice loops they replace, written from the public functions."""

    MODELS = {
        "bounded_confidence": lambda: bounded_confidence_model(radius=0.15, alpha=lambda t: 1.0 + 0.5 * t),
        "consensus": lambda: consensus_model(alpha=lambda t: 1.0 + t),
        "cubic": _cubic_model,
    }

    def setup_method(self):
        self.grid = grid_for_support(0.2, 0.8, 64)
        self.m0 = normalized_density(self.grid, gaussian_density(self.grid, 0.45, 0.1).cell_averages
                                     + gaussian_density(self.grid, 0.6, 0.05).cell_averages)

    @pytest.mark.parametrize("kind", MODELS)
    def test_equal_to_per_slice_loops(self, kind):
        model = self.MODELS[kind]()
        path = solve_kinetic(model, self.m0, 0.2, 0.005)
        assert path.data.tobytes() == _kinetic_reference(model, self.m0, 0.2, 0.005).tobytes()
        value = hjb_backward(model, path)
        assert value.data.tobytes() == _hjb_reference(model, path).tobytes()
        assert np.any(value.data[0] != 0.0)
        moved = fp_forward(model, value, self.m0)
        assert moved.data.tobytes() == _fp_reference(model, value, self.m0).tobytes()
        assert not np.array_equal(moved.data, path.data)

    def test_kinetic_cfl_failure(self):
        # the weight shrinks in time, so the best-reply velocity outgrows the step mid-run
        model = consensus_model(alpha=lambda t: 1.0 - 4.5 * t)
        err = _same_failure(lambda: solve_kinetic(model, self.m0, 0.2, 0.005),
                            lambda: _kinetic_reference(model, self.m0, 0.2, 0.005))
        assert isinstance(err, CFLError) and err.step == 35 and err.face == 0

    def test_density_march_cfl_failure(self):
        model = bounded_confidence_model(radius=0.15)
        _, times = time_grid(0.2, 0.005)
        data = np.zeros((times.size, self.grid.cells))
        data[7, 41:] = self.grid.dx ** 2 / 0.005  # a face velocity of about -dx / dt at face 41
        value = ValueGrid(self.grid, times, data)
        err = _same_failure(lambda: fp_forward(model, value, self.m0), lambda: _fp_reference(model, value, self.m0))
        assert isinstance(err, CFLError) and err.step == 7 and err.face == 41

    def test_value_march_cfl_failure(self):
        c = 30.0
        model = polynomial_model([[1.0]], [[0.0, 0.0, c], [0.0, -2 * c, 0.0], [c, 0.0, 0.0]])
        path = solve_kinetic(consensus_model(), self.m0, 0.2, 0.005)
        err = _same_failure(lambda: hjb_backward(model, path), lambda: _hjb_reference(model, path))
        assert isinstance(err, CFLError) and err.step == 19

    def _divergent(self, mass):
        """A density with ``mass`` alone in cell 10 and a value whose first slice peaks there.

        With no drift, the first step moves 0.8 of cell 10 out through each of its faces.
        """
        x = self.grid.centers()
        bump = np.exp(-(((x - 0.6) / 0.05) ** 2) / 2)
        bump[:20] = 0.0
        bump[10] = mass
        m0 = normalized_density(self.grid, bump)
        _, times = time_grid(0.02, 0.005)
        data = np.zeros((times.size, self.grid.cells))
        data[0, 10] = 0.8 * self.grid.dx ** 2 / 0.005
        return polynomial_model([[0.0]], [[0.0]]), ValueGrid(self.grid, times, data), m0

    def test_round_off_negative_is_clipped_and_the_march_continues(self):
        model, value, m0 = self._divergent(1e-16)
        dv = np.zeros(self.grid.cells + 1)
        dv[1:-1] = np.diff(value.data[0]) / self.grid.dx
        assert step_upwind(m0, -dv, 0.005).clipped_mass > 0.0  # the first step clips a round-off negative
        moved = fp_forward(model, value, m0)
        assert moved.data.tobytes() == _fp_reference(model, value, m0).tobytes()
        assert moved.data[1, 10] == 0.0 and moved.data[1, 9] > 0.0 and moved.data.min() >= 0.0

    def test_negative_row_raises_as_density_grid_does(self):
        model, value, m0 = self._divergent(1e-14)
        err = _same_failure(lambda: fp_forward(model, value, m0), lambda: _fp_reference(model, value, m0))
        assert isinstance(err, ValueError) and "negative cell average" in str(err)


def _plain_picard(model, m0, horizon, dt, params):
    """The damped Picard loop without mixing: the fixed point and its iteration count."""
    grid = m0.grid
    _, times = time_grid(horizon, dt)
    current = fp_forward(model, ValueGrid(grid, times, np.zeros((times.size, grid.cells))), m0)
    for iteration in range(1, params.max_iterations + 1):
        proposal = fp_forward(model, hjb_backward(model, current), m0)
        mixed = (1.0 - params.theta) * current.data + params.theta * proposal.data
        mixed = mixed / (np.sum(mixed, axis=1) * grid.dx)[:, None]
        residual = np.max(np.sum(np.abs(mixed - current.data), axis=1) * grid.dx)
        current = DensityTrajectory(grid, times, mixed)
        if residual <= params.tolerance:
            return current, iteration
    raise AssertionError("plain Picard did not converge")


class TestAndersonMixing:
    """Anderson mixing in mfg_fixed_point: same fixed point, fewer iterations, valid densities."""

    PARAMS = replace(PICARD, tolerance=1e-10, theta=0.5)

    def setup_method(self):
        self.grid = grid_for_support(0.26, 0.74, 128)
        self.m0 = gaussian_density(self.grid)

    @pytest.mark.parametrize("kind", ["bounded_confidence", "cubic"])
    def test_same_fixed_point_in_fewer_iterations(self, kind):
        model = bounded_confidence_model(radius=0.1) if kind == "bounded_confidence" else _cubic_model()
        res = mfg_fixed_point(model, self.m0, 1.0, 1 / 160, self.PARAMS)
        reference, plain_iterations = _plain_picard(model, self.m0, 1.0, 1 / 160, self.PARAMS)
        assert res.converged and res.accelerated_steps > 0
        assert res.iterations < plain_iterations
        gap = np.max(np.sum(np.abs(res.densities.data - reference.data), axis=1) * self.grid.dx)
        assert gap <= 10 * self.PARAMS.tolerance

    def test_every_iterate_is_a_density(self, monkeypatch):
        import mfglab.mfg

        seen = []
        original = mfglab.mfg.hjb_backward

        def recording(model, m_path):
            seen.append(m_path.data.copy())
            return original(model, m_path)

        monkeypatch.setattr(mfglab.mfg, "hjb_backward", recording)
        res = mfg_fixed_point(bounded_confidence_model(radius=0.1), self.m0, 1.0, 1 / 160, self.PARAMS)
        assert res.converged and res.rejected_steps > 0
        assert len(seen) == res.iterations  # one value march per evaluation, none after the loop
        for path in seen:
            assert np.min(path) >= 0.0
            assert np.max(np.abs(np.sum(path, axis=1) * self.grid.dx - 1.0)) <= 1e-12


class TestReturnedPath:
    """The result is the iterate the loop stopped on, with the value and residual of its own evaluation."""

    def test_value_and_residual_are_the_returned_paths(self):
        model = bounded_confidence_model(radius=0.15)
        m0 = density_of(TestUndampedDefault.TWO_BUMP, grid_for_support(0.15, 0.85, 64))
        res = mfg_fixed_point(model, m0, 0.5, 1 / 160)
        assert res.converged and res.restarts == 0
        value = hjb_backward(model, res.densities)
        assert value.data.tobytes() == res.value.data.tobytes()
        image = fp_forward(model, res.value, m0).data
        image = image / (np.sum(image, axis=1) * m0.grid.dx)[:, None]
        step = np.max(np.sum(np.abs(image - res.densities.data), axis=1) * m0.grid.dx)
        assert float(step) == res.residual

    def test_failed_image_march_ends_the_solve_unconverged(self, monkeypatch):
        # value marches 1 and 2 succeed; march 3, along the first mixed path, falls back to the
        # image behind it, and march 4, along that image, ends the loop at the second iterate
        import mfglab.mfg

        calls = []
        original = mfglab.mfg.hjb_backward

        def failing(model, m_path):
            calls.append(m_path.data.copy())
            if len(calls) >= 3:
                raise NumericalError("injected")
            return original(model, m_path)

        monkeypatch.setattr(mfglab.mfg, "hjb_backward", failing)
        model = bounded_confidence_model(radius=0.15)
        grid = SpaceGrid(0.0, 1.0, 32)
        m0 = normalized_density(grid, np.ones(grid.cells))
        res = mfg_fixed_point(model, m0, 0.25, 1 / 80)
        assert not res.converged and res.iterations == 2 and len(calls) == 4
        assert res.rejected_steps == 1 and res.accelerated_steps == 0
        assert np.array_equal(res.densities.data, calls[1])
        assert res.value.data.tobytes() == original(model, res.densities).data.tobytes()


class TestUndampedDefault:
    """The default mixing weight 1 against the damped weight 0.5, from the two-bump start of perfbench's game system."""

    TWO_BUMP = {"kind": "two_bump", "mu1": 0.35, "sigma1": 0.06, "mu2": 0.65, "sigma2": 0.06, "lo": 0.15, "hi": 0.85}

    def setup_method(self):
        self.grid = grid_for_support(0.15, 0.85, 64)
        self.m0 = density_of(self.TWO_BUMP, self.grid)

    def test_game_system_config_converges_in_five_iterations(self):
        model = bounded_confidence_model(radius=0.15)
        default = mfg_fixed_point(model, self.m0, 0.5, 1 / 160)
        damped = mfg_fixed_point(model, self.m0, 0.5, 1 / 160, replace(PICARD, theta=0.5))
        assert default.converged and default.iterations == 5
        assert damped.converged and damped.iterations == 7
        gap = np.max(np.sum(np.abs(default.densities.data - damped.densities.data), axis=1) * self.grid.dx)
        assert gap <= 10 * PICARD.tolerance

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    @pytest.mark.parametrize("kind", ["consensus", "bounded_confidence", "cubic"])
    def test_default_needs_no_more_iterations_than_damped(self, kind, alpha):
        model = {"consensus": lambda: consensus_model(alpha=alpha),
                 "bounded_confidence": lambda: bounded_confidence_model(radius=0.15, alpha=alpha),
                 "cubic": lambda: _cubic_model(alpha=alpha)}[kind]()
        # dt 1/320: the cubic model at alpha 0.1 breaks the value march's CFL bound at 1/160
        default = mfg_fixed_point(model, self.m0, 0.5, 1 / 320)
        damped = mfg_fixed_point(model, self.m0, 0.5, 1 / 320, replace(PICARD, theta=0.5))
        assert default.converged and damped.converged
        assert default.iterations <= damped.iterations
