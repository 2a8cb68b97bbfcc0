import math

import numpy as np
import pytest

from mfglab import (
    DivergenceError,
    ParticleEnsemble,
    ParticleTrajectory,
    bounded_confidence_model,
    brs_control,
    consensus_model,
    cost_grad_vector,
    drift,
    integrate_brs,
    mpc_step_exact,
    mpc_step_taylor,
    polynomial_model,
)
from mfglab.controller import _best_reply, _march_stack
from mfglab.grids import time_grid
from mfglab.model import alpha_at


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pair(a=0.0, b=1.0):
    return ParticleEnsemble(np.array([a, b]))


class TestBrsControl:
    def test_consensus_pair(self):
        m = consensus_model()
        assert np.array_equal(brs_control(m, pair(), 0.0), [1.0, -1.0])

    def test_equal_positions(self):
        m = consensus_model()
        out = brs_control(m, ParticleEnsemble(np.full(3, 0.4)), 0.0)
        assert np.all(out == 0.0)

    def test_weight_scaling(self):
        m1 = consensus_model(alpha=1.0)
        m2 = consensus_model(alpha=2.0)
        assert np.allclose(brs_control(m2, pair(), 0.0), 0.5 * brs_control(m1, pair(), 0.0))


class TestMpcSteps:
    def test_constant_weight_matches_brs(self):
        m = consensus_model()
        exact, _ = mpc_step_exact(m, pair(), 0.0, 0.1)
        taylor, _ = mpc_step_taylor(m, pair(), 0.0, 0.1)
        myopic = brs_control(m, pair(), 0.0)
        assert np.array_equal(exact, myopic)
        assert np.array_equal(taylor, myopic)

    def test_time_varying_weight_closed_form(self):
        m = consensus_model(alpha=lambda t: 1.0 + t)
        exact, _ = mpc_step_exact(m, pair(), 0.0, 0.1)
        taylor, _ = mpc_step_taylor(m, pair(), 0.0, 0.1)
        assert exact[0] == pytest.approx(1.0 / 1.1, abs=1e-15)
        assert taylor[0] == pytest.approx(1.0, abs=1e-15)
        assert abs(exact[0] - taylor[0]) == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-12)

    def test_gap_halves_with_dt(self):
        m = consensus_model(alpha=lambda t: 1.0 + t)
        gaps = []
        for dt in (0.05, 0.025, 0.0125):
            exact, _ = mpc_step_exact(m, pair(), 0.0, dt)
            taylor, _ = mpc_step_taylor(m, pair(), 0.0, dt)
            gaps.append(np.max(np.abs(exact - taylor)))
        for big, small in zip(gaps, gaps[1:]):
            assert 1.8 <= big / small <= 2.2

    def test_constant_cost_kernel_gives_drift_only_update(self):
        m = polynomial_model([[1.0]], [[3.0]])
        u, nxt = mpc_step_exact(m, pair(), 0.0, 0.1)
        assert np.all(u == 0.0)
        assert np.allclose(nxt.positions, [0.05, 0.95])

    def test_rejects_nonpositive_dt(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="dt"):
            mpc_step_exact(m, pair(), 0.0, 0.0)
        with pytest.raises(ValueError, match="dt"):
            mpc_step_taylor(m, pair(), 0.0, -0.1)


class TestIntegrateBrs:
    def gap_error(self, dt):
        m = consensus_model()
        traj, _ = integrate_brs(m, pair(), 1.0, dt)
        gap = traj.positions[-1, 1] - traj.positions[-1, 0]
        return abs(gap - np.exp(-3.0))

    def test_gap_decays_at_closed_form_rate(self):
        # global Euler error constant for dg/dt = -3g at T=1 is exp(-3)*9/2 ~ 0.22
        assert self.gap_error(1.0 / 400) <= 0.3 / 400

    def test_first_order_convergence(self):
        e1, e2, e3 = self.gap_error(1.0 / 50), self.gap_error(1.0 / 100), self.gap_error(1.0 / 200)
        assert 1.7 <= e1 / e2 <= 2.3
        assert 1.7 <= e2 / e3 <= 2.3

    def test_mean_is_conserved(self):
        m = consensus_model()
        traj, _ = integrate_brs(m, pair(), 1.0, 1.0 / 128)
        means = traj.positions.mean(axis=1)
        assert np.max(np.abs(means - 0.5)) <= 1e-12

    def test_no_forces_no_motion(self):
        m = polynomial_model([[0.0]], [[1.0]])
        start = ParticleEnsemble(np.array([-0.5, 0.1, 0.7]))
        traj, profile = integrate_brs(m, start, 1.0, 0.05)
        assert np.all(traj.positions == start.positions[None, :])
        assert np.all(profile.values == 0.0)

    def test_taylor_controls_follow_best_reply_exactly(self):
        # piecewise-constant controls equal -cost_grad_vector/alpha at every grid time
        m = consensus_model(alpha=lambda t: 1.0 + 0.5 * t)
        start = ParticleEnsemble(np.array([-1.0, 0.2, 0.9]))
        traj, profile = integrate_brs(m, start, 0.5, 0.025)
        for step in range(profile.n_steps):
            t = profile.times[step]
            expected = -cost_grad_vector(m, traj.positions[step]) / alpha_at(m, float(t))
            assert np.array_equal(profile.values[step], expected)

    def test_divergence_guard(self):
        # repulsive quadratic cost pushes particles apart exponentially
        m = polynomial_model(
            [[0.0]],
            np.array([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]]),
        )
        with pytest.raises(DivergenceError, match="bound 1.000e[+]06"):
            integrate_brs(m, pair(-0.1, 0.1), 40.0, 0.05)

    def test_trajectory_needs_one_state_per_time(self):
        with pytest.raises(ValueError, match=r"positions shape \(2, 4\) does not match 3 time points"):
            ParticleTrajectory(np.linspace(0.0, 1.0, 3), np.zeros((2, 4)))
        with pytest.raises(ValueError, match=r"positions shape \(3,\) does not match 3 time points"):
            ParticleTrajectory(np.linspace(0.0, 1.0, 3), np.zeros(3))

    def test_dt_must_divide_horizon(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="divide"):
            integrate_brs(m, pair(), 1.0, 0.3)

    def test_exact_scheme_uses_end_of_step_weight(self):
        m = consensus_model(alpha=lambda t: 1.0 + t)
        dt = 0.125
        exact, _ = mpc_step_exact(m, pair(), 0.0, dt)
        _, taylor_profile = integrate_brs(m, pair(), 1.0, dt)
        assert abs(exact[0] - 1.0 / (1.0 + dt)) <= 1e-14
        assert abs(taylor_profile.values[0, 0] - 1.0) <= 1e-14


def _cubic_model(alpha):
    return polynomial_model(
        [[1.0, 0.3], [0.2, 0.0]],
        [[0.0, 0.0, 0.5, 0.2], [0.0, -1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [-0.2, 0.0, 0.0, 0.0]],
        alpha=alpha,
    )


STACK_MODELS = {
    "consensus": lambda alpha: consensus_model(alpha=alpha),
    "bounded_confidence": lambda alpha: bounded_confidence_model(radius=0.15, alpha=alpha),
    "cubic": _cubic_model,
}


class TestStackedMarch:
    """A stack of seeds marched together gives, row for row, the bits of separate runs."""

    horizon, dt = 0.2, 0.02

    def stack(self, n_rows=3, n=9):
        rng = np.random.Generator(np.random.Philox(key=83))
        return np.sort(rng.random((n_rows, n)), axis=-1)

    @pytest.mark.parametrize("scheme", ["taylor", "exact"])
    @pytest.mark.parametrize("name", sorted(STACK_MODELS))
    def test_rows_equal_per_seed_runs_and_chained_steps(self, name, scheme):
        m = STACK_MODELS[name](lambda t: 1.0 + 2.0 * t)
        states = self.stack()
        n_steps, times = time_grid(self.horizon, self.dt)
        path = np.empty((n_steps + 1, *states.shape))
        controls = np.empty((n_steps, *states.shape))
        path[0] = states
        last_u, final = _march_stack(states, map(float, times[:-1]), self.dt, _best_reply(m, scheme, self.dt), 1e6,
                                     path=path, controls=controls)
        assert _same_bits(final, path[-1]) and _same_bits(last_u, controls[-1])
        step_fn = mpc_step_taylor if scheme == "taylor" else mpc_step_exact
        for row, start in enumerate(states):
            if scheme == "taylor":
                trajectory, profile = integrate_brs(m, ParticleEnsemble(start.copy()), self.horizon, self.dt)
                assert _same_bits(trajectory.positions, path[:, row])
                assert _same_bits(profile.values, controls[:, row])
            # chained receding-horizon steps, and the update written out with the public evaluations
            state, x = ParticleEnsemble(start.copy()), start.copy()
            for step in range(n_steps):
                t = float(times[step])
                u, state = step_fn(m, state, t, self.dt)
                assert _same_bits(u, controls[step, row]) and _same_bits(state.positions, path[step + 1, row])
                weight = alpha_at(m, t if scheme == "taylor" else t + self.dt)
                u = -cost_grad_vector(m, x) / weight
                x = x + self.dt * (drift(m, x) + u)
                assert _same_bits(u, controls[step, row]) and _same_bits(x, path[step + 1, row])

    def test_diverging_row_named_with_step_and_time(self):
        # u = x^3 under phi(x, y) = -x^4 / 4 blows up at t = 1 / (2 x0^2): the two rows holding 3.0 pass 1e3
        # at the same step, and the first of them is named
        m = polynomial_model([[0.0]], [[0.0], [0.0], [0.0], [0.0], [-0.25]])
        states = np.array([[0.1, 0.2], [0.3, 3.0], [-0.2, 0.4], [0.5, 3.0]])
        names = ["first", "second", "third", "fourth"]
        starts = (0.01 * np.arange(10)).tolist()
        law = _best_reply(m, "taylor", 0.01)
        with pytest.raises(DivergenceError) as err:
            _march_stack(states, starts, 0.01, law, 1e3, where=lambda row: f"{names[row]}: ")
        with pytest.raises(DivergenceError) as alone:
            _march_stack(states[1][None], starts, 0.01, law, 1e3)
        assert str(err.value) == f"second: {alone.value}"
        assert "> bound 1.000e+03 at step" in str(err.value) and "(t=" in str(err.value)

    def test_non_finite_row_named(self):
        m = polynomial_model([[0.0]], [[0.0], [0.0], [0.0], [0.0], [-0.25]])
        states = np.array([[0.1, 0.2], [0.3, 1e200]])
        with pytest.raises(DivergenceError, match=r"^row 1: an explicit Euler step of size 0.01 left the finite "
                                                  r"numbers at step 1 \(t=0.01\)$"):
            _march_stack(states, [0.0], 0.01, _best_reply(m, "taylor", 0.01), 1e300, where=lambda row: f"row {row}: ")
        with pytest.raises(DivergenceError, match="left the finite numbers"):
            mpc_step_taylor(m, ParticleEnsemble(states[1]), 0.0, 0.01)
        with pytest.raises(DivergenceError, match="left the finite numbers at step 2"):
            _march_stack(np.array([[0.3, 1e100]]), [0.0, 0.01], 0.01, _best_reply(m, "taylor", 0.01), math.inf)
