import numpy as np
import pytest

from mfglab import (
    DivergenceError,
    ParticleEnsemble,
    brs_control,
    consensus_model,
    cost_grad,
    integrate_brs,
    mpc_step_exact,
    mpc_step_taylor,
    polynomial_model,
)
from mfglab.model import alpha_at


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
        # piecewise-constant controls equal -cost_grad/alpha at every grid time
        m = consensus_model(alpha=lambda t: 1.0 + 0.5 * t)
        start = ParticleEnsemble(np.array([-1.0, 0.2, 0.9]))
        traj, profile = integrate_brs(m, start, 0.5, 0.025)
        for step in range(profile.n_steps):
            state = traj.ensemble(step)
            t = profile.time_grid[step]
            for i in range(3):
                expected = -cost_grad(m, state, i) / alpha_at(m, float(t))
                assert profile.values[i, step] == expected

    def test_divergence_guard(self):
        # repulsive quadratic cost pushes particles apart exponentially
        m = polynomial_model(
            [[0.0]],
            np.array([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]]),
        )
        with pytest.raises(DivergenceError, match="bound"):
            integrate_brs(m, pair(-0.1, 0.1), 40.0, 0.05, blow_up_bound=1e3)

    def test_dt_must_divide_horizon(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="divide"):
            integrate_brs(m, pair(), 1.0, 0.3)

    def test_unknown_scheme(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="scheme"):
            integrate_brs(m, pair(), 1.0, 0.1, scheme="rk4")

    def test_exact_scheme_uses_end_of_step_weight(self):
        m = consensus_model(alpha=lambda t: 1.0 + t)
        dt = 0.125
        _, exact_profile = integrate_brs(m, pair(), 1.0, dt, scheme="exact")
        _, taylor_profile = integrate_brs(m, pair(), 1.0, dt, scheme="taylor")
        assert abs(exact_profile.values[0, 0] - 1.0 / (1.0 + dt)) <= 1e-14
        assert abs(taylor_profile.values[0, 0] - 1.0) <= 1e-14
