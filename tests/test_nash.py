import numpy as np
import pytest

from mfglab import (
    ControlProfile,
    DivergenceError,
    ParticleEnsemble,
    SweepParams,
    bounded_confidence_model,
    consensus_model,
    gradient_via_adjoint,
    integrate_brs,
    nash_sweep,
    polynomial_model,
    simulate_state,
    solve_adjoint,
    value,
)
from mfglab.model import cost_gradient_full, drift_jacobian


def grid_profile(n, n_steps, horizon, values=None):
    times = (horizon / n_steps) * np.arange(n_steps + 1)
    vals = np.zeros((n, n_steps)) if values is None else values
    return ControlProfile(vals, times)


def rng(key):
    return np.random.Generator(np.random.Philox(key=key))


class TestSimulateState:
    def test_no_forces_constant_trajectory(self):
        m = polynomial_model([[0.0]], [[0.0]])
        start = ParticleEnsemble(np.array([0.2, 0.9]))
        traj = simulate_state(m, start, grid_profile(2, 10, 1.0))
        assert np.all(traj.positions == start.positions[None, :])

    def test_uncontrolled_consensus_decay(self):
        # gap obeys dg/dt = -g without control: e^{-1} at T=1 up to O(dt)
        m = consensus_model()
        traj = simulate_state(m, ParticleEnsemble(np.array([0.0, 1.0])), grid_profile(2, 400, 1.0))
        gap = traj.positions[-1, 1] - traj.positions[-1, 0]
        assert abs(gap - np.exp(-1.0)) <= 2e-3

    def test_reproduces_integrator_bitwise(self):
        m = consensus_model(alpha=lambda t: 1.0 + t)
        start = ParticleEnsemble(np.array([-0.4, 0.3, 1.0]))
        traj, profile = integrate_brs(m, start, 1.0, 0.02)
        replay = simulate_state(m, start, profile)
        assert np.array_equal(replay.positions, traj.positions)


class TestSolveAdjoint:
    def test_zero_drift_constant_state_closed_form(self):
        # with P == 0 and a frozen pair (0, 1): phi^i_j(t) = (T - t) * dh_i/dx_j
        m = polynomial_model(
            [[0.0]],
            np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]]),  # (x-y)^2/2
        )
        n_steps = 50
        profile = grid_profile(2, n_steps, 1.0)
        traj = simulate_state(m, ParticleEnsemble(np.array([0.0, 1.0])), profile)
        phi = solve_adjoint(m, traj)[0]
        times = profile.time_grid
        assert np.allclose(phi[0], -(1.0 - times), atol=1e-12)
        assert np.allclose(phi[1], +(1.0 - times), atol=1e-12)
        assert np.all(phi[:, -1] == 0.0)

    def test_constant_cost_zero_adjoint(self):
        m = polynomial_model([[1.0]], [[4.0]])
        profile = grid_profile(2, 20, 1.0)
        traj = simulate_state(m, ParticleEnsemble(np.array([0.0, 1.0])), profile)
        assert np.all(solve_adjoint(m, traj) == 0.0)

    def test_matches_per_player_recursion(self):
        # reference: player i alone, phi^i(l) = phi^i(l+1) + dt (J^T phi^i(l+1) + G[i]);
        # the joint march reorders the matrix products, so agreement is to round-off
        m = bounded_confidence_model(radius=0.5)
        profile = grid_profile(5, 20, 1.0, values=rng(7).normal(size=(5, 20)))
        traj = simulate_state(m, ParticleEnsemble(rng(8).random(5)), profile)
        phi = solve_adjoint(m, traj)
        dt = 1.0 / 20
        for i in range(5):
            ref = np.zeros((5, 21))
            for step in range(19, -1, -1):
                state = traj.ensemble(step)
                jac, sources = drift_jacobian(m, state), cost_gradient_full(m, state)
                ref[:, step] = ref[:, step + 1] + dt * (jac.T @ ref[:, step + 1] + sources[i])
            assert np.max(np.abs(phi[i] - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_permuted_labels_give_permuted_adjoint(self):
        m = consensus_model()
        x = np.array([-0.9, -0.1, 0.4, 1.2])
        perm = np.array([3, 0, 2, 1])
        profile = grid_profile(4, 30, 1.0)
        t1 = simulate_state(m, ParticleEnsemble(x), profile)
        t2 = simulate_state(m, ParticleEnsemble(x[perm]), profile)
        i = 2
        i_permuted = int(np.where(perm == i)[0][0])
        phi = solve_adjoint(m, t1)[i]
        phi_relabelled = solve_adjoint(m, t2)[i_permuted]
        assert np.allclose(phi[perm], phi_relabelled, atol=1e-12)


class TestValue:
    def test_zero_cost_zero_value(self):
        m = polynomial_model([[0.0]], [[0.0]])
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        assert np.all(value(m, start, grid_profile(2, 10, 1.0)) == 0.0)

    def test_constant_integrand(self):
        # constant control c and constant cost k: V = T (a c^2/2 + k) for every player
        kappa = 0.7
        m = polynomial_model([[0.0]], [[kappa]], alpha=2.0)
        c = 0.3
        profile = grid_profile(2, 40, 1.0, values=np.full((2, 40), c))
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        expected = 1.0 * (2.0 * c * c / 2.0 + kappa)
        assert value(m, start, profile) == pytest.approx([expected, expected], rel=1e-12)
        expected_half = 0.5 * (2.0 * c * c / 2.0 + kappa)
        half = grid_profile(2, 20, 0.5, values=np.full((2, 20), c))
        assert value(m, start, half) == pytest.approx([expected_half, expected_half], rel=1e-12)

    def test_newton_step_on_own_control_descends(self):
        # the map u_i -> V_i is quadratic for the consensus model, so one Newton
        # step (Hessian by differencing the exact gradient) reaches the best reply
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        n_steps = 20
        g = rng(17)
        profile = grid_profile(2, n_steps, 1.0, values=g.normal(size=(2, n_steps)))
        i, dt = 0, 1.0 / n_steps
        grad = gradient_via_adjoint(m, start, profile)[i] * dt
        hess = np.empty((n_steps, n_steps))
        for l in range(n_steps):
            bumped = profile.values.copy()
            bumped[i, l] += 1.0
            bumped_profile = ControlProfile(bumped, profile.time_grid)
            hess[:, l] = gradient_via_adjoint(m, start, bumped_profile)[i] * dt - grad
        newton = profile.values.copy()
        newton[i] -= np.linalg.solve(hess, grad)
        before = value(m, start, profile)[i]
        after = value(m, start, ControlProfile(newton, profile.time_grid))[i]
        assert after < before


class TestGradientViaAdjoint:
    def test_zero_everything(self):
        m = polynomial_model([[0.0]], [[0.0]])
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        assert np.all(gradient_via_adjoint(m, start, grid_profile(2, 10, 1.0)) == 0.0)

    def test_matches_central_differences(self):
        # the core correctness check: exact discrete gradient vs FD of the value
        n, n_steps, horizon = 4, 50, 1.0
        m = consensus_model()
        g = rng(123)
        profile = grid_profile(n, n_steps, horizon, values=g.normal(size=(n, n_steps)))
        start = ParticleEnsemble(g.normal(size=n))
        dt = horizon / n_steps
        delta = 1e-5
        grad = gradient_via_adjoint(m, start, profile)
        for i in range(n):
            for l in range(0, n_steps, 7):
                hi = profile.values.copy()
                hi[i, l] += delta
                lo = profile.values.copy()
                lo[i, l] -= delta
                fd = (
                    value(m, start, ControlProfile(hi, profile.time_grid))[i]
                    - value(m, start, ControlProfile(lo, profile.time_grid))[i]
                ) / (2 * delta * dt)
                assert abs(grad[i, l] - fd) <= 1e-5 * max(abs(fd), 1e-8)

    def test_converged_sweep_has_small_gradient(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        res = nash_sweep(m, start, 1.0, 1.0 / 100)
        assert res.converged
        grad = gradient_via_adjoint(m, start, res.controls)
        assert np.max(np.abs(grad)) <= res.residual + 1e-15


class TestNashSweep:
    def test_zero_cost_converges_immediately(self):
        m = polynomial_model([[1.0]], [[0.0]])
        start = ParticleEnsemble(np.array([-0.5, 0.0, 0.5]))
        res = nash_sweep(m, start, 1.0, 0.05)
        assert res.converged and res.iterations == 1
        assert res.residual == 0.0
        assert np.all(res.controls.values == 0.0)

    def test_mirror_symmetry(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([-0.75, -0.25, 0.25, 0.75]))
        res = nash_sweep(m, start, 1.0, 1.0 / 100)
        assert res.converged
        u = res.controls.values
        assert np.max(np.abs(u[0] + u[3])) <= 1e-6
        assert np.max(np.abs(u[1] + u[2])) <= 1e-6

    def test_consensus_pair_fixture(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        res = nash_sweep(m, start, 1.0, 1.0 / 200)
        assert res.converged and res.residual <= 1e-8
        _, brs_profile = integrate_brs(m, start, 1.0, 1.0 / 200)
        v_game = value(m, start, res.controls)
        v_myopic = value(m, start, brs_profile)
        assert np.all(v_game <= v_myopic + 1e-6)

    def test_merit_decreases_along_sweep(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        res = nash_sweep(m, start, 1.0, 1.0 / 200, record_history=True)
        merits = []
        for controls in res.control_history:
            profile = ControlProfile(controls, res.controls.time_grid)
            merits.append(sum(value(m, start, profile)))
        assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))

    def test_relabeling_equivariance(self):
        m = consensus_model()
        x = np.array([-0.8, -0.1, 0.4, 0.9])
        perm = np.array([2, 0, 3, 1])
        r1 = nash_sweep(m, ParticleEnsemble(x), 1.0, 1.0 / 100)
        r2 = nash_sweep(m, ParticleEnsemble(x[perm]), 1.0, 1.0 / 100)
        assert np.max(np.abs(r1.controls.values[perm] - r2.controls.values)) <= 1e-12

    def test_non_convergence_reported_not_raised(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        res = nash_sweep(m, start, 1.0, 1.0 / 100, SweepParams(max_iterations=2))
        assert not res.converged
        assert res.iterations == 2
        assert res.residual > 1e-8

    def test_divergence_after_first_sweep_reported_not_raised(self):
        # undamped sweeps on a narrow window drive the state past the blow-up bound
        from mfglab.harness import sample_initial

        m = bounded_confidence_model(radius=0.1)
        start = sample_initial(0, 8, {"kind": "uniform", "a": 0.0, "b": 1.0})
        res = nash_sweep(m, start, 2.0, 0.02, SweepParams(relaxation=1.0))
        assert not res.converged
        assert 1 < res.iterations < SweepParams().max_iterations
        assert res.residual_history.size == res.iterations
        assert res.residual == res.residual_history[-1]
        # the reported iterate is finite and consistent: its controls replay its trajectory
        replay = simulate_state(m, start, res.controls)
        assert np.array_equal(replay.positions, res.trajectory.positions)

    def test_divergence_in_first_sweep_raises(self):
        # repulsive drift: the uncontrolled first sweep already leaves the bound
        m = polynomial_model([[-1.0]], [[0.0]])
        with pytest.raises(DivergenceError, match="bound"):
            nash_sweep(m, ParticleEnsemble(np.array([0.0, 1.0])), 40.0, 0.05)

    def test_adjoint_terminal_slice_zero(self):
        m = consensus_model()
        res = nash_sweep(m, ParticleEnsemble(np.array([-0.3, 0.1, 0.6])), 1.0, 0.025)
        assert np.all(res.adjoints.values[:, :, -1] == 0.0)

    def test_sweep_params_validation(self):
        with pytest.raises(ValueError):
            SweepParams(tolerance=0.0)
        with pytest.raises(ValueError):
            SweepParams(relaxation=1.5)
        with pytest.raises(ValueError):
            SweepParams(max_iterations=0)
