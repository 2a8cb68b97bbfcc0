import dataclasses

import numpy as np
import pytest

from mfglab import (
    ControlProfile,
    DivergenceError,
    NumericalError,
    ParticleEnsemble,
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
from mfglab import ParticleTrajectory, cost, drift
from mfglab.model import _BATCH_ENTRIES, _batches, alpha_at, cost_gradient_full, drift_jacobian
from mfglab._anderson import GROWTH_LIMIT
from mfglab.nash import SWEEP
from test_model import STACK_MODELS


def grid_profile(n, n_steps, horizon, values=None):
    times = (horizon / n_steps) * np.arange(n_steps + 1)
    vals = np.zeros((n_steps, n)) if values is None else values
    return ControlProfile(vals, times)


def rng(key):
    return np.random.Generator(np.random.Philox(key=key))


def simulated_value(m, start, profile):
    """Every player's cost-to-go along the trajectory that ``profile`` steers ``start`` to."""
    return value(m, simulate_state(m, start, profile), profile)


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

    def test_player_count_must_match_the_controls(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="ensemble has 2 particles, controls are for 3"):
            simulate_state(m, ParticleEnsemble(np.array([0.0, 1.0])), grid_profile(3, 10, 1.0))

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
        phi = solve_adjoint(m, traj)[:, 0]
        times = profile.times
        assert np.allclose(phi[:, 0], -(1.0 - times), atol=1e-12)
        assert np.allclose(phi[:, 1], +(1.0 - times), atol=1e-12)
        assert np.all(phi[-1] == 0.0)

    def test_constant_cost_zero_adjoint(self):
        m = polynomial_model([[1.0]], [[4.0]])
        profile = grid_profile(2, 20, 1.0)
        traj = simulate_state(m, ParticleEnsemble(np.array([0.0, 1.0])), profile)
        assert np.all(solve_adjoint(m, traj) == 0.0)

    def test_matches_per_player_recursion(self):
        # reference: player i alone, phi^i(l) = phi^i(l+1) + dt (J^T phi^i(l+1) + G[i]);
        # the joint march reorders the matrix products, so agreement is to round-off
        m = bounded_confidence_model(radius=0.5)
        profile = grid_profile(5, 20, 1.0, values=rng(7).normal(size=(5, 20)).T)
        traj = simulate_state(m, ParticleEnsemble(rng(8).random(5)), profile)
        phi = solve_adjoint(m, traj)
        dt = 1.0 / 20
        for i in range(5):
            ref = np.zeros((21, 5))
            for step in range(19, -1, -1):
                state = traj.ensemble(step)
                jac, sources = drift_jacobian(m, state.positions), cost_gradient_full(m, state.positions)
                ref[step] = ref[step + 1] + dt * (jac.T @ ref[step + 1] + sources[i])
            assert np.max(np.abs(phi[:, i] - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_permuted_labels_give_permuted_adjoint(self):
        m = consensus_model()
        x = np.array([-0.9, -0.1, 0.4, 1.2])
        perm = np.array([3, 0, 2, 1])
        profile = grid_profile(4, 30, 1.0)
        t1 = simulate_state(m, ParticleEnsemble(x), profile)
        t2 = simulate_state(m, ParticleEnsemble(x[perm]), profile)
        i = 2
        i_permuted = int(np.where(perm == i)[0][0])
        phi = solve_adjoint(m, t1)[:, i]
        phi_relabelled = solve_adjoint(m, t2)[:, i_permuted]
        assert np.allclose(phi[:, perm], phi_relabelled, atol=1e-12)


class TestValue:
    def test_zero_cost_zero_value(self):
        m = polynomial_model([[0.0]], [[0.0]])
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        assert np.all(simulated_value(m, start, grid_profile(2, 10, 1.0)) == 0.0)

    def test_constant_integrand(self):
        # constant control c and constant cost k: V = T (a c^2/2 + k) for every player
        kappa = 0.7
        m = polynomial_model([[0.0]], [[kappa]], alpha=2.0)
        c = 0.3
        profile = grid_profile(2, 40, 1.0, values=np.full((40, 2), c))
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        expected = 1.0 * (2.0 * c * c / 2.0 + kappa)
        assert simulated_value(m, start, profile) == pytest.approx([expected, expected], rel=1e-12)
        expected_half = 0.5 * (2.0 * c * c / 2.0 + kappa)
        half = grid_profile(2, 20, 0.5, values=np.full((20, 2), c))
        assert simulated_value(m, start, half) == pytest.approx([expected_half, expected_half], rel=1e-12)

    def test_newton_step_on_own_control_descends(self):
        # the map u_i -> V_i is quadratic for the consensus model, so one Newton
        # step (Hessian by differencing the exact gradient) reaches the best reply
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        n_steps = 20
        g = rng(17)
        profile = grid_profile(2, n_steps, 1.0, values=g.normal(size=(2, n_steps)).T)
        i, dt = 0, 1.0 / n_steps
        grad = gradient_via_adjoint(m, start, profile)[:, i] * dt
        hess = np.empty((n_steps, n_steps))
        for l in range(n_steps):
            bumped = profile.values.copy()
            bumped[l, i] += 1.0
            bumped_profile = ControlProfile(bumped, profile.times)
            hess[:, l] = gradient_via_adjoint(m, start, bumped_profile)[:, i] * dt - grad
        newton = profile.values.copy()
        newton[:, i] -= np.linalg.solve(hess, grad)
        before = simulated_value(m, start, profile)[i]
        after = simulated_value(m, start, ControlProfile(newton, profile.times))[i]
        assert after < before

    @pytest.mark.parametrize("name", sorted(STACK_MODELS))
    def test_sum_along_a_given_trajectory_is_value_bit_for_bit(self, name):
        # 70 players over 30 steps: the running costs come in blocks of 13 steps. Best reply and the
        # open-loop law share one march, so its own controls replay integrate_brs's trajectory bit for bit.
        model = dataclasses.replace(STACK_MODELS[name](), alpha=lambda t: 1.0 + t)
        start = ParticleEnsemble(rng(23).uniform(-1.0, 1.0, size=70))
        trajectory, profile = integrate_brs(model, start, 0.6, 0.02)
        assert len(_batches(profile.n_steps, start.n**2)) == 3
        assert simulate_state(model, start, profile).positions.tobytes() == trajectory.positions.tobytes()
        assert value(model, trajectory, profile).tobytes() == simulated_value(model, start, profile).tobytes()
        game = nash_sweep(model, ParticleEnsemble(start.positions[:6]), 0.6, 0.02)
        with pytest.raises(ValueError, match="does not match controls"):
            value(model, trajectory, game.controls)
        assert (value(model, game.trajectory, game.controls).tobytes()
                == simulated_value(model, ParticleEnsemble(start.positions[:6]), game.controls).tobytes())


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
        profile = grid_profile(n, n_steps, horizon, values=g.normal(size=(n, n_steps)).T)
        start = ParticleEnsemble(g.normal(size=n))
        dt = horizon / n_steps
        delta = 1e-5
        grad = gradient_via_adjoint(m, start, profile)
        for i in range(n):
            for l in range(0, n_steps, 7):
                hi = profile.values.copy()
                hi[l, i] += delta
                lo = profile.values.copy()
                lo[l, i] -= delta
                fd = (
                    simulated_value(m, start, ControlProfile(hi, profile.times))[i]
                    - simulated_value(m, start, ControlProfile(lo, profile.times))[i]
                ) / (2 * delta * dt)
                assert abs(grad[l, i] - fd) <= 1e-5 * max(abs(fd), 1e-8)

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
        assert np.max(np.abs(u[:, 0] + u[:, 3])) <= 1e-6
        assert np.max(np.abs(u[:, 1] + u[:, 2])) <= 1e-6

    def test_consensus_pair_fixture(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        res = nash_sweep(m, start, 1.0, 1.0 / 200)
        assert res.converged and res.residual <= 1e-8
        _, brs_profile = integrate_brs(m, start, 1.0, 1.0 / 200)
        v_game = simulated_value(m, start, res.controls)
        v_myopic = simulated_value(m, start, brs_profile)
        assert np.all(v_game <= v_myopic + 1e-6)

    def test_merit_decreases_along_sweep(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        # iterate k is the result of a sweep stopped after k iterations
        iterations = nash_sweep(m, start, 1.0, 1.0 / 200).iterations
        merits = []
        for k in range(1, iterations + 1):
            res = nash_sweep(m, start, 1.0, 1.0 / 200, dataclasses.replace(SWEEP, max_iterations=k))
            assert res.iterations == k
            merits.append(sum(simulated_value(m, start, res.controls)))
        assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))

    def test_relabeling_equivariance(self):
        m = consensus_model()
        x = np.array([-0.8, -0.1, 0.4, 0.9])
        perm = np.array([2, 0, 3, 1])
        r1 = nash_sweep(m, ParticleEnsemble(x), 1.0, 1.0 / 100)
        r2 = nash_sweep(m, ParticleEnsemble(x[perm]), 1.0, 1.0 / 100)
        assert np.max(np.abs(r1.controls.values[:, perm] - r2.controls.values)) <= 1e-12

    def test_non_convergence_reported_not_raised(self):
        m = consensus_model()
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        res = nash_sweep(m, start, 1.0, 1.0 / 100, dataclasses.replace(SWEEP, max_iterations=2))
        assert not res.converged
        assert res.iterations == 2
        assert res.residual > 1e-8

    def test_divergence_after_first_sweep_reported_not_raised(self, monkeypatch):
        # undamped sweeps on a long window: the residual grows from the first sweep on, so every
        # sweep runs the plain best response; the fourth state march diverges
        import mfglab.nash
        from mfglab.harness import sample_initial

        m = bounded_confidence_model(radius=0.1)
        start = sample_initial(0, 8, {"kind": "uniform", "a": 0.0, "b": 1.0})
        params = dataclasses.replace(SWEEP, theta=1.0, max_iterations=GROWTH_LIMIT)
        budget = nash_sweep(m, start, 2.0, 0.02, params)
        assert not budget.converged and budget.iterations == GROWTH_LIMIT and budget.restarts == 0
        assert np.all(np.diff(budget.residual_history) > 0.0)
        calls = []
        original = mfglab.nash.simulate_state

        def failing_fourth(*args):
            calls.append(None)
            if len(calls) == 4:
                raise DivergenceError("injected")
            return original(*args)

        monkeypatch.setattr(mfglab.nash, "simulate_state", failing_fourth)
        res = nash_sweep(m, start, 2.0, 0.02, params)
        assert not res.converged and res.iterations == 3 and len(calls) == 4
        assert np.array_equal(res.residual_history, budget.residual_history[:3])
        assert res.residual == res.residual_history[-1]
        # the reported iterate is finite and consistent: its controls replay its trajectory
        replay = original(m, start, res.controls)
        assert np.array_equal(replay.positions, res.trajectory.positions)

    def test_growing_residual_restarts_the_sweep(self):
        # the same undamped case converges once its growth restarts halve theta three times
        from mfglab.harness import sample_initial

        m = bounded_confidence_model(radius=0.1)
        start = sample_initial(0, 8, {"kind": "uniform", "a": 0.0, "b": 1.0})
        res = nash_sweep(m, start, 2.0, 0.02, dataclasses.replace(SWEEP, theta=1.0))
        assert res.converged and res.restarts == 3 and res.iterations == res.residual_history.size == 86
        history = res.residual_history
        assert np.all(np.diff(history[:GROWTH_LIMIT + 1]) > 0.0)
        # the first restart goes back to the lowest-residual iterate, the uncontrolled first sweep
        assert history[GROWTH_LIMIT + 1] == history[0]
        first = nash_sweep(m, start, 2.0, 0.02, dataclasses.replace(SWEEP, theta=1.0, max_iterations=GROWTH_LIMIT + 2))
        assert first.restarts == 1 and np.array_equal(first.controls.values, np.zeros_like(first.controls.values))

    @pytest.mark.parametrize("seed, sweeps, restarts", [(0, 23, 0), (1, 48, 1), (2, 25, 0), (3, 40, 1), (4, 23, 0),
                                                        (5, 40, 1)])
    def test_restart_converges_every_seed_at_the_default_weight(self, seed, sweeps, restarts):
        # bounded confidence r 0.1, 8 players, T 1: without the restart seeds 1, 3 and 5 stop unconverged
        from mfglab.harness import sample_initial

        m = bounded_confidence_model(radius=0.1)
        res = nash_sweep(m, sample_initial(seed, 8, {"kind": "uniform", "a": 0.0, "b": 1.0}), 1.0, 0.02)
        assert res.converged and (res.iterations, res.restarts) == (sweeps, restarts)

    def test_anderson_converges_where_damping_alone_stalls(self):
        # plain damped sweeps stall at residual 1.674e-3 on this case
        from mfglab.harness import sample_initial

        m = bounded_confidence_model(radius=0.1)
        start = sample_initial(0, 8, {"kind": "uniform", "a": 0.0, "b": 1.0})
        res = nash_sweep(m, start, 1.0, 0.02, dataclasses.replace(SWEEP, theta=0.5))
        assert res.converged and res.iterations <= 40
        assert res.accelerated_steps > 0 and res.rejected_steps == 0

    def test_diverging_anderson_candidate_rejected(self, monkeypatch):
        # the third sweep runs the first mixed candidate; its divergence sends the sweep back to
        # the damped image, and the sweep still converges
        import mfglab.nash

        calls = []
        original = mfglab.nash.simulate_state

        def failing_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise DivergenceError("injected")
            return original(*args)

        monkeypatch.setattr(mfglab.nash, "simulate_state", failing_third)
        m = consensus_model()
        start = ParticleEnsemble(np.array([-0.8, -0.1, 0.4, 0.9]))
        res = nash_sweep(m, start, 1.0, 1.0 / 100)
        assert res.converged and res.rejected_steps == 1
        assert len(calls) == res.iterations + 1

    def test_divergence_in_first_sweep_raises(self):
        # repulsive drift: the uncontrolled first sweep already leaves the bound
        m = polynomial_model([[-1.0]], [[0.0]])
        with pytest.raises(DivergenceError, match="bound"):
            nash_sweep(m, ParticleEnsemble(np.array([0.0, 1.0])), 40.0, 0.05)

    def test_adjoint_terminal_slice_zero(self):
        m = consensus_model()
        res = nash_sweep(m, ParticleEnsemble(np.array([-0.3, 0.1, 0.6])), 1.0, 0.025)
        assert res.costates.shape == (41, 3, 3) and np.all(np.isfinite(res.costates))
        assert np.all(res.costates[-1] == 0.0)
        assert np.array_equal(res.costates, solve_adjoint(m, res.trajectory))

    def test_sweep_params_validation(self):
        # the sweep defaults are a FixedPointParams: a replaced field is validated again
        with pytest.raises(ValueError):
            dataclasses.replace(SWEEP, tolerance=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(SWEEP, theta=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(SWEEP, max_iterations=0)


class TestSweepBitForBit:
    """``simulate_state``, ``solve_adjoint`` and ``value`` repeat their per-step loops bit for bit.

    The references below are those loops written out with the public per-ensemble
    functions: one ensemble, one drift, one J and G, one cost per step.
    """

    MODELS = {
        "bounded_confidence": lambda: bounded_confidence_model(radius=0.15),
        "consensus": consensus_model,
        "cubic_cost": lambda: polynomial_model(
            [[1.0, 0.2]],
            [[0.0, 0.0, 0.5, 0.1], [0.0, -1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.2, 0.0, 0.0, 0.0]],
            alpha=lambda t: 1.0 + 0.5 * t,
        ),
    }

    @staticmethod
    def per_step_states(m, start, profile):
        x = start.positions.copy()
        positions = [x]
        for step in range(profile.n_steps):
            x = x + profile.dt * (drift(m, x) + profile.values[step])
            positions.append(x)
        return np.array(positions)

    @staticmethod
    def per_step_costates(m, trajectory, dt):
        # time-first like solve_adjoint, so both products read a contiguous N x N slice: numpy
        # releases differ in whether a strided operand of @ goes through BLAS, which rounds differently
        n_steps, n = len(trajectory) - 1, trajectory.n_particles
        phi = np.zeros((n_steps + 1, n, n))
        for step in range(n_steps - 1, -1, -1):
            state = trajectory.positions[step]
            later = phi[step + 1]
            phi[step] = later + dt * (later @ drift_jacobian(m, state) + cost_gradient_full(m, state))
        return phi

    @staticmethod
    def per_step_value(m, profile, positions):
        total = np.zeros(positions.shape[1])
        for step in range(profile.n_steps):
            weight, u = alpha_at(m, float(profile.times[step])), profile.values[step]
            total += profile.dt * (0.5 * weight * u * u + cost(m, positions[step]))
        return total

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n", [2, 8, 96])
    def test_matches_per_step_loops(self, name, n):
        m = self.MODELS[name]()
        g = rng(100 + n)
        start = ParticleEnsemble(g.random(n))
        profile = grid_profile(n, 25, 0.5, values=0.5 * g.normal(size=(n, 25)).T)
        trajectory = simulate_state(m, start, profile)
        assert np.array_equal(trajectory.positions, self.per_step_states(m, start, profile))
        assert np.array_equal(solve_adjoint(m, trajectory), self.per_step_costates(m, trajectory, profile.dt))
        assert np.array_equal(value(m, trajectory, profile), self.per_step_value(m, profile, trajectory.positions))

    @pytest.mark.parametrize("n, count", [(2, 1), (8, 1), (96, 4), (181, 13), (256, 25), (300, 25)])
    def test_blocks_cover_the_steps_within_the_cap(self, n, count):
        # one block for the whole trajectory at N = 8, one step per block from N = 256 on
        blocks = _batches(25, n * n)
        assert len(blocks) == count
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]] and blocks[-1][1] == 25
        assert all((b - a) * n * n <= _BATCH_ENTRIES or b - a == 1 for a, b in blocks)

    def test_non_finite_state_is_refused_as_input(self):
        # the state of step 4 is NaN: the costate march would turn it into a NumericalError
        m = consensus_model()
        trajectory = simulate_state(m, ParticleEnsemble(np.array([0.0, 0.5, 1.0])), grid_profile(3, 10, 1.0))
        trajectory.positions[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite particle position"):
            solve_adjoint(m, trajectory)

    def test_non_finite_costate_names_its_step(self):
        # phi(x, y) = y^2 without drift: G of the state at step 6 overflows, every other G is finite
        m = polynomial_model([[0.0]], [[0.0, 0.0, 1.0]])
        positions = np.tile([0.2, 0.5, 0.7], (11, 1))
        positions[6, 0] = 1e308
        trajectory = ParticleTrajectory(np.linspace(0.0, 1.0, 11), positions)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="at step 6$"):
            solve_adjoint(m, trajectory)
