from dataclasses import replace

import numpy as np
import pytest

from mfglab import (DivergenceError, NumericalError, ParticleEnsemble, SpaceGrid, consensus_model, mfg_fixed_point,
                    nash_sweep, normalized_density, proposition2_gap)
from mfglab._anderson import CONDITION_CAP, GROWTH_LIMIT, MEMORY, Anderson, FixedPoint, FixedPointParams, solve
from mfglab.mfg import PICARD
from mfglab.nash import SWEEP


def rng(key):
    return np.random.Generator(np.random.Philox(key=key))


def test_affine_contraction_converges_in_n_plus_one_steps():
    # g(x) = A x + b with symmetric A of spectrum in [0.1, 0.9]: type-II mixing with a memory of
    # at least n is GMRES on (I - A) x = b, exact after n differences
    n = MEMORY - 1
    basis, _ = np.linalg.qr(rng(3).normal(size=(n, n)))
    a = basis @ np.diag(np.linspace(0.1, 0.9, n)) @ basis.T
    b = rng(4).normal(size=n)
    fixed_point = np.linalg.solve(np.eye(n) - a, b)
    mixer = Anderson()
    x = np.zeros(n)
    mixed = 0
    for _ in range(n + 1):
        g = a @ x + b
        x = mixer.mix(x, g, float(np.linalg.norm(g - x)))
        mixed += x is not g
    assert np.max(np.abs(x - fixed_point)) <= 1e-12 * np.max(np.abs(fixed_point))
    assert mixed == n


def test_restart_on_residual_growth():
    mixer = Anderson()
    x = np.zeros(3)
    mixer.mix(x, np.array([3.0, 1.0, 0.0]), 3.0)
    mixer.mix(x, np.array([2.0, 0.0, 1.0]), 2.0)
    assert mixer.depth == 1
    g = np.array([2.5, 0.5, 0.5])
    assert mixer.mix(x, g, 2.5) is g  # the residual grew: history cleared, plain damped step
    assert mixer.depth == 0
    g = np.array([1.0, 0.2, 0.1])
    assert mixer.mix(x, g, 1.0) is not g  # the step after a restart mixes again
    assert mixer.depth == 1


def test_ill_conditioned_differences_dropped():
    # the newest residual difference (-1, 1e-8, 0) is nearly parallel to the one before,
    # (-1, 0, 0): the pivot ratio is about 1e8 > CONDITION_CAP, so the older one goes
    mixer = Anderson()
    x = np.zeros(3)
    for f, residual in (([3.0, 0.0, 0.0], 3.0), ([2.0, 0.0, 0.0], 2.0)):
        mixer.mix(x, np.array(f), residual)
    candidate = mixer.mix(x, np.array([1.0, 1e-8, 0.0]), 1.0)
    assert CONDITION_CAP < 1e8
    assert mixer.depth == 1
    assert np.all(np.isfinite(candidate))


class Scripted:
    """A map for ``solve`` that records every (x, theta) it sees and reads its residuals from a script.

    The damped image is (1 - theta) x + theta (x / 2 + 1), of fixed point 2; ``fail`` names the calls
    that raise ``DivergenceError`` instead.
    """

    def __init__(self, residuals=None, fail=()):
        self.residuals, self.fail, self.calls, self.images = residuals, fail, [], []

    def __call__(self, x, theta):
        self.calls.append((x.copy(), theta))
        if len(self.calls) in self.fail:
            raise DivergenceError("scripted")
        image = (1.0 - theta) * x + theta * (0.5 * x + 1.0)
        self.images.append(image)
        residual = float(np.max(np.abs(image - x))) if self.residuals is None else self.residuals[len(self.calls) - 1]
        return image, residual, len(self.calls)


def test_solve_stops_at_the_tolerance():
    step = Scripted()
    (iterate, payload), fixed = solve(step, np.zeros(2), FixedPointParams(100, 1e-12, 1.0))
    assert fixed.converged and fixed.residual <= 1e-12 and fixed.residual == fixed.residual_history[-1]
    # x - 2 = 2 (g(x) - x) for the map x / 2 + 1
    assert np.array_equal(iterate, step.calls[-1][0]) and np.max(np.abs(iterate - 2.0)) <= 2e-12
    assert fixed.iterations == len(step.calls) == payload < 100
    assert fixed.accelerated_steps > 0 and fixed.rejected_steps == 0 and fixed.restarts == 0


def test_solve_stops_at_the_budget():
    step = Scripted(residuals=[3.0, 2.0, 1.0, 0.5])
    (iterate, payload), fixed = solve(step, np.zeros(2), FixedPointParams(3, 1e-12, 1.0))
    assert not fixed.converged
    assert len(step.calls) == fixed.iterations == payload == 3 and fixed.residual == 1.0
    assert np.array_equal(iterate, step.calls[-1][0])


@pytest.mark.parametrize("refusal", ["admit", "raise"])
def test_refused_candidate_continues_from_the_image(refusal):
    # the map is affine, so the second evaluation yields a mixed candidate: the fixed point itself
    refused = []

    def admit(x):  # refuses the first mixed candidate only
        if refusal == "admit" and not refused:
            refused.append(x)
            return None
        return x

    step = Scripted(fail=(3,) if refusal == "raise" else ())
    _, fixed = solve(step, np.zeros(2), FixedPointParams(100, 1e-12, 0.5), admit=admit)
    candidate = refused[0] if refusal == "admit" else step.calls[2][0]
    assert np.max(np.abs(candidate - 2.0)) <= 1e-14
    after = 2 if refusal == "admit" else 3  # the call that evaluates the image behind the refused candidate
    assert np.array_equal(step.calls[after][0], step.images[1])
    assert fixed.converged and fixed.rejected_steps == 1
    assert fixed.iterations == len(step.calls) - (refusal == "raise")


def test_first_failure_raises_and_a_later_one_ends_the_run():
    with pytest.raises(DivergenceError, match="scripted"):
        solve(Scripted(fail=(1,)), np.zeros(2), FixedPointParams(100, 1e-12, 1.0))
    # the second evaluation is of the plain image, which has no fallback: stop at the first iterate
    step = Scripted(residuals=[1.0], fail=(2,))
    (iterate, payload), fixed = solve(step, np.zeros(2), FixedPointParams(100, 1e-12, 1.0))
    assert not fixed.converged and fixed.iterations == 1 and payload == 1
    assert np.array_equal(iterate, np.zeros(2))


def test_growth_restarts_from_the_lowest_residual_iterate():
    # the residual falls once, then grows GROWTH_LIMIT times: back to the second iterate at theta 0.4
    growth = [2.0 + k for k in range(GROWTH_LIMIT)]
    step = Scripted(residuals=[3.0, 1.0] + growth + [0.5, 1e-13])
    _, fixed = solve(step, np.zeros(2), FixedPointParams(100, 1e-12, 0.8))
    assert fixed.converged and fixed.restarts == 1
    assert fixed.iterations == len(step.calls) == GROWTH_LIMIT + 4
    restart = GROWTH_LIMIT + 2
    assert np.array_equal(step.calls[restart][0], step.calls[1][0])
    assert [theta for _, theta in step.calls] == [0.8] * restart + [0.4, 0.4]
    # an empty history: the step after the restart is the plain image, not a mix
    assert np.array_equal(step.calls[restart + 1][0], step.images[restart])


def test_growth_restarts_stay_within_the_budget():
    # every residual grows, the first after a restart too: restarts after evaluations 6 and 11
    step = Scripted(residuals=[1.0 + k for k in range(20)])
    _, fixed = solve(step, np.zeros(2), FixedPointParams(13, 1e-12, 1.0))
    assert not fixed.converged and len(step.calls) == fixed.iterations == 13 and fixed.restarts == 2
    assert [theta for _, theta in step.calls] == [1.0] * 6 + [0.5] * 5 + [0.25] * 2
    assert all(np.array_equal(step.calls[k][0], np.zeros(2)) for k in (6, 11))


def test_params_validation():
    assert FixedPointParams(1, 1e-300, 1.0).theta == 1.0  # both ends of the ranges that hold
    for fields in ((0, 1e-8, 1.0), (1, 0.0, 1.0), (1, -1.0, 1.0), (1, 1e-8, 0.0), (1, 1e-8, -0.5), (1, 1e-8, 1.5)):
        with pytest.raises(ValueError):
            FixedPointParams(*fields)


def test_summary_counts_the_steps_and_restarts():
    run = FixedPoint(0.5, False, 48, np.zeros(48), 32, 0, 1)
    assert run.summary() == "48 iterations (32 Anderson steps accepted, 0 rejected, 1 restart)"
    assert replace(run, restarts=2).summary().endswith("0 rejected, 2 restarts)")
    assert replace(run, restarts=0, rejected_steps=3).summary().endswith("(32 Anderson steps accepted, 3 rejected)")


def test_solvers_report_non_convergence_through_require():
    # one evaluation is short of convergence on each solver; the results are FixedPoints and
    # ``require`` raises the one message, which proposition2_gap raises itself
    model = consensus_model()
    grid = SpaceGrid(0.0, 1.0, 32)
    m0 = normalized_density(grid, np.exp(-(((grid.centers() - 0.5) / 0.12) ** 2)))
    game = mfg_fixed_point(model, m0, 0.25, 1 / 80, replace(PICARD, max_iterations=1))
    nash = nash_sweep(model, ParticleEnsemble(np.array([0.0, 1.0])), 1.0, 0.01, replace(SWEEP, max_iterations=1))
    for result, solver in ((game, "coupled fixed point"), (nash, "sweep")):
        assert isinstance(result, FixedPoint) and not result.converged and result.iterations == 1
        with pytest.raises(NumericalError) as raised:
            result.require(solver)
        assert str(raised.value) == f"{solver} did not converge (residual {result.residual:.3e} after 1 iterations)"
    converged = mfg_fixed_point(model, m0, 0.25, 1 / 80)
    assert converged.converged and converged.require("coupled fixed point") is None
    window = r"^coupled solve on the window \[0, 0.05\] did not converge \(residual \d\.\d{3}e-\d+ after 1 iterations\)"
    with pytest.raises(NumericalError, match=window):
        proposition2_gap(model, m0, 0.05, replace(PICARD, max_iterations=1))
