import numpy as np

from mfglab._anderson import CONDITION_CAP, MEMORY, Anderson


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
    mixer = Anderson(n)
    x = np.zeros(n)
    for _ in range(n + 1):
        g = a @ x + b
        x = mixer.mix(x, g, float(np.linalg.norm(g - x)))
    assert np.max(np.abs(x - fixed_point)) <= 1e-12 * np.max(np.abs(fixed_point))
    assert mixer.accepted == n and mixer.rejected == 0


def test_restart_on_residual_growth():
    mixer = Anderson(3)
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
    mixer = Anderson(3)
    x = np.zeros(3)
    for f, residual in (([3.0, 0.0, 0.0], 3.0), ([2.0, 0.0, 0.0], 2.0)):
        mixer.mix(x, np.array(f), residual)
    candidate = mixer.mix(x, np.array([1.0, 1e-8, 0.0]), 1.0)
    assert CONDITION_CAP < 1e8
    assert mixer.depth == 1
    assert np.all(np.isfinite(candidate))


def test_rejected_candidate_gives_the_damped_image():
    mixer = Anderson(2)
    x = np.zeros(2)
    mixer.mix(x, np.array([2.0, 1.0]), 2.0)
    g = np.array([1.0, 1.5])
    mixer.mix(x, g, 1.5)
    assert mixer.reject() is g
    assert mixer.reject() is None
    assert (mixer.accepted, mixer.rejected) == (0, 1)
