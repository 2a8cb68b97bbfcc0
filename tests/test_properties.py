"""Property-based checks of the particle evaluations, the costates, the upwind step and W1.

``consensus_model`` carries coefficient tables and takes the structured
(moment) path; ``bounded_confidence_model`` has none and takes the dense
pairwise path. Both must be equivariant under relabeling the particles: the
player vectors, the cost sensitivities G (as P G P^T) and the costates (on
their player and state axes) are permuted to round-off. The consensus drift
and cost slopes depend on differences only, so they are
unchanged by a common translation. The upwind step conserves mass and keeps
densities nonnegative under its CFL restriction, and the exact W1 distance
is a metric that agrees with the order-statistics formula at equal N.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfglab import (
    EmpiricalMeasure,
    ParticleEnsemble,
    ParticleTrajectory,
    SpaceGrid,
    bounded_confidence_model,
    consensus_model,
    cost,
    cost_grad_vector,
    drift,
    normalized_density,
    solve_adjoint,
    step_upwind,
    w1,
    w1_sorted_atoms,
)
from mfglab.model import cost_gradient_full

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

positions = st.lists(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=40)
shifts = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
MODELS = {"consensus": consensus_model(), "bounded_confidence": bounded_confidence_model(radius=0.5)}


def tolerance(x: np.ndarray, shift: float = 0.0) -> float:
    """Round-off allowance: a few hundred ulps of the largest coordinate involved."""
    return 1e-13 * (1.0 + np.max(np.abs(x)) + abs(shift))


@PROPERTY_SETTINGS
@given(xs=positions, shift=shifts)
def test_consensus_translation_leaves_drift_and_slopes_unchanged(xs, shift):
    x = np.asarray(xs)
    model = consensus_model()
    moved = x + shift
    for evaluate in (drift, cost_grad_vector):
        here = evaluate(model, ParticleEnsemble(x))
        there = evaluate(model, ParticleEnsemble(moved))
        assert np.max(np.abs(here - there)) <= tolerance(x, shift)


@PROPERTY_SETTINGS
@given(data=st.data(), xs=positions, kind=st.sampled_from(sorted(MODELS)))
def test_relabeling_permutes_drift_and_slopes(data, xs, kind):
    x = np.asarray(xs)
    order = np.asarray(data.draw(st.permutations(range(x.size))))
    model = MODELS[kind]
    assert (model.drift_poly is not None) == (kind == "consensus")
    for evaluate in (drift, cost_grad_vector):
        plain = evaluate(model, ParticleEnsemble(x))
        relabeled = evaluate(model, ParticleEnsemble(x[order]))
        assert np.max(np.abs(relabeled - plain[order])) <= tolerance(x)


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(2, 8), steps=st.integers(1, 4), kind=st.sampled_from(sorted(MODELS)))
def test_relabeling_permutes_costs_sensitivities_and_costates(data, n, steps, kind):
    coordinates = st.lists(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                           min_size=n * (steps + 1), max_size=n * (steps + 1))
    path = np.asarray(data.draw(coordinates)).reshape(steps + 1, n)
    order = np.asarray(data.draw(st.permutations(range(n))))
    model = MODELS[kind]

    def close(relabeled, permuted):
        return np.max(np.abs(relabeled - permuted)) <= tolerance(path) * (1.0 + np.max(np.abs(permuted)))

    plain, relabeled = ParticleEnsemble(path[0]), ParticleEnsemble(path[0, order])
    assert close(cost(model, relabeled), cost(model, plain)[order])
    assert close(cost_gradient_full(model, relabeled), cost_gradient_full(model, plain)[np.ix_(order, order)])
    times = np.arange(steps + 1) / steps
    costates = solve_adjoint(model, ParticleTrajectory(times, path))
    relabeled_costates = solve_adjoint(model, ParticleTrajectory(times, path[:, order]))
    assert close(relabeled_costates, costates[np.ix_(order, order)])


cell_values = st.lists(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False), min_size=8, max_size=64)
atom_lists = st.lists(st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=30)


def density(values):
    assume(sum(values) > 1e-3)
    return normalized_density(SpaceGrid(-1.0, 2.0, len(values)), np.asarray(values))


@st.composite
def measures(draw):
    """An empirical measure or a density on a grid that straddles the atoms' range."""
    if draw(st.booleans()):
        return EmpiricalMeasure(draw(atom_lists))
    return density(draw(cell_values))


@PROPERTY_SETTINGS
@given(values=cell_values, data=st.data())
def test_upwind_step_conserves_mass_and_positivity_under_cfl(values, data):
    m = density(values)
    cells, dx = m.grid.cells, m.grid.dx
    faces = np.asarray(data.draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=cells + 1,
                                          max_size=cells + 1)))
    faces[[0, -1]] = 0.0  # boundary faces carry no flux in any case
    # a cell loses mass through each face whose velocity points out of it;
    # the step is monotone while that outflow stays below one cell per step
    outflow = np.maximum(faces[1:], 0.0) - np.minimum(faces[:-1], 0.0)
    assume(np.max(outflow) > 0.0)
    fraction = data.draw(st.floats(0.05, 1.0))
    dt = fraction * min(dx / np.max(outflow), 0.9 * dx / np.max(np.abs(faces)))
    out = step_upwind(m, faces, dt)  # a negative cell beyond round-off raises here
    assert out.clipped_mass <= 1e-15
    assert abs(out.mass - m.mass) <= 1e-14


@PROPERTY_SETTINGS
@given(a=measures(), b=measures(), c=measures())
def test_w1_is_a_metric(a, b, c):
    assert w1(a, a) == 0.0
    assert w1(a, b) == w1(b, a)
    assert w1(a, c) <= w1(a, b) + w1(b, c) + 1e-12


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(1, 30))
def test_w1_matches_order_statistics_at_equal_n(data, n):
    atoms = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n)
    a, b = EmpiricalMeasure(data.draw(atoms)), EmpiricalMeasure(data.draw(atoms))
    assert abs(w1(a, b) - w1_sorted_atoms(a, b)) <= 1e-12
