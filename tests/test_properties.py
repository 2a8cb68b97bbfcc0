"""Property-based checks of the particle evaluations on both paths.

``consensus_model`` carries coefficient tables and takes the structured
(moment) path; ``bounded_confidence_model`` has none and takes the dense
pairwise path. Both must be equivariant under relabeling the particles, and
the consensus drift and cost slopes depend on differences only, so they are
unchanged by a common translation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import ParticleEnsemble, bounded_confidence_model, consensus_model, cost_grad_vector, drift

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

positions = st.lists(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=40)
shifts = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
MODELS = {
    "consensus": lambda n: consensus_model(n, 1.0),
    "bounded_confidence": lambda n: bounded_confidence_model(n, 1.0, radius=0.5),
}


def tolerance(x: np.ndarray, shift: float = 0.0) -> float:
    """Round-off allowance: a few hundred ulps of the largest coordinate involved."""
    return 1e-13 * (1.0 + np.max(np.abs(x)) + abs(shift))


@PROPERTY_SETTINGS
@given(xs=positions, shift=shifts)
def test_consensus_translation_leaves_drift_and_slopes_unchanged(xs, shift):
    x = np.asarray(xs)
    model = consensus_model(x.size, 1.0)
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
    model = MODELS[kind](x.size)
    assert (model.drift_poly is not None) == (kind == "consensus")
    for evaluate in (drift, cost_grad_vector):
        plain = evaluate(model, ParticleEnsemble(x))
        relabeled = evaluate(model, ParticleEnsemble(x[order]))
        assert np.max(np.abs(relabeled - plain[order])) <= tolerance(x)
