"""The Philox-4x64-10 port gives numpy's ``Generator(Philox(key=seed)).random`` stream bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab._philox import philox_uniforms


def numpy_stream(seed: int, count: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=seed)).random(count)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), count=st.integers(1, 2100))
def test_stream_equals_numpy_bytes(seed, count):
    assert philox_uniforms(seed, count).tobytes() == numpy_stream(seed, count).tobytes()


# the ends of both key words, and the top of the seeds parse_config admits
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 9, 1023, 2049])
def test_key_word_edges_and_partial_blocks(seed, count):
    assert philox_uniforms(seed, count).tobytes() == numpy_stream(seed, count).tobytes()


@pytest.mark.parametrize("n", [1, 3, 4, 6, 1000])
def test_one_draw_of_2n_continues_like_two_draws_of_n(n):
    rng = np.random.Generator(np.random.Philox(key=2**100 + 7))
    both = np.concatenate([rng.random(n), rng.random(n)])
    assert philox_uniforms(2**100 + 7, 2 * n).tobytes() == both.tobytes()
