import tracemalloc

import numpy as np
import pytest

from curvkit.rng import _BLOCK, _draws_below, counter_uniforms
from oracles import SplitMix64, whole_array_uniforms

_COUNTS = (0, 1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)


@pytest.mark.parametrize("count", _COUNTS)
@pytest.mark.parametrize("seed, start", [(0, 0), (12345, 17), (2**64 - 1, 2**40), (-3, _BLOCK - 2)])
def test_counter_uniforms_match_whole_array_expression(seed, start, count):
    got = counter_uniforms(seed, start, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert np.array_equal(got, whole_array_uniforms(seed, start, count))


def test_counter_uniforms_match_the_sequential_stream():
    stream = SplitMix64(99)
    assert counter_uniforms(99, 0, 50).tolist() == [stream.uniform() for _ in range(50)]


@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1, -3])
def test_generator_draws_match_the_sequential_stream(seed):
    below, stream = _draws_below(seed), SplitMix64(seed)
    for n in (1, 2, 3, 10, 1000, 2**32 + 1, 2**64 - 1):
        assert [below(n) for _ in range(20)] == [stream.below(n) for _ in range(20)]


def test_counter_uniforms_reject_a_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        counter_uniforms(1, 0, -1)


def test_counter_uniforms_memory_is_bounded_by_the_output():
    count = 10**6
    tracemalloc.start()
    try:
        counter_uniforms(5, 0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * count, f"peak {peak / 2**20:.1f} MiB"
