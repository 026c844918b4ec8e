import tracemalloc

import numpy as np
import pytest

from curvkit.rng import _BLOCK, SplitMix64, counter_uniforms
from oracles import whole_array_uniforms

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


def test_counter_uniforms_memory_is_bounded_by_the_output():
    count = 10**6
    tracemalloc.start()
    try:
        counter_uniforms(5, 0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * count, f"peak {peak / 2**20:.1f} MiB"
