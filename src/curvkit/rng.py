"""Deterministic 64-bit random streams (SplitMix64).

Reproducibility across runs, platforms and thread counts matters more here
than statistical sophistication, so everything random in the package is
driven by SplitMix64 with its standard constants:

    state advance:  s  <- (s + 0x9E3779B97F4A7C15)  mod 2^64
    output mix:     z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
                    z ^= z >> 27;  z *= 0x94D049BB133111EB
                    z ^= z >> 31

The stream is read in counter mode only: output k = 1, 2, ... of the
stream with seed s is mix64(s + k*GOLDEN), the k-th output of the
sequential generator, with no sequential dependency, so it vectorizes.
Counter mode gives the prefix property the samplers rely on: the first k
draws are identical no matter how many draws follow.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 1 << 16  # draws mixed per block by counter_uniforms


def mix64(z: int) -> int:
    """SplitMix64 output mix of a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_stream(seed: int, index: int) -> int:
    """Sub-seed for worker `index` (e.g. one independent stream per vertex)."""
    return mix64(mix64(seed & MASK64) ^ (((index + 1) * GOLDEN) & MASK64))


def _draws_below(seed: int) -> Callable[[int], int]:
    """n -> uniform integer in [0, n), n >= 1, from outputs 1, 2, ... of the
    stream in turn, by the fixed-point multiply method."""
    outputs = (mix64(seed + k * GOLDEN) for k in itertools.count(1))
    return lambda n: (next(outputs) * n) >> 64


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws `count` uniforms in [0,1) at counters start..start+count-1.

    Vectorized counter-mode SplitMix64; draw i of a stream is a pure
    function of (seed, i), so disjoint counter ranges never overlap.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {count} draws of 8 bytes")
    out = np.empty(count, dtype=np.float64)
    # mixed in place one fixed-size block at a time, so the only temporaries
    # are a block and its shift, not several arrays of the output's size
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        z = np.arange(start + lo + 1, start + hi + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN)
        z += np.uint64(seed & MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        block = out[lo:hi]
        block[...] = z
        block *= 2.0**-53
    return out
