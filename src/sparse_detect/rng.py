"""Counter-based random streams for reproducible parallel simulation.

Every stream is a Philox generator keyed by a 64-bit seed and a 64-bit
mix of integer path components (sample size, grid indices, replicate
index, ...).  Streams with distinct (seed, path) are statistically
independent, and a given (seed, path) always yields the same sequence
regardless of scheduling or worker count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def path_key(*path: int) -> int:
    """Mix integer path components into a single 64-bit word."""
    state = 0x6A09E667F3BCC908
    out = 0
    for part in path:
        state, word = _splitmix64(state ^ (int(part) & _MASK64))
        out ^= word
    return out & _MASK64


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator owned by (seed, path).

    The seed occupies the low Philox key word and the mixed path the
    high word, so streams never collide for distinct path tuples short
    of a 64-bit hash collision.
    """
    key = (int(seed) & _MASK64) | (path_key(*path) << 64)
    return np.random.Generator(np.random.Philox(key=key))
