"""Counter-based random streams for reproducible parallel simulation.

Every stream is a Philox generator keyed by a 64-bit seed and a 64-bit
mix of integer path components (sample size, grid indices, replicate
index, ...).  Streams with distinct (seed, path) are statistically
independent, and a given (seed, path) always yields the same sequence
regardless of scheduling or worker count.

:func:`philox_state` is the one keying routine.  :func:`stream` builds a
fresh generator from it; a loop that draws from many streams can instead
re-key one generator through its bit generator's ``state`` setter, which
gives the same draws at a fraction of the cost of a new ``Philox``.
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


def philox_state(seed: int, *path: int) -> dict:
    """The Philox state at the start of the stream owned by (seed, path).

    The seed occupies the low key word and the mixed path the high word,
    so streams never collide for distinct path tuples short of a 64-bit
    hash collision.  The counter is 0 and the output buffer empty, as in
    a freshly keyed ``Philox``.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [int(seed) & _MASK64, path_key(*path)]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return a new generator owned by (seed, path)."""
    bit_generator = np.random.Philox(0)
    bit_generator.state = philox_state(seed, *path)
    return np.random.Generator(bit_generator)
