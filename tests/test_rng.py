"""Tests for the keyed streams: one keying routine, fresh or re-keyed generators."""

import itertools

import numpy as np
import pytest

from sparse_detect import rng
from sparse_detect.dists import FiniteDiscrete, Gaussian, GenGaussian, Mixture, Shifted

# one law of every sampled kind, with parameters that change from draw to draw
LAWS = [
    Gaussian(),
    Gaussian(1.5, 2.0),
    GenGaussian(1.0),
    GenGaussian(1.5),
    FiniteDiscrete(((-1.0, 0.3), (2.0, 0.7))),
    Mixture(Gaussian(), Gaussian(3.0, 1.0), 0.05),
    Mixture(Gaussian(), GenGaussian(1.5), 0.5),
    Mixture(GenGaussian(1.0), Shifted(GenGaussian(1.0), 2.0), 1e-3),
    Mixture(Gaussian(), FiniteDiscrete(((0.0, 0.4), (2.0, 0.6))), 0.3),
]


def test_stream_keeps_its_key_layout():
    # the seed is the low Philox key word and the mixed path the high word
    for seed, path in ((0, ()), (7, (1000, 3)), (2**40 + 5, (2, 9, 10**5, 39)), (-1, (4,))):
        key = (seed & (2**64 - 1)) | (rng.path_key(*path) << 64)
        want = np.random.Generator(np.random.Philox(key=key)).random(9)
        assert np.array_equal(rng.stream(seed, *path).random(9), want)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_rekeyed_draws_equal_fresh_streams(n):
    # keys interleave and the law changes between them, so the binomial
    # constants a Generator caches from one mixture draw meet another's
    bit_generator = np.random.Philox(0)
    stream = np.random.Generator(bit_generator)
    keys = [(n,), (0, 1, n), (3, 0, n), (n, 5)]
    for step, (law, key) in enumerate(itertools.product(LAWS * 2, keys)):
        path = (*key, step % 3)
        bit_generator.state = rng.philox_state(11, *path)
        fresh = rng.stream(11, *path)
        for _ in range(2):  # the stream continues where the first draw left it
            assert np.array_equal(law.sample(n, stream), law.sample(n, fresh)), (law, path)
