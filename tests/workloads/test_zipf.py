"""Zipf sampler distribution properties and its bit-identical CDF."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workloads import ZipfSampler


def rng():
    return RandomStreams(3).get("zipf")


def test_uniform_when_s_zero():
    z = ZipfSampler(10, 0.0, rng())
    samples = z.sample_many(20000)
    counts = np.bincount(samples, minlength=10)
    assert counts.min() > 0.8 * 2000
    assert counts.max() < 1.2 * 2000


def test_skew_prefers_low_ranks():
    z = ZipfSampler(10, 1.2, rng())
    samples = z.sample_many(20000)
    counts = np.bincount(samples, minlength=10)
    assert counts[0] > counts[5] > counts[9]


def test_samples_in_range():
    z = ZipfSampler(7, 0.9, rng())
    samples = z.sample_many(1000)
    assert samples.min() >= 0
    assert samples.max() < 7


def test_single_item():
    z = ZipfSampler(1, 1.0, rng())
    assert z.sample() == 0


def test_invalid_params():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0, rng())
    with pytest.raises(ValueError):
        ZipfSampler(5, -1.0, rng())


def test_deterministic_given_seed():
    a = ZipfSampler(10, 0.8, RandomStreams(3).get("z")).sample_many(100)
    b = ZipfSampler(10, 0.8, RandomStreams(3).get("z")).sample_many(100)
    assert (a == b).all()


def plain_cdf(n, s):
    """The CDF as one expression with full-size temporaries."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), s)
    return np.cumsum(weights / weights.sum())


@pytest.mark.parametrize("n", [1, 7, 64, 500_000, 1_000_000])
@pytest.mark.parametrize("s", [0, 0.8, 1.1, 1.2])
def test_cdf_built_in_place_equals_the_plain_expression(n, s):
    z = ZipfSampler(n, s, rng())
    assert np.array_equal(z._cdf, plain_cdf(n, s))


@pytest.mark.parametrize("n, s", [(7, 0.8), (64, 1.2), (500_000, 1.1)])
def test_draws_equal_a_plain_searchsorted(n, s):
    cdf = plain_cdf(n, s)
    z = ZipfSampler(n, s, RandomStreams(5).get("z"))
    ref = RandomStreams(5).get("z")
    singles = [z.sample() for _ in range(200)]
    assert singles == [int(np.searchsorted(cdf, ref.random(), side="right"))
                       for _ in range(200)]
    many = z.sample_many(1000)
    assert many.dtype == np.dtype(int)
    assert np.array_equal(
        many, np.searchsorted(cdf, ref.random(1000), side="right"))
