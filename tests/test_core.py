"""Unit tests for the seeded RNG wrapper, float formatting and the package's
exported names."""

from __future__ import annotations

import numpy as np
import pytest

import lomo
from lomo.core import LomoError, Rng, child_seed, format_float


# ---------------------------------------------------------------------------
# Rng


def test_rng_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    np.testing.assert_array_equal(a.uniform(size=20), b.uniform(size=20))
    np.testing.assert_array_equal(a.normal(size=20), b.normal(size=20))


def test_rng_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform(size=8), Rng(2).uniform(size=8))


def test_rng_scalar_draws_are_python_floats():
    r = Rng(5)
    assert isinstance(r.uniform(), float)
    assert isinstance(r.normal(), float)


def test_rng_uniform_is_half_open_unit_interval():
    draws = Rng(7).uniform(size=10000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0


def test_rng_randint_bounds_and_coverage():
    r = Rng(11)
    seen = set()
    for _ in range(500):
        v = r.randint(4)
        assert 0 <= v < 4
        seen.add(v)
    assert seen == {0, 1, 2, 3}


def test_rng_randint_rejects_nonpositive():
    with pytest.raises(LomoError, match="randint needs n >= 1"):
        Rng(0).randint(0)


def test_rng_permutation_is_a_permutation():
    for seed in range(5):
        p = Rng(seed).permutation(17)
        assert sorted(p.tolist()) == list(range(17))


def test_rng_child_streams_are_deterministic_and_distinct():
    parent = Rng(99)
    c0a = Rng(child_seed(99, 0)).uniform(size=6)
    c0b = Rng(child_seed(99, 0)).uniform(size=6)
    c1 = Rng(child_seed(99, 1)).uniform(size=6)
    np.testing.assert_array_equal(c0a, c0b)
    assert not np.array_equal(c0a, c1)
    assert not np.array_equal(c0a, parent.uniform(size=6))


@pytest.mark.parametrize("n", [1, 7, 480, 800, 2**40])
def test_rng_integers_is_the_stream_of_repeated_randint(n):
    bulk = Rng(21).integers(n, 500)
    single = Rng(21)
    assert bulk.tolist() == [single.randint(n) for _ in range(500)]
    # and leaves the generator in the same state
    after_bulk = Rng(21)
    after_bulk.integers(n, 500)
    assert after_bulk.uniform() == single.uniform()


def test_rng_integers_rejects_nonpositive():
    with pytest.raises(LomoError, match="integers needs n >= 1"):
        Rng(0).integers(0, 3)


def test_child_seed_is_stable_and_63_bit():
    values = [child_seed(42, i) for i in range(100)]
    assert values == [child_seed(42, i) for i in range(100)]
    assert len(set(values)) == 100
    for v in values:
        assert 0 <= v < 2**63


def test_child_seed_varies_with_parent_seed():
    assert child_seed(1, 0) != child_seed(2, 0)


def test_rng_rejects_a_negative_or_non_integer_seed():
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        Rng(-1)
    with pytest.raises(LomoError, match=r"^seed must be an integer, got 1\.5$"):
        Rng(1.5)
    assert Rng(np.int64(3)).seed == 3


def test_child_seed_rejects_a_negative_or_non_integer_seed():
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        child_seed(-1, 0)
    with pytest.raises(LomoError, match=r"^seed must be an integer, got 1\.5$"):
        child_seed(1.5, 0)
    assert child_seed(np.int64(3), 0) == child_seed(3, 0)


# ---------------------------------------------------------------------------
# float formatting


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(13)
    samples = list(rng.normal(size=50)) + list(rng.normal(size=20) * 1e12)
    samples += [0.0, -0.0, 1e-300, -1e-300, 1 / 3, 0.1, 2**53 + 1.0]
    for x in samples:
        assert float(format_float(x)) == float(x)


def test_format_float_uses_shortest_repr():
    assert format_float(0.05) == "0.05"
    assert format_float(1e-05) == "1e-05"
    assert format_float(0.0) == "0.0"
    assert format_float(-0.0) == "-0.0"
    assert format_float(2.0) == "2.0"


def test_format_float_unwraps_numpy_scalars():
    assert format_float(np.float64(0.1)) == "0.1"


# ---------------------------------------------------------------------------
# package surface


def test_every_exported_name_resolves_once():
    assert len(lomo.__all__) == len(set(lomo.__all__))
    missing = [name for name in lomo.__all__ if not hasattr(lomo, name)]
    assert missing == []
