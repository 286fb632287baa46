"""Deterministic randomness, input coercion and float formatting.

Everything downstream (training, folds, synthetic data) draws randomness
through :class:`Rng` so that a run is a pure function of its seeds.
"""

from __future__ import annotations

import numpy as np


class LomoError(ValueError):
    """Domain error raised for invalid inputs, files, or configurations."""


def as_vector(values, *, what: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, rejecting NaN/Inf at ingestion."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise LomoError(f"{what} must be 1-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise LomoError(f"{what} contains non-finite entries")
    return v


class Rng:
    """Seeded PCG64 stream.

    The same (seed, spawn_key) pair always yields the identical stream on
    any platform; distinct spawn keys give independent, reproducible
    streams. Folds and one-vs-all classes get their own seeds from
    `child_seed`, so parallel work never shares a generator.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, size=None):
        """Uniform draw(s) in [0, 1)."""
        out = self._gen.random(size)
        return float(out) if size is None else out

    def normal(self, size=None):
        """Standard-normal draw(s)."""
        out = self._gen.standard_normal(size)
        return float(out) if size is None else out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise LomoError(f"randint needs n >= 1, got {n}")
        return int(self._gen.integers(n))

    def integers(self, n: int, size: int) -> np.ndarray:
        """`size` uniform integers in [0, n), the stream of `size` randint calls."""
        if n < 1:
            raise LomoError(f"integers needs n >= 1, got {n}")
        return self._gen.integers(n, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n)."""
        return self._gen.permutation(n)


def child_seed(seed: int, index: int) -> int:
    """Stable 63-bit integer seed for child stream `index` of `seed`."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))
