"""Seeded 64-bit PRNG used everywhere randomness is needed.

A single splitmix64 stream per generator keeps every run bitwise
reproducible regardless of the numpy version installed.  Generators are
cheap value objects; derive independent substreams with :meth:`split`.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2**53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based splitmix64 generator producing float64 variates."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = np.uint64(0)

    def _raw(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = self._counter + np.arange(1, n + 1, dtype=np.uint64)
            out = _mix(self._seed + idx * _GOLDEN)
        self._counter += np.uint64(n)
        return out

    def split(self, key: int) -> "SplitMix64":
        """Derive an independent generator keyed off this one's seed."""
        with np.errstate(over="ignore"):
            child = _mix(self._seed + np.uint64(key + 1) * _MIX2)
        return SplitMix64(int(child))

    def uniform(self, low=0.0, high=1.0, shape=()) -> np.ndarray | float:
        """Uniform float64 draws in [low, high)."""
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) / _U53
        out = low + (high - low) * u
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=()) -> np.ndarray | float:
        """Standard normal draws via Box-Muller."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        # u1 in (0, 1] keeps log finite
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) / _U53
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) / _U53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, n: int) -> int:
        """One integer uniform in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self._raw(1)[0] % np.uint64(n))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n).

        Step i swaps i with j uniform in [0, i], as `integers(i + 1)`
        would draw it; all n - 1 draws are taken at once, so the stream
        and the result equal n - 1 single draws.
        """
        idx = np.arange(n)
        if n < 2:
            return idx
        picks = (self._raw(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        order = idx.tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            order[i], order[j] = order[j], order[i]
        return np.array(order, dtype=idx.dtype)

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices sampled from range(n), in draw order."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        return self.permutation(n)[:k]

    def dirichlet_flat(self, shape, p: int) -> np.ndarray:
        """Dirichlet(1,...,1) draws of dimension p, one per cell of shape."""
        e = -np.log(1.0 - self.uniform(shape=(*shape, p)))
        return e / e.sum(axis=-1, keepdims=True)
