"""Seeded 64-bit PRNG used everywhere randomness is needed.

A single splitmix64 stream per generator keeps every run bitwise
reproducible regardless of the numpy version installed.  Generators are
cheap value objects; derive independent substreams with :meth:`split`.

The stream is counter-addressed: draw number c (counting from 1) is
mix(seed + c * golden), so any range of counters can be computed
without the ones before it.  A draw of n values reserves the next n
counters and fills one output array block by block, in place, with
`_BLOCK` values a block: its scratch is a few blocks (at most 256 KiB),
whatever n is, so the largest draw, a scene's noise, costs its output
and no full-size temporaries.  Every value is computed by the same
arithmetic as a whole-array draw, so the blocks change no bit.
"""
from __future__ import annotations

import numpy as np

_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = float(2**53)

# Values per block of a draw.  A block's buffers fit in the L2 cache, and
# the per-block Python overhead is a few microseconds against about 8192
# values' arithmetic.
_BLOCK = 2**13
# Draw k of a block starting after counter c is mix(seed + c * golden +
# _GOLDEN_STEPS[k]): uint64 arrays wrap modulo 2^64, so this equals
# seed + (c + k + 1) * golden to the bit.
_GOLDEN_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of uint64 z, in place; scratch is a uint64 array of z's size."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


class SplitMix64:
    """Counter-based splitmix64 generator producing float64 variates."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._counter = 0

    def _advance(self, n: int) -> int:
        """Reserve the next n counters; returns the counter before the first."""
        start = self._counter
        self._counter = (start + n) & _MASK
        return start

    def _raw(self, out: np.ndarray, counter: int) -> np.ndarray:
        """Fill uint64 `out` with the draws after `counter`, in place: out[k]
        is draw counter + k + 1."""
        scratch = np.empty(min(out.size, _BLOCK), dtype=np.uint64)
        for b in range(0, out.size, _BLOCK):
            z = out[b : b + _BLOCK]
            base = np.uint64((self._seed + (counter + b) * _GOLDEN) & _MASK)
            np.add(_GOLDEN_STEPS[: z.size], base, out=z)
            _mix(z, scratch[: z.size])
        return out

    def _unit(self, out: np.ndarray, counter: int, offset: float = 0.0) -> np.ndarray:
        """Fill float64 `out` in place with ((draw >> 11) + offset) / 2^53 of
        the draws after `counter`."""
        raw = np.empty(min(out.size, _BLOCK), dtype=np.uint64)
        for b in range(0, out.size, _BLOCK):
            u = out[b : b + _BLOCK]
            z = self._raw(raw[: u.size], counter + b)
            z >>= np.uint64(11)
            u[...] = z
            if offset:
                u += offset
            u /= _U53
        return out

    def split(self, key: int) -> "SplitMix64":
        """Derive an independent generator keyed off this one's seed."""
        z = np.array([(self._seed + (key + 1) * _MIX2) & _MASK], dtype=np.uint64)
        return SplitMix64(int(_mix(z, np.empty_like(z))[0]))

    def uniform(self, low=0.0, high=1.0, shape=()) -> np.ndarray | float:
        """Uniform float64 draws in [low, high)."""
        n = int(np.prod(shape)) if shape else 1
        out = self._unit(np.empty(n), self._advance(n))
        out *= high - low
        out += low
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=()) -> np.ndarray | float:
        """Standard normal draws via Box-Muller.

        With m = ceil(n / 2), u1 takes the first m draws and u2 the next
        m; value i is r_i cos(theta_i) and value m + i is r_i sin(theta_i),
        r = sqrt(-2 log u1) and theta = 2 pi u2.  Each block computes its
        pairs' cosines and sines into both halves of the output.
        """
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        start = self._advance(2 * m)
        out = np.empty(n)
        u1, u2 = np.empty(min(m, _BLOCK)), np.empty(min(m, _BLOCK))
        for b in range(0, m, _BLOCK):
            k = min(_BLOCK, m - b)
            # u1 in (0, 1] keeps log finite
            r = self._unit(u1[:k], start + b, offset=1.0)
            theta = self._unit(u2[:k], start + m + b)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * np.pi
            cos = np.cos(theta, out=out[b : b + k])
            cos *= r
            j = min(k, n - m - b)  # an odd n drops the last pair's sine
            sin = np.sin(theta[:j], out=out[m + b : m + b + j])
            sin *= r[:j]
        return out.reshape(shape) if shape else float(out[0])

    def integers(self, n: int) -> int:
        """One integer uniform in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self._raw(np.empty(1, dtype=np.uint64), self._advance(1))[0] % np.uint64(n))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n).

        Step i swaps i with j uniform in [0, i], as `integers(i + 1)`
        would draw it; all n - 1 draws are taken at once, so the stream
        and the result equal n - 1 single draws.
        """
        idx = np.arange(n)
        if n < 2:
            return idx
        raw = self._raw(np.empty(n - 1, dtype=np.uint64), self._advance(n - 1))
        picks = (raw % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
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
        """Dirichlet(1,...,1) draws of dimension p, one per cell of shape:
        -log(1 - u) per value, divided by each cell's sum, in place."""
        e = self.uniform(shape=(*shape, p))
        np.subtract(1.0, e, out=e)
        np.log(e, out=e)
        np.negative(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        return e
