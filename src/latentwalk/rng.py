"""Deterministic counter-based random number generation.

Every stochastic element of training and sampling draws from an `Rng`, so a
run is a pure function of its seed. The generator is counter-based (splitmix64
applied to seed + index) rather than stateful-iterative: identical seeds give
identical streams on every platform, and draws can be vectorised without
changing the sequence.

Draws are made in place, in fixed blocks of `_BLOCK` values, so the working
set stays in cache however large the request. A value depends only on
(seed, counter), never on the block size.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ContractViolation

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BLOCK = 1 << 15  # draws per block; no value depends on it


def _mix(x: np.ndarray, t: np.ndarray) -> None:
    """splitmix64's finalizer, in place on the uint64 array `x`; `t` is
    uint64 scratch of the same shape."""
    np.right_shift(x, 30, out=t)
    x ^= t
    x *= _MIX1
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _MIX2
    np.right_shift(x, 31, out=t)
    x ^= t


class Rng:
    """Counter-based uniform/Gaussian generator.

    The i-th raw draw is ``splitmix64(seed + (i+1)*golden)``; the instance
    only remembers how many draws have been consumed.
    """

    def __init__(self, seed: int, counter: int = 0):
        if not 0 <= operator.index(seed) <= _MASK:
            raise ContractViolation(f"seed must lie in [0, 2**64 - 1], got {seed}")
        self.seed = np.uint64(seed)
        self.counter = int(counter)

    def _reserve(self, n: int, size: int):
        """Consume the next n raw draws. Returns ``fill(out, i)``, which
        writes draws i+1 .. i+len(out) of the reservation into the float64
        block `out` (at most min(size, `_BLOCK`) long) as uniforms
        ``(raw >> 11) * 2^-53`` in [0, 1), using one uint64 scratch buffer and
        `out` itself."""
        first = int(self.seed) + self.counter * _GOLDEN
        self.counter += n
        size = min(size, _BLOCK)
        steps = np.arange(1, size + 1, dtype=np.uint64) * _GOLDEN
        scratch = np.empty(size, dtype=np.uint64)

        def fill(out: np.ndarray, i: int) -> None:
            x = scratch[:len(out)]
            key = np.uint64((first + i * _GOLDEN) & _MASK)
            np.add(steps[:len(out)], key, out=x)
            _mix(x, out.view(np.uint64))
            x >>= 11
            np.multiply(x, 2.0 ** -53, out=out)

        return fill

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in [0, 1), float64, of the given shape."""
        u = np.empty(shape)
        fill = self._reserve(u.size, u.size)
        flat = u.reshape(-1)
        for i in range(0, u.size, _BLOCK):
            fill(flat[i:i + _BLOCK], i)
        return u if u.ndim else u[()]

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws via the Box-Muller transform: value j is
        ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)`` with u1 the (j+1)-th and u2 the
        (n+j+1)-th uniform of the 2n drawn."""
        z = np.empty(shape)
        n = z.size
        fill = self._reserve(2 * n, n)
        flat = z.reshape(-1)
        radius = np.empty(min(n, _BLOCK))
        for i in range(0, n, _BLOCK):
            out = flat[i:i + _BLOCK]
            r = radius[:len(out)]
            fill(r, i)
            np.subtract(1.0, r, out=r)  # (0, 1]
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            fill(out, n + i)
            out *= 2.0 * np.pi
            np.cos(out, out=out)
            out *= r
        return z if z.ndim else z[()]

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return np.argsort(self.uniform((n,)), kind="stable")

    def derive(self, tag: str) -> "Rng":
        """Independent stream keyed by (seed, tag); does not consume draws."""
        h = np.uint64(2166136261)
        with np.errstate(over="ignore"):
            for b in tag.encode():
                h = (h ^ np.uint64(b)) * np.uint64(16777619)
        mixed = np.array([self.seed ^ h])
        _mix(mixed, np.empty_like(mixed))
        return Rng(int(mixed[0]))
