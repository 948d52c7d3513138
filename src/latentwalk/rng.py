"""Deterministic random number generation on NumPy's Philox generator.

Every stochastic element of training and sampling draws from an `Rng`, so a
run is a pure function of its seed. Each `Rng` is keyed Philox4x64, a
counter-based generator (Salmon et al. 2011): the n-th raw 64-bit value is a
bijection of (key, n), and values come out in request order, so splitting a
request across calls never changes the sequence. Uniforms and normals are
NumPy `Generator`'s `random` and `standard_normal` (ziggurat) transforms.

Philox's raw stream is stable across NumPy versions; `Generator`'s transforms
are not guaranteed to be (NEP 19), so exact bytes hold for one NumPy build.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ContractViolation

_MASK = 0xFFFFFFFFFFFFFFFF


def check_seed(seed: int) -> int:
    """`seed` as a Python int; one outside [0, 2**64 - 1] raises."""
    if not 0 <= operator.index(seed) <= _MASK:
        raise ContractViolation(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return int(seed)


class Rng:
    """Uniform/Gaussian generator keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        seed = check_seed(seed)
        self.seed = np.uint64(seed)
        self._gen = np.random.Generator(np.random.Philox(key=seed))

    @property
    def counter(self) -> int:
        """Raw 64-bit values consumed so far."""
        state = self._gen.bit_generator.state
        blocks = int(state["state"]["counter"][0])  # 4 raw values per block
        return 4 * blocks - (4 - state["buffer_pos"])

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in [0, 1), float64, of the given shape."""
        u = self._gen.random(shape)
        return u if u.ndim else u[()]

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws, float64, of the given shape."""
        z = self._gen.standard_normal(shape)
        return z if z.ndim else z[()]

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return self._gen.permutation(n)

    def derive(self, tag: str) -> "Rng":
        """Independent stream keyed by (seed, tag): FNV-1a of the tag, xored
        into the seed, then splitmix64's finalizer. Consumes no draws."""
        h = 2166136261
        for b in tag.encode():
            h = ((h ^ b) * 16777619) & _MASK
        x = int(self.seed) ^ h
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return Rng(x ^ (x >> 31))
