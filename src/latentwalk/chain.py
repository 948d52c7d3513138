"""Latent-space Markov chains: prior sampling, slerp, and transition kernels.

A chain alternates decode and encode: x_{t+1} is the decoder's mean output at
z_t, and z_{t+1} is the encoder's draw at x_{t+1} (stochastic for a VAE,
deterministic for an AAE). The denoising kernel inserts additive Gaussian
corruption between the two, and reduces to the plain kernel draw for draw at
zero variance.

Models are duck-typed: anything with `latent_dim`, `data_dim`,
`chain_decode(z, rng)` and `chain_encode(x, rng)` can be driven, which is how
the closed-form linear-Gaussian verifier plugs in.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ContractViolation, DegenerateGeometryError
from .models import PriorSpec
from .objectives import CorruptionSpec, corrupt
from .rng import Rng

_ANGLE_TOL = 1e-6
_CHAIN_RE = re.compile(r"^chain\((\d+)\)$")
# The fewest rows in a chunk of a chunked walk (see `run_chain`). Chunking
# depends only on the row count and this constant, never on the CPU count, so
# neither do the bytes of a walk.
_CHUNK_ROWS = 16_384


@dataclass
class LatentBatch:
    """n latent rows plus a note of where they came from."""

    values: np.ndarray
    provenance: str = "prior"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or 0 in self.values.shape:
            raise ContractViolation(
                f"latent batch must be a non-empty 2-d (n, b) array, "
                f"got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ContractViolation("latent batch contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class ChainStep:
    """Transition t: decoded batch, optional corrupted batch, next latents.

    A consumer that reads only latents may drop both batches (set to None).
    """

    x: Optional[np.ndarray]
    x_tilde: Optional[np.ndarray]
    z: LatentBatch
    t: int


@dataclass
class ChainTrace:
    """A chain's starting batch and the steps it kept."""

    z0: LatentBatch
    steps: list[ChainStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def latents(self) -> list[np.ndarray]:
        """Latent values of the starting batch, then of each kept step.

        Returns copies so callers cannot disturb the recorded trace.
        """
        return [self.z0.values.copy()] + [s.z.values.copy() for s in self.steps]


def sample_prior(n: int, prior: PriorSpec, rng: Rng) -> LatentBatch:
    """n independent draws from the isotropic unit Gaussian prior."""
    if n < 1:
        raise ContractViolation(f"need n >= 1 prior draws, got {n}")
    return LatentBatch(rng.normal((n, prior.dim)), provenance="prior")


def slerp(z1: np.ndarray, z2: np.ndarray, t: float) -> np.ndarray:
    """Spherical interpolation sin((1-t)O)/sin(O) z1 + sin(tO)/sin(O) z2.

    O is the angle between z1 and z2. Nearly parallel inputs fall back to
    linear interpolation; nearly antipodal ones have no unique great-circle
    path and are rejected.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape or z1.ndim != 1:
        raise ContractViolation(
            f"slerp needs two equal-length vectors, got {z1.shape} and {z2.shape}"
        )
    if not (0.0 <= t <= 1.0):
        raise ContractViolation(f"t must lie in [0,1], got {t}")
    n1 = np.linalg.norm(z1)
    n2 = np.linalg.norm(z2)
    if n1 == 0.0 or n2 == 0.0:
        raise ContractViolation("slerp endpoints must be nonzero")
    cos_omega = np.clip(np.dot(z1, z2) / (n1 * n2), -1.0, 1.0)
    omega = np.arccos(cos_omega)
    if omega < _ANGLE_TOL:
        return (1.0 - t) * z1 + t * z2
    if omega > np.pi - _ANGLE_TOL:
        raise DegenerateGeometryError(
            f"slerp endpoints are antipodal (angle {omega:.8f})"
        )
    s = np.sin(omega)
    return (np.sin((1.0 - t) * omega) / s) * z1 + (np.sin(t * omega) / s) * z2


def interpolation_grid(corners, rows: int, cols: int) -> LatentBatch:
    """rows x cols slerp grid; corners are [top-left, top-right, bottom-left,
    bottom-right] and are reproduced exactly in the corner cells.

    Each row interpolates between the two edge vectors obtained by
    interpolating down the left and right edges.
    """
    corners = np.asarray(corners, dtype=np.float64)
    if corners.shape[0] != 4 or corners.ndim != 2:
        raise ContractViolation(f"need 4 corner vectors, got shape {corners.shape}")
    if rows < 2 or cols < 2:
        raise ContractViolation(f"grid must be at least 2x2, got {rows}x{cols}")
    tl, tr, bl, br = corners
    cells = np.empty((rows * cols, corners.shape[1]))
    for i in range(rows):
        u = i / (rows - 1)
        left = slerp(tl, bl, u)
        right = slerp(tr, br, u)
        for j in range(cols):
            v = j / (cols - 1)
            cells[i * cols + j] = slerp(left, right, v)
    return LatentBatch(cells, provenance="interpolated")


def _next_index(z: LatentBatch) -> int:
    m = _CHAIN_RE.match(z.provenance)
    return int(m.group(1)) + 1 if m else 1


def _transition(model, z_t: LatentBatch, spec: CorruptionSpec | None,
                rng: Rng) -> tuple[np.ndarray, np.ndarray | None, LatentBatch]:
    """Decode z_t, corrupt the output when `spec` is given, re-encode."""
    if z_t.values.shape[1] != model.latent_dim:
        raise ContractViolation(
            f"latent dim {z_t.values.shape[1]} does not match model "
            f"latent_dim {model.latent_dim}"
        )
    x = model.chain_decode(z_t.values, rng)
    x_tilde = None if spec is None else corrupt(x, spec, rng)
    z_next = model.chain_encode(x if x_tilde is None else x_tilde, rng)
    return x, x_tilde, LatentBatch(z_next, provenance=f"chain({_next_index(z_t)})")


def transition_step(model, z_t: LatentBatch, rng: Rng) -> tuple[np.ndarray, LatentBatch]:
    """One application of the plain kernel: decode z_t, re-encode the output."""
    x, _, z_next = _transition(model, z_t, None, rng)
    return x, z_next


def denoising_transition_step(model, z_t: LatentBatch, spec: CorruptionSpec,
                              rng: Rng) -> tuple[np.ndarray, np.ndarray, LatentBatch]:
    """Denoising kernel: decode, corrupt the output, re-encode the corruption."""
    if spec is None:
        raise ContractViolation("the denoising kernel needs a CorruptionSpec")
    return _transition(model, z_t, spec, rng)


def run_chain(model, z0: LatentBatch, steps: int,
              spec: CorruptionSpec | None = None, rng: Rng | None = None,
              keep: Iterable[int] | None = None,
              sink: Callable[[ChainStep], None] | None = None,
              _workers: int | None = None) -> ChainTrace:
    """Run `steps` transitions from z0: the plain kernel when `spec` is None,
    the denoising kernel with corruption `spec` otherwise.

    The trace holds z0 and the steps named in `keep` (every step when it is
    None); `sink`, when given, is called with each step as it is made, so a
    caller can consume a walk without holding it. Model parameters are
    read-only throughout; steps=0 returns an empty trace that still carries z0.

    A model whose `row_independent` attribute is true declares that each row's
    transition ignores the other rows of its batch. Without a sink, such a
    walk of at least `2 * _CHUNK_ROWS` rows runs near-equal chunks of at
    least `_CHUNK_ROWS` rows on a pool of threads, one per core
    (`_walk_chunks`). Its bytes are the whole-batch walk's as far as the BLAS
    computes a row of a product alike in any block of at least `_CHUNK_ROWS`
    rows. `_workers` overrides the number of threads; tests use it.
    """
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, got {steps}")
    if rng is None:
        raise ContractViolation("run_chain needs an rng")
    kept = None if keep is None else frozenset(keep)
    if (sink is None and getattr(model, "row_independent", False)
            and len(z0) >= 2 * _CHUNK_ROWS):
        return ChainTrace(z0, _walk_chunks(model, z0, steps, spec, rng, kept,
                                           _workers))
    return ChainTrace(z0, _walk(model, z0, steps, spec, rng, kept, sink))


def _walk(model, z: LatentBatch, steps: int, spec: CorruptionSpec | None,
          rng: Rng, kept: frozenset | None,
          sink: Callable[[ChainStep], None] | None = None) -> list[ChainStep]:
    """The chain loop: the steps named in `kept` (all when None), each also
    handed to `sink` as it is made."""
    out = []
    for t in range(1, steps + 1):
        x, x_tilde, z = _transition(model, z, spec, rng)
        step = ChainStep(x=x, x_tilde=x_tilde, z=z, t=t)
        if sink is not None:
            sink(step)
        if kept is None or t in kept:
            out.append(step)
    return out


def _walk_chunks(model, z0: LatentBatch, steps: int,
                 spec: CorruptionSpec | None, rng: Rng, kept: frozenset | None,
                 workers: int | None) -> list[ChainStep]:
    """`_walk` over near-equal row chunks of z0, stitched row-wise.

    n rows make k = n // `_CHUNK_ROWS` chunks, chunk i holding rows
    i * n // k to (i + 1) * n // k, so no chunk is shorter than `_CHUNK_ROWS`.
    Each chunk draws through its own row window of `rng`, so it gets exactly
    its rows of the whole batch's draws, and `rng` ends where a whole-batch
    walk leaves it. The chunks depend only on the row count, not on the
    number of threads: `workers`, or the CPU count (NumPy releases the GIL
    inside a chunk's ufuncs and products). What a chunk raises propagates,
    with `rng` untouched, once every thread is joined.
    """
    n = len(z0)
    k = n // _CHUNK_ROWS
    bounds = [i * n // k for i in range(k + 1)]

    def walk(lo: int, hi: int) -> tuple[list[ChainStep], int]:
        window = rng.window(n, lo, hi)
        chunk = LatentBatch(z0.values[lo:hi], provenance=z0.provenance)
        return _walk(model, chunk, steps, spec, window, kept), window.counter

    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(workers, k)) as pool:
        parts = list(pool.map(walk, bounds[:-1], bounds[1:]))
    counters = {counter for _, counter in parts}
    if len(counters) != 1:
        raise ContractViolation(
            "chunks of a row-independent walk consumed different numbers of "
            "draws; the model's draws depend on its rows")
    rng.counter = counters.pop()

    def stitch(rows: list[Optional[np.ndarray]]) -> Optional[np.ndarray]:
        return None if rows[0] is None else np.concatenate(rows)

    stitched = []
    for chunk_steps in zip(*(chunk for chunk, _ in parts)):
        first = chunk_steps[0]
        z = LatentBatch(stitch([s.z.values for s in chunk_steps]),
                        provenance=first.z.provenance)
        stitched.append(ChainStep(x=stitch([s.x for s in chunk_steps]),
                                  x_tilde=stitch([s.x_tilde for s in chunk_steps]),
                                  z=z, t=first.t))
    return stitched

