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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ContractViolation, DegenerateGeometryError
from .models import CorruptionSpec, PriorSpec
from .objectives import corrupt
from .rng import Rng

_ANGLE_TOL = 1e-6


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
    return x, x_tilde, LatentBatch(z_next, provenance="chain")


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
              sink: Callable[[ChainStep], None] | None = None) -> ChainTrace:
    """Run `steps` transitions from z0: the plain kernel when `spec` is None,
    the denoising kernel with corruption `spec` otherwise.

    The trace holds z0 and the steps named in `keep` (every step when it is
    None); `sink`, when given, is called with each step as it is made, so a
    caller can consume a walk without holding it. Model parameters are
    read-only throughout; steps=0 returns an empty trace that still carries z0.
    """
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, got {steps}")
    if rng is None:
        raise ContractViolation("run_chain needs an rng")
    kept = None if keep is None else frozenset(keep)
    trace = ChainTrace(z0)
    z = z0
    for t in range(1, steps + 1):
        x, x_tilde, z = _transition(model, z, spec, rng)
        step = ChainStep(x=x, x_tilde=x_tilde, z=z, t=t)
        if sink is not None:
            sink(step)
        if kept is None or t in kept:
            trace.steps.append(step)
    return trace
