"""Distribution diagnostics for chain batches.

Two yardsticks per step: distance to the encoder's own latent distribution
(the chain's target) and distance to the prior (what plain ancestral sampling
assumes). Both shrink toward zero only when the distributions agree, so the
chain-improvement claim becomes a falsifiable inequality between step 0 and a
later step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .chain import ChainTrace, LatentBatch
from .data import write_csv
from .errors import ContractViolation
from .models import PriorSpec
from .rng import Rng

_KL_REGULARIZER = 1e-6
_DEFAULT_PRIOR_SEED = 7_151_623


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def median_heuristic_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median pairwise distance over the pooled samples (self-pairs excluded).

    Falls back to 1.0 when the median is zero (all points identical).
    """
    pooled = np.vstack([a, b])
    d2 = _pairwise_sq_dists(pooled, pooled)
    upper = d2[np.triu_indices(pooled.shape[0], k=1)]
    med = float(np.median(np.sqrt(upper))) if upper.size else 0.0
    return med if med > 0.0 else 1.0


def _kernel_mean(a: np.ndarray, b: np.ndarray, denom: float) -> float:
    return np.exp(-_pairwise_sq_dists(a, b) / denom).mean()


def mmd_rbf(a: np.ndarray, b: np.ndarray, bandwidth: float | str = "auto",
            k_aa: float | None = None, k_bb: float | None = None) -> float:
    """Biased V-statistic estimate of squared MMD with a Gaussian kernel.

    Zero exactly when the two sample sets are identical; symmetric in its
    arguments; "auto" bandwidth uses the median heuristic on the pooled sets.
    `k_aa` and `k_bb`, when given, are the mean kernels over all row pairs of
    `a` and of `b` at this bandwidth, so a caller comparing sets against each
    other computes each of those once.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise ContractViolation("both sample sets must be non-empty (n, d) arrays")
    if a.shape[1] != b.shape[1]:
        raise ContractViolation(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ContractViolation(
                f"bandwidth must be 'auto' or a number, got {bandwidth!r}")
        bandwidth = median_heuristic_bandwidth(a, b)
    bandwidth = float(bandwidth)
    if not 0.0 < bandwidth < np.inf:
        raise ContractViolation(
            f"bandwidth must be finite and positive, got {bandwidth}")
    denom = 2.0 * bandwidth * bandwidth
    if k_aa is None:
        k_aa = _kernel_mean(a, a, denom)
    if k_bb is None:
        k_bb = _kernel_mean(b, b, denom)
    k_ab = _kernel_mean(a, b, denom)
    return max(float(k_aa + k_bb - 2.0 * k_ab), 0.0)


def gaussian_kl_details(samples: np.ndarray) -> tuple[float, bool]:
    """KL(N(m, S) || N(0, I)) for the fitted moments; flags regularization.

    S is the biased sample covariance; a singular fit is nudged by 1e-6 I and
    the flag set.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ContractViolation("samples must be a 2-d array")
    n, b = samples.shape
    if n <= b:
        raise ContractViolation(f"need more samples than dimensions ({n} <= {b})")
    m = samples.mean(axis=0)
    centered = samples - m
    s = (centered.T @ centered) / n
    regularized = False
    sign, logdet = np.linalg.slogdet(s)
    if sign <= 0 or not np.isfinite(logdet):
        s = s + _KL_REGULARIZER * np.eye(b)
        regularized = True
        sign, logdet = np.linalg.slogdet(s)
    kl = 0.5 * (np.trace(s) + m @ m - b - logdet)
    return max(float(kl), 0.0), regularized


@dataclass
class MetricsReport:
    """Per-step series over a chain (index 0 = starting batch) plus metadata.

    `write_report` writes each list field, one entry per step, as a column
    (`steps` as `step`) and each other field as a `# key = value` line, all in
    field order.
    """

    steps: list[int] = field(metadata={"column": "step"})
    mmd_to_encoded: list[float]
    mmd_to_prior: list[float]
    gaussian_kl_to_prior: list[float]
    mean_norm: list[float]
    cov_eigen_range: list[float]
    bandwidth: float
    n_chain: int
    n_reference: int
    n_prior: int
    prior_seed: int
    kl_regularized: bool = False
    reference: str = "clean"  # or "corrupted": encodings of corrupted rows


def chain_diagnostics(trace: ChainTrace, encoded_reference: LatentBatch,
                      prior: PriorSpec, rng: Rng | None = None) -> MetricsReport:
    """Distance series for every step of a trace.

    The reference batch should hold encodings of held-out data; prior
    comparison draws come from `rng` (a fixed internal seed when omitted) and
    the kernel bandwidth is fitted once at step 0 and held for the series.
    """
    ref = encoded_reference.values
    if ref.shape[0] == 0:
        raise ContractViolation("encoded reference must be non-empty")
    if ref.shape[1] != prior.dim:
        raise ContractViolation(
            f"reference dim {ref.shape[1]} does not match prior dim {prior.dim}"
        )
    if rng is None:
        rng = Rng(_DEFAULT_PRIOR_SEED).derive("diagnostics-prior")
    prior_seed = int(rng.seed)
    prior_samples = rng.normal((ref.shape[0], prior.dim))

    series = trace.latents()
    bandwidth = median_heuristic_bandwidth(series[0], ref)
    denom = 2.0 * bandwidth * bandwidth
    k_ref = _kernel_mean(ref, ref, denom)
    k_prior = _kernel_mean(prior_samples, prior_samples, denom)
    rows, regularized = [], False
    for t, z in zip([0] + [step.t for step in trace.steps], series, strict=True):
        k_z = _kernel_mean(z, z, denom)
        row = {"steps": t,
               "mmd_to_encoded": mmd_rbf(z, ref, bandwidth, k_aa=k_z, k_bb=k_ref),
               "mmd_to_prior": mmd_rbf(z, prior_samples, bandwidth,
                                       k_aa=k_z, k_bb=k_prior)}
        row["gaussian_kl_to_prior"], flagged = gaussian_kl_details(z)
        regularized = regularized or flagged
        row["mean_norm"] = float(np.linalg.norm(z.mean(axis=0)))
        eig = np.linalg.eigvalsh(np.atleast_2d(np.cov(z, rowvar=False, bias=True)))
        row["cov_eigen_range"] = float(eig[-1] - eig[0])
        rows.append(row)
    return MetricsReport(
        **{key: [row[key] for row in rows] for key in rows[0]},
        bandwidth=bandwidth, n_chain=series[0].shape[0],
        n_reference=ref.shape[0], n_prior=prior_samples.shape[0],
        prior_seed=prior_seed, kl_regularized=regularized)


def write_report(report: MetricsReport, path: str | Path) -> None:
    """CSV serialization: '#' metadata lines, a header row, one row per step."""
    values = [(f, getattr(report, f.name)) for f in fields(report)]
    columns = [(f.metadata.get("column", f.name), v) for f, v in values
               if isinstance(v, list)]
    write_csv(path, [name for name, _ in columns],
              list(zip(*(v for _, v in columns), strict=True)),
              [(f.name, v) for f, v in values if not isinstance(v, list)])
