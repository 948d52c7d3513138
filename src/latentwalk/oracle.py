"""Linear-Gaussian verifier for the chain machinery.

With a linear encoder z = E x, a linear decoder mean D z with isotropic
Gaussian output noise, and isotropic Gaussian corruption, one chain step is
exactly

    z_{t+1} = M z_t + eta,   M = E D,
    eta ~ N(0, Q),           Q = (decoder_noise_variance + corruption_variance) E E^T,

so per-step moments and the stationary covariance (the fixed point of
S -> M S M^T + Q) are computable in closed form. Everything the sampling
module does can therefore be checked against arithmetic instead of against
another simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import LatentBatch, run_chain
from .errors import ContractViolation, DivergenceError
from .models import CorruptionSpec
from .rng import Rng

# Each doubling squares the contraction; a contractive system converges long
# before this many (2**64 terms of the series).
_MAX_DOUBLINGS = 64


class OracleSystem:
    """Immutable description of one linear-Gaussian autoencoder.

    It is also a chain model: `run_chain` walks it directly. chain_decode
    applies the decoder mean plus decoder noise; corruption is *not* applied
    there, since the denoising kernel owns it, exactly as for real models.
    Both walks multiply by contiguous copies of D^T and E^T, made once.
    """

    def __init__(self, E: np.ndarray, D: np.ndarray,
                 decoder_noise_variance: float = 0.0,
                 corruption_variance: float = 0.0,
                 validate: bool = True):
        E = np.asarray(E, dtype=np.float64)
        D = np.asarray(D, dtype=np.float64)
        if E.ndim != 2 or D.ndim != 2 or E.shape[1] != D.shape[0] \
                or E.shape[0] != D.shape[1]:
            raise ContractViolation(
                f"E must be (b, a) and D (a, b); got {E.shape} and {D.shape}"
            )
        self.E = E.copy()
        self.D = D.copy()
        self.latent_dim, self.data_dim = E.shape
        self.decoder_noise_variance = CorruptionSpec(decoder_noise_variance).variance
        self.corruption_variance = CorruptionSpec(corruption_variance).variance
        self.Dt = np.ascontiguousarray(self.D.T)
        self.Et = np.ascontiguousarray(self.E.T)
        self.M = self.E @ self.D
        self.Q = (self.decoder_noise_variance + self.corruption_variance) \
            * (self.E @ self.E.T)
        if validate and spectral_radius(self.M) >= 1.0:
            raise ContractViolation(
                f"spectral radius of E@D is {spectral_radius(self.M):.6f} >= 1; "
                f"the chain has no stationary distribution"
            )

    def chain_decode(self, z: np.ndarray, rng: Rng) -> np.ndarray:
        x = z @ self.Dt
        if self.decoder_noise_variance > 0.0:
            noise = rng.normal(x.shape)
            noise *= np.sqrt(self.decoder_noise_variance)
            x += noise
        return x

    def chain_encode(self, x: np.ndarray, rng: Rng) -> np.ndarray:
        return x @ self.Et


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def oracle_transition_moments(sys: OracleSystem, mean_t: np.ndarray,
                              cov_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step propagation: mean -> M mean, cov -> M cov M^T + Q."""
    mean_t = np.asarray(mean_t, dtype=np.float64)
    cov_t = np.asarray(cov_t, dtype=np.float64)
    b = sys.latent_dim
    if mean_t.shape != (b,) or cov_t.shape != (b, b):
        raise ContractViolation(
            f"expected mean ({b},) and cov ({b},{b}), got {mean_t.shape}, {cov_t.shape}"
        )
    if not np.allclose(cov_t, cov_t.T, atol=1e-10):
        raise ContractViolation("covariance must be symmetric")
    m = sys.M
    return m @ mean_t, m @ cov_t @ m.T + sys.Q


def solve_stationary_cov(sys: OracleSystem) -> np.ndarray:
    """Fixed point S = M S M^T + Q by Smith's doubling iteration.

    S_k = sum_{j < 2^k} M^j Q M^jT, built as S <- S + A S A^T, A <- A^2 from
    S = Q, A = M. Returns S once the term just added is below float64's
    resolution of S (|A S A^T| <= eps |S|, Frobenius). Raises if M has
    spectral radius >= 1, where no stationary covariance exists.
    """
    s, a = sys.Q, sys.M
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise DivergenceError(
            f"no stationary covariance: spectral radius {rho:.6f} >= 1")
    eps = np.finfo(s.dtype).eps
    for _ in range(_MAX_DOUBLINGS):
        term = a @ s @ a.T
        s = s + term
        if np.linalg.norm(term) <= eps * np.linalg.norm(s):
            return s
        a = a @ a
    raise DivergenceError(
        f"stationary covariance did not converge in {_MAX_DOUBLINGS} doublings "
        f"(spectral radius {rho:.6f})"
    )


def oracle_sample_chain(sys: OracleSystem, z0: np.ndarray, steps: int,
                        rng: Rng) -> np.ndarray:
    """Sample n parallel chains; returns an array of shape (steps+1, n, b).

    The realization factors exactly like `run_chain` on the system — decode
    to data space, add decoder noise, add corruption, re-encode — so a shared
    rng reproduces the sampling module's draws bit for bit. Zero-variance
    noise terms consume no draws.
    """
    z = np.atleast_2d(np.asarray(z0, dtype=np.float64))
    if z.shape[1] != sys.latent_dim:
        raise ContractViolation(
            f"z0 has dim {z.shape[1]}, system latent_dim is {sys.latent_dim}"
        )
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, got {steps}")
    n = z.shape[0]
    trace = np.empty((steps + 1, n, sys.latent_dim))
    trace[0] = z
    for t in range(steps):
        x = z @ sys.Dt
        if sys.decoder_noise_variance > 0.0:
            x = x + np.sqrt(sys.decoder_noise_variance) * rng.normal((n, sys.data_dim))
        if sys.corruption_variance > 0.0:
            x = x + np.sqrt(sys.corruption_variance) * rng.normal((n, sys.data_dim))
        z = x @ sys.Et
        trace[t + 1] = z
    return trace


def random_contractive_system(rng: Rng, latent_dim: int, data_dim: int,
                              target_radius: float,
                              decoder_noise_variance: float = 1.0,
                              corruption_variance: float = 0.0) -> OracleSystem:
    """Random E, D rescaled so spectral_radius(E@D) equals target_radius."""
    if not (0.0 < target_radius < 1.0):
        raise ContractViolation(
            f"target radius must be in (0,1), got {target_radius}"
        )
    while True:
        e = rng.normal((latent_dim, data_dim))
        d = rng.normal((data_dim, latent_dim))
        rho = spectral_radius(e @ d)
        if rho > 1e-9:
            return OracleSystem(e, d * (target_radius / rho),
                                decoder_noise_variance, corruption_variance)


@dataclass
class CheckResult:
    """One row of the verification table."""

    name: str
    passed: bool
    detail: str


def _rel_frobenius(measured: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(measured - expected) / np.linalg.norm(expected))


def run_oracle_suite(seed: int, radius: float,
                     n_chains: int) -> list[CheckResult]:
    """Verify the chain machinery against closed-form arithmetic.

    The base system is E = I, D = radius*I (b=2) with unit decoder noise;
    injecting radius >= 1 makes the stationary solve diverge, which the suite
    reports as a failure. Checks 2 and 4 compare with the exact covariance at
    the step they reach. The sampled-covariance tolerance is 0.05 at 10,000
    chains and scales as 1/sqrt(n_chains), as the sampling error of a 2x2
    covariance estimate does (rms relative error sqrt(3/n_chains)).
    """
    if not np.isfinite(radius):
        raise ContractViolation(f"spectral radius must be finite, got {radius}")
    if n_chains < 2:
        raise ContractViolation(f"need at least 2 chains, got {n_chains}")
    results: list[CheckResult] = []
    tol_cov = 0.05 * np.sqrt(10_000 / n_chains)
    rng = Rng(seed).derive("oracle-suite")
    b = 2
    base = OracleSystem(np.eye(b), radius * np.eye(b),
                        decoder_noise_variance=1.0, validate=False)

    # 1. Known fixed point at radius 0.5: stationary covariance (4/3) I.
    known = OracleSystem(np.eye(b), 0.5 * np.eye(b), decoder_noise_variance=1.0)
    sigma = solve_stationary_cov(known)
    err = float(np.max(np.abs(sigma - (4.0 / 3.0) * np.eye(b))))
    results.append(CheckResult("stationary-known-value", err < 1e-8,
                               f"max abs deviation {err:.3e}"))

    # 2. Iterated per-step moments land on the closed form: from cov 0, the
    # covariance after t steps is S - M^t S M^tT.
    try:
        sigma = solve_stationary_cov(base)
        mean = np.ones(b)
        cov = np.zeros((b, b))
        for _ in range(200):
            mean, cov = oracle_transition_moments(base, mean, cov)
        p = np.linalg.matrix_power(base.M, 200)
        rel = _rel_frobenius(cov, sigma - p @ sigma @ p.T)
        results.append(CheckResult("moment-iteration-consistency", rel < 1e-11,
                                   f"relative Frobenius gap {rel:.3e} "
                                   f"after 200 steps"))
    except DivergenceError as exc:
        results.append(CheckResult("moment-iteration-consistency", False, str(exc)))

    # 3. On random contractive systems, the backward error (Frobenius, free of
    # scale): |M S M^T + Q - S| / (|M|^2 |S| + |Q| + |S|).
    worst = 0.0
    for i in range(10):
        sys_i = random_contractive_system(
            rng.derive(f"sys{i}"), latent_dim=2 + i % 3, data_dim=3 + i % 4,
            target_radius=0.3 + 0.06 * i)
        m, q, s = sys_i.M, sys_i.Q, solve_stationary_cov(sys_i)
        worst = max(worst, float(np.linalg.norm(m @ s @ m.T + q - s) / (
            np.linalg.norm(m) ** 2 * np.linalg.norm(s) + np.linalg.norm(q)
            + np.linalg.norm(s))))
    results.append(CheckResult("lyapunov-residual", worst <= 1e-13,
                               f"worst backward error {worst:.3e} "
                               f"over 10 systems"))

    # 4. Sampled chains reach the analytic covariance, S + M^t (I - S) M^tT
    # after t steps from N(0, I): one walk of every chain, from prior draws,
    # on its own stream, so the suite's `rng` is not advanced. run_chain on
    # the system draws exactly as oracle_sample_chain does (check 6).
    try:
        sigma = solve_stationary_cov(base)
        g = rng.derive("chains0")
        walk = run_chain(base, LatentBatch(g.normal((n_chains, b))), 200, rng=g,
                         keep=(200,))
        emp = np.cov(walk.steps[-1].z.values, rowvar=False, bias=True)
        p = np.linalg.matrix_power(base.M, 200)
        rel = _rel_frobenius(emp, sigma + p @ (np.eye(b) - sigma) @ p.T)
        results.append(CheckResult("sampled-covariance", rel < tol_cov,
                                   f"relative Frobenius error {rel:.4f} "
                                   f"(tolerance {tol_cov:.4f})"))
    except DivergenceError as exc:
        results.append(CheckResult("sampled-covariance", False, str(exc)))

    # 5. Corruption augments the noise covariance by exactly variance * E E^T.
    corr = OracleSystem(base.E, base.D, decoder_noise_variance=1.0,
                        corruption_variance=0.25, validate=False)
    exact = float(np.max(np.abs((corr.Q - base.Q) - 0.25 * (base.E @ base.E.T))))
    z0 = np.zeros((n_chains, b))
    cov_plain = np.cov(
        oracle_sample_chain(base, z0, 1, rng.derive("plain"))[-1],
        rowvar=False, bias=True)
    cov_corr = np.cov(
        oracle_sample_chain(corr, z0, 1, rng.derive("corr"))[-1],
        rowvar=False, bias=True)
    rel_plain = _rel_frobenius(cov_plain, base.Q)
    rel_corr = _rel_frobenius(cov_corr, corr.Q)
    ok = exact < 1e-12 and rel_plain < tol_cov and rel_corr < tol_cov
    results.append(CheckResult(
        "corruption-augmentation", ok,
        f"analytic gap {exact:.1e}, one-step cov errors "
        f"{rel_plain:.4f}/{rel_corr:.4f} (tolerance {tol_cov:.4f})"))

    # 6. The generic chain runner reproduces the oracle sampler bit for bit.
    z0 = rng.normal((64, b))
    seed_pair = int(rng.derive("bit-identity").seed)
    direct = oracle_sample_chain(corr, z0, 20, Rng(seed_pair))
    trace = run_chain(corr, LatentBatch(z0.copy()), 20,
                      spec=CorruptionSpec(corr.corruption_variance),
                      rng=Rng(seed_pair))
    same = all(np.array_equal(direct[t], lat)
               for t, lat in enumerate(trace.latents()))
    results.append(CheckResult("chain-runner-bit-identity", same,
                               "identical traces" if same else
                               "traces diverged"))
    return results

