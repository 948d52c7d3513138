#!/usr/bin/env python3
"""Sweep linear-Gaussian systems and compare sampled chain covariance
against the analytic stationary solution.

Each row draws a random contractive encode/decode pair at a target spectral
radius, solves for the stationary covariance S by Smith's doubling, then
walks a batch of chains `--steps` steps from 0 and reports the relative
Frobenius gap between the empirical covariance and the exact one at that
step, S - M^t S M^tT.  Radii at or above 1 are reported as divergent rather
than solved.

Usage:
    python3 scripts/oracle_sweep.py
    python3 scripts/oracle_sweep.py --radii 0.2 0.5 0.8 0.95 1.05 --chains 20000
"""

import argparse
import sys

import numpy as np

from latentwalk import (DivergenceError, OracleSystem, Rng,
                        oracle_sample_chain, random_contractive_system,
                        solve_stationary_cov, spectral_radius)
from latentwalk.cli import _flag_type
from latentwalk.data import _CONFIG_KEYS, _parse_count, _parse_positive

COUNT, SEED = _flag_type(_parse_count), _flag_type(_CONFIG_KEYS["seed"])
POSITIVE = _flag_type(_parse_positive)


def sweep_row(radius: float, args: argparse.Namespace, rng: Rng) -> str:
    # Draw a well-behaved system, then rescale its encoder to the requested
    # radius so radii >= 1 (which the contractive sampler refuses) can be
    # demonstrated too.
    seed_system = random_contractive_system(
        rng, latent_dim=args.latent_dim, data_dim=args.data_dim,
        target_radius=0.5, decoder_noise_variance=1.0)
    system = OracleSystem(seed_system.E * (radius / 0.5), seed_system.D,
                          decoder_noise_variance=1.0, validate=radius < 1.0)
    rho = spectral_radius(system.M)
    try:
        target = solve_stationary_cov(system)
    except DivergenceError:
        return f"rho {rho:6.3f}   stationary solve: divergent (as expected)"
    z0 = np.zeros((args.chains, args.latent_dim))
    path = oracle_sample_chain(system, z0, steps=args.steps,
                               rng=rng.derive(f"sweep-{radius}"))
    emp = np.cov(path[-1].T, bias=True).reshape(target.shape)
    p = np.linalg.matrix_power(system.M, args.steps)
    exact = target - p @ target @ p.T
    rel = np.linalg.norm(emp - exact) / np.linalg.norm(exact)
    return (f"rho {rho:6.3f}   trace {np.trace(target):8.3f}   "
            f"sampled-vs-analytic gap {rel:6.3%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radii", type=POSITIVE, nargs="+",
                        default=[0.2, 0.4, 0.6, 0.8, 0.9, 0.95])
    parser.add_argument("--latent-dim", type=COUNT, default=3)
    parser.add_argument("--data-dim", type=COUNT, default=5)
    parser.add_argument("--chains", type=COUNT, default=10_000)
    parser.add_argument("--steps", type=COUNT, default=300)
    parser.add_argument("--seed", type=SEED, default=0)
    args = parser.parse_args(argv)

    rng = Rng(args.seed).derive("oracle-sweep")
    for radius in args.radii:
        print(sweep_row(radius, args, rng))

    # Corruption shifts the process noise by corruption_variance * E E^T;
    # show the exact stationary inflation for one fixed system.
    E = np.eye(2)
    D = 0.5 * np.eye(2)
    plain = OracleSystem(E, D, decoder_noise_variance=1.0)
    noisy = OracleSystem(E, D, decoder_noise_variance=1.0,
                         corruption_variance=0.25)
    gap = solve_stationary_cov(noisy) - solve_stationary_cov(plain)
    print(f"corruption 0.25 inflates the flagship stationary covariance by "
          f"diag({gap[0, 0]:.4f}, {gap[1, 1]:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
