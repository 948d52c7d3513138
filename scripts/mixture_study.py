#!/usr/bin/env python3
"""Train every model variant on the ring-of-Gaussians data and watch where
latent chains started from the prior walk to.

For each variant the script reports the chain's distance (MMD) to the
encoder's aggregate output distribution at step 0 and after a few steps,
plus the moment-matched KL to the prior. A denoising variant's walk
re-encodes corrupted outputs, so its reference encodes corrupted held-out
rows, as `latentwalk evaluate` does.

Usage:
    python3 scripts/mixture_study.py --train-size 256 --epochs 20
    python3 scripts/mixture_study.py --variants vae dvae --out results/
"""

import argparse
import csv
import sys
from pathlib import Path

from latentwalk import (CorruptionSpec, GenerativeAutoencoder, LatentBatch,
                        PriorSpec, Rng, TrainConfig, chain_diagnostics,
                        corrupt, gen_gaussian_mixture, resolve_variant,
                        run_chain, sample_prior, set_norm_mode, train_model)
from latentwalk.cli import _flag_type
from latentwalk.data import _CONFIG_KEYS, _parse_count

VARIANTS = ("vae", "dvae", "aae", "daae")
COUNT, SEED = _flag_type(_parse_count), _flag_type(_CONFIG_KEYS["seed"])
VARIANCE = _flag_type(_CONFIG_KEYS["corruption_variance"])


def study_variant(variant: str, args: argparse.Namespace) -> dict:
    base, denoising = resolve_variant(variant)
    corruption = CorruptionSpec(args.corruption_variance) if denoising else None
    data = gen_gaussian_mixture(args.train_size, seed=args.seed)
    model = GenerativeAutoencoder(
        base, data_dim=2, latent_dim=args.latent_dim,
        denoising=denoising,
        corruption_variance=args.corruption_variance,
        init_seed=args.seed)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      seed=args.seed, denoising=denoising,
                      corruption=corruption)
    history = train_model(model, data, cfg)

    set_norm_mode(model, "train")
    rng = Rng(args.seed).derive(f"study-{variant}")
    held_out = gen_gaussian_mixture(args.eval_size, seed=args.seed,
                                    split="test")
    rows = held_out.samples
    if corruption is not None:
        rows = corrupt(rows, corruption,
                       Rng(args.seed).derive(f"study-{variant}-reference"))
    reference = LatentBatch(model.chain_encode(rows, rng), provenance="encoded")
    z0 = sample_prior(args.chains, PriorSpec(args.latent_dim), rng)
    trace = run_chain(model, z0, steps=args.steps, spec=corruption, rng=rng)
    report = chain_diagnostics(trace, reference, PriorSpec(args.latent_dim))
    return {
        "variant": variant,
        "final_recon_loss": history[-1].recon_loss,
        "mmd_step0": report.mmd_to_encoded[0],
        "mmd_final": report.mmd_to_encoded[-1],
        "kl_step0": report.gaussian_kl_to_prior[0],
        "kl_final": report.gaussian_kl_to_prior[-1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", nargs="+", default=list(VARIANTS),
                        choices=VARIANTS)
    parser.add_argument("--train-size", type=COUNT, default=256)
    parser.add_argument("--eval-size", type=COUNT, default=500)
    parser.add_argument("--epochs", type=COUNT, default=20)
    parser.add_argument("--batch-size", type=COUNT, default=64)
    parser.add_argument("--latent-dim", type=COUNT, default=2)
    parser.add_argument("--chains", type=COUNT, default=500)
    parser.add_argument("--steps", type=COUNT, default=5)
    parser.add_argument("--corruption-variance", type=VARIANCE, default=0.25)
    parser.add_argument("--seed", type=SEED, default=0)
    parser.add_argument("--out", type=Path, help="directory for a CSV copy")
    args = parser.parse_args(argv)

    rows = []
    for variant in args.variants:
        row = study_variant(variant, args)
        rows.append(row)
        print(f"{variant:>5s}  recon {row['final_recon_loss']:7.4f}   "
              f"mmd-to-encoded {row['mmd_step0']:.4f} -> "
              f"{row['mmd_final']:.4f}   kl-to-prior {row['kl_step0']:.3f} -> "
              f"{row['kl_final']:.3f}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "mixture_study.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
