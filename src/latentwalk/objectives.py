"""Training losses and epoch loops for all four model variants.

The variants share one reconstruction term; the prior term differs:

  vae / dvae   closed-form KL from the diagonal-Gaussian posterior to N(0, I)
  aae / daae   adversarial two-player losses on latent codes

Denoising variants encode a corrupted input but always reconstruct the clean
target, so zero corruption variance collapses them onto their plain
counterparts draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation, ShapeMismatchError
from .models import (CorruptionSpec, GenerativeAutoencoder, adversary_score,
                     decode, encode_aae, encode_vae)
from .optim import Adam
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

RECONSTRUCTION_LOSSES = ("cross_entropy", "squared_error")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    denoising: bool = False
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)
    reconstruction_loss: str = "cross_entropy"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractViolation("epochs and batch_size must be positive")
        if self.reconstruction_loss not in RECONSTRUCTION_LOSSES:
            raise ContractViolation(
                f"reconstruction_loss must be one of {RECONSTRUCTION_LOSSES}, "
                f"got {self.reconstruction_loss!r}"
            )


def corrupt(x: np.ndarray, spec: CorruptionSpec, rng: Rng) -> np.ndarray:
    """x + N(0, variance*I), unclipped; variance 0 returns x without drawing."""
    if spec.variance == 0.0:
        return x
    noisy = rng.normal(x.shape)
    noisy *= np.sqrt(spec.variance)
    noisy += x
    return noisy


def recon_cross_entropy(x: Tensor, x_hat: Tensor) -> Tensor:
    """-sum_coords [x log x_hat + (1-x) log(1-x_hat)], averaged over the batch."""
    return T.binary_cross_entropy(x, x_hat)


def recon_squared_error(x: Tensor, x_hat: Tensor) -> Tensor:
    """Half the squared Euclidean distance per row, averaged over the batch."""
    if x.data.shape != x_hat.data.shape:  # `sub` would broadcast
        raise ShapeMismatchError(
            f"shape mismatch {x.data.shape} vs {x_hat.data.shape}"
        )
    d = x_hat - x
    return T.scale(T.tmean(T.tsum(d * d, axis=1)), 0.5)


def kl_prior_gaussian(mu: Tensor, sigma: Tensor) -> Tensor:
    """KL from N(mu, diag sigma^2) to N(0, I): half of mu^2 + sigma^2 - log sigma^2 - 1,
    summed over latent dims and averaged over the batch."""
    return T.gaussian_kl(mu, sigma)


def _label_loss(scores: Tensor, label: float) -> Tensor:
    """Binary cross-entropy of adversary scores against one constant label."""
    labels = Tensor(np.full_like(scores.data, label), dtype=scores.data.dtype)
    return T.binary_cross_entropy(labels, scores)


def adversarial_losses(d_real: Tensor, d_fake: Tensor) -> tuple[Tensor, Tensor]:
    """Cross-entropies of adversary scores against real = 1 and fake = 0:
    disc_loss = BCE(1, d_real) + BCE(0, d_fake), and the non-saturating
    gen_loss = BCE(1, d_fake)."""
    return (_label_loss(d_real, 1.0) + _label_loss(d_fake, 0.0),
            _label_loss(d_fake, 1.0))


@dataclass
class EpochStats:
    """Per-epoch mean losses; fields not applicable to the variant are None."""

    epoch: int
    recon_loss: float
    prior_loss: Optional[float] = None
    disc_loss: Optional[float] = None
    gen_loss: Optional[float] = None


@dataclass
class TrainState:
    """Optimizer state carried across epochs of one training run."""

    rng: Rng
    opt_recon: Adam
    opt_disc: Optional[Adam] = None
    opt_gen: Optional[Adam] = None


def init_train_state(model: GenerativeAutoencoder, cfg: TrainConfig) -> TrainState:
    adam_kw = dict(alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2,
                   epsilon=cfg.epsilon)
    rng = Rng(cfg.seed).derive("train")
    recon_params = model.encoder_params() + model.decoder_params()
    state = TrainState(rng=rng, opt_recon=Adam(recon_params, **adam_kw))
    if model.variant == "aae":
        state.opt_disc = Adam(model.adversary_params(), **adam_kw)
        state.opt_gen = Adam(model.encoder_params(), **adam_kw)
    return state


def train_epoch(model: GenerativeAutoencoder, dataset, cfg: TrainConfig,
                state: TrainState, epoch: int = 1) -> EpochStats:
    """One pass over the data: one (VAE) or three (AAE) update steps per batch.

    `state` (from `init_train_state`) carries the optimizers and the shuffle
    and noise stream from one epoch to the next.
    Denoising variants encode corrupt(x), at the model's corruption variance,
    which `cfg` must match, but reconstruct against the clean x.
    A partial trailing batch is dropped so every update sees batch_size rows.
    """
    samples = np.asarray(getattr(dataset, "samples", dataset), dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ContractViolation("dataset must be a non-empty (n, a) array")
    if model.denoising != cfg.denoising:
        raise ContractViolation(
            f"model denoising={model.denoising} but config denoising={cfg.denoising}"
        )
    if model.denoising and model.corruption_variance != cfg.corruption.variance:
        raise ContractViolation(
            f"model corruption variance {model.corruption_variance} but config "
            f"corruption variance {cfg.corruption.variance}")
    n = samples.shape[0]
    if cfg.batch_size > n:
        raise ContractViolation(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    rng = state.rng
    loss_fn = (recon_cross_entropy if cfg.reconstruction_loss == "cross_entropy"
               else recon_squared_error)

    order = rng.permutation(n)
    n_batches = n // cfg.batch_size
    sums = np.zeros(4)
    for bi in range(n_batches):
        idx = order[bi * cfg.batch_size:(bi + 1) * cfg.batch_size]
        x_clean = samples[idx]
        x_in = corrupt(x_clean, cfg.corruption, rng) if cfg.denoising else x_clean
        target = Tensor(x_clean, dtype=model.dtype)
        x = Tensor(x_in, dtype=model.dtype)

        if model.variant == "vae":
            z, mu, sigma = encode_vae(model, x, rng, update_running=True)
            x_hat = decode(model, z, update_running=True)
            recon = loss_fn(target, x_hat)
            prior = kl_prior_gaussian(mu, sigma)
            total = recon + prior
            state.opt_recon.zero_grad()
            total.backward()
            state.opt_recon.step()
            sums += (recon.item(), prior.item(), 0.0, 0.0)
        else:
            # (i) reconstruction on encoder + decoder
            z = encode_aae(model, x, update_running=True)
            x_hat = decode(model, z, update_running=True)
            recon = loss_fn(target, x_hat)
            state.opt_recon.zero_grad()
            recon.backward()
            state.opt_recon.step()
            # (ii) and (iii) share these codes: only the adversary changes.
            z = encode_aae(model, x)
            # (ii) adversary on prior draws vs detached codes
            z_real = Tensor(rng.normal((cfg.batch_size, model.latent_dim)),
                            dtype=model.dtype)
            d_real = adversary_score(model, z_real, rng=rng, train=True)
            d_fake = adversary_score(model, z.detach(), rng=rng, train=True)
            disc = _label_loss(d_real, 1.0) + _label_loss(d_fake, 0.0)
            state.opt_disc.zero_grad()
            disc.backward()
            state.opt_disc.step()
            # (iii) encoder against the updated adversary
            d_gen = adversary_score(model, z, rng=rng, train=True)
            gen = _label_loss(d_gen, 1.0)
            state.opt_gen.zero_grad()
            gen.backward()
            state.opt_gen.step()
            sums += (recon.item(), 0.0, disc.item(), gen.item())

    means = sums / n_batches
    if model.variant == "vae":
        return EpochStats(epoch, float(means[0]), prior_loss=float(means[1]))
    return EpochStats(epoch, float(means[0]),
                      disc_loss=float(means[2]), gen_loss=float(means[3]))


def train_model(model: GenerativeAutoencoder, dataset,
                cfg: TrainConfig) -> list[EpochStats]:
    """Full training run; returns one EpochStats per epoch."""
    state = init_train_state(model, cfg)
    return [train_epoch(model, dataset, cfg, state=state, epoch=e)
            for e in range(1, cfg.epochs + 1)]
