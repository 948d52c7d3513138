"""The model family: VAE and AAE encoders, shared decoder shape, adversary.

A `GenerativeAutoencoder` owns three layer stacks:

  encoder   data_dim -> hidden -> ... -> head (2*latent_dim for VAE: mean and
            log-sigma halves; latent_dim for AAE: the latent itself)
  decoder   latent_dim -> hidden -> ... -> data_dim, sigmoid top
  adversary latent_dim -> ... -> 1 (AAE only), leaky-ReLU + dropout, no norm

Construction enforces the support conditions the sampling chain relies on:
an AAE encoder head must see at least latent_dim input features (a complete
or overcomplete basis — with fewer, the encoder cannot reach every latent
direction and the chain loses support), and the VAE sigma is produced as
exp(log-sigma) so it is strictly positive for any finite head output.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ShapeMismatchError
from .layers import Activation, BatchNormLayer, DenseLayer, Dropout
from .rng import Rng, check_seed
from . import tensor as T
from .tensor import Tensor

VARIANTS = ("vae", "aae")
VARIANT_NAMES = ("vae", "dvae", "aae", "daae")


def resolve_variant(name: str) -> tuple[str, bool]:
    """Map a variant name to (base model family, denoising flag); the
    inverse of `GenerativeAutoencoder.name`."""
    name = name.lower()
    if name not in VARIANT_NAMES:
        raise ContractViolation(
            f"variant must be one of {VARIANT_NAMES}, got {name!r}")
    denoising = name.startswith("d")
    return (name[1:] if denoising else name), denoising


# Decoder outputs are nudged off exact 0/1 (float rounding at extreme
# pre-activations) so cross-entropy stays inside its domain. The bounds must be
# representable in the output's dtype: float32 rounds 1e-300 to 0 and the
# float64 neighbour of 1 to 1.
_OUT_FLOOR = 1e-300


def _out_bounds(dtype) -> tuple[np.floating, np.floating]:
    dtype = np.dtype(dtype)
    floor = dtype.type(max(_OUT_FLOOR, float(np.finfo(dtype).tiny)))
    return floor, np.nextafter(dtype.type(1.0), dtype.type(0.0))

# The stochastic encoder's variance head starts out predicting a constant
# sigma of 0.5: its weights are shrunk so the init-time spread of log-sigma
# (which would otherwise put sigma anywhere in ~[0.2, 5] depending on seed)
# collapses onto the bias.  A freshly built model then encodes with a
# contraction instead of a seed-lottery between contraction and blow-up.
_SIGMA_HEAD_WEIGHT_SCALE = 0.01
_SIGMA_HEAD_INIT = 0.5


@dataclass(frozen=True)
class PriorSpec:
    """Isotropic unit Gaussian over the latent space."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolation(f"prior dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class CorruptionSpec:
    """Isotropic additive Gaussian corruption in data space. The one check
    of a noise variance: a finite real number >= 0, not a bool."""

    variance: float = 0.25

    def __post_init__(self):
        v = self.variance
        if (isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)
                or not 0 <= v < np.inf):
            raise ContractViolation(
                f"a noise variance must be a finite number >= 0, got {v!r}")
        object.__setattr__(self, "variance", float(v))


class GenerativeAutoencoder:
    """One trained artifact: parameters plus the variant/denoising flags.

    `dtype` is the storage of every parameter and of the tensors the model
    builds: float64, or float32 as a training-speed switch (dtype or name).
    `draw_weights=False` leaves the dense weights zero and draws nothing,
    for a caller that overwrites every array (`data.load_checkpoint`).
    """

    def __init__(self, variant: str, data_dim: int, latent_dim: int,
                 hidden_dims: tuple[int, ...] = (64, 64),
                 adversary_dims: tuple[int, ...] = (64, 64),
                 denoising: bool = False,
                 corruption_variance: float = CorruptionSpec.variance,
                 init_seed: int = 0, dtype=np.float64, *,
                 draw_weights: bool = True):
        if not isinstance(variant, str) or variant.lower() not in VARIANTS:
            raise ContractViolation(f"unknown variant {variant!r}")
        if not isinstance(denoising, (bool, np.bool_)):
            raise ContractViolation(f"denoising must be a bool, got {denoising!r}")
        variant = variant.lower()
        data_dim, latent_dim = _integer(data_dim), _integer(latent_dim)
        init_seed = check_seed(_integer(init_seed, "seeds"))
        hidden_dims = tuple(map(_integer, hidden_dims))
        adversary_dims = tuple(map(_integer, adversary_dims))
        if data_dim < 1 or latent_dim < 1:
            raise ContractViolation("data_dim and latent_dim must be >= 1")
        if not hidden_dims:
            raise ContractViolation("at least one hidden layer is required")
        if dtype not in (np.float32, np.float64, "float32", "float64"):
            raise ContractViolation(f"unsupported dtype {dtype!r}")
        head_in = hidden_dims[-1]
        if variant == "aae" and head_in < latent_dim:
            raise ContractViolation(
                f"AAE encoder head sees {head_in} features but latent_dim is "
                f"{latent_dim}; the deterministic encoder needs a complete or "
                f"overcomplete basis (width >= latent_dim) to keep full support"
            )

        self.variant = variant
        self.data_dim = data_dim
        self.latent_dim = latent_dim
        self.hidden_dims = hidden_dims
        self.adversary_dims = adversary_dims
        self.denoising = bool(denoising)
        self.corruption_variance = CorruptionSpec(corruption_variance).variance
        self.init_seed = init_seed
        self.prior = PriorSpec(latent_dim)
        self.dtype = np.dtype(dtype)

        rng = Rng(init_seed).derive("init") if draw_weights else None
        head_out = 2 * latent_dim if variant == "vae" else latent_dim
        self.encoder = _stack(rng, (data_dim, *hidden_dims, head_out), dtype)
        if variant == "vae":
            head = self.encoder[-1]
            head.weights.data[latent_dim:, :] *= _SIGMA_HEAD_WEIGHT_SCALE
            head.bias.data[latent_dim:] = np.log(_SIGMA_HEAD_INIT)
        self.decoder = _stack(rng, (latent_dim, *hidden_dims, data_dim), dtype)
        self.adversary = (_stack(rng, (latent_dim, *adversary_dims, 1), dtype,
                                 adversary=True)
                          if variant == "aae" else None)

    def arch(self) -> dict:
        """The constructor arguments as JSON values (the dtype by name):
        `GenerativeAutoencoder(**model.arch())` builds this model as it was
        initialised."""
        return {"variant": self.variant, "data_dim": self.data_dim,
                "latent_dim": self.latent_dim,
                "hidden_dims": list(self.hidden_dims),
                "adversary_dims": list(self.adversary_dims),
                "denoising": self.denoising,
                "corruption_variance": self.corruption_variance,
                "init_seed": self.init_seed, "dtype": self.dtype.name}

    @property
    def name(self) -> str:
        """The variant name a run chooses: vae, dvae, aae or daae."""
        return ("d" if self.denoising else "") + self.variant

    # -- parameter access -----------------------------------------------------

    def encoder_params(self) -> list[Tensor]:
        return _params(self.encoder)

    def decoder_params(self) -> list[Tensor]:
        return _params(self.decoder)

    def adversary_params(self) -> list[Tensor]:
        return _params(self.adversary or [])

    def all_params(self) -> list[Tensor]:
        return self.encoder_params() + self.decoder_params() + self.adversary_params()

    def norm_layers(self) -> list[BatchNormLayer]:
        return [l for stack in (self.encoder, self.decoder)
                for l in stack if isinstance(l, BatchNormLayer)]

    def named_arrays(self):
        """(name, array) for every parameter and running statistic, in one
        fixed order: the tensors of a checkpoint and the fingerprint's input."""
        for stack_name in ("encoder", "decoder", "adversary"):
            for i, layer in enumerate(getattr(self, stack_name) or []):
                for name, a in layer.named_arrays():
                    yield f"{stack_name}.{i}.{name}", a

    def fingerprint(self) -> str:
        """SHA-256 over `named_arrays()`, each as float64."""
        h = hashlib.sha256()
        for _, a in self.named_arrays():
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        return h.hexdigest()

    # -- forward passes ---------------------------------------------------------

    def _run(self, stack, x: Tensor, *, rng: Rng | None = None,
             active: bool = False, update_running: bool = False) -> Tensor:
        for layer in stack:
            x = layer(x, rng=rng, active=active, update_running=update_running)
        return x

    def encoder_head(self, x: Tensor, update_running: bool = False) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.data_dim:
            raise ShapeMismatchError(
                f"encoder expects (n, {self.data_dim}), got {x.data.shape}"
            )
        return self._run(self.encoder, x, update_running=update_running)

    # -- sampling protocol (numpy in, numpy out) ----------------------------------
    # The forward pass records a graph through the parameters; only `.data`
    # leaves, so the graph is freed with the result and no `.grad` is touched.

    def chain_encode(self, x: np.ndarray, rng: Rng) -> np.ndarray:
        """Encoder draw for chain transitions: stochastic for VAE, not for AAE."""
        if self.variant == "vae":
            z, _, _ = encode_vae(self, Tensor(x, dtype=self.dtype), rng)
        else:
            z = encode_aae(self, Tensor(x, dtype=self.dtype))
        return z.data

    def chain_decode(self, z: np.ndarray, rng: Rng) -> np.ndarray:
        """Decoder mean for chain transitions; rng accepted for protocol parity."""
        return decode(self, Tensor(z, dtype=self.dtype)).data


def _integer(v, what: str = "dimensions") -> int:
    """A width or seed as a Python int (so `arch()` is JSON): any integer
    type, NumPy's included; anything else raises."""
    try:
        return operator.index(v)
    except TypeError:
        raise ContractViolation(f"{what} must be integers, got {v!r}") from None


def _params(stack) -> list[Tensor]:
    return [p for layer in stack for p in layer.params()]


def _stack(rng: Rng | None, dims: tuple[int, ...], dtype, adversary: bool = False) -> list:
    """Dense layers through the widths `dims`. Each hidden width is followed
    by batch norm and ReLU, or in the adversary by leaky ReLU and dropout;
    the adversary ends in a sigmoid."""
    stack: list = []
    for i in range(1, len(dims)):
        stack.append(DenseLayer(dims[i - 1], dims[i], rng, dtype))
        if i < len(dims) - 1:
            stack += ([Activation("leaky_relu", 0.2), Dropout(0.5)] if adversary
                      else [BatchNormLayer(dims[i], dtype), Activation("relu")])
    if adversary:
        stack.append(Activation("sigmoid"))
    return stack


# -- module-level operations ----------------------------------------------------


def encode_vae(model: GenerativeAutoencoder, x: Tensor, rng: Rng,
               update_running: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """Stochastic encoding z = mu + eps (.) sigma, eps ~ N(0, I).

    Returns (z, mu, sigma); sigma = exp(half of the head output) > 0 strictly.
    """
    if model.variant != "vae":
        raise ContractViolation(f"encode_vae on a {model.variant!r} model")
    head = model.encoder_head(x, update_running=update_running)
    b = model.latent_dim
    mu = T.tslice(head, 0, b, axis=1)
    log_sigma = T.tslice(head, b, 2 * b, axis=1)
    sigma = T.exp(log_sigma)
    eps = Tensor(rng.normal(mu.data.shape), dtype=mu.data.dtype)
    z = mu + eps * sigma
    return z, mu, sigma


def encode_aae(model: GenerativeAutoencoder, x: Tensor,
               update_running: bool = False) -> Tensor:
    """Deterministic encoding (the AAE posterior is a point mass)."""
    if model.variant != "aae":
        raise ContractViolation(f"encode_aae on a {model.variant!r} model")
    return model.encoder_head(x, update_running=update_running)


def encode_mean(model: GenerativeAutoencoder, x: Tensor) -> Tensor:
    """Noise-free encoding: the VAE posterior mean, or the AAE output."""
    head = model.encoder_head(x)
    if model.variant == "vae":
        return T.tslice(head, 0, model.latent_dim, axis=1)
    return head


def decode(model: GenerativeAutoencoder, z: Tensor,
           update_running: bool = False) -> Tensor:
    """Decoder mean in (0,1)^data_dim per row; deterministic."""
    if z.data.ndim != 2 or z.data.shape[1] != model.latent_dim:
        raise ShapeMismatchError(
            f"decoder expects (n, {model.latent_dim}), got {z.data.shape}"
        )
    y = T.sigmoid(model._run(model.decoder, z, update_running=update_running))
    np.clip(y.data, *_out_bounds(y.data.dtype), out=y.data)
    return y


def adversary_score(model: GenerativeAutoencoder, z: Tensor,
                    rng: Rng | None = None, train: bool = False) -> Tensor:
    """Probability in (0,1) that each latent row came from the prior."""
    if model.adversary is None:
        raise ContractViolation("model has no adversary")
    if z.data.ndim != 2 or z.data.shape[1] != model.latent_dim:
        raise ShapeMismatchError(
            f"adversary expects (n, {model.latent_dim}), got {z.data.shape}"
        )
    return model._run(model.adversary, z, rng=rng, active=train)


def set_norm_mode(model: GenerativeAutoencoder, mode: str) -> None:
    """Switch every normalization layer between minibatch and running stats."""
    if mode not in ("train", "eval"):
        raise ContractViolation(f"norm mode must be 'train' or 'eval', got {mode!r}")
    for bn in model.norm_layers():
        bn.mode = mode
