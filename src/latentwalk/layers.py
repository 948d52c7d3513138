"""Network building blocks: dense, batch-norm, activation, dropout.

Layers own their parameters as `Tensor`s and list them, for the optimizer
(`params()`) and for checkpoints (`named_arrays()`). Every `__call__` takes
the same keyword-only flags, `rng`, `active` and `update_running`, and reads
only those it needs. Batch-norm keeps running statistics outside the
autodiff graph; they change only when the caller explicitly asks (the
training loop does, samplers never do).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, ShapeMismatchError
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

# Batch norm's running-statistics EMA weight and variance floor.
_MOMENTUM = 0.1
_EPS = 1e-8


class _Layer:
    """Defaults for a layer that holds no parameters or stored arrays."""

    def params(self) -> list[Tensor]:
        return []

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return []


class DenseLayer(_Layer):
    """Affine map y = x W^T + b with weights of shape (out, in)."""

    def __init__(self, in_dim: int, out_dim: int, rng: Rng, dtype=np.float64):
        if in_dim < 1 or out_dim < 1:
            raise ContractViolation(f"dense dims must be >= 1, got {in_dim}x{out_dim}")
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        w = (2.0 * rng.uniform((out_dim, in_dim)) - 1.0) * limit
        self.weights = Tensor(w, requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor, *, rng: Rng | None = None,
                 active: bool = False, update_running: bool = False) -> Tensor:
        return T.matmul(x, self.weights, self.bias, transpose_b=True)

    def params(self) -> list[Tensor]:
        return [self.weights, self.bias]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("weights", self.weights.data), ("bias", self.bias.data)]


_ACTIVATION_KINDS = ("relu", "leaky_relu", "sigmoid", "tanh")


class Activation(_Layer):
    """Elementwise nonlinearity: the `tensor` primitive of the same name."""

    def __init__(self, kind: str, slope: float = 0.2):
        if kind not in _ACTIVATION_KINDS:
            raise ContractViolation(
                f"unknown activation {kind!r}; expected one of {_ACTIVATION_KINDS}"
            )
        self.kind = kind
        self.slope = slope

    def __call__(self, x: Tensor, *, rng: Rng | None = None,
                 active: bool = False, update_running: bool = False) -> Tensor:
        if self.kind == "leaky_relu":
            return T.leaky_relu(x, self.slope)
        return getattr(T, self.kind)(x)


class BatchNormLayer(_Layer):
    """Per-feature normalization with learnable scale and shift.

    mode 'train' normalizes by minibatch statistics, 'eval' by the stored
    running statistics. Running statistics move only when `update_running`
    is passed (one EMA step per call, biased batch variance).
    """

    def __init__(self, dim: int, dtype=np.float64):
        self.dim = dim
        self.gamma = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self.mode = "train"

    def __call__(self, x: Tensor, *, rng: Rng | None = None,
                 active: bool = False, update_running: bool = False) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.dim:
            raise ShapeMismatchError(
                f"batch norm expects (n, {self.dim}), got {x.data.shape}"
            )
        if self.mode == "train":
            if x.data.shape[0] < 2:
                raise ContractViolation(
                    f"train-mode batch norm needs at least 2 rows, got "
                    f"{x.data.shape[0]}; a single row normalizes to beta "
                    f"whatever its input")
            out, mu, var = T.batch_norm(x, self.gamma, self.beta, _EPS)
            if update_running:
                m = _MOMENTUM
                self.running_mean = (1 - m) * self.running_mean + m * mu[0]
                self.running_var = (1 - m) * self.running_var + m * var[0]
            return out
        inv = 1.0 / np.sqrt(self.running_var + _EPS)
        dtype = x.data.dtype
        x_hat = ((x - Tensor(self.running_mean, dtype=dtype))
                 * Tensor(inv, dtype=dtype))
        return x_hat * self.gamma + self.beta

    def params(self) -> list[Tensor]:
        return [self.gamma, self.beta]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("gamma", self.gamma.data), ("beta", self.beta.data),
                ("running_mean", self.running_mean),
                ("running_var", self.running_var)]


class Dropout(_Layer):
    """Inverted dropout; identity unless explicitly activated with an rng."""

    def __init__(self, p: float = 0.5):
        if not (0.0 <= p < 1.0):
            raise ContractViolation(f"dropout probability must be in [0,1), got {p}")
        self.p = p

    def __call__(self, x: Tensor, *, rng: Rng | None = None,
                 active: bool = False, update_running: bool = False) -> Tensor:
        if not active or self.p == 0.0:
            return x
        if rng is None:
            raise ContractViolation("active dropout requires an rng")
        mask = (rng.uniform(x.data.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask, dtype=x.data.dtype)
