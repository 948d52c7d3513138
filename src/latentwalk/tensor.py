"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each primitive records its inputs and a backward closure when
any input requires gradients, and `Tensor.backward()` walks the graph in
reverse topological order. Storage is float64 numpy unless a tensor is built
with `dtype=np.float32`; scalars mixed into an op take the other operand's
dtype.

Every graph node comes from a public function here. Training builds coarse
nodes with hand-written backwards: a dense layer is one `matmul` (bias and
transposed weight), train-mode batch norm one `batch_norm`, and each loss one
`binary_cross_entropy` or `gaussian_kl`, whose forwards keep the ops of the
composite graphs they replace.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractViolation, DomainError, ShapeMismatchError


class Tensor:
    """n-d array with optional gradient.

    Values are immutable through the op API (ops never alias their inputs);
    leaf parameters are updated in place by the optimizer via `.data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        arr = np.asarray(data, dtype=dtype)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # -- autograd -----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(param) into .grad of every reachable tensor.

        self must be scalar; tensors not on a path to self are untouched.
        """
        if self.data.size != 1:
            raise ContractViolation(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in seen:
                    stack.append((p, False))

        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._backward is not None:
                for parent, contrib in node._backward(g):
                    prev = grads.get(parent)
                    grads[parent] = contrib if prev is None else prev + contrib
            elif node.requires_grad:  # leaf
                node.grad = g if node.grad is None else node.grad + g

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __radd__(self, other):
        return add(_as_tensor(other, self), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return hadamard(self, _as_tensor(other, self))

    def __rmul__(self, other):
        return hadamard(_as_tensor(other, self), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other, self))

    def __neg__(self):
        return scale(self, -1.0)


def _as_tensor(x, like: Tensor) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=like.data.dtype)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], list]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data, out.grad = data, None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = backward if out.requires_grad else None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(kind: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{kind}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


# -- primitives ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None,
           transpose_b: bool = False) -> Tensor:
    """a @ b, or a @ b.T with `transpose_b`, plus `bias` broadcast over rows."""
    bd = b.data.T if transpose_b else b.data
    if (a.data.ndim != 2 or bd.ndim != 2 or a.data.shape[1] != bd.shape[0]
            or (bias is not None and bias.data.shape != bd.shape[1:])):
        raise ShapeMismatchError(f"matmul: shapes {a.data.shape} and {bd.shape} "
                                 f"with bias {bias and bias.data.shape} do not conform")
    # Copying the transpose keeps the bytes of an explicitly transposed weight.
    out = a.data @ (bd.copy() if transpose_b else bd)
    if bias is not None:
        out += bias.data

    def bw(g):
        grads = [(b, g.T @ a.data if transpose_b else a.data.T @ g)]
        if a.requires_grad:  # skipped for the data fed to a first layer
            grads.append((a, g @ bd.T))
        return grads + ([] if bias is None else [(bias, g.sum(axis=0))])

    return _make(out, (a, b) if bias is None else (a, b, bias), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = a.data + b.data

    def bw(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape))]

    return _make(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out = a.data - b.data

    def bw(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(-g, b.data.shape))]

    return _make(out, (a, b), bw)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("hadamard", a, b)
    out = a.data * b.data

    def bw(g):
        return [
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        ]

    return _make(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def bw(g):
        return [(a, g * c)]

    return _make(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bw(g):
        return [(a, g * (a.data > 0.0))]

    return _make(out, (a,), bw)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    slope = float(slope)
    out = np.where(a.data > 0.0, a.data, slope * a.data)

    def bw(g):
        mask = np.where(a.data > 0.0, 1.0, slope)
        return [(a, g * mask.astype(a.data.dtype, copy=False))]

    return _make(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    # With e = exp(-|x|): e/(1+e) for x < 0 and 1/(1+e) for x >= 0, the
    # overflow-free branch on each side. As e <= 1, the numerator is
    # max(e, x >= 0), so one division serves both sides without a mask.
    x = a.data
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, x >= 0, out=e)
    out = np.divide(e, d, out=e)

    def bw(g):
        return [(a, g * out * (1.0 - out))]

    return _make(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        return [(a, g * (1.0 - out * out))]

    return _make(out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow is caught by the guard below
        out = np.exp(a.data)
    if not np.all(np.isfinite(out)):
        raise DomainError("exp overflow to non-finite values")

    def bw(g):
        return [(a, g * out)]

    return _make(out, (a,), bw)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log of non-positive input")
    out = np.log(a.data)

    def bw(g):
        return [(a, g / a.data)]

    return _make(out, (a,), bw)


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=axis is not None)

    def bw(g):
        return [(a, np.broadcast_to(g, a.data.shape).copy())]

    return _make(np.asarray(out), (a,), bw)


def tmean(a: Tensor, axis: Optional[int] = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=axis is not None)

    def bw(g):
        return [(a, np.broadcast_to(g / n, a.data.shape).copy())]

    return _make(np.asarray(out), (a,), bw)


def tslice(a: Tensor, start: int, stop: int, axis: int = 1) -> Tensor:
    extent = a.data.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeMismatchError(
            f"slice [{start}:{stop}] out of range for axis {axis} with extent {extent}"
        )
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    out = a.data[tuple(sl)].copy()

    def bw(g):
        full = np.zeros_like(a.data)
        full[tuple(sl)] = g
        return [(a, full)]

    return _make(out, (a,), bw)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Train-mode batch norm of the rows of x, x_hat * gamma + beta, as one
    node; also returns the batch mean and biased variance, shape (1, d)."""
    if x.data.ndim != 2 or not gamma.data.shape == beta.data.shape == x.data.shape[1:]:
        raise ShapeMismatchError(f"batch_norm: input {x.data.shape}, gamma "
                                 f"{gamma.data.shape}, beta {beta.data.shape}")
    mu = x.data.mean(axis=0, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=0, keepdims=True)
    shifted = var + np.asarray(eps, dtype=x.data.dtype)
    if np.any(shifted <= 0.0):
        raise DomainError("batch_norm: variance + eps must be positive")
    inv_std = np.exp(np.log(shifted) * -0.5)
    x_hat = centered * inv_std
    out = x_hat * gamma.data
    out += beta.data

    def bw(g):
        # With s = inv_std and d = g * gamma, d/dcentered is
        # s d - centered s^3 mean(d centered), and d/dx that less its mean.
        d = g * gamma.data
        dc = d * inv_std
        dc -= centered * (inv_std ** 3 * (d * centered).mean(axis=0))
        dc -= dc.mean(axis=0)
        return [(x, dc), (gamma, (g * x_hat).sum(axis=0)), (beta, g.sum(axis=0))]

    return _make(out, (x, gamma, beta), bw), mu, var


def _check_pair(kind: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape or a.data.ndim != 2:
        raise ShapeMismatchError(f"{kind}: shapes {a.data.shape} and {b.data.shape}")


def binary_cross_entropy(x: Tensor, x_hat: Tensor) -> Tensor:
    """-sum_coords [x log x_hat + (1-x) log(1-x_hat)], averaged over rows."""
    _check_pair("binary_cross_entropy", x, x_hat)
    if np.any(x.data < 0.0) or np.any(x.data > 1.0):
        raise ContractViolation("cross-entropy targets must lie in [0,1]")
    if np.any(x_hat.data <= 0.0) or np.any(x_hat.data >= 1.0):
        raise DomainError("cross-entropy predictions must lie strictly in (0,1)")
    one = np.asarray(1.0, dtype=x.data.dtype)
    miss, miss_hat = one - x.data, one - x_hat.data
    log_hat, log_miss = np.log(x_hat.data), np.log(miss_hat)
    term = x.data * log_hat + miss * log_miss
    out = np.asarray(term.sum(axis=1, keepdims=True).mean() * -1.0)

    def bw(g):
        c = g * -1.0 / x.data.shape[0]
        grads = [(x_hat, c * (x.data / x_hat.data - miss / miss_hat))]
        if x.requires_grad:  # targets usually do not
            grads.append((x, c * (log_hat - log_miss)))
        return grads

    return _make(out, (x, x_hat), bw)


def gaussian_kl(mu: Tensor, sigma: Tensor) -> Tensor:
    """KL(N(mu, diag sigma^2) || N(0, I)) summed over columns, averaged over rows."""
    _check_pair("gaussian_kl", mu, sigma)
    if np.any(sigma.data <= 0.0):
        raise ContractViolation("sigma must be strictly positive")
    m, s = mu.data, sigma.data
    term = m * m + s * s - np.log(s) * 2.0 - np.asarray(1.0, dtype=m.dtype)
    out = np.asarray(term.sum(axis=1, keepdims=True).mean() * 0.5)

    def bw(g):
        c = g * 0.5 / m.shape[0]
        return [(mu, c * 2.0 * m), (sigma, c * (2.0 * s - 2.0 / s))]

    return _make(out, (mu, sigma), bw)


def finite_diff_check(f: Callable[[], Tensor], params: Iterable[Tensor],
                      eps: float = 1e-5) -> float:
    """Worst-case relative disagreement between backward() and central differences.

    f rebuilds the scalar loss from the current parameter values (any noise
    inside must be frozen). Returns
    max over coordinates of |analytic - central| / (|analytic| + |central| + eps).
    """
    if eps <= 0:
        raise ContractViolation("eps must be positive")
    params = list(params)
    for p in params:
        p.zero_grad()
    f().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            central = (hi - lo) / (2.0 * eps)
            err = abs(ga_flat[i] - central) / (abs(ga_flat[i]) + abs(central) + eps)
            worst = max(worst, err)
    return worst
