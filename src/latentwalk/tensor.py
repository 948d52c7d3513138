"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each primitive records its inputs and a backward closure when
any input requires gradients, and `Tensor.backward()` walks the graph in
reverse topological order. Storage is float64 numpy unless a tensor is built
with `dtype=np.float32`; scalars mixed into an op take the other operand's
dtype.
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
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                # leaf
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, contrib in node._backward(g):
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + contrib
                    else:
                        grads[id(parent)] = contrib

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
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} do not conform"
        )
    out = a.data @ b.data

    def bw(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return _make(out, (a, b), bw)


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
    # overflow-free branch on each side, without masked gathers.
    x = a.data
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    out = np.divide(e, d, out=e)
    np.divide(1.0, d, out=out, where=x >= 0)

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


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractViolation("concat of an empty sequence")
    ndim = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeMismatchError("concat: mismatched ranks")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def bw(g):
        sl = [slice(None)] * ndim
        contribs = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl[axis] = slice(start, stop)
            contribs.append((t, g[tuple(sl)].copy()))
        return contribs

    return _make(out, tuple(tensors), bw)


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
