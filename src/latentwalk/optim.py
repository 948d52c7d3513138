"""Adam with bias correction.

Defaults are the ones used throughout the experiments: step size 2e-4,
first-moment decay 0.5, second-moment decay 0.999.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .tensor import Tensor


@dataclass
class Adam:
    """Optimizer over a fixed parameter list; call order: backward, step, zero_grad.

    Moments and scratch are flat buffers over all parameters. A step gathers
    the gradients, applies the per-parameter formula's ops in its order with
    whole-buffer in-place ops, and subtracts a slice from each parameter.
    """

    params: list[Tensor]
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0

    def __post_init__(self):
        if not self.params:
            raise ContractViolation("Adam needs at least one parameter")
        if not (0 < self.alpha < np.inf and 0 <= self.beta1 < 1
                and 0 <= self.beta2 < 1 and 0 < self.epsilon < np.inf):
            raise ContractViolation(
                f"Adam needs finite alpha > 0 (got {self.alpha}), beta1 and "
                f"beta2 in [0, 1) (got {self.beta1}, {self.beta2}) and finite "
                f"epsilon > 0 (got {self.epsilon})")
        if len({p.data.dtype for p in self.params}) != 1:
            raise ContractViolation("Adam parameters must share one dtype")
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._m, self._v, self._g, self._s = np.zeros(
            (4, ends[-1]), dtype=self.params[0].data.dtype)
        self._updates = [self._s[end - p.data.size:end].reshape(p.data.shape)
                         for p, end in zip(self.params, ends)]

    def step(self) -> None:
        """Update every parameter; if one lacks a gradient of its shape, raise
        ContractViolation before changing anything."""
        for p in self.params:
            if p.grad is None or p.grad.shape != p.data.shape:
                raise ContractViolation(f"Adam: no gradient of shape {p.data.shape}")
        self.step_count += 1
        b1, b2, m, v, g, s = self.beta1, self.beta2, self._m, self._v, self._g, self._s
        np.concatenate([p.grad.reshape(-1) for p in self.params], out=g)
        m *= b1  # m = b1 m + (1 - b1) g
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2  # v = b2 v + (1 - b2) g g
        v += np.multiply(np.multiply(g, g, out=g), 1.0 - b2, out=g)
        # update = alpha m_hat / (sqrt(v_hat) + epsilon)
        np.sqrt(np.divide(v, 1.0 - b2 ** self.step_count, out=g), out=g)
        g += self.epsilon
        np.divide(m, 1.0 - b1 ** self.step_count, out=s)
        s *= self.alpha
        s /= g
        for p, update in zip(self.params, self._updates):
            p.data -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
