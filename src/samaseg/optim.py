"""AdamW with decoupled weight decay, and the one-cycle cosine schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


class AdamW:
    def __init__(self, named_params, lr: float = 5e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        if lr < 0:
            raise ValueError("lr must be >= 0")
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for i, (name, t) in enumerate(self.named_params):
            g = t.grad
            if g is None:
                g = np.zeros_like(t.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            # decoupled decay acts on the parameter directly
            t.data *= 1.0 - self.lr * self.weight_decay
            t.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(t.data.dtype)


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Single cosine decay from lr_max at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
