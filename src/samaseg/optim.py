"""AdamW with decoupled weight decay, and the one-cycle cosine schedule.

`AdamW` packs its parameters into runs: consecutive same-dtype tensors of
at most `RUN` scalars in total, where a larger tensor is a run of its own.
The constructor copies each run into one flat array and rebinds every
parameter's `data` to its view of that array, so a step is a dozen
whole-run numpy calls per run, not a dozen per tensor. Code that later
writes a parameter must write into `t.data` in place (as
`io.load_checkpoint` does); rebinding it would detach the weight from the
optimizer.

`step` consumes the gradients it applies: once a run's gradients are
gathered, each `t.grad` is set to None. A training loop therefore clears
the gradients once before its first step and never again.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

# Scalars per run. m, v, the parameters and two temporaries of 256 KiB each
# (float32) fit a 2 MiB L2 together, so every pass over a run stays in cache.
RUN = 1 << 16


class _Run:
    """Consecutive same-dtype parameters sharing one flat array `p`, with
    their moments `m` and `v` laid out alike."""

    def __init__(self, named: list[tuple[str, Tensor]]):
        self.names = [n for n, _ in named]
        self.tensors = [t for _, t in named]
        self.p = np.concatenate([t.data.ravel() for t in self.tensors])
        self.m = np.zeros_like(self.p)
        self.v = np.zeros_like(self.p)
        self.bounds = []
        start = 0
        for t in self.tensors:
            end = start + t.size
            t.data = self.p[start:end].reshape(t.shape)
            self.bounds.append((start, end))
            start = end

    def gather(self) -> np.ndarray:
        """The run's gradients as one fresh flat array; a missing one is zero."""
        return np.concatenate([np.zeros(t.size, self.p.dtype) if t.grad is None
                               else t.grad.ravel() for t in self.tensors],
                              dtype=self.p.dtype)

    def non_finite(self, g: np.ndarray) -> str:
        """Name of the first parameter whose slice of `g` is not all finite."""
        return next(n for n, (a, b) in zip(self.names, self.bounds)
                    if not np.isfinite(g[a:b]).all())


def _pack(named_params: list[tuple[str, Tensor]]) -> list[_Run]:
    groups: list[list[tuple[str, Tensor]]] = []
    for name, t in named_params:
        if not groups or t.dtype != dtype or size + t.size > RUN:
            groups.append([])
            dtype, size = t.dtype, 0
        groups[-1].append((name, t))
        size += t.size
    return [_Run(g) for g in groups]


class AdamW:
    def __init__(self, named_params, lr: float = 5e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        if lr < 0:
            raise ValueError("lr must be >= 0")
        self.named_params = list(named_params)
        seen = set()
        for name, t in self.named_params:
            if id(t) in seen:
                raise ValueError(f"parameter '{name}' is listed twice")
            seen.add(id(t))
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.runs = _pack(self.named_params)

    def step(self):
        self.step_count += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        decay = 1.0 - lr * self.weight_decay
        for run in self.runs:
            g = run.gather()
            if not np.isfinite(g).all():
                raise FloatingPointError(
                    f"non-finite gradient for parameter '{run.non_finite(g)}'")
            for t in run.tensors:
                t.grad = None
            m, v, p = run.m, run.v, run.p
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, 1.0 - b2, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            # g now holds the denominator sqrt(v_hat) + eps, tmp lr * m_hat
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, bc1, out=tmp)
            tmp *= lr
            tmp /= g
            # decoupled decay acts on the parameter directly
            p *= decay
            p -= tmp


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Single cosine decay from lr_max at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
