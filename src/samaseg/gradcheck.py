"""Central-difference gradient checking.

The oracle is independent of the autodiff path: it only re-runs the
forward function at perturbed inputs. All checks are meant to run at
float64; finite differences are unreliable at float32.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, no_grad

EPS = 1e-8
# Each entry's error is relative to at least this fraction of its tensor's
# largest analytic gradient entry. A central difference errs by about the
# same absolute amount on every entry of a tensor (roundoff u*|f|/h), so an
# entry far smaller than its tensor's others would fail on roundoff alone.
GRAD_FLOOR = 1e-3


def relative_error(analytic: float, numeric: float, floor: float = EPS) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def grad_check(f: Callable[[Sequence[Tensor]], Tensor],
               xs: Sequence[Tensor],
               h: float = 1e-5,
               max_elems_per_tensor: int | None = None,
               rng: np.random.Generator | None = None,
               zero_floor: float = EPS) -> float:
    """Max relative error between analytic gradients and central differences.

    `f` maps the given leaf tensors to a scalar Tensor and must be
    deterministic. When `max_elems_per_tensor` is set, a seeded random
    subset of elements is checked per tensor (used for large composites
    where exhaustive FD would be too slow). The denominator of each
    relative error is at least `GRAD_FLOOR` times the largest analytic
    entry of its tensor, and at least `zero_floor`, which composites raise
    for tensors whose gradient is zero throughout (e.g. by softmax shift
    invariance), where FD roundoff noise would otherwise dominate the ratio.
    """
    xs = list(xs)
    for x in xs:
        if x.dtype != np.float64:
            raise ValueError("grad_check requires float64 tensors")
        x.zero_grad()
    out = f(xs)
    if out.size != 1:
        raise ValueError(f"grad_check requires a scalar output, got shape {out.shape}")
    out.backward()
    analytic = [x.grad.copy() if x.grad is not None else np.zeros_like(x.data) for x in xs]

    max_err = 0.0
    with no_grad():                                  # FD evaluations need no graph
        for x, a in zip(xs, analytic):
            flat = x.data.reshape(-1)
            n = flat.size
            if max_elems_per_tensor is not None and n > max_elems_per_tensor:
                if rng is None:
                    rng = np.random.default_rng(0)
                idx = rng.choice(n, size=max_elems_per_tensor, replace=False)
            else:
                idx = range(n)
            a_flat = a.reshape(-1)
            floor = max(zero_floor, GRAD_FLOOR * float(np.abs(a_flat).max(initial=0.0)))
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f(xs).data.reshape(()))
                flat[i] = orig - h
                fm = float(f(xs).data.reshape(()))
                flat[i] = orig
                cd = (fp - fm) / (2.0 * h)
                max_err = max(max_err, relative_error(float(a_flat[i]), cd, floor))
    return max_err
