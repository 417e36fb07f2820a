"""Selective 1D state-space scan: input-dependent diagonal linear
recurrence with zero-order-hold discretization, linear in sequence length.

Per channel c and step t:

    delta_t = softplus(proj_delta(x_t))
    h_t     = exp(delta_t * A) * h_{t-1} + delta_t * B(x_t) * x_{t,c}
    y_{t,c} = <C(x_t), h_t> + D_c * x_{t,c}

with A = -exp(A_log) strictly negative and h_0 = 0. A `static` mode
freezes delta/B/C as learned input-independent parameters.

The recurrence h_t = dA_t * h_{t-1} + dBu_t, y_t = <C_t, h_t> over steps
t = 0..L-1 is one fused autodiff op, `selective_scan`. Its forward loops
over t in numpy and keeps every hidden state h_t. Its backward runs the
adjoint recurrence in reverse (Mamba, Gu & Dao 2023, section 3.3), with
gh_t the adjoint of h_t and gy_t that of y_t:

    gh_t    = gy_t * C_t + dA_{t+1} * gh_{t+1}     (no second term at t = L-1)
    g dBu_t = gh_t
    g dA_t  = gh_t * h_{t-1}                       (0 at t = 0)
    g C_t   = sum_c gy_{t,c} * h_{t,c}

Both directions take L steps over [B,C,N] slices, and the op adds one node
to the tape whatever L is.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module
from .profiler import record_macs
from .tensor import Tensor


class SelectiveSsm(Module):
    def __init__(self, channels: int, state_size: int, rng: np.random.Generator,
                 static: bool = False, dtype=np.float32):
        self.channels = channels
        self.state_size = state_size
        self.static = static
        # S4D-real style init: A = -(1..N) per channel
        a0 = np.log(np.arange(1, state_size + 1, dtype=np.float64))
        self.a_log = Tensor(np.tile(a0, (channels, 1)).astype(dtype), requires_grad=True)
        self.d_skip = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        if static:
            self.delta_p = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
            self.b_p = Tensor(np.full(state_size, 1.0, dtype=dtype), requires_grad=True)
            self.c_p = Tensor(np.full(state_size, 1.0, dtype=dtype), requires_grad=True)
        else:
            self.proj_delta = Linear(channels, channels, rng, dtype=dtype)
            self.proj_b = Linear(channels, state_size, rng, dtype=dtype)
            self.proj_c = Linear(channels, state_size, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        """x: [B,L,C] -> [B,L,C], causal left-to-right scan."""
        b, l, c = x.shape
        if l < 1:
            raise ValueError("selective scan requires a nonempty sequence")
        n = self.state_size

        if self.static:
            delta = self.delta_p.softplus().reshape(1, 1, c) * Tensor(np.ones((b, l, 1), dtype=x.dtype))
            bm = self.b_p.reshape(1, 1, n) * Tensor(np.ones((b, l, 1), dtype=x.dtype))
            cm = self.c_p.reshape(1, 1, n) * Tensor(np.ones((b, l, 1), dtype=x.dtype))
        else:
            delta = self.proj_delta(x).softplus()            # [B,L,C]
            bm = self.proj_b(x)                              # [B,L,N]
            cm = self.proj_c(x)                              # [B,L,N]

        a = -self.a_log.exp()                                # [C,N], strictly negative
        d_a = (delta.reshape(b, l, c, 1) * a.reshape(1, 1, c, n)).exp()
        d_bu = (delta * x).reshape(b, l, c, 1) * bm.reshape(b, l, 1, n)
        record_macs(3 * b * l * c * n)

        y = selective_scan(d_a, d_bu, cm)                   # [B,L,C]
        return y + self.d_skip.reshape(1, 1, c) * x


def selective_scan(d_a: Tensor, d_bu: Tensor, cm: Tensor) -> Tensor:
    """Fused scan h_t = d_a[:, t] * h_{t-1} + d_bu[:, t] (zero state before
    t = 0), y[:, t] = sum_n h_t * cm[:, t]; d_a, d_bu [B,L,C,N] and
    cm [B,L,N] give y [B,L,C]. The backward is the adjoint in the module
    docstring."""
    b, l, c, n = d_a.shape
    da, dbu, cmd = d_a.data, d_bu.data, cm.data
    hs = np.empty_like(dbu)                                  # every h_t, kept for backward
    hs[:, 0] = dbu[:, 0]
    for t in range(1, l):
        np.multiply(da[:, t], hs[:, t - 1], out=hs[:, t])
        hs[:, t] += dbu[:, t]
    y = (hs * cmd.reshape(b, l, 1, n)).sum(axis=3)

    def bwd(g):
        # gh_t starts as gy_t * C_t and collects dA_{t+1} * gh_{t+1} in reverse.
        gh = g.reshape(b, l, c, 1) * cmd.reshape(b, l, 1, n)
        for t in range(l - 2, -1, -1):
            gh[:, t] += da[:, t + 1] * gh[:, t + 1]
        if d_a.requires_grad:
            g_da = np.zeros_like(da)
            g_da[:, 1:] = gh[:, 1:] * hs[:, :-1]
            d_a._accumulate(g_da)
        if cm.requires_grad:
            cm._accumulate((g.reshape(b, l, c, 1) * hs).sum(axis=2))
        if d_bu.requires_grad:
            d_bu._accumulate(gh)

    return Tensor._op(y, (d_a, d_bu, cm), bwd)
