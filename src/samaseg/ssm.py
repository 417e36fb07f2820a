"""Selective 1D state-space scan: input-dependent diagonal linear
recurrence with zero-order-hold discretization, linear in sequence length.

Per channel c and step t:

    delta_t = softplus(proj_delta(x_t))
    h_t     = exp(delta_t * A) * h_{t-1} + delta_t * B(x_t) * x_{t,c}
    y_{t,c} = <C(x_t), h_t> + D_c * x_{t,c}

with A = -exp(A_log) strictly negative and h_0 = 0. A `static` mode
freezes delta/B/C as learned input-independent parameters.

Discretization, recurrence and readout are one autodiff op,
`selective_scan(delta, x, A, B, C) -> y`, with delta and x [B,L,C], A [C,N],
B and C [B,L,N], and y [B,L,C]. The op copies its small [B,L,.] inputs
time-major to [L,B,.] and builds the zero-order-hold terms
dA_t = exp(delta_t A) and dBu_t = (delta_t x_t) B_t straight into two
[L, B*C*N] buffers, so step t of the recurrence h_t = dA_t h_{t-1} + dBu_t
reads and writes contiguous rows; the dBu buffer becomes h in place. The
readout y_t = h_t @ C_t is one batched matmul. The tape holds one node;
of the [L,B,C,N] arrays it keeps only h and dA, next to its small inputs.

Its backward runs the adjoint recurrence (Mamba, Gu & Dao 2023, section
3.3) over the same rows in reverse, with gh_t the adjoint of h_t and gy_t
that of y_t:

    gh_t    = gy_t C_t + dA_{t+1} gh_{t+1}         (no second term at t = L-1)
    gz_t    = gh_t h_{t-1} dA_t                    (adjoint of delta_t A; 0 at t = 0)
    g C_t   = sum_c gy_{t,c} h_{t,c}
    g B_t   = sum_c gh_{t,c} delta_{t,c} x_{t,c}
    g x_t   = delta_t sum_n gh_t B_t
    g delta = gz A summed over n, plus x sum_n gh_t B_t
    g A     = sum over b, t of gz delta

Both directions take L Python steps, and the op adds one node to the tape
whatever L is.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module
from .profiler import record_macs
from .tensor import Tensor, _unbroadcast


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
        if x.shape[1] < 1:
            raise ValueError("selective scan requires a nonempty sequence")

        if self.static:   # one value per channel or state, broadcast by the scan
            delta = self.delta_p.softplus()                          # [C]
            bm, cm = self.b_p, self.c_p                              # [N]
        else:
            delta = _project_tokens(self.proj_delta, x).softplus()   # [B,L,C]
            bm = _project_tokens(self.proj_b, x)                     # [B,L,N]
            cm = _project_tokens(self.proj_c, x)                     # [B,L,N]

        a = -self.a_log.exp()                                # [C,N], strictly negative
        y = selective_scan(delta, x, a, bm, cm)              # [B,L,C]
        return y + self.d_skip * x


def _project_tokens(lin: Linear, tokens: Tensor) -> Tensor:
    """`lin` over the last axis of [B,L,C] tokens, x @ W^T + b.

    Every other layer is channel-major, but the scan keeps its token input:
    `selective_scan` and perfbench's 4x-length probe index the sequence on
    axis 1, so moving the scan to [B,C,L] waits for a probe that lengthens
    the last axis. CR-MSM's `to_views` gathers each view straight into tokens.
    """
    return tokens @ lin.weight.transpose(1, 0) + lin.bias


def _swap_bl(arr: np.ndarray) -> np.ndarray:
    """Contiguous copy with the first two axes swapped: [B,L,...] <-> [L,B,...]."""
    return np.ascontiguousarray(arr.swapaxes(0, 1))


def selective_scan(delta: Tensor, x: Tensor, a: Tensor, bm: Tensor, cm: Tensor) -> Tensor:
    """Fused zero-order-hold scan: h_t = exp(delta_t A) h_{t-1} + delta_t x_t B_t
    (zero state before t = 0), y_t = h_t @ C_t. delta and x [B,L,C], A [C,N],
    bm and cm [B,L,N] give y [B,L,C]; delta, bm and cm may also be plain
    [C] or [N] vectors, one value for every batch entry and step. The
    backward is the adjoint in the module docstring."""
    b, l, c = x.shape
    n = a.shape[1]
    record_macs(3 * b * l * c * n)
    # time-major with (t, b) flattened to one row index i = t*B + b
    dt, xt, bt, ct = (_swap_bl(np.broadcast_to(v.data, (b, l, v.shape[-1]))).reshape(l * b, -1)
                      for v in (delta, x, bm, cm))
    dtx = dt * xt                                            # [LB,C]
    d_a = np.exp(np.einsum("ic,cn->icn", dt, a.data))        # [LB,C,N]
    hs = np.einsum("ic,in->icn", dtx, bt)                    # dBu, turned into h in place
    da_rows, h_rows = d_a.reshape(l, -1), hs.reshape(l, -1)  # [L, B*C*N]
    step = np.empty_like(h_rows[0])
    for t in range(1, l):
        row = h_rows[t]
        np.add(row, np.multiply(da_rows[t], h_rows[t - 1], out=step), out=row)
    y = (hs @ ct[:, :, None]).reshape(l, b, c)

    def give(t, rows):   # [L*B,.] rows -> t's gradient, summed down to t's shape
        t._accumulate(_unbroadcast(_swap_bl(rows.reshape(l, b, -1)), t.shape), owned=True)

    def bwd(g):
        gy = _swap_bl(g).reshape(l * b, c)
        if cm.requires_grad:
            give(cm, gy[:, None, :] @ hs)
        gh = np.einsum("ic,in->icn", gy, ct)                 # gy_t C_t, then the adjoint
        gh_rows = gh.reshape(l, -1)
        for t in range(l - 2, -1, -1):
            row = gh_rows[t]
            np.add(row, np.multiply(da_rows[t + 1], gh_rows[t + 1], out=step), out=row)
        gdtx = (gh @ bt[:, :, None]).reshape(l * b, c)
        if bm.requires_grad:
            give(bm, dtx[:, None, :] @ gh)
        if x.requires_grad:
            give(x, gdtx * dt)
        if delta.requires_grad or a.requires_grad:
            gz = gh_rows                                     # gh is spent; gz reuses it
            gz[1:] *= h_rows[:-1]
            gz[0] = 0
            gz *= da_rows
            gz = gz.reshape(l * b, c, n)
            if a.requires_grad:
                a._accumulate(np.einsum("icn,ic->cn", gz, dt), owned=True)
            if delta.requires_grad:
                give(delta, np.einsum("icn,cn->ic", gz, a.data) + gdtx * xt)

    return Tensor._op(_swap_bl(y), (delta, x, a, bm, cm), bwd)
