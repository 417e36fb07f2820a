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
time-major to [L,B,.] and runs over time blocks of T steps, each holding at
most `SCAN_BUDGET` elements per [T, B*C*N] array so that it stays in L2.
A block builds the zero-order-hold terms dA_t = exp(delta_t A) and dBu_t =
(delta_t x_t) B_t straight into two [T, B*C*N] buffers, so step t of the
recurrence h_t = dA_t h_{t-1} + dBu_t reads and writes contiguous rows;
the dBu buffer becomes h in place, starting from h of the last step of
the block before. The block's readout y_t = h_t @ C_t is one batched
matmul into y. The tape holds one node, which keeps its parents and h of
each block's last step, one [B*C*N] row per block, but no time-major copy
and no [L,B,C,N] array; under `no_grad()` only the carried row and y
outlive a block.

Its backward copies its inputs time-major again, then walks the blocks in
reverse. It rebuilds each block's dA and h from the h kept at the end of
the block before, with the same float operations in the same order, so
the states are those of the forward bit for bit; Mamba recomputes its
states in the backward the same way (Gu & Dao 2023, section 3.3.2), the
checkpoint-and-recompute trade of Chen et al. 2016. On a block it runs
the adjoint recurrence (Mamba, section 3.3) over the rows in reverse,
carrying gh and dA of the next block's first step across the block's
end, with gh_t the adjoint of h_t and gy_t that of y_t:

    gh_t    = gy_t C_t + dA_{t+1} gh_{t+1}         (no second term at t = L-1)
    gz_t    = gh_t h_{t-1} dA_t                    (adjoint of delta_t A; 0 at t = 0)
    g C_t   = sum_c gy_{t,c} h_{t,c}
    g B_t   = sum_c gh_{t,c} delta_{t,c} x_{t,c}
    g x_t   = delta_t sum_n gh_t B_t
    g delta = gz A summed over n, plus x sum_n gh_t B_t
    g A     = sum over b, t of gz delta

Each block writes its rows of gC, gB, g(delta x) and gz into full-length
buffers; the sums over t for gA and g delta then run once over all of gz,
so every gradient has the bits of an unblocked scan. The forward takes L
Python steps and the backward 2L, and the op adds one node to the tape
whatever L is.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module
from .profiler import record_macs
from .tensor import Tensor, _unbroadcast, is_recording


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


SCAN_BUDGET = 2 ** 16
"""Most elements of one time block of the scan, [T, B*C*N]: 256 KiB in
float32, so a block's exp(delta A), h and adjoint stay in a 2 MiB L2."""


def _scan_block(dt: np.ndarray, dtx: np.ndarray, bt: np.ndarray, a: np.ndarray, steps: int,
                prev: np.ndarray | None, step: np.ndarray):
    """exp(delta A) and h of one time block, as [steps, B*C*N] rows, plus h
    as [steps*B, C, N]; dt, dtx and bt hold the block's [steps*B, .] rows
    and prev is h of the step before it (None at t = 0). h is built in
    place in the (delta x) B buffer, h_t = dA_t h_{t-1} + dBu_t, with `step`
    as scratch, so the backward rebuilds a block bit for bit."""
    d_a = np.einsum("ic,cn->icn", dt, a)
    np.exp(d_a, out=d_a)
    hs = np.einsum("ic,in->icn", dtx, bt)
    da_rows, h_rows = d_a.reshape(steps, -1), hs.reshape(steps, -1)
    if prev is not None:
        np.add(h_rows[0], np.multiply(da_rows[0], prev, out=step), out=h_rows[0])
    for h_prev, row, da in zip(h_rows, h_rows[1:], da_rows[1:]):
        np.add(row, np.multiply(da, h_prev, out=step), out=row)
    return da_rows, h_rows, hs


def selective_scan(delta: Tensor, x: Tensor, a: Tensor, bm: Tensor, cm: Tensor) -> Tensor:
    """Fused zero-order-hold scan: h_t = exp(delta_t A) h_{t-1} + delta_t x_t B_t
    (zero state before t = 0), y_t = h_t @ C_t. delta and x [B,L,C], A [C,N],
    bm and cm [B,L,N] give y [B,L,C]; delta, bm and cm may also be plain
    [C] or [N] vectors, one value for every batch entry and step. It runs
    over time blocks of at most `SCAN_BUDGET` state elements, carrying h
    from each block into the next; the node keeps h of each block's last
    step, and the backward, the adjoint in the module docstring, copies
    the inputs time-major again and rebuilds each block from the one
    before."""
    b, l, c = x.shape
    n = a.shape[1]
    record_macs(3 * b * l * c * n)

    def time_major():   # delta, x, B, C and delta x as [L*B,.] rows, i = t*B + b
        dt, xt, bt, ct = (_swap_bl(np.broadcast_to(v.data, (b, l, v.shape[-1]))).reshape(l * b, -1)
                          for v in (delta, x, bm, cm))
        return dt, xt, bt, ct, dt * xt

    dt, xt, bt, ct, dtx = time_major()
    dtype = np.result_type(dtx, bt, ct, a.data)
    span = max(1, SCAN_BUDGET // (b * c * n))                # steps per block
    blocks = [(s, min(s + span, l)) for s in range(0, l, span)]
    keep = is_recording() and any(v.requires_grad for v in (delta, x, a, bm, cm))
    step = np.empty(b * c * n, dtype=dtype)
    y = np.empty((l * b, c, 1), dtype=dtype)
    ends, h = [], None                                       # h at each block's last step
    for s, e in blocks:
        r = slice(s * b, e * b)
        _, h_rows, hs = _scan_block(dt[r], dtx[r], bt[r], a.data, e - s, h, step)
        np.matmul(hs, ct[r, :, None], out=y[r])
        h = h_rows[-1].copy()
        if keep:
            ends.append(h)

    def give(t, rows):   # [L*B,.] rows -> t's gradient, summed down to t's shape
        t._accumulate(_unbroadcast(_swap_bl(rows.reshape(l, b, -1)), t.shape), owned=True)

    def bwd(g):
        dt, xt, bt, ct, dtx = time_major()
        gy = _swap_bl(g).reshape(l * b, c)
        gdtx = np.empty((l * b, c, 1), dtype=dtype)
        gc = np.empty((l * b, 1, n), dtype=dtype) if cm.requires_grad else None
        gb = np.empty((l * b, 1, n), dtype=dtype) if bm.requires_grad else None
        gz = np.empty((l, b * c * n), dtype=dtype) if delta.requires_grad or a.requires_grad else None
        gh_next = da_next = None                             # gh and dA of the next block's first step
        for k in range(len(blocks) - 1, -1, -1):
            (s, e), prev = blocks[k], ends[k - 1] if k else None
            r = slice(s * b, e * b)
            da_rows, h_rows, hs = _scan_block(dt[r], dtx[r], bt[r], a.data, e - s, prev, step)
            if gc is not None:
                np.matmul(gy[r, None, :], hs, out=gc[r])
            gh = np.einsum("ic,in->icn", gy[r], ct[r])      # gy_t C_t, then the adjoint
            gh_rows = gh.reshape(e - s, -1)
            if gh_next is not None:
                np.add(gh_rows[-1], np.multiply(da_next, gh_next, out=step), out=gh_rows[-1])
            for row, gh_after, da_after in zip(gh_rows[-2::-1], gh_rows[:0:-1], da_rows[:0:-1]):
                np.add(row, np.multiply(da_after, gh_after, out=step), out=row)
            np.matmul(gh, bt[r, :, None], out=gdtx[r])
            if gb is not None:
                np.matmul(dtx[r, None, :], gh, out=gb[r])
            if gz is not None:
                gz_rows = gz[s:e]
                np.multiply(gh_rows[1:], h_rows[:-1], out=gz_rows[1:])
                if prev is None:
                    gz_rows[0] = 0
                else:
                    np.multiply(gh_rows[0], prev, out=gz_rows[0])
                gz_rows *= da_rows
            gh_next, da_next = gh_rows[0].copy(), da_rows[0].copy()
        gdtx = gdtx.reshape(l * b, c)
        if gc is not None:
            give(cm, gc)
        if gb is not None:
            give(bm, gb)
        if x.requires_grad:
            give(x, gdtx * dt)
        if gz is not None:
            gz = gz.reshape(l * b, c, n)
            if a.requires_grad:
                a._accumulate(np.einsum("icn,ic->cn", gz, dt), owned=True)
            if delta.requires_grad:
                give(delta, np.einsum("icn,cn->ic", gz, a.data) + gdtx * xt)

    return Tensor._op(_swap_bl(y.reshape(l, b, c)), (delta, x, a, bm, cm), bwd)
