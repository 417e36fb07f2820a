"""Differential aggregated attention: pixel-focused attention with a
local-neighborhood branch and a pooled global branch.

Each branch computes differential softmax attention: queries and keys are
split channel-wise into two halves, two softmax maps are formed, and their
lambda-weighted difference attends over the values. The result is group
normalized per head, rescaled by (1 - lambda_init), and combined with a
depthwise-conv positional term of the value map. Both branches cost a
constant number of key tokens per query (k^2 neighbors, resp. P^2 pooled
tokens), so the mechanism is linear in pixel count.

Both branches work in one channel-major layout, [B, sub-heads, keys, HW]
logits with the keys on axis -2, the layout im2col and every conv use.
The differential halves are sub-heads: 2*heads sub-heads of c/2 channels
each (plain attention: one sub-head of c channels per head), so one
softmax over the keys serves both modes and `use_differential` only sets
the sub-head count.

Each branch's core is one autodiff op with a hand-written backward, so
the tape holds one node per core instead of a chain of contractions,
masks, slices and products. The local core contracts the queries with
im2col's [B,sub-heads,c/2,k^2,HW] key columns over the channel axis, adds
a cached out-of-bounds mask, and contracts the weights with the value
columns over the key axis; its backward runs col2im on the column
gradients. The global core is `_attend_tokens`, two batched matmuls
around the key softmax on the pooled key and value maps; the pooling
stays a separate op. Both cores share `_diff_weights` (softmax over the
keys, then s1 - lam * s2) and its adjoint `_diff_weights_grad`, and
repeat in order the float operations of the composite
unfold/contract/softmax chains that the tests keep as oracles, so values
and gradients match those chains bit for bit. Each returns its
[B,heads,c,HW] result as the [B,d,H,W] map, so the group norm reads it
with no reshape node.

Each core's node keeps its parents and the key softmax s, and nothing
else of the size of a map: the backward rebuilds the weights from s with
`_weights`, and the local core's key and value columns from its maps
with `_im2col`, by the forward's own calls, so they carry its bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import Conv2d, GroupNorm, Linear, Module, _col2im, _im2col, adaptive_avg_pool2d
from .profiler import record_macs
from .tensor import Tensor

MASK_BIAS = -1e30  # exp underflows to exactly 0, so padded keys never contribute


@dataclass
class AttnConfig:
    channels: int            # per-branch channels after the split
    heads: int = 4
    local_window: int = 3
    global_pool: int = 7
    lambda_init: float = 0.8
    use_differential: bool = True

    def __post_init__(self):
        if self.channels % self.heads:
            raise ValueError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.use_differential and (self.channels // self.heads) % 2:
            raise ValueError("per-head channels must be even for the differential split")
        if self.local_window % 2 == 0:
            raise ValueError("local window must be odd")
        if self.global_pool < 1:
            raise ValueError("global pool size must be >= 1")
        if not 0.0 < self.lambda_init < 1.0:
            raise ValueError("lambda_init must lie in (0, 1)")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


def _diff_weights(logits: np.ndarray, lam: Tensor | None, heads: int):
    """Softmax of [B,sub-heads,keys,HW] logits over the keys (axis -2),
    then `_weights` of it. Overwrites `logits` with the softmax s and
    returns the weights and s, which the adjoint needs."""
    s = logits
    s -= s.max(axis=-2, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-2, keepdims=True)
    return _weights(s, lam, heads), s


def _weights(s: np.ndarray, lam: Tensor | None, heads: int) -> np.ndarray:
    """The [B,heads,keys,HW] weights of the key softmax s: s1 - lam * s2
    when each head has two sub-heads (the differential halves), s itself
    in plain mode (lam is None). A backward calls it again on the kept s,
    so it rebuilds the forward's weights bit for bit."""
    if lam is None:
        return s
    w = lam.data.reshape(1, heads, 1, 1) * s[:, 1::2]
    np.subtract(s[:, 0::2], w, out=w)
    return w


def _diff_weights_grad(g: np.ndarray, s: np.ndarray, lam: Tensor | None, heads: int):
    """Adjoint of `_diff_weights` for the weights' gradient g: the logits'
    gradient s * (g_s - sum(g_s * s)), where g_s is g on the first halves
    and -lam * g on the second, and lam's gradient (None in plain mode or
    when lam needs none). A masked key's weight is exactly 0, so its logit
    gets exactly 0 back."""
    glam = None
    if lam is not None:
        if lam.requires_grad:
            glam = -(g * s[:, 1::2]).sum(axis=(0, 2, 3))
        gs = np.zeros_like(s)
        gs[:, 0::2] += g
        gs[:, 1::2] -= g * lam.data.reshape(1, heads, 1, 1)
        g = gs
    gx = g * s
    gx -= s * gx.sum(axis=-2, keepdims=True)
    return gx, glam


def _attend_tokens(q: Tensor, k: Tensor, v: Tensor, lam: Tensor, sub: int, heads: int) -> Tensor:
    """Differential attention of N queries over M key tokens as one op, two
    batched matmuls around the key softmax. The inputs are channel-major,
    batch on axis 0, channels on axis 1 and positions flattened: q reads as
    [B,sub,cs,N], k as [B,sub,cs,M] and v as [B,heads,cv,M]. lam weights
    the second half of each head when sub = 2 * heads and is no parent
    otherwise. Returns q's shape with v's channel count, [B,heads*cv,...]."""
    b, dq, dv = q.shape[0], q.shape[1], v.shape[1]
    cs, cv, n, m = dq // sub, dv // heads, q.size // (b * dq), k.size // (b * dq)
    if sub == heads:
        lam = None
    scale = q.dtype.type(1.0 / cs ** 0.5)

    kt = np.ascontiguousarray(k.data.reshape(b, sub, cs, m).transpose(0, 1, 3, 2))
    qs = q.data.reshape(b, sub, cs, n)
    logits = np.matmul(kt, qs)                                       # [B,sub,M,N]
    logits *= scale
    w, s = _diff_weights(logits, lam, heads)
    vp = v.data.reshape(b, heads, cv, m)
    out = np.matmul(vp, w)                                           # [B,h,cv,N]
    record_macs(b * (dq + dv) * m * n)

    def bwd(g):
        g = g.reshape(b, heads, cv, n)
        if v.requires_grad:
            w = _weights(s, lam, heads)
            v._accumulate(np.matmul(g, w.swapaxes(-1, -2)).reshape(v.shape), owned=True)
            del w
        gw = np.matmul(vp.swapaxes(-1, -2), g)
        glogits, glam = _diff_weights_grad(gw, s, lam, heads)
        glogits *= scale
        if k.requires_grad:
            gkt = np.matmul(glogits, qs.swapaxes(-1, -2))            # [B,sub,M,cs]
            k._accumulate(np.ascontiguousarray(gkt.transpose(0, 1, 3, 2)).reshape(k.shape),
                          owned=True)
        if q.requires_grad:
            q._accumulate(np.matmul(kt.swapaxes(-1, -2), glogits).reshape(q.shape), owned=True)
        if glam is not None:
            lam._accumulate(glam, owned=True)

    return Tensor._op(out.reshape(b, dv, *q.shape[2:]),
                      (q, k, v) if lam is None else (q, k, v, lam), bwd)


def _neighborhood_mask(h: int, w: int, k: int) -> np.ndarray:
    """Validity of each of the k*k neighbors per pixel; [h*w, k*k] booleans."""
    inside = np.pad(np.ones((h, w), dtype=bool), k // 2)
    return sliding_window_view(inside, (k, k)).reshape(h * w, k * k)


@functools.lru_cache(maxsize=64)
def _mask_bias(h: int, w: int, k: int, dtype: np.dtype) -> np.ndarray:
    """Read-only [k*k, h*w] logit bias: 0 at in-bounds neighbours,
    MASK_BIAS at zero-padded ones."""
    bias = np.where(_neighborhood_mask(h, w, k).T, 0.0, MASK_BIAS).astype(dtype)
    bias.setflags(write=False)
    return bias


class DiffAggAttention(Module):
    """One branch (local or global) of the aggregated attention."""

    def __init__(self, cfg: AttnConfig, kind: str, rng: np.random.Generator, dtype=np.float32):
        if kind not in ("local", "global"):
            raise ValueError(f"unknown branch kind {kind!r}")
        d = cfg.channels
        self.cfg = cfg
        self.kind = kind
        self.wq = Linear(d, d, rng, dtype=dtype)
        self.wk = Linear(d, d, rng, dtype=dtype)
        self.wv = Linear(d, d, rng, dtype=dtype)
        self.wo = Linear(d, d, rng, dtype=dtype)
        self.lam = Tensor(np.full(cfg.heads, cfg.lambda_init, dtype=dtype), requires_grad=True)
        self.pe_conv = Conv2d(d, d, 3, rng, stride=1, padding=1, groups=d, dtype=dtype)
        self.gn = GroupNorm(d, num_groups=cfg.heads, dtype=dtype)
        self.sub_heads = cfg.heads * 2 if cfg.use_differential else cfg.heads

    def __call__(self, x: Tensor) -> Tensor:
        d = x.shape[1]
        if d != self.cfg.channels:
            raise ValueError(f"expected {self.cfg.channels} channels, got {d}")
        q, k_map, v_map = self.wq(x), self.wk(x), self.wv(x)    # [B,d,H,W] each
        pe = self.pe_conv(v_map)

        if self.kind == "local":
            attn_map = self._local_attend(q, k_map, v_map)
        else:
            attn_map = self._global_attend(q, k_map, v_map)

        out = self.gn(attn_map) * (1.0 - self.cfg.lambda_init) + pe
        return self.wo(out)

    def _local_attend(self, q: Tensor, k_map: Tensor, v_map: Tensor) -> Tensor:
        """Attention over each pixel's zero-padded k x k neighbourhood as one
        op, read straight from im2col's [B,G,c*k^2,HW] columns of the key and
        value maps; returns the [B,d,H,W] map. The node keeps the key
        softmax s and no columns: the backward builds each map's columns
        again with `_im2col`, and the weights from s, and runs col2im on
        the column gradients."""
        cfg = self.cfg
        b, d, hh, ww = v_map.shape
        heads, sub, kk, n = cfg.heads, self.sub_heads, cfg.local_window, hh * ww
        cs, pad = d // sub, kk // 2
        lam = self.lam if sub != heads else None
        scale = q.dtype.type(1.0 / cs ** 0.5)
        qs = q.data.reshape(b, sub, cs, 1, n)

        def columns(t, groups):   # [B,groups,c,k^2,HW] neighbourhoods of t's map
            return _im2col(t.data, kk, kk, 1, pad).reshape(b, groups, -1, kk * kk, n)

        logits = (qs * columns(k_map, sub)).sum(axis=2)              # [B,sub,k^2,HW]
        logits *= scale
        logits += _mask_bias(hh, ww, kk, q.dtype)
        w, s = _diff_weights(logits, lam, heads)
        out = (w.reshape(b, heads, 1, kk * kk, n) * columns(v_map, heads)).sum(axis=3)  # [B,h,c,HW]
        record_macs(2 * b * d * kk * kk * n)

        def bwd(g):
            ge = g.reshape(b, heads, cfg.head_dim, 1, n)
            if v_map.requires_grad:
                wr = _weights(s, lam, heads).reshape(b, heads, 1, kk * kk, n)
                gv = (ge * wr).reshape(b, d, kk, kk, hh, ww)
                v_map._accumulate(_col2im(gv, hh, ww, 1, pad), owned=True)
                del wr, gv
            gw = (ge * columns(v_map, heads)).sum(axis=2)
            glogits, glam = _diff_weights_grad(gw, s, lam, heads)
            glogits *= scale
            gl = np.expand_dims(glogits, 2)
            if q.requires_grad:
                q._accumulate((gl * columns(k_map, sub)).sum(axis=3).reshape(q.shape), owned=True)
            if k_map.requires_grad:
                gk = (gl * qs).reshape(b, d, kk, kk, hh, ww)
                k_map._accumulate(_col2im(gk, hh, ww, 1, pad), owned=True)
            if glam is not None:
                lam._accumulate(glam, owned=True)

        parents = (q, k_map, v_map) if lam is None else (q, k_map, v_map, lam)
        return Tensor._op(out.reshape(b, d, hh, ww), parents, bwd)

    def _global_attend(self, q: Tensor, k_map: Tensor, v_map: Tensor) -> Tensor:
        """Attention over the P x P pooled tokens of the key and value maps;
        returns the [B,d,H,W] map."""
        pp = self.cfg.global_pool
        pk = adaptive_avg_pool2d(k_map, pp, pp)
        pv = adaptive_avg_pool2d(v_map, pp, pp)
        return _attend_tokens(q, pk, pv, self.lam, self.sub_heads, self.cfg.heads)
