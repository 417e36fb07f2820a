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
logits with the keys on axis -2, the layout `unfold` and every conv use.
The differential halves are sub-heads: 2*heads sub-heads of c/2 channels
each (plain attention: one sub-head of c channels per head), so one
softmax over the keys serves both modes and `use_differential` only sets
the sub-head count. The local branch contracts the queries with unfold's
[B,sub-heads,c/2,k^2,HW] key columns over the channel axis, and the
weights with the value columns over the key axis; the global branch is
two matmuls with the pooled tokens. Each returns [B,heads,c,HW], which
reshapes straight to the [B,d,H,W] map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import Conv2d, GroupNorm, Linear, Module, adaptive_avg_pool2d, softmax, unfold
from .tensor import Tensor, contract

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


def _key_softmax(logits: Tensor, lam: Tensor | None, heads: int) -> Tensor:
    """Attention weights from [B,sub-heads,keys,HW] logits: softmax over the
    keys, then s1 - lam * s2 when each head has two sub-heads (the
    differential halves). Returns [B,heads,keys,HW]."""
    s = softmax(logits, axis=-2)
    if s.shape[1] == heads:
        return s
    return s[:, 0::2] - lam.reshape(1, heads, 1, 1) * s[:, 1::2]


def diff_softmax(q: Tensor, k: Tensor, v: Tensor, lam: Tensor) -> Tensor:
    """Differential softmax attention for q [h,n,c], k [h,m,c], v [h,m,cv],
    lam [h]; returns [h,n,cv]."""
    h, n, c = q.shape
    m = k.shape[1]
    if c % 2:
        raise ValueError(f"differential attention needs an even channel count, got {c}")
    c2 = c // 2
    ks = k.reshape(h, m, 2, c2).transpose(0, 2, 1, 3)            # [h,2,m,c/2]
    qs = q.reshape(h, n, 2, c2).transpose(0, 2, 3, 1)            # [h,2,c/2,n]
    logits = (ks @ qs).reshape(1, 2 * h, m, n) * (1.0 / c2 ** 0.5)
    attn = _key_softmax(logits, lam, h).reshape(h, m, n)
    return attn.transpose(0, 2, 1) @ v


def _neighborhood_mask(h: int, w: int, k: int) -> np.ndarray:
    """Validity of each of the k*k neighbors per pixel; [h*w, k*k] booleans."""
    inside = np.pad(np.ones((h, w), dtype=bool), k // 2)
    return sliding_window_view(inside, (k, k)).reshape(h * w, k * k)


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
        b, d, hh, ww = x.shape
        if d != self.cfg.channels:
            raise ValueError(f"expected {self.cfg.channels} channels, got {d}")
        q, k_map, v_map = self.wq(x), self.wk(x), self.wv(x)    # [B,d,H,W] each
        pe = self.pe_conv(v_map)

        if self.kind == "local":
            attn_map = self._local_attend(q, k_map, v_map)
        else:
            attn_map = self._global_attend(q, k_map, v_map)

        out = self.gn(attn_map.reshape(b, d, hh, ww)) * (1.0 - self.cfg.lambda_init) + pe
        return self.wo(out)

    def _local_attend(self, q, k_map, v_map):
        """Attention over each pixel's zero-padded k x k neighbourhood, read
        straight from unfold's [B,G,c*k^2,HW] columns; [B,heads,c,HW]."""
        cfg = self.cfg
        b, d, hh, ww = v_map.shape
        sub, kk, n = self.sub_heads, cfg.local_window, hh * ww
        cs = d // sub

        kn = unfold(k_map, kk, kk, 1, kk // 2, sub).reshape(b, sub, cs, kk * kk, n)
        logits = contract(q.reshape(b, sub, cs, 1, n), kn, axis=2) * (1.0 / cs ** 0.5)
        valid = _neighborhood_mask(hh, ww, kk).T
        mask_bias = Tensor(np.where(valid, 0.0, MASK_BIAS).astype(q.dtype))
        attn = _key_softmax(logits + mask_bias, self.lam, cfg.heads)   # [B,h,k^2,HW]

        vn = unfold(v_map, kk, kk, 1, kk // 2, cfg.heads).reshape(
            b, cfg.heads, cfg.head_dim, kk * kk, n)
        return contract(attn.reshape(b, cfg.heads, 1, kk * kk, n), vn, axis=3)

    def _global_attend(self, q, k_map, v_map):
        """Attention over the P x P pooled tokens; [B,heads,c,HW]."""
        cfg = self.cfg
        b, d, hh, ww = v_map.shape
        sub, pp, n = self.sub_heads, cfg.global_pool, hh * ww
        cs, m = d // sub, pp * pp

        kt = adaptive_avg_pool2d(k_map, pp, pp).reshape(b, sub, cs, m).transpose(0, 1, 3, 2)
        logits = (kt @ q.reshape(b, sub, cs, n)) * (1.0 / cs ** 0.5)   # [B,sub,P^2,HW]
        attn = _key_softmax(logits, self.lam, cfg.heads)
        vp = adaptive_avg_pool2d(v_map, pp, pp).reshape(b, cfg.heads, cfg.head_dim, m)
        return vp @ attn
