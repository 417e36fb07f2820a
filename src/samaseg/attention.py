"""Differential aggregated attention: pixel-focused attention with a
local-neighborhood branch and a pooled global branch.

Each branch computes differential softmax attention: queries and keys are
split channel-wise into two halves, two softmax maps are formed, and their
lambda-weighted difference attends over the values. The result is group
normalized per head, rescaled by (1 - lambda_init), and combined with a
depthwise-conv positional term of the value map. Both branches cost a
constant number of key tokens per query (k^2 neighbors, resp. P^2 pooled
tokens), so the mechanism is linear in pixel count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import Conv2d, GroupNorm, Linear, Module, adaptive_avg_pool2d, softmax_lastdim, unfold
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


def _attend(q: Tensor, kt: Tensor, v: Tensor, lam: Tensor | None,
            use_differential: bool, mask_bias: Tensor | None = None) -> Tensor:
    """Core attention: q [...,n,c], kt [...,c,m], v [...,m,cv].

    With `use_differential`, q/k are split into channel halves, each scaled
    by 1/sqrt(c/2), and the attention map is softmax1 - lam * softmax2.
    `mask_bias` (broadcastable to the logits) carries MASK_BIAS at invalid
    key positions.
    """
    c = q.shape[-1]
    if use_differential:
        if c % 2:
            raise ValueError(f"differential attention needs an even channel count, got {c}")
        c2 = c // 2
        scale = 1.0 / (c2 ** 0.5)
        l1 = (q[..., :c2] @ kt[..., :c2, :]) * scale
        l2 = (q[..., c2:] @ kt[..., c2:, :]) * scale
        if mask_bias is not None:
            l1 = l1 + mask_bias
            l2 = l2 + mask_bias
        attn = softmax_lastdim(l1) - lam * softmax_lastdim(l2)
    else:
        logits = (q @ kt) * (1.0 / (c ** 0.5))
        if mask_bias is not None:
            logits = logits + mask_bias
        attn = softmax_lastdim(logits)
    return attn @ v


def diff_softmax(q: Tensor, k: Tensor, v: Tensor, lam: Tensor) -> Tensor:
    """Differential softmax attention for q [h,n,c], k [h,m,c], v [h,m,cv],
    lam [h]; returns [h,n,cv]."""
    h = q.shape[0]
    return _attend(q, k.transpose(0, 2, 1), v, lam.reshape(h, 1, 1), use_differential=True)


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

    def __call__(self, x: Tensor) -> Tensor:
        b, d, hh, ww = x.shape
        if d != self.cfg.channels:
            raise ValueError(f"expected {self.cfg.channels} channels, got {d}")
        heads, c = self.cfg.heads, self.cfg.head_dim
        n = hh * ww

        tokens = x.reshape(b, d, n).transpose(0, 2, 1)
        q = self.wq(tokens)
        k = self.wk(tokens)
        v = self.wv(tokens)
        v_map = v.transpose(0, 2, 1).reshape(b, d, hh, ww)
        pe = self.pe_conv(v_map)

        if self.kind == "local":
            attn_map = self._local_attend(q, k, v_map, b, hh, ww)
        else:
            attn_map = self._global_attend(q, k, v_map, b, hh, ww)

        out = self.gn(attn_map) * (1.0 - self.cfg.lambda_init) + pe
        out_tokens = self.wo(out.reshape(b, d, n).transpose(0, 2, 1))
        return out_tokens.transpose(0, 2, 1).reshape(b, d, hh, ww)

    def _heads(self, tokens: Tensor, b: int, n: int) -> Tensor:
        return tokens.reshape(b, n, self.cfg.heads, self.cfg.head_dim).transpose(0, 2, 1, 3)

    def _local_attend(self, q, k, v_map, b, hh, ww):
        cfg = self.cfg
        heads, c, kk = cfg.heads, cfg.head_dim, cfg.local_window
        d, n = cfg.channels, hh * ww

        k_map = k.transpose(0, 2, 1).reshape(b, d, hh, ww)
        kn = self._gather_neighbors(k_map, b, hh, ww).transpose(0, 1, 4, 2, 3)  # [B,h,HW,c,k^2]
        vn = self._gather_neighbors(v_map, b, hh, ww).transpose(0, 1, 4, 3, 2)  # [B,h,HW,k^2,c]
        q5 = self._heads(q, b, n).reshape(b, heads, n, 1, c)

        valid = _neighborhood_mask(hh, ww, kk)
        bias = np.where(valid, 0.0, MASK_BIAS).astype(q.data.dtype)
        mask_bias = Tensor(bias.reshape(1, 1, n, 1, kk * kk))

        out = _attend(q5, kn, vn, self.lam.reshape(1, heads, 1, 1, 1),
                      cfg.use_differential, mask_bias)          # [B,h,HW,1,c]
        return out.reshape(b, heads, n, c).transpose(0, 1, 3, 2).reshape(b, d, hh, ww)

    def _gather_neighbors(self, x_map: Tensor, b, hh, ww) -> Tensor:
        """[B,d,H,W] -> [B,heads,c,k^2,HW] of zero-padded k x k neighborhoods."""
        cfg = self.cfg
        kk = cfg.local_window
        return unfold(x_map, kk, kk, 1, kk // 2, cfg.heads).reshape(
            b, cfg.heads, cfg.head_dim, kk * kk, hh * ww)

    def _global_attend(self, q, k, v_map, b, hh, ww):
        cfg = self.cfg
        heads, c, d = cfg.heads, cfg.head_dim, cfg.channels
        n = hh * ww
        pp = cfg.global_pool
        m = pp * pp

        k_map = k.transpose(0, 2, 1).reshape(b, d, hh, ww)
        k_pool = adaptive_avg_pool2d(k_map, pp, pp).reshape(b, d, m)
        v_pool = adaptive_avg_pool2d(v_map, pp, pp).reshape(b, d, m)

        kt = k_pool.reshape(b, heads, c, m)                     # [B,h,c,P^2]
        vp = v_pool.reshape(b, heads, c, m).transpose(0, 1, 3, 2)
        q4 = self._heads(q, b, n)                               # [B,h,HW,c]

        out = _attend(q4, kt, vp, self.lam.reshape(1, heads, 1, 1),
                      cfg.use_differential)                     # [B,h,HW,c]
        return out.transpose(0, 1, 3, 2).reshape(b, d, hh, ww)
