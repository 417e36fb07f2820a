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
columns over the key axis. The global core is `_attend_tokens`, two
batched matmuls around the key softmax on the pooled key and value maps;
the pooling stays a separate op. Both cores share `_key_softmax`,
`_weights` (s1 - lam * s2) and their adjoint `_diff_weights_grad`, and
repeat in order the float operations of the composite
unfold/contract/softmax chains that the tests keep as oracles, so values
and gradients match those chains bit for bit. Each returns the [B,d,H,W]
map, and the branch's epilogue, group norm times (1 - lambda_init) plus
the positional term, is one normalisation op.

Both cores run in blocks of pixels of at most `COL_BUDGET` elements: the
local core in blocks of map rows, with `_im2col(rows=...)`, and the token
core in blocks of query pixels, whole multiples of `_COL_ALIGN` wide, for
which BLAS gives the whole product's bits. Nothing of the key axis's size
outlives a block, and no node keeps the key softmax s: the backward
rebuilds it over the forward's blocks, by the forward's own calls, into
one full-length buffer, because the k, v and lam gradients of the token
core and lam's of the local core sum over every pixel in the whole map's
order. The local core's k and v gradients fold over blocks of input rows
with the halo (`_fold_rows`); the token core's node keeps its contiguous
pooled keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import (_COL_ALIGN, Conv2d, GroupNorm, Linear, Module, _fold_rows, _im2col, _Plan,
                     _row_blocks, adaptive_avg_pool2d)
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


def _key_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of [B,sub-heads,keys,HW] logits over the keys (axis -2), in
    place; returns the softmax s."""
    s = logits
    s -= s.max(axis=-2, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-2, keepdims=True)
    return s


def _weights(s: np.ndarray, lam: Tensor | None, heads: int) -> np.ndarray:
    """The [B,heads,keys,HW] weights of the key softmax s: s1 - lam * s2
    when each head has two sub-heads (the differential halves), s itself
    in plain mode (lam is None). A backward calls it again on the rebuilt
    s, so it rebuilds the forward's weights bit for bit."""
    if lam is None:
        return s
    w = lam.data.reshape(1, heads, 1, 1) * s[:, 1::2]
    np.subtract(s[:, 0::2], w, out=w)
    return w


def _diff_weights_grad(g: np.ndarray, s: np.ndarray, lam: Tensor | None, heads: int):
    """Adjoint of `_weights` after `_key_softmax` for the weights' gradient
    g: the logits' gradient s * (g_s - sum(g_s * s)), where g_s is g on the
    first halves and -lam * g on the second, and lam's gradient (None in
    plain mode or when lam needs none). A masked key's weight is exactly 0,
    so its logit gets exactly 0 back."""
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


def _token_softmax(kt: np.ndarray, qs: np.ndarray, scale, out: np.ndarray | None = None):
    """The key softmax of the queries qs [B,sub,cs,N'] over the keys kt
    [B,sub,M,cs]: the logits kt @ qs times `scale`, softmaxed over the keys
    in place, in `out` when given."""
    logits = np.matmul(kt, qs, out=out)
    logits *= scale
    return _key_softmax(logits)


def _query_blocks(n: int, row_elems: int) -> list[int]:
    """Bounds of the query-pixel blocks of a core whose block temporaries
    take `row_elems` elements per query pixel: widths are whole multiples of
    `_COL_ALIGN` pixels under `COL_BUDGET` elements, so BLAS gives each
    block's products the bits of the whole-map product (a width of other
    than a multiple of `_COL_ALIGN` is one block)."""
    width = _COL_ALIGN if n % _COL_ALIGN == 0 else n
    return [r * width for r in _row_blocks(n // width, 1, 1, row_elems * width, 1)[0]]


def _attend_tokens(q: Tensor, k: Tensor, v: Tensor, lam: Tensor, sub: int, heads: int) -> Tensor:
    """Differential attention of N queries over M key tokens as one op, two
    batched matmuls around the key softmax, in blocks of query pixels
    (`_query_blocks`). The inputs are channel-major, batch on axis 0,
    channels on axis 1 and positions flattened: q reads as [B,sub,cs,N], k
    as [B,sub,cs,M] and v as [B,heads,cv,M]. lam weights the second half of
    each head when sub = 2 * heads and is no parent otherwise. Returns q's
    shape with v's channel count, [B,heads*cv,...]. The node keeps the
    contiguous pooled keys; the backward rebuilds s over the same blocks
    into one full-length buffer, since the k, v and lam gradients sum over
    every query pixel at once."""
    b, dq, dv = q.shape[0], q.shape[1], v.shape[1]
    cs, cv, n, m = dq // sub, dv // heads, q.size // (b * dq), k.size // (b * dq)
    if sub == heads:
        lam = None
    scale = q.dtype.type(1.0 / cs ** 0.5)
    bounds = _query_blocks(n, b * sub * m)

    kt = np.ascontiguousarray(k.data.reshape(b, sub, cs, m).transpose(0, 1, 3, 2))
    qs = q.data.reshape(b, sub, cs, n)
    vp = v.data.reshape(b, heads, cv, m)
    out = np.empty((b, heads, cv, n), dtype=q.dtype)
    for c0, c1 in zip(bounds, bounds[1:]):
        w = _weights(_token_softmax(kt, qs[..., c0:c1], scale), lam, heads)   # [B,h,M,N']
        np.matmul(vp, w, out=out[..., c0:c1])                                 # [B,h,cv,N']
    record_macs(b * (dq + dv) * m * n)

    def bwd(g):
        s = np.empty((b, sub, m, n), dtype=kt.dtype)
        for c0, c1 in zip(bounds, bounds[1:]):
            _token_softmax(kt, qs[..., c0:c1], scale, out=s[..., c0:c1])
        g = g.reshape(b, heads, cv, n)
        if v.requires_grad:
            w = _weights(s, lam, heads)
            v._accumulate(np.matmul(g, w.swapaxes(-1, -2)).reshape(v.shape), owned=True)
            del w
        gw = np.matmul(vp.swapaxes(-1, -2), g)
        glogits, glam = _diff_weights_grad(gw, s, lam, heads)
        del s, gw
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


def _window_columns(x: np.ndarray, groups: int, kk: int, rows: tuple[int, int]) -> np.ndarray:
    """[B,groups,c,k^2,R*W] zero-padded k x k neighbourhoods of the map x
    [B,C,H,W] around the pixels of rows [r0, r1), from `_im2col`."""
    cols = _im2col(x, kk, kk, 1, kk // 2, rows)
    return cols.reshape(x.shape[0], groups, -1, kk * kk, cols.shape[-2] * x.shape[-1])


def _window_softmax(q: np.ndarray, k: np.ndarray, sub: int, kk: int, rows: tuple[int, int],
                    out: np.ndarray | None = None) -> np.ndarray:
    """The key softmax of the queries of rows [r0, r1) of the map q
    [B,d,H,W] over their k x k neighbourhoods in k, [B,sub,k^2,R*W]: q
    contracted with the key columns over the channels, scaled, plus the
    mask bias, softmaxed over the keys in place, in `out` when given."""
    b, d, h, w = q.shape
    cs, (r0, r1) = d // sub, rows
    qs = q.reshape(b, sub, cs, 1, h * w)[..., r0 * w:r1 * w]
    logits = np.sum(qs * _window_columns(k, sub, kk, rows), axis=2, out=out)
    logits *= q.dtype.type(1.0 / cs ** 0.5)
    logits += _mask_bias(h, w, kk, q.dtype)[:, r0 * w:r1 * w]
    return _key_softmax(logits)


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

        return self.wo(self.gn(attn_map, 1.0 - self.cfg.lambda_init, pe))

    def _local_attend(self, q: Tensor, k_map: Tensor, v_map: Tensor) -> Tensor:
        """Attention over each pixel's zero-padded k x k neighbourhood as one
        op, in blocks of output rows, read straight from `_im2col`'s columns
        of each block's rows of the key and value maps; returns the
        [B,d,H,W] map. The node keeps no columns and no softmax: the
        backward rebuilds s over the same blocks into one full-length
        buffer, from which lam's gradient sums every pixel, builds each
        block's columns again, and folds the column gradients over blocks
        of input rows with the halo (`_fold_rows`)."""
        cfg = self.cfg
        b, d, hh, ww = v_map.shape
        heads, sub, kk, n = cfg.heads, self.sub_heads, cfg.local_window, hh * ww
        lam = self.lam if sub != heads else None
        scale = q.dtype.type(1.0 / (d // sub) ** 0.5)
        bounds, halo = _row_blocks(hh, kk, 1, b * d * kk * kk * ww, 1)
        plan = _Plan(v_map.shape, (d, 1, kk, kk), 1, kk // 2, d, hh, ww, bounds, halo)
        blocks = [(r0, r1, slice(r0 * ww, r1 * ww)) for r0, r1 in zip(bounds, bounds[1:])]

        out = np.empty((b, heads, cfg.head_dim, n), dtype=q.dtype)
        for r0, r1, cols in blocks:
            w = _weights(_window_softmax(q.data, k_map.data, sub, kk, (r0, r1)), lam, heads)
            np.sum(w[:, :, None] * _window_columns(v_map.data, heads, kk, (r0, r1)), axis=3,
                   out=out[..., cols])                                   # [B,h,c,R*W]
        record_macs(2 * b * d * kk * kk * n)

        def bwd(g):
            s = np.empty((b, sub, kk * kk, n), dtype=q.dtype)
            gw = np.empty((b, heads, kk * kk, n), dtype=q.dtype)
            ge = g.reshape(b, heads, cfg.head_dim, 1, n)
            for r0, r1, cols in blocks:
                _window_softmax(q.data, k_map.data, sub, kk, (r0, r1), out=s[..., cols])
                np.sum(ge[..., cols] * _window_columns(v_map.data, heads, kk, (r0, r1)), axis=2,
                       out=gw[..., cols])
            if v_map.requires_grad:
                v_map._accumulate(_fold_rows(plan, lambda o0, o1: ge[..., o0 * ww:o1 * ww] * _weights(
                    s[..., o0 * ww:o1 * ww], lam, heads)[:, :, None], q.dtype), owned=True)
            glogits, glam = _diff_weights_grad(gw, s, lam, heads)
            del s, gw
            glogits *= scale
            gl = np.expand_dims(glogits, 2)
            if q.requires_grad:
                gq = np.empty((b, sub, d // sub, n), dtype=q.dtype)
                for r0, r1, cols in blocks:
                    np.sum(gl[..., cols] * _window_columns(k_map.data, sub, kk, (r0, r1)), axis=3,
                           out=gq[..., cols])
                q._accumulate(gq.reshape(q.shape), owned=True)
            if k_map.requires_grad:
                qs = q.data.reshape(b, sub, d // sub, 1, n)
                k_map._accumulate(_fold_rows(plan, lambda o0, o1: gl[..., o0 * ww:o1 * ww]
                                             * qs[..., o0 * ww:o1 * ww], q.dtype), owned=True)
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
