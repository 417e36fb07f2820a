"""Causal-resonance multi-scale skip module.

Per encoder scale: read the feature map in four directional views
(original, transposed, flipped, flipped-transposed), scan each with a
shared selective SSM, restore the original orientation, fuse by averaging,
and project linearly. Each view is a fixed permutation of the row-major
positions, one row of the `view_index` table. `to_views` gathers a map
into the scan's [V*B, H*W, C] tokens (one scan call per scale) and
`from_views` gathers them back to [B,V,C,H,W] maps, each op's backward
being the other's gather. "Flipped" is full sequence reversal (a
180-degree rotation), or a horizontal mirror with `flip_mode="mirror"`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv2d, Linear, Module
from .sama import AblationFlags
from .ssm import SelectiveSsm
from .tensor import Tensor, concat

VIEW_COUNT = 4


def view_index(h: int, w: int, views: int = VIEW_COUNT,
               flip_mode: str = "sequence") -> np.ndarray:
    """Row-major source position of each step of each view, int [V, H*W]:
    the grid, its transpose, the flipped grid and the flipped transpose,
    each flattened row-major. The transposed views scan a W x H map."""
    grid = np.arange(h * w).reshape(h, w)
    if flip_mode not in ("sequence", "mirror"):
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    flipped = grid[::-1, ::-1] if flip_mode == "sequence" else grid[:, ::-1]
    return np.stack([o.reshape(-1) for o in (grid, grid.T, flipped, flipped.T)[:views]])


def _gather_tokens(maps: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """[B,V,C,N] maps -> [V*B,L,C] tokens, token (v,b,k) = maps[b,v,:,idx[v,k]];
    a single map (V = 1) is read by every view."""
    views = np.arange(len(idx))[:, None] % maps.shape[1]
    tokens = np.ascontiguousarray(maps[:, views, :, idx].transpose(0, 2, 1, 3))
    return tokens.reshape(-1, idx.shape[1], maps.shape[2])


def _gather_maps(tokens: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Inverse of `_gather_tokens`: [V*B,L,C] tokens -> [B,V,C,N] maps."""
    tokens = tokens.reshape(len(idx), -1, *tokens.shape[1:])
    maps = np.empty((tokens.shape[1], len(idx), tokens.shape[3], idx.shape[1]), tokens.dtype)
    for v, inv in enumerate(np.argsort(idx, axis=1)):
        maps[:, v] = tokens[v][:, inv].transpose(0, 2, 1)
    return maps


def to_views(x: Tensor, idx: np.ndarray) -> Tensor:
    """[B,C,H,W] map -> [V*B, H*W, C] tokens of the views in `idx`
    (`view_index`), view-major on the batch axis. The backward is
    `from_views`' gather, summed over views."""
    b, c, h, w = x.shape
    if idx.shape[1] != h * w:
        raise ValueError(f"view index of {idx.shape[1]} positions for a {h}x{w} map")

    def bwd(g):
        x._accumulate(_gather_maps(g, idx).sum(axis=1).reshape(x.shape), owned=True)

    return Tensor._op(_gather_tokens(x.data.reshape(b, 1, c, h * w), idx), (x,), bwd)


def from_views(y: Tensor, idx: np.ndarray, h: int, w: int) -> Tensor:
    """Inverse of `to_views`: [V*B, H*W, C] view tokens -> [B,V,C,H,W] maps
    in the source orientation. The backward is `to_views`' gather per view."""
    maps = _gather_maps(y.data, idx)

    def bwd(g):
        y._accumulate(_gather_tokens(g.reshape(maps.shape), idx), owned=True)

    return Tensor._op(maps.reshape(*maps.shape[:3], h, w), (y,), bwd)


@dataclass
class CrMsmConfig:
    state_size: int = 8
    ssm_static: bool = False
    flip_mode: str = "sequence"


class CrMsmScale(Module):
    """CR-MSM for one pyramid scale of `channels` feature channels."""

    def __init__(self, channels: int, cfg: CrMsmConfig, flags: AblationFlags,
                 rng: np.random.Generator, dtype=np.float32):
        self.channels = channels
        self.cfg = cfg
        self.flags = flags
        if flags.use_ssm:
            self.ssm = SelectiveSsm(channels, cfg.state_size, rng,
                                    static=cfg.ssm_static, dtype=dtype)
        else:
            self.conv = Conv2d(channels, channels, 3, rng, stride=1, padding=1, dtype=dtype)
        n_views = VIEW_COUNT if flags.multi_view else 1
        if not flags.causal_fusion and n_views > 1:
            self.fuse_proj = Linear(channels * n_views, channels, rng, dtype=dtype)
        self.proj = Linear(channels, channels, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        idx = view_index(h, w, VIEW_COUNT if self.flags.multi_view else 1, self.cfg.flip_mode)
        tokens = to_views(x, idx)
        if self.flags.use_ssm:
            y = self.ssm(tokens)
        else:
            # the conv reads each view as its oriented map; odd views are w x h
            seqs = tokens.transpose(0, 2, 1)                           # [V*B,C,L]
            views = []
            for v in range(len(idx)):
                oriented = seqs[v * b:(v + 1) * b].reshape(b, c, *((w, h) if v % 2 else (h, w)))
                views.append(self.conv(oriented).reshape(b, c, h * w))
            y = concat(views).transpose(0, 2, 1)
        maps = from_views(y, idx, h, w)                      # [B,V,C,H,W]
        if len(idx) == 1:
            fused = maps.reshape(b, c, h, w)
        elif self.flags.causal_fusion:
            fused = maps.sum(axis=1) * 0.25
        else:
            fused = self.fuse_proj(maps.reshape(b, len(idx) * c, h, w))
        return self.proj(fused)


class CrMsm(Module):
    """Independent CR-MSM per pyramid scale, fine to coarse."""

    def __init__(self, scale_channels: list[int], cfg: CrMsmConfig, flags: AblationFlags,
                 rng: np.random.Generator, dtype=np.float32):
        self.scales = [CrMsmScale(c, cfg, flags, rng, dtype=dtype) for c in scale_channels]

    def __call__(self, pyramid: list[Tensor]) -> list[Tensor]:
        if not pyramid:
            raise ValueError("empty feature pyramid")
        if len(pyramid) != len(self.scales):
            raise ValueError(f"pyramid has {len(pyramid)} scales, module expects {len(self.scales)}")
        return [scale(f) for scale, f in zip(self.scales, pyramid)]
