"""Causal-resonance multi-scale skip module.

Per encoder scale: build four directional views of the feature map
(original, transposed, flipped, flipped-transposed), scan the flattened
views with a shared selective SSM, restore the original orientation, fuse
by averaging, and project linearly. The views are stacked on the batch
axis, so each scale makes one scan call. "Flipped" defaults to full
sequence reversal of the row-major flatten (a 180-degree spatial
rotation); a horizontal-mirror variant is available via `flip_mode`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv2d, Linear, Module
from .sama import AblationFlags
from .ssm import SelectiveSsm
from .tensor import Tensor, concat

VIEW_COUNT = 4


def orient_map(x: Tensor, view: int, flip_mode: str = "sequence") -> Tensor:
    """Apply directional view `view` in 0..3 to [B,C,H,W]."""
    if view == 0:
        return x
    if view == 1:
        return x.transpose(0, 1, 3, 2)
    if flip_mode == "sequence":
        flipped = x.flip((2, 3))
    elif flip_mode == "mirror":
        flipped = x.flip(3)
    else:
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    if view == 2:
        return flipped
    if view == 3:
        return flipped.transpose(0, 1, 3, 2)
    raise ValueError(f"view index {view} out of range")


def invert_orient_map(y: Tensor, view: int, flip_mode: str = "sequence") -> Tensor:
    """Inverse of `orient_map`; exact bijection."""
    if view == 0:
        return y
    if view == 1:
        return y.transpose(0, 1, 3, 2)
    if view == 3:
        y = y.transpose(0, 1, 3, 2)
    if flip_mode == "sequence":
        return y.flip((2, 3))
    return y.flip(3)


def flatten_map(x: Tensor) -> Tensor:
    """[B,C,H,W] -> row-major token sequence [B,H*W,C]."""
    b, c, h, w = x.shape
    return x.reshape(b, c, h * w).transpose(0, 2, 1)


def unflatten_map(tokens: Tensor, h: int, w: int) -> Tensor:
    b, _, c = tokens.shape
    return tokens.transpose(0, 2, 1).reshape(b, c, h, w)


def make_views(x: Tensor, flip_mode: str = "sequence") -> list[Tensor]:
    """Four directional token sequences of [B,C,H,W]."""
    return [flatten_map(orient_map(x, j, flip_mode)) for j in range(VIEW_COUNT)]


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

    def _scan_view(self, x: Tensor, view: int) -> Tensor:
        """Scan one directional view on its own; returns a map in the source
        orientation. The conv ablation runs views this way, since a conv
        cannot stack views whose height and width are swapped."""
        oriented = orient_map(x, view, self.cfg.flip_mode)
        h, w = oriented.shape[2], oriented.shape[3]
        if self.flags.use_ssm:
            y = unflatten_map(self.ssm(flatten_map(oriented)), h, w)
        else:
            y = self.conv(oriented)
        return invert_orient_map(y, view, self.cfg.flip_mode)

    def _scan_views(self, x: Tensor, views: range) -> list[Tensor]:
        """Scan every view in one SSM call, the views stacked on the batch
        axis; returns one map per view in the source orientation."""
        mode = self.cfg.flip_mode
        b = x.shape[0]
        oriented = [orient_map(x, j, mode) for j in views]
        y = self.ssm(concat([flatten_map(o) for o in oriented], axis=0))
        maps = []
        for i, (j, o) in enumerate(zip(views, oriented)):
            tokens = y[i * b:(i + 1) * b]
            maps.append(invert_orient_map(unflatten_map(tokens, o.shape[2], o.shape[3]), j, mode))
        return maps

    def __call__(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        views = range(VIEW_COUNT if self.flags.multi_view else 1)
        if self.flags.use_ssm:
            maps = self._scan_views(x, views)
        else:
            maps = [self._scan_view(x, j) for j in views]
        if len(maps) == 1:
            fused = maps[0]
        elif self.flags.causal_fusion:
            fused = (maps[0] + maps[1] + maps[2] + maps[3]) * 0.25
        else:
            fused = unflatten_map(self.fuse_proj(
                concat([flatten_map(m) for m in maps], axis=2)), h, w)
        return unflatten_map(self.proj(flatten_map(fused)), h, w)


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
