"""SAMA encoder block: a Mamba-style macro structure around the dual
local/global differential aggregated attention, wrapped with pre-norm
residuals and an FFN sub-block.

Token mixer with the macro structure enabled:

    X      = SiLU(DepthConv(Linear(I)))     on expanded channels e*C
    Xl, Xg = channel split of X
    Xres   = SiLU(Linear(I))                bypass gate
    O      = Linear(Concat(Att(Xl), Att(Xg)) * Xres)

With the macro structure disabled the mixer reduces to
Linear(Concat(Att(split(I)))) with no pre-stage and no gate.

The block and the mixer read the model's `ModelConfig`; its
`attn_config(channels)` gives the settings of each attention branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .attention import DiffAggAttention
from .layers import Conv2d, LayerNorm, Linear, Module
from .tensor import Tensor, concat

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class AblationFlags:
    use_mamba_macro: bool = True
    use_differential: bool = True
    use_crmsm: bool = True
    multi_view: bool = True
    use_ssm: bool = True
    causal_fusion: bool = True


class SamaTokenMixer(Module):
    def __init__(self, channels: int, cfg: ModelConfig, rng: np.random.Generator,
                 dtype=np.float32):
        self.channels = channels
        self.cfg = cfg
        acfg = cfg.attn_config(channels)
        c, inner = channels, 2 * acfg.channels
        if cfg.flags.use_mamba_macro:
            self.in_proj = Linear(c, inner, rng, dtype=dtype)
            self.dw = Conv2d(inner, inner, 3, rng, stride=1, padding=1, groups=inner, dtype=dtype)
            self.res_proj = Linear(c, inner, rng, dtype=dtype)
        self.attn_local = DiffAggAttention(acfg, "local", rng, dtype=dtype)
        self.attn_global = DiffAggAttention(acfg, "global", rng, dtype=dtype)
        self.out_proj = Linear(inner, c, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        c = x.shape[1]
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        d = self.attn_local.cfg.channels

        if self.cfg.flags.use_mamba_macro:
            xx = self.dw(self.in_proj(x)).silu()
            gate = self.res_proj(x).silu()
        else:
            xx = x
            gate = None

        xl, xg = xx[:, :d], xx[:, d:]
        mixed = concat([self.attn_local(xl), self.attn_global(xg)], axis=1)
        if gate is not None:
            mixed = mixed * gate
        return self.out_proj(mixed)


class SamaBlock(Module):
    """Pre-norm residual block: mixer + FFN (Linear -> SiLU -> Linear)."""

    def __init__(self, channels: int, cfg: ModelConfig, rng: np.random.Generator,
                 dtype=np.float32):
        c = channels
        self.norm1 = LayerNorm(c, dtype=dtype)
        self.mixer = SamaTokenMixer(c, cfg, rng, dtype=dtype)
        self.norm2 = LayerNorm(c, dtype=dtype)
        self.ffn1 = Linear(c, c * cfg.ffn_ratio, rng, dtype=dtype)
        self.ffn2 = Linear(c * cfg.ffn_ratio, c, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        y = x + self.mixer(self.norm1(x))
        return y + self.ffn2(self.ffn1(self.norm2(y)).silu())
