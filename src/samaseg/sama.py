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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttnConfig, DiffAggAttention
from .layers import Conv2d, LayerNorm, Linear, Module
from .tensor import Tensor, concat


@dataclass
class AblationFlags:
    use_mamba_macro: bool = True
    use_differential: bool = True
    use_crmsm: bool = True
    multi_view: bool = True
    use_ssm: bool = True
    causal_fusion: bool = True


@dataclass
class SamaConfig:
    channels: int
    expansion: int = 2
    ffn_ratio: int = 4
    heads: int = 4
    local_window: int = 3
    global_pool: int = 7
    lambda_init: float = 0.8
    flags: AblationFlags = field(default_factory=AblationFlags)

    @property
    def inner_channels(self) -> int:
        return self.channels * self.expansion if self.flags.use_mamba_macro else self.channels

    @property
    def branch_channels(self) -> int:
        inner = self.inner_channels
        if inner % 2:
            raise ValueError(f"inner channels {inner} must be even for the branch split")
        return inner // 2

    def attn_config(self) -> AttnConfig:
        return AttnConfig(channels=self.branch_channels, heads=self.heads,
                          local_window=self.local_window, global_pool=self.global_pool,
                          lambda_init=self.lambda_init,
                          use_differential=self.flags.use_differential)


class SamaTokenMixer(Module):
    def __init__(self, cfg: SamaConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        c, inner = cfg.channels, cfg.inner_channels
        acfg = cfg.attn_config()
        if cfg.flags.use_mamba_macro:
            self.in_proj = Linear(c, inner, rng, dtype=dtype)
            self.dw = Conv2d(inner, inner, 3, rng, stride=1, padding=1, groups=inner, dtype=dtype)
            self.res_proj = Linear(c, inner, rng, dtype=dtype)
        self.attn_local = DiffAggAttention(acfg, "local", rng, dtype=dtype)
        self.attn_global = DiffAggAttention(acfg, "global", rng, dtype=dtype)
        self.out_proj = Linear(inner, c, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        c = x.shape[1]
        if c != cfg.channels:
            raise ValueError(f"expected {cfg.channels} channels, got {c}")
        d = cfg.branch_channels

        if cfg.flags.use_mamba_macro:
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

    def __init__(self, cfg: SamaConfig, rng: np.random.Generator, dtype=np.float32):
        c = cfg.channels
        self.norm1 = LayerNorm(c, dtype=dtype)
        self.mixer = SamaTokenMixer(cfg, rng, dtype=dtype)
        self.norm2 = LayerNorm(c, dtype=dtype)
        self.ffn1 = Linear(c, c * cfg.ffn_ratio, rng, dtype=dtype)
        self.ffn2 = Linear(c * cfg.ffn_ratio, c, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        y = x + self.mixer(self.norm1(x))
        return y + self.ffn2(self.ffn1(self.norm2(y)).silu())
