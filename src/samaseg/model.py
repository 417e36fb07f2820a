"""Full U-shaped segmentation network: overlapping patch embedding, SAMA
encoder stages with depthwise-separable downsampling, CR-MSM skip paths,
a residual-convolution decoder with transpose-conv upsampling, and
multi-scale decoding heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crmsm import CrMsm, CrMsmConfig
from .layers import Conv2d, ConvTranspose2d, Module
from .profiler import mac_scope
from .sama import AblationFlags, SamaBlock, SamaConfig
from .tensor import Tensor, concat, no_grad


@dataclass
class ModelConfig:
    in_channels: int = 1
    num_classes: int = 2
    base_channels: int = 16
    stage_depths: list[int] = field(default_factory=lambda: [2, 2, 2, 2])
    channel_mults: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    heads: int = 4
    expansion: int = 2
    ffn_ratio: int = 4
    local_window: int = 3
    global_pool: int = 7
    lambda_init: float = 0.8
    state_size: int = 8
    ssm_static: bool = False
    flip_mode: str = "sequence"
    deep_supervision: bool = True
    crmsm_on_bottleneck: bool = True
    flags: AblationFlags = field(default_factory=AblationFlags)

    def __post_init__(self):
        if len(self.stage_depths) > len(self.channel_mults):
            raise ValueError("more stage depths than channel multipliers")

    @property
    def num_stages(self) -> int:
        return len(self.stage_depths)

    @property
    def stage_channels(self) -> list[int]:
        return [self.base_channels * m for m in self.channel_mults[:self.num_stages]]

    @property
    def divisor(self) -> int:
        # patch embed /4 plus one /2 per stage transition
        return 4 * 2 ** (self.num_stages - 1)

    def sama_config(self, channels: int) -> SamaConfig:
        return SamaConfig(channels=channels, expansion=self.expansion,
                          ffn_ratio=self.ffn_ratio, heads=self.heads,
                          local_window=self.local_window, global_pool=self.global_pool,
                          lambda_init=self.lambda_init, flags=self.flags)


class PatchEmbed(Module):
    """Two stacked 3x3 stride-2 convolutions; spatial /4, channels -> C0."""

    def __init__(self, in_ch: int, out_ch: int, rng, dtype=np.float32):
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng, stride=2, padding=1, dtype=dtype)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng, stride=2, padding=1, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-2] < 8 or x.shape[-1] < 8:
            raise ValueError(f"input too small for patch embedding: {x.shape}")
        return self.conv2(self.conv1(x).silu())


class Downsample(Module):
    """Depthwise-separable stride-2 conv between encoder stages."""

    def __init__(self, in_ch: int, out_ch: int, rng, dtype=np.float32):
        self.dw = Conv2d(in_ch, in_ch, 3, rng, stride=2, padding=1, groups=in_ch, dtype=dtype)
        self.pw = Conv2d(in_ch, out_ch, 1, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.pw(self.dw(x))


class ResidualConvBlock(Module):
    """Two 3x3 convs with a projected shortcut."""

    def __init__(self, in_ch: int, out_ch: int, rng, dtype=np.float32):
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng, padding=1, dtype=dtype)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng, padding=1, dtype=dtype)
        self.short = Conv2d(in_ch, out_ch, 1, rng, dtype=dtype) if in_ch != out_ch else None

    def __call__(self, x: Tensor) -> Tensor:
        y = self.conv2(self.conv1(x).silu())
        s = self.short(x) if self.short is not None else x
        return (y + s).silu()


class FinalExpand(Module):
    """Restores patch-embedding resolution: two transpose-conv x2 steps."""

    def __init__(self, ch: int, rng, dtype=np.float32):
        self.up1 = ConvTranspose2d(ch, ch, 2, rng, stride=2, dtype=dtype)
        self.conv1 = Conv2d(ch, ch, 3, rng, padding=1, dtype=dtype)
        self.up2 = ConvTranspose2d(ch, ch, 2, rng, stride=2, dtype=dtype)
        self.conv2 = Conv2d(ch, ch, 3, rng, padding=1, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.conv1(self.up1(x)).silu()
        return self.conv2(self.up2(x)).silu()


class SamaUNet(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        chans = cfg.stage_channels
        self.patch_embed = PatchEmbed(cfg.in_channels, chans[0], rng, dtype=dtype)
        self.stages = [[SamaBlock(cfg.sama_config(c), rng, dtype=dtype)
                        for _ in range(depth)]
                       for c, depth in zip(chans, cfg.stage_depths)]
        self.downs = [Downsample(chans[i], chans[i + 1], rng, dtype=dtype)
                      for i in range(cfg.num_stages - 1)]
        if cfg.flags.use_crmsm:
            crmsm_chans = chans if cfg.crmsm_on_bottleneck else chans[:-1]
            self.crmsm = CrMsm(crmsm_chans,
                               CrMsmConfig(cfg.state_size, cfg.ssm_static, cfg.flip_mode),
                               cfg.flags, rng, dtype=dtype)
        self.ups = [ConvTranspose2d(chans[i + 1], chans[i], 2, rng, stride=2, dtype=dtype)
                    for i in range(cfg.num_stages - 1)]
        self.dec_blocks = [ResidualConvBlock(2 * chans[i], chans[i], rng, dtype=dtype)
                           for i in range(cfg.num_stages - 1)]
        self.final_expand = FinalExpand(chans[0], rng, dtype=dtype)
        self.head_full = Conv2d(chans[0], cfg.num_classes, 1, rng, dtype=dtype)
        if cfg.deep_supervision:
            self.ds_heads = [Conv2d(chans[i], cfg.num_classes, 1, rng, dtype=dtype)
                             for i in range(cfg.num_stages - 1)]

    def encode(self, x: Tensor) -> list[Tensor]:
        feats = []
        with mac_scope("patch_embed"):
            x = self.patch_embed(x)
        for i, blocks in enumerate(self.stages):
            with mac_scope(f"stages.{i}"):
                for blk in blocks:
                    x = blk(x)
            feats.append(x)
            if i < len(self.downs):
                with mac_scope(f"downs.{i}"):
                    x = self.downs[i](x)
        return feats

    def __call__(self, img: Tensor) -> list[Tensor]:
        """Forward pass; returns logits fine -> coarse (single map without
        deep supervision). Input is zero-padded to the stage divisor and the
        finest logits are cropped back."""
        cfg = self.cfg
        b, c, h, w = img.shape
        div = cfg.divisor
        ph = (-h) % div
        pw = (-w) % div
        if ph or pw:
            padded = np.zeros((b, c, h + ph, w + pw), dtype=img.dtype)
            padded[:, :, :h, :w] = img.data
            src = img

            def bwd(g):
                src._accumulate(g[:, :, :h, :w])
            x = Tensor._op(padded, (img,), bwd)
        else:
            x = img

        feats = self.encode(x)
        if cfg.flags.use_crmsm:
            with mac_scope("crmsm"):
                if cfg.crmsm_on_bottleneck:
                    skips = self.crmsm(feats)
                else:
                    skips = self.crmsm(feats[:-1]) + [feats[-1]]
        else:
            skips = feats

        x = skips[-1]
        ds_logits = []
        for i in range(cfg.num_stages - 2, -1, -1):
            with mac_scope(f"ups.{i}"):
                x = self.ups[i](x)
            with mac_scope(f"dec_blocks.{i}"):
                x = self.dec_blocks[i](concat([x, skips[i]], axis=1))
            if cfg.deep_supervision:
                with mac_scope(f"ds_heads.{i}"):
                    ds_logits.append(self.ds_heads[i](x))
        with mac_scope("final_expand"):
            x = self.final_expand(x)
        with mac_scope("head_full"):
            full = self.head_full(x)
        if ph or pw:
            full = full[:, :, :h, :w]
        if cfg.deep_supervision:
            # fine -> coarse
            return [full] + ds_logits[::-1]
        return [full]


def predict(model: SamaUNet, images: np.ndarray) -> np.ndarray:
    """Per-pixel class labels [B,H,W] of images [B,C,H,W]: the argmax over
    classes of the finest logits, from a forward that records no tape."""
    with no_grad():
        logits = model(Tensor(images))[0]
    return logits.data.argmax(axis=1)


def log_softmax_classes(logits: Tensor) -> Tensor:
    """Log-softmax over the class axis (axis 1) of [B,K,H,W]."""
    m = logits.max_const(axis=1, keepdims=True)
    z = logits - Tensor(m)
    lse = z.exp().sum(axis=1, keepdims=True).log()
    return z - lse


def _resize_mask_nearest(mask: np.ndarray, h: int, w: int) -> np.ndarray:
    """[B,H,W] int mask -> [B,h,w] by nearest (floor) index mapping."""
    src_h, src_w = mask.shape[-2], mask.shape[-1]
    ri = (np.arange(h) * src_h) // h
    ci = (np.arange(w) * src_w) // w
    return mask[:, ri][:, :, ci]


def ds_weights(num_heads: int) -> np.ndarray:
    """Deep-supervision weights: halving per coarser head, normalized."""
    w = 0.5 ** np.arange(num_heads)
    return w / w.sum()


def seg_loss(logits: list[Tensor], mask: np.ndarray, num_classes: int,
             eps: float = 1e-5) -> Tensor:
    """Composite soft-Dice + cross-entropy over deep-supervision heads.

    `mask` is the [B,H,W] integer ground truth at full resolution; coarser
    heads compare against its nearest-downsampled version.
    """
    if mask.min() < 0 or mask.max() >= num_classes:
        raise ValueError(f"mask labels must lie in [0, {num_classes}), got "
                         f"[{mask.min()}, {mask.max()}]")
    weights = ds_weights(len(logits))
    total = None
    for head, w in zip(logits, weights):
        b, k, hh, ww = head.shape
        m = _resize_mask_nearest(mask, hh, ww)
        onehot = np.zeros((b, k, hh, ww), dtype=head.dtype)
        np.put_along_axis(onehot, m[:, None], 1.0, axis=1)
        onehot_t = Tensor(onehot)

        logp = log_softmax_classes(head)
        ce = -(logp * onehot_t).sum(axis=1).mean()

        if k > 1:
            # soft Dice of every foreground class at once: sums over batch and pixels
            p = logp.exp()[:, 1:]
            g = onehot[:, 1:]
            axes = (0, 2, 3)
            inter = (p * Tensor(g)).sum(axis=axes)
            denom = p.sum(axis=axes) + Tensor(g.sum(axis=axes)) + eps
            dice_loss = 1.0 - ((inter * 2.0 + eps) / denom).mean()
        else:
            dice_loss = Tensor(np.zeros((), dtype=head.dtype))
        head_loss = ce + dice_loss
        total = head_loss * float(w) if total is None else total + head_loss * float(w)
    return total
