"""Finite-difference verification suite: one named check per
differentiable op or composite, each returning its max relative error.

All checks run at float64 on seeded inputs. Large composites check a
seeded random subset of elements per tensor; small ops are exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttnConfig, DiffAggAttention
from .crmsm import CrMsmScale, from_views, to_views, view_index
from .gradcheck import grad_check
from .layers import Conv2d, ConvTranspose2d, GroupNorm, LayerNorm, Linear, softmax
from .model import ModelConfig, SamaUNet, seg_loss
from .sama import SamaBlock
from .ssm import SelectiveSsm
from .tensor import Tensor


@dataclass
class CheckResult:
    name: str
    error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.error < self.threshold


def _rand(rng, shape):
    return Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True, dtype=np.float64)


def _weighted_sum(out: Tensor, rng) -> Tensor:
    w = Tensor(rng.uniform(-2.0, 2.0, size=out.shape).astype(np.float64))
    return (out * w).sum()


def _check_module(name, module, x, threshold, rng, max_elems=None) -> CheckResult:
    xs = [x] + module.parameters()

    def f(_):
        return _weighted_sum(module(x), np.random.default_rng(7))

    err = grad_check(f, xs, max_elems_per_tensor=max_elems, rng=np.random.default_rng(11),
                     zero_floor=1e-6)
    return CheckResult(name, err, threshold)


def check_elementwise(rng) -> CheckResult:
    x = _rand(rng, (3, 4))

    def f(xs):
        return (xs[0].silu() * xs[0].sigmoid() + xs[0].softplus() + (xs[0] * xs[0])).sum()

    return CheckResult("elementwise", grad_check(f, [x]), 1e-6)


def check_matmul(rng) -> CheckResult:
    a = _rand(rng, (3, 4))
    b = _rand(rng, (4, 2))

    def f(xs):
        return _weighted_sum(xs[0] @ xs[1], np.random.default_rng(7))

    return CheckResult("matmul", grad_check(f, [a, b]), 1e-6)


def check_linear_silu(rng) -> CheckResult:
    lin = Linear(4, 3, rng, dtype=np.float64)
    x = _rand(rng, (2, 4))

    def f(_):
        return _weighted_sum(lin(x).silu(), np.random.default_rng(7))

    return CheckResult("linear+silu", grad_check(f, [x] + lin.parameters()), 1e-6)


def check_softmax(rng) -> CheckResult:
    x = _rand(rng, (3, 5))

    def f(xs):
        return _weighted_sum(softmax(xs[0]), np.random.default_rng(7))

    return CheckResult("softmax", grad_check(f, [x]), 1e-5)


def check_conv2d(rng) -> CheckResult:
    conv = Conv2d(2, 3, 3, rng, stride=1, padding=1, dtype=np.float64)
    return _check_module("conv2d", conv, _rand(rng, (1, 2, 5, 5)), 1e-6, rng)


def check_depthwise_conv(rng) -> CheckResult:
    conv = Conv2d(3, 3, 3, rng, stride=1, padding=1, groups=3, dtype=np.float64)
    return _check_module("depthwise-conv", conv, _rand(rng, (1, 3, 4, 4)), 1e-6, rng)


def check_transpose_conv(rng) -> CheckResult:
    conv = ConvTranspose2d(2, 3, 2, rng, stride=2, dtype=np.float64)
    return _check_module("transpose-conv", conv, _rand(rng, (1, 2, 3, 3)), 1e-6, rng)


def check_transpose_conv_overlap(rng) -> CheckResult:
    # k > s: neighbouring windows overlap, so _col2im accumulates several taps per pixel
    conv = ConvTranspose2d(2, 3, 3, rng, stride=2, padding=1, dtype=np.float64)
    return _check_module("transpose-conv-overlap", conv, _rand(rng, (1, 2, 3, 4)), 1e-6, rng)


def check_groupnorm(rng) -> CheckResult:
    gn = GroupNorm(4, num_groups=2, dtype=np.float64)
    return _check_module("groupnorm", gn, _rand(rng, (2, 4, 3, 3)), 1e-4, rng)


def check_layernorm(rng) -> CheckResult:
    ln = LayerNorm(4, dtype=np.float64)
    return _check_module("layernorm", ln, _rand(rng, (2, 4, 3, 3)), 1e-4, rng)


def check_diff_agg_local(rng) -> CheckResult:
    cfg = AttnConfig(channels=4, heads=1, local_window=3, global_pool=2)
    attn = DiffAggAttention(cfg, "local", rng, dtype=np.float64)
    return _check_module("diff-agg-local", attn, _rand(rng, (1, 4, 4, 4)), 1e-4, rng)


def check_diff_agg_global(rng) -> CheckResult:
    cfg = AttnConfig(channels=4, heads=1, local_window=3, global_pool=2)
    attn = DiffAggAttention(cfg, "global", rng, dtype=np.float64)
    return _check_module("diff-agg-global", attn, _rand(rng, (1, 4, 4, 4)), 1e-4, rng)


def check_sama_block(rng) -> CheckResult:
    cfg = ModelConfig(expansion=2, ffn_ratio=2, heads=1, local_window=3, global_pool=2)
    blk = SamaBlock(8, cfg, rng, dtype=np.float64)
    return _check_module("sama-block", blk, _rand(rng, (1, 8, 4, 4)), 1e-4, rng,
                         max_elems=8)


def check_scan_tiny(rng) -> CheckResult:
    ssm = SelectiveSsm(1, 1, rng, dtype=np.float64)
    return _check_module("selective-scan-l2", ssm, _rand(rng, (1, 2, 1)), 1e-5, rng)


def check_scan(rng) -> CheckResult:
    ssm = SelectiveSsm(4, 4, rng, dtype=np.float64)
    return _check_module("selective-scan-l8", ssm, _rand(rng, (1, 8, 4)), 1e-4, rng,
                         max_elems=12)


def check_crmsm_scale(rng) -> CheckResult:
    scale = CrMsmScale(2, ModelConfig(state_size=2), rng, dtype=np.float64)
    return _check_module("crmsm-scale", scale, _rand(rng, (1, 2, 3, 3)), 1e-4, rng,
                         max_elems=12)


def check_crmsm_views(rng) -> CheckResult:
    # a non-square map, both flip modes, and token weights so views differ
    x = _rand(rng, (2, 2, 3, 4))
    idx = [view_index(3, 4, flip_mode=mode) for mode in ("sequence", "mirror")]
    w = [Tensor(rng.uniform(-2.0, 2.0, size=(8, 12, 2))) for _ in idx]

    def f(xs):
        return sum(_weighted_sum(from_views(to_views(xs[0], i) * wi, i, 3, 4),
                                 np.random.default_rng(7)) for i, wi in zip(idx, w))

    return CheckResult("crmsm-views", grad_check(f, [x]), 1e-6)


def check_index(rng) -> CheckResult:
    x = _rand(rng, (4, 5))

    def f(xs):   # a slice, and an index array that repeats rows
        return sum(_weighted_sum(xs[0][key], np.random.default_rng(7))
                   for key in (np.s_[1:3], np.array([0, 2, 2, 3, 0])))

    return CheckResult("index", grad_check(f, [x]), 1e-6)


def check_micro_model(rng) -> CheckResult:
    cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=4,
                      stage_depths=[1, 1], channel_mults=[1, 2], heads=1,
                      global_pool=2, deep_supervision=True)
    model = SamaUNet(cfg, rng, dtype=np.float64)
    x = _rand(rng, (1, 1, 16, 16))
    mask = np.zeros((1, 16, 16), dtype=np.int64)
    mask[0, 4:10, 5:12] = 1
    params = model.parameters()

    def f(_):
        return seg_loss(model(x), mask, cfg.num_classes)

    err = grad_check(f, [x] + params, max_elems_per_tensor=2,
                     rng=np.random.default_rng(11), zero_floor=1e-6)
    return CheckResult("micro-model", err, 1e-3)


def check_seg_loss(rng) -> CheckResult:
    heads = [_rand(rng, (2, 3, 4, 4)), _rand(rng, (2, 3, 2, 2))]
    mask = rng.integers(0, 3, size=(2, 4, 4))
    return CheckResult("seg-loss", grad_check(lambda xs: seg_loss(xs, mask, 3), heads), 1e-6)


MICRO_CHECKS: list[Callable] = [
    check_elementwise, check_matmul, check_linear_silu, check_softmax,
    check_conv2d, check_depthwise_conv, check_transpose_conv,
    check_groupnorm, check_layernorm, check_scan_tiny,
]

FULL_CHECKS: list[Callable] = MICRO_CHECKS + [
    check_diff_agg_local, check_diff_agg_global, check_sama_block,
    check_scan, check_crmsm_scale, check_micro_model, check_transpose_conv_overlap,
    check_crmsm_views, check_index, check_seg_loss,
]


def run_suite(level: str = "full", seed: int = 0) -> list[CheckResult]:
    checks = MICRO_CHECKS if level == "micro" else FULL_CHECKS
    results = []
    for i, check in enumerate(checks):
        rng = np.random.default_rng(seed + i)
        results.append(check(rng))
    return results
