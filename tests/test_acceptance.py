"""Go/no-go acceptance suite: nine criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Every criterion is also a hard assertion.
"""

import time

import numpy as np
import pytest

from conftest import diff_softmax
from samaseg.attention import AttnConfig, DiffAggAttention
from samaseg.crmsm import VIEW_COUNT, CrMsmScale, from_views, to_views, view_index
from samaseg.data import SyntheticSpec, make_sample
from samaseg.gradsuite import run_suite
from samaseg.io import read_stn1, save_checkpoint
from samaseg.layers import softmax
from samaseg.metrics import NsdConfig, dsc, nsd
from samaseg.model import ModelConfig, SamaUNet, seg_loss
from samaseg.profiler import build_report, count_macs
from samaseg.sama import AblationFlags
from samaseg.ssm import SelectiveSsm
from samaseg.tensor import Tensor
from samaseg.train import TrainConfig, train

from test_metrics import brute_force_nsd
from test_ssm import unrolled_oracle


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {num} ({desc}): {status}{suffix}")
    assert ok, f"criterion {num} ({desc}) failed{suffix}"


def _tiny_cfg(**kw):
    base = dict(in_channels=1, num_classes=2, base_channels=8,
                stage_depths=[1, 1], channel_mults=[1, 2], heads=2, global_pool=2)
    base.update(kw)
    return ModelConfig(**base)


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = run_suite(level="full", seed=0)
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and elapsed < 300
    worst = max(results, key=lambda r: r.error)
    _report(1, "gradient suite, all ops and composites", ok,
            f"{len(results)} checks, worst {worst.name}={worst.error:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_differential_attention_algebra():
    rng = np.random.default_rng(0)
    ok = True
    for h, n, m, c in [(1, 1, 1, 2), (2, 5, 7, 4), (4, 9, 3, 8)]:
        q = rng.uniform(-2, 2, size=(h, n, c))
        k = rng.uniform(-2, 2, size=(h, m, c))
        lam = rng.uniform(0.1, 0.9, size=h)
        # softmax rows sum to 1
        logits = rng.uniform(-5, 5, size=(h, n, m))
        rows = softmax(Tensor(logits)).data.sum(axis=-1)
        ok &= bool(np.all(np.abs(rows - 1.0) <= 1e-6))
        # differential rows sum to 1 - lambda (read off via all-ones values)
        ones = np.ones((h, m, 1))
        out = diff_softmax(Tensor(q), Tensor(k), Tensor(ones), Tensor(lam)).data
        ok &= bool(np.all(np.abs(out - (1.0 - lam).reshape(h, 1, 1)) <= 1e-6))
        # lambda = 0 reduces to plain attention over the first channel half
        v = rng.uniform(-1, 1, size=(h, m, 3))
        got = diff_softmax(Tensor(q), Tensor(k), Tensor(v), Tensor(np.zeros(h))).data
        c2 = c // 2
        plain = np.stack([
            (lambda z: (np.exp(z - z.max(-1, keepdims=True))
                        / np.exp(z - z.max(-1, keepdims=True)).sum(-1, keepdims=True)))
            (q[i, :, :c2] @ k[i, :, :c2].T / np.sqrt(c2)) @ v[i]
            for i in range(h)])
        ok &= bool(np.all(np.abs(got - plain) <= 1e-6))
    _report(2, "differential-attention algebra", ok)


def test_criterion_3_scan_oracle_and_causality():
    rng = np.random.default_rng(1)
    ok = True
    worst = 0.0
    for l in (1, 4, 16, 64):
        ssm = SelectiveSsm(3, 4, np.random.default_rng(l), dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, l, 3))
        diff = np.abs(ssm(Tensor(x)).data - unrolled_oracle(ssm, x)).max()
        worst = max(worst, diff)
        ok &= diff < 1e-6
    # causality: a perturbation at t leaves the prefix bitwise unchanged
    ssm = SelectiveSsm(3, 4, np.random.default_rng(9), dtype=np.float64)
    x = rng.uniform(-1, 1, size=(1, 16, 3))
    base = ssm(Tensor(x)).data.copy()
    for t in (5, 10, 15):
        x2 = x.copy()
        x2[0, t] += 2.0
        ok &= bool(np.array_equal(ssm(Tensor(x2)).data[:, :t], base[:, :t]))
    _report(3, "selective-scan oracle and causality", ok, f"max diff {worst:.2e}")


def test_criterion_4_crmsm_identity_and_view_bijections():
    rng = np.random.default_rng(2)
    ok = True
    # identity SSM + identity projection gives the input back bit-exactly
    scale = CrMsmScale(3, ModelConfig(), rng, dtype=np.float64)
    scale.ssm = lambda tokens: tokens
    scale.proj.weight.data = np.eye(3)
    scale.proj.bias.data = np.zeros(3)
    x = rng.uniform(-1, 1, size=(2, 3, 6, 5))
    ok &= bool(np.array_equal(scale(Tensor(x)).data, x))
    # view round-trips exact for every spatial size 1..8
    for h in range(1, 9):
        for w in range(1, 9):
            a = rng.uniform(size=(1, 2, h, w))
            for mode in ("sequence", "mirror"):
                idx = view_index(h, w, flip_mode=mode)
                back = from_views(to_views(Tensor(a), idx), idx, h, w).data
                for view in range(VIEW_COUNT):
                    ok &= bool(np.array_equal(back[:, view], a))
    _report(4, "skip-fusion identity reduction and view bijections", ok)


def test_criterion_5_linear_complexity():
    rng = np.random.default_rng(3)

    def macs_of(fn):
        with count_macs() as counter:
            fn()
        return counter.total

    cfg = AttnConfig(channels=8, heads=2, local_window=3, global_pool=2)
    ratios = {}
    for kind in ("local", "global"):
        attn = DiffAggAttention(cfg, kind, rng)
        small = macs_of(lambda: attn(Tensor(np.zeros((1, 8, 8, 8), np.float32))))
        big = macs_of(lambda: attn(Tensor(np.zeros((1, 8, 16, 16), np.float32))))
        ratios[f"attn-{kind}"] = big / small
    ssm = SelectiveSsm(8, 4, rng)
    small = macs_of(lambda: ssm(Tensor(np.zeros((1, 64, 8), np.float32))))
    big = macs_of(lambda: ssm(Tensor(np.zeros((1, 256, 8), np.float32))))
    ratios["scan"] = big / small
    ok = all(3.8 <= r <= 4.2 for r in ratios.values())
    detail = ", ".join(f"{k} {v:.3f}x" for k, v in ratios.items())
    _report(5, "linear complexity at 4x size", ok, detail)


def test_criterion_6_metric_oracles():
    ok = True
    # hand cases, exact
    g = np.zeros((4, 4), int); p = np.zeros((4, 4), int)
    g[0, 0:4] = 1; p[0, 2:4] = 1; p[1, 0:4] = 1
    ok &= dsc(g, p, 1) == (0.4, "")
    z = np.zeros((3, 3), int)
    ok &= dsc(z, z, 1) == (1.0, "empty")
    m = np.zeros((8, 8), int); m[2:6, 2:6] = 1
    ok &= nsd(m, m, 1, NsdConfig(tau=0.0)) == (1.0, "")
    s = np.zeros((8, 8), int); s[2:5, 3:6] = 1
    shifted = np.zeros((8, 8), int); shifted[2:5, 2:5] = 1
    ok &= nsd(shifted, s, 1, NsdConfig(tau=1.0)) == (1.0, "")
    ok &= nsd(z, (z + np.eye(3, dtype=int)), 1, NsdConfig()) == (0.0, "one-empty")
    # production NSD equals all-pairs brute force on 32x32 masks, exactly
    for seed in (10, 11, 12):
        r = np.random.default_rng(seed)
        gt = (r.random((8, 8)) < 0.45).repeat(4, 0).repeat(4, 1).astype(int)
        pred = (r.random((8, 8)) < 0.45).repeat(4, 0).repeat(4, 1).astype(int)
        for tau in (0.0, 1.0, 3.0):
            ok &= nsd(gt, pred, 1, NsdConfig(tau=tau))[0] \
                == brute_force_nsd(gt, pred, 1, tau)
    _report(6, "metric hand cases and brute-force agreement", ok)


def test_criterion_7_overfit_run():
    from samaseg.metrics import mean_foreground_dsc

    spec = SyntheticSpec(image_size=32, num_classes=2, count=8, seed=0)
    data_rng = np.random.default_rng(spec.seed)
    dataset = [make_sample(spec, data_rng, f"{i:03d}") for i in range(spec.count)]
    mcfg = ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                       stage_depths=[1, 1, 1, 1])
    tcfg = TrainConfig(epochs=60, iters_per_epoch=8, batch_size=2, lr=5e-4, seed=0)

    t0 = time.time()
    model = SamaUNet(mcfg, np.random.default_rng(tcfg.seed))
    logs = train(model, dataset, tcfg)
    model_b = SamaUNet(mcfg, np.random.default_rng(tcfg.seed))
    logs_b = train(model_b, dataset, tcfg)
    elapsed = time.time() - t0

    # final train DSC over the whole 8-image set
    dscs = []
    for s in dataset:
        pred = model(Tensor(s.image[None]))[0].data.argmax(axis=1)[0]
        dscs.append(mean_foreground_dsc(s.mask, pred, mcfg.num_classes))
    final_dsc = float(np.mean(dscs))

    # loss monotone-decreasing over 10-epoch windows
    losses = np.array([l.loss for l in logs])
    windows = losses.reshape(-1, 10).mean(axis=1)
    monotone = bool(np.all(np.diff(windows) < 0))

    identical = all((a.epoch, a.lr, a.loss, a.dsc) == (b.epoch, b.lr, b.loss, b.dsc)
                    for a, b in zip(logs, logs_b))

    ok = final_dsc >= 0.95 and monotone and identical and elapsed < 900
    _report(7, "seeded overfit run", ok,
            f"DSC {final_dsc:.4f}, windows monotone={monotone}, "
            f"logs identical={identical}, {elapsed:.0f}s for two runs")


def test_criterion_8_ablation_grid():
    grid = []
    for macro in (True, False):
        for diff in (True, False):
            for crmsm in (True, False):
                grid.append(AblationFlags(use_mamba_macro=macro,
                                          use_differential=diff,
                                          use_crmsm=crmsm))
    grid += [AblationFlags(multi_view=False),
             AblationFlags(use_ssm=False),
             AblationFlags(causal_fusion=False)]

    t0 = time.time()
    ok = True
    x = Tensor(np.zeros((1, 1, 16, 16), np.float32))
    mask = np.zeros((1, 16, 16), dtype=int)
    mask[0, 4:10, 4:10] = 1
    for flags in grid:
        model = SamaUNet(_tiny_cfg(flags=flags), np.random.default_rng(0))
        loss = seg_loss(model(x), mask, 2)
        model.zero_grad()
        loss.backward()
        ok &= bool(np.isfinite(loss.item()))
        ok &= all(p.grad is None or np.all(np.isfinite(p.grad))
                  for _, p in model.named_parameters())
    on = SamaUNet(_tiny_cfg(flags=AblationFlags(use_mamba_macro=True)),
                  np.random.default_rng(0)).num_params()
    off = SamaUNet(_tiny_cfg(flags=AblationFlags(use_mamba_macro=False)),
                   np.random.default_rng(0)).num_params()
    ok &= on > off
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(8, "ablation-grid smoke", ok,
            f"{len(grid)} configs, params {on} > {off}, {elapsed:.1f}s")


def test_criterion_9_parameter_accounting(tmp_path):
    configs = [
        _tiny_cfg(),
        _tiny_cfg(flags=AblationFlags(use_crmsm=False), deep_supervision=False),
        _tiny_cfg(flags=AblationFlags(use_mamba_macro=False, causal_fusion=False),
                  ssm_static=True),
    ]
    ok = True
    counts = []
    for i, cfg in enumerate(configs):
        model = SamaUNet(cfg, np.random.default_rng(i))
        x = Tensor(np.zeros((1, 1, 16, 16), np.float32))
        report = build_report(model, lambda: model(x))
        save_checkpoint(tmp_path / f"ck{i}", model)
        stored = read_stn1(tmp_path / f"ck{i}" / "params.stn1").size
        counts.append((report.total_params, stored))
        ok &= report.total_params == stored
    _report(9, "profiler vs checkpoint parameter accounting", ok,
            ", ".join(f"{a}=={b}" for a, b in counts))
