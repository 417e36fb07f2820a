"""Full network: shape round-trips with padding, a straight-line loss
oracle, deep-supervision weighting, and seeded determinism."""

import numpy as np
import pytest

from conftest import naive_softmax
from samaseg.model import (ModelConfig, SamaUNet, _resize_mask_nearest, ds_weights,
                           log_softmax_classes, seg_loss)
from samaseg.sama import AblationFlags
from samaseg.tensor import Tensor


def tiny_cfg(**kw):
    base = dict(in_channels=1, num_classes=3, base_channels=8,
                stage_depths=[1, 1], channel_mults=[1, 2], heads=2, global_pool=2)
    base.update(kw)
    return ModelConfig(**base)


def naive_seg_loss(heads, mask, num_classes, eps=1e-5):
    """Loop/numpy reimplementation of the composite Dice + CE loss."""
    w = 0.5 ** np.arange(len(heads))
    w = w / w.sum()
    total = 0.0
    for head, wi in zip(heads, w):
        b, k, hh, ww = head.shape
        sh, sw = mask.shape[-2], mask.shape[-1]
        m = np.empty((b, hh, ww), dtype=int)
        for i in range(hh):
            for j in range(ww):
                m[:, i, j] = mask[:, (i * sh) // hh, (j * sw) // ww]
        p = np.moveaxis(naive_softmax(np.moveaxis(head, 1, -1)), -1, 1)
        ce = 0.0
        for n in range(b):
            for i in range(hh):
                for j in range(ww):
                    ce -= np.log(p[n, m[n, i, j], i, j])
        ce /= b * hh * ww
        dice = 0.0
        for c in range(1, k):
            g = (m == c).astype(float)
            inter = (p[:, c] * g).sum()
            dice += (2 * inter + eps) / (p[:, c].sum() + g.sum() + eps)
        total += wi * (ce + 1.0 - dice / (k - 1))
    return total


class TestShapes:
    def test_divisible_input(self, rng):
        model = SamaUNet(tiny_cfg(), rng)
        outs = model(Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32)))
        assert len(outs) == 2  # full-res head + one deep-supervision head
        assert outs[0].shape == (2, 3, 16, 16)
        assert outs[1].shape == (2, 3, 4, 4)

    def test_non_divisible_input_cropped_back(self, rng):
        model = SamaUNet(tiny_cfg(), rng)
        outs = model(Tensor(np.zeros((1, 1, 13, 10), dtype=np.float32)))
        assert outs[0].shape == (1, 3, 13, 10)

    def test_padding_backward_crops_gradient(self, rng):
        model = SamaUNet(tiny_cfg(), rng)
        x = Tensor(np.zeros((1, 1, 13, 10), dtype=np.float32), requires_grad=True)
        model(x)[0].sum().backward()
        assert x.grad.shape == (1, 1, 13, 10)

    def test_without_deep_supervision_single_head(self, rng):
        model = SamaUNet(tiny_cfg(deep_supervision=False), rng)
        outs = model(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
        assert len(outs) == 1

    def test_tiny_input_padded_up_to_divisor(self, rng):
        model = SamaUNet(tiny_cfg(), rng)
        outs = model(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
        assert outs[0].shape == (1, 3, 4, 4)

    def test_wrong_channel_count_rejected(self, rng):
        model = SamaUNet(tiny_cfg(), rng)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 2, 16, 16), dtype=np.float32)))

    def test_more_depths_than_mults_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(stage_depths=[1, 1, 1], channel_mults=[1, 2])


class TestLoss:
    def test_matches_loop_oracle(self, rng):
        heads = [rng.uniform(-2, 2, size=(2, 3, 8, 8)),
                 rng.uniform(-2, 2, size=(2, 3, 2, 2))]
        mask = rng.integers(0, 3, size=(2, 8, 8))
        loss = seg_loss([Tensor(h) for h in heads], mask, 3)
        np.testing.assert_allclose(float(loss.data.reshape(())),
                                   naive_seg_loss(heads, mask, 3), rtol=1e-10)

    def test_uniform_logits_ce_is_log_k(self):
        # zero logits, empty foreground: CE = ln K exactly, Dice terms ~0 vs eps
        logits = [Tensor(np.zeros((1, 2, 4, 4)))]
        mask = np.zeros((1, 4, 4), dtype=int)
        loss = float(seg_loss(logits, mask, 2).data.reshape(()))
        # dice on empty gt: inter=0, pred mass 8 -> term eps/(8+eps) ~ 0
        expected_ce = np.log(2.0)
        expected_dice_loss = 1.0 - 1e-5 / (8.0 + 1e-5)
        assert loss == pytest.approx(expected_ce + expected_dice_loss, rel=1e-9)

    def test_confident_correct_logits_near_zero_loss(self):
        mask = np.zeros((1, 6, 6), dtype=int)
        mask[0, 2:5, 2:5] = 1
        logits_arr = np.full((1, 2, 6, 6), -20.0)
        np.put_along_axis(logits_arr, mask[:, None], 20.0, axis=1)
        loss = float(seg_loss([Tensor(logits_arr)], mask, 2).data.reshape(()))
        assert loss < 1e-4

    def test_out_of_range_labels_rejected(self):
        logits = [Tensor(np.zeros((1, 2, 4, 4)))]
        with pytest.raises(ValueError):
            seg_loss(logits, np.full((1, 4, 4), 2), 2)

    def test_log_softmax_normalized(self, rng):
        z = rng.uniform(-3, 3, size=(2, 4, 3, 3))
        lp = log_softmax_classes(Tensor(z)).data
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)

    def test_loss_differentiable(self, rng):
        head = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True,
                      dtype=np.float64)
        seg_loss([head], np.zeros((1, 4, 4), dtype=int), 2).backward()
        assert head.grad is not None and np.all(np.isfinite(head.grad))


class TestDeepSupervision:
    def test_weights_halve_and_normalize(self):
        np.testing.assert_allclose(ds_weights(1), [1.0])
        np.testing.assert_allclose(ds_weights(2), [2 / 3, 1 / 3])
        np.testing.assert_allclose(ds_weights(4), np.array([8, 4, 2, 1]) / 15)
        for n in range(1, 6):
            assert ds_weights(n).sum() == pytest.approx(1.0)

    def test_resize_mask_nearest_matches_loop(self, rng):
        mask = rng.integers(0, 4, size=(2, 9, 7))
        out = _resize_mask_nearest(mask, 3, 2)
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(out[:, i, j],
                                              mask[:, (i * 9) // 3, (j * 7) // 2])


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = SamaUNet(tiny_cfg(), np.random.default_rng(5))
        b = SamaUNet(tiny_cfg(), np.random.default_rng(5))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data), na

    def test_forward_is_deterministic(self, rng):
        model = SamaUNet(tiny_cfg(), rng)
        x = np.random.default_rng(6).uniform(size=(1, 1, 16, 16)).astype(np.float32)
        out1 = model(Tensor(x))[0].data.copy()
        out2 = model(Tensor(x))[0].data
        assert np.array_equal(out1, out2)


class TestAblationWiring:
    def test_crmsm_off_removes_parameters(self, rng):
        on = SamaUNet(tiny_cfg(), np.random.default_rng(7))
        off = SamaUNet(tiny_cfg(flags=AblationFlags(use_crmsm=False)),
                       np.random.default_rng(7))
        on_names = {n for n, _ in on.named_parameters()}
        off_names = {n for n, _ in off.named_parameters()}
        assert any(n.startswith("crmsm.") for n in on_names)
        assert not any(n.startswith("crmsm.") for n in off_names)

    def test_bottleneck_skip_switch(self, rng):
        with_b = SamaUNet(tiny_cfg(), np.random.default_rng(8))
        without = SamaUNet(tiny_cfg(crmsm_on_bottleneck=False), np.random.default_rng(8))
        assert len(with_b.crmsm.scales) == 2
        assert len(without.crmsm.scales) == 1
        outs = without(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
        assert outs[0].shape == (1, 3, 16, 16)

    def test_macro_flag_orders_parameter_counts(self):
        on = SamaUNet(tiny_cfg(), np.random.default_rng(9))
        off = SamaUNet(tiny_cfg(flags=AblationFlags(use_mamba_macro=False)),
                       np.random.default_rng(9))
        assert on.num_params() > off.num_params()


class TestParameterNames:
    def test_names_and_order_unchanged_for_old_checkpoints(self):
        # checkpoint manifests key on these names in this order; any change
        # here stops existing checkpoints from loading
        def wb(*mods):
            return [f"{m}.{p}" for m in mods for p in ("weight", "bias")]

        def gb(*mods):
            return [f"{m}.{p}" for m in mods for p in ("gamma", "beta")]

        def attn(kind):
            a = f"mixer.attn_{kind}"
            return (wb(f"{a}.wq", f"{a}.wk", f"{a}.wv", f"{a}.wo") + [f"{a}.lam"]
                    + wb(f"{a}.pe_conv") + gb(f"{a}.gn"))

        block = (gb("norm1") + wb("mixer.in_proj", "mixer.dw", "mixer.res_proj")
                 + attn("local") + attn("global") + wb("mixer.out_proj")
                 + gb("norm2") + wb("ffn1", "ffn2"))
        ssm = ["ssm.a_log", "ssm.d_skip"] + wb("ssm.proj_delta", "ssm.proj_b", "ssm.proj_c")
        expected = (wb("patch_embed.conv1", "patch_embed.conv2")
                    + [f"stages.{i}.0.{n}" for i in range(2) for n in block]
                    + wb("downs.0.dw", "downs.0.pw")
                    + [f"crmsm.scales.{i}.{n}" for i in range(2) for n in ssm + wb("proj")]
                    + wb("ups.0", "dec_blocks.0.conv1", "dec_blocks.0.conv2", "dec_blocks.0.short",
                         "final_expand.up1", "final_expand.conv1", "final_expand.up2",
                         "final_expand.conv2", "head_full", "ds_heads.0"))
        model = SamaUNet(tiny_cfg(), np.random.default_rng(0))
        assert [n for n, _ in model.named_parameters()] == expected
        assert len(expected) == 132


class TestGraphSize:
    def test_overfit_step_graph_stays_small(self, monkeypatch):
        # windows and pooling cells are one op each, not one per tap or cell;
        # the bound keeps per-tap graphs (over 3,000 nodes here) from returning
        op = vars(Tensor)["_op"].__func__
        calls = []

        def counted(data, parents, backward):
            calls.append(1)
            return op(data, parents, backward)

        cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                          stage_depths=[1, 1, 1, 1])
        model = SamaUNet(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, size=(2, 1, 32, 32)).astype(np.float32))
        mask = rng.integers(0, 2, size=(2, 32, 32))
        monkeypatch.setattr(Tensor, "_op", staticmethod(counted))
        seg_loss(model(x), mask, cfg.num_classes)
        assert len(calls) <= 1500
