"""Full network: shape round-trips with padding, a straight-line loss
oracle, the one-op loss against the autodiff chain it replaced,
deep-supervision weighting, and seeded determinism."""

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import div, log, mean, naive_softmax, rsub
from test_layers import UNET_POINTWISE
from samaseg.layers import COL_BUDGET, Conv2d, Linear, conv2d
from samaseg.model import (ModelConfig, SamaUNet, _resize_mask_nearest, ds_weights, predict,
                           seg_loss)
from samaseg.sama import AblationFlags
from samaseg.tensor import Tensor, no_grad


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


# The composite chain the one-op loss replaced, kept as the oracle for both
# values and gradients.

def log_softmax_classes(logits: Tensor) -> Tensor:
    """Log-softmax over the class axis (axis 1) of [B,K,H,W]."""
    m = logits.data.max(axis=1, keepdims=True)
    z = logits - Tensor(m)
    lse = log(z.exp().sum(axis=1, keepdims=True))
    return z - lse


def composite_seg_loss(logits, mask, num_classes, eps=1e-5):
    weights = ds_weights(len(logits))
    total = None
    for head, w in zip(logits, weights):
        b, k, hh, ww = head.shape
        m = _resize_mask_nearest(mask, hh, ww)
        onehot = np.zeros((b, k, hh, ww), dtype=head.dtype)
        np.put_along_axis(onehot, m[:, None], 1.0, axis=1)
        onehot_t = Tensor(onehot)

        logp = log_softmax_classes(head)
        ce = -mean((logp * onehot_t).sum(axis=1))

        if k > 1:
            # soft Dice of every foreground class at once: sums over batch and pixels
            p = logp.exp()[:, 1:]
            g = onehot[:, 1:]
            axes = (0, 2, 3)
            inter = (p * Tensor(g)).sum(axis=axes)
            denom = p.sum(axis=axes) + Tensor(g.sum(axis=axes)) + eps
            dice_loss = rsub(mean(div(inter * 2.0 + eps, denom)), 1.0)
        else:
            dice_loss = Tensor(np.zeros((), dtype=head.dtype))
        head_loss = ce + dice_loss
        total = head_loss * float(w) if total is None else total + head_loss * float(w)
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

    @pytest.mark.parametrize("setting", [
        {"flip_mode": "mirrorr"}, {"local_window": 4}, {"lambda_init": 1.5},
        {"global_pool": 0}, {"heads": 3},
    ])
    def test_attention_and_flip_settings_rejected_with_the_config(self, setting):
        # the rules AttnConfig and view_index apply run when the config is
        # made, not first when the model is built or run
        with pytest.raises(ValueError):
            ModelConfig(**setting)


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

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("num_heads", [1, 2, 3, 4])
    def test_one_op_matches_composite_chain(self, rng, dtype, tol, k, num_heads):
        heads = [rng.uniform(-3, 3, size=(2, k, 16 >> i, 12 >> i)).astype(dtype)
                 for i in range(num_heads)]
        mask = rng.integers(0, k, size=(2, 16, 12))
        np.testing.assert_allclose(
            np.exp(log_softmax_classes(Tensor(heads[0])).data).sum(axis=1), 1.0, atol=tol)
        results = []
        for loss_fn in (seg_loss, composite_seg_loss):
            # the second head takes no gradient
            leaves = [Tensor(h, requires_grad=i != 1) for i, h in enumerate(heads)]
            loss = loss_fn(leaves, mask, k)
            loss.backward()
            results.append((loss.data.reshape(()), [t.grad for t in leaves]))
        (got, got_grads), (want, want_grads) = results
        # the forward repeats the chain's float operations in order
        assert got.dtype == dtype and np.array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            if w is None:
                assert g is None
                continue
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=tol, atol=tol * np.abs(w).max())

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


class TestPredict:
    def test_matches_graph_recording_argmax_bit_for_bit(self, rng):
        model = SamaUNet(tiny_cfg(), np.random.default_rng(4))
        images = rng.uniform(-1, 1, size=(2, 1, 20, 24)).astype(np.float32)
        expected = model(Tensor(images))[0].data.argmax(axis=1)
        labels = predict(model, images)
        assert labels.shape == (2, 20, 24)
        np.testing.assert_array_equal(labels, expected)

    def test_forward_records_no_tape(self, monkeypatch):
        op = vars(Tensor)["_op"].__func__
        outs = []

        def kept(data, parents, backward):
            outs.append(op(data, parents, backward))
            return outs[-1]

        model = SamaUNet(tiny_cfg(), np.random.default_rng(4))
        monkeypatch.setattr(Tensor, "_op", staticmethod(kept))
        predict(model, np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert len(outs) > 100
        assert all(t._prev == () and t._backward is None for t in outs)


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

    def test_pointwise_layers_are_linear_with_the_1x1_conv_draws(self):
        # the ten 1x1 layers are Linear, no conv is 1x1, and a Linear draws
        # its weight and bias as Conv2d(k=1) did, so a seed gives the values
        # it gave when they were convs
        params = dict(SamaUNet(ModelConfig(), np.random.default_rng(0)).named_parameters())
        assert [n for n, t in params.items() if t.ndim == 4 and t.shape[2:] == (1, 1)] == []
        for name, cin, out, _ in UNET_POINTWISE:
            assert params[f"{name}.weight"].shape == (out, cin), name
            lin = Linear(cin, out, np.random.default_rng(1))
            conv = Conv2d(cin, out, 1, np.random.default_rng(1))
            assert lin.weight.data.tobytes() == conv.weight.data.tobytes(), name
            assert lin.bias.data.tobytes() == conv.bias.data.tobytes(), name


class TestGraphSize:
    def test_overfit_step_graph_stays_small(self, monkeypatch):
        # windows, pooling cells and the whole selective scan are one op
        # each, not one per tap, cell or discretisation step; the bound keeps
        # per-tap graphs (over 3,000 nodes here) from returning. Linear is
        # channel-major, so maps never round-trip through [B,N,C] tokens, and
        # the CR-MSM views are two gather ops per scale, not per-view
        # transposes, flips and flattens; the transpose bound keeps those
        # (209, then 69 transposes here) out. Linear, LayerNorm, GroupNorm,
        # softmax and SiLU are one op each, not chains of 3-9 nodes (1,176
        # nodes here as chains); so are Conv2d and ConvTranspose2d, not
        # chains of 6-7 nodes (699 nodes, 21 transposes here as chains).
        # The loss over all heads is one op, not a chain of 103 nodes, and
        # so is each attention core (392 nodes here with the cores as chains
        # of 9-14 nodes). The scan's skip term broadcasts d_skip with no
        # reshape node (284 nodes here with one per scale), each attention
        # core returns the [B,d,H,W] map with no reshape node (280 nodes
        # here with one per core), and each branch's epilogue, group norm
        # times (1 - lambda_init) plus the positional map, is one op (272
        # nodes here as three)
        op = vars(Tensor)["_op"].__func__
        calls = []

        def counted(data, parents, backward):
            calls.append(backward.__qualname__)
            return op(data, parents, backward)

        cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                          stage_depths=[1, 1, 1, 1])
        model = SamaUNet(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, size=(2, 1, 32, 32)).astype(np.float32))
        mask = rng.integers(0, 2, size=(2, 32, 32))
        monkeypatch.setattr(Tensor, "_op", staticmethod(counted))
        logits = model(x)
        forward = len(calls)
        seg_loss(logits, mask, cfg.num_classes)
        assert calls[forward:] == ["seg_loss.<locals>.bwd"]
        assert len(calls) <= 256
        blocks = sum(len(stage) for stage in model.stages)
        for core_op in ("DiffAggAttention._local_attend", "_attend_tokens"):
            assert calls.count(f"{core_op}.<locals>.bwd") == blocks
        assert sum(q.startswith("Tensor.transpose.") for q in calls) <= 12


    def test_overfit_forward_and_loss_leave_few_tracked_objects(self):
        # Objects the cyclic collector tracks that one overfit-recipe
        # forward plus seg_loss leaves alive: nodes, closures, their cells
        # and the tuples they hold. More of them move when a collection
        # runs, and so a process's peak RSS: a rebuild of the attention
        # cores' key softmax through a nested function per node left 16
        # more objects than the parent, and the benchmark's overfit peak
        # RSS read 6 MiB higher. The parent left 2,388; now 2,328
        cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                          stage_depths=[1, 1, 1, 1])
        model = SamaUNet(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, size=(2, 1, 32, 32)).astype(np.float32))
        mask = rng.integers(0, 2, size=(2, 32, 32))
        seg_loss(model(x), mask, cfg.num_classes).backward()   # fills the per-shape caches
        gc.collect()
        before = len(gc.get_objects())
        loss = seg_loss(model(x), mask, cfg.num_classes)
        gc.collect()
        left = len(gc.get_objects()) - before
        assert loss.requires_grad
        assert left <= 2340, left


class TestTapeMemory:
    def test_desk_forward_at_128px_retains_at_most_22_mib(self):
        # One graph-recording forward of the desk default at 128 px, batch 1:
        # what the tape keeps alive until the backward. A conv node keeps its
        # input, not the k^2-fold im2col columns; with the columns kept this
        # read 72.3 MiB, without them 47.3 MiB, and with each scan keeping
        # h only at its time blocks' ends 39.9 MiB. With the attention cores
        # keeping their key softmax and each branch's epilogue as three
        # nodes it read 26.9 MiB, and without them 21.2 MiB.
        model = SamaUNet(ModelConfig(), np.random.default_rng(0))
        img = np.random.default_rng(1).uniform(-1, 1, size=(1, 1, 128, 128)).astype(np.float32)
        predict(model, img)      # fills the per-shape caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits = model(Tensor(img))
            retained = (tracemalloc.get_traced_memory()[0] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert logits[0].requires_grad
        assert retained <= 22, f"{retained:.1f} MiB"


    def test_desk_forward_and_loss_at_128px_retain_at_most_22_mib(self):
        # The same forward plus seg_loss. With the nodes keeping im2col key
        # and value columns, differential weights, sigmoids, normalised
        # inputs and the scans' time-major copies, this read 39.9 MiB; with
        # the attention cores keeping their key softmax 27.0 MiB, and
        # without it 21.3 MiB
        model = SamaUNet(ModelConfig(), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        img = rng.uniform(-1, 1, size=(1, 1, 128, 128)).astype(np.float32)
        mask = rng.integers(0, model.cfg.num_classes, size=(1, 128, 128))
        predict(model, img)      # fills the per-shape caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = seg_loss(model(Tensor(img)), mask, model.cfg.num_classes)
            retained = (tracemalloc.get_traced_memory()[0] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert retained <= 22, f"{retained:.1f} MiB"

    def test_desk64_backward_peaks_at_most_10_mib_above_its_start(self):
        # One desk-default backward at 64 px, batch 2, its parameter
        # gradients included. The sweep frees each node's gradient and
        # releases the node once its closure has run; with every node and
        # gradient held until the sweep ended this read 18.3 MiB
        model = SamaUNet(ModelConfig(), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        img = rng.uniform(-1, 1, size=(2, 1, 64, 64)).astype(np.float32)
        mask = rng.integers(0, model.cfg.num_classes, size=(2, 64, 64))
        for _ in range(2):       # the first step fills the per-shape caches
            model.zero_grad()
            loss = seg_loss(model(Tensor(img)), mask, model.cfg.num_classes)
            peak = traced_peak_mib(loss.backward)
        assert all(t.grad is not None for t in model.parameters())
        assert peak <= 10, f"{peak:.1f} MiB"


def traced_peak_mib(fn) -> float:
    """tracemalloc's peak, in MiB above what was allocated before, while
    fn() runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


class TestConvMemory:
    # FinalExpand.conv2 of the desk default at 128 px: a 16->16 3x3 conv on a
    # [1,16,128,128] map (1 MiB) whose im2col columns take 9 MiB. Built in
    # row blocks of at most 1 MiB, the forward and both gradients; with the
    # whole columns at once the forward peaked at 10.0 MiB and the backward
    # with a frozen W at 11.1 MiB
    def conv_and_input(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.uniform(-1, 1, size=(16, 16, 3, 3)).astype(np.float32))
        x = Tensor(rng.uniform(-1, 1, size=(1, 16, 128, 128)).astype(np.float32),
                   requires_grad=True)
        return w, x

    def test_forward_at_128px_peaks_at_most_5_mib(self):
        w, x = self.conv_and_input()
        with no_grad():
            peak = traced_peak_mib(lambda: conv2d(x, w, None, padding=1))
        assert peak <= 5, f"{peak:.1f} MiB"

    def test_input_gradient_at_128px_peaks_at_most_5_mib(self):
        w, x = self.conv_and_input()
        y = conv2d(x, w, None, padding=1)
        g = np.ones(y.shape, dtype=np.float32)
        peak = traced_peak_mib(lambda: y.backward(g))
        assert x.grad is not None and w.grad is None
        assert peak <= 5, f"{peak:.1f} MiB"

    @pytest.mark.parametrize("side", [128, 256])
    def test_backward_with_w_holds_one_block_of_columns(self, side):
        # one backward of that conv, W trained, at 128 and 256 px: beyond
        # x's gradient it may hold 1.5 budgets of float32 columns at any map
        # size. With W's gradient from whole-map columns it read 9.0 and
        # 36.1 MiB; one row block at a time, 1.0 and 0.8 MiB
        rng = np.random.default_rng(0)
        w = Tensor(rng.uniform(-1, 1, size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, size=(1, 16, side, side)).astype(np.float32),
                   requires_grad=True)
        y = conv2d(x, w, None, padding=1)
        g = rng.uniform(-1, 1, size=y.shape).astype(np.float32)
        peak = traced_peak_mib(lambda: y._backward(g)) - x.grad.nbytes / 2**20
        assert w.grad is not None
        assert peak <= 1.5 * COL_BUDGET * 4 / 2**20, f"{peak:.2f} MiB"

    def test_desk_predict_at_256px_peaks_at_most_32_mib(self):
        # with each conv's whole columns at once this read 46.3 MiB
        model = SamaUNet(ModelConfig(), np.random.default_rng(0))
        img = np.random.default_rng(1).uniform(-1, 1, size=(1, 1, 256, 256)).astype(np.float32)
        predict(model, img)      # fills the per-shape caches outside the measurement
        peak = traced_peak_mib(lambda: predict(model, img))
        assert peak <= 32, f"{peak:.1f} MiB"
