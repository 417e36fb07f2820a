"""Differential aggregated attention: algebraic identities, a hand-worked
case, straight-line numpy oracles for both branches, exact masking, the
fused attention cores against the autodiff chains they replaced, and wall
time linear in pixel count."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samaseg
from conftest import (contract, diff_softmax, kept_kib, naive_conv2d, naive_softmax, unfold,
                      whole_map_attend_tokens, whole_map_local_attend)
from samaseg import attention
from samaseg.attention import (MASK_BIAS, AttnConfig, DiffAggAttention, _attend_tokens,
                               _key_softmax, _mask_bias, _neighborhood_mask, _weights)
from samaseg.layers import COL_BUDGET, adaptive_avg_pool2d, softmax
from samaseg.profiler import count_macs
from samaseg.tensor import Tensor, no_grad


def naive_diff_attention(q, k, v, lam):
    """Loop oracle for differential softmax attention; q/k [h,n|m,c], v [h,m,cv]."""
    h, n, c = q.shape
    c2 = c // 2
    scale = 1.0 / math.sqrt(c2)
    out = np.empty((h, n, v.shape[-1]))
    for hi in range(h):
        a1 = naive_softmax(q[hi, :, :c2] @ k[hi, :, :c2].T * scale)
        a2 = naive_softmax(q[hi, :, c2:] @ k[hi, :, c2:].T * scale)
        out[hi] = (a1 - lam[hi] * a2) @ v[hi]
    return out


class TestDiffSoftmaxAlgebra:
    def test_matches_loop_oracle(self, rng):
        q = rng.uniform(-1, 1, size=(3, 5, 4))
        k = rng.uniform(-1, 1, size=(3, 7, 4))
        v = rng.uniform(-1, 1, size=(3, 7, 6))
        lam = rng.uniform(0.2, 0.9, size=3)
        out = diff_softmax(Tensor(q), Tensor(k), Tensor(v), Tensor(lam))
        np.testing.assert_allclose(out.data, naive_diff_attention(q, k, v, lam),
                                   rtol=1e-12, atol=1e-13)

    def test_hand_worked_two_keys(self):
        # 1 head, 1 query, 2 keys, c=2 (split halves are scalars, scale=1)
        q = np.array([[[1.0, 0.5]]])
        k = np.array([[[2.0, -1.0], [0.0, 3.0]]])
        v = np.array([[[1.0], [2.0]]])
        lam = np.array([0.25])
        e1 = np.exp([1.0 * 2.0, 1.0 * 0.0])
        a1 = e1 / e1.sum()
        e2 = np.exp([0.5 * -1.0, 0.5 * 3.0])
        a2 = e2 / e2.sum()
        expected = (a1 - 0.25 * a2) @ np.array([1.0, 2.0])
        out = diff_softmax(Tensor(q), Tensor(k), Tensor(v), Tensor(lam))
        np.testing.assert_allclose(float(out.data.reshape(())), expected, rtol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_rows_sum_to_one_minus_lambda(self, h, n, m, seed):
        # attending over all-ones values reads off the attention row sums
        r = np.random.default_rng(seed)
        q = r.uniform(-2, 2, size=(h, n, 4))
        k = r.uniform(-2, 2, size=(h, m, 4))
        v = np.ones((h, m, 1))
        lam = r.uniform(0.1, 0.9, size=h)
        out = diff_softmax(Tensor(q), Tensor(k), Tensor(v), Tensor(lam))
        expected = np.broadcast_to((1.0 - lam).reshape(h, 1, 1), (h, n, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_lambda_zero_reduces_to_plain_attention(self, rng):
        q = rng.uniform(-1, 1, size=(2, 4, 6))
        k = rng.uniform(-1, 1, size=(2, 5, 6))
        v = rng.uniform(-1, 1, size=(2, 5, 3))
        out = diff_softmax(Tensor(q), Tensor(k), Tensor(v), Tensor(np.zeros(2)))
        c2 = 3
        plain = np.stack([
            naive_softmax(q[h, :, :c2] @ k[h, :, :c2].T / math.sqrt(c2)) @ v[h]
            for h in range(2)])
        np.testing.assert_allclose(out.data, plain, atol=1e-6)

    def test_plain_mode_softmax_rows_sum_to_one(self, rng):
        # one sub-head per head: plain softmax over the keys, so attending
        # over all-ones values reads off row sums of one; lam is unused
        q = Tensor(rng.uniform(-3, 3, size=(2, 3 * 2, 4)))         # [B, heads*cs, N]
        k = Tensor(rng.uniform(-3, 3, size=(2, 3 * 2, 5)))         # M = 5 keys
        v = Tensor(np.ones((2, 3, 5)))                             # cv = 1
        out = _attend_tokens(q, k, v, Tensor(np.full(3, 0.5)), sub=3, heads=3)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)


class TestMasking:
    def test_masked_keys_never_contribute(self, rng):
        # bit-identical output no matter what sits at masked key positions
        logits = rng.uniform(-1, 1, size=(1, 2, 5, 3))      # 1 head, 2 sub-heads, 5 keys
        v = rng.uniform(-1, 1, size=(1, 1, 2, 5))
        bias = np.zeros((5, 3))
        bias[3:] = MASK_BIAS
        lam = Tensor(np.array([0.8]))

        out1 = v @ _weights(_key_softmax(logits + bias), lam, heads=1)
        logits2, v2 = logits.copy(), v.copy()
        logits2[:, :, 3:] = 1e6
        v2[..., 3:] = -42.0
        w2 = _weights(_key_softmax(logits2 + bias), lam, heads=1)
        assert np.array_equal(w2[:, :, 3:], np.zeros((1, 1, 2, 3)))
        assert np.array_equal(out1, v2 @ w2)

    def test_neighborhood_mask_enumerated_2x2(self):
        m = _neighborhood_mask(2, 2, 3)
        assert m.shape == (4, 9)
        # pixel (0,0): only the bottom-right 2x2 of the 3x3 window is in-bounds
        expected00 = np.array([0, 0, 0, 0, 1, 1, 0, 1, 1], dtype=bool)
        np.testing.assert_array_equal(m[0], expected00)
        # pixel (1,1): only the top-left 2x2 of the window is in-bounds
        expected11 = np.array([1, 1, 0, 1, 1, 0, 0, 0, 0], dtype=bool)
        np.testing.assert_array_equal(m[3], expected11)

    def test_interior_pixels_fully_valid(self):
        m = _neighborhood_mask(5, 5, 3)
        assert m[2 * 5 + 2].all()


def _group_norm_np(x, groups, eps=1e-5):
    b, c = x.shape[:2]
    g = x.reshape(b, groups, -1)
    mu = g.mean(axis=2, keepdims=True)
    var = g.var(axis=2, keepdims=True)
    return ((g - mu) / np.sqrt(var + eps)).reshape(x.shape)


def _branch_oracle(attn: DiffAggAttention, x: np.ndarray) -> np.ndarray:
    """Straight-line numpy forward of one attention branch."""
    cfg = attn.cfg
    b, d, hh, ww = x.shape
    heads, c = cfg.heads, cfg.head_dim
    lam = attn.lam.data
    tokens = x.reshape(b, d, hh * ww).transpose(0, 2, 1)
    q = tokens @ attn.wq.weight.data.T + attn.wq.bias.data
    k = tokens @ attn.wk.weight.data.T + attn.wk.bias.data
    v = tokens @ attn.wv.weight.data.T + attn.wv.bias.data
    k_map = k.transpose(0, 2, 1).reshape(b, d, hh, ww)
    v_map = v.transpose(0, 2, 1).reshape(b, d, hh, ww)
    pe = naive_conv2d(v_map, attn.pe_conv.weight.data, attn.pe_conv.bias.data,
                      stride=1, padding=1, groups=d)

    attn_map = np.zeros_like(v_map)
    c2 = c // 2
    scale = 1.0 / math.sqrt(c2 if cfg.use_differential else c)

    def weights(keys, qv, hd):
        # keys [m,c], qv [c] -> attention weights over the m keys
        if not cfg.use_differential:
            return naive_softmax(keys @ qv * scale)
        a1 = naive_softmax(keys[:, :c2] @ qv[:c2] * scale)
        a2 = naive_softmax(keys[:, c2:] @ qv[c2:] * scale)
        return a1 - lam[hd] * a2

    if attn.kind == "local":
        p = cfg.local_window // 2
        for n in range(b):
            for hd in range(heads):
                ch = slice(hd * c, (hd + 1) * c)
                for i in range(hh):
                    for j in range(ww):
                        # valid in-bounds neighbors only
                        keys, vals = [], []
                        for di in range(-p, p + 1):
                            for dj in range(-p, p + 1):
                                ii, jj = i + di, j + dj
                                if 0 <= ii < hh and 0 <= jj < ww:
                                    keys.append(k_map[n, ch, ii, jj])
                                    vals.append(v_map[n, ch, ii, jj])
                        keys = np.stack(keys)
                        vals = np.stack(vals)
                        attn_map[n, ch, i, j] = weights(keys, q[n, i * ww + j, ch], hd) @ vals
    else:
        pp = cfg.global_pool
        assert hh % pp == 0 and ww % pp == 0  # oracle handles exact divisors only
        k_pool = k_map.reshape(b, d, pp, hh // pp, pp, ww // pp).mean(axis=(3, 5))
        v_pool = v_map.reshape(b, d, pp, hh // pp, pp, ww // pp).mean(axis=(3, 5))
        kp = k_pool.reshape(b, d, pp * pp)
        vp = v_pool.reshape(b, d, pp * pp)
        for n in range(b):
            for hd in range(heads):
                ch = slice(hd * c, (hd + 1) * c)
                for t in range(hh * ww):
                    a = weights(kp[n, ch].T, q[n, t, ch], hd)
                    attn_map[n, ch, t // ww, t % ww] = vp[n, ch] @ a

    out = _group_norm_np(attn_map, heads) * (1.0 - cfg.lambda_init) + pe
    out_tokens = out.reshape(b, d, hh * ww).transpose(0, 2, 1) @ attn.wo.weight.data.T \
        + attn.wo.bias.data
    return out_tokens.transpose(0, 2, 1).reshape(b, d, hh, ww)


class TestBranches:
    @pytest.mark.parametrize("use_differential", [True, False])
    def test_local_branch_matches_pixel_loop_oracle(self, rng, use_differential):
        cfg = AttnConfig(channels=4, heads=2, local_window=3, global_pool=2,
                         use_differential=use_differential)
        attn = DiffAggAttention(cfg, "local", rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 4, 3, 4))
        np.testing.assert_allclose(attn(Tensor(x)).data, _branch_oracle(attn, x),
                                   rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("use_differential", [True, False])
    def test_global_branch_matches_pooled_loop_oracle(self, rng, use_differential):
        cfg = AttnConfig(channels=4, heads=2, local_window=3, global_pool=2,
                         use_differential=use_differential)
        attn = DiffAggAttention(cfg, "global", rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 4, 4, 4))
        np.testing.assert_allclose(attn(Tensor(x)).data, _branch_oracle(attn, x),
                                   rtol=1e-9, atol=1e-11)

    def test_output_shape_preserved(self, rng):
        cfg = AttnConfig(channels=8, heads=4, global_pool=3)
        for kind in ("local", "global"):
            attn = DiffAggAttention(cfg, kind, rng)
            assert attn(Tensor(np.zeros((1, 8, 5, 7), dtype=np.float32))).shape \
                == (1, 8, 5, 7)

    def test_wrong_channel_count_rejected(self, rng):
        attn = DiffAggAttention(AttnConfig(channels=4, heads=2), "local", rng)
        with pytest.raises(ValueError):
            attn(Tensor(np.zeros((1, 6, 4, 4), dtype=np.float32)))


class TestConfigValidation:
    def test_heads_must_divide_channels(self):
        with pytest.raises(ValueError):
            AttnConfig(channels=6, heads=4)

    def test_differential_needs_even_head_dim(self):
        with pytest.raises(ValueError):
            AttnConfig(channels=4, heads=4)  # head_dim 1 cannot split
        AttnConfig(channels=4, heads=4, use_differential=False)  # fine without

    def test_window_must_be_odd(self):
        with pytest.raises(ValueError):
            AttnConfig(channels=4, heads=2, local_window=4)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            AttnConfig(channels=4, heads=2, lambda_init=1.5)

    def test_unknown_branch_kind(self, rng):
        with pytest.raises(ValueError):
            DiffAggAttention(AttnConfig(channels=4, heads=2), "diagonal", rng)


# The autodiff chains the fused cores replaced, kept as oracles for values
# and gradients: softmax, two strided slices, a lambda multiply and a
# subtract for the weights; unfold, contract and a mask add for the local
# branch; two matmuls around a transpose for the global one and for
# diff_softmax.

def composite_key_softmax(logits, lam, heads):
    s = softmax(logits, axis=-2)
    if s.shape[1] == heads:
        return s
    return s[:, 0::2] - lam.reshape(1, heads, 1, 1) * s[:, 1::2]


def composite_local(attn, q, k_map, v_map):
    cfg = attn.cfg
    b, d, hh, ww = v_map.shape
    sub, kk, n = attn.sub_heads, cfg.local_window, hh * ww
    cs = d // sub
    kn = unfold(k_map, kk, kk, 1, kk // 2, sub).reshape(b, sub, cs, kk * kk, n)
    logits = contract(q.reshape(b, sub, cs, 1, n), kn, axis=2) * (1.0 / cs ** 0.5)
    valid = _neighborhood_mask(hh, ww, kk).T
    mask_bias = Tensor(np.where(valid, 0.0, MASK_BIAS).astype(q.dtype))
    weights = composite_key_softmax(logits + mask_bias, attn.lam, cfg.heads)
    vn = unfold(v_map, kk, kk, 1, kk // 2, cfg.heads).reshape(
        b, cfg.heads, cfg.head_dim, kk * kk, n)
    return contract(weights.reshape(b, cfg.heads, 1, kk * kk, n), vn, axis=3).reshape(b, d, hh, ww)


def composite_global(attn, q, k_map, v_map):
    cfg = attn.cfg
    b, d, hh, ww = v_map.shape
    sub, pp, n = attn.sub_heads, cfg.global_pool, hh * ww
    cs, m = d // sub, pp * pp
    kt = adaptive_avg_pool2d(k_map, pp, pp).reshape(b, sub, cs, m).transpose(0, 1, 3, 2)
    logits = (kt @ q.reshape(b, sub, cs, n)) * (1.0 / cs ** 0.5)
    weights = composite_key_softmax(logits, attn.lam, cfg.heads)
    vp = adaptive_avg_pool2d(v_map, pp, pp).reshape(b, cfg.heads, cfg.head_dim, m)
    return (vp @ weights).reshape(b, d, hh, ww)


def composite_diff_softmax(q, k, v, lam):
    h, n, c = q.shape
    m, c2 = k.shape[1], c // 2
    ks = k.reshape(h, m, 2, c2).transpose(0, 2, 1, 3)            # [h,2,m,c/2]
    qs = q.reshape(h, n, 2, c2).transpose(0, 2, 3, 1)            # [h,2,c/2,n]
    logits = (ks @ qs).reshape(1, 2 * h, m, n) * (1.0 / c2 ** 0.5)
    return composite_key_softmax(logits, lam, h).reshape(h, m, n).transpose(0, 2, 1) @ v


CORE_INPUTS = ("q", "k_map", "v_map", "lam")


def _run_core(core, attn, arrays, frozen, seed):
    """Value and input gradients of one attention core on fresh tensors;
    the input named `frozen` does not require a gradient."""
    ts = {name: Tensor(a, requires_grad=name != frozen) for name, a in arrays.items()}
    attn.lam = ts["lam"]
    out = core(ts["q"], ts["k_map"], ts["v_map"])
    out.backward(seed.astype(out.dtype))
    return out.data, {name: t.grad for name, t in ts.items()}


def _assert_core_matches_chain(kind, use_differential, b, hw, size, dtype, frozen):
    heads, d = 2, 8
    cfg = AttnConfig(channels=d, heads=heads, local_window=size if kind == "local" else 3,
                     global_pool=size if kind == "global" else 2,
                     use_differential=use_differential)
    attn = DiffAggAttention(cfg, kind, np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    arrays = {name: rng.uniform(-2, 2, size=(b, d) + hw).astype(dtype)
              for name in ("q", "k_map", "v_map")}
    arrays["lam"] = rng.uniform(0.2, 0.9, size=heads).astype(dtype)
    seed = rng.standard_normal((b, d) + hw)
    fused = attn._local_attend if kind == "local" else attn._global_attend
    chain = composite_local if kind == "local" else composite_global
    out, grads = _run_core(fused, attn, arrays, frozen, seed)
    ref, ref_grads = _run_core(lambda *t: chain(attn, *t), attn, arrays, frozen, seed)
    assert out.dtype == ref.dtype and np.array_equal(out, ref)
    for name in CORE_INPUTS:
        if ref_grads[name] is None:
            assert grads[name] is None, name
        else:
            assert grads[name].dtype == ref_grads[name].dtype
            assert np.array_equal(grads[name], ref_grads[name]), name
    expect_lam = use_differential and frozen != "lam"
    assert (grads["lam"] is not None) == expect_lam


class TestFusedCores:
    # 3x5 and 4x4 maps; pool 2 does not divide 3x5 and pool 3 does not divide 4x4
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [3, 5], ids=["window3", "window5"])
    @pytest.mark.parametrize("hw", [(3, 5), (4, 4)], ids=["3x5", "4x4"])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("use_differential", [True, False], ids=["diff", "plain"])
    def test_local_core_matches_chain_bitwise(self, use_differential, b, hw, size, dtype):
        _assert_core_matches_chain("local", use_differential, b, hw, size, dtype, None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [2, 3], ids=["pool2", "pool3"])
    @pytest.mark.parametrize("hw", [(3, 5), (4, 4)], ids=["3x5", "4x4"])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("use_differential", [True, False], ids=["diff", "plain"])
    def test_global_core_matches_chain_bitwise(self, use_differential, b, hw, size, dtype):
        _assert_core_matches_chain("global", use_differential, b, hw, size, dtype, None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_differential", [True, False], ids=["diff", "plain"])
    @pytest.mark.parametrize("frozen", CORE_INPUTS)
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_input_without_gradient(self, kind, frozen, use_differential, dtype):
        _assert_core_matches_chain(kind, use_differential, 2, (3, 5), 3, dtype, frozen)

    @pytest.mark.parametrize("h,n,m,c,cv", [(1, 1, 1, 2, 1), (2, 5, 7, 4, 3), (4, 9, 3, 8, 6),
                                            (3, 17, 49, 16, 8), (2, 64, 49, 8, 8)])
    def test_diff_softmax_matches_chain(self, h, n, m, c, cv):
        # the core multiplies [cv,m] @ [m,n] where the chain multiplies
        # [n,m] @ [m,cv], so BLAS may round the output and the value
        # gradient one ulp apart (it does at m = 49)
        rng = np.random.default_rng(2)
        arrays = [rng.uniform(-2, 2, size=shape) for shape in ((h, n, c), (h, m, c), (h, m, cv))]
        arrays.append(rng.uniform(0.2, 0.9, size=h))
        seed = rng.standard_normal((h, n, cv))

        def run(attend):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            out = attend(*ts)
            out.backward(seed)
            return [out.data] + [t.grad for t in ts]

        for got, want in zip(run(diff_softmax), run(composite_diff_softmax), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_mask_bias_built_once_and_read_only(self):
        bias = _mask_bias(3, 5, 3, np.dtype(np.float32))
        assert _mask_bias(3, 5, 3, np.dtype(np.float32)) is bias
        assert not bias.flags.writeable
        assert bias.shape == (9, 15) and bias.dtype == np.float32
        valid = _neighborhood_mask(3, 5, 3).T
        assert np.array_equal(bias, np.where(valid, 0.0, MASK_BIAS).astype(np.float32))


class TestCoreGraphAndMacs:
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_each_core_is_one_node_with_pinned_macs(self, rng, monkeypatch, kind):
        b, d, hh, ww = 2, 8, 5, 6
        cfg = AttnConfig(channels=d, heads=2, local_window=5, global_pool=3)
        attn = DiffAggAttention(cfg, kind, rng)
        q, k_map, v_map = (Tensor(rng.uniform(-1, 1, size=(b, d, hh, ww)).astype(np.float32),
                                  requires_grad=True) for _ in range(3))
        op = vars(Tensor)["_op"].__func__
        calls = []

        def counted(data, parents, backward):
            calls.append(backward.__qualname__)
            return op(data, parents, backward)

        monkeypatch.setattr(Tensor, "_op", staticmethod(counted))
        core = attn._local_attend if kind == "local" else attn._global_attend
        with count_macs() as counter:
            core(q, k_map, v_map)
        keys = (cfg.local_window if kind == "local" else cfg.global_pool) ** 2
        assert counter.total == 2 * b * d * keys * hh * ww
        pools = [] if kind == "local" else ["adaptive_avg_pool2d.<locals>.bwd"] * 2
        core_op = ("DiffAggAttention._local_attend" if kind == "local" else "_attend_tokens")
        assert calls == pools + [f"{core_op}.<locals>.bwd"]

    def test_attend_tokens_is_one_node(self, rng, monkeypatch):
        q, k, v = (Tensor(rng.uniform(-1, 1, size=(1, 8, m)), requires_grad=True)
                   for m in (3, 5, 5))
        lam = Tensor(np.array([0.5, 0.7]), requires_grad=True)
        op = vars(Tensor)["_op"].__func__
        calls = []

        def counted(data, parents, backward):
            calls.append(backward.__qualname__)
            return op(data, parents, backward)

        monkeypatch.setattr(Tensor, "_op", staticmethod(counted))
        assert _attend_tokens(q, k, v, lam, sub=4, heads=2)._prev == (q, k, v, lam)
        assert _attend_tokens(q, k, v, lam, sub=4, heads=4)._prev == (q, k, v)
        assert calls == ["_attend_tokens.<locals>.bwd"] * 2
        # diff_softmax is layout ops around the same single op
        calls.clear()
        diff_softmax(*(Tensor(rng.uniform(-1, 1, size=s), requires_grad=True)
                       for s in ((2, 3, 4), (2, 5, 4), (2, 5, 6), (2,))))
        assert [c for c in calls if not c.startswith("Tensor.")] \
            == ["_attend_tokens.<locals>.bwd"]


def whole_map_global(attn, q, k_map, v_map):
    pp = attn.cfg.global_pool
    return whole_map_attend_tokens(q, adaptive_avg_pool2d(k_map, pp, pp),
                                   adaptive_avg_pool2d(v_map, pp, pp), attn.lam,
                                   attn.sub_heads, attn.cfg.heads)


def _assert_blocked_matches_whole_map(monkeypatch, kind, use_differential, b, hw, size, dtype):
    """Runs one blocked core and its whole-map op from conftest on the same
    inputs, all four needing gradients, asserts y and every gradient byte
    for byte, and returns the forward's block count: the blocks of each
    call of the core's softmax helper, which the backward must repeat."""
    heads, d = 2, 8
    cfg = AttnConfig(channels=d, heads=heads, local_window=size if kind == "local" else 3,
                     global_pool=size if kind == "global" else 2,
                     use_differential=use_differential)
    attn = DiffAggAttention(cfg, kind, np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    arrays = {name: rng.uniform(-2, 2, size=(b, d) + hw).astype(dtype)
              for name in ("q", "k_map", "v_map")}
    arrays["lam"] = rng.uniform(0.2, 0.9, size=heads).astype(dtype)
    seed = rng.standard_normal((b, d) + hw)
    helper = "_window_softmax" if kind == "local" else "_token_softmax"
    softmax_of_block = getattr(attention, helper)
    blocks = []

    def counted(*args, **kwargs):
        blocks.append(args[-1] if kind == "local" else args[1].shape[-1])
        return softmax_of_block(*args, **kwargs)

    monkeypatch.setattr(attention, helper, counted)
    blocked = attn._local_attend if kind == "local" else attn._global_attend
    whole = whole_map_local_attend if kind == "local" else whole_map_global
    out, grads = _run_core(blocked, attn, arrays, None, seed)
    ref, ref_grads = _run_core(lambda *t: whole(attn, *t), attn, arrays, None, seed)
    assert out.dtype == ref.dtype == dtype and out.tobytes() == ref.tobytes()
    for name in CORE_INPUTS:
        if name == "lam" and not use_differential:
            assert grads[name] is None and ref_grads[name] is None
            continue
        assert grads[name].dtype == ref_grads[name].dtype == dtype, name
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    forward = blocks[:len(blocks) // 2]
    assert blocks == forward + forward        # the backward rebuilds s over the same blocks
    return len(forward)


class TestPixelBlocks:
    """The cores run in blocks of pixels: rows of the map for the local core,
    query pixels in whole multiples of 16 for the token core, each block's
    temporaries under `COL_BUDGET` elements. Against the whole-map ops that
    they replaced (kept in conftest), y and every input gradient are byte
    for byte the same, on maps that split into pinned block counts and on
    an odd extent."""

    # b, map, window -> row blocks of the local core; 130x77 is the odd extent
    LOCAL = {(1, (130, 77), 3): 3, (1, (130, 77), 5): 10, (2, (40, 48), 3): 2,
             (2, (40, 48), 5): 5, (2, (3, 5), 3): 1}
    # b, map, pool, differential -> query blocks of the token core; a map of
    # other than a multiple of 16 pixels is one block
    GLOBAL = {(2, (64, 48), 7, True): 5, (2, (64, 48), 7, False): 3,
              (2, (64, 48), 5, True): 3, (2, (64, 48), 5, False): 2,
              (1, (130, 77), 7, True): 1, (1, (130, 77), 7, False): 1,
              (2, (3, 5), 2, True): 1, (2, (3, 5), 2, False): 1}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_differential", [True, False], ids=["diff", "plain"])
    @pytest.mark.parametrize("case", list(LOCAL), ids=lambda c: f"b{c[0]}-{c[1][0]}x{c[1][1]}-w{c[2]}")
    def test_local_core_matches_the_whole_map_op(self, monkeypatch, case, use_differential,
                                                 dtype):
        b, hw, size = case
        blocks = _assert_blocked_matches_whole_map(monkeypatch, "local", use_differential, b, hw,
                                                   size, dtype)
        assert blocks == self.LOCAL[case]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(GLOBAL),
                             ids=lambda c: f"b{c[0]}-{c[1][0]}x{c[1][1]}-p{c[2]}-"
                                           f"{'diff' if c[3] else 'plain'}")
    def test_token_core_matches_the_whole_map_op(self, monkeypatch, case, dtype):
        b, hw, size, use_differential = case
        blocks = _assert_blocked_matches_whole_map(monkeypatch, "global", use_differential, b, hw,
                                                   size, dtype)
        assert blocks == self.GLOBAL[case]

    @pytest.mark.parametrize("side", [128, 256])
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_no_grad_forward_peak_does_not_grow_with_the_map(self, kind, side):
        # a [1,16,side,side] float32 map, 4 heads, window 3 or pool 7: beyond
        # its output a core may hold 2.5 budgets of float32 at any map size.
        # With the whole map at once the local core read 23.8 and 95.0 MiB
        # and the token core 36.8 and 147.0 MiB; in blocks 1.9 / 1.6 and
        # 2.0 / 2.0 MiB
        attn = DiffAggAttention(AttnConfig(channels=16, heads=4), kind, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        maps = [Tensor(rng.uniform(-1, 1, size=(1, 16, side, side)).astype(np.float32))
                for _ in range(3)]
        core = attn._local_attend if kind == "local" else attn._global_attend
        with no_grad():
            core(*maps)          # builds the cached mask bias and pooling matrices
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = core(*maps)
                peak = (tracemalloc.get_traced_memory()[1] - base - out.data.nbytes) / 2**20
            finally:
                tracemalloc.stop()
        assert peak <= 2.5 * COL_BUDGET * 4 / 2**20, f"{peak:.2f} MiB"


class TestCoreTape:
    """What each core's node keeps for its backward: its parents, and for
    the token core its contiguous pooled keys, but no key softmax, no
    im2col columns and no differential weights, which the backward
    rebuilds (the bytewise cases of `TestFusedCores` and `TestPixelBlocks`
    check that the rebuild gives the same values and gradients)."""

    @staticmethod
    def _maps(dtype, shape=(1, 16, 32, 32)):
        rng = np.random.default_rng(1)
        return [Tensor(rng.uniform(-1, 1, size=shape).astype(dtype), requires_grad=True)
                for _ in range(3)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [3, 5], ids=["window3", "window5"])
    @pytest.mark.parametrize("use_differential", [True, False], ids=["diff", "plain"])
    def test_local_node_keeps_no_map_sized_array(self, use_differential, size, dtype):
        # a [1,16,32,32] float32 map's node held 1624 / 4503 KiB
        # (differential, windows 3 / 5) and 1298 / 3602 KiB (plain) with the
        # key and value columns and the weights kept, and 290 / 802 KiB
        # (differential) and 146 / 402 KiB (plain) with the key softmax s
        # kept; without it 1.3 / 1.4 KiB
        cfg = AttnConfig(channels=16, heads=4, local_window=size,
                         use_differential=use_differential)
        attn = DiffAggAttention(cfg, "local", np.random.default_rng(0), dtype=dtype)
        q, k_map, v_map = self._maps(dtype)
        attn._local_attend(q, k_map, v_map)    # builds the cached mask bias outside the count
        assert kept_kib(lambda: attn._local_attend(q, k_map, v_map)) <= 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_token_node_keeps_only_the_pooled_keys(self, dtype):
        # 7x7 pooled tokens for a [1,16,32,32] query map, 4 heads: the node
        # held 2357 KiB at float32 with the [1,4,49,1024] weights kept,
        # 1573 KiB with the [1,8,49,1024] key softmax s kept, and 4.9 KiB
        # (the 3.1 KiB of pooled keys among them) without it
        cfg = AttnConfig(channels=16, heads=4, global_pool=7)
        attn = DiffAggAttention(cfg, "global", np.random.default_rng(0), dtype=dtype)
        q, _, _ = self._maps(dtype)
        pk, pv = self._maps(dtype, (1, 16, 7, 7))[:2]
        kt_kib = 16 * 49 * np.dtype(dtype).itemsize / 2**10
        kept = kept_kib(lambda: _attend_tokens(q, pk, pv, attn.lam, attn.sub_heads, 4))
        assert kept <= kt_kib + 8


SCALING_SCRIPT = """
import json, sys, time
import numpy as np
from samaseg.attention import AttnConfig, DiffAggAttention
from samaseg.tensor import Tensor
kind, pool = sys.argv[1], int(sys.argv[2])
cfg = AttnConfig(channels=16, heads=4, local_window=3, global_pool=pool)
attn = DiffAggAttention(cfg, kind, np.random.default_rng(0))
data_rng = np.random.default_rng(1)
inputs = {s: data_rng.uniform(-1, 1, size=(1, 16, s, s)).astype(np.float32) for s in (32, 64)}
best = {s: float("inf") for s in inputs}
for _ in range(3):
    for s, x_np in inputs.items():
        x = Tensor(x_np, requires_grad=True)
        t0 = time.perf_counter()
        attn(x).sum().backward()
        best[s] = min(best[s], time.perf_counter() - t0)
        attn.zero_grad()
print(json.dumps(best[64] / best[32]))
"""


class TestWallTimeLinearity:
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_forward_backward_time_grows_linearly_in_pixels(self, kind):
        # 4x the pixels must cost under 8x the time. Each query attends a
        # fixed k*k window or P*P pooled grid, so the cost is linear; the
        # same script with the pool grid as large as the map (P*P = HW keys,
        # quadratic cost) measured over 8x. BLAS runs on one thread in a
        # fresh interpreter, as in the scan's linearity test.
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=str(Path(samaseg.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", SCALING_SCRIPT, kind, "7"], env=env,
                             check=True, stdout=subprocess.PIPE, text=True, timeout=300)
        ratio = json.loads(out.stdout)
        assert ratio < 8.0, ratio
