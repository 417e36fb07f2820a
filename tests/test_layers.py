"""Neural layers against independent oracles: direct-loop convolution,
adjointness identities, explicit normalization statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_conv2d, naive_softmax, randt
from samaseg.gradcheck import grad_check
from samaseg.gradsuite import _weighted_sum
from samaseg.layers import (Conv2d, ConvTranspose2d, GroupNorm, LayerNorm, Linear,
                            Module, adaptive_avg_pool2d, conv2d, fold, softmax_lastdim,
                            unfold)
from samaseg.tensor import Tensor


class TestLinear:
    def test_matches_affine_map(self, rng):
        lin = Linear(4, 3, rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(5, 4))
        expected = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, expected, rtol=1e-14)

    def test_batched_tokens(self, rng):
        lin = Linear(4, 6, rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 7, 4))
        expected = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, expected, rtol=1e-14)


CONV_GRID = pytest.mark.parametrize("stride,padding,groups", [
    (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 0, 2),
])


class TestConv2d:
    @CONV_GRID
    def test_matches_loop_oracle(self, rng, stride, padding, groups):
        conv = Conv2d(4, 6, 3, rng, stride=stride, padding=padding,
                      groups=groups, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 4, 5, 6))
        expected = naive_conv2d(x, conv.weight.data, conv.bias.data,
                                stride=stride, padding=padding, groups=groups)
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, rtol=1e-12, atol=1e-13)

    def test_depthwise_matches_loop_oracle(self, rng):
        conv = Conv2d(3, 3, 3, rng, stride=1, padding=1, groups=3, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 3, 4, 5))
        expected = naive_conv2d(x, conv.weight.data, conv.bias.data,
                                stride=1, padding=1, groups=3)
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, rtol=1e-12, atol=1e-13)

    @CONV_GRID
    def test_gradients_match_finite_differences(self, rng, stride, padding, groups):
        conv = Conv2d(4, 6, 3, rng, stride=stride, padding=padding,
                      groups=groups, dtype=np.float64)
        x = randt(rng, (2, 4, 5, 6))

        def f(_):
            return _weighted_sum(conv(x), np.random.default_rng(7))

        assert grad_check(f, [x] + conv.parameters()) < 1e-6

    def test_stride2_depthwise_matches_oracle_and_finite_differences(self, rng):
        # the geometry of Downsample.dw
        conv = Conv2d(3, 3, 3, rng, stride=2, padding=1, groups=3, dtype=np.float64)
        x = randt(rng, (2, 3, 5, 6))
        expected = naive_conv2d(x.data, conv.weight.data, conv.bias.data,
                                stride=2, padding=1, groups=3)
        np.testing.assert_allclose(conv(x).data, expected, rtol=1e-12, atol=1e-13)

        def f(_):
            return _weighted_sum(conv(x), np.random.default_rng(7))

        assert grad_check(f, [x] + conv.parameters()) < 1e-6

    def test_identity_kernel(self):
        w = Tensor(np.eye(2).reshape(2, 2, 1, 1).astype(np.float64))
        x = np.arange(2 * 3 * 3, dtype=np.float64).reshape(1, 2, 3, 3)
        np.testing.assert_array_equal(conv2d(Tensor(x), w, None).data, x)


class TestUnfoldFold:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_fold_is_adjoint_of_unfold(self, rng, k, stride, padding, groups):
        # <unfold(x), c> == <x, fold(c)>
        x = rng.uniform(-1, 1, size=(2, 4, 5, 6))
        cols = unfold(Tensor(x), k, k, stride, padding, groups).data
        c = rng.uniform(-1, 1, size=cols.shape)
        back = fold(Tensor(c), 5, 6, k, k, stride, padding).data
        assert back.shape == x.shape
        np.testing.assert_allclose(np.vdot(cols, c), np.vdot(x, back), rtol=1e-12)

    def test_fold_rejects_columns_that_do_not_tile_the_map(self):
        with pytest.raises(ValueError, match="do not tile"):
            fold(Tensor(np.zeros((1, 10, 20))), 4, 5, 3, 3, 1, 1)


class TestConvTranspose2d:
    @pytest.mark.parametrize("k,stride,padding,extent", [
        # extents chosen so the conv geometry round-trips exactly
        (2, 2, 0, 8), (3, 1, 1, 8), (3, 2, 1, 7), (4, 2, 1, 8),
    ])
    def test_adjoint_of_conv(self, rng, k, stride, padding, extent):
        # <Conv(x), y> == <x, ConvT(y)> when ConvT reuses the conv weight
        conv = Conv2d(3, 5, k, rng, stride=stride, padding=padding,
                      bias=False, dtype=np.float64)
        ct = ConvTranspose2d(5, 3, k, rng, stride=stride, padding=padding,
                             bias=False, dtype=np.float64)
        ct.weight.data = conv.weight.data.copy()  # [out,in,k,k] == [ct_in,ct_out,k,k]
        x = rng.uniform(-1, 1, size=(2, 3, extent, extent))
        fwd = conv(Tensor(x)).data
        y = rng.uniform(-1, 1, size=fwd.shape)
        back = ct(Tensor(y)).data
        np.testing.assert_allclose(np.vdot(fwd, y), np.vdot(x, back), rtol=1e-12)

    @pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 2, 1)])
    def test_gradients_match_finite_differences(self, rng, k, stride, padding):
        ct = ConvTranspose2d(3, 2, k, rng, stride=stride, padding=padding, dtype=np.float64)
        x = randt(rng, (2, 3, 3, 4))

        def f(_):
            return _weighted_sum(ct(x), np.random.default_rng(7))

        assert grad_check(f, [x] + ct.parameters()) < 1e-6

    def test_output_extent(self, rng):
        ct = ConvTranspose2d(2, 3, 2, rng, stride=2, dtype=np.float64)
        out = ct(Tensor(np.zeros((1, 2, 5, 7))))
        assert out.shape == (1, 3, 10, 14)

    def test_scatter_oracle(self, rng):
        # direct scatter-accumulate loop oracle
        ct = ConvTranspose2d(2, 3, 3, rng, stride=2, padding=1, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(1, 2, 4, 4))
        k, s, p = 3, 2, 1
        oh = (4 - 1) * s - 2 * p + k
        full = np.zeros((1, 3, oh + 2 * p, oh + 2 * p))
        for ic in range(2):
            for i in range(4):
                for j in range(4):
                    for oc in range(3):
                        full[0, oc, i * s:i * s + k, j * s:j * s + k] += \
                            x[0, ic, i, j] * ct.weight.data[ic, oc]
        expected = full[:, :, p:p + oh, p:p + oh] + ct.bias.data.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(ct(Tensor(x)).data, expected, rtol=1e-12, atol=1e-13)


class TestNorms:
    def test_groupnorm_statistics(self, rng):
        gn = GroupNorm(6, num_groups=2, dtype=np.float64)
        gn.gamma.data = rng.uniform(0.5, 1.5, size=6)
        gn.beta.data = rng.uniform(-0.5, 0.5, size=6)
        x = rng.uniform(-2, 2, size=(2, 6, 3, 4))
        g = x.reshape(2, 2, 3, 3, 4)
        mu = g.mean(axis=(2, 3, 4), keepdims=True)
        var = g.var(axis=(2, 3, 4), keepdims=True)
        norm = ((g - mu) / np.sqrt(var + 1e-5)).reshape(2, 6, 3, 4)
        expected = norm * gn.gamma.data.reshape(1, 6, 1, 1) + gn.beta.data.reshape(1, 6, 1, 1)
        np.testing.assert_allclose(gn(Tensor(x)).data, expected, rtol=1e-10, atol=1e-12)

    def test_groupnorm_output_standardized(self, rng):
        gn = GroupNorm(4, num_groups=2, dtype=np.float64)
        out = gn(Tensor(rng.uniform(-1, 1, size=(1, 4, 5, 5)))).data
        grouped = out.reshape(1, 2, 2, 5, 5)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-12)
        np.testing.assert_allclose(grouped.var(axis=(2, 3, 4)), 1.0, atol=1e-3)

    def test_layernorm_statistics(self, rng):
        ln = LayerNorm(5, dtype=np.float64)
        x = rng.uniform(-2, 2, size=(2, 5, 3, 3))
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(ln(Tensor(x)).data, expected, rtol=1e-10, atol=1e-12)


class TestPoolingSoftmax:
    def test_adaptive_pool_exact_divisor_is_mean(self, rng):
        x = rng.uniform(size=(1, 2, 6, 6))
        out = adaptive_avg_pool2d(Tensor(x), 3, 3).data
        expected = x.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    @pytest.mark.parametrize("h,w,row_cells,col_cells", [
        # floor/ceil edges; 5 -> 2 cells cover rows [0,3) and [2,5)
        (5, 5, [(0, 3), (2, 5)], [(0, 3), (2, 5)]),
        # output larger than input: every cell repeats the one pixel (32 px, stage 3)
        (1, 1, [(0, 1)] * 7, [(0, 1)] * 7),
        (3, 3, [(0, 1), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 3)],
         [(0, 1), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 3)]),
        (5, 3, [(0, 3), (2, 5)], [(0, 1), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 3)]),
    ], ids=["5x5-2x2", "1x1-7x7", "3x3-7x7", "5x3-2x7"])
    def test_adaptive_pool_uneven_cells(self, rng, h, w, row_cells, col_cells):
        x = rng.uniform(size=(2, 3, h, w))
        out = adaptive_avg_pool2d(Tensor(x), len(row_cells), len(col_cells)).data
        expected = np.empty((2, 3, len(row_cells), len(col_cells)))
        for i, (r0, r1) in enumerate(row_cells):
            for j, (c0, c1) in enumerate(col_cells):
                expected[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
        np.testing.assert_allclose(out, expected, rtol=1e-14)
        xt = Tensor(x, requires_grad=True)

        def f(_):
            return _weighted_sum(adaptive_avg_pool2d(xt, len(row_cells), len(col_cells)),
                                 np.random.default_rng(7))

        assert grad_check(f, [xt]) < 1e-7

    def test_global_pool_is_mean(self, rng):
        x = rng.uniform(size=(2, 3, 4, 7))
        np.testing.assert_allclose(adaptive_avg_pool2d(Tensor(x), 1, 1).data,
                                   x.mean(axis=(2, 3), keepdims=True), rtol=1e-14)

    def test_softmax_matches_oracle(self, rng):
        z = rng.uniform(-5, 5, size=(3, 4, 6))
        np.testing.assert_allclose(softmax_lastdim(Tensor(z)).data, naive_softmax(z),
                                   rtol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_softmax_rows_sum_to_one(self, n, m, seed):
        z = np.random.default_rng(seed).uniform(-30, 30, size=(n, m))
        s = softmax_lastdim(Tensor(z)).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    def test_softmax_shift_invariance(self, rng):
        z = rng.uniform(-2, 2, size=(2, 5))
        a = softmax_lastdim(Tensor(z)).data
        b = softmax_lastdim(Tensor(z + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-14)


class TestModuleBase:
    def test_named_parameters_deterministic_and_counted(self, rng):
        class Toy(Module):
            def __init__(self):
                self.first = Linear(3, 4, rng)
                self.blocks = [Linear(4, 4, rng) for _ in range(2)]
                self.grid = [[Linear(4, 2, rng, bias=False)], (None, Linear(2, 1, rng))]
                self.scale = Tensor(np.ones(4), requires_grad=True)

        toy = Toy()
        names = [n for n, _ in toy.named_parameters()]
        assert names == ["first.weight", "first.bias",
                         "blocks.0.weight", "blocks.0.bias",
                         "blocks.1.weight", "blocks.1.bias",
                         "grid.0.0.weight", "grid.1.1.weight", "grid.1.1.bias", "scale"]
        assert toy.num_params() == (3 * 4 + 4) + 2 * (4 * 4 + 4) + 4 * 2 + (2 + 1) + 4
        assert names == [n for n, _ in toy.named_parameters()]

    def test_zero_grad(self, rng):
        lin = Linear(2, 2, rng, dtype=np.float64)
        lin(Tensor(np.ones((1, 2)), requires_grad=True, dtype=np.float64)).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None
