"""Neural layers against independent oracles: direct-loop convolution,
adjointness identities, explicit normalization statistics, and the fused
Linear, norm and softmax ops against the composite autodiff chains they
replaced."""

import json
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
from conftest import (assert_reordered_sum, div, kept_kib, mean, naive_conv2d,
                      naive_conv_transpose2d, naive_softmax, randt, sqrt, stored_normalize, unfold,
                      whole_map_conv_transpose2d)
from samaseg import layers
from samaseg.attention import MASK_BIAS
from samaseg.gradcheck import grad_check
from samaseg.gradsuite import _weighted_sum
from samaseg.layers import (Conv2d, ConvTranspose2d, GroupNorm, LayerNorm, Linear,
                            Module, _cell_matrix, _col2im, _im2col, adaptive_avg_pool2d,
                            conv2d, softmax)
from samaseg.profiler import count_macs
from samaseg.tensor import Tensor, no_grad


# The composite chains the fused ops replaced, kept as float64 oracles for
# both values and gradients.

def composite_norm(x, view, axis, gamma, beta, eps=1e-5):
    xv = x.reshape(*view)
    mu = mean(xv, axis=axis, keepdims=True)
    centered = xv - mu
    var = mean(centered * centered, axis=axis, keepdims=True)
    norm = div(centered, sqrt(var + eps)).reshape(*x.shape)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    return norm * gamma.reshape(shape) + beta.reshape(shape)


def composite_softmax(x, axis):
    e = (x - Tensor(x.data.max(axis=axis, keepdims=True))).exp()
    return div(e, e.sum(axis=axis, keepdims=True))


def values_and_grads(f, leaves):
    """f(leaves) and the gradients of a seeded weighted sum of it."""
    for t in leaves:
        t.zero_grad()
    out = f(leaves)
    _weighted_sum(out, np.random.default_rng(7)).backward()
    return out.data, [t.grad.copy() for t in leaves]


def with_and_without_bias(names, geometries):
    """Parametrize `names` over `geometries`, each with and without a bias;
    the biased cases keep the plain geometry id."""
    return pytest.mark.parametrize(names + ",bias", [
        pytest.param(*geo, bias, id="-".join(map(str, geo)) + ("" if bias else "-nobias"))
        for bias in (True, False) for geo in geometries])


def drop_bias_unless(bias, layer):
    """Remove the layer's bias unless `bias`. The layer is built with one so
    both cases share its weight and the input drawn after it."""
    if not bias:
        layer.bias = None


def assert_one_conv_node(layer, x):
    """The layer records one tape node whose parents are x and its own
    parameters."""
    y = layer(x)
    assert y._prev == (x, layer.weight) + ((layer.bias,) if layer.bias is not None else ())


def assert_same_op(fused, composite, leaves, rtol=1e-12):
    got, got_grads = values_and_grads(fused, leaves)
    want, want_grads = values_and_grads(composite, leaves)
    np.testing.assert_allclose(got, want, rtol=rtol)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=rtol)


# The desk-default UNet's ten 1x1 layers (C0 = 16, four stages, two
# classes): name, in and out channels, and the divisor of the image side
# they run at
UNET_POINTWISE = [
    ("downs.0.pw", 16, 32, 8), ("downs.1.pw", 32, 64, 16), ("downs.2.pw", 64, 128, 32),
    ("dec_blocks.0.short", 32, 16, 4), ("dec_blocks.1.short", 64, 32, 8),
    ("dec_blocks.2.short", 128, 64, 16), ("ds_heads.0", 16, 2, 4), ("ds_heads.1", 32, 2, 8),
    ("ds_heads.2", 64, 2, 16), ("head_full", 16, 2, 1),
]


class TestLinear:
    def test_matches_affine_map(self, rng):
        lin = Linear(4, 3, rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(5, 4))
        expected = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, expected, rtol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 4, 7), (2, 4, 3, 5)], ids=["BCN", "BCHW"])
    def test_contracts_channel_axis(self, rng, shape):
        lin = Linear(4, 6, rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=shape)
        cols = x.reshape(2, 4, -1)
        expected = (lin.weight.data @ cols + lin.bias.data[:, None]).reshape(2, 6, *shape[2:])
        np.testing.assert_allclose(lin(Tensor(x)).data, expected, rtol=1e-14)

    def test_wrong_channel_count_rejected(self, rng):
        lin = Linear(4, 6, rng, dtype=np.float64)
        with pytest.raises(ValueError, match="axis 1"):
            lin(Tensor(rng.uniform(-1, 1, size=(2, 7, 4))))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 4, 7), (2, 4, 3, 5)], ids=["BC", "BCN", "BCHW"])
    def test_one_op_matches_weight_matmul_values_grads_and_macs(self, rng, shape, bias):
        lin = Linear(4, 6, rng, bias=bias, dtype=np.float64)
        x = randt(rng, shape)
        b = shape[0]

        def composite(_):
            y = lin.weight @ x.reshape(b, 4, -1)
            if bias:
                y = y + lin.bias.reshape(6, 1)
            return y.reshape(b, 6, *shape[2:])

        assert_same_op(lambda _: lin(x), composite, [x] + lin.parameters())
        with count_macs() as counter:
            y = lin(x)
        assert counter.total == y.size * 4
        assert y._prev == ((x, lin.weight, lin.bias) if bias else (x, lin.weight))

        def f(_):
            return _weighted_sum(lin(x), np.random.default_rng(7))

        assert grad_check(f, [x] + lin.parameters()) < 1e-7

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [32, 64, 128])
    @pytest.mark.parametrize("cin,out,div", [layer[1:] for layer in UNET_POINTWISE],
                             ids=[layer[0] for layer in UNET_POINTWISE])
    def test_matches_1x1_conv_on_the_general_path(self, rng, cin, out, div, side, dtype, b):
        # the same layer as conv2d with W[..., None, None], whose 1x1 window
        # takes the im2col path: y and the x and W gradients keep their
        # bits; the bias gradient sums the batch before the pixels, so it
        # keeps them only at B = 1, and at B = 2 differs by a rounding of
        # the sum, bounded against the sum of |g| since the sums cancel
        lin = Linear(cin, out, rng, dtype=dtype)
        w4 = Tensor(lin.weight.data[..., None, None].copy(), requires_grad=True)
        b4 = Tensor(lin.bias.data.copy(), requires_grad=True)
        data = rng.uniform(-1, 1, size=(b, cin, side // div, side // div)).astype(dtype)
        x, x4 = Tensor(data, requires_grad=True), Tensor(data.copy(), requires_grad=True)
        y, y4 = lin(x), conv2d(x4, w4, b4)
        assert y.dtype == dtype and y.data.tobytes() == y4.data.tobytes()
        g = rng.uniform(-1, 1, size=y.shape).astype(dtype)
        y.backward(g.copy())
        y4.backward(g.copy())
        assert x.grad.tobytes() == x4.grad.tobytes()
        assert lin.weight.grad.tobytes() == w4.grad[..., 0, 0].tobytes()
        if b == 1:
            assert lin.bias.grad.tobytes() == b4.grad.tobytes()
        else:
            assert_reordered_sum(lin.bias.grad, b4.grad, np.abs(g).sum(axis=(0, 2, 3)))


def blocked_weight_grad(x, g, k, rows, halo_cut=0, drop=None):
    """The weight gradient of a k x k, stride-1, padding-k//2 conv, summed
    over blocks of `rows` output rows: each block's columns come from its
    own slice of the padded input, its rows plus a halo of k - 1 (less
    `halo_cut`, the rows cut replaced by zeros); block `drop` is left out."""
    b, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gw = np.zeros((g.shape[1], c * k * k), dtype=x.dtype)
    for i, r0 in enumerate(range(0, h, rows)):
        r1 = min(r0 + rows, h)
        xs = np.pad(xp[:, :, r0:r1 + k - 1 - halo_cut], ((0, 0), (0, 0), (0, halo_cut), (0, 0)))
        cols = _im2col(xs, k, k, 1, 0).reshape(b, c * k * k, -1)
        if i != drop:
            gw += np.matmul(g[:, :, r0:r1].reshape(b, g.shape[1], -1), cols.swapaxes(1, 2)).sum(0)
    return gw


class TestReorderedSumOracle:
    """`assert_reordered_sum` accepts a weight gradient summed over row
    blocks against the whole-map matmul, and rejects faults that no
    reordering can cause. Signed data makes the sums cancel, so there the
    1e-5 scaling shows only on the entries that cancel least; with
    non-negative data every entry shows it."""

    @staticmethod
    def _case(dtype, lo):
        rng = np.random.default_rng(0)
        x = rng.uniform(lo, 1, size=(2, 3, 16, 16)).astype(dtype)
        g = rng.uniform(lo, 1, size=(2, 4, 16, 16)).astype(dtype)
        cols = _im2col(x, 3, 3, 1, 1).reshape(2, 27, 256)
        gm = g.reshape(2, 4, 256)
        want = np.matmul(gm, cols.swapaxes(1, 2)).sum(0)
        terms = np.matmul(np.abs(gm), np.abs(cols).swapaxes(1, 2)).sum(0)
        return x, g, want, terms

    @pytest.mark.parametrize("lo", [-1.0, 0.0], ids=["signed", "nonnegative"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_blocks_pass(self, dtype, lo):
        x, g, want, terms = self._case(dtype, lo)
        got = blocked_weight_grad(x, g, 3, 4)
        assert got.tobytes() != want.tobytes()      # the order did change
        assert_reordered_sum(got, want, terms)

    @pytest.mark.parametrize("fault", ["dropped-block", "halo-cut-by-one", "scaled-1e-5"])
    @pytest.mark.parametrize("lo", [-1.0, 0.0], ids=["signed", "nonnegative"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_planted_faults_fail(self, dtype, lo, fault):
        x, g, want, terms = self._case(dtype, lo)
        got = {"dropped-block": lambda: blocked_weight_grad(x, g, 3, 4, drop=1),
               "halo-cut-by-one": lambda: blocked_weight_grad(x, g, 3, 4, halo_cut=1),
               "scaled-1e-5": lambda: want * dtype(1 + 1e-5)}[fault]()
        with pytest.raises(AssertionError, match="exceed 16u"):
            assert_reordered_sum(got, want, terms)


CONV_GEOMETRIES = [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 0, 2)]
CONV_GRID = pytest.mark.parametrize("stride,padding,groups", CONV_GEOMETRIES)


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

    @with_and_without_bias("stride,padding,groups", CONV_GEOMETRIES)
    def test_gradients_match_finite_differences(self, rng, stride, padding, groups, bias):
        conv = Conv2d(4, 6, 3, rng, stride=stride, padding=padding,
                      groups=groups, dtype=np.float64)
        x = randt(rng, (2, 4, 5, 6))
        drop_bias_unless(bias, conv)
        assert_one_conv_node(conv, x)

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

    @pytest.mark.parametrize("w_shape,padding", [((6, 4, 3, 3), 3), ((6, 4, 3, 5), 1)],
                             ids=["padding-3", "3x5"])
    def test_input_gradient_outside_the_flipped_kernel_domain(self, rng, monkeypatch, w_shape,
                                                             padding):
        # the flipped kernel's padding k - 1 - p must be >= 0 and the same on
        # both axes; a wider padding or a non-square kernel folds W^T @ g
        folds = []
        fold = layers._conv_input_grad
        monkeypatch.setattr(layers, "_conv_input_grad", lambda *a: folds.append(a) or fold(*a))
        x = randt(rng, (2, 4, 5, 6))
        w, bias = randt(rng, w_shape), randt(rng, (6,))

        def f(_):
            return _weighted_sum(conv2d(x, w, bias, padding=padding), np.random.default_rng(7))

        assert grad_check(f, [x, w, bias]) < 1e-6
        assert len(folds) == 1


def closure_arrays(fn):
    """Every array a closure holds, also through the functions it holds."""
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            yield v
        elif getattr(v, "__closure__", None):
            yield from closure_arrays(v)


def input_grad_oracle(w_np, g, x_shape, stride, padding, groups):
    """x's gradient of conv2d the long way, W^T @ g per group folded into
    a zero-padded buffer, and each entry's sum of |terms|: the same fold
    of |W|^T @ |g|."""
    b, c, h, w = x_shape
    out_ch, _, kh, kw = w_np.shape
    wt = w_np.reshape(groups, out_ch // groups, -1).swapaxes(-1, -2)
    gm = g.reshape(b, groups, out_ch // groups, -1)

    def fold(wt, gm):
        cols = np.matmul(wt, gm).reshape(b, c, kh, kw, *g.shape[2:])
        return padded_scatter_fold(cols, h, w, stride, padding)

    return fold(wt, gm), fold(np.abs(wt), np.abs(gm))


def assert_reordered(got, want, terms_abs_sum):
    """`got` sums the terms of `want` in another order: within
    `assert_reordered_sum`'s bound, and in float64 also within the float64
    oracles' rtol 1e-12 (atol 1e-13, as the loop oracles)."""
    assert_reordered_sum(got, want, terms_abs_sum)
    if got.dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


MATMUL_FORM_GROUPS = [(4, 6, 1), (4, 6, 2), (4, 4, 4), (4, 8, 4), (4, 2, 2)]
MATMUL_FORM_IDS = ["dense", "grouped", "depthwise", "depthwise-x2", "one-out-per-group"]


class TestConvTape:
    @pytest.mark.parametrize("out_ch,k,stride,padding,groups", [
        (6, 3, 1, 1, 1), (4, 3, 1, 1, 4), (6, 3, 2, 1, 1), (6, 1, 1, 0, 1),
    ], ids=["dense", "depthwise", "stride2", "pointwise"])
    def test_node_keeps_no_columns(self, rng, out_ch, k, stride, padding, groups):
        # the node keeps x, W and b; its im2col columns (k^2 copies of x,
        # or one for a 1x1 window) were kept until the backward before
        conv = Conv2d(4, out_ch, k, rng, stride=stride, padding=padding,
                      groups=groups, dtype=np.float64)
        x = randt(rng, (2, 4, 8, 8))
        y = conv(x)
        cols = x.shape[0] * x.shape[1] * k * k * y.shape[2] * y.shape[3]
        assert [a.shape for a in closure_arrays(y._backward) if a.size >= cols] == []

    @pytest.mark.parametrize("train_x", [True, False], ids=["x", "frozen-x"])
    @pytest.mark.parametrize("train_weight", [True, False], ids=["w", "frozen-w"])
    def test_backward_builds_x_columns_for_w_and_g_columns_for_x(self, rng, monkeypatch,
                                                                 train_weight, train_x):
        # x's columns are built once in the forward, and again only when W
        # needs a gradient; x's gradient, a stride-1 conv of g, builds g's
        # columns, and only when x needs one
        conv = Conv2d(4, 6, 3, rng, padding=1, dtype=np.float64)
        conv.weight.requires_grad = train_weight
        x = randt(rng, (2, 4, 5, 6), requires_grad=train_x)
        sources = []
        im2col = layers._im2col
        monkeypatch.setattr(layers, "_im2col", lambda a, *geo: sources.append(a) or im2col(a, *geo))
        y = conv(x)
        assert len(sources) == 1 and sources[0] is x.data
        sources.clear()
        _weighted_sum(y, np.random.default_rng(7)).backward()
        assert sum(a is x.data for a in sources) == train_weight
        assert [a.shape for a in sources if a is not x.data] == [y.shape] * train_x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,out_ch,groups", MATMUL_FORM_GROUPS, ids=MATMUL_FORM_IDS)
    def test_input_gradient_is_the_matmul_form_bit_for_bit(self, rng, cin, out_ch, groups,
                                                           dtype):
        # a stride-2 conv folds W^T @ g; with one output channel per group
        # that product has an inner dimension of 1 and is formed as a
        # broadcast product, which must give the bits of the batched
        # matmul that groups = C with out = 2C still takes
        conv = Conv2d(cin, out_ch, 3, rng, stride=2, padding=1, groups=groups, dtype=dtype)
        x = Tensor(rng.uniform(-1, 1, size=(2, cin, 5, 6)).astype(dtype), requires_grad=True)
        y = conv(x)
        g = rng.uniform(-1, 1, size=y.shape).astype(dtype)
        y.backward(g)
        want, _ = input_grad_oracle(conv.weight.data, g, x.shape, 2, 1, groups)
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,out_ch,groups", MATMUL_FORM_GROUPS, ids=MATMUL_FORM_IDS)
    def test_stride1_input_gradient_is_the_matmul_form_reordered(self, rng, cin, out_ch, groups,
                                                                 dtype):
        # stride 1 runs the flipped kernel over g, which sums the same
        # products as col2im(W^T @ g) in another order
        conv = Conv2d(cin, out_ch, 3, rng, padding=1, groups=groups, dtype=dtype)
        x = Tensor(rng.uniform(-1, 1, size=(2, cin, 5, 6)).astype(dtype), requires_grad=True)
        y = conv(x)
        g = rng.uniform(-1, 1, size=y.shape).astype(dtype)
        y.backward(g)
        assert_reordered(x.grad, *input_grad_oracle(conv.weight.data, g, x.shape, 1, 1, groups))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,out_ch,groups", [(64, 32, 1), (8, 16, 2), (8, 8, 8)],
                             ids=["dense", "grouped", "depthwise"])
    def test_pointwise_input_gradient_is_the_fold_path(self, rng, cin, out_ch, groups, dtype):
        # a 1x1 conv runs the general path, whose flipped kernel is a view
        # of W^T: x's gradient must be exactly W^T @ g folded into a
        # zeroed map, which `Linear` gives too
        conv = Conv2d(cin, out_ch, 1, rng, groups=groups, dtype=dtype)
        x = Tensor(rng.uniform(-1, 1, size=(2, cin, 16, 16)).astype(dtype), requires_grad=True)
        y = conv(x)
        g = rng.uniform(-1, 1, size=y.shape).astype(dtype)
        y.backward(g)
        wt = conv.weight.data.reshape(groups, out_ch // groups, -1).swapaxes(-1, -2)
        gcols = np.matmul(wt, g.reshape(2, groups, out_ch // groups, -1))
        want = np.zeros(x.shape, dtype=dtype)
        layers._fold(want, gcols.reshape(2, cin, 1, 1, 16, 16), 1, 0, (0, 16), (0, 16))
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,out_ch,k,stride,padding,groups,blocks", [
        ((2, 16, 128, 128), 32, 3, 2, 1, 1, 5),
        ((1, 8, 130, 77), 8, 5, 1, 2, 1, 1),
        ((1, 64, 128, 96), 64, 3, 1, 1, 64, 1),
        ((1, 8, 256, 256), 16, 3, 1, 1, 1, 22),
        ((2, 16, 64, 64), 16, 3, 1, 1, 1, 6),
        ((2, 16, 64, 64), 16, 3, 1, 1, 2, 2),
        ((1, 64, 5, 160), 16, 3, 1, 1, 1, 5),
    ], ids=["stride2", "5x5-130x77", "depthwise-128x96", "256px", "2x16x64x64", "grouped",
            "one-row-blocks"])
    def test_row_blocks_give_the_unblocked_matmul_bit_for_bit(self, rng, monkeypatch, shape,
                                                             out_ch, k, stride, padding, groups,
                                                             blocks, dtype):
        # y, x's gradient and W's gradient against one im2col matmul over the
        # whole map, its input gradient folded the long way into a padded
        # buffer. y keeps its bits, and so do the stride-2 input gradient and
        # a one-block W gradient; the stride-1 input gradient (a conv of g)
        # and a W gradient summed over several blocks reorder their sums.
        # Rows of 77 pixels, not a multiple of 16, and a matrix-vector conv
        # (depthwise) stay one block; in the last case one row's columns
        # nearly fill the budget, so every block, the last included, holds
        # one output row
        b, c, h, w = shape
        x_np = rng.uniform(-1, 1, size=shape).astype(dtype)
        w_np = rng.uniform(-1, 1, size=(out_ch, c // groups, k, k)).astype(dtype)
        oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
        g = rng.uniform(-1, 1, size=(b, out_ch, oh, ow)).astype(dtype)

        x, weight = Tensor(x_np, requires_grad=True), Tensor(w_np, requires_grad=True)
        calls = []
        im2col = layers._im2col
        monkeypatch.setattr(layers, "_im2col", lambda *a: calls.append(a) or im2col(*a))
        y = conv2d(x, weight, None, stride, padding, groups)
        assert len(calls) == blocks
        monkeypatch.undo()
        y.backward(g)

        cols = unfold(Tensor(x_np), k, k, stride, padding, groups).data
        wm = w_np.reshape(groups, out_ch // groups, -1)
        gm = g.reshape(b, groups, out_ch // groups, -1)
        gw = np.matmul(gm, cols.swapaxes(-1, -2)).sum(axis=0).reshape(w_np.shape)
        gw_terms = (np.matmul(np.abs(gm), np.abs(cols).swapaxes(-1, -2)).sum(axis=0)
                    .reshape(w_np.shape))
        gx, gx_terms = input_grad_oracle(w_np, g, shape, stride, padding, groups)
        for got, want, terms in ((y.data, np.matmul(wm, cols).reshape(g.shape), None),
                                 (x.grad, gx, gx_terms if stride == 1 else None),
                                 (weight.grad, gw, gw_terms if blocks > 1 else None)):
            assert got.dtype == want.dtype and got.shape == want.shape
            if terms is None:
                assert got.tobytes() == want.tobytes()
            else:
                assert_reordered(got, want, terms)


class TestFlippedKernelInputGrad:
    """A stride-1 conv's input gradient is the conv of g, padded k - 1 - p,
    by W with both tap axes reversed and transposed within each group. It
    sums the products of col2im(W^T @ g) in another order, so it is checked
    against the long-way fold by `assert_reordered`."""

    @staticmethod
    def _run(rng, monkeypatch, shape, out_ch, k, padding, groups, dtype):
        """x's gradient, the fold oracle with its sums of |terms|, and the
        sources of every im2col call of the backward."""
        folds, sources = [], []
        fold, im2col = layers._conv_input_grad, layers._im2col
        x = Tensor(rng.uniform(-1, 1, size=shape).astype(dtype), requires_grad=True)
        w_np = rng.uniform(-1, 1, size=(out_ch, shape[1] // groups, k, k)).astype(dtype)
        y = conv2d(x, Tensor(w_np), None, padding=padding, groups=groups)
        g = rng.uniform(-1, 1, size=y.shape).astype(dtype)
        monkeypatch.setattr(layers, "_conv_input_grad", lambda *a: folds.append(a) or fold(*a))
        monkeypatch.setattr(layers, "_im2col", lambda a, *geo: sources.append(a) or im2col(a, *geo))
        y.backward(g)
        assert folds == [] and x.grad.dtype == dtype
        return x.grad, input_grad_oracle(w_np, g, shape, 1, padding, groups), sources

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,padding", [(k, p) for k in (3, 5) for p in range(k)],
                             ids=[f"k{k}-p{p}" for k in (3, 5) for p in range(k)])
    @pytest.mark.parametrize("cin,out_ch,groups", [(4, 6, 1), (4, 6, 2), (4, 4, 4)],
                             ids=["dense", "grouped", "depthwise"])
    def test_matches_the_fold(self, rng, monkeypatch, cin, out_ch, groups, k, padding, dtype):
        got, (want, terms), _ = self._run(rng, monkeypatch, (2, cin, 7, 9), out_ch, k, padding,
                                          groups, dtype)
        assert_reordered(got, want, terms)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_extent(self, rng, monkeypatch, dtype):
        got, (want, terms), _ = self._run(rng, monkeypatch, (1, 8, 130, 77), 8, 5, 2, 1, dtype)
        assert_reordered(got, want, terms)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_columns_of_g(self, rng, monkeypatch, dtype):
        # g [2,16,64,64] through a 3x3 kernel takes 2^20 column elements,
        # four budgets: its columns are built in six blocks of output rows
        got, (want, terms), sources = self._run(rng, monkeypatch, (2, 16, 64, 64), 16, 3, 1, 1,
                                                dtype)
        assert [a.shape for a in sources] == [(2, 16, 64, 64)] * 6
        assert_reordered(got, want, terms)


SCALING_SCRIPT = """
import json, time
import numpy as np
from samaseg.layers import conv2d
from samaseg.tensor import Tensor
rng = np.random.default_rng(0)
w = Tensor(rng.uniform(-1, 1, size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
inputs = {s: rng.uniform(-1, 1, size=(1, 16, s, s)).astype(np.float32) for s in (128, 256)}
best = {s: float("inf") for s in inputs}
for _ in range(5):
    for s, x_np in inputs.items():
        x = Tensor(x_np, requires_grad=True)
        t0 = time.perf_counter()
        conv2d(x, w, None, padding=1).sum().backward()
        w.grad = None
        best[s] = min(best[s], time.perf_counter() - t0)
print(json.dumps(best[256] / best[128]))
"""


class TestWallTimeLinearity:
    def test_dense_conv_forward_and_backward_grow_linearly_in_pixels(self):
        # The desk default's full-resolution 16->16 3x3 conv, forward plus
        # the x and W gradients: 4x the pixels must cost under 5x the time.
        # Built from whole-map columns (9 MiB at 128 px, 38 MiB at 256 px,
        # against 2 MiB of L2) the forward plus x's gradient read 5.7-7.4;
        # in row blocks within the budget, 3.7-4.1. BLAS runs on one thread
        # in a fresh interpreter, as in the scan's linearity test.
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=str(Path(samaseg.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", SCALING_SCRIPT], env=env, check=True,
                             stdout=subprocess.PIPE, text=True, timeout=300)
        ratio = json.loads(out.stdout)
        assert ratio < 5.0, ratio


def padded_scatter_fold(cols, h, w, s, p):
    """col2im the long way: every tap added into a zero-padded buffer,
    padding included, then cropped."""
    b, c, kh, kw, oh, ow = cols.shape
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    for ky in range(kh):
        for kx in range(kw):
            xp[:, :, ky:ky + (oh - 1) * s + 1:s, kx:kx + (ow - 1) * s + 1:s] += cols[:, :, ky, kx]
    return xp[:, :, p:p + h, p:p + w]


FOLD_EDGES = pytest.mark.parametrize("extent,k,stride,padding", [
    ((1, 1), 3, 1, 1),      # every tap but the centre reads only padding
    ((1, 4), 3, 1, 1),      # empty taps along one axis only
    ((2, 3), 3, 1, 2),      # padding wider than a tap's reach into the map
    ((5, 6), 3, 2, 1),      # stride 2
    ((7, 5), 3, 2, 0),      # stride 2 leaves the last row and column unread
    ((6, 6), 2, 2, 0),      # k = s = 2, p = 0: the taps tile the map
], ids=["1x1-empty-taps", "1x4", "wide-padding", "stride2", "stride2-unread", "k2s2"])


class TestUnfoldFold:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_fold_is_adjoint_of_unfold(self, rng, k, stride, padding, groups):
        # <im2col(x), c> == <x, col2im(c)>; unfold is im2col with grouped rows
        x = rng.uniform(-1, 1, size=(2, 4, 5, 6))
        cols = _im2col(x, k, k, stride, padding)
        unfolded = unfold(Tensor(x), k, k, stride, padding, groups).data
        np.testing.assert_array_equal(unfolded, cols.reshape(unfolded.shape))
        c = rng.uniform(-1, 1, size=cols.shape)
        back = _col2im(c, 5, 6, stride, padding)
        assert back.shape == x.shape
        np.testing.assert_allclose(np.vdot(cols, c), np.vdot(x, back), rtol=1e-12)

    @FOLD_EDGES
    def test_fold_at_edge_extents_is_adjoint_and_matches_padded_scatter(self, rng, extent, k,
                                                                        stride, padding):
        x = rng.uniform(-1, 1, size=(2, 3, *extent))
        cols = _im2col(x, k, k, stride, padding)
        c = rng.uniform(-1, 1, size=cols.shape)
        back = _col2im(c, *extent, stride, padding)
        np.testing.assert_allclose(np.vdot(cols, c), np.vdot(x, back), rtol=1e-12)
        assert back.flags.c_contiguous
        np.testing.assert_array_equal(back, padded_scatter_fold(c, *extent, stride, padding))


# extents chosen so the conv geometry round-trips exactly
CONVT_GRID = pytest.mark.parametrize("k,stride,padding,extent", [
    (2, 2, 0, 8), (3, 1, 1, 8), (3, 2, 1, 7), (4, 2, 1, 8),
])


class TestConvTranspose2d:
    @CONVT_GRID
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

    @CONVT_GRID
    def test_matches_loop_oracle(self, rng, k, stride, padding, extent):
        ct = ConvTranspose2d(5, 3, k, rng, stride=stride, padding=padding, dtype=np.float64)
        n = (extent + 2 * padding - k) // stride + 1        # the conv's output extent
        x = rng.uniform(-1, 1, size=(2, 5, n, n))
        expected = naive_conv_transpose2d(x, ct.weight.data, ct.bias.data, stride, padding)
        np.testing.assert_allclose(ct(Tensor(x)).data, expected, rtol=1e-12)

    @with_and_without_bias("k,stride,padding", [(2, 2, 0), (3, 2, 1)])
    def test_gradients_match_finite_differences(self, rng, k, stride, padding, bias):
        ct = ConvTranspose2d(3, 2, k, rng, stride=stride, padding=padding, dtype=np.float64)
        x = randt(rng, (2, 3, 3, 4))
        drop_bias_unless(bias, ct)
        assert_one_conv_node(ct, x)

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

    def test_input_channels_must_match_the_weight(self, rng):
        ct = ConvTranspose2d(2, 3, 2, rng, stride=2, dtype=np.float64)
        with pytest.raises(ValueError, match="transposed conv expects 2 channels"):
            ct(Tensor(np.zeros((1, 3, 4, 4))))

    @pytest.mark.parametrize("extent", [2, 1])
    def test_empty_output_is_rejected(self, rng, extent):
        # (H-1)s - 2p + k is 0 at 2x2 and -1 at 1x1
        ct = ConvTranspose2d(2, 3, 3, rng, stride=1, padding=2, dtype=np.float64)
        with pytest.raises(ValueError, match="would be empty"):
            ct(Tensor(np.zeros((1, 2, extent, extent))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,out_ch,k,stride,padding,blocks", [
        ((2, 16, 64, 64), 16, 2, 2, 0, 3),
        ((2, 16, 64, 64), 16, 4, 2, 1, 11),
        ((2, 8, 9, 16), 8, 3, 2, 1, 1),
        ((2, 128, 1, 1), 64, 2, 2, 0, 1),
        ((2, 64, 2, 2), 32, 2, 2, 0, 1),
        ((2, 32, 4, 4), 16, 2, 2, 0, 1),
        ((2, 16, 8, 8), 16, 2, 2, 0, 1),
        ((2, 16, 16, 16), 16, 2, 2, 0, 1),
        ((2, 128, 2, 2), 64, 2, 2, 0, 1),
        ((2, 64, 4, 4), 32, 2, 2, 0, 1),
        ((2, 32, 8, 8), 16, 2, 2, 0, 1),
        ((2, 16, 32, 32), 16, 2, 2, 0, 1),
        ((1, 128, 4, 4), 64, 2, 2, 0, 1),
        ((1, 64, 8, 8), 32, 2, 2, 0, 1),
        ((1, 32, 16, 16), 16, 2, 2, 0, 1),
        ((1, 16, 32, 32), 16, 2, 2, 0, 1),
        ((1, 16, 64, 64), 16, 2, 2, 0, 1),
    ], ids=["split", "split-k4-overlap", "k3-overlap",
            "overfit-ups.2-1x1", "overfit-ups.1-2x2", "overfit-ups.0-4x4", "overfit-up1-8x8",
            "overfit-up2-desk64-up1-16x16", "desk64-ups.2-2x2", "desk64-ups.1-4x4", "desk64-ups.0-8x8",
            "desk64-up2-32x32", "128px-ups.2-4x4", "128px-ups.1-8x8", "128px-ups.0-16x16",
            "128px-up1-32x32", "128px-up2-64x64"])
    def test_blocked_kernels_give_the_whole_map_op_bit_for_bit(self, monkeypatch, shape, out_ch,
                                                               k, stride, padding, blocks,
                                                               dtype):
        # y and the x, W and b gradients against the whole-map op, byte for
        # byte but for W's gradient over several blocks, which sums the
        # blocks' products. The forward folds one block of rows per call;
        # [2,16,64,64] holds 2^19 column elements against the 2^18 budget,
        # and 128 px's up2 exactly 2^18, one block. The other shapes are the
        # upsamplers of the overfit recipe (batch 2), desk64 (batch 2) and
        # the desk default at 128 px (batch 1)
        rng = np.random.default_rng(0)
        b, c, h, w = shape
        ct = ConvTranspose2d(c, out_ch, k, rng, stride=stride, padding=padding, dtype=dtype)
        x_np = rng.uniform(-1, 1, size=shape).astype(dtype)
        oh, ow = (h - 1) * stride - 2 * padding + k, (w - 1) * stride - 2 * padding + k
        g = rng.uniform(-1, 1, size=(b, out_ch, oh, ow)).astype(dtype)

        folds = []
        fold = layers._fold
        monkeypatch.setattr(layers, "_fold", lambda *a: folds.append(a) or fold(*a))
        x = Tensor(x_np, requires_grad=True)
        y = ct(x)
        monkeypatch.undo()
        assert len(folds) == blocks
        y.backward(g)
        got = [y.data, x.grad, ct.weight.grad, ct.bias.grad]

        ct.zero_grad()
        x = Tensor(x_np, requires_grad=True)
        y = whole_map_conv_transpose2d(x, ct.weight, ct.bias, stride, padding)
        y.backward(g)
        wants = [y.data, x.grad, ct.weight.grad, ct.bias.grad]
        for a, want in zip(got, wants):
            assert a.dtype == want.dtype and a.shape == want.shape
        for i in (0, 1, 3) if blocks > 1 else (0, 1, 2, 3):
            assert got[i].tobytes() == wants[i].tobytes()
        if blocks > 1:
            gcols = np.abs(_im2col(g, k, k, stride, padding)).reshape(b, out_ch * k * k, h * w)
            terms = np.matmul(gcols, np.abs(x_np).reshape(b, c, h * w).swapaxes(1, 2)).sum(0)
            assert_reordered(got[2], wants[2], terms.T.reshape(wants[2].shape))

    def test_one_node_and_no_conv2d_call(self, rng, monkeypatch):
        # the op runs conv2d's private kernels: perfbench times calls to
        # `layers.conv2d`, which must not count the transposed convs
        calls, nodes = [], []
        monkeypatch.setattr(layers, "conv2d", lambda *a, **kw: calls.append(a))
        op = Tensor._op
        monkeypatch.setattr(Tensor, "_op", staticmethod(lambda *a: nodes.append(a) or op(*a)))
        ct = ConvTranspose2d(3, 2, 3, rng, stride=2, padding=1, dtype=np.float64)
        x = randt(rng, (2, 3, 4, 5))
        y = ct(x)
        y.backward(np.ones(y.shape))
        assert calls == [] and len(nodes) == 1
        assert all(t.grad is not None for t in [x] + ct.parameters())

    def test_no_grad_forward_at_128_px_peaks_at_most_6_5_mib(self, rng):
        # FinalExpand.up2's shape at 256 px, [1,16,128,128] in and a 4 MiB
        # float32 map out: the whole-map W^T @ x kept 4 MiB of columns
        # besides and peaked at 8.1 MiB; in input-row blocks within
        # `COL_BUDGET` it peaks at 5.7. This has no wall-time twin in the
        # style of TestWallTimeLinearity: from 128 to 256 px, in a fresh
        # interpreter with BLAS threads 1, the forward and input-gradient
        # ratios of the two ops overlapped in trial runs, so no bound
        # fails at the whole-map op alone
        ct = ConvTranspose2d(16, 16, 2, rng, stride=2)
        x = Tensor(rng.uniform(-1, 1, size=(1, 16, 128, 128)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                ct(x)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 6.5, f"{peak:.1f} MiB"


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

    @staticmethod
    def _affine(rng, norm):
        norm.gamma.data = rng.uniform(0.5, 1.5, size=norm.gamma.shape)
        norm.beta.data = rng.uniform(-0.5, 0.5, size=norm.beta.shape)
        return [norm.gamma, norm.beta]

    @pytest.mark.parametrize("groups", [1, 2, 6])
    def test_groupnorm_one_op_matches_composite(self, rng, groups):
        gn = GroupNorm(6, num_groups=groups, dtype=np.float64)
        params = self._affine(rng, gn)
        x = randt(rng, (2, 6, 3, 4), lo=-2, hi=3)
        assert_same_op(lambda _: gn(x),
                       lambda _: composite_norm(x, (2, groups, -1), 2, *params),
                       [x] + params)

    @pytest.mark.parametrize("shape", [(2, 5, 7), (2, 5, 3, 4)], ids=["BCN", "BCHW"])
    def test_layernorm_one_op_matches_composite(self, rng, shape):
        ln = LayerNorm(5, dtype=np.float64)
        params = self._affine(rng, ln)
        x = randt(rng, shape, lo=-2, hi=3)
        assert_same_op(lambda _: ln(x), lambda _: composite_norm(x, shape, 1, *params),
                       [x] + params)

    @staticmethod
    def _norm_and_view(kind, dtype, shape):
        if kind == "group":
            return GroupNorm(shape[1], num_groups=4, dtype=dtype), (shape[0], 4, -1), 2
        return LayerNorm(shape[1], dtype=dtype), shape, 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 8, 5, 7), (2, 8, 9)], ids=["BCHW", "BCN"])
    @pytest.mark.parametrize("kind", ["group", "layer"])
    def test_matches_the_stored_x_hat_op_bytewise(self, rng, kind, shape, dtype):
        norm, view, axis = self._norm_and_view(kind, dtype, shape)
        self._affine(rng, norm)
        for p in (norm.gamma, norm.beta):
            p.data = p.data.astype(dtype)
        data = rng.uniform(-2, 3, size=shape).astype(dtype)
        seed = rng.standard_normal(shape).astype(dtype)
        runs = []
        for op in (norm, lambda t: stored_normalize(t, view, axis, norm.gamma, norm.beta, 1e-5)):
            x = Tensor(data, requires_grad=True)
            y = op(x)
            y.backward(seed)
            runs.append([y.data, x.grad, norm.gamma.grad, norm.beta.grad])
            norm.zero_grad()
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["group", "layer"])
    def test_node_keeps_only_the_statistics(self, rng, kind, dtype):
        # a [1,32,64,64] map; the node kept x_hat, as large as the map, when
        # the backward read it: 514 KiB (GroupNorm) and 529 KiB (LayerNorm)
        # at float32. LayerNorm's mean and sigma are one value per pixel each
        shape = (1, 32, 64, 64)
        norm, view, _ = self._norm_and_view(kind, dtype, shape)
        x = Tensor(rng.uniform(-1, 1, size=shape).astype(dtype), requires_grad=True)
        stats = 2 * (shape[2] * shape[3] if kind == "layer" else 4) * np.dtype(dtype).itemsize
        assert kept_kib(lambda: norm(x)) <= stats / 2**10 + 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_epilogue_is_the_three_op_chain_bytewise(self, rng, dtype):
        # an attention branch's epilogue, gn(x) * (1 - lambda_init) + pe, as
        # one op: x_hat * gamma, + beta, * scale, + pe in that order, so y
        # and every gradient keep the bits of the three nodes it replaced
        shape = (2, 8, 5, 7)
        gn = GroupNorm(8, num_groups=4, dtype=dtype)
        for p in self._affine(rng, gn):
            p.data = p.data.astype(dtype)
        data, pe_data, seed = (rng.uniform(-2, 3, size=shape).astype(dtype) for _ in range(3))
        runs = []
        for fused in (True, False):
            x, pe = Tensor(data, requires_grad=True), Tensor(pe_data, requires_grad=True)
            y = gn(x, 1.0 - 0.8, pe) if fused else gn(x) * (1.0 - 0.8) + pe
            y.backward(seed)
            runs.append([y.data, x.grad, gn.gamma.grad, gn.beta.grad, pe.grad])
            gn.zero_grad()
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    def test_epilogue_gradients(self, rng):
        gn = GroupNorm(6, num_groups=2, dtype=np.float64)
        params = self._affine(rng, gn)
        x, pe = randt(rng, (2, 6, 3, 4), lo=-2, hi=3), randt(rng, (2, 6, 3, 4))
        weight = Tensor(rng.standard_normal((2, 6, 3, 4)))

        def f(_):
            return (gn(x, 0.3, pe) * weight).sum()

        assert grad_check(f, [x, pe] + params) < 1e-6

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

    def test_cell_matrices_built_once_and_read_only(self, rng):
        x = rng.uniform(size=(2, 3, 7, 5))
        first = adaptive_avg_pool2d(Tensor(x), 3, 2).data
        rows = _cell_matrix(7, 3, x.dtype)
        assert _cell_matrix(7, 3, x.dtype) is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        # a cached second call, and freshly built matrices, give the same bits
        fresh_rows = _cell_matrix.__wrapped__(7, 3, x.dtype)
        fresh_cols = _cell_matrix.__wrapped__(5, 2, x.dtype)
        assert np.array_equal(adaptive_avg_pool2d(Tensor(x), 3, 2).data, first)
        assert np.array_equal(fresh_rows @ x @ fresh_cols.T, first)

    def test_global_pool_is_mean(self, rng):
        x = rng.uniform(size=(2, 3, 4, 7))
        np.testing.assert_allclose(adaptive_avg_pool2d(Tensor(x), 1, 1).data,
                                   x.mean(axis=(2, 3), keepdims=True), rtol=1e-14)

    def test_softmax_matches_oracle(self, rng):
        z = rng.uniform(-5, 5, size=(3, 4, 6))
        np.testing.assert_allclose(softmax(Tensor(z)).data, naive_softmax(z),
                                   rtol=1e-13)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_one_op_matches_composite_and_masked_keys_get_exact_zeros(self, rng, axis):
        z = rng.uniform(-5, 5, size=(2, 3, 9, 8))
        masked = rng.uniform(size=z.shape) < 0.3
        np.moveaxis(masked, axis, 0)[0] = False          # one live key per row
        x = Tensor(np.where(masked, z + MASK_BIAS, z), requires_grad=True)
        assert_same_op(lambda _: softmax(x, axis), lambda _: composite_softmax(x, axis), [x])
        s, (gx,) = values_and_grads(lambda _: softmax(x, axis), [x])
        assert np.all(s[masked] == 0.0) and np.all(gx[masked] == 0.0)
        assert np.all(s[~masked] > 0.0)
        np.testing.assert_allclose(s.sum(axis=axis), 1.0, rtol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_softmax_rows_sum_to_one(self, n, m, seed):
        z = np.random.default_rng(seed).uniform(-30, 30, size=(n, m))
        s = softmax(Tensor(z)).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    def test_softmax_shift_invariance(self, rng):
        z = rng.uniform(-2, 2, size=(2, 5))
        a = softmax(Tensor(z)).data
        b = softmax(Tensor(z + 123.0)).data
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
