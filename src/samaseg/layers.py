"""Layer primitives: Linear, Conv2D (incl. depthwise and transpose),
GroupNorm, LayerNorm, adaptive average pooling, stable softmax.

Every layer is channel-major: inputs are [B,C,...] with the channels on
axis 1. `Linear` contracts that axis, W @ x with W [out,in], so it runs on
[B,C,H,W] maps and [B,C,N] sequences alike and a map never round-trips
through a [B,N,C] token layout. It is the one pointwise path: a 1x1 conv
is a `Linear`, and the conv kernels below have no case for it.

`Linear`, the two norms and `softmax` are one autodiff op each with a
hand-written backward, so none leaves a chain of reshapes and elementwise
nodes on the tape. LayerNorm (over axis 1) and GroupNorm (over each group
of channels and positions) share one normalisation op, whose node keeps
only the mean and sigma of each group and rebuilds the normalised input in
its backward; it also takes an output scale and an added map, so the
attention branches' epilogue is the same one op. softmax's node keeps only
its output.

Convolution arithmetic exists once, as three kernels over one checked
plan: the forward W @ im2col(x) over channel-major [B,G,(C/G)*kh*kw,OH*OW]
columns in blocks of output rows, the fold col2im(W^T @ g) in blocks of
input rows, and the weight gradient g @ im2col(x)^T summed over the
forward's row blocks. `conv2d` (dense, grouped, depthwise) is one op over
them. Its input gradient at stride 1 is itself a stride-1 conv of g, padded
k-1-p, by W with both tap axes reversed and transposed within each group
(Dumoulin & Visin, "A guide to convolution arithmetic for deep learning",
2016), so it runs on the forward kernel; a strided conv, a padding past
k-1 or a non-square kernel folds. `ConvTranspose2d` is the fold with the
roles swapped, and never multiplies inserted zeros. A block holds at most
`COL_BUDGET` column elements, so no call holds more than one block of
columns, and blocks are aligned so that BLAS gives every pixel of the
forward and of the fold the bits of the whole-map matmul; a tape node keeps
its inputs, not their k^2-fold columns. The local attention core reads its
neighbourhoods through im2col in row blocks too, and folds its column
gradients with the same input-row blocks (`_fold_rows`). Adaptive pooling is one op,
rows @ x @ cols^T with averaging matrices built once per shape.

Weights are initialized Kaiming-uniform style, uniform(+-sqrt(1/fan_in)),
norm scales to 1 and shifts to 0. Convolutions use the cross-correlation
convention (no kernel flip).
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from .profiler import record_macs
from .tensor import Tensor, uniform


class Module:
    """Minimal parameter container; submodules discovered via attributes."""

    def named_parameters(self, prefix: str = ""):
        for name, val in vars(self).items():
            yield from _named_parameters(prefix + name, val)

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def num_params(self) -> int:
        return sum(t.size for t in self.parameters())

    def zero_grad(self):
        for t in self.parameters():
            t.zero_grad()


def _named_parameters(name: str, val):
    """Trainable tensors under `val`, recursing into modules and nested lists."""
    if isinstance(val, Tensor):
        if val.requires_grad:
            yield name, val
    elif isinstance(val, Module):
        yield from val.named_parameters(name + ".")
    elif isinstance(val, (list, tuple)):
        for i, item in enumerate(val):
            yield from _named_parameters(f"{name}.{i}", item)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True, dtype=np.float32):
        bound = (1.0 / in_features) ** 0.5
        self.weight = uniform(rng, (out_features, in_features), bound, dtype)
        self.bias = uniform(rng, (out_features,), bound, dtype) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: Tensor) -> Tensor:
        """W @ x + b over axis 1 of a [B,in,...] input; returns [B,out,...].
        One op, recording the MACs of the matmul; its backward gives W, b
        and x directly. It serves every pointwise projection, the 1x1
        convs of the UNet included."""
        if x.ndim < 2 or x.shape[1] != self.in_features:
            raise ValueError(f"linear expects {self.in_features} channels on axis 1, got {x.shape}")
        w, bias = self.weight, self.bias
        xm = x.data.reshape(x.shape[0], self.in_features, -1)    # [B,in,N]
        y = np.matmul(w.data, xm)                                # [B,out,N]
        record_macs(y.size * self.in_features)
        if bias is not None:
            y += bias.data[:, None]

        def bwd(g):
            g = g.reshape(y.shape)
            if x.requires_grad:
                x._accumulate(np.matmul(w.data.T, g).reshape(x.shape), owned=True)
            if w.requires_grad:
                w._accumulate(np.matmul(g, xm.swapaxes(1, 2)).sum(axis=0), owned=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=0).sum(axis=1), owned=True)

        parents = (x, w) if bias is None else (x, w, bias)
        return Tensor._op(y.reshape(x.shape[0], self.out_features, *x.shape[2:]), parents, bwd)


COL_BUDGET = 2 ** 18
"""Most im2col column elements one conv block holds, and the attention
cores' block budget: 1 MiB in float32, half of a 2 MiB L2."""

# BLAS computes a trailing part-group of columns, and small matrix products,
# with other kernels whose sums can round differently, and which kernel a
# trailing part-group gets depends on the width of the whole product; its
# matrix-vector kernels also round by the alignment of each row. So a conv
# is split only when its rows span a multiple of _COL_ALIGN pixels, into
# blocks whose matrix products do at least _MIN_BLOCK_MACS MACs: then every
# pixel gets the bits of the unblocked matmul. A conv with one output
# channel per group, a matrix-vector product, is one block.
_COL_ALIGN = 16
_MIN_BLOCK_MACS = 2 ** 20


def _span(k: int, s: int, p: int, lo: int, hi: int, olo: int, ohi: int) -> tuple[int, int]:
    """Output positions [start, stop) within [olo, ohi) whose tap k reads
    inside the input span [lo, hi), i.e. lo <= o*s + k - p < hi."""
    return max(olo, -((k - p - lo) // s)), min(ohi, (hi - 1 + p - k) // s + 1)


def _im2col(x: np.ndarray, kh: int, kw: int, s: int, p: int,
            rows: tuple[int, int] | None = None) -> np.ndarray:
    """[B,C,H,W] -> [B,C,kh,kw,R,OW] zero-padded windows of output rows
    [r0, r1) (all OH by default): the input rows they read are padded once,
    then each tap is one strided copy of whole output rows."""
    b, c, h, w = x.shape
    r0, r1 = rows or (0, (h + 2 * p - kh) // s + 1)
    top, n = r0 * s - p, (r1 - r0 - 1) * s + kh        # the input rows read, padding counted
    if p:
        xp = np.zeros((b, c, n, w + 2 * p), dtype=x.dtype)
        lo, hi = max(top, 0), min(top + n, h)
        xp[:, :, lo - top:hi - top, p:p + w] = x[:, :, lo:hi]
    else:
        xp = x[:, :, top:top + n]
    ow = (w + 2 * p - kw) // s + 1
    cols = np.empty((b, c, kh, kw, r1 - r0, ow), dtype=x.dtype)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = xp[:, :, ky:ky + (r1 - r0 - 1) * s + 1:s, kx:kx + (ow - 1) * s + 1:s]
    return cols


def _fold(x: np.ndarray, cols: np.ndarray, s: int, p: int, rows: tuple[int, int],
          out_rows: tuple[int, int]):
    """Add cols [B,C,kh,kw,o1-o0,OW], holding output rows [o0, o1), into x
    [B,C,i1-i0,W], holding input rows [i0, i1): each tap adds the
    rectangle of its windows that reads inside x, in tap order, so a tap
    that reads only padding adds nothing."""
    (i0, i1), (o0, o1) = rows, out_rows
    kh, kw, ow = cols.shape[2], cols.shape[3], cols.shape[5]
    for ky in range(kh):
        y0, y1 = _span(ky, s, p, i0, i1, o0, o1)
        for kx in range(kw):
            x0, x1 = _span(kx, s, p, 0, x.shape[-1], 0, ow)
            if y0 < y1 and x0 < x1:
                tap = cols[:, :, ky, kx, y0 - o0:y1 - o0, x0:x1]
                x[:, :, y0 * s + ky - p - i0:(y1 - 1) * s + ky - p + 1 - i0:s,
                  x0 * s + kx - p:(x1 - 1) * s + kx - p + 1:s] += tap


def _col2im(cols: np.ndarray, h: int, w: int, s: int, p: int) -> np.ndarray:
    """Adjoint of `_im2col`: [B,C,kh,kw,OH,OW] -> contiguous [B,C,H,W]. Each
    tap adds its in-bounds rectangle, in tap order, straight into the
    zeroed result, so no padded buffer is staged and a tap that reads only
    padding adds nothing."""
    b, c, kh, kw, oh, ow = cols.shape
    x = np.zeros((b, c, h, w), dtype=cols.dtype)
    _fold(x, cols, s, p, (0, h), (0, oh))
    return x


def _row_blocks(oh: int, k: int, s: int, row_cols: int, min_rows: int) -> tuple[list[int], int]:
    """Bounds 0 = r_0 < ... < r_n = oh of output-row blocks, and their halo:
    the rows after a block that its input-gradient block also reads. Each
    output row takes `row_cols` elements of the block's largest temporaries.
    Rows that fit `COL_BUDGET` are one block, and so is everything when
    `min_rows` is 0. Otherwise the blocks are as even as can be, and each
    fits the budget with its halo unless a block that small would have fewer
    than `min_rows` rows, or one row alone does not fit."""
    halo = (k - 2) // s + 1
    if oh * row_cols <= COL_BUDGET or not min_rows:
        return [0, oh], halo
    most = max(1, COL_BUDGET // row_cols - halo)
    n = max(1, min(-(-oh // most), oh // min_rows))
    return [j * oh // n for j in range(n)] + [oh], halo


# A checked conv geometry: x [B,C,H,W] and W [out,C/groups,kh,kw] give
# y [B,out,OH,OW], computed in the output-row blocks `bounds`, whose
# input-gradient blocks also read `halo` rows past them
_Plan = collections.namedtuple("_Plan", "x_shape w_shape stride padding groups oh ow bounds halo")


def _plan(x_shape: tuple, w_shape: tuple, stride: int, padding: int, groups: int) -> _Plan:
    b, c, h, w = x_shape
    out_ch, cg, kh, kw = w_shape
    if c % groups or out_ch % groups or cg != c // groups:
        raise ValueError(f"conv group mismatch: in={c} out={out_ch} groups={groups} weight={w_shape}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
                         f"stride {stride}, padding {padding}")
    # matrix-vector convs and rows of other than a multiple of _COL_ALIGN
    # pixels are one block; blocks do at least _MIN_BLOCK_MACS MACs each
    row_macs = out_ch // groups * cg * kh * kw * ow
    min_rows = 0 if out_ch == groups or ow % _COL_ALIGN else -(-_MIN_BLOCK_MACS // row_macs)
    bounds, halo = _row_blocks(oh, kh, stride, b * c * kh * kw * ow, min_rows)
    return _Plan(x_shape, w_shape, stride, padding, groups, oh, ow, bounds, halo)


def _columns(x: np.ndarray, plan: _Plan, rows: tuple[int, int] | None = None) -> np.ndarray:
    """[B,G,(C/G)*kh*kw,R*OW] columns of output rows [r0, r1), all by default."""
    cols = _im2col(x, *plan.w_shape[2:], plan.stride, plan.padding, rows)
    return cols.reshape(x.shape[0], plan.groups, -1, cols.shape[-2] * plan.ow)


def _conv_forward(x: np.ndarray, wm: np.ndarray, plan: _Plan) -> np.ndarray:
    """W @ im2col(x), a fresh [B,out,OH,OW], from x [B,C,H,W] and wm
    [G,out/G,(C/G)*kh*kw]: each output-row block builds its columns and runs
    one matmul into its rows, and none is kept."""
    b, ow = x.shape[0], plan.ow
    y = np.empty((b, *wm.shape[:2], plan.oh * ow), dtype=np.result_type(x, wm))
    for r0, r1 in zip(plan.bounds, plan.bounds[1:]):
        np.matmul(wm, _columns(x, plan, (r0, r1)), out=y[..., r0 * ow:r1 * ow])
    return y.reshape(b, -1, plan.oh, ow)


def _fold_rows(plan: _Plan, block_cols, dtype) -> np.ndarray:
    """col2im over blocks of input rows, a fresh [B,C,H,W] of `dtype`:
    `block_cols(o0, o1)` gives the [B,C,kh,kw,o1-o0,OW] columns of output
    rows [o0, o1), and each input block adds, in tap order, the rectangles
    of the output rows whose windows meet it, halo included, so every pixel
    sums the same values in the same order as one col2im of the whole map."""
    (b, c, h, w), (_, _, kh, kw), s, p, _, oh, ow, bounds, halo = plan
    # the input block of output block [r0, r1) starts at the row that r0's
    # last tap reads, which no earlier output row reaches, and ends where the
    # next one starts, so output rows [r0, r1 + halo) hold every value its
    # pixels sum
    edges = [0] + [min(h, max(0, r * s - p + kh - 1)) for r in bounds[1:-1]] + [h]
    gx = np.zeros(plan.x_shape, dtype=dtype)
    for i0, i1, o0, o1 in zip(edges, edges[1:], bounds, bounds[1:]):
        o1 = min(oh, o1 + halo)
        cols = block_cols(o0, o1).reshape(b, c, kh, kw, o1 - o0, ow)
        _fold(gx[:, :, i0:i1], cols, s, p, (i0, i1), (o0, o1))
    return gx


def _conv_input_grad(gm: np.ndarray, wt: np.ndarray, plan: _Plan) -> np.ndarray:
    """col2im(W^T @ g), a fresh [B,C,H,W], from gm [B,G,out/G,OH*OW] and wt
    [G,(C/G)*kh*kw,out/G], over blocks of input rows (`_fold_rows`): each
    forms W^T @ g for the output rows whose windows meet it. W^T @ g is a
    broadcast product when each group has one output channel (an inner
    dimension of 1)."""
    ow = plan.ow

    def block_cols(o0, o1):
        gb = gm[..., o0 * ow:o1 * ow]
        return wt * gb if wt.shape[-1] == 1 else np.matmul(wt, gb)

    return _fold_rows(plan, block_cols, np.result_type(gm, wt))


def _conv_weight_grad(x: np.ndarray, gm: np.ndarray, plan: _Plan) -> np.ndarray:
    """g @ im2col(x)^T summed over the batch, [G,out/G,(C/G)*kh*kw], from gm
    [B,G,out/G,OH*OW]: each of the forward's output-row blocks builds its
    columns and adds its product, so one block's columns are alive at a
    time. A one-block conv runs the whole-map matmul; more blocks sum the
    pixels in another order."""
    ow, bounds = plan.ow, plan.bounds
    parts = (np.matmul(gm[..., r0 * ow:r1 * ow], _columns(x, plan, (r0, r1)).swapaxes(-1, -2))
             for r0, r1 in zip(bounds, bounds[1:]))
    gw = next(parts)
    for part in parts:
        gw += part
    return gw.sum(axis=0)


def _flipped_conv_input_grad(g: np.ndarray, weight: np.ndarray, plan: _Plan) -> np.ndarray:
    """x's gradient of a stride-1 conv as a stride-1 conv of g [B,out,OH,OW]:
    with padding k-1-p, by W with both tap axes reversed and transposed
    within each group, so it runs in the forward's row blocks. For k = 1
    that kernel is a view of W^T, the operand `Linear` multiplies by."""
    (out_ch, cg, k, _), groups = plan.w_shape, plan.groups
    wf = weight.reshape(groups, out_ch // groups, cg, k, k)[..., ::-1, ::-1].swapaxes(1, 2)
    flipped = _plan(g.shape, (groups * cg, out_ch // groups, k, k), 1, k - 1 - plan.padding,
                    groups)
    return _conv_forward(g, wf.reshape(groups, cg, -1), flipped)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Cross-correlation over [B,C,H,W] with weight [out,in/groups,kh,kw] as
    one op, W @ im2col(x) + b in blocks of output rows (`_conv_forward`). The
    node keeps only x, W and b. The backward gives b as g summed, W by
    `_conv_weight_grad`, whose columns it rebuilds from x only when W needs a
    gradient, and x by `_flipped_conv_input_grad` at stride 1, otherwise by
    `_conv_input_grad`."""
    plan = _plan(x.shape, weight.shape, stride, padding, groups)
    out_ch = weight.shape[0]
    wm = weight.data.reshape(groups, out_ch // groups, -1)
    y = _conv_forward(x.data, wm, plan)
    record_macs(y.size * wm.shape[-1])
    if bias is not None:
        y += bias.data.reshape(1, out_ch, 1, 1)

    def bwd(g):
        gm = g.reshape(x.shape[0], groups, out_ch // groups, -1)
        if weight.requires_grad:
            weight._accumulate(_conv_weight_grad(x.data, gm, plan).reshape(weight.shape), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        if x.requires_grad:
            # the flipped kernel needs k-1-p >= 0, one padding for both axes
            if plan.stride == 1 and plan.padding < plan.w_shape[2] == plan.w_shape[3]:
                gx = _flipped_conv_input_grad(g, weight.data, plan)
            else:
                gx = _conv_input_grad(gm, wm.swapaxes(-1, -2), plan)
            x._accumulate(gx, owned=True)

    return Tensor._op(y, (x, weight) if bias is None else (x, weight, bias), bwd)


class Conv2d(Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = True, dtype=np.float32):
        fan_in = (in_ch // groups) * kernel * kernel
        bound = (1.0 / fan_in) ** 0.5
        self.weight = uniform(rng, (out_ch, in_ch // groups, kernel, kernel), bound, dtype)
        self.bias = uniform(rng, (out_ch,), bound, dtype) if bias else None
        self.stride = stride
        self.padding = padding
        self.groups = groups

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)


class ConvTranspose2d(Module):
    """Transposed convolution, the input gradient of the conv with the same
    weight and geometry, as one op over conv2d's kernels with the roles
    swapped: its forward is the input-gradient kernel, col2im(W^T @ x) + b;
    x's gradient is the forward kernel on g, and W's the weight kernel with
    x and g swapped.

    Weight layout is [in, out, kh, kw]; output extent (H-1)*s - 2p + k.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0, bias: bool = True, dtype=np.float32):
        fan_in = in_ch * kernel * kernel
        bound = (1.0 / fan_in) ** 0.5
        self.weight = uniform(rng, (in_ch, out_ch, kernel, kernel), bound, dtype)
        self.bias = uniform(rng, (out_ch,), bound, dtype) if bias else None
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        s, p = self.stride, self.padding
        weight, bias = self.weight, self.bias
        in_ch, out_ch, k, _ = weight.shape
        b, c, h, w = x.shape
        if c != in_ch:
            raise ValueError(f"transposed conv expects {in_ch} channels on axis 1, got {x.shape}")
        if k - 1 - p < 0:
            raise ValueError("transposed conv requires padding <= kernel-1")
        oh, ow = (h - 1) * s - 2 * p + k, (w - 1) * s - 2 * p + k
        if oh < 1 or ow < 1:
            raise ValueError(f"transposed conv output would be empty: input {h}x{w}, "
                             f"kernel {k}x{k}, stride {s}, padding {p}")
        plan = _plan((b, out_ch, oh, ow), weight.shape, s, p, 1)   # the conv from y back to x
        # W^T is kept contiguous and W used as its view: BLAS rounds the
        # small products of 1x1 and 2x2 inputs by operand layout
        wt = np.ascontiguousarray(weight.data.reshape(in_ch, -1).T)[None]   # [1,out*k*k,in]
        xm = x.data.reshape(b, 1, in_ch, h * w)
        y = _conv_input_grad(xm, wt, plan)
        record_macs(x.size * wt.shape[1])
        if bias is not None:
            y += bias.data.reshape(1, out_ch, 1, 1)

        def bwd(g):
            if weight.requires_grad:
                weight._accumulate(_conv_weight_grad(g, xm, plan).reshape(weight.shape), owned=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
            if x.requires_grad:
                x._accumulate(_conv_forward(g, wt.swapaxes(-1, -2), plan), owned=True)

        return Tensor._op(y, (x, weight) if bias is None else (x, weight, bias), bwd)


class GroupNorm(Module):
    def __init__(self, channels: int, num_groups: int, eps: float = 1e-5, dtype=np.float32):
        if channels % num_groups:
            raise ValueError(f"channels {channels} not divisible by groups {num_groups}")
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.num_groups = num_groups
        self.eps = eps

    def __call__(self, x: Tensor, scale: float | None = None, add: Tensor | None = None) -> Tensor:
        """The group norm of x, times `scale` plus `add` when given."""
        view = (x.shape[0], self.num_groups, -1)
        return _normalize(x, view, 2, self.gamma, self.beta, self.eps, scale, add)


class LayerNorm(Module):
    """Normalizes over the channel axis (axis 1) independently per position."""

    def __init__(self, channels: int, eps: float = 1e-5, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.eps = eps
        self.channels = channels

    def __call__(self, x: Tensor) -> Tensor:
        return _normalize(x, x.shape, 1, self.gamma, self.beta, self.eps)


def _normalize(x: Tensor, view: tuple, axis: int, gamma: Tensor, beta: Tensor,
               eps: float, scale: float | None = None, add: Tensor | None = None) -> Tensor:
    """x_hat * gamma + beta per channel (axis 1 of x), then times `scale`
    and plus the map `add` when given, in that order, where x_hat is x
    viewed as `view` minus its mean mu over `axis`, divided by
    sigma = sqrt(var + eps). One op; the tape keeps only mu and sigma, one
    value each per normalised group, and the backward rebuilds x_hat as
    (x - mu) / sigma, the forward's own two calls:

        g_x = (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / sigma,

    with g_hat = g * scale * gamma and the means over `axis` of the view;
    `add` gets g.
    """
    dtype = x.dtype.type
    xv = x.data.reshape(view)
    inv_n = dtype(1.0 / xv.shape[axis])
    mu = xv.sum(axis=axis, keepdims=True) * inv_n
    centered = xv - mu
    sigma = np.sqrt((centered * centered).sum(axis=axis, keepdims=True) * inv_n + dtype(eps))
    centered /= sigma
    shape = (1, -1) + (1,) * (x.ndim - 2)
    others = (0,) + tuple(range(2, x.ndim))
    if scale is not None:
        scale = dtype(scale)

    def bwd(g):
        if add is not None and add.requires_grad:
            add._accumulate(g)
        if scale is not None:
            g = g * scale
        xh = x.data.reshape(view) - mu
        xh /= sigma
        if gamma.requires_grad:
            gamma._accumulate((g * xh.reshape(x.shape)).sum(axis=others), owned=True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=others), owned=True)
        if x.requires_grad:
            g_hat = (g * gamma.data.reshape(shape)).reshape(xh.shape)
            proj = (g_hat * xh).mean(axis=axis, keepdims=True)
            g_hat -= g_hat.mean(axis=axis, keepdims=True)
            xh *= proj
            g_hat -= xh
            g_hat *= 1.0 / sigma
            x._accumulate(g_hat.reshape(x.shape), owned=True)

    out = centered.reshape(x.shape)   # x_hat, then each step in place
    out *= gamma.data.reshape(shape)
    out += beta.data.reshape(shape)
    if scale is not None:
        out *= scale
    if add is not None:
        out += add.data
    parents = (x, gamma, beta) if add is None else (x, gamma, beta, add)
    return Tensor._op(out, parents, bwd)


@functools.lru_cache(maxsize=64)
def _cell_matrix(n: int, cells: int, dtype: np.dtype) -> np.ndarray:
    """Read-only [cells, n] averaging matrix with torch-style floor/ceil
    cell edges."""
    i = np.arange(cells)
    lo, hi = (i * n) // cells, -(-((i + 1) * n) // cells)
    j = np.arange(n)
    inside = (j >= lo[:, None]) & (j < hi[:, None])
    mat = (inside / (hi - lo)[:, None]).astype(dtype)
    mat.setflags(write=False)
    return mat


def adaptive_avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling onto an out_h x out_w grid, torch-style cell edges,
    as rows @ x @ cols^T with constant averaging matrices."""
    rows = _cell_matrix(x.shape[-2], out_h, x.dtype)
    cols = _cell_matrix(x.shape[-1], out_w, x.dtype)

    def bwd(g):
        x._accumulate(rows.T @ g @ cols, owned=True)

    return Tensor._op(rows @ x.data @ cols.T, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """exp(x - max) / sum(exp(x - max)) over `axis`, as one op. The backward
    is s * (g - sum(g * s)), so a weight that is exactly 0 (a masked key)
    passes exactly 0 back to its logit."""
    s = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    s /= s.sum(axis=axis, keepdims=True)

    def bwd(g):
        gx = g * s
        gx -= s * gx.sum(axis=axis, keepdims=True)
        x._accumulate(gx, owned=True)

    return Tensor._op(s, (x,), bwd)
