"""Layer primitives: Linear, Conv2D (incl. depthwise and transpose),
GroupNorm, LayerNorm, adaptive average pooling, stable softmax.

Every convolution (dense, grouped, depthwise) is one path: `unfold`, a
channel-major im2col op giving [B,G,(C/G)*kh*kw,OH*OW] columns, then one
batched matmul W @ cols whose result reshapes straight to [B,out,OH,OW].
`fold` (col2im) is the exact adjoint of `unfold`, each op's backward being
the other, so a transpose convolution is fold(W^T @ x) and never multiplies
inserted zeros. The local-attention neighbourhoods reuse `unfold`.
Adaptive pooling is one op, rows @ x @ cols^T with constant averaging
matrices.

Weights are initialized Kaiming-uniform style, uniform(+-sqrt(1/fan_in)),
norm scales to 1 and shifts to 0. Convolutions use the cross-correlation
convention (no kernel flip).
"""

from __future__ import annotations

import numpy as np

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
        if x.shape[-1] != self.in_features:
            raise ValueError(f"linear expects trailing dim {self.in_features}, got {x.shape}")
        y = x @ self.weight.transpose(1, 0)
        if self.bias is not None:
            y = y + self.bias
        return y


def _im2col(x: np.ndarray, kh: int, kw: int, s: int, p: int) -> np.ndarray:
    """[B,C,H,W] -> [B,C,kh,kw,OH,OW] zero-padded windows, one strided copy
    per tap, so every copy moves whole output rows."""
    b, c, h, w = x.shape
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = xp[:, :, ky:ky + (oh - 1) * s + 1:s, kx:kx + (ow - 1) * s + 1:s]
    return cols


def _col2im(cols: np.ndarray, h: int, w: int, s: int, p: int) -> np.ndarray:
    """Adjoint of `_im2col`: [B,C,kh,kw,OH,OW] -> [B,C,H,W], one in-place
    add per tap into a zero-padded buffer, then a crop."""
    b, c, kh, kw, oh, ow = cols.shape
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    for ky in range(kh):
        for kx in range(kw):
            xp[:, :, ky:ky + (oh - 1) * s + 1:s, kx:kx + (ow - 1) * s + 1:s] += cols[:, :, ky, kx]
    return xp[:, :, p:p + h, p:p + w]


def unfold(x: Tensor, kh: int, kw: int, stride: int = 1, padding: int = 0,
           groups: int = 1) -> Tensor:
    """im2col of [B,C,H,W] into channel-major [B,G,(C/G)*kh*kw,OH*OW]
    zero-padded windows.

    Rows are ordered (channel, ky, kx), matching a weight reshaped to
    [G, out/G, (C/G)*kh*kw]. The backward is `fold` of the gradient.
    """
    b, c, h, w = x.shape
    cols = _im2col(x.data, kh, kw, stride, padding)

    def bwd(g):
        x._accumulate(_col2im(g.reshape(cols.shape), h, w, stride, padding))

    return Tensor._op(cols.reshape(b, groups, -1, cols.shape[-2] * cols.shape[-1]), (x,), bwd)


def fold(cols: Tensor, h: int, w: int, kh: int, kw: int, stride: int = 1,
         padding: int = 0) -> Tensor:
    """col2im, the adjoint of `unfold`: sums [B,...,C*kh*kw,OH*OW] windows
    (any grouping of the channel-major rows) back onto a [B,C,H,W] map.
    The backward is `unfold` of the gradient."""
    b = cols.shape[0]
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if cols.shape[-1] != oh * ow or cols.shape[-2] % (kh * kw):
        raise ValueError(f"fold: columns {cols.shape} do not tile a {h}x{w} map "
                         f"with kernel {kh}x{kw}, stride {stride}, padding {padding}")
    shape6 = (b, -1, kh, kw, oh, ow)
    out = np.ascontiguousarray(_col2im(cols.data.reshape(shape6), h, w, stride, padding))

    def bwd(g):
        cols._accumulate(_im2col(g, kh, kw, stride, padding).reshape(cols.shape))

    return Tensor._op(out, (cols,), bwd)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Cross-correlation over [B,C,H,W] with weight [out,in/groups,kh,kw],
    as one batched matmul of the weight with the unfolded windows."""
    b, c, h, w = x.shape
    out_ch, cg, kh, kw = weight.shape
    if c % groups or out_ch % groups or cg != c // groups:
        raise ValueError(f"conv group mismatch: in={c} out={out_ch} groups={groups} weight={weight.shape}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
                         f"stride {stride}, padding {padding}")
    cols = unfold(x, kh, kw, stride, padding, groups)        # [B,G,cg*kh*kw,OH*OW]
    wm = weight.reshape(groups, out_ch // groups, cg * kh * kw)
    y = (wm @ cols).reshape(b, out_ch, oh, ow)
    if bias is not None:
        y = y + bias.reshape(1, out_ch, 1, 1)
    return y


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
    """Transpose convolution; adjoint of Conv2d with the same geometry,
    computed as fold(W^T @ x).

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
        self.kernel = kernel

    def __call__(self, x: Tensor) -> Tensor:
        k, s, p = self.kernel, self.stride, self.padding
        if k - 1 - p < 0:
            raise ValueError("transpose conv requires padding <= kernel-1")
        b, c, h, w = x.shape
        in_ch, out_ch = self.weight.shape[:2]
        wt = self.weight.reshape(in_ch, out_ch * k * k).transpose(1, 0)
        cols = wt @ x.reshape(b, c, h * w)                      # [B,out*k*k,H*W]
        y = fold(cols, (h - 1) * s - 2 * p + k, (w - 1) * s - 2 * p + k, k, k, s, p)
        if self.bias is not None:
            y = y + self.bias.reshape(1, -1, 1, 1)
        return y


class GroupNorm(Module):
    def __init__(self, channels: int, num_groups: int | None = None,
                 eps: float = 1e-5, dtype=np.float32):
        if num_groups is None:
            num_groups = 8 if channels >= 8 else channels
        if channels % num_groups:
            raise ValueError(f"channels {channels} not divisible by groups {num_groups}")
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.num_groups = num_groups
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        b, c = x.shape[0], x.shape[1]
        spatial = int(np.prod(x.shape[2:])) if x.ndim > 2 else 1
        g = self.num_groups
        xg = x.reshape(b, g, (c // g) * spatial)
        mu = xg.mean(axis=2, keepdims=True)
        centered = xg - mu
        var = (centered * centered).mean(axis=2, keepdims=True)
        norm = centered / (var + self.eps).sqrt()
        norm = norm.reshape(*x.shape)
        shape = (1, c) + (1,) * (x.ndim - 2)
        return norm * self.gamma.reshape(shape) + self.beta.reshape(shape)


class LayerNorm(Module):
    """Normalizes over the channel axis (axis 1) independently per position."""

    def __init__(self, channels: int, eps: float = 1e-5, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.eps = eps
        self.channels = channels

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=1, keepdims=True)
        norm = centered / (var + self.eps).sqrt()
        shape = (1, self.channels) + (1,) * (x.ndim - 2)
        return norm * self.gamma.reshape(shape) + self.beta.reshape(shape)


def _cell_matrix(n: int, cells: int, dtype) -> np.ndarray:
    """[cells, n] averaging matrix with torch-style floor/ceil cell edges."""
    i = np.arange(cells)
    lo, hi = (i * n) // cells, -(-((i + 1) * n) // cells)
    j = np.arange(n)
    inside = (j >= lo[:, None]) & (j < hi[:, None])
    return (inside / (hi - lo)[:, None]).astype(dtype)


def adaptive_avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling onto an out_h x out_w grid, torch-style cell edges,
    as rows @ x @ cols^T with constant averaging matrices."""
    rows = _cell_matrix(x.shape[-2], out_h, x.dtype)
    cols = _cell_matrix(x.shape[-1], out_w, x.dtype)

    def bwd(g):
        x._accumulate(rows.T @ g @ cols)

    return Tensor._op(rows @ x.data @ cols.T, (x,), bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    m = x.max_const(axis=-1, keepdims=True)
    e = (x - Tensor(m)).exp()
    return e / e.sum(axis=-1, keepdims=True)


def silu(x: Tensor) -> Tensor:
    return x.silu()
