"""Shared test helpers: seeded tensors and naive reference implementations
used as independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from samaseg.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def randt(rng, shape, requires_grad=True, lo=-1.0, hi=1.0):
    """Seeded float64 tensor for gradient checks."""
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=requires_grad,
                  dtype=np.float64)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop 2D matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_conv2d(x, w, b, stride=1, padding=1, groups=1):
    """Six-loop direct convolution oracle; x [B,C,H,W], w [O,C/g,kh,kw]."""
    bs, c, h, ww_ = x.shape
    o, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww_ + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, o, oh, ow), dtype=x.dtype)
    opg = o // groups
    for n in range(bs):
        for oc in range(o):
            g = oc // opg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ic in range(cg):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += (xp[n, g * cg + ic, i * stride + di, j * stride + dj]
                                        * w[oc, ic, di, dj])
                    out[n, oc, i, j] = acc + (b[oc] if b is not None else 0.0)
    return out


def naive_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def naive_conv_transpose2d(x, w, b, stride=1, padding=0):
    """Seven-loop scatter oracle; x [B,C,H,W], w [C,O,kh,kw]: each
    x[b,c,i,j] * w[c,o,ky,kx] lands on (i*s - p + ky, j*s - p + kx)."""
    bs, c, h, ww_ = x.shape
    _, o, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (ww_ - 1) * stride - 2 * padding + kw
    out = np.zeros((bs, o, oh, ow), dtype=x.dtype)
    for n in range(bs):
        for ic in range(c):
            for i in range(h):
                for j in range(ww_):
                    for oc in range(o):
                        for di in range(kh):
                            for dj in range(kw):
                                y, z = i * stride - padding + di, j * stride - padding + dj
                                if 0 <= y < oh and 0 <= z < ow:
                                    out[n, oc, y, z] += x[n, ic, i, j] * w[ic, oc, di, dj]
    return out + b.reshape(1, o, 1, 1)
