"""Shared test helpers: seeded tensors, naive reference implementations
used as independent oracles, whole-map forms of the blocked ops, and the
extra autodiff ops that only the oracle chains compose (`div`, `rsub`,
`log`, `sqrt`, `mean` and `diff_softmax`). The kit never runs those ops,
so they live here rather than in `samaseg`, and nothing patches them back
onto `Tensor`."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from samaseg.attention import (_attend_tokens, _diff_weights_grad, _key_softmax, _mask_bias,
                               _weights)
from samaseg.layers import _col2im, _im2col
from samaseg.ssm import _swap_bl
from samaseg.profiler import record_macs
from samaseg.tensor import Tensor, _sigmoid, _unbroadcast


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def randt(rng, shape, requires_grad=True, lo=-1.0, hi=1.0):
    """Seeded float64 tensor for gradient checks."""
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=requires_grad,
                  dtype=np.float64)


def rsub(a: Tensor, other) -> Tensor:
    """other - a, for a scalar or array `other`."""
    return Tensor._coerce(other, a) - a


def div(a: Tensor, b) -> Tensor:
    """a / b, broadcasting; `b` may be a scalar or array."""
    b = Tensor._coerce(b, a)
    out_data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return Tensor._op(out_data, (a, b), bwd)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def bwd(g):
        a._accumulate(g / a.data, owned=True)

    return Tensor._op(out_data, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bwd(g):
        a._accumulate(g * 0.5 / out_data, owned=True)

    return Tensor._op(out_data, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The sum over `axis` times 1/n, as two nodes."""
    if axis is None:
        n = a.size
    elif isinstance(axis, int):
        n = a.shape[axis]
    else:
        n = 1
        for ax in axis:
            n *= a.shape[ax]
    return a.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def diff_softmax(q: Tensor, k: Tensor, v: Tensor, lam: Tensor) -> Tensor:
    """Differential softmax attention for q [h,n,c], k [h,m,c], v [h,m,cv],
    lam [h]; returns [h,n,cv]. Each head's two channel halves are the
    sub-heads of `_attend_tokens`."""
    h, n, c = q.shape
    m, cv = k.shape[1], v.shape[2]
    if c % 2:
        raise ValueError(f"differential attention needs an even channel count, got {c}")
    c2 = c // 2
    qs = q.reshape(h, n, 2, c2).transpose(0, 2, 3, 1).reshape(1, h * c, n)
    ks = k.reshape(h, m, 2, c2).transpose(0, 2, 3, 1).reshape(1, h * c, m)
    vs = v.transpose(0, 2, 1).reshape(1, h * cv, m)
    return _attend_tokens(qs, ks, vs, lam, 2 * h, h).reshape(h, cv, n).transpose(0, 2, 1)


def unfold(x: Tensor, kh: int, kw: int, stride: int = 1, padding: int = 0,
           groups: int = 1) -> Tensor:
    """im2col of [B,C,H,W] into channel-major [B,G,(C/G)*kh*kw,OH*OW]
    zero-padded windows as one op, rows ordered (channel, ky, kx); the
    backward is col2im of the gradient. The local attention core's oracle
    chain reads its key and value columns through it."""
    b, c, h, w = x.shape
    cols = _im2col(x.data, kh, kw, stride, padding)

    def bwd(g):
        x._accumulate(_col2im(g.reshape(cols.shape), h, w, stride, padding), owned=True)

    return Tensor._op(cols.reshape(b, groups, -1, cols.shape[-2] * cols.shape[-1]), (x,), bwd)


def contract(a: Tensor, b: Tensor, axis) -> Tensor:
    """Sum over `axis` (an int or a tuple) of the broadcast product a * b as
    one op whose backward needs only a and b. Records the product's size as
    MACs. The local attention core's oracle chain contracts with it."""
    full = np.broadcast_shapes(a.shape, b.shape)
    out_data = np.asarray((a.data * b.data).sum(axis=axis))
    record_macs(int(np.prod(full)))

    def bwd(g):
        g = np.expand_dims(g, axis)
        for t, other in ((a, b), (b, a)):
            if not t.requires_grad:
                continue
            gt = g * other.data
            if gt.shape == t.shape:
                t._accumulate(gt, owned=True)
            else:
                # summed down to t: fresh; stretched over an axis only t spans: a view
                t._accumulate(_unbroadcast(np.broadcast_to(gt, full), t.shape),
                              owned=t.shape != full)

    return Tensor._op(out_data, (a, b), bwd)


def whole_sequence_scan(delta: Tensor, x: Tensor, a: Tensor, bm: Tensor, cm: Tensor) -> Tensor:
    """`selective_scan` over the whole sequence at once: exp(delta A) and
    (delta x) B built into two [L, B*C*N] buffers, the second turned into h
    in place, and both kept for the backward, which runs the adjoint over
    all L rows. The time-blocked op must give y and all five input
    gradients byte for byte."""
    b, l, c = x.shape
    n = a.shape[1]
    record_macs(3 * b * l * c * n)
    # time-major with (t, b) flattened to one row index i = t*B + b
    dt, xt, bt, ct = (_swap_bl(np.broadcast_to(v.data, (b, l, v.shape[-1]))).reshape(l * b, -1)
                      for v in (delta, x, bm, cm))
    dtx = dt * xt                                            # [LB,C]
    d_a = np.exp(np.einsum("ic,cn->icn", dt, a.data))        # [LB,C,N]
    hs = np.einsum("ic,in->icn", dtx, bt)                    # dBu, turned into h in place
    da_rows, h_rows = d_a.reshape(l, -1), hs.reshape(l, -1)  # [L, B*C*N]
    step = np.empty_like(h_rows[0])
    for t in range(1, l):
        row = h_rows[t]
        np.add(row, np.multiply(da_rows[t], h_rows[t - 1], out=step), out=row)
    y = (hs @ ct[:, :, None]).reshape(l, b, c)

    def give(t, rows):   # [L*B,.] rows -> t's gradient, summed down to t's shape
        t._accumulate(_unbroadcast(_swap_bl(rows.reshape(l, b, -1)), t.shape), owned=True)

    def bwd(g):
        gy = _swap_bl(g).reshape(l * b, c)
        if cm.requires_grad:
            give(cm, gy[:, None, :] @ hs)
        gh = np.einsum("ic,in->icn", gy, ct)                 # gy_t C_t, then the adjoint
        gh_rows = gh.reshape(l, -1)
        for t in range(l - 2, -1, -1):
            row = gh_rows[t]
            np.add(row, np.multiply(da_rows[t + 1], gh_rows[t + 1], out=step), out=row)
        gdtx = (gh @ bt[:, :, None]).reshape(l * b, c)
        if bm.requires_grad:
            give(bm, dtx[:, None, :] @ gh)
        if x.requires_grad:
            give(x, gdtx * dt)
        if delta.requires_grad or a.requires_grad:
            gz = gh_rows                                     # gh is spent; gz reuses it
            gz[1:] *= h_rows[:-1]
            gz[0] = 0
            gz *= da_rows
            gz = gz.reshape(l * b, c, n)
            if a.requires_grad:
                a._accumulate(np.einsum("icn,ic->cn", gz, dt), owned=True)
            if delta.requires_grad:
                give(delta, np.einsum("icn,cn->ic", gz, a.data) + gdtx * xt)

    return Tensor._op(_swap_bl(y), (delta, x, a, bm, cm), bwd)


def _diff_weights(logits: np.ndarray, lam: Tensor | None, heads: int):
    """The key softmax of the logits, in place, and its weights: returns
    the weights and s."""
    s = _key_softmax(logits)
    return _weights(s, lam, heads), s


def whole_map_attend_tokens(q: Tensor, k: Tensor, v: Tensor, lam: Tensor, sub: int,
                            heads: int) -> Tensor:
    """The token attention core over the whole map at once, its node
    keeping the key softmax s. `attention._attend_tokens`, which runs in
    blocks of query pixels and rebuilds s in its backward, must give y and
    every input gradient byte for byte."""
    b, dq, dv = q.shape[0], q.shape[1], v.shape[1]
    cs, cv, n, m = dq // sub, dv // heads, q.size // (b * dq), k.size // (b * dq)
    if sub == heads:
        lam = None
    scale = q.dtype.type(1.0 / cs ** 0.5)

    kt = np.ascontiguousarray(k.data.reshape(b, sub, cs, m).transpose(0, 1, 3, 2))
    qs = q.data.reshape(b, sub, cs, n)
    logits = np.matmul(kt, qs)                                       # [B,sub,M,N]
    logits *= scale
    w, s = _diff_weights(logits, lam, heads)
    vp = v.data.reshape(b, heads, cv, m)
    out = np.matmul(vp, w)                                           # [B,h,cv,N]
    record_macs(b * (dq + dv) * m * n)

    def bwd(g):
        g = g.reshape(b, heads, cv, n)
        if v.requires_grad:
            w = _weights(s, lam, heads)
            v._accumulate(np.matmul(g, w.swapaxes(-1, -2)).reshape(v.shape), owned=True)
            del w
        gw = np.matmul(vp.swapaxes(-1, -2), g)
        glogits, glam = _diff_weights_grad(gw, s, lam, heads)
        glogits *= scale
        if k.requires_grad:
            gkt = np.matmul(glogits, qs.swapaxes(-1, -2))            # [B,sub,M,cs]
            k._accumulate(np.ascontiguousarray(gkt.transpose(0, 1, 3, 2)).reshape(k.shape),
                          owned=True)
        if q.requires_grad:
            q._accumulate(np.matmul(kt.swapaxes(-1, -2), glogits).reshape(q.shape), owned=True)
        if glam is not None:
            lam._accumulate(glam, owned=True)

    return Tensor._op(out.reshape(b, dv, *q.shape[2:]),
                      (q, k, v) if lam is None else (q, k, v, lam), bwd)


def whole_map_local_attend(attn, q: Tensor, k_map: Tensor, v_map: Tensor) -> Tensor:
    """The local attention core of the branch `attn` over the whole map at
    once: whole-map key and value columns, its node keeping the key softmax
    s, and one col2im per column gradient. `DiffAggAttention._local_attend`,
    which runs in blocks of rows and rebuilds s in its backward, must give
    y and every input gradient byte for byte."""
    cfg = attn.cfg
    b, d, hh, ww = v_map.shape
    heads, sub, kk, n = cfg.heads, attn.sub_heads, cfg.local_window, hh * ww
    cs, pad = d // sub, kk // 2
    lam = attn.lam if sub != heads else None
    scale = q.dtype.type(1.0 / cs ** 0.5)
    qs = q.data.reshape(b, sub, cs, 1, n)

    def columns(t, groups):   # [B,groups,c,k^2,HW] neighbourhoods of t's map
        return _im2col(t.data, kk, kk, 1, pad).reshape(b, groups, -1, kk * kk, n)

    logits = (qs * columns(k_map, sub)).sum(axis=2)              # [B,sub,k^2,HW]
    logits *= scale
    logits += _mask_bias(hh, ww, kk, q.dtype)
    w, s = _diff_weights(logits, lam, heads)
    out = (w.reshape(b, heads, 1, kk * kk, n) * columns(v_map, heads)).sum(axis=3)  # [B,h,c,HW]
    record_macs(2 * b * d * kk * kk * n)

    def bwd(g):
        ge = g.reshape(b, heads, cfg.head_dim, 1, n)
        if v_map.requires_grad:
            wr = _weights(s, lam, heads).reshape(b, heads, 1, kk * kk, n)
            gv = (ge * wr).reshape(b, d, kk, kk, hh, ww)
            v_map._accumulate(_col2im(gv, hh, ww, 1, pad), owned=True)
            del wr, gv
        gw = (ge * columns(v_map, heads)).sum(axis=2)
        glogits, glam = _diff_weights_grad(gw, s, lam, heads)
        glogits *= scale
        gl = np.expand_dims(glogits, 2)
        if q.requires_grad:
            q._accumulate((gl * columns(k_map, sub)).sum(axis=3).reshape(q.shape), owned=True)
        if k_map.requires_grad:
            gk = (gl * qs).reshape(b, d, kk, kk, hh, ww)
            k_map._accumulate(_col2im(gk, hh, ww, 1, pad), owned=True)
        if glam is not None:
            lam._accumulate(glam, owned=True)

    parents = (q, k_map, v_map) if lam is None else (q, k_map, v_map, lam)
    return Tensor._op(out.reshape(b, d, hh, ww), parents, bwd)


def whole_map_conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None,
                               stride: int, padding: int) -> Tensor:
    """The transposed conv as its own whole-map op: a contiguous W^T @ x,
    then col2im; the backward builds im2col(g) once, for W @ im2col(g) and
    W's gradient. `ConvTranspose2d` on conv2d's blocked kernels must give its
    output and gradients byte for byte."""
    k, s, p = weight.shape[2], stride, padding
    b, c, h, w = x.shape
    in_ch, out_ch = weight.shape[:2]
    wt = np.ascontiguousarray(weight.data.reshape(in_ch, out_ch * k * k).T)
    xm = x.data.reshape(b, c, h * w)
    cols = np.matmul(wt, xm)                                 # [B,out*k*k,H*W]
    oh, ow = (h - 1) * s - 2 * p + k, (w - 1) * s - 2 * p + k
    y = _col2im(cols.reshape(b, out_ch, k, k, h, w), oh, ow, s, p)
    if bias is not None:
        y += bias.data.reshape(1, out_ch, 1, 1)

    def bwd(g):
        gcols = _im2col(g, k, k, s, p).reshape(b, out_ch * k * k, h * w)
        if weight.requires_grad:
            gw = np.matmul(gcols, xm.swapaxes(1, 2)).sum(axis=0)
            weight._accumulate(gw.T.copy().reshape(weight.shape), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        if x.requires_grad:
            x._accumulate(np.matmul(wt.T, gcols).reshape(x.shape), owned=True)

    return Tensor._op(y, (x, weight) if bias is None else (x, weight, bias), bwd)


def stored_silu(x: Tensor) -> Tensor:
    """SiLU as one op whose node keeps sigmoid(x) for its backward.
    `Tensor.silu`, which recomputes it there, must give its output and
    gradient byte for byte."""
    s = _sigmoid(x.data)

    def bwd(g):
        x._accumulate(g * s * (1.0 + x.data * (1.0 - s)), owned=True)

    return Tensor._op(x.data * s, (x,), bwd)


def stored_normalize(x: Tensor, view: tuple, axis: int, gamma: Tensor, beta: Tensor,
                     eps: float) -> Tensor:
    """The normalisation op with x_hat and 1/sigma kept on its node.
    `layers._normalize`, which keeps only the mean and sigma and rebuilds
    x_hat in its backward, must give its output and gradients byte for
    byte."""
    dtype = x.dtype.type
    xv = x.data.reshape(view)
    inv_n = dtype(1.0 / xv.shape[axis])
    centered = xv - xv.sum(axis=axis, keepdims=True) * inv_n
    sigma = np.sqrt((centered * centered).sum(axis=axis, keepdims=True) * inv_n + dtype(eps))
    x_hat = (centered / sigma).reshape(x.shape)
    inv_sigma = 1.0 / sigma
    shape = (1, -1) + (1,) * (x.ndim - 2)
    others = (0,) + tuple(range(2, x.ndim))

    def bwd(g):
        if gamma.requires_grad:
            gamma._accumulate((g * x_hat).sum(axis=others), owned=True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=others), owned=True)
        if x.requires_grad:
            g_hat = (g * gamma.data.reshape(shape)).reshape(xv.shape)
            xh = x_hat.reshape(xv.shape)
            proj = (g_hat * xh).mean(axis=axis, keepdims=True)
            g_hat -= g_hat.mean(axis=axis, keepdims=True)
            g_hat -= xh * proj
            g_hat *= inv_sigma
            x._accumulate(g_hat.reshape(x.shape), owned=True)

    out = x_hat * gamma.data.reshape(shape) + beta.data.reshape(shape)
    return Tensor._op(out, (x, gamma, beta), bwd)


REORDER_C = 16


def assert_reordered_sum(got, want, terms_abs_sum):
    """Assert that `got` and `want` are the same sums added in different
    orders: each entry of |got - want| is at most REORDER_C * u * sum|terms|,
    where u is the dtype's unit roundoff (2^-24 in float32, 2^-53 in
    float64) and `terms_abs_sum` holds each entry's sum of |terms|. This is
    the standard bound on a reordered sum, |d| <= gamma_n * sum|x_i| (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., 2002, 4.2),
    with one fixed constant in place of gamma_n's n: 16u is 9.5e-7 in
    float32 and 1.8e-15 in float64."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    bound = REORDER_C * (np.finfo(got.dtype).eps / 2) * np.asarray(terms_abs_sum, np.float64)
    err = np.abs(got.astype(np.float64) - want)
    over = err > bound
    assert not over.any(), (f"{over.sum()} of {over.size} entries exceed {REORDER_C}u * "
                            f"sum|terms|, worst by {np.max(err / np.maximum(bound, 1e-300)):.3g}x")


def kept_kib(fn) -> float:
    """KiB that stay allocated once fn() returns, beyond the data of the
    tensor it returns: for one op, what its tape node keeps for the
    backward."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return (tracemalloc.get_traced_memory()[0] - base - out.data.nbytes) / 2**10
    finally:
        tracemalloc.stop()


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
