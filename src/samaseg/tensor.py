"""Minimal dense N-D tensor with reverse-mode automatic differentiation.

Data lives in contiguous row-major numpy arrays (float32 by default,
float64 for gradient checking). The tape is implicit: every op attaches a
backward closure and its parent tensors, and ``backward`` replays them in
reverse topological order, releasing each node as it passes. A closure
keeps its parents and small statistics; larger arrays that its inputs
determine are recomputed in the backward by the same numpy calls, so
they carry the same bits. Gradients accumulate additively, so a value
used k times receives the sum of k adjoint contributions. Inside
``no_grad()`` no tape is recorded at all.

The core holds the ops the kit runs. The extra ops that only the tests'
oracle chains compose (division, log, sqrt, mean, ...) live beside those
oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from .profiler import record_macs

_FLOAT_DTYPES = (np.float32, np.float64)
_recording = True


@contextmanager
def no_grad():
    """Record no tape: every op made inside keeps no parents and no backward
    closure, so its inputs are freed as soon as nothing else holds them."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def is_recording() -> bool:
    """Whether ops made now record the tape: False inside `no_grad()`."""
    return _recording


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)); exp overflows to inf for x < -88 (float32), which
    gives the correct limit 0, so the overflow warning is silenced."""
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x))
    e += 1.0
    return np.divide(1.0, e, out=e)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = np.require(arr, requirements="C")   # keeps 0-d as 0-d
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev: tuple = ()
        self._backward_ran = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _recording and any(p.requires_grad for p in parents)
        out._backward_ran = False
        if out.requires_grad:
            out._prev = tuple(parents)
            out._backward = backward
        else:
            out._prev = ()
            out._backward = None
        return out

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add `g` to this tensor's gradient. A closure passes `owned=True`
        only for an array it has just allocated and keeps no other reference
        to; the first such gradient is taken as is. A view of the upstream
        gradient or of a shared array must stay `owned=False` and is copied,
        because later contributions add into the stored gradient in place."""
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=not owned)
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None):
        """Reverse-mode sweep from this tensor.

        Without a seed the tensor must be scalar; a seed must have the
        tensor's shape. Calling backward twice on the same result is an error
        (double-backward is unsupported).

        Leaves (tensors with no backward closure) keep their gradients.
        Every other node on the tape, this tensor included, drops its
        gradient, its closure and its parents as soon as its closure has
        run, and the sweep holds no node it has passed, so an array the rest
        of the backward no longer reads is freed mid-sweep. After backward
        no non-leaf tensor has a gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor detached from any tape")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this tensor; double-backward is unsupported")
        if seed is None:
            if self.size != 1:
                raise RuntimeError(f"backward without seed requires a scalar, got shape {self.shape}")
            seed = np.ones_like(self.data)
        elif seed.shape != self.shape:
            raise ValueError(f"backward seed of shape {seed.shape} "
                             f"for a tensor of shape {self.shape}")
        self._backward_ran = True

        # Iterative topological order (graphs can be deep: long scans).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        self.grad = seed.astype(self.data.dtype, copy=True)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._prev = None, None, ()

    # -- elementwise arithmetic --------------------------------------------

    @staticmethod
    def _coerce(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=like.data.dtype))

    def __add__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        out_data = a.data + b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._op(out_data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bwd(g):
            a._accumulate(-g, owned=True)

        return Tensor._op(-a.data, (a,), bwd)

    def __sub__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        out_data = a.data - b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.shape), owned=True)

        return Tensor._op(out_data, (a, b), bwd)

    def __mul__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        out_data = a.data * b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

        return Tensor._op(out_data, (a, b), bwd)

    __rmul__ = __mul__

    # -- elementwise nonlinearities ----------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            a._accumulate(g * out_data, owned=True)

        return Tensor._op(out_data, (a,), bwd)

    def sigmoid(self):
        a = self
        s = _sigmoid(a.data)

        def bwd(g):
            a._accumulate(g * s * (1.0 - s), owned=True)

        return Tensor._op(s, (a,), bwd)

    def silu(self):
        """x * sigmoid(x) as one op; the backward is g * s * (1 + x * (1 - s)),
        with s recomputed from x rather than kept on the tape."""
        a = self

        def bwd(g):
            s = _sigmoid(a.data)
            gs = g * s
            np.subtract(1.0, s, out=s)
            s *= a.data
            s += 1.0
            gs *= s
            a._accumulate(gs, owned=True)

        y = _sigmoid(a.data)
        y *= a.data
        return Tensor._op(y, (a,), bwd)

    def softplus(self):
        a = self
        # log(1 + exp(x)) without overflow
        out_data = np.maximum(a.data, 0) + np.log1p(np.exp(-np.abs(a.data)))

        def bwd(g):
            a._accumulate(g * _sigmoid(a.data), owned=True)

        return Tensor._op(out_data, (a,), bwd)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is None:
                grad = np.broadcast_to(g, a.shape)
            else:
                gg = g
                if not keepdims:
                    gg = np.expand_dims(g, axis)
                grad = np.broadcast_to(gg, a.shape)
            a._accumulate(grad)

        return Tensor._op(np.asarray(out_data), (a,), bwd)

    # -- contractions -------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, other
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner-dim mismatch: {a.shape} vs {b.shape}")
        out_data = np.matmul(a.data, b.data)
        record_macs(int(np.prod(out_data.shape)) * a.shape[-1])

        def bwd(g):
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape), owned=True)
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape), owned=True)

        return Tensor._op(out_data, (a, b), bwd)

    __matmul__ = matmul

    # -- shape manipulation -------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def bwd(g):
            a._accumulate(g.reshape(a.shape))

        return Tensor._op(out_data, (a,), bwd)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)
        out_data = np.ascontiguousarray(a.data.transpose(axes))

        def bwd(g):
            a._accumulate(g.transpose(inv).copy(), owned=True)

        return Tensor._op(out_data, (a,), bwd)

    def __getitem__(self, key) -> "Tensor":
        a = self
        out_data = np.ascontiguousarray(a.data[key])
        # `+=` keeps one gradient of a repeated index; np.add.at is ~20x slower
        keys = key if isinstance(key, tuple) else (key,)
        fancy = any(isinstance(k, (np.ndarray, list)) for k in keys)

        def bwd(g):
            # in place, not a full-size zeros array per slice: the SAMA mixer's
            # two channel halves then share one gradient buffer
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if fancy:
                np.add.at(a.grad, key, g)
            else:
                a.grad[key] += g

        return Tensor._op(out_data, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    out_data = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._op(out_data, parts, bwd)


def uniform(rng: np.random.Generator, shape, bound: float, dtype=np.float32) -> Tensor:
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)
