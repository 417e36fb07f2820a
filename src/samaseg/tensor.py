"""Minimal dense N-D tensor with reverse-mode automatic differentiation.

Data lives in contiguous row-major numpy arrays (float32 by default,
float64 for gradient checking). The tape is implicit: every op attaches a
backward closure and its parent tensors, and ``backward`` replays them in
reverse topological order. Gradients accumulate additively, so a value
used k times receives the sum of k adjoint contributions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .profiler import record_macs

_FLOAT_DTYPES = (np.float32, np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |x|."""
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    s[~pos] = e / (1.0 + e)
    return s


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = np.ascontiguousarray(arr)
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

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._backward_ran = False
        if out.requires_grad:
            out._prev = tuple(parents)
            out._backward = backward
        else:
            out._prev = ()
            out._backward = None
        return out

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None):
        """Reverse-mode sweep from this tensor.

        Without a seed the tensor must be scalar. Calling backward twice on
        the same result is an error (double-backward is unsupported).
        """
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor detached from any tape")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this tensor; double-backward is unsupported")
        self._backward_ran = True
        if seed is None:
            if self.size != 1:
                raise RuntimeError(f"backward without seed requires a scalar, got shape {self.shape}")
            seed = np.ones_like(self.data)

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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # release graph references as we go
                node._backward = None
                node._prev = ()

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
            a._accumulate(-g)

        return Tensor._op(-a.data, (a,), bwd)

    def __sub__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        out_data = a.data - b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.shape))

        return Tensor._op(out_data, (a, b), bwd)

    def __rsub__(self, other):
        return Tensor._coerce(other, self) - self

    def __mul__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        out_data = a.data * b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._op(out_data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other, self)
        a, b = self, other
        out_data = a.data / b.data

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._op(out_data, (a, b), bwd)

    def __rtruediv__(self, other):
        return Tensor._coerce(other, self) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar powers are supported")
        a = self
        out_data = a.data ** p

        def bwd(g):
            a._accumulate(g * p * a.data ** (p - 1))

        return Tensor._op(out_data, (a,), bwd)

    # -- elementwise nonlinearities ----------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            a._accumulate(g * out_data)

        return Tensor._op(out_data, (a,), bwd)

    def log(self):
        a = self
        out_data = np.log(a.data)

        def bwd(g):
            a._accumulate(g / a.data)

        return Tensor._op(out_data, (a,), bwd)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            a._accumulate(g * 0.5 / out_data)

        return Tensor._op(out_data, (a,), bwd)

    def sigmoid(self):
        a = self
        s = _stable_sigmoid(a.data)

        def bwd(g):
            a._accumulate(g * s * (1.0 - s))

        return Tensor._op(s, (a,), bwd)

    def silu(self):
        return self * self.sigmoid()

    def softplus(self):
        a = self
        # log(1 + exp(x)) without overflow
        out_data = np.logaddexp(0.0, a.data).astype(a.data.dtype)

        def bwd(g):
            a._accumulate(g * _stable_sigmoid(a.data))

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
            a._accumulate(np.ascontiguousarray(grad))

        return Tensor._op(np.asarray(out_data), (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        elif isinstance(axis, int):
            n = self.shape[axis]
        else:
            n = 1
            for ax in axis:
                n *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max_const(self, axis=None, keepdims: bool = False) -> np.ndarray:
        """Max of the current values, as a constant (no gradient flows)."""
        return self.data.max(axis=axis, keepdims=keepdims)

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
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape))

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
            a._accumulate(np.ascontiguousarray(g.transpose(inv)))

        return Tensor._op(out_data, (a,), bwd)

    def __getitem__(self, key) -> "Tensor":
        a = self
        out_data = np.ascontiguousarray(a.data[key])

        def bwd(g):
            # in place: a full-size zeros array per slice makes per-step slicing O(L^2)
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[key] += g

        return Tensor._op(out_data, (a,), bwd)

    def flip(self, axis) -> "Tensor":
        a = self
        out_data = np.ascontiguousarray(np.flip(a.data, axis))

        def bwd(g):
            a._accumulate(np.ascontiguousarray(np.flip(g, axis)))

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
                t._accumulate(np.ascontiguousarray(g[tuple(sl)]))

    return Tensor._op(out_data, parts, bwd)


def zeros(shape, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def uniform(rng: np.random.Generator, shape, bound: float, dtype=np.float32,
            requires_grad: bool = True) -> Tensor:
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=requires_grad)
