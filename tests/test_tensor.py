"""Autodiff tensor core: forward values against numpy, gradients against
central differences and hand-derived expressions, graph bookkeeping rules."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import (contract, div, kept_kib, log, mean, naive_matmul, randt, rsub, sqrt,
                      stored_silu)
from samaseg.gradcheck import grad_check, relative_error
from samaseg.gradsuite import _weighted_sum
from samaseg.layers import Conv2d, Linear
from samaseg.profiler import count_macs
from samaseg.tensor import Tensor, concat, no_grad, uniform


class TestForwardValues:
    def test_arithmetic_matches_numpy(self, rng):
        a = rng.uniform(-2, 2, size=(3, 4))
        b = rng.uniform(0.5, 2, size=(3, 4))
        ta, tb = Tensor(a), Tensor(b)
        np.testing.assert_array_equal((ta + tb).data, a + b)
        np.testing.assert_array_equal((ta - tb).data, a - b)
        np.testing.assert_array_equal((ta * tb).data, a * b)
        np.testing.assert_array_equal(div(ta, tb).data, a / b)
        np.testing.assert_array_equal((-ta).data, -a)

    def test_scalar_stays_zero_dimensional(self, rng):
        assert Tensor(2.0).shape == ()
        assert Tensor(np.zeros(())).shape == ()
        t = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        assert (t.sum() * 2.0).shape == ()
        assert rsub(t.sum(), 2.0).shape == ()
        assert Tensor(2.0).item() == 2.0

    def test_unary_matches_numpy(self, rng):
        a = rng.uniform(0.1, 3, size=(4, 5))
        t = Tensor(a)
        np.testing.assert_allclose(t.exp().data, np.exp(a), rtol=1e-15)
        np.testing.assert_allclose(log(t).data, np.log(a), rtol=1e-15)
        np.testing.assert_allclose(sqrt(t).data, np.sqrt(a), rtol=1e-15)
        np.testing.assert_allclose(t.sigmoid().data, 1 / (1 + np.exp(-a)), rtol=1e-12)
        np.testing.assert_allclose(t.silu().data, a / (1 + np.exp(-a)), rtol=1e-12)
        np.testing.assert_allclose(t.softplus().data, np.log1p(np.exp(a)), rtol=1e-12)

    def test_sigmoid_softplus_stable_at_extremes(self):
        t = Tensor(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(t.sigmoid().data))
        assert np.all(np.isfinite(t.softplus().data))
        np.testing.assert_allclose(t.sigmoid().data, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(t.softplus().data, [0.0, 1e4], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_expit_over_the_whole_range(self, dtype):
        # the sigmoid behind sigmoid, silu and softplus' backward
        grid = np.concatenate([np.linspace(-1e4, 1e4, 20001), np.linspace(-120, 120, 24001),
                               [-np.inf, np.inf]]).astype(dtype)
        finfo = np.finfo(dtype)
        x = Tensor(grid, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = x.sigmoid().data
            x.softplus().sum().backward()
        assert s.dtype == dtype and x.grad.dtype == dtype
        for got in (s, x.grad):
            np.testing.assert_allclose(got, expit(grid), rtol=4 * finfo.eps, atol=finfo.tiny)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_one_op_matches_composite_at_large_magnitudes(self, dtype):
        grid = np.array([-1e4, -1e3, -700, -250, -100, 100, 250, 700, 1e3, 1e4], dtype=dtype)
        seed = np.linspace(-2, 2, grid.size).astype(dtype)
        out = {}
        for name, f in (("fused", lambda t: t.silu()), ("composite", lambda t: t * t.sigmoid())):
            x = Tensor(grid, requires_grad=True)
            y = f(x)
            y.backward(seed)
            out[name] = (y.data, x.grad)
        for got, want in zip(out["fused"], out["composite"]):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_softplus_keeps_float32(self):
        a = np.array([-80.0, -1.0, 0.0, 1.0, 80.0], dtype=np.float32)
        out = Tensor(a).softplus().data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, np.logaddexp(0.0, a.astype(np.float64)), rtol=1e-6)

    def test_reductions(self, rng):
        a = rng.uniform(-1, 1, size=(2, 3, 4))
        t = Tensor(a)
        np.testing.assert_allclose(t.sum().data, a.sum(), rtol=1e-15)
        np.testing.assert_allclose(t.sum(axis=1).data, a.sum(axis=1), rtol=1e-15)
        np.testing.assert_allclose(t.sum(axis=(0, 2), keepdims=True).data,
                                   a.sum(axis=(0, 2), keepdims=True), rtol=1e-15)
        np.testing.assert_allclose(mean(t, axis=2).data, a.mean(axis=2), rtol=1e-15)

    def test_matmul_matches_triple_loop_on_integers(self, rng):
        # exact agreement expected: integer values, same accumulation results
        a = rng.integers(-5, 6, size=(4, 3)).astype(np.float64)
        b = rng.integers(-5, 6, size=(3, 5)).astype(np.float64)
        np.testing.assert_array_equal((Tensor(a) @ Tensor(b)).data, naive_matmul(a, b))

    def test_matmul_batched(self, rng):
        a = rng.uniform(-1, 1, size=(2, 3, 4, 5))
        b = rng.uniform(-1, 1, size=(2, 3, 5, 6))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, rtol=1e-14)

    def test_shape_ops(self, rng):
        a = rng.uniform(-1, 1, size=(2, 3, 4))
        t = Tensor(a)
        np.testing.assert_array_equal(t.reshape(6, 4).data, a.reshape(6, 4))
        np.testing.assert_array_equal(t.transpose(2, 0, 1).data, a.transpose(2, 0, 1))
        np.testing.assert_array_equal(t[1, :, :2].data, a[1, :, :2])
        np.testing.assert_array_equal(t[:, :, ::-1].data, np.flip(a, 2))
        np.testing.assert_array_equal(t[:, ::-1, ::-1].data, np.flip(a, (1, 2)))

    def test_concat_stack(self, rng):
        a = rng.uniform(size=(2, 3))
        b = rng.uniform(size=(2, 3))
        np.testing.assert_array_equal(concat([Tensor(a), Tensor(b)], axis=1).data,
                                      np.concatenate([a, b], axis=1))

    def test_uniform_within_bound(self, rng):
        u = uniform(rng, (100,), 0.5)
        assert u.requires_grad and np.all(np.abs(u.data) <= 0.5)


class TestBackwardHandDerived:
    def test_sum_grad_is_ones(self, rng):
        x = randt(rng, (3, 4))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_grad(self, rng):
        x = randt(rng, (5,))
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-15)

    def test_grad_accumulates_over_reuse(self, rng):
        x = randt(rng, (3,))
        y = x + x * x  # dy/dx = 1 + 2x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 1 + 2 * x.data, rtol=1e-15)

    def test_broadcast_grad_is_summed(self, rng):
        a = randt(rng, (3, 4))
        b = randt(rng, (1, 4))
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0, keepdims=True), rtol=1e-14)
        np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (3, 4)), rtol=1e-15)

    def test_matmul_grad_closed_form(self, rng):
        a = randt(rng, (3, 4))
        b = randt(rng, (4, 2))
        (a @ b).sum().backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-14)

    def test_getitem_grad_scatters(self, rng):
        x = randt(rng, (4, 4))
        x[1:3, 2].sum().backward()
        expected = np.zeros((4, 4))
        expected[1:3, 2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)


class TestGradientOwnership:
    """A closure may hand its gradient over without a copy only when it made
    that array itself; a view of the upstream gradient must be copied, or a
    later contribution adds into the upstream node's gradient in place.

    The sweep drops every non-leaf gradient, so the check does not read
    them: it wraps each closure on the tape to keep the gradient it is
    handed and a copy made at that moment, and after the sweep every
    handed gradient must still equal its copy."""

    @staticmethod
    def _backward(y, rng):
        handed = []
        seen, stack = set(), [y]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                def watched(g, closure=node._backward):
                    handed.append((g, g.copy()))
                    closure(g)
                node._backward = watched
            stack.extend(node._prev)
        seed = rng.uniform(-1, 1, size=y.shape)
        y.backward(seed)
        assert handed and y.grad is None
        for g, at_hand_over in handed:
            np.testing.assert_array_equal(g, at_hand_over)
        return seed, [g for g, _ in handed]

    def test_reused_input(self, rng):
        x = randt(rng, (3, 4))
        y = x + x
        seed, handed = self._backward(y, rng)
        np.testing.assert_array_equal(handed, [seed])
        np.testing.assert_array_equal(x.grad, 2 * seed)

    def test_reshape_chain(self, rng):
        x = randt(rng, (3, 4))
        a = x.reshape(12).reshape(2, 6)
        b = x.reshape(2, 6)
        y = a + b
        seed, handed = self._backward(y, rng)
        assert len(handed) == 4           # y, a, a's inner reshape and b
        for g in handed:
            np.testing.assert_array_equal(g.reshape(seed.shape), seed)
        for node in (y, a, b):
            assert node.grad is None
        np.testing.assert_array_equal(x.grad, 2 * seed.reshape(3, 4))

    def test_broadcast_add(self, rng):
        x = randt(rng, (3, 4))
        bias = randt(rng, (4,))
        a = x + bias
        y = a + x
        seed, handed = self._backward(y, rng)
        np.testing.assert_array_equal(handed, [seed, seed])
        for node in (y, a):
            assert node.grad is None
        np.testing.assert_array_equal(x.grad, 2 * seed)
        np.testing.assert_allclose(bias.grad, seed.sum(axis=0), rtol=1e-15)


class TestBackwardNumeric:
    @pytest.mark.parametrize("fn,name", [
        (lambda x: (x.exp() + x.sigmoid() * x.silu()).sum(), "exp-sigmoid-silu"),
        (lambda x: (log(x + 2.0) * x.softplus()).sum(), "log-softplus"),
        (lambda x: div(sqrt(x * x + 1.0), x + 3.0).sum(), "sqrt-div"),
        (lambda x: mean(x.reshape(2, 6).transpose(1, 0).sum(axis=0)), "shape-ops"),
        (lambda x: x[:, ::-1, ::-1].sum(axis=(0, 1)).sum(), "flip"),
    ])
    def test_composites(self, rng, fn, name):
        x = randt(rng, (2, 2, 3))
        assert grad_check(lambda xs: fn(xs[0]), [x]) < 1e-7, name

    @pytest.mark.parametrize("key", [
        np.array([0, 0, 2]),                     # integer array, repeated row
        [3, 1, 3, 3],                            # list, repeated three times
        (np.array([1, 1]), slice(0, 2)),         # index array beside a slice
        (slice(None), [2, 0, 2]),                # list on the second axis
    ])
    def test_getitem_repeated_indices_sum(self, rng, key):
        x = randt(rng, (4, 3))
        w = rng.uniform(-2, 2, size=np.zeros((4, 3))[key].shape)
        assert grad_check(lambda xs: (xs[0][key] * Tensor(w)).sum(), [x]) < 1e-7

    def test_concat_stack_grads(self, rng):
        a = randt(rng, (2, 3))
        b = randt(rng, (2, 3))

        def f(xs):
            x = concat(xs, axis=1)
            return (x * x).sum()

        assert grad_check(f, [a, b]) < 1e-7


class TestGradCheckFloor:
    """Each entry's relative error is floored at 1e-3 of its tensor's largest
    gradient entry: a small entry beside large ones passes its roundoff,
    while an error of 1e-5 on a large entry still fails."""

    @staticmethod
    def _conv_case():
        rng = np.random.default_rng(0)
        conv = Conv2d(4, 6, 3, rng, bias=False, dtype=np.float64)
        x = randt(rng, (2, 4, 5, 6))
        return x, lambda xs: _weighted_sum(conv(xs[0]), np.random.default_rng(7))

    def test_small_entry_beside_large_ones_passes(self):
        # entry 64 of x's gradient is 2.39e-5 beside a largest entry of 1.95;
        # its central difference errs by 4.4e-11, 1.8e-6 of the entry itself
        x, f = self._conv_case()
        assert grad_check(f, [x]) < 1e-6
        flat, h = x.data.reshape(-1), 1e-5
        orig = flat[64]
        flat[64] = orig + h
        fp = float(f([x]).data)
        flat[64] = orig - h
        fm = float(f([x]).data)
        flat[64] = orig
        assert abs(x.grad.flat[64]) < 1e-4 < 1.9 < np.abs(x.grad).max()
        assert relative_error(float(x.grad.flat[64]), (fp - fm) / (2 * h)) > 1e-6

    def test_planted_scale_on_a_large_entry_fails(self):
        # an identity op whose backward scales x's largest gradient entry by
        # 1 + 1e-5
        x, f = self._conv_case()
        f([x]).backward()
        top = int(np.abs(x.grad).argmax())

        def planted(t):
            def bwd(g):
                g = g.copy()
                g.flat[top] *= 1 + 1e-5
                t._accumulate(g, owned=True)
            return Tensor._op(t.data.copy(), (t,), bwd)

        err = grad_check(lambda xs: f([planted(xs[0])]), [x])
        assert 1e-6 < err < 2e-5, err


CONTRACT_CASES = [
    ((2, 3, 1, 5), (2, 3, 4, 5), 2),         # a broadcasts (local-attention logits)
    ((2, 1, 4, 5), (2, 3, 4, 5), 1),         # a broadcasts along the summed axis
    ((2, 3, 4, 5), (3, 1, 5), 3),            # b broadcasts, with fewer dims
    ((3, 4, 5), (2, 3, 1, 5), (0, 3)),       # tuple axis over a broadcast axis
    ((4, 5), (4, 5), -1),
]


class TestContract:
    @pytest.mark.parametrize("sa,sb,axis", CONTRACT_CASES)
    def test_matches_sum_of_product(self, rng, sa, sb, axis):
        a = rng.uniform(-1, 1, size=sa)
        b = rng.uniform(-1, 1, size=sb)
        np.testing.assert_allclose(contract(Tensor(a), Tensor(b), axis).data,
                                   (a * b).sum(axis), rtol=1e-14)

    @pytest.mark.parametrize("sa,sb,axis", CONTRACT_CASES)
    def test_gradients_match_finite_differences(self, rng, sa, sb, axis):
        a, b = randt(rng, sa), randt(rng, sb)
        w = rng.uniform(-1, 1, size=np.sum(np.ones(np.broadcast_shapes(sa, sb)), axis).shape)
        assert grad_check(lambda xs: (contract(xs[0], xs[1], axis) * w).sum(), [a, b]) < 1e-7

    @pytest.mark.parametrize("sa,sb,axis", CONTRACT_CASES)
    def test_macs_are_product_size(self, rng, sa, sb, axis):
        with count_macs() as counter:
            contract(Tensor(np.ones(sa)), Tensor(np.ones(sb)), axis)
        assert counter.total == int(np.prod(np.broadcast_shapes(sa, sb)))


class TestGraphContract:
    def test_backward_twice_errors(self, rng):
        x = randt(rng, (3,))
        y = (x * x).sum()
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_without_grad_errors(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            (x * 2.0).sum().backward()

    def test_seed_of_another_shape_rejected(self, rng):
        # a seed that broadcasts, or has the right size only, is an error
        x = randt(rng, (2, 3))
        y = x * 2.0
        with pytest.raises(ValueError, match="shape"):
            y.backward(np.ones((4, 2, 3)))
        y.backward(np.ones((2, 3)))          # the rejected seed left no mark
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        out = Linear(3, 2, rng, dtype=np.float64)(randt(rng, (4, 3, 5)))
        assert out.shape == (4, 2, 5)
        with pytest.raises(ValueError, match="shape"):
            out.backward(np.ones((4, 5, 2)))

    def test_no_graph_when_not_required(self):
        x = Tensor(np.ones(3), requires_grad=False)
        y = x * 2.0
        assert not y.requires_grad
        assert y.grad is None

    def test_sweep_releases_every_non_leaf_and_keeps_leaf_gradients(self, rng):
        x, w = randt(rng, (3, 4)), randt(rng, (4,))
        frozen = Tensor(np.ones(4))
        a = x * w + frozen
        b = a.exp()
        y = (b * a).sum()
        y.backward()
        for node in (a, b, y):
            assert node.grad is None and node._backward is None and node._prev == ()
        assert frozen.grad is None
        e = np.exp(x.data * w.data + 1.0)
        np.testing.assert_allclose(x.grad, w.data * e * (x.data * w.data + 2.0), rtol=1e-12)
        np.testing.assert_allclose(w.grad, (x.data * e * (x.data * w.data + 2.0)).sum(axis=0),
                                   rtol=1e-12)

    def test_sweep_frees_each_node_once_its_consumers_ran(self, rng):
        # a chain of eight 1 MiB maps: with every node and gradient held
        # until the sweep ended the backward peaked at 9.0 MiB above its
        # start; released as the sweep passes them, at 2.0 MiB
        x = Tensor(rng.uniform(-1, 1, size=(1 << 17,)), requires_grad=True)
        y = x
        for _ in range(8):
            y = y * 1.5
        y = y.sum()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y.backward()
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 5, f"{peak:.1f} MiB"


class TestSiluTape:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_stored_sigmoid_op_bytewise(self, rng, dtype):
        data = rng.uniform(-12, 12, size=(2, 3, 5, 7)).astype(dtype)
        seed = rng.standard_normal(data.shape).astype(dtype)
        runs = []
        for silu in (Tensor.silu, stored_silu):
            x = Tensor(data, requires_grad=True)
            y = silu(x)
            y.backward(seed)
            runs.append((y.data, x.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_keeps_no_sigmoid(self, rng, dtype):
        # the node kept a 512 KiB sigmoid at float32 when the backward read it
        x = Tensor(rng.uniform(-1, 1, size=(1, 32, 64, 64)).astype(dtype), requires_grad=True)
        assert kept_kib(x.silu) <= 4


class TestNoGrad:
    def _ops(self, rng):
        a, b = randt(rng, (3, 4)), randt(rng, (4, 2))
        ab = a @ b
        return [ab, ab.exp(), (ab * 2.0 + ab).sum(), a[1:], a.transpose(1, 0),
                concat([a, a], axis=0), contract(a, a, 1)]

    def test_nodes_keep_no_parent_or_closure(self, rng):
        with no_grad():
            outs = self._ops(rng)
        for out in outs:
            assert not out.requires_grad
            assert out._prev == () and out._backward is None

    def test_backward_on_a_no_grad_node_raises(self, rng):
        with no_grad():
            y = (randt(rng, (3,)) * 2.0).sum()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_recording_resumes_after_exit_nesting_and_errors(self, rng):
        with no_grad():
            with no_grad():
                pass
            assert not self._ops(rng)[0].requires_grad
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError
        assert all(out._backward is not None for out in self._ops(rng))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_matmul_property_matches_oracle(n, k, m, seed):
    r = np.random.default_rng(seed)
    a = r.integers(-4, 5, size=(n, k)).astype(np.float64)
    b = r.integers(-4, 5, size=(k, m)).astype(np.float64)
    np.testing.assert_array_equal((Tensor(a) @ Tensor(b)).data, naive_matmul(a, b))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_broadcast_add_grads_are_counts(n, m, seed):
    r = np.random.default_rng(seed)
    a = Tensor(r.uniform(size=(n, m)), requires_grad=True, dtype=np.float64)
    b = Tensor(r.uniform(size=(m,)), requires_grad=True, dtype=np.float64)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((n, m)))
    np.testing.assert_array_equal(b.grad, np.full(m, float(n)))
