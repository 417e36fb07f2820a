"""Autodiff tensor core: forward values against numpy, gradients against
central differences and hand-derived expressions, graph bookkeeping rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_matmul, randt
from samaseg.gradcheck import grad_check
from samaseg.tensor import Tensor, concat, uniform, zeros


class TestForwardValues:
    def test_arithmetic_matches_numpy(self, rng):
        a = rng.uniform(-2, 2, size=(3, 4))
        b = rng.uniform(0.5, 2, size=(3, 4))
        ta, tb = Tensor(a), Tensor(b)
        np.testing.assert_array_equal((ta + tb).data, a + b)
        np.testing.assert_array_equal((ta - tb).data, a - b)
        np.testing.assert_array_equal((ta * tb).data, a * b)
        np.testing.assert_array_equal((ta / tb).data, a / b)
        np.testing.assert_array_equal((-ta).data, -a)
        np.testing.assert_array_equal((ta ** 2).data, a ** 2)

    def test_unary_matches_numpy(self, rng):
        a = rng.uniform(0.1, 3, size=(4, 5))
        t = Tensor(a)
        np.testing.assert_allclose(t.exp().data, np.exp(a), rtol=1e-15)
        np.testing.assert_allclose(t.log().data, np.log(a), rtol=1e-15)
        np.testing.assert_allclose(t.sqrt().data, np.sqrt(a), rtol=1e-15)
        np.testing.assert_allclose(t.sigmoid().data, 1 / (1 + np.exp(-a)), rtol=1e-12)
        np.testing.assert_allclose(t.silu().data, a / (1 + np.exp(-a)), rtol=1e-12)
        np.testing.assert_allclose(t.softplus().data, np.log1p(np.exp(a)), rtol=1e-12)

    def test_sigmoid_softplus_stable_at_extremes(self):
        t = Tensor(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(t.sigmoid().data))
        assert np.all(np.isfinite(t.softplus().data))
        np.testing.assert_allclose(t.sigmoid().data, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(t.softplus().data, [0.0, 1e4], atol=1e-12)

    def test_reductions(self, rng):
        a = rng.uniform(-1, 1, size=(2, 3, 4))
        t = Tensor(a)
        np.testing.assert_allclose(t.sum().data, a.sum(), rtol=1e-15)
        np.testing.assert_allclose(t.sum(axis=1).data, a.sum(axis=1), rtol=1e-15)
        np.testing.assert_allclose(t.sum(axis=(0, 2), keepdims=True).data,
                                   a.sum(axis=(0, 2), keepdims=True), rtol=1e-15)
        np.testing.assert_allclose(t.mean(axis=2).data, a.mean(axis=2), rtol=1e-15)
        np.testing.assert_array_equal(t.max_const(axis=1, keepdims=True),
                                      a.max(axis=1, keepdims=True))

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
        np.testing.assert_array_equal(t.flip(2).data, np.flip(a, 2))
        np.testing.assert_array_equal(t.flip((1, 2)).data, np.flip(a, (1, 2)))

    def test_concat_stack(self, rng):
        a = rng.uniform(size=(2, 3))
        b = rng.uniform(size=(2, 3))
        np.testing.assert_array_equal(concat([Tensor(a), Tensor(b)], axis=1).data,
                                      np.concatenate([a, b], axis=1))

    def test_zeros_uniform(self, rng):
        z = zeros((2, 3))
        assert z.shape == (2, 3) and not z.data.any()
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


class TestBackwardNumeric:
    @pytest.mark.parametrize("fn,name", [
        (lambda x: (x.exp() + x.sigmoid() * x.silu()).sum(), "exp-sigmoid-silu"),
        (lambda x: ((x + 2.0).log() * x.softplus()).sum(), "log-softplus"),
        (lambda x: ((x * x + 1.0).sqrt() / (x + 3.0)).sum(), "sqrt-div"),
        (lambda x: x.reshape(2, 6).transpose(1, 0).sum(axis=0).mean(), "shape-ops"),
        (lambda x: x.flip((1, 2)).sum(axis=(0, 1)).sum(), "flip"),
    ])
    def test_composites(self, rng, fn, name):
        x = randt(rng, (2, 2, 3))
        assert grad_check(lambda xs: fn(xs[0]), [x]) < 1e-7, name

    def test_concat_stack_grads(self, rng):
        a = randt(rng, (2, 3))
        b = randt(rng, (2, 3))
        assert grad_check(lambda xs: (concat(xs, axis=1) ** 2).sum(), [a, b]) < 1e-7


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

    def test_no_graph_when_not_required(self):
        x = Tensor(np.ones(3), requires_grad=False)
        y = x * 2.0
        assert not y.requires_grad
        assert y.grad is None

    def test_detach_cuts_graph(self, rng):
        x = randt(rng, (3,))
        (x.detach() * x).sum().backward()
        np.testing.assert_allclose(x.grad, x.data)  # only the live branch contributes


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
