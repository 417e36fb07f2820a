"""Optimizer against a straight-line numpy reference, the per-tensor loop
as a float32 oracle, and hand cases."""

import math

import numpy as np
import pytest

from samaseg.optim import RUN, AdamW, cosine_lr
from samaseg.tensor import Tensor


class PerTensorAdamW:
    """AdamW as one loop over the tensors: the oracle the run-packed
    optimizer must match bit for bit. Like it, `step` consumes the
    gradients it applies."""

    def __init__(self, named_params, lr: float = 5e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for i, (name, t) in enumerate(self.named_params):
            g = t.grad
            if g is None:
                g = np.zeros_like(t.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            t.data *= 1.0 - self.lr * self.weight_decay
            t.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(t.data.dtype)
            t.grad = None


# name, shape, dtype, has a gradient. Packed into five runs: [a], [b, c]
# (a + b exceed RUN), [d] (float64), [e] (larger than RUN), [f, g].
MIXED = [("a", (2, RUN // 4 + 1), np.float32, True), ("b", (RUN // 2,), np.float32, True),
         ("c", (), np.float32, True), ("d", (50, 7), np.float64, True),
         ("e", (RUN + 17,), np.float32, True), ("f", (3, 5), np.float32, False),
         ("g", (6, 4, 3), np.float32, True)]


def mixed_params(seed=0):
    rng = np.random.default_rng(seed)
    return [(name, Tensor(rng.uniform(-1, 1, size=shape).astype(dtype), requires_grad=True,
                          dtype=dtype)) for name, shape, dtype, _ in MIXED]


def set_grads(params, rng):
    for (_, t), (_, shape, dtype, has_grad) in zip(params, MIXED):
        t.grad = np.asarray(rng.standard_normal(shape)).astype(dtype) if has_grad else None


def reference_adamw(p, grads, lr, b1, b2, eps, wd):
    """Independent per-step reference; `grads` is one gradient per step."""
    p = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p * (1 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdamW:
    def test_matches_reference_over_steps(self, rng):
        p0 = rng.uniform(-1, 1, size=(3, 4))
        t = Tensor(p0.copy(), requires_grad=True, dtype=np.float64)
        opt = AdamW([("p", t)], lr=1e-2, weight_decay=0.05)
        grads = [rng.uniform(-1, 1, size=(3, 4)) for _ in range(5)]
        for g in grads:
            t.grad = g.copy()
            opt.step()
        expected = reference_adamw(p0, grads, 1e-2, 0.9, 0.999, 1e-8, 0.05)
        np.testing.assert_allclose(t.data, expected, rtol=1e-12)

    def test_first_step_hand_case(self):
        # single scalar, g=2: m_hat = g, v_hat = g^2, step ~= -lr * sign(g)
        t = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
        opt = AdamW([("p", t)], lr=0.1, weight_decay=0.0)
        t.grad = np.array(2.0)
        opt.step()
        expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        np.testing.assert_allclose(float(t.data.reshape(())), expected, rtol=1e-12)

    def test_decay_is_decoupled(self):
        # zero gradient: only the multiplicative decay acts
        t = Tensor(np.full(3, 2.0), requires_grad=True, dtype=np.float64)
        opt = AdamW([("p", t)], lr=0.5, weight_decay=0.1)
        t.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(t.data, np.full(3, 2.0 * (1 - 0.5 * 0.1)), rtol=1e-15)

    def test_missing_grad_treated_as_zero(self):
        t = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        opt = AdamW([("p", t)], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(t.data, np.ones(2))

    def test_nonfinite_grad_names_parameter(self):
        t = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        opt = AdamW([("stage.0.weight", t)], lr=0.1)
        t.grad = np.array([1.0, np.nan])
        with pytest.raises(FloatingPointError, match="stage.0.weight"):
            opt.step()

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamW([], lr=-1.0)

    def test_parameter_listed_twice_rejected(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="'b' is listed twice"):
            AdamW([("a", t), ("b", t)])


class TestRuns:
    def test_packing(self):
        opt = AdamW(mixed_params())
        assert [run.names for run in opt.runs] == [["a"], ["b", "c"], ["d"], ["e"], ["f", "g"]]
        assert all(run.p.size <= RUN for run in opt.runs if len(run.names) > 1)

    def test_bit_identical_to_per_tensor_loop(self):
        params, oracle_params = mixed_params(), mixed_params()
        opt = AdamW(params, weight_decay=0.05)
        oracle = PerTensorAdamW(oracle_params, weight_decay=0.05)
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        for lr in (1e-3, 5e-3, 2e-3, 1e-2, 7e-4, 3e-3):
            opt.lr = oracle.lr = lr
            set_grads(params, rng_a)
            set_grads(oracle_params, rng_b)
            opt.step()
            oracle.step()
            for (name, t), (_, u) in zip(params, oracle_params):
                assert t.dtype == u.dtype and t.shape == u.shape, name
                assert np.array_equal(t.data, u.data), name
        moments = [(run.m[a:b], run.v[a:b]) for run in opt.runs for a, b in run.bounds]
        for (name, t), (m, v), m_ref, v_ref in zip(params, moments, oracle.m, oracle.v):
            assert np.array_equal(m, np.ravel(m_ref)) and np.array_equal(v, np.ravel(v_ref)), name

    def test_nonfinite_grad_in_later_run_names_that_parameter(self, rng):
        params = mixed_params()
        opt = AdamW(params)
        set_grads(params, rng)
        params[4][1].grad[RUN] = np.inf
        with pytest.raises(FloatingPointError, match="parameter 'e'"):
            opt.step()

    def test_step_consumes_every_gradient(self, rng):
        params = mixed_params()
        opt = AdamW(params)
        set_grads(params, rng)
        opt.step()
        assert all(t.grad is None for _, t in params)

    def test_parameters_are_views_of_their_run(self):
        params = mixed_params()
        before = [t.data.copy() for _, t in params]
        opt = AdamW(params)
        views = [(run, a, b, t) for run in opt.runs
                 for (a, b), t in zip(run.bounds, run.tensors)]
        assert [t for *_, t in views] == [t for _, t in params]
        for (run, a, b, t), old in zip(views, before):
            assert np.shares_memory(t.data, run.p)
            assert t.data.dtype == run.p.dtype
            assert np.array_equal(run.p[a:b], old.ravel())


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 3e-4) == 3e-4
        assert cosine_lr(100, 100, 3e-4) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(50, 100, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_matches_closed_form(self):
        for s in range(0, 11):
            expected = 1e-3 * 0.5 * (1 + math.cos(math.pi * s / 10))
            assert cosine_lr(s, 10, 1e-3) == pytest.approx(expected, rel=1e-15)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(s, 200, 1.0) for s in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1.0)
