"""Multi-directional skip fusion: exact view bijections, hand-enumerated
2x2 sequences, identity reduction, a permutation-based oracle, and the
batched scan of all views against one scan call per view."""

import numpy as np
import pytest

from samaseg.crmsm import (VIEW_COUNT, CrMsm, CrMsmConfig, CrMsmScale, flatten_map,
                           invert_orient_map, make_views, orient_map, unflatten_map)
from samaseg.sama import AblationFlags
from samaseg.tensor import Tensor


def view_permutation(h, w, view, flip_mode="sequence"):
    """Row-major index permutation realized by one directional view."""
    idx = np.arange(h * w, dtype=np.float64).reshape(1, 1, h, w)
    return orient_map(Tensor(idx), view, flip_mode).data.reshape(-1).astype(int)


class TestViewBijections:
    @pytest.mark.parametrize("flip_mode", ["sequence", "mirror"])
    @pytest.mark.parametrize("view", range(VIEW_COUNT))
    def test_round_trip_bitwise(self, rng, view, flip_mode):
        for h in (1, 2, 3, 5, 8):
            for w in (1, 2, 4, 7):
                x = rng.uniform(size=(2, 3, h, w))
                back = invert_orient_map(orient_map(Tensor(x), view, flip_mode),
                                         view, flip_mode).data
                assert np.array_equal(back, x), (view, flip_mode, h, w)

    def test_views_are_permutations(self):
        for view in range(VIEW_COUNT):
            perm = view_permutation(3, 4, view)
            assert sorted(perm) == list(range(12))

    def test_2x2_sequences_enumerated(self):
        # x = [[a,b],[c,d]] row-major [a,b,c,d]
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        seqs = [v.data.reshape(-1) for v in make_views(x)]
        np.testing.assert_array_equal(seqs[0], [1, 2, 3, 4])   # original
        np.testing.assert_array_equal(seqs[1], [1, 3, 2, 4])   # transposed
        np.testing.assert_array_equal(seqs[2], [4, 3, 2, 1])   # reversed
        np.testing.assert_array_equal(seqs[3], [4, 2, 3, 1])   # reversed+transposed

    def test_mirror_mode_2x2(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        seqs = [flatten_map(orient_map(x, v, "mirror")).data.reshape(-1)
                for v in range(VIEW_COUNT)]
        np.testing.assert_array_equal(seqs[2], [2, 1, 4, 3])   # horizontal mirror
        np.testing.assert_array_equal(seqs[3], [2, 4, 1, 3])

    def test_flatten_round_trip(self, rng):
        x = rng.uniform(size=(2, 3, 4, 5))
        back = unflatten_map(flatten_map(Tensor(x)), 4, 5).data
        assert np.array_equal(back, x)

    def test_unknown_flip_mode_rejected(self):
        with pytest.raises(ValueError):
            orient_map(Tensor(np.zeros((1, 1, 2, 2))), 2, "diagonal")


class TestIdentityReduction:
    def test_identity_ssm_and_projection_give_input_back_bitwise(self, rng):
        scale = CrMsmScale(3, CrMsmConfig(state_size=2), AblationFlags(), rng,
                           dtype=np.float64)
        scale.ssm = lambda tokens: tokens           # identity scan
        scale.proj.weight.data = np.eye(3)
        scale.proj.bias.data = np.zeros(3)
        x = rng.uniform(-1, 1, size=(2, 3, 4, 5))
        out = scale(Tensor(x)).data
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 8), (8, 1), (5, 7)])
    def test_identity_reduction_odd_sizes(self, rng, h, w):
        scale = CrMsmScale(2, CrMsmConfig(), AblationFlags(), rng, dtype=np.float64)
        scale.ssm = lambda tokens: tokens
        scale.proj.weight.data = np.eye(2)
        scale.proj.bias.data = np.zeros(2)
        x = rng.uniform(size=(1, 2, h, w))
        assert np.array_equal(scale(Tensor(x)).data, x)


class TestScaleOracle:
    def test_matches_permutation_oracle(self, rng):
        scale = CrMsmScale(3, CrMsmConfig(state_size=4), AblationFlags(), rng,
                           dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 3, 3, 4))
        b, c, h, w = x.shape

        tokens = x.reshape(b, c, h * w).transpose(0, 2, 1)
        fused = np.zeros_like(tokens)
        for view in range(VIEW_COUNT):
            perm = view_permutation(h, w, view)
            y = scale.ssm(Tensor(tokens[:, perm])).data
            restored = np.empty_like(y)
            restored[:, perm] = y
            fused += restored
        fused *= 0.25
        expected = (fused @ scale.proj.weight.data.T + scale.proj.bias.data) \
            .transpose(0, 2, 1).reshape(b, c, h, w)
        np.testing.assert_allclose(scale(Tensor(x)).data, expected,
                                   rtol=1e-12, atol=1e-14)

    def test_single_view_when_multi_view_off(self, rng):
        flags = AblationFlags(multi_view=False)
        scale = CrMsmScale(2, CrMsmConfig(state_size=2), flags, rng, dtype=np.float64)
        x = rng.uniform(size=(1, 2, 3, 3))
        tokens = x.reshape(1, 2, 9).transpose(0, 2, 1)
        y = scale.ssm(Tensor(tokens)).data
        expected = (y @ scale.proj.weight.data.T + scale.proj.bias.data) \
            .transpose(0, 2, 1).reshape(1, 2, 3, 3)
        np.testing.assert_allclose(scale(Tensor(x)).data, expected, rtol=1e-12)

    def test_learned_fusion_when_causal_fusion_off(self, rng):
        flags = AblationFlags(causal_fusion=False)
        scale = CrMsmScale(2, CrMsmConfig(state_size=2), flags, rng)
        assert hasattr(scale, "fuse_proj")
        assert scale.fuse_proj.weight.shape == (2, 8)
        out = scale(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 2, 4, 4)

    def test_conv_fallback_when_ssm_off(self, rng):
        flags = AblationFlags(use_ssm=False)
        scale = CrMsmScale(2, CrMsmConfig(), flags, rng)
        assert not hasattr(scale, "ssm") and hasattr(scale, "conv")
        out = scale(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 2, 4, 4)


class TestBatchedViews:
    @pytest.mark.parametrize("multi_view", [True, False])
    @pytest.mark.parametrize("flip_mode", ["sequence", "mirror"])
    def test_one_scan_call_matches_per_view_calls_bitwise(self, rng, flip_mode, multi_view):
        flags = AblationFlags(multi_view=multi_view)
        scale = CrMsmScale(4, CrMsmConfig(state_size=3, flip_mode=flip_mode), flags, rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 5)).astype(np.float32))
        ssm = scale.ssm
        calls = []
        scale.ssm = lambda tokens: calls.append(tokens.shape) or ssm(tokens)
        batched = scale(x).data
        assert calls == [((4 if multi_view else 1) * 2, 15, 4)]

        scale.ssm = ssm
        scale._scan_views = lambda x, views: [scale._scan_view(x, j) for j in views]
        assert np.array_equal(batched, scale(x).data)


class TestPyramid:
    def test_independent_per_scale(self, rng):
        mod = CrMsm([2, 4], CrMsmConfig(state_size=2), AblationFlags(), rng,
                    dtype=np.float64)
        f0 = rng.uniform(size=(1, 2, 4, 4))
        f1 = rng.uniform(size=(1, 4, 2, 2))
        out_a = mod([Tensor(f0), Tensor(f1)])
        out_b = mod([Tensor(f0), Tensor(rng.uniform(size=(1, 4, 2, 2)))])
        assert np.array_equal(out_a[0].data, out_b[0].data)  # scale 0 unaffected
        assert out_a[0].shape == (1, 2, 4, 4) and out_a[1].shape == (1, 4, 2, 2)

    def test_scale_count_mismatch_rejected(self, rng):
        mod = CrMsm([2], CrMsmConfig(), AblationFlags(), rng)
        with pytest.raises(ValueError):
            mod([])
        with pytest.raises(ValueError):
            mod([Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))] * 2)
