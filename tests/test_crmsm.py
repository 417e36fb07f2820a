"""Multi-directional skip fusion: the view index table against a loop
oracle and hand-enumerated sequences, bit-exact round trips through the two
gather ops, identity reduction, a permutation-based oracle, and the batched
scan of all views against each view scanned alone."""

import numpy as np
import pytest

from samaseg.crmsm import VIEW_COUNT, CrMsm, CrMsmScale, from_views, to_views, view_index
from samaseg.model import ModelConfig
from samaseg.sama import AblationFlags
from samaseg.tensor import Tensor


def loop_order(h, w, view, flip_mode):
    """Row-major positions in the order view `view` visits them, by loops."""
    rows, cols = range(h), range(w)
    if view == 0:
        return [r * w + c for r in rows for c in cols]
    if view == 1:
        return [r * w + c for c in cols for r in rows]
    if flip_mode == "sequence":
        return loop_order(h, w, view - 2, flip_mode)[::-1]
    if view == 2:                                          # mirror: rows right to left
        return [r * w + c for r in rows for c in reversed(cols)]
    return [r * w + c for c in reversed(cols) for r in rows]


class TestViewBijections:
    @pytest.mark.parametrize("flip_mode", ["sequence", "mirror"])
    @pytest.mark.parametrize("view", range(VIEW_COUNT))
    def test_round_trip_bitwise(self, rng, view, flip_mode):
        for h in range(1, 9):
            for w in range(1, 9):
                x = rng.uniform(size=(2, 3, h, w))
                idx = view_index(h, w, flip_mode=flip_mode)
                tokens = to_views(Tensor(x), idx)
                assert tokens.shape == (VIEW_COUNT * 2, h * w, 3)
                back = from_views(tokens, idx, h, w).data
                assert back.shape == (2, VIEW_COUNT, 3, h, w)
                assert np.array_equal(back[:, view], x), (view, flip_mode, h, w)

    def test_views_are_permutations(self):
        for flip_mode in ("sequence", "mirror"):
            for h, w in [(1, 1), (1, 5), (4, 1), (3, 4), (5, 2)]:
                idx = view_index(h, w, flip_mode=flip_mode)
                assert idx.shape == (VIEW_COUNT, h * w)
                for v, row in enumerate(idx):
                    assert sorted(row) == list(range(h * w))
                    assert list(row) == loop_order(h, w, v, flip_mode), (flip_mode, h, w, v)

    def test_2x2_sequences_enumerated(self):
        # x = [[a,b],[c,d]] row-major [a,b,c,d]
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        seqs = to_views(x, view_index(2, 2)).data.reshape(VIEW_COUNT, 4)
        np.testing.assert_array_equal(seqs[0], [1, 2, 3, 4])   # original
        np.testing.assert_array_equal(seqs[1], [1, 3, 2, 4])   # transposed
        np.testing.assert_array_equal(seqs[2], [4, 3, 2, 1])   # reversed
        np.testing.assert_array_equal(seqs[3], [4, 2, 3, 1])   # reversed+transposed

    def test_mirror_mode_2x2(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        seqs = to_views(x, view_index(2, 2, flip_mode="mirror")).data.reshape(VIEW_COUNT, 4)
        np.testing.assert_array_equal(seqs[0], [1, 2, 3, 4])
        np.testing.assert_array_equal(seqs[1], [1, 3, 2, 4])
        np.testing.assert_array_equal(seqs[2], [2, 1, 4, 3])   # horizontal mirror
        np.testing.assert_array_equal(seqs[3], [2, 4, 1, 3])

    def test_2x3_sequences_enumerated(self):
        # x = [[a,b,c],[d,e,f]]; the transposed views scan it as 3x2
        np.testing.assert_array_equal(view_index(2, 3), [[0, 1, 2, 3, 4, 5],
                                                         [0, 3, 1, 4, 2, 5],
                                                         [5, 4, 3, 2, 1, 0],
                                                         [5, 2, 4, 1, 3, 0]])
        np.testing.assert_array_equal(view_index(2, 3, flip_mode="mirror")[2:],
                                      [[2, 1, 0, 5, 4, 3],
                                       [2, 5, 1, 4, 0, 3]])

    def test_flatten_round_trip(self, rng):
        # one view is the plain row-major flatten to [B,H*W,C] tokens
        x = rng.uniform(size=(2, 3, 4, 5))
        idx = view_index(4, 5, views=1)
        np.testing.assert_array_equal(idx, [np.arange(20)])
        tokens = to_views(Tensor(x), idx)
        assert np.array_equal(tokens.data, x.reshape(2, 3, 20).transpose(0, 2, 1))
        assert np.array_equal(from_views(tokens, idx, 4, 5).data[:, 0], x)

    def test_unknown_flip_mode_rejected(self):
        with pytest.raises(ValueError):
            view_index(2, 2, flip_mode="diagonal")


class TestShapeConstants:
    def test_view_index_built_once_and_read_only(self):
        idx = view_index(3, 5, flip_mode="mirror")
        assert view_index(3, 5, flip_mode="mirror") is idx
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_cached_tables_keep_round_trips_bitwise(self, rng):
        # first and repeated calls give the same bits, forward and backward
        x = rng.uniform(size=(2, 3, 4, 3))
        g = rng.uniform(size=(2, VIEW_COUNT, 3, 4, 3))
        runs = []
        for _ in range(2):
            xt = Tensor(x, requires_grad=True)
            idx = view_index(4, 3)
            back = from_views(to_views(xt, idx), idx, 4, 3)
            back.backward(g)
            runs.append((back.data, xt.grad))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][1], g.sum(axis=1))


class TestIdentityReduction:
    def test_identity_ssm_and_projection_give_input_back_bitwise(self, rng):
        scale = CrMsmScale(3, ModelConfig(state_size=2), rng, dtype=np.float64)
        scale.ssm = lambda tokens: tokens           # identity scan
        scale.proj.weight.data = np.eye(3)
        scale.proj.bias.data = np.zeros(3)
        x = rng.uniform(-1, 1, size=(2, 3, 4, 5))
        out = scale(Tensor(x)).data
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 8), (8, 1), (5, 7)])
    def test_identity_reduction_odd_sizes(self, rng, h, w):
        scale = CrMsmScale(2, ModelConfig(), rng, dtype=np.float64)
        scale.ssm = lambda tokens: tokens
        scale.proj.weight.data = np.eye(2)
        scale.proj.bias.data = np.zeros(2)
        x = rng.uniform(size=(1, 2, h, w))
        assert np.array_equal(scale(Tensor(x)).data, x)


class TestScaleOracle:
    def test_matches_permutation_oracle(self, rng):
        scale = CrMsmScale(3, ModelConfig(state_size=4), rng, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 3, 3, 4))
        b, c, h, w = x.shape

        tokens = x.reshape(b, c, h * w).transpose(0, 2, 1)
        fused = np.zeros_like(tokens)
        for view in range(VIEW_COUNT):
            perm = loop_order(h, w, view, "sequence")
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
        scale = CrMsmScale(2, ModelConfig(state_size=2, flags=flags), rng, dtype=np.float64)
        x = rng.uniform(size=(1, 2, 3, 3))
        tokens = x.reshape(1, 2, 9).transpose(0, 2, 1)
        y = scale.ssm(Tensor(tokens)).data
        expected = (y @ scale.proj.weight.data.T + scale.proj.bias.data) \
            .transpose(0, 2, 1).reshape(1, 2, 3, 3)
        np.testing.assert_allclose(scale(Tensor(x)).data, expected, rtol=1e-12)

    def test_learned_fusion_when_causal_fusion_off(self, rng):
        flags = AblationFlags(causal_fusion=False)
        scale = CrMsmScale(2, ModelConfig(state_size=2, flags=flags), rng)
        assert hasattr(scale, "fuse_proj")
        assert scale.fuse_proj.weight.shape == (2, 8)
        out = scale(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 2, 4, 4)

    def test_conv_fallback_when_ssm_off(self, rng):
        flags = AblationFlags(use_ssm=False)
        scale = CrMsmScale(2, ModelConfig(flags=flags), rng)
        assert not hasattr(scale, "ssm") and hasattr(scale, "conv")
        out = scale(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 2, 4, 4)

    def test_conv_fallback_on_non_square_map_matches_oriented_convs(self, rng):
        # each view's conv reads its oriented map: the transposed views are 5x3
        scale = CrMsmScale(2, ModelConfig(flags=AblationFlags(use_ssm=False)), rng,
                           dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 2, 3, 5))
        t = (0, 1, 3, 2)
        rot = x[:, :, ::-1, ::-1]
        convs = [scale.conv(Tensor(np.ascontiguousarray(m))).data
                 for m in (x, x.transpose(t), rot, rot.transpose(t))]
        fused = (convs[0] + convs[1].transpose(t) + convs[2][:, :, ::-1, ::-1]
                 + convs[3].transpose(t)[:, :, ::-1, ::-1]) * 0.25
        expected = np.einsum("oc,bchw->bohw", scale.proj.weight.data, fused) \
            + scale.proj.bias.data[:, None, None]
        np.testing.assert_allclose(scale(Tensor(x)).data, expected, rtol=1e-12, atol=1e-14)


class TestBatchedViews:
    @pytest.mark.parametrize("multi_view", [True, False])
    @pytest.mark.parametrize("flip_mode", ["sequence", "mirror"])
    def test_one_scan_call_matches_per_view_calls_bitwise(self, rng, flip_mode, multi_view):
        flags = AblationFlags(multi_view=multi_view)
        scale = CrMsmScale(4, ModelConfig(state_size=3, flip_mode=flip_mode, flags=flags), rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 5)).astype(np.float32))
        n_views = VIEW_COUNT if multi_view else 1
        ssm = scale.ssm
        calls = []
        scale.ssm = lambda tokens: calls.append((tokens.shape, ssm(tokens))) or calls[-1][1]
        scale(x)
        assert [shape for shape, _ in calls] == [(n_views * 2, 15, 4)]

        idx = view_index(3, 5, n_views, flip_mode)
        batched = calls[0][1].data
        for v in range(n_views):
            alone = ssm(to_views(x, idx[v:v + 1])).data
            assert np.array_equal(batched[2 * v:2 * v + 2], alone), v


class TestPyramid:
    def test_independent_per_scale(self, rng):
        mod = CrMsm([2, 4], ModelConfig(state_size=2), rng, dtype=np.float64)
        f0 = rng.uniform(size=(1, 2, 4, 4))
        f1 = rng.uniform(size=(1, 4, 2, 2))
        out_a = mod([Tensor(f0), Tensor(f1)])
        out_b = mod([Tensor(f0), Tensor(rng.uniform(size=(1, 4, 2, 2)))])
        assert np.array_equal(out_a[0].data, out_b[0].data)  # scale 0 unaffected
        assert out_a[0].shape == (1, 2, 4, 4) and out_a[1].shape == (1, 4, 2, 2)

    def test_scale_count_mismatch_rejected(self, rng):
        mod = CrMsm([2], ModelConfig(), rng)
        with pytest.raises(ValueError):
            mod([])
        with pytest.raises(ValueError):
            mod([Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))] * 2)
