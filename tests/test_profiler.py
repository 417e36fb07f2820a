"""MAC counting: closed-form counts for simple layers, scope attribution,
linear scaling of attention and scan cost, and parameter accounting."""

import numpy as np
import pytest

from samaseg.attention import AttnConfig, DiffAggAttention
from samaseg.io import checkpoint_scalar_count, save_checkpoint
from samaseg.layers import ConvTranspose2d, Linear, conv2d
from samaseg.model import ModelConfig, SamaUNet
from samaseg.profiler import build_report, count_macs, mac_scope
from samaseg.ssm import SelectiveSsm
from samaseg.tensor import Tensor


def macs_of(fn) -> int:
    with count_macs() as counter:
        fn()
    return counter.total


class TestCounting:
    def test_linear_closed_form(self, rng):
        lin = Linear(8, 6, rng)
        x = Tensor(np.zeros((2, 5, 8), dtype=np.float32))
        assert macs_of(lambda: lin(x)) == 2 * 5 * 6 * 8

    def test_matmul_closed_form(self, rng):
        a = Tensor(np.zeros((3, 4, 5), dtype=np.float32))
        b = Tensor(np.zeros((3, 5, 7), dtype=np.float32))
        assert macs_of(lambda: a @ b) == 3 * 4 * 7 * 5

    def test_counting_disabled_outside_context(self, rng):
        lin = Linear(4, 4, rng)
        x = Tensor(np.zeros((1, 4), dtype=np.float32))
        lin(x)  # no context: must not pollute the next measurement
        assert macs_of(lambda: lin(x)) == 4 * 4

    def test_scopes_attribute_and_sum(self, rng):
        lin1 = Linear(4, 4, rng)
        lin2 = Linear(4, 4, rng)
        x = Tensor(np.zeros((1, 4), dtype=np.float32))
        with count_macs() as counter:
            with mac_scope("a"):
                lin1(x)
                with mac_scope("inner"):
                    lin2(x)
            with mac_scope("b"):
                lin1(x)
        assert counter.by_scope == {"a": 16, "a/inner": 16, "b": 16}
        assert counter.total == 48

    @pytest.mark.parametrize("c,out,groups,stride,padding", [
        (4, 6, 1, 1, 1), (4, 6, 2, 1, 0), (6, 6, 6, 1, 1), (6, 6, 6, 2, 1), (4, 6, 1, 2, 1),
    ], ids=["dense", "grouped", "depthwise", "depthwise-stride2", "dense-stride2"])
    def test_conv_closed_form(self, rng, c, out, groups, stride, padding):
        b, h, w, k = 2, 7, 6, 3
        x = Tensor(np.zeros((b, c, h, w), dtype=np.float32))
        weight = Tensor(np.zeros((out, c // groups, k, k), dtype=np.float32))
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        macs = macs_of(lambda: conv2d(x, weight, None, stride, padding, groups))
        assert macs == b * out * oh * ow * (c // groups) * k * k

    @pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 2, 1)])
    def test_transpose_conv_closed_form(self, rng, k, stride, padding):
        # every input pixel meets every kernel tap once; no products against inserted zeros
        b, c, out, h, w = 2, 4, 6, 5, 3
        ct = ConvTranspose2d(c, out, k, rng, stride=stride, padding=padding, bias=False)
        x = Tensor(np.zeros((b, c, h, w), dtype=np.float32))
        assert macs_of(lambda: ct(x)) == b * c * out * k * k * h * w


class TestLinearComplexity:
    def _branch_macs(self, kind, rng, hw):
        cfg = AttnConfig(channels=8, heads=2, local_window=3, global_pool=2)
        attn = DiffAggAttention(cfg, kind, rng)
        x = Tensor(np.zeros((1, 8, hw, hw), dtype=np.float32))
        return macs_of(lambda: attn(x))

    def test_local_attention_scales_linearly(self, rng):
        ratio = self._branch_macs("local", rng, 16) / self._branch_macs("local", rng, 8)
        assert 3.8 <= ratio <= 4.2

    def test_global_attention_scales_linearly(self, rng):
        ratio = self._branch_macs("global", rng, 16) / self._branch_macs("global", rng, 8)
        assert 3.8 <= ratio <= 4.2

    def test_scan_scales_linearly(self, rng):
        ssm = SelectiveSsm(8, 4, rng)

        def run(l):
            return macs_of(lambda: ssm(Tensor(np.zeros((1, l, 8), dtype=np.float32))))

        ratio = run(256) / run(64)
        assert 3.8 <= ratio <= 4.2


class TestReport:
    def _model(self, **kw):
        cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=8,
                          stage_depths=[1, 1], channel_mults=[1, 2], heads=2,
                          global_pool=2, **kw)
        return SamaUNet(cfg, np.random.default_rng(0))

    def test_totals_match_parameter_count(self, tmp_path):
        model = self._model()
        x = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        report = build_report(model, lambda: model(x))
        assert report.total_params == model.num_params()
        save_checkpoint(tmp_path / "ck", model)
        assert report.total_params == checkpoint_scalar_count(tmp_path / "ck")

    def test_rows_cover_architecture(self):
        model = self._model()
        x = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        report = build_report(model, lambda: model(x))
        names = [r[0] for r in report.rows]
        for expected in ("patch_embed", "stages.0", "stages.1", "crmsm",
                         "ups.0", "dec_blocks.0", "final_expand", "head_full"):
            assert any(n.startswith(expected) for n in names), expected
        assert report.total_macs > 0

    def test_gflops_convention_stated(self):
        model = self._model()
        x = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        report = build_report(model, lambda: model(x))
        text = report.format()
        assert "2 x MACs" in text
        assert f"{report.total_params}" in text
        assert report.total_gflops == 2.0 * report.total_macs / 1e9

    def test_macs_scale_with_batch(self):
        model = self._model()

        def run(b):
            x = Tensor(np.zeros((b, 1, 16, 16), dtype=np.float32))
            return build_report(model, lambda: model(x)).total_macs

        assert run(2) == 2 * run(1)
