"""Encoder block: shape laws, the gated macro structure vs. the plain
mixer, and exact residual behaviour."""

import numpy as np
import pytest

from samaseg.model import ModelConfig
from samaseg.sama import AblationFlags, SamaBlock, SamaTokenMixer
from samaseg.tensor import Tensor


def small_cfg(**kw):
    base = dict(expansion=2, ffn_ratio=2, heads=2, local_window=3, global_pool=2)
    base.update(kw)
    return ModelConfig(**base)


class TestShapes:
    @pytest.mark.parametrize("h,w", [(4, 4), (3, 5), (7, 2)])
    def test_block_preserves_shape(self, rng, h, w):
        blk = SamaBlock(8, small_cfg(), rng)
        out = blk(Tensor(np.zeros((2, 8, h, w), dtype=np.float32)))
        assert out.shape == (2, 8, h, w)

    def test_channel_mismatch_rejected(self, rng):
        mixer = SamaTokenMixer(8, small_cfg(), rng)
        with pytest.raises(ValueError):
            mixer(Tensor(np.zeros((1, 6, 4, 4), dtype=np.float32)))

    def test_odd_channels_without_macro_rejected(self, rng):
        cfg = small_cfg(flags=AblationFlags(use_mamba_macro=False))
        with pytest.raises(ValueError):
            SamaTokenMixer(3, cfg, rng)


class TestMacroStructure:
    def test_macro_adds_parameters(self, rng):
        on = SamaTokenMixer(8, small_cfg(), rng)
        off = SamaTokenMixer(8, small_cfg(flags=AblationFlags(use_mamba_macro=False)), rng)
        assert on.num_params() > off.num_params()
        for attr in ("in_proj", "dw", "res_proj"):
            assert hasattr(on, attr) and not hasattr(off, attr)

    def test_macro_expands_attention_width(self):
        cfg = small_cfg()
        assert cfg.attn_config(8).channels == 8
        cfg_off = small_cfg(flags=AblationFlags(use_mamba_macro=False))
        assert cfg_off.attn_config(8).channels == 4

    def test_gate_multiplies_attention_output(self, rng):
        # zeroing the gate projection kills the mixer output entirely
        mixer = SamaTokenMixer(8, small_cfg(), rng, dtype=np.float64)
        mixer.res_proj.weight.data[:] = 0.0
        mixer.res_proj.bias.data[:] = 0.0  # silu(0) = 0 gate
        mixer.out_proj.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).uniform(size=(1, 8, 4, 4)))
        np.testing.assert_array_equal(mixer(x).data, np.zeros((1, 8, 4, 4)))

    def test_non_differential_flag_forwards(self, rng):
        blk = SamaBlock(8, small_cfg(flags=AblationFlags(use_differential=False)), rng)
        out = blk(Tensor(np.random.default_rng(2).uniform(size=(1, 8, 4, 4))
                         .astype(np.float32)))
        assert out.shape == (1, 8, 4, 4) and np.all(np.isfinite(out.data))


class TestResidual:
    def test_zeroed_branches_give_exact_identity(self, rng):
        blk = SamaBlock(8, small_cfg(), rng, dtype=np.float64)
        blk.mixer.out_proj.weight.data[:] = 0.0
        blk.mixer.out_proj.bias.data[:] = 0.0
        blk.ffn2.weight.data[:] = 0.0
        blk.ffn2.bias.data[:] = 0.0
        x = np.random.default_rng(3).uniform(-1, 1, size=(2, 8, 3, 3))
        assert np.array_equal(blk(Tensor(x)).data, x)

    def test_gradient_reaches_input_and_all_parameters(self, rng):
        blk = SamaBlock(8, small_cfg(), rng, dtype=np.float64)
        x = Tensor(np.random.default_rng(4).uniform(size=(1, 8, 4, 4)),
                   requires_grad=True, dtype=np.float64)
        blk(x).sum().backward()
        assert x.grad is not None and np.any(x.grad != 0)
        for name, p in blk.named_parameters():
            assert p.grad is not None, name
