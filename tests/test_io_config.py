"""Binary tensor files, checkpoint directories, and config parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samaseg.config import apply_setting, desk_default, load_config, parse_config
from samaseg.io import (checkpoint_scalar_count, load_checkpoint, read_stn1,
                        save_checkpoint, write_pgm, write_stn1)
from samaseg.layers import Linear, Module
from samaseg.model import ModelConfig, SamaUNet
from samaseg.tensor import Tensor


class TestStn1:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8, np.uint16])
    def test_round_trip_all_dtypes(self, rng, tmp_path, dtype):
        if np.issubdtype(dtype, np.floating):
            arr = rng.uniform(-1, 1, size=(2, 3, 4)).astype(dtype)
        else:
            arr = rng.integers(0, 200, size=(2, 3, 4)).astype(dtype)
        path = tmp_path / "t.stn1"
        write_stn1(path, arr)
        back = read_stn1(path)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (1, 2, 3, 4), (2, 1, 1, 1, 2)])
    def test_round_trip_ranks(self, rng, tmp_path, shape):
        arr = rng.uniform(size=shape).astype(np.float32)
        write_stn1(tmp_path / "r.stn1", arr)
        assert np.array_equal(read_stn1(tmp_path / "r.stn1"), arr)

    def test_header_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "h.stn1"
        write_stn1(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"STN1"
        assert raw[4] == 1          # f64 tag
        assert raw[5] == 2          # rank
        assert int.from_bytes(raw[6:14], "little") == 2
        assert int.from_bytes(raw[14:22], "little") == 3
        assert raw[22:] == arr.astype("<f8").tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.stn1"
        p.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(ValueError):
            read_stn1(p)

    def test_unknown_tag_rejected(self, tmp_path):
        p = tmp_path / "tag.stn1"
        p.write_bytes(b"STN1" + bytes([9, 1, 1]) + bytes(7) + bytes(4))
        with pytest.raises(ValueError):
            read_stn1(p)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_stn1(tmp_path / "x.stn1", np.zeros(3, dtype=np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([np.float32, np.float64, np.uint8, np.uint16]),
           st.lists(st.integers(0, 3), max_size=3), st.integers(1, 16), st.booleans())
    def test_wrong_length_rejected_naming_file(self, tmp_path_factory, dtype, shape, n, pad):
        # cuts reach into the payload, the extents and the magic alike
        path = tmp_path_factory.mktemp("stn1") / "len.stn1"
        write_stn1(path, np.ones(shape, dtype=dtype))
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(n) if pad else raw[:-n])
        with pytest.raises(ValueError, match="len.stn1"):
            read_stn1(path)


class _TwoLayer(Module):
    def __init__(self, rng):
        self.a = Linear(3, 4, rng)
        self.b = Linear(4, 2, rng)


class TestCheckpoints:
    def test_round_trip_restores_exactly(self, rng, tmp_path):
        model = _TwoLayer(rng)
        original = {n: t.data.copy() for n, t in model.named_parameters()}
        save_checkpoint(tmp_path / "ck", model)
        for _, t in model.named_parameters():
            t.data[:] = 0.0
        load_checkpoint(tmp_path / "ck", model)
        for n, t in model.named_parameters():
            assert np.array_equal(t.data, original[n]), n

    def test_scalar_count_matches_model(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        assert checkpoint_scalar_count(tmp_path / "ck") == model.num_params()

    def test_missing_parameter_rejected(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        manifest = tmp_path / "ck" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(KeyError):
            load_checkpoint(tmp_path / "ck", model)

    def test_extra_entries_rejected(self, tmp_path):
        # deep-supervision heads must not load silently into a model without them
        cfg = dict(base_channels=4, stage_depths=[1, 1], channel_mults=[1, 2], heads=1,
                   global_pool=2)
        save_checkpoint(tmp_path / "ck", SamaUNet(ModelConfig(**cfg), np.random.default_rng(0)))
        plain = SamaUNet(ModelConfig(deep_supervision=False, **cfg), np.random.default_rng(0))
        with pytest.raises(KeyError, match="ds_heads.0.weight, ds_heads.0.bias"):
            load_checkpoint(tmp_path / "ck", plain)

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        write_stn1(tmp_path / "ck" / "param_0000.stn1", np.zeros((9, 9), np.float32))
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "ck", model)


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        mask = np.array([[0, 1], [2, 2]], dtype=np.uint8)
        p = tmp_path / "m.pgm"
        write_pgm(p, mask)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 127, 255, 255])

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2), np.uint8))


class TestConfig:
    def test_defaults(self):
        cfg = desk_default()
        assert cfg.model.base_channels == 16
        assert cfg.train.lr == 5e-4
        assert cfg.eval.tau == 1.0

    def test_parse_overrides_and_comments(self):
        text = """
        # training tweaks
        train.lr = 1e-3
        train.epochs = 5          # short run
        model.base_channels = 8
        model.stage_depths = 1,1
        model.flags.use_ssm = false
        eval.tau = 2.0
        """
        cfg = parse_config(text)
        assert cfg.train.lr == 1e-3
        assert cfg.train.epochs == 5
        assert cfg.model.base_channels == 8
        assert cfg.model.stage_depths == [1, 1]
        assert cfg.model.flags.use_ssm is False
        assert cfg.eval.tau == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            parse_config("model.depth = 3")
        with pytest.raises(KeyError):
            parse_config("optimizer.lr = 1e-3")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            apply_setting(desk_default(), "model.deep_supervision", "maybe")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            parse_config("train.lr 1e-3")

    def test_revalidation_after_override(self):
        # more stage depths than channel multipliers must fail at parse time
        with pytest.raises(ValueError):
            parse_config("model.stage_depths = 1,1,1,1,1")

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.seed = 42\n")
        assert load_config(p).train.seed == 42
