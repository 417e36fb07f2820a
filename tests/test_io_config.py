"""Binary tensor files, checkpoint directories, and config parsing."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samaseg.config import apply_setting, desk_default, load_config, parse_config
from samaseg.io import load_checkpoint, read_stn1, save_checkpoint, write_pgm, write_stn1
from samaseg.layers import Linear, Module
from samaseg.model import ModelConfig, SamaUNet
from samaseg.optim import AdamW
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

    def test_read_holds_one_array(self, tmp_path):
        # a 4 MiB file: reading its bytes whole and copying the array out
        # of them peaked at twice the array
        arr = np.arange(1 << 20, dtype=np.float32).reshape(1024, 1024)
        path = tmp_path / "big.stn1"
        write_stn1(path, arr)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = read_stn1(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back.dtype == arr.dtype and np.array_equal(back, arr)
        assert peak <= 1.25 * arr.nbytes, f"{peak / arr.nbytes:.2f}x the array"


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

    def test_load_after_adamw_updates_the_loaded_weights(self, rng, tmp_path):
        saved = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", saved)
        model = _TwoLayer(rng)
        opt = AdamW(model.named_parameters(), lr=0.1, weight_decay=0.0)
        load_checkpoint(tmp_path / "ck", model)
        for _, t in model.named_parameters():
            t.grad = np.ones_like(t.data)
        opt.step()
        # the first step with a unit gradient moves every weight by -lr
        for (n, t), (_, s) in zip(model.named_parameters(), saved.named_parameters()):
            np.testing.assert_allclose(t.data, s.data - 0.1, rtol=0, atol=1e-6, err_msg=n)
            assert any(np.shares_memory(t.data, run.p) for run in opt.runs), n

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
        manifest = tmp_path / "ck" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        assert lines[0] == "a.weight\t4x3"
        manifest.write_text("\n".join(["a.weight\t9x9"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="shape mismatch for 'a.weight'"):
            load_checkpoint(tmp_path / "ck", model)

    def test_checkpoint_of_1x1_conv_weights_rejected_before_any_write(self, tmp_path):
        # the layout the UNet's ten 1x1 layers were saved in as convs: the
        # same names and values, each weight listed as out x in x 1 x 1
        model = SamaUNet(ModelConfig(stage_depths=[1, 1, 1, 1]), np.random.default_rng(0))
        save_checkpoint(tmp_path / "ck", model)
        manifest = tmp_path / "ck" / "manifest.txt"
        pointwise = re.compile(r"(downs\.\d\.pw|dec_blocks\.\d\.short|head_full|ds_heads\.\d)"
                               r"\.weight")
        params = dict(model.named_parameters())
        lines = manifest.read_text().splitlines()
        for i, line in enumerate(lines):
            name = line.split("\t")[0]
            if pointwise.fullmatch(name):
                out, cin = params[name].shape[:2]
                lines[i] = f"{name}\t{out}x{cin}x1x1"
        assert sum(line.endswith("x1x1") for line in lines) == 10
        assert "downs.0.pw.weight\t32x16x1x1" in lines
        manifest.write_text("\n".join(lines) + "\n")
        for _, t in model.named_parameters():
            t.data += 1.0
        expected = {n: t.data.copy() for n, t in model.named_parameters()}
        with pytest.raises(ValueError, match=r"shape mismatch for 'downs\.0\.pw\.weight': "
                                             r"checkpoint \(32, 16, 1, 1\) vs model \(32, 16\)"):
            load_checkpoint(tmp_path / "ck", model)
        for n, t in model.named_parameters():
            assert t.data.tobytes() == expected[n].tobytes(), n

    def test_layout_is_one_payload_in_parameter_order(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["manifest.txt",
                                                                        "params.stn1"]
        assert (tmp_path / "ck" / "manifest.txt").read_text() == \
            "a.weight\t4x3\na.bias\t4\nb.weight\t2x4\nb.bias\t2\n"
        payload = read_stn1(tmp_path / "ck" / "params.stn1")
        assert payload.dtype == np.float32 and payload.shape == (model.num_params(),)
        expected = np.concatenate([t.data.ravel() for _, t in model.named_parameters()])
        assert payload.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_round_trip_is_bit_exact(self, tmp_path, dtype):
        cfg = ModelConfig(base_channels=4, stage_depths=[1, 1], channel_mults=[1, 2], heads=1,
                          global_pool=2)
        saved = SamaUNet(cfg, np.random.default_rng(0), dtype=dtype)
        save_checkpoint(tmp_path / "ck", saved)
        model = SamaUNet(cfg, np.random.default_rng(1), dtype=dtype)
        load_checkpoint(tmp_path / "ck", model)
        for (n, t), (_, s) in zip(model.named_parameters(), saved.named_parameters(), strict=True):
            assert t.dtype == dtype and t.data.tobytes() == s.data.tobytes(), n
        assert read_stn1(tmp_path / "ck" / "params.stn1").size == model.num_params()

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_payload_of_another_length_rejected(self, rng, tmp_path, change):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        payload = tmp_path / "ck" / "params.stn1"
        write_stn1(payload, np.zeros(model.num_params() + change, np.float32))
        with pytest.raises(ValueError, match=f"holds {model.num_params() + change} values, "
                                             f"the manifest lists {model.num_params()}"):
            load_checkpoint(tmp_path / "ck", model)

    def test_truncated_payload_rejected_before_any_write(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        payload = tmp_path / "ck" / "params.stn1"
        payload.write_bytes(payload.read_bytes()[:-4])
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        for _, t in model.named_parameters():
            t.data += 1.0
        expected = {n: t.data.copy() for n, t in model.named_parameters()}
        with pytest.raises(ValueError, match="payload is .* bytes, shape"):
            load_checkpoint(tmp_path / "ck", model)
        for n, t in model.named_parameters():
            assert t.data.tobytes() == expected[n].tobytes() != before[n].tobytes(), n

    def test_float64_checkpoint_loads_into_float32_model(self, tmp_path):
        cfg = ModelConfig(base_channels=4, stage_depths=[1, 1], channel_mults=[1, 2], heads=1,
                          global_pool=2)
        saved = SamaUNet(cfg, np.random.default_rng(0), dtype=np.float64)
        save_checkpoint(tmp_path / "ck", saved)
        model = SamaUNet(cfg, np.random.default_rng(1), dtype=np.float32)
        load_checkpoint(tmp_path / "ck", model)
        for (n, t), (_, s) in zip(model.named_parameters(), saved.named_parameters(), strict=True):
            assert t.dtype == np.float32, n
            assert t.data.tobytes() == s.data.astype(np.float32).tobytes(), n

    def test_load_holds_no_copy_of_the_payload(self, tmp_path):
        # a 1 MiB payload: reading each value into its parameter's own
        # buffer peaks at a few KiB; reading the payload whole held it all
        class Wide(Module):
            def __init__(self, rng):
                self.a = Linear(512, 512, rng)

        save_checkpoint(tmp_path / "ck", Wide(np.random.default_rng(0)))
        model = Wide(np.random.default_rng(1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            load_checkpoint(tmp_path / "ck", model)
            peak_kib = (tracemalloc.get_traced_memory()[1] - base) / 2**10
        finally:
            tracemalloc.stop()
        assert peak_kib <= 64, f"{peak_kib:.0f} KiB"

    def test_duplicate_name_rejected(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        manifest = tmp_path / "ck" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(ValueError, match="duplicate entry 'b.bias'"):
            load_checkpoint(tmp_path / "ck", model)

    def test_directory_without_payload_rejected(self, rng, tmp_path):
        # the older layout: one STN1 file per parameter, named in a
        # three-field manifest
        model = _TwoLayer(rng)
        ck = tmp_path / "ck"
        ck.mkdir()
        lines = []
        for i, (name, t) in enumerate(model.named_parameters()):
            write_stn1(ck / f"param_{i:04d}.stn1", t.data)
            lines.append(f"{name}\tparam_{i:04d}.stn1\t{'x'.join(map(str, t.shape))}")
        (ck / "manifest.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(FileNotFoundError, match="no params.stn1.*one STN1 file per parameter"):
            load_checkpoint(ck, model)

    def test_manifest_line_of_three_fields_rejected(self, rng, tmp_path):
        model = _TwoLayer(rng)
        save_checkpoint(tmp_path / "ck", model)
        manifest = tmp_path / "ck" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("\t", "\tparam_0000.stn1\t", 1))
        with pytest.raises(ValueError, match="line 1 has 3 tab-separated fields"):
            load_checkpoint(tmp_path / "ck", model)

    def test_parameters_of_two_dtypes_rejected(self, rng, tmp_path):
        model = _TwoLayer(rng)
        model.b.bias = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="share one dtype, got float32, float64"):
            save_checkpoint(tmp_path / "ck", model)


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
        with pytest.raises(ValueError, match="flip_mode"):
            parse_config("model.flip_mode = bogus")

    def test_eval_settings_revalidated_after_override(self):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            parse_config("eval.tau = -1")

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.seed = 42\n")
        assert load_config(p).train.seed == 42
