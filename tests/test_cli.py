"""Command-line interface: end-to-end synth-data -> train -> eval flow on a
tiny configuration, plus profile/gradcheck and error handling."""

import csv

import numpy as np
import pytest

from samaseg.cli import _build_parser, _load_run_config, main

TINY = [
    "--set", "model.base_channels=8",
    "--set", "model.stage_depths=1,1",
    "--set", "model.channel_mults=1,2",
    "--set", "model.heads=2",
    "--set", "model.global_pool=2",
]


class TestEndToEnd:
    def test_synth_train_eval(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        run = str(tmp_path / "run")
        assert main(["synth-data", "--out", data, "--size", "16",
                     "--count", "3", "--seed", "0"]) == 0
        assert main(["train", "--data", data, "--out", run, *TINY,
                     "--set", "train.epochs=1", "--set", "train.iters_per_epoch=2",
                     "--set", "train.batch_size=1"]) == 0
        metrics = tmp_path / "metrics.csv"
        pgm_dir = tmp_path / "preds"
        assert main(["eval", "--data", data, "--checkpoint", f"{run}/checkpoint",
                     "--out", str(metrics), *TINY, "--tau", "1.5",
                     "--pgm-dir", str(pgm_dir)]) == 0
        with open(metrics) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3  # one foreground class x three samples
        for r in rows:
            assert set(r) == {"sample_id", "class_id", "dsc", "nsd", "flags"}
            assert 0.0 <= float(r["dsc"]) <= 1.0
            assert 0.0 <= float(r["nsd"]) <= 1.0
        assert sorted(p.name for p in pgm_dir.iterdir()) == \
            ["pred_000.pgm", "pred_001.pgm", "pred_002.pgm"]
        out = capsys.readouterr().out
        assert "mean DSC" in out

    def test_train_reads_config_file(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        main(["synth-data", "--out", data, "--size", "16", "--count", "2"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.base_channels = 8\nmodel.stage_depths = 1,1\n"
                       "model.channel_mults = 1,2\nmodel.heads = 2\n"
                       "model.global_pool = 2\ntrain.epochs = 1\n"
                       "train.iters_per_epoch = 1\ntrain.batch_size = 1\n")
        assert main(["train", "--data", data, "--out", str(tmp_path / "run"),
                     "--config", str(cfg)]) == 0
        assert "final epoch" in capsys.readouterr().out


class TestOtherCommands:
    def test_gradcheck_micro(self, capsys):
        assert main(["gradcheck", "--level", "micro"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "pass" in out

    def test_profile(self, capsys):
        assert main(["profile", *TINY, "--height", "16", "--width", "16"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "GFLOPs" in out


class TestRunConfig:
    def test_shorthand_flags_set_their_config_keys_after_set_items(self):
        args = _build_parser().parse_args([
            "train", "--data", "d", "--out", "o", "--set", "train.lr=0.1",
            "--seed", "3", "--lr", "0.002", "--epochs", "4"])
        cfg = _load_run_config(args)
        assert (cfg.train.seed, cfg.train.lr, cfg.train.epochs) == (3, 0.002, 4)
        args = _build_parser().parse_args(
            ["eval", "--data", "d", "--checkpoint", "c", "--out", "o", "--tau", "2.5"])
        assert _load_run_config(args).eval.tau == 2.5


class TestErrorHandling:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_config_key_returns_1(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                   "--set", "model.bogus=1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_set_returns_1(self, tmp_path, capsys):
        rc = main(["profile", "--set", "model.base_channels"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        # a --set value is never cut at a config-file comment marker
        assert main(["profile", "--set", "model.base_channels=8#4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_set_override_is_validated_like_a_config_file(self, tmp_path, capsys):
        line = "model.stage_depths=1,1,1,1,1"
        assert main(["profile", "--set", line]) == 1
        assert "more stage depths than channel multipliers" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["profile", "--config", str(cfg)]) == 1
        assert "more stage depths than channel multipliers" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,field", [
        ("model.stage_depths=", "stage_depths"), ("model.heads=0", "heads"),
        ("model.state_size=0", "state_size"), ("model.num_classes=0", "num_classes"),
        ("model.expansion=0", "expansion"), ("model.ffn_ratio=0", "ffn_ratio"),
        ("model.base_channels=0", "base_channels"), ("model.in_channels=0", "in_channels"),
        ("model.channel_mults=1,0,4,8", "channel_mults"),
    ])
    def test_out_of_range_model_setting_is_rejected(self, capsys, setting, field):
        assert main(["profile", "--set", setting, "--height", "16", "--width", "16"]) == 1
        assert f"{field} must" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--set", "train.iters_per_epoch=0"], "iters_per_epoch"),
        (["--epochs", "0"], "epochs"),
        (["--set", "train.batch_size=0"], "batch_size"),
    ])
    def test_out_of_range_train_setting_is_rejected_before_training(self, tmp_path, capsys,
                                                                    flags, field):
        data, run = str(tmp_path / "data"), tmp_path / "run"
        main(["synth-data", "--out", data, "--size", "16", "--count", "2"])
        assert main(["train", "--data", data, "--out", str(run), *TINY, *flags]) == 1
        assert f"{field} must be at least 1" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("flags", [["--tau", "-1"], ["--set", "eval.tau=-1"]])
    def test_negative_tau_is_rejected_before_data_is_read(self, tmp_path, capsys, flags):
        # the data directory does not exist, so only a config check can fail first
        assert main(["eval", "--data", str(tmp_path / "nope"), "--checkpoint",
                     str(tmp_path / "ckpt"), "--out", str(tmp_path / "m.csv"), *flags]) == 1
        assert "tau must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--tau", "nan"], ["--set", "eval.tau=nan"]])
    def test_nan_tau_is_rejected_before_data_is_read(self, tmp_path, capsys, flags):
        # NaN fails every comparison, so only a check written as `not tau >= 0` catches it
        assert main(["eval", "--data", str(tmp_path / "nope"), "--checkpoint",
                     str(tmp_path / "ckpt"), "--out", str(tmp_path / "m.csv"), *flags]) == 1
        assert "tau must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--count", "0"], "count"), (["--noise", "-0.1"], "noise_sigma"),
        (["--noise", "nan"], "noise_sigma"), (["--noise", "inf"], "noise_sigma"),
        (["--size", "0"], "image_size"), (["--size", "1"], "image_size"),
    ])
    def test_bad_synth_data_setting_is_rejected_before_writing(self, tmp_path, capsys,
                                                               flags, field):
        out = tmp_path / "data"
        assert main(["synth-data", "--out", str(out), "--size", "16", *flags]) == 1
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        (["--epochs", "0"], "epochs"),
        (["--set", "train.iters_per_epoch=0"], "iters_per_epoch"),
        (["--set", "train.batch_size=-1"], "batch_size"),
    ])
    def test_out_of_range_train_setting_is_rejected_before_data_is_read(self, tmp_path, capsys,
                                                                       flags, field):
        # the data directory does not exist, so only a config check can fail first
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
                     *TINY, *flags]) == 1
        assert f"{field} must be at least 1" in capsys.readouterr().err

    def test_missing_data_dir_returns_1(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o"), *TINY])
        assert rc == 1
