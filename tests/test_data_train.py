"""Synthetic data generation and the training loop: determinism, logging,
and optimizer wiring."""

import math

import numpy as np
import pytest
from test_optim import PerTensorAdamW

import samaseg.train
from samaseg.config import desk_default
from samaseg.data import SyntheticSpec, _gaussian_blur, generate_dataset, load_dataset, make_sample
from samaseg.model import ModelConfig, SamaUNet
from samaseg.optim import RUN, AdamW
from samaseg.train import TrainConfig, train, write_log_csv


def tiny_model(seed=0):
    cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=8,
                      stage_depths=[1, 1], channel_mults=[1, 2], heads=2,
                      global_pool=2)
    return SamaUNet(cfg, np.random.default_rng(seed))


def tiny_dataset(count=4, size=16, seed=0):
    spec = SyntheticSpec(image_size=size, num_classes=2, count=count, seed=seed)
    rng = np.random.default_rng(spec.seed)
    return [make_sample(spec, rng, f"{i:03d}") for i in range(count)]


class TestSyntheticData:
    def test_every_sample_contains_every_class(self):
        spec = SyntheticSpec(image_size=24, num_classes=3, count=6, seed=1)
        rng = np.random.default_rng(spec.seed)
        for i in range(spec.count):
            s = make_sample(spec, rng, str(i))
            assert s.image.shape == (1, 24, 24)
            assert s.mask.shape == (24, 24)
            assert set(np.unique(s.mask)) >= {1, 2}

    def test_generation_is_byte_deterministic(self, tmp_path):
        spec = SyntheticSpec(image_size=16, count=3, seed=7)
        generate_dataset(spec, tmp_path / "a")
        generate_dataset(spec, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name

    def test_write_load_round_trip(self, tmp_path):
        spec = SyntheticSpec(image_size=16, count=3, seed=2)
        written = generate_dataset(spec, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert len(loaded) == 3
        for w, l in zip(written, loaded):
            assert np.array_equal(w.image, l.image)
            assert np.array_equal(w.mask, l.mask)

    def test_missing_mask_rejected(self, tmp_path):
        generate_dataset(SyntheticSpec(image_size=16, count=1), tmp_path / "d")
        (tmp_path / "d" / "msk_000.stn1").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "d")

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(shapes_min=2, shapes_max=1)

    def test_blur_is_bit_equal_to_scipy_gaussian_filter(self):
        # scipy is the oracle only: the package itself does not import it
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(0)
        for n in range(1, 141):
            levels = np.linspace(0.2, 0.9, 2 + n % 3)
            for shape in ((n, n), (n, 141 - n)):
                x = levels[rng.integers(0, len(levels), shape)]
                assert np.array_equal(_gaussian_blur(x, 1.0),
                                      ndimage.gaussian_filter(x, sigma=1.0)), shape


class TestTrainLoop:
    def test_identical_seeds_give_bit_identical_logs_and_weights(self):
        dataset = tiny_dataset()
        cfg = TrainConfig(epochs=2, iters_per_epoch=2, batch_size=2, lr=1e-3, seed=3)
        logs_a = train(tiny_model(seed=3), dataset, cfg)
        model_b = tiny_model(seed=3)
        logs_b = train(model_b, dataset, cfg)
        for a, b in zip(logs_a, logs_b):
            assert (a.epoch, a.lr, a.loss, a.dsc) == (b.epoch, b.lr, b.loss, b.dsc)
        model_c = tiny_model(seed=3)
        train(model_c, dataset, cfg)
        for (n, pb), (_, pc) in zip(model_b.named_parameters(), model_c.named_parameters()):
            assert np.array_equal(pb.data, pc.data), n

    def test_zero_lr_leaves_parameters_unchanged(self):
        dataset = tiny_dataset()
        model = tiny_model()
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        logs = train(model, dataset, TrainConfig(epochs=1, iters_per_epoch=2,
                                                 batch_size=1, lr=0.0, seed=0))
        assert len(logs) == 1 and np.isfinite(logs[0].loss)
        for n, t in model.named_parameters():
            assert np.array_equal(t.data, before[n]), n

    def test_writes_checkpoint_and_log(self, tmp_path):
        dataset = tiny_dataset()
        logs = train(tiny_model(), dataset,
                     TrainConfig(epochs=2, iters_per_epoch=1, batch_size=1, seed=0),
                     out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "checkpoint" / "manifest.txt").exists()
        log_path = tmp_path / "run" / "train_log.csv"
        lines = log_path.read_text().splitlines()
        assert lines[0] == "epoch,lr,loss,dsc"
        assert len(lines) == 3
        # repr round-trips exactly for bit-identical log comparison
        assert float(lines[1].split(",")[2]) == logs[0].loss

    def test_log_csv_round_trip_precision(self, tmp_path):
        dataset = tiny_dataset()
        logs = train(tiny_model(), dataset,
                     TrainConfig(epochs=1, iters_per_epoch=1, batch_size=1, seed=1))
        p = tmp_path / "log.csv"
        write_log_csv(p, logs)
        row = p.read_text().splitlines()[1].split(",")
        assert float(row[1]) == logs[0].lr
        assert float(row[3]) == logs[0].dsc

    @pytest.mark.parametrize("field", ["epochs", "iters_per_epoch", "batch_size"])
    def test_non_positive_loop_size_rejected(self, tmp_path, field):
        cfg = TrainConfig(epochs=1, iters_per_epoch=1, batch_size=1)
        setattr(cfg, field, 0)
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            train(tiny_model(), tiny_dataset(count=2), cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(tiny_model(), [], TrainConfig(epochs=1))

    def test_run_packed_adamw_matches_per_tensor_oracle(self, monkeypatch):
        # two epochs of the overfit recipe (scripts/run_overfit.py)
        spec = SyntheticSpec(image_size=32, num_classes=2, count=8, seed=0)
        rng = np.random.default_rng(spec.seed)
        dataset = [make_sample(spec, rng, f"{i:03d}") for i in range(spec.count)]
        mcfg = ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                           stage_depths=[1, 1, 1, 1])
        tcfg = TrainConfig(epochs=2, iters_per_epoch=8, batch_size=2, lr=5e-4, seed=0)
        model = SamaUNet(mcfg, np.random.default_rng(0))
        logs = train(model, dataset, tcfg)
        oracle_model = SamaUNet(mcfg, np.random.default_rng(0))
        monkeypatch.setattr(samaseg.train, "AdamW", PerTensorAdamW)
        assert train(oracle_model, dataset, tcfg) == logs
        for (n, t), (_, u) in zip(model.named_parameters(), oracle_model.named_parameters()):
            assert np.array_equal(t.data, u.data), n

    def test_desk_default_packs_into_few_runs(self):
        # guards against sliding back to one pass per tensor
        model = SamaUNet(desk_default().model, np.random.default_rng(0))
        opt = AdamW(model.named_parameters())
        assert len(opt.runs) <= 2 * math.ceil(model.num_params() / RUN) + 1
