"""The benchmark's workloads: seeded inputs, set-up, the timed closed loop
with one client, and the output checks.

The training workloads drive the real `samaseg.train.train`, one epoch of
the recipe per call, restoring the set-up weights before each call so that
step k of every epoch repeats the same loss and can be checked against the
recorded reference. The inference workload runs the per-image body of
`samaseg eval`: forward, argmax, then DSC/NSD.

Every samaseg function is called through its module attribute, so that
the spans installed by `tracing` wrap these calls too.
"""

from __future__ import annotations

import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import samaseg.data as sdata
import samaseg.io as sio
import samaseg.metrics as smetrics
import samaseg.train as strain
from samaseg.config import desk_default
from samaseg.model import ModelConfig, SamaUNet
from samaseg.tensor import Tensor

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Inputs are drawn from seed % SEED_SLOTS; reference.json holds the recorded
# outputs of every slot.
SEED_SLOTS = 16
DATASET_SIZE = 8      # the SyntheticSpec and overfit-recipe image count
EPISODE_STEPS = 8     # one epoch of both recipes (iters_per_epoch = 8)
LOGIT_PROBES = 16     # pixels per image whose logits are compared
# Float32 outputs against the float32 reference, at the 1e-6 bound of the
# acceptance oracles. Over one epoch the float32 losses and logits lie within
# 1.7e-7 of a float64 run, so reordering float32 operations stays inside it.
RTOL = 1e-6
ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                                  # "train" or "infer"
    image_size: int
    model_config: Callable[[], ModelConfig]
    batch_size: int
    warmup: int                                # untimed steps or images per set-up
    tail_pct: int                              # leaves >= 10 samples beyond it in 30 s


def _overfit_model() -> ModelConfig:
    """Model of scripts/run_overfit.py with its defaults."""
    return ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                       stage_depths=[1, 1, 1, 1])


def _desk_model() -> ModelConfig:
    return desk_default().model


WORKLOADS = {w.name: w for w in (
    Workload("train_overfit32", "train", 32, _overfit_model, 2, 2, 93),
    Workload("train_desk64", "train", 64, _desk_model, desk_default().train.batch_size, 2, 80),
    Workload("infer_128", "infer", 128, _desk_model, 1, 1, 65),
)}


@contextmanager
def patched(owner, **attrs):
    """Temporarily replace attributes of a module or class."""
    saved = {name: vars(owner)[name] for name in attrs}
    try:
        for name, value in attrs.items():
            setattr(owner, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


@dataclass
class Prepared:
    model: SamaUNet
    dataset: list
    slot: int
    checkpoint_dir: Path


def prepare(w: Workload, slot: int, workdir: Path) -> Prepared:
    """Data, model and checkpoint work of one set-up.

    The dataset is written as STN1 files and read back; the seeded model is
    saved as a checkpoint and loaded into a second model built the way
    `samaseg eval` builds it.
    """
    cfg = w.model_config()
    spec = sdata.SyntheticSpec(image_size=w.image_size, num_classes=cfg.num_classes,
                               count=DATASET_SIZE, seed=slot)
    sdata.generate_dataset(spec, workdir / "data")
    dataset = sdata.load_dataset(workdir / "data")
    ckpt = workdir / "checkpoint"
    sio.save_checkpoint(ckpt, SamaUNet(cfg, np.random.default_rng(slot)))
    model = SamaUNet(cfg, np.random.default_rng(desk_default().train.seed))
    sio.load_checkpoint(ckpt, model)
    return Prepared(model, dataset, slot, ckpt)


@dataclass
class LoopResult:
    step_s: list[float] = field(default_factory=list)  # one per checked step or image
    samples: int = 0
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, seconds: float, samples: int, ok: bool, detail: str):
        """A step or image that completed; `ok` is its output check."""
        self.step_s.append(seconds)
        self.samples += samples
        self.attempted += 1
        if not ok:
            self._failed(detail)

    def raised(self, detail: str):
        """A step or image that raised before it completed."""
        self.attempted += 1
        self._failed(detail)

    def _failed(self, detail: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(detail)


def _matches(got, ref) -> bool:
    got = np.asarray(got, dtype=np.float64)
    return bool(np.all(np.isfinite(got))) and bool(
        np.allclose(got, np.asarray(ref, dtype=np.float64), rtol=RTOL, atol=ATOL))


def _done(res: LoopResult, now: float, deadline: float | None, max_steps: int | None) -> bool:
    return ((deadline is not None and now >= deadline)
            or (max_steps is not None and res.attempted >= max_steps))


class _Stop(Exception):
    """Raised from the step hook to end a train() call at a step boundary."""


class TrainRunner:
    """Calls `train` for one epoch at a time from the set-up weights."""

    def __init__(self, w: Workload, prep: Prepared, reference: list[float] | None):
        self.w = w
        self.model = prep.model
        self.dataset = prep.dataset
        self.cfg = strain.TrainConfig(epochs=1, iters_per_epoch=EPISODE_STEPS,
                                      batch_size=w.batch_size, seed=prep.slot)
        self.initial = [t.data.copy() for _, t in self.model.named_parameters()]
        self.reference = reference
        self.outputs: dict[int, float] = {}    # step-in-epoch -> first loss seen

    def _restore(self):
        for (_, t), arr in zip(self.model.named_parameters(), self.initial):
            np.copyto(t.data, arr)

    def run(self, deadline: float | None = None, max_steps: int | None = None) -> LoopResult:
        res = LoopResult()
        losses = []
        k = 0
        last = 0.0
        runner = self
        base_loss, base_adamw = strain.seg_loss, strain.AdamW

        def seg_loss(*args, **kwargs):
            loss = base_loss(*args, **kwargs)
            losses.append(loss)
            return loss

        class StepHookAdamW(base_adamw):
            def step(self):
                super().step()
                nonlocal k, last
                now = time.perf_counter()
                loss = losses.pop().item()
                ok = runner._check(k, loss)
                res.record(now - last, runner.w.batch_size, ok,
                           f"step {k} of the epoch: loss {loss!r}")
                k += 1
                last = now
                if _done(res, now, deadline, max_steps):
                    raise _Stop

        start = time.perf_counter()
        with patched(strain, seg_loss=seg_loss, AdamW=StepHookAdamW):
            while True:
                self._restore()
                losses.clear()
                k, last = 0, time.perf_counter()
                try:
                    strain.train(self.model, self.dataset, self.cfg)
                except _Stop:
                    break
                except Exception:  # noqa: BLE001 - a failed step is counted, the loop goes on
                    res.raised(traceback.format_exc(limit=2))
                    if _done(res, time.perf_counter(), deadline, max_steps):
                        break
        res.elapsed_s = time.perf_counter() - start
        return res

    def _check(self, k: int, loss: float) -> bool:
        self.outputs.setdefault(k, loss)
        if self.reference is None:
            return bool(np.isfinite(loss))
        return _matches(loss, self.reference[k])


def logit_summary(full: np.ndarray) -> np.ndarray:
    """Logits of a [1,K,H,W] head at LOGIT_PROBES fixed pixels, then the
    per-class mean over all pixels."""
    _, _, h, w = full.shape
    rng = np.random.default_rng(0)
    rows = rng.integers(0, h, LOGIT_PROBES)
    cols = rng.integers(0, w, LOGIT_PROBES)
    sampled = full[0][:, rows, cols].astype(np.float64).ravel()
    means = full[0].astype(np.float64).mean(axis=(1, 2))
    return np.concatenate([sampled, means])


def _rows_valid(rows: list[dict], num_classes: int) -> bool:
    return (len(rows) == num_classes - 1
            and all(0.0 <= r["dsc"] <= 1.0 and 0.0 <= r["nsd"] <= 1.0 for r in rows))


class InferRunner:
    """The per-image loop of `samaseg eval`, cycling over the dataset."""

    def __init__(self, w: Workload, prep: Prepared, reference: list[list[float]] | None):
        self.w = w
        self.model = prep.model
        self.dataset = prep.dataset
        self.num_classes = prep.model.cfg.num_classes
        self.nsd_cfg = desk_default().eval
        self.reference = reference
        self.outputs: dict[int, list[float]] = {}   # image index -> logit summary

    def run(self, deadline: float | None = None, max_steps: int | None = None) -> LoopResult:
        res = LoopResult()
        start = time.perf_counter()
        logits = None   # held across iterations, as the eval loop does
        i = 0
        while True:
            idx = i % len(self.dataset)
            s = self.dataset[idx]
            t0 = time.perf_counter()
            try:
                logits = self.model(Tensor(s.image[None]))
                pred = logits[0].data.argmax(axis=1)[0]
                rows = smetrics.evaluate_pair(s.mask, pred, self.num_classes, self.nsd_cfg)
            except Exception:  # noqa: BLE001 - a failed image is counted, the loop goes on
                res.raised(traceback.format_exc(limit=2))
            else:
                t1 = time.perf_counter()
                summary = logit_summary(logits[0].data)
                ok = self._check(idx, summary) and _rows_valid(rows, self.num_classes)
                res.record(t1 - t0, 1, ok, f"image {idx}: logits or DSC/NSD rows off")
            i += 1
            if _done(res, time.perf_counter(), deadline, max_steps):
                break
        res.elapsed_s = time.perf_counter() - start
        return res

    def _check(self, idx: int, summary: np.ndarray) -> bool:
        self.outputs.setdefault(idx, summary.tolist())
        if self.reference is None:
            return bool(np.all(np.isfinite(summary)))
        return _matches(summary, self.reference[idx])


def make_runner(w: Workload, prep: Prepared, reference):
    cls = TrainRunner if w.kind == "train" else InferRunner
    return cls(w, prep, reference)


def load_reference(w: Workload, slot: int):
    """Recorded outputs for one workload and seed slot."""
    return json.loads(REFERENCE_PATH.read_text())[w.name][slot]


def slot_of(seed: int) -> int:
    return seed % SEED_SLOTS
