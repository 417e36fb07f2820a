"""Training loop: AdamW with one-cycle cosine decay, per-epoch loss and
train-DSC logging, deterministic for a fixed seed."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SegmentationSample
from .io import save_checkpoint
from .metrics import mean_foreground_dsc
from .model import ModelConfig, SamaUNet, seg_loss
from .optim import AdamW, cosine_lr
from .tensor import Tensor


@dataclass
class TrainConfig:
    epochs: int = 200
    iters_per_epoch: int = 8
    batch_size: int = 2
    lr: float = 5e-4
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "iters_per_epoch", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class EpochLog:
    epoch: int
    lr: float
    loss: float
    dsc: float


def train(model: SamaUNet, dataset: list[SegmentationSample], cfg: TrainConfig,
          out_dir=None) -> list[EpochLog]:
    cfg.__post_init__()     # a config edited after construction is checked again
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(list(model.named_parameters()), lr=cfg.lr, weight_decay=cfg.weight_decay)
    total_steps = cfg.epochs * cfg.iters_per_epoch
    num_classes = model.cfg.num_classes
    logs: list[EpochLog] = []
    step = 0
    model.zero_grad()   # opt.step() consumes the gradients it applies
    for epoch in range(cfg.epochs):
        losses = []
        dscs = []
        lr_now = cfg.lr
        for _ in range(cfg.iters_per_epoch):
            idx = rng.integers(0, len(dataset), size=cfg.batch_size)
            imgs = np.stack([dataset[i].image for i in idx])
            masks = np.stack([dataset[i].mask for i in idx])
            x = Tensor(imgs)
            logits = model(x)
            loss = seg_loss(logits, masks, num_classes)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise FloatingPointError(
                    f"non-finite loss {loss_val} at epoch {epoch}, step {step}")
            loss.backward()
            lr_now = cosine_lr(step, total_steps, cfg.lr)
            opt.lr = lr_now
            opt.step()
            step += 1
            losses.append(loss_val)
            pred = logits[0].data.argmax(axis=1)
            dscs.append(np.mean([mean_foreground_dsc(m, p, num_classes)
                                 for m, p in zip(masks, pred)]))
        logs.append(EpochLog(epoch=epoch, lr=lr_now,
                             loss=float(np.mean(losses)), dsc=float(np.mean(dscs))))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / "checkpoint", model)
        write_log_csv(out_dir / "train_log.csv", logs)
    return logs


def write_log_csv(path, logs: list[EpochLog]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "lr", "loss", "dsc"])
        for row in logs:
            writer.writerow([row.epoch, repr(row.lr), repr(row.loss), repr(row.dsc)])
