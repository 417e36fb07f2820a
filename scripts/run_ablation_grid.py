#!/usr/bin/env python3
"""Construct every component-ablation variant, run one training step on a
shared batch, and tabulate parameter counts and the resulting loss.

Example:
    python3 scripts/run_ablation_grid.py --size 32
"""

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from samaseg.model import ModelConfig, SamaUNet, seg_loss
from samaseg.optim import AdamW
from samaseg.sama import AblationFlags
from samaseg.tensor import Tensor


def grid() -> list[tuple[str, AblationFlags]]:
    rows = [("full", AblationFlags())]
    for f in fields(AblationFlags):
        rows.append((f"no-{f.name.replace('_', '-')}", AblationFlags(**{f.name: False})))
    rows.append(("all-off", AblationFlags(**{f.name: False for f in fields(AblationFlags)})))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--base-channels", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    r = np.random.default_rng(args.seed)
    x = Tensor(r.normal(size=(2, 1, args.size, args.size)).astype(np.float32))
    mask = np.zeros((2, args.size, args.size), dtype=int)
    mask[:, args.size // 4: args.size // 2, args.size // 4: args.size // 2] = 1

    print(f"{'variant':<24} {'params':>10} {'loss (1 step)':>14} {'time':>8}")
    for name, flags in grid():
        cfg = ModelConfig(in_channels=1, num_classes=2,
                          base_channels=args.base_channels,
                          stage_depths=[1, 1, 1, 1], flags=flags)
        model = SamaUNet(cfg, np.random.default_rng(args.seed))
        opt = AdamW(list(model.named_parameters()))
        t0 = time.time()
        loss = seg_loss(model(x), mask, cfg.num_classes)
        loss.backward()
        opt.step()
        print(f"{name:<24} {model.num_params():>10} {loss.item():>14.5f} "
              f"{time.time() - t0:>7.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
