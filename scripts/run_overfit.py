#!/usr/bin/env python3
"""Overfit a toy configuration on a small synthetic dataset, then report
per-class DSC/NSD on the training images.

Example:
    python3 scripts/run_overfit.py --out /tmp/overfit --epochs 60
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from samaseg.data import SyntheticSpec, generate_dataset
from samaseg.metrics import NsdConfig, evaluate_pair
from samaseg.model import ModelConfig, SamaUNet, predict
from samaseg.train import TrainConfig, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--classes", type=int, default=2)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--lr", type=float, default=5e-4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    spec = SyntheticSpec(image_size=args.size, num_classes=args.classes,
                         count=args.count, seed=args.seed)
    dataset = generate_dataset(spec, out / "data")
    print(f"wrote {len(dataset)} samples to {out / 'data'}")

    mcfg = ModelConfig(in_channels=1, num_classes=args.classes,
                       base_channels=16, stage_depths=[1, 1, 1, 1])
    tcfg = TrainConfig(epochs=args.epochs, iters_per_epoch=8, batch_size=2,
                       lr=args.lr, seed=args.seed)
    model = SamaUNet(mcfg, np.random.default_rng(args.seed))
    print(f"model: {model.num_params()} parameters")

    logs = train(model, dataset, tcfg, out_dir=out / "run")
    for log in logs[:: max(1, args.epochs // 10)] + [logs[-1]]:
        print(f"epoch {log.epoch:4d}  lr {log.lr:.2e}  loss {log.loss:.5f}  "
              f"dsc {log.dsc:.4f}")

    print("\nfinal metrics on the training set:")
    for s in dataset:
        pred = predict(model, s.image[None])[0]
        for row in evaluate_pair(s.mask, pred, args.classes, NsdConfig(tau=1.0)):
            print(f"  sample {s.sample_id}  class {row['class_id']}  "
                  f"dsc {row['dsc']:.4f}  nsd {row['nsd']:.4f}  {row['flags']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
