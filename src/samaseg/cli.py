"""Command-line harness: synth-data, train, eval, gradcheck, profile."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, desk_default, load_config, parse_config
from .data import SyntheticSpec, generate_dataset, load_dataset
from .gradsuite import run_suite
from .io import load_checkpoint, write_pgm
from .metrics import evaluate_pair
from .model import SamaUNet, predict
from .profiler import build_report
from .tensor import Tensor
from .train import train


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="samaseg")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a deterministic synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train on an STN1 dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override, e.g. --set train.lr=1e-4")
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--lr", type=float, dest="train.lr")
    p.add_argument("--epochs", type=int, dest="train.epochs")

    p = sub.add_parser("eval", help="evaluate a checkpoint; writes a metrics CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--tau", type=float, dest="eval.tau")
    p.add_argument("--pgm-dir", default=None, help="export predicted masks as PGM")

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--level", choices=["micro", "full"], default="full")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("profile", help="parameter and MAC counts for a config")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    return ap


def _load_run_config(args) -> RunConfig:
    """The --config file (or the desk default) with the --set items, then
    the shorthand flags (whose dest is their config key), applied and
    checked as one config text."""
    cfg = load_config(args.config) if args.config else desk_default()
    items = list(getattr(args, "set", []))
    for item in items:      # one config line each, with no comment to strip
        if "=" not in item or "#" in item or "\n" in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
    items += [f"{key}={value}" for key, value in vars(args).items()
              if "." in key and value is not None]
    return parse_config("\n".join(items), cfg)


def _cmd_synth_data(args) -> int:
    spec = SyntheticSpec(image_size=args.size, num_classes=args.classes,
                         count=args.count, noise_sigma=args.noise, seed=args.seed)
    samples = generate_dataset(spec, args.out)
    print(f"wrote {len(samples)} image/mask pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_run_config(args)
    dataset = load_dataset(args.data)
    rng = np.random.default_rng(cfg.train.seed)
    model = SamaUNet(cfg.model, rng)
    logs = train(model, dataset, cfg.train, out_dir=args.out)
    print(f"final epoch: loss={logs[-1].loss:.6f} dsc={logs[-1].dsc:.4f}")
    print(f"checkpoint and log written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    dataset = load_dataset(args.data)
    rng = np.random.default_rng(cfg.train.seed)
    model = SamaUNet(cfg.model, rng)
    load_checkpoint(args.checkpoint, model)
    if args.pgm_dir:
        Path(args.pgm_dir).mkdir(parents=True, exist_ok=True)
    rows = []
    for s in dataset:
        pred = predict(model, s.image[None])[0]
        for r in evaluate_pair(s.mask, pred, cfg.model.num_classes, cfg.eval):
            rows.append({"sample_id": s.sample_id, **r})
        if args.pgm_dir:
            write_pgm(Path(args.pgm_dir) / f"pred_{s.sample_id}.pgm", pred.astype(np.uint8))
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["sample_id", "class_id", "dsc", "nsd", "flags"])
        writer.writeheader()
        for r in rows:
            writer.writerow({**r, "dsc": repr(r["dsc"]), "nsd": repr(r["nsd"])})
    mean_dsc = float(np.mean([r["dsc"] for r in rows]))
    mean_nsd = float(np.mean([r["nsd"] for r in rows]))
    print(f"mean DSC {mean_dsc:.4f}  mean NSD {mean_nsd:.4f}  ({len(rows)} rows -> {args.out})")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(level=args.level, seed=args.seed)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<24} {r.error:12.3e}  (< {r.threshold:.0e})  {status}")
        ok = ok and r.passed
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    cfg = _load_run_config(args)
    rng = np.random.default_rng(args.seed)
    model = SamaUNet(cfg.model, rng)
    x = Tensor(np.zeros((1, cfg.model.in_channels, args.height, args.width), dtype=np.float32))
    report = build_report(model, lambda: model(x))
    print(report.format())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "synth-data": _cmd_synth_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
