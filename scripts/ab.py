#!/usr/bin/env python3
"""Time one probe on two samaseg trees in one process, in interleaved pairs.

Example, the previous commit against the working tree:

    python3 scripts/ab.py --base HEAD~1 --probe desk64 --pairs 60

--base and --head name git revs: each one's `src/samaseg` is exported with
`git archive` into a temporary directory and imported under a package name
of its own. Without --head the working tree's `src/samaseg` is the head.
BLAS runs on one thread. Each tree first runs the probe twice untimed;
then the pairs run in ABBA order (base then head, then head then base), so
neither tree always runs first. The script prints each tree's median time,
the median of the per-pair differences head - base with a bootstrap 95%
interval, and in how many pairs the head was faster.

Probes:
  overfit  one training step of the overfit recipe (32 px, depths 1,1,1,1,
           batch 2): forward, seg_loss, backward and AdamW
  desk64   one training step of the desk default (64 px, batch 2)
  conv     conv2d forward plus the x and W gradients: a 3x3 kernel,
           stride 1, padding 1, on an input of --shape and --out-ch
           output channels
  predict  `predict` of the desk default on one --size image (no tape)
  attention  one attention branch of --kind (local or global), 4 heads,
           forward plus backward on an input of --shape
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads BLAS

import argparse
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_tree(rev: str | None, name: str, tmp: Path):
    """samaseg at git rev `rev` (the working tree if None), imported as the
    package `name`."""
    if rev is None:
        src = ROOT / "src" / "samaseg"
    else:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              "src/samaseg"], check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp / name, filter="data")
        src = tmp / name / "src" / "samaseg"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def train_step(pkg: str, size: int, desk: bool):
    """One training step of the desk default or the overfit recipe, batch 2,
    on fixed random images and masks."""
    model_mod = importlib.import_module(f"{pkg}.model")
    Tensor = importlib.import_module(f"{pkg}.tensor").Tensor
    AdamW = importlib.import_module(f"{pkg}.optim").AdamW
    if desk:
        cfg = importlib.import_module(f"{pkg}.config").desk_default().model
    else:
        cfg = model_mod.ModelConfig(in_channels=1, num_classes=2, base_channels=16,
                                    stage_depths=[1, 1, 1, 1])
    model = model_mod.SamaUNet(cfg, np.random.default_rng(0))
    opt = AdamW(list(model.named_parameters()))
    rng = np.random.default_rng(1)
    images = rng.uniform(0, 1, size=(2, cfg.in_channels, size, size)).astype(np.float32)
    masks = rng.integers(0, cfg.num_classes, size=(2, size, size))

    def step():
        loss = model_mod.seg_loss(model(Tensor(images)), masks, cfg.num_classes)
        loss.backward()
        opt.step()

    return step


def conv_step(pkg: str, shape: tuple, out_ch: int):
    layers = importlib.import_module(f"{pkg}.layers")
    Tensor = importlib.import_module(f"{pkg}.tensor").Tensor
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, size=(out_ch, shape[1], 3, 3)).astype(np.float32),
               requires_grad=True)
    g = rng.uniform(-1, 1, size=(shape[0], out_ch, *shape[2:])).astype(np.float32)

    def step():
        layers.conv2d(x, w, None, padding=1).backward(g)
        x.grad = w.grad = None

    return step


def predict_step(pkg: str, size: int):
    model_mod = importlib.import_module(f"{pkg}.model")
    cfg = importlib.import_module(f"{pkg}.config").desk_default().model
    model = model_mod.SamaUNet(cfg, np.random.default_rng(0))
    image = np.random.default_rng(1).uniform(0, 1, size=(1, cfg.in_channels, size, size))
    image = image.astype(np.float32)
    return lambda: model_mod.predict(model, image)


def attention_step(pkg: str, kind: str, shape: tuple):
    attention = importlib.import_module(f"{pkg}.attention")
    Tensor = importlib.import_module(f"{pkg}.tensor").Tensor
    attn = attention.DiffAggAttention(attention.AttnConfig(channels=shape[1], heads=4), kind,
                                      np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32), requires_grad=True)
    g = rng.uniform(-1, 1, size=shape).astype(np.float32)

    def step():
        attn(x).backward(g)
        attn.zero_grad()
        x.grad = None

    return step


PROBES = {
    "overfit": lambda pkg, a: train_step(pkg, 32, desk=False),
    "desk64": lambda pkg, a: train_step(pkg, 64, desk=True),
    "conv": lambda pkg, a: conv_step(pkg, a.shape, a.out_ch),
    "predict": lambda pkg, a: predict_step(pkg, a.size),
    "attention": lambda pkg, a: attention_step(pkg, a.kind, a.shape),
}


def compare(base_ms: np.ndarray, head_ms: np.ndarray, resamples: int = 2000) -> dict:
    """Medians, the median paired difference head - base with its bootstrap
    95% interval, and the count of pairs where the head was faster."""
    diff = head_ms - base_ms
    rng = np.random.default_rng(0)
    boot = np.median(rng.choice(diff, size=(resamples, diff.size)), axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return {"base": float(np.median(base_ms)), "head": float(np.median(head_ms)),
            "diff": float(np.median(diff)), "lo": float(lo), "hi": float(hi),
            "faster": int((diff < 0).sum()), "pairs": int(diff.size)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git rev of the base tree")
    ap.add_argument("--head", help="git rev of the head tree (default: the working tree)")
    ap.add_argument("--probe", choices=sorted(PROBES), required=True)
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--shape", type=lambda s: tuple(map(int, s.split(","))),
                    default=(2, 16, 64, 64), help="conv or attention probe input B,C,H,W")
    ap.add_argument("--out-ch", type=int, default=16, help="conv probe output channels")
    ap.add_argument("--size", type=int, default=128, help="predict probe image side")
    ap.add_argument("--kind", choices=("local", "global"), default="global",
                    help="attention probe branch")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        steps = [PROBES[args.probe](load_tree(rev, name, Path(tmp)).__name__, args)
                 for rev, name in ((args.base, "samaseg_ab_base"), (args.head, "samaseg_ab_head"))]
        for step in steps:
            step()
            step()
        ms = np.zeros((args.pairs, 2))
        for i in range(args.pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                t0 = time.perf_counter()
                steps[side]()
                ms[i, side] = (time.perf_counter() - t0) * 1e3
    r = compare(ms[:, 0], ms[:, 1])
    print(f"probe {args.probe}, {r['pairs']} pairs in ABBA order, BLAS threads 1")
    print(f"base  {args.base:<12} median {r['base']:.3f} ms")
    print(f"head  {args.head or 'worktree':<12} median {r['head']:.3f} ms")
    print(f"head - base  median {r['diff']:+.3f} ms ({r['diff'] / r['base']:+.1%}), "
          f"95% interval [{r['lo']:+.3f}, {r['hi']:+.3f}] ms, "
          f"head faster in {r['faster']} of {r['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
