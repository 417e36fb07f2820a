"""Deterministic synthetic segmentation data: soft-rendered random
ellipses and rectangles per class on a noisy background, with exact
integer class masks. Images and masks are written as STN1 pairs.

The soft rendering is a σ = 1 Gaussian blur of the class intensities in
numpy (`_gaussian_blur`). It does the float64 arithmetic of
`scipy.ndimage.gaussian_filter(x, 1.0)` in the same order (radius
int(4σ + 0.5), normalized weights, half-sample-symmetric edges, axis 0
then axis 1, symmetric taps summed from the outermost in), so it gives the
same bits without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import read_stn1, write_stn1


@dataclass
class SyntheticSpec:
    image_size: int = 64
    num_classes: int = 2
    count: int = 8
    shapes_min: int = 1
    shapes_max: int = 2
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 2:
            raise ValueError("image_size must be at least 2")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not 0 <= self.noise_sigma < float("inf"):
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.num_classes < 2:
            raise ValueError("need at least one foreground class")
        if self.shapes_min < 1 or self.shapes_max < self.shapes_min:
            raise ValueError("invalid shapes-per-image range")


@dataclass
class SegmentationSample:
    image: np.ndarray   # [C,H,W] float32
    mask: np.ndarray    # [H,W] int
    sample_id: str = ""


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a float64 [H,W] array with half-sample-
    symmetric edges, bit-equal to `scipy.ndimage.gaussian_filter(x, sigma)`."""
    r = int(4.0 * sigma + 0.5)
    taps = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    w = (w / w.sum())[r:]                   # w[j] weighs the taps at ±j
    for _ in range(2):                      # axis 0, then axis 1 of the transpose
        n = len(x)
        i = np.arange(-r, n + r) % (2 * n)  # edge rows mirrored, as often as needed
        p = x[np.where(i < n, i, 2 * n - 1 - i)]
        out = w[0] * p[r:r + n]
        tap = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(p[r - j:r - j + n], p[r + j:r + j + n], out=tap)
            out += np.multiply(tap, w[j], out=tap)
        x = out.T
    return np.ascontiguousarray(x)


def _draw_shape(mask: np.ndarray, rng: np.random.Generator, class_id: int):
    h, w = mask.shape
    cy = rng.integers(h // 4, 3 * h // 4)
    cx = rng.integers(w // 4, 3 * w // 4)
    ry = rng.integers(max(2, h // 10), max(3, h // 4))
    rx = rng.integers(max(2, w // 10), max(3, w // 4))
    yy, xx = np.mgrid[0:h, 0:w]
    if rng.random() < 0.5:
        region = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    else:
        region = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
    mask[region] = class_id


def make_sample(spec: SyntheticSpec, rng: np.random.Generator, sample_id: str) -> SegmentationSample:
    h = w = spec.image_size
    mask = np.zeros((h, w), dtype=np.uint8)
    # later classes may overdraw earlier ones; retry until all are present
    for _ in range(100):
        mask[:] = 0
        for c in range(1, spec.num_classes):
            for _ in range(int(rng.integers(spec.shapes_min, spec.shapes_max + 1))):
                _draw_shape(mask, rng, c)
        if all((mask == c).any() for c in range(1, spec.num_classes)):
            break
    else:
        raise RuntimeError("failed to draw a sample containing every class")

    levels = np.linspace(0.2, 0.9, spec.num_classes)
    intensity = levels[mask]
    soft = _gaussian_blur(intensity, 1.0)
    noise = rng.normal(0.0, spec.noise_sigma, size=(h, w))
    image = (soft + noise).astype(np.float32)[None]
    return SegmentationSample(image=image, mask=mask.astype(np.int64), sample_id=sample_id)


def generate_dataset(spec: SyntheticSpec, out_dir) -> list[SegmentationSample]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    samples = []
    for i in range(spec.count):
        s = make_sample(spec, rng, f"{i:03d}")
        write_stn1(out_dir / f"img_{s.sample_id}.stn1", s.image)
        write_stn1(out_dir / f"msk_{s.sample_id}.stn1", s.mask.astype(np.uint8))
        samples.append(s)
    return samples


def load_dataset(data_dir) -> list[SegmentationSample]:
    data_dir = Path(data_dir)
    samples = []
    for img_path in sorted(data_dir.glob("img_*.stn1")):
        sid = img_path.stem.split("_", 1)[1]
        msk_path = data_dir / f"msk_{sid}.stn1"
        if not msk_path.exists():
            raise FileNotFoundError(f"missing mask for sample {sid}")
        samples.append(SegmentationSample(
            image=read_stn1(img_path).astype(np.float32),
            mask=read_stn1(msk_path).astype(np.int64),
            sample_id=sid))
    if not samples:
        raise FileNotFoundError(f"no samples found in {data_dir}")
    return samples
