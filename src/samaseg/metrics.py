"""Segmentation metrics: Dice similarity coefficient and normalized
surface distance, per class, with mean over foreground classes.

Boundary extraction: a region pixel is a surface point when at least one
of its four neighbors lies outside the region; the image border counts as
outside. Distances are Euclidean between pixel centers.

NSD counts the surface points within tau of the other mask's surface
(Nikolov et al., arXiv 1809.04430), exactly and without a distance map:
two running passes down and up each column give every pixel its row
distance g to the nearest other-surface point in that column, and a point
at (r, c) is close when min over columns c' of (c' − c)² + g(r, c')² has a
square root <= tau. Only the columns within ⌊tau⌋ can pass, so the cost is
O(H·W + n·min(W, 2⌊tau⌋ + 1)) for n query points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NsdConfig:
    tau: float = 1.0

    def __post_init__(self):
        if not self.tau >= 0:               # also rejects NaN; inf is valid
            raise ValueError("tau must be >= 0")


def dsc(gt: np.ndarray, pred: np.ndarray, class_id: int) -> tuple[float, str]:
    """Dice coefficient for one class; returns (value, flag).

    Both masks empty for the class counts as perfect agreement (1.0) and
    is flagged "empty" so reports can exclude it.
    """
    if gt.shape != pred.shape:
        raise ValueError(f"mask shapes differ: {gt.shape} vs {pred.shape}")
    g = gt == class_id
    p = pred == class_id
    denom = int(g.sum()) + int(p.sum())
    if denom == 0:
        return 1.0, "empty"
    return 2.0 * int(np.logical_and(g, p).sum()) / denom, ""


def boundary(mask: np.ndarray) -> np.ndarray:
    """Surface points of a binary mask as an (n, 2) array of (row, col)."""
    m = mask.astype(bool)
    padded = np.pad(m, 1)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(m & ~interior)


def _close_count(points: np.ndarray, other: np.ndarray, shape: tuple, tau: float) -> int:
    """How many of `points` lie within Euclidean distance tau of a point of
    `other` (both (n, 2) row/col arrays, `other` non-empty)."""
    h, w = shape
    on = np.zeros(shape, dtype=bool)
    on[other[:, 0], other[:, 1]] = True
    rows = np.arange(h, dtype=np.float64)[:, None]
    above = np.maximum.accumulate(np.where(on, rows, -np.inf), axis=0)
    below = np.minimum.accumulate(np.where(on, rows, np.inf)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)  # inf in a column with no point
    k = int(min(tau, w - 1))
    g2 = np.pad(g * g, ((0, 0), (k, k)), constant_values=np.inf).ravel()
    at = points[:, 0] * (w + 2 * k) + points[:, 1] + k
    d2 = g2[at]
    for dc in range(1, k + 1):
        d2 = np.minimum(d2, np.minimum(g2[at - dc], g2[at + dc]) + dc * dc)
    return int((np.sqrt(d2) <= tau).sum())


def nsd(gt: np.ndarray, pred: np.ndarray, class_id: int, cfg: NsdConfig) -> tuple[float, str]:
    """Normalized surface distance for one class; returns (value, flag)."""
    if gt.shape != pred.shape:
        raise ValueError(f"mask shapes differ: {gt.shape} vs {pred.shape}")
    sg = boundary(gt == class_id)
    sp = boundary(pred == class_id)
    if len(sg) == 0 and len(sp) == 0:
        return 1.0, "empty"
    if len(sg) == 0 or len(sp) == 0:
        return 0.0, "one-empty"
    hits = _close_count(sp, sg, gt.shape, cfg.tau) + _close_count(sg, sp, gt.shape, cfg.tau)
    return hits / (len(sp) + len(sg)), ""


def evaluate_pair(gt: np.ndarray, pred: np.ndarray, num_classes: int,
                  cfg: NsdConfig | None = None) -> list[dict]:
    """Per-foreground-class DSC/NSD rows for one ground-truth/prediction pair."""
    cfg = cfg or NsdConfig()
    rows = []
    for c in range(1, num_classes):
        d, dflag = dsc(gt, pred, c)
        s, sflag = nsd(gt, pred, c, cfg)
        rows.append({"class_id": c, "dsc": d, "nsd": s,
                     "flags": ";".join(x for x in (dflag, sflag) if x)})
    return rows


def mean_foreground_dsc(gt: np.ndarray, pred: np.ndarray, num_classes: int) -> float:
    vals = [dsc(gt, pred, c)[0] for c in range(1, num_classes)]
    return float(np.mean(vals)) if vals else 1.0
