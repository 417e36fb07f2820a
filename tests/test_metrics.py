"""Segmentation metrics: hand-worked cases, exhaustive boundary
enumeration, and an all-pairs brute-force surface-distance oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samaseg.data import SyntheticSpec, make_sample
from samaseg.metrics import NsdConfig, boundary, dsc, evaluate_pair, mean_foreground_dsc, nsd


def brute_force_nsd(gt, pred, class_id, tau):
    """All-pairs minimum Euclidean distances between surface point sets."""
    sg = boundary(gt == class_id)
    sp = boundary(pred == class_id)
    if len(sg) == 0 and len(sp) == 0:
        return 1.0
    if len(sg) == 0 or len(sp) == 0:
        return 0.0

    def hits(points, other):
        count = 0
        for p in points:
            d2min = min(int((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) for q in other)
            if np.sqrt(d2min) <= tau:
                count += 1
        return count

    return (hits(sp, sg) + hits(sg, sp)) / (len(sp) + len(sg))


class TestDsc:
    def test_identical_masks(self):
        m = np.zeros((5, 5), int)
        m[1:4, 1:4] = 1
        assert dsc(m, m, 1) == (1.0, "")

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), int)
        b = np.zeros((4, 4), int)
        a[0, 0] = 1
        b[3, 3] = 1
        assert dsc(a, b, 1) == (0.0, "")

    def test_hand_computed_overlap(self):
        # |G|=4, |P|=6, |G∩P|=2 -> 2*2/(4+6) = 0.4
        g = np.zeros((4, 4), int)
        p = np.zeros((4, 4), int)
        g[0, 0:4] = 1
        p[0, 2:4] = 1
        p[1, 0:4] = 1
        value, flag = dsc(g, p, 1)
        assert value == pytest.approx(0.4) and flag == ""

    def test_both_empty_flagged(self):
        z = np.zeros((3, 3), int)
        assert dsc(z, z, 1) == (1.0, "empty")

    def test_one_empty(self):
        g = np.zeros((3, 3), int)
        p = g.copy()
        p[1, 1] = 1
        assert dsc(g, p, 1) == (0.0, "")

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, size=(10, 10))
        b = rng.integers(0, 3, size=(10, 10))
        for c in (1, 2):
            assert dsc(a, b, c) == dsc(b, a, c)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dsc(np.zeros((3, 3), int), np.zeros((3, 4), int), 1)


class TestBoundary:
    def test_single_pixel(self):
        m = np.zeros((5, 5), bool)
        m[2, 3] = True
        np.testing.assert_array_equal(boundary(m), [[2, 3]])

    def test_3x3_square_is_all_ring(self):
        m = np.zeros((5, 5), bool)
        m[1:4, 1:4] = True
        pts = {tuple(p) for p in boundary(m)}
        expected = {(i, j) for i in range(1, 4) for j in range(1, 4)} - {(2, 2)}
        assert pts == expected

    def test_image_border_counts_as_outside(self):
        m = np.ones((4, 4), bool)
        pts = {tuple(p) for p in boundary(m)}
        frame = {(i, j) for i in range(4) for j in range(4)
                 if i in (0, 3) or j in (0, 3)}
        assert pts == frame

    def test_empty_mask(self):
        assert len(boundary(np.zeros((4, 4), bool))) == 0


class TestNsdHandCases:
    def test_identical_masks_perfect(self):
        m = np.zeros((8, 8), int)
        m[2:6, 2:6] = 1
        assert nsd(m, m, 1, NsdConfig(tau=0.0)) == (1.0, "")

    def test_one_pixel_shift_within_tau_one(self):
        g = np.zeros((8, 8), int)
        p = np.zeros((8, 8), int)
        g[2:5, 2:5] = 1
        p[2:5, 3:6] = 1           # shifted right by one
        assert nsd(g, p, 1, NsdConfig(tau=1.0)) == (1.0, "")

    def test_one_pixel_shift_hand_count_at_tau_zero(self):
        # two 1x3 rows shifted by one: boundaries {(1,1..3)} and {(1,2..4)};
        # exact hits: 2 of 3 points each side -> 4/6
        g = np.zeros((4, 6), int)
        p = np.zeros((4, 6), int)
        g[1, 1:4] = 1
        p[1, 2:5] = 1
        value, flag = nsd(g, p, 1, NsdConfig(tau=0.0))
        assert value == pytest.approx(4 / 6) and flag == ""

    def test_both_empty_flagged(self):
        z = np.zeros((4, 4), int)
        assert nsd(z, z, 1, NsdConfig()) == (1.0, "empty")

    def test_one_empty_flagged(self):
        g = np.zeros((4, 4), int)
        p = g.copy()
        p[1, 1] = 1
        assert nsd(g, p, 1, NsdConfig()) == (0.0, "one-empty")

    def test_symmetry(self, rng):
        a = rng.integers(0, 2, size=(12, 12))
        b = rng.integers(0, 2, size=(12, 12))
        assert nsd(a, b, 1, NsdConfig(tau=1.5)) == nsd(b, a, 1, NsdConfig(tau=1.5))

    def test_invalid_tau_rejected(self):
        for tau in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tau must be >= 0"):
                NsdConfig(tau=tau)


def _mask_pair(case):
    """(gt, pred, num_classes) for one TestNsdBruteForce case: a seed for
    blocky random masks, "random37x23", or "sample<size>"."""
    if case == "random37x23":       # non-square: rows and columns play different parts
        r = np.random.default_rng(5)
        return r.integers(0, 2, (37, 23)), r.integers(0, 2, (37, 23)), 2
    if isinstance(case, str):       # a 3-class sample against a shifted copy of itself
        r = np.random.default_rng(0)    # with 2% of its pixels relabelled
        gt = make_sample(SyntheticSpec(image_size=int(case[6:]), num_classes=3), r, "gt").mask
        pred = np.roll(gt, (1, -2), axis=(0, 1))
        flip = r.random(gt.shape) < 0.02
        pred[flip] = r.integers(0, 3, int(flip.sum()))
        return gt, pred, 3
    r = np.random.default_rng(case)
    # blocky random masks give nontrivial boundaries
    gt = (r.random((8, 8)) < 0.4).repeat(3, 0).repeat(3, 1)[:20, :20].astype(int)
    pred = (r.random((8, 8)) < 0.4).repeat(3, 0).repeat(3, 1)[:20, :20].astype(int)
    return gt, pred, 2


class TestNsdBruteForce:
    @pytest.mark.parametrize("case", [1, 2, 3, 4, "random37x23", "sample64", "sample128"])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, math.sqrt(2.0), 2.5, 1e3, math.inf])
    def test_equals_all_pairs_oracle_exactly(self, case, tau):
        gt, pred, num_classes = _mask_pair(case)
        for c in range(1, num_classes):
            value, _ = nsd(gt, pred, c, NsdConfig(tau=tau))
            assert value == brute_force_nsd(gt, pred, c, tau)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_monotone_in_tau(self, seed):
        r = np.random.default_rng(seed)
        gt = (r.random((10, 10)) < 0.5).astype(int)
        pred = (r.random((10, 10)) < 0.5).astype(int)
        vals = [nsd(gt, pred, 1, NsdConfig(tau=t))[0] for t in (0.0, 1.0, 2.0, 20.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert 0.0 <= vals[0] and vals[-1] <= 1.0

    def test_huge_tau_saturates(self, rng):
        gt = (rng.random((10, 10)) < 0.5).astype(int)
        pred = (rng.random((10, 10)) < 0.5).astype(int)
        if (gt == 1).any() and (pred == 1).any():
            assert nsd(gt, pred, 1, NsdConfig(tau=100.0)) == (1.0, "")


class TestAggregation:
    def test_evaluate_pair_rows(self):
        g = np.zeros((6, 6), int)
        p = np.zeros((6, 6), int)
        g[1:3, 1:3] = 1
        p[1:3, 1:3] = 1
        g[4, 4] = 2               # class 2 missing from prediction
        rows = evaluate_pair(g, p, num_classes=3)
        assert [r["class_id"] for r in rows] == [1, 2]
        assert rows[0]["dsc"] == 1.0 and rows[0]["nsd"] == 1.0 and rows[0]["flags"] == ""
        assert rows[1]["dsc"] == 0.0 and rows[1]["nsd"] == 0.0
        assert "one-empty" in rows[1]["flags"]

    def test_mean_foreground_dsc(self):
        g = np.zeros((4, 4), int)
        g[0, 0] = 1
        g[3, 3] = 2
        p = g.copy()
        p[3, 3] = 0               # class 2 missed entirely
        assert mean_foreground_dsc(g, p, 3) == pytest.approx(0.5)
