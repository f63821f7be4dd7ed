"""Fidelity metric tests pinned to closed-form values."""

import math

import numpy as np
import pytest

from dctsteg import Image8, psnr
from dctsteg.errors import DimensionMismatch


def _pair_single_pixel_diff():
    a = np.zeros((512, 512), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 255
    return Image8(a), Image8(b)


def test_identical_images():
    img = Image8(np.arange(64, dtype=np.uint8).reshape(8, 8))
    score = psnr(img, img)
    assert score.mse == 0.0
    assert math.isinf(score.psnr_db) and score.psnr_db > 0


def test_single_extreme_pixel_closed_form():
    a, b = _pair_single_pixel_diff()
    score = psnr(a, b)
    assert score.mse == 255.0**2 / 262144.0
    assert abs(score.psnr_db - 10.0 * math.log10(262144.0)) < 1e-6
    assert abs(score.psnr_db - 54.1854) < 1e-3


def test_half_mse_closed_form():
    a = np.zeros((8, 8), dtype=np.uint8)
    b = a.copy()
    b.reshape(-1)[:32] = 1  # half the pixels off by one
    score = psnr(Image8(a), Image8(b))
    assert score.mse == 0.5
    assert abs(score.psnr_db - 10.0 * math.log10(255.0**2 / 0.5)) < 1e-9
    assert abs(score.psnr_db - 51.1411) < 1e-3


def test_symmetry():
    rng = np.random.default_rng(5)
    a = Image8(rng.integers(0, 256, (16, 24)).astype(np.uint8))
    b = Image8(rng.integers(0, 256, (16, 24)).astype(np.uint8))
    assert psnr(a, b) == psnr(b, a)


def test_dimension_mismatch():
    a = Image8(np.zeros((8, 8), dtype=np.uint8))
    b = Image8(np.zeros((8, 16), dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        psnr(a, b)


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = rng.integers(0, 256, (8, 8)).astype(np.uint8)
        b = rng.integers(0, 256, (8, 8)).astype(np.uint8)
        total = 0.0
        for y in range(8):
            for x in range(8):
                d = float(a[y, x]) - float(b[y, x])
                total += d * d
        want = total / 64.0
        got = psnr(Image8(a), Image8(b)).mse
        assert abs(got - want) <= 1e-9 * max(want, 1.0)


def test_psnr_decreases_with_distortion():
    base = np.full((8, 8), 100, dtype=np.uint8)
    scores = []
    for delta in (1, 2, 5, 20):
        other = np.clip(base.astype(np.int64) + delta, 0, 255).astype(np.uint8)
        scores.append(psnr(Image8(base), Image8(other)).psnr_db)
    assert scores == sorted(scores, reverse=True)


def _float_mse(a, b):
    """The float MSE formula the exact sum replaced: two float64 copies and np.mean."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def test_exact_sum_equals_the_float_formula_bit_for_bit():
    rng = np.random.default_rng(9)
    for shape in ((8, 8), (64, 48), (520, 512), (1024, 1024)):
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        near = np.clip(a.astype(np.int64) + rng.integers(-3, 4, shape), 0, 255).astype(np.uint8)
        far = rng.integers(0, 256, shape, dtype=np.uint8)
        for b in (near, far):
            score = psnr(Image8(a), Image8(b))
            assert score.mse == _float_mse(a, b)
            assert score.psnr_db == 10.0 * math.log10(255.0**2 / _float_mse(a, b))


def test_exact_sum_at_the_largest_difference():
    black = np.zeros((2048, 2048), dtype=np.uint8)
    white = np.full((2048, 2048), 255, dtype=np.uint8)
    assert psnr(Image8(black), Image8(white)).mse == _float_mse(black, white) == 255.0**2
