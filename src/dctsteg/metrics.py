"""Image fidelity metrics between a cover and a stego render."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

PEAK = 255.0


@dataclass(frozen=True)
class QualityScore:
    """MSE and PSNR pair; psnr_db is +inf exactly when mse is 0."""

    mse: float
    psnr_db: float


def squared_error(f, g):
    """sum((f-g)^2) over every pixel, exact in int64."""
    if (f.width, f.height) != (g.width, g.height):
        raise DimensionMismatch(
            f"{f.width}x{f.height} vs {g.width}x{g.height}"
        )
    diff = np.subtract(f.pixels, g.pixels, dtype=np.int16).reshape(-1)
    return int(np.einsum("i,i->", diff, diff, dtype=np.int64))


def score(total, pixels):
    """QualityScore of an exact squared pixel error total over pixels pixels.

    The one PSNR rule: 10 log10(255^2 / MSE) in dB, +inf for a zero error.
    """
    value = total / pixels
    if value == 0.0:
        return QualityScore(0.0, math.inf)
    return QualityScore(value, 10.0 * math.log10(PEAK * PEAK / value))


def psnr(f, g):
    """score of f against g; +inf sentinel for identical images."""
    return score(squared_error(f, g), f.width * f.height)
