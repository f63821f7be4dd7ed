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


def mse(f, g):
    """Mean squared pixel difference, sum((f-g)^2) / (width * height), summed in int64."""
    if (f.width, f.height) != (g.width, g.height):
        raise DimensionMismatch(
            f"{f.width}x{f.height} vs {g.width}x{g.height}"
        )
    diff = np.subtract(f.pixels, g.pixels, dtype=np.int16).reshape(-1)
    return float(np.einsum("i,i->", diff, diff, dtype=np.int64) / diff.size)


def psnr(f, g):
    """10 log10(255^2 / MSE) in dB, +inf sentinel for identical images."""
    value = mse(f, g)
    if value == 0.0:
        return QualityScore(0.0, math.inf)
    return QualityScore(value, 10.0 * math.log10(PEAK * PEAK / value))
