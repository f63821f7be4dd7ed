"""8x8 block partitioning and the orthonormal 2-D DCT applied per block.

The transform is the matrix form of

    F(u,v) = 1/4 C(u)C(v) sum_x sum_y f(x,y) cos((2x+1)u pi/16) cos((2y+1)v pi/16)

with C(0) = 1/sqrt(2) and C(k) = 1 otherwise, i.e. F = M b M^T for the basis
matrix M below. The transforms accept a single (8, 8) block or an (n, 8, 8)
stack, and compute every block with the same two matrix products, so results
are bit-identical regardless of how work is grouped.
"""

import numpy as np

from .errors import NotBlockAligned

BLOCK = 8


def _basis_matrix():
    u = np.arange(BLOCK).reshape(-1, 1)
    x = np.arange(BLOCK).reshape(1, -1)
    m = 0.5 * np.cos((2 * x + 1) * u * np.pi / (2 * BLOCK))
    m[0, :] /= np.sqrt(2.0)
    return m


_M = _basis_matrix()
_MT = _M.T.copy()


def _operand(blocks):
    """blocks as float64 and a fresh (2, *shape) buffer for the two products."""
    arr = np.asarray(blocks, dtype=np.float64)
    if arr.shape[-2:] != (BLOCK, BLOCK):
        raise ValueError(f"blocks must be {BLOCK}x{BLOCK}")
    return arr, np.empty((2, *arr.shape))


def check_aligned(width, height):
    """Raise NotBlockAligned unless both dimensions are whole numbers of blocks."""
    if width % BLOCK or height % BLOCK:
        raise NotBlockAligned(f"{width}x{height} is not a multiple of {BLOCK}x{BLOCK}")


def block_grid(pixels):
    """The [row, column] 8x8 block view of a block-aligned (height, width) array."""
    return pixels.reshape(len(pixels) // BLOCK, BLOCK, -1, BLOCK).transpose(0, 2, 1, 3)


def partition(img):
    """Split an image into row-major 8x8 pixel blocks, shape (n, 8, 8)."""
    pixels = np.asarray(getattr(img, "pixels", img))
    h, w = pixels.shape
    check_aligned(w, h)
    return block_grid(pixels).reshape(-1, BLOCK, BLOCK).astype(np.float64)


def assemble(blocks, width, height):
    """Inverse of partition: row-major blocks back into an (height, width) array."""
    grid = np.asarray(blocks).reshape(height // BLOCK, width // BLOCK, BLOCK, BLOCK)
    return grid.transpose(0, 2, 1, 3).reshape(height, width)


def forward_dct(blocks, out=None):
    """Real DCT coefficients of one block or a stack of blocks.

    out, for a float64 stack of n blocks, is a caller-owned (2, n, 8, 8)
    float64 buffer: both products land there and out[1] is returned, so a
    hot loop allocates nothing and converts nothing. Without it the call
    makes its own. The stack itself may be out[1], which the first product
    reads before the second writes.
    """
    if out is None:
        blocks, out = _operand(blocks)
    return np.matmul(np.matmul(_M, blocks, out=out[0]), _MT, out=out[1])


def inverse_dct(coeffs, out=None):
    """Pixel-domain samples of one coefficient block or a stack; out as for forward_dct."""
    if out is None:
        coeffs, out = _operand(coeffs)
    return np.matmul(np.matmul(_MT, coeffs, out=out[0]), _M, out=out[1])


def quantize(coeffs, out=None):
    """Round real coefficients to int64, halves away from zero (2.5 -> 3, -2.5 -> -3).

    out is an optional caller-owned float64 array shaped like coeffs, and
    not coeffs itself: the same integers land there as floats and out is
    returned, so a hot loop allocates nothing.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    rounded = np.trunc(np.add(coeffs, np.copysign(0.5, coeffs, out=out), out=out), out=out)
    return rounded if out is not None else rounded.astype(np.int64)


def lsb_parity(blocks, work=None, out=None):
    """Bit 0 of the quantized coefficients of (n, 8, 8) pixel blocks, as bool.

    Bit for bit get_lsb(quantize(forward_dct(blocks))): the same products,
    then floor(|c| + 0.5), the magnitude of the half-away rounding (its sum
    c + copysign(0.5, c) is the same float with the sign flipped). An int32
    cast floors that sum, and bit 0 of the integer is the parity, exact for
    |c| < 2**31. Verify and extract both read parity here, so they share one
    forward path. work is an optional caller-owned (2, n, 8, 8) float64
    buffer, whose work[0] also holds the integers, and out an (n, 8, 8) bool
    one.
    """
    if work is None:
        work = np.empty((2, *np.shape(blocks)))
    if out is None:
        out = np.empty(np.shape(blocks), dtype=bool)
    coeffs = forward_dct(blocks, out=work)
    np.abs(coeffs, out=coeffs)
    coeffs += 0.5
    rounded = work[0].reshape(-1).view(np.int32)[: coeffs.size].reshape(coeffs.shape)
    np.copyto(rounded, coeffs, casting="unsafe")
    return np.bitwise_and(rounded, 1, out=out, casting="unsafe")
