"""Embedding engine: carry frame bits in coefficient LSBs and recover them.

Two output modes. Container mode keeps the modified integer coefficients as
the stego artifact itself, which makes recovery lossless by construction.
spatial8 mode renders an ordinary 8-bit image and runs a verify/adjust loop
per payload block, because rounding pixels to integers perturbs coefficient
LSBs; residual errors are reported honestly instead of hidden.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import blockdct, framing, huffman, metrics
from .blockdct import BLOCK
from .errors import (
    BadHeader,
    BadMagic,
    DimensionMismatch,
    PayloadLengthMismatch,
    PayloadTooLarge,
    Truncated,
)
from .image_io import Image8

CONTAINER_MAGIC = 0x44535431  # file magic "DST1"
COEFF_MIN = -4096
COEFF_MAX = 4095
FRAME_OVERHEAD_BITS = framing.HEADER_BITS + framing.TABLE_BITS

_CONTAINER_HEADER = struct.Struct(">IHH")


class StegoContainer:
    """Quantized coefficient blocks of a stego image, the lossless artifact.

    Wire format (.dsc): magic u32 0x44535431, width u16, height u16, then one
    16-bit big-endian two's-complement integer per coefficient, blocks
    row-major and coefficients row-major within each block.
    """

    def __init__(self, width, height, coeffs):
        blockdct.check_aligned(width, height)
        if max(width, height) > 0xFFFF:
            raise DimensionMismatch(f"{width}x{height} does not fit the u16 dims of a .dsc")
        coeffs = np.asarray(coeffs)
        expected = (width // BLOCK) * (height // BLOCK)
        if coeffs.shape != (expected, BLOCK, BLOCK):
            raise ValueError(
                f"expected {expected} coefficient blocks, got shape {coeffs.shape}"
            )
        if coeffs.size and (coeffs.min() < COEFF_MIN or coeffs.max() > COEFF_MAX):
            raise ValueError(f"coefficients must lie in [{COEFF_MIN}, {COEFF_MAX}]")
        self.width = int(width)
        self.height = int(height)
        self.coeffs = coeffs.astype(np.int16, copy=False)  # the wire width, once in range

    def to_bytes(self):
        header = _CONTAINER_HEADER.pack(CONTAINER_MAGIC, self.width, self.height)
        return header + self.coeffs.astype(">i2", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data):
        data = bytes(data)
        if len(data) < _CONTAINER_HEADER.size:
            raise Truncated("container shorter than its fixed header")
        magic, width, height = _CONTAINER_HEADER.unpack_from(data)
        if magic != CONTAINER_MAGIC:
            raise BadMagic(f"container magic 0x{magic:08x} != 0x{CONTAINER_MAGIC:08x}")
        if width == 0 or height == 0:
            raise BadHeader("container declares zero dimensions")
        blockdct.check_aligned(width, height)
        count = width * height
        offset = _CONTAINER_HEADER.size
        if len(data) - offset < 2 * count:
            raise Truncated(f"need {2 * count} coefficient bytes, have {len(data) - offset}")
        coeffs = np.frombuffer(data, dtype=">i2", count=count, offset=offset).astype(np.int16)
        try:  # the constructor's range check is the parse's one check
            return cls(width, height, coeffs.reshape(-1, BLOCK, BLOCK))
        except ValueError as exc:
            raise BadHeader(str(exc)) from None

    def __eq__(self, other):
        if not isinstance(other, StegoContainer):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"StegoContainer({self.width}x{self.height}, {len(self.coeffs)} blocks)"


@dataclass(frozen=True)
class EmbedReport:
    """What an embed call did: block usage, payload size, render fidelity."""

    blocks_used: int
    payload_bits: int
    psnr_db: float
    residual_bit_errors: int


def set_lsb(c, b):
    """Replace two's-complement bit 0 of c with b; works on ints and arrays."""
    return (c & ~1) | b


def get_lsb(c):
    """Two's-complement bit 0 of c."""
    return c & 1


def capacity(width, height):
    """Payload bits a cover can carry: one per coefficient minus frame overhead.

    The 128-bit header and 2048-bit code table always ride along, so small
    covers bottom out at zero.
    """
    blockdct.check_aligned(width, height)
    return max(0, width * height - FRAME_OVERHEAD_BITS)


_TIE = 1e-10  # the margin by which a sample on a .5 tie rounds up


def _to_pixels(samples, out=None):
    """Round and clamp real samples to 8-bit pixel values (still float dtype).

    floor(v + 0.5 + _TIE): the nearest integer, and a .5 tie rounds up. An
    exact tie computes to within 1e-12 of .5, on either side, so it rounds
    up whatever order the transform summed in. The clamp sends negative
    values to 0. out is an optional caller-owned float64 array shaped like
    samples, which may be samples itself; the pixels land there.
    """
    return np.clip(np.floor(np.add(samples, 0.5 + _TIE, out=out), out=out), 0.0, 255.0, out=out)


# _BASIS[i] is the inverse-DCT image of a unit coefficient i, flattened
_BASIS = blockdct.inverse_dct(np.eye(BLOCK * BLOCK).reshape(-1, BLOCK, BLOCK)).reshape(
    BLOCK * BLOCK, BLOCK * BLOCK
)
_KEY_STEP = 1e-6  # the resolution of _rounding_key


class _Workspace:
    """Pool buffers for _POOL_CAP candidates, reused by every round and block.

    One per spatial8 embed: a fresh 1 MB temporary per pool is handed back
    to the OS and faulted in again, which cost more than the arithmetic.
    Rows [start, stop) of pixels and work[0] belong to the pool's candidates
    start..stop-1; work[1], masks and screened (pool indices) hold the
    round's verified candidates, packed. The next pool overwrites them all.
    """

    __slots__ = ("pixels", "work", "masks", "screened")

    def __init__(self):
        self.pixels = np.empty((_POOL_CAP, BLOCK * BLOCK))
        self.work = np.empty((2, _POOL_CAP, BLOCK, BLOCK))
        self.masks = np.empty((_POOL_CAP, BLOCK, BLOCK), dtype=bool)
        self.screened = np.empty(_POOL_CAP, dtype=np.intp)


def _pool_factor(slots, samples):
    """Right factor of a pool's lifted samples.

    Row 0 is cur's samples + 0.5 + _TIE and row 1 + j the basis image of
    slot j, so _LIFT's row @ factor is a candidate's samples + 0.5 + _TIE,
    whose floor is _to_pixels' rounding.
    """
    return np.concatenate((samples.reshape(1, -1) + (0.5 + _TIE), _BASIS[slots]))


def _candidate_pixels(pool, start, stop, ws):
    """Rounded samples (k,8,8) of the pool's candidates start..stop-1, and energies.

    The samples are not clamped: the caller clips the rows it reads to
    0..255, which makes them pixels. A candidate's energy is
    sum (v - round(v))^2 over its samples v. The rounded samples are written
    to the same workspace rows. Samples are cur's own samples plus the
    nudged basis images, one small product instead of an inverse DCT per
    candidate. They differ from the full render's by float noise of about
    1e-13, so a clipped row equals _to_pixels of the full render unless a
    sample lies that close to .5 - _TIE; of the samples that are not exact
    ties, none in 100 near-full natural embeds came within 2e-9 below .5.
    pool is _pool_factor(slots, samples of cur), built once per round for
    all its passes.
    """
    lifted = ws.work[0, start:stop].reshape(-1, BLOCK * BLOCK)
    pixels = ws.pixels[start:stop]
    np.matmul(_LIFT[start:stop], pool, out=lifted)  # each sample v as v + 0.5 + _TIE
    np.floor(lifted, out=pixels)
    lifted -= pixels
    lifted -= 0.5 + _TIE  # v - round(v)
    return pixels.reshape(-1, BLOCK, BLOCK), np.einsum("ij,ij->i", lifted, lifted)


def _nudged(cur, slots, rows):
    """Coefficient blocks cur + each row on the slots, (k,8,8)."""
    cands = np.repeat(cur.reshape(1, -1), len(rows), axis=0)
    cands[:, slots] += rows.astype(np.int64)
    return cands.reshape(-1, BLOCK, BLOCK)


_POOL_COEFFS = 7  # slots nudged per round (3^7 - 1 = 2186 patterns)
_POOL_CAP = 2048  # candidate perturbations evaluated per round
_MAX_ROUNDS = 16
# The DCT is orthonormal, so a candidate's coefficient error has the energy of
# its rounding error (Parseval); a clean one needs all 64 under 0.5. A uniform
# error u has E[u^2] = 1/12 and Var[u^2] = 1/80 - 1/144 = 1/180: the cut is
# the mean energy of 64 of them less one standard deviation.
_ENERGY_CUT = BLOCK * BLOCK / 12 - np.sqrt(BLOCK * BLOCK / 180)
_MIN_PASS = 128  # pool rows rendered in one pass at least
_RECORD = np.dtype((np.void, BLOCK * BLOCK))  # one block's 64 bools, compared at once
_CHUNK_BLOCKS = 2048  # blocks per chunk of the whole-cover passes, 1 MB per float buffer


def _sign_patterns():
    """All nonzero {0, +2, -2} rows over the _POOL_COEFFS slots, sparsest first, capped.

    Returns (rows, passes): rows are float64 (the values are exact), and
    passes are (start, stop) row ranges in pool order, each of whole tiers
    (rows that share one nonzero count) and closed once it holds at least
    _MIN_PASS rows. The first clean candidate in pool order is the same
    whichever tiers share a pass; a pass costs some 30 array calls whatever
    its size, and sparse tiers rarely hold a clean candidate.
    """
    k = np.arange(1, 3**_POOL_COEFFS)
    digits = (k[:, None] // 3 ** np.arange(_POOL_COEFFS)) % 3
    values = np.where(digits == 0, 0.0, np.where(digits == 1, 2.0, -2.0))
    nonzero = (digits != 0).sum(axis=1)
    order = np.argsort(nonzero, kind="stable")
    rows = values[order][:_POOL_CAP]
    passes, start = [], 0
    for stop in np.cumsum(np.bincount(nonzero[order][:_POOL_CAP]))[1:].tolist():
        if stop - start >= _MIN_PASS or stop == len(rows):
            passes.append((start, stop))
            start = stop
    return rows, passes


_ROWS, _PASSES = _sign_patterns()
_LIFT = np.concatenate((np.ones((len(_ROWS), 1)), _ROWS), axis=1)  # [1 | row] per candidate


def _rounding_key(samples):
    """The fractional parts of a state's samples, in steps of _KEY_STEP.

    States whose samples differ by whole numbers, such as +2 on each of
    (0,0), (0,4), (4,0) and (4,4), have the same rounding errors and, unless
    one is clipped at 0 or 255, the same parities; they share this key.
    """
    return (np.rint(samples / _KEY_STEP).astype(np.int64) % round(1 / _KEY_STEP)).tobytes()


def verify_adjust_block(coeffs, bits, ws=None):
    """Render one payload block to 8-bit pixels that reproduce bits on re-DCT.

    coeffs must already carry bits in its LSBs. Pixel rounding re-rolls the
    recovered parity of all 64 coefficients at once, so there is no way to
    repair one coefficient in isolation; instead each round renders every
    +-2 nudge pattern (LSBs are preserved by even steps) of 7 slots: the
    offending coefficients in raster order, then the others whose rendered
    value lies furthest from cur's. Of those, the candidates whose rounding
    energy is below _ENERGY_CUT are verified in passes of whole
    nonzero-count tiers (see _sign_patterns), and the first clean one in
    pool order, the sparsest, is committed. Else the search re-anchors on
    the verified candidate with the fewest offenders (the first in pool
    order among equals) whose _rounding_key no anchor had. At most 16
    rounds; returns (pixels, residual_errors) with failures reported rather
    than raised. ws is the _Workspace the pools are evaluated in; without
    one the call makes its own.

    Candidates are rendered incrementally (see _candidate_pixels). Only the
    render side takes that shortcut: a coefficient near a rounding tie (a DC
    term is the block sum / 8, so about one block in eight) recovers
    whichever way float noise in the forward path sends it, so verify reads
    parity through blockdct.lsb_parity, the forward path extract uses. The
    screen only picks which candidates are verified. Only the rows read are
    clamped to 0..255, and each then equals the full render's pixels.
    """
    if ws is None:
        ws = _Workspace()
    cur = np.asarray(coeffs, dtype=np.int64).reshape(BLOCK, BLOCK).copy()
    bits = np.asarray(bits).reshape(BLOCK, BLOCK).astype(bool)
    bit_record = bits.reshape(-1).view(_RECORD)
    best_pixels, best_residual = None, BLOCK * BLOCK + 1
    samples = blockdct.inverse_dct(cur)
    seen = {_rounding_key(samples)}
    pix = _to_pixels(samples)
    mask = blockdct.lsb_parity(pix[None])[0] ^ bits
    for round_no in range(_MAX_ROUNDS + 1):
        wrong = int(mask.sum())
        if wrong < best_residual:
            best_residual = wrong
            best_pixels = pix
        if wrong == 0 or round_no == _MAX_ROUNDS:
            break
        offenders = np.flatnonzero(mask.ravel())[:_POOL_COEFFS]
        distance = np.abs(blockdct.forward_dct(pix) - cur).ravel()
        distance[offenders] = -1.0  # sorts the offenders after every other coefficient
        spare = np.argsort(-distance, kind="stable")[: _POOL_COEFFS - len(offenders)]
        slots = np.concatenate((offenders, spare))
        pool = _pool_factor(slots, samples)
        n = 0  # candidates verified so far this round, packed in ws rows 0..n-1
        for start, stop in _PASSES:
            pixels, energy = _candidate_pixels(pool, start, stop, ws)
            keep = np.flatnonzero(energy < _ENERGY_CUT)
            rows = slice(n, n + len(keep))
            np.clip(pixels[keep], 0.0, 255.0, out=ws.work[1, rows])  # clamp what is read
            parity = blockdct.lsb_parity(ws.work[1, rows], ws.work[:, rows], ws.masks[rows])
            # clean where a candidate's 64 parities, as one record, are bits
            hits = np.flatnonzero(parity.reshape(-1, BLOCK * BLOCK).view(_RECORD) == bit_record)
            if hits.size:
                return np.clip(pixels[keep[hits[0]]], 0.0, 255.0).astype(np.uint8), 0
            np.add(keep, start, out=ws.screened[rows])
            n = rows.stop
        counts = np.count_nonzero((ws.masks[:n] ^ bits).reshape(-1, BLOCK * BLOCK), axis=1)
        for j in np.argsort(counts, kind="stable"):  # the fewest offenders, unseen
            nudged = _nudged(cur, slots, _ROWS[ws.screened[j], None])[0]
            samples = blockdct.inverse_dct(nudged)
            if _rounding_key(samples) not in seen:
                break
        else:
            break  # no unseen screened candidate
        cur, mask = nudged, ws.masks[j] ^ bits
        seen.add(_rounding_key(samples))
        pix = np.clip(ws.pixels[ws.screened[j]].reshape(BLOCK, BLOCK), 0.0, 255.0)
    return best_pixels.astype(np.uint8), best_residual


def _chunking(width, height):
    """Pixel rows per chunk of the whole-cover passes, and a float work buffer for one.

    Chunks are whole block rows: _CHUNK_BLOCKS blocks, or one row at least.
    """
    across = width // BLOCK
    rows = BLOCK * max(1, _CHUNK_BLOCKS // across)
    return rows, np.empty((2, min(rows, height) // BLOCK * across, BLOCK, BLOCK))


def _render(coeffs, width, height, chunking):
    """The Image8 of coefficient blocks, rendered chunk by chunk."""
    pixels = np.empty((height, width), dtype=np.uint8)
    rows, work = chunking
    for y in range(0, height, rows):
        band = blockdct.block_grid(pixels[y : y + rows])
        first, real = y // BLOCK * band.shape[1], work[:, : band.shape[0] * band.shape[1]]
        real[1] = coeffs[first : first + real.shape[1]]
        samples = blockdct.inverse_dct(real[1], out=real)
        band[...] = _to_pixels(samples, out=samples).reshape(band.shape)
    return Image8(pixels)


def embed(cover, frame, mode="container"):
    """Embed a payload frame into a cover image.

    Bit group i of the frame lands in the LSBs of coefficient block i; blocks
    past the frame keep their plain quantized coefficients. Returns
    (StegoContainer, report) in container mode or (Image8, report) in
    spatial8 mode. A forward pass, then _render, over chunks of block rows.
    """
    if mode not in ("container", "spatial8"):
        raise ValueError(f"unknown mode {mode!r}")
    height, width = cover.height, cover.width
    blockdct.check_aligned(width, height)
    if frame.bit_length > width * height:
        raise PayloadTooLarge(
            f"frame of {frame.bit_length} bits exceeds {width * height} coefficient slots"
        )
    bits = frame.bits.bits.reshape(-1, BLOCK, BLOCK)
    used = len(bits)
    coeffs = np.empty((width * height // BLOCK**2, BLOCK, BLOCK), dtype=np.int16)
    rows, work = chunking = _chunking(width, height)  # a fresh buffer per pass costs more
    for y in range(0, height, rows):
        part = blockdct.partition(cover.pixels[y : y + rows])
        first = y // BLOCK * (width // BLOCK)
        chunk = coeffs[first : first + len(part)]
        real = work[:, : len(part)]
        chunk[...] = blockdct.quantize(blockdct.forward_dct(part, out=real), out=real[0])
        marked = chunk[: max(0, used - first)]
        marked[...] = set_lsb(marked, bits[first : first + len(marked)])
    stego = _render(coeffs, width, height, chunking)
    residual = 0
    if mode == "spatial8":
        ws, grid = _Workspace(), blockdct.block_grid(stego.pixels)
        for i in range(used):
            grid[divmod(i, width // BLOCK)], errors = verify_adjust_block(coeffs[i], bits[i], ws)
            residual += errors
    score = metrics.psnr(cover, stego)
    report = EmbedReport(used, frame.header.payload_bit_length, score.psnr_db, residual)
    return (StegoContainer(width, height, coeffs) if mode == "container" else stego), report


def render(container):
    """8-bit view of a container: the render pass of embed, chunk by chunk.

    For viewing and fidelity scoring; extraction in container mode reads the
    coefficients directly.
    """
    width, height = container.width, container.height
    return _render(container.coeffs, width, height, _chunking(width, height))


def read_frame(stego):
    """Parse the frame a container or an 8-bit stego image carries.

    The one frame-reading path: coefficients, their LSBs, then the frame.
    Returns (header, table, payload bits).
    """
    if isinstance(stego, StegoContainer):
        lsbs = get_lsb(stego.coeffs)
    else:
        lsbs = blockdct.lsb_parity(blockdct.partition(stego))
    return framing.parse_frame(huffman.Bitstream(lsbs.reshape(-1).astype(np.uint8)))


def extract(stego):
    """Recover (secret bytes, header) from a container or an 8-bit stego image."""
    header, table, payload = read_frame(stego)
    secret = huffman.decode(payload, table, header.symbol_count)
    # decode stops after symbol_count codewords; a valid frame's payload ends there
    counts = np.bincount(np.frombuffer(secret, dtype=np.uint8), minlength=256)
    used = int(counts @ table.code_lengths)
    if used != header.payload_bit_length:
        raise PayloadLengthMismatch(
            f"decoded {header.symbol_count} symbols from {used} of "
            f"{header.payload_bit_length} payload bits"
        )
    return secret, header
