"""Shared test helpers: independent oracles and synthetic fixtures.

The transform oracles here are deliberate transcriptions of the defining
summations, not the separable matrix form the library uses, so agreement is
meaningful.
"""

import heapq
import itertools
import math

import numpy as np

from dctsteg.errors import InvalidCode, TruncatedStream
from dctsteg.framing import KIND_BYTES, PayloadFrame, PayloadHeader
from dctsteg.huffman import Bitstream, build_table, encode, serialize_table


def _c(k):
    return 1.0 / math.sqrt(2.0) if k == 0 else 1.0


def literal_forward(block):
    """Quadruple-sum forward transform, straight off the definition."""
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            total = 0.0
            for x in range(8):
                for y in range(8):
                    total += (
                        float(block[x][y])
                        * math.cos((2 * x + 1) * u * math.pi / 16)
                        * math.cos((2 * y + 1) * v * math.pi / 16)
                    )
            out[u, v] = 0.25 * _c(u) * _c(v) * total
    return out


def literal_inverse(coeffs):
    """Quadruple-sum inverse transform, straight off the definition."""
    out = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            total = 0.0
            for u in range(8):
                for v in range(8):
                    total += (
                        _c(u)
                        * _c(v)
                        * float(coeffs[u][v])
                        * math.cos((2 * x + 1) * u * math.pi / 16)
                        * math.cos((2 * y + 1) * v * math.pi / 16)
                    )
            out[x, y] = 0.25 * total
    return out


def cosine_tensor():
    """T[u,v,x,y] such that F[u,v] = sum_xy T[u,v,x,y] f[x,y].

    A direct tensor transcription of the same definition, for bulk oracle
    use; the per-coefficient contraction is the literal double sum.
    """
    u = np.arange(8)
    x = np.arange(8)
    cos = np.cos((2 * x[None, :] + 1) * u[:, None] * np.pi / 16)
    c = np.ones(8)
    c[0] = 1.0 / np.sqrt(2.0)
    return 0.25 * np.einsum("u,v,ux,vy->uvxy", c, c, cos, cos)


def oracle_forward_many(blocks):
    return np.einsum("uvxy,kxy->kuv", cosine_tensor(), blocks, optimize=True)


def oracle_inverse_many(coeffs):
    # the inverse sum weights coefficients by the same C(u)C(v) cosines
    return np.einsum("uvxy,kuv->kxy", cosine_tensor(), coeffs, optimize=True)


def min_prefix_cost(freqs):
    """Cheapest weighted length over all prefix codes, by exhaustive search.

    Feasibility of a length assignment is exactly the Kraft sum <= 1.
    """
    n = len(freqs)
    if n == 1:
        return freqs[0]  # lone symbol still needs a 1-bit code
    max_len = n - 1
    scale = 1 << max_len
    best = math.inf
    for lengths in itertools.product(range(1, max_len + 1), repeat=n):
        if sum(scale >> l for l in lengths) <= scale:
            cost = sum(f * l for f, l in zip(freqs, lengths))
            best = min(best, cost)
    return best


def reference_code_lengths(data):
    """Huffman code lengths of data's byte frequencies, merging whole depth maps.

    The oracle for build_table: every node carries a symbol -> depth map,
    and a merge copies both children's maps one level deeper. Heap keys
    are (weight, leaf before internal, symbol or creation order), so ties
    break the same way and the lengths must be identical.
    """
    freqs = np.bincount(np.frombuffer(bytes(data), dtype=np.uint8), minlength=256)
    lengths = np.zeros(256, dtype=np.int64)
    present = np.flatnonzero(freqs)
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    heap = [(int(freqs[s]), 0, int(s), {int(s): 0}) for s in present]
    heapq.heapify(heap)
    counter = 0
    while len(heap) > 1:
        w1, _, _, d1 = heapq.heappop(heap)
        w2, _, _, d2 = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in d1.items()}
        merged.update({s: d + 1 for s, d in d2.items()})
        heapq.heappush(heap, (w1 + w2, 1, counter, merged))
        counter += 1
    for symbol, depth in heap[0][3].items():
        lengths[symbol] = depth
    return lengths


def reference_canonical_codes(lengths):
    """symbol -> (code, length), assigned by walking (length, symbol) order.

    Each next code is the previous one plus one, shifted left by the growth
    in length: the textbook canonical assignment.
    """
    order = sorted((int(l), s) for s, l in enumerate(lengths) if l > 0)
    codes = {}
    code = 0
    prev_len = order[0][0] if order else 0
    for length, symbol in order:
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


def bitstream(bits):
    """Bitstream of a sequence of 0/1 bits, packed MSB-first."""
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    return Bitstream(np.packbits(bits).tobytes(), bits.size)


def stream_bits(stream):
    """The bit_length bits of a Bitstream, one uint8 each."""
    return np.unpackbits(np.frombuffer(stream.data, dtype=np.uint8), count=stream.bit_length)


def with_trailing_ones(stream):
    """The same stream with every bit after bit_length in its last byte set to 1."""
    data = bytearray(stream.data)
    if stream.bit_length % 8:
        data[stream.bit_length // 8] |= (1 << (-stream.bit_length % 8)) - 1
    return Bitstream(bytes(data), stream.bit_length)


def reference_decode(bits, table, symbol_count):
    """Per-bit canonical decode, the oracle for the library's table-driven decode.

    It extends the current prefix one bit at a time and tests it against the
    canonical limits of its length.
    """
    if symbol_count == 0:
        return b""
    if not table.symbols:
        raise InvalidCode("empty table cannot decode symbols")
    # A prefix that matched no shorter codeword is at least first_code[length],
    # so it is a codeword exactly when it is below first_code + count.
    limit = [f + n for f, n in zip(table.first_code, table.count)]
    base = [i - f for i, f in zip(table.first_index, table.first_code)]
    symbols = table.symbols
    max_length = table.max_length
    out = bytearray()
    code = 0
    length = 0
    for bit in stream_bits(bits).tolist():
        code = (code << 1) | bit
        length += 1
        if code < limit[length]:
            out.append(symbols[code + base[length]])
            if len(out) == symbol_count:
                return bytes(out)
            code = 0
            length = 0
        elif length >= max_length:
            raise InvalidCode(f"no codeword matches prefix of length {length}")
    raise TruncatedStream(
        f"stream ended after {len(out)} of {symbol_count} symbols"
    )


def _bilinear(coarse, height, width):
    ys = np.linspace(0, coarse.shape[0] - 1, height)
    xs = np.linspace(0, coarse.shape[1] - 1, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, coarse.shape[0] - 1)
    x1 = np.minimum(x0 + 1, coarse.shape[1] - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    return (
        coarse[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
        + coarse[np.ix_(y0, x1)] * (1 - wy) * wx
        + coarse[np.ix_(y1, x0)] * wy * (1 - wx)
        + coarse[np.ix_(y1, x1)] * wy * wx
    )


def natural_cover(width, height, seed):
    """Photograph-like cover: smooth large-scale structure plus fine texture.

    Pixel range stays inside [16, 239] so block renders avoid clamping.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(48.0, 208.0, (height // 16 + 2, width // 16 + 2))
    base = _bilinear(coarse, height, width)
    texture = rng.normal(0.0, 6.0, (height, width))
    texture = 0.25 * (
        texture
        + np.roll(texture, 1, axis=0)
        + np.roll(texture, 1, axis=1)
        + np.roll(texture, (1, 1), axis=(0, 1))
    )
    grain = rng.normal(0.0, 2.0, (height, width))
    img = np.clip(base + texture + grain, 16.0, 239.0)
    return img.astype(np.uint8)


def low_entropy_secret(width=192, height=195):
    """Deterministic few-level secret image; entropy well under 6 bits/symbol."""
    yy, xx = np.mgrid[0:height, 0:width]
    img = 20 + 32 * (((xx + yy) // 48) % 5)
    img = img + 3 * ((xx * 7 + yy * 13) % 97 == 0)
    return img.astype(np.uint8)


def fibonacci_secret(n):
    """Symbol i repeated F(i + 1) times for i < n: its Huffman code is 1..n-1 bits long."""
    counts = [1, 1]
    while len(counts) < n:
        counts.append(counts[-1] + counts[-2])
    return b"".join(bytes([i]) * c for i, c in enumerate(counts[:n]))


def shannon_entropy(data):
    """Bits per symbol of the byte distribution of data."""
    counts = np.bincount(np.frombuffer(bytes(data), dtype=np.uint8), minlength=256)
    p = counts[counts > 0] / len(data)
    return float(-(p * np.log2(p)).sum())


def _reference_round(samples):
    """The nearest integer of each sample; a sample within 1e-10 below a .5 tie goes up.

    Exact ties compute to within 1e-12 of .5, on either side, so every one
    of them rounds up.
    """
    whole = np.floor(samples)
    return whole + (samples - whole >= 0.5 - 1e-10)


def reference_pixels(samples):
    """The pixel rule written out: _reference_round, then clip to 0..255."""
    return np.clip(_reference_round(samples), 0.0, 255.0)


def _reference_mismatch(cands, bits):
    from dctsteg.blockdct import forward_dct, inverse_dct, quantize

    pixels = reference_pixels(inverse_dct(cands))
    recovered = quantize(forward_dct(pixels))
    return (recovered & 1) != bits[None, :, :], pixels


def _reference_patterns(n, cap=2048):
    k = np.arange(1, 3 ** n)
    digits = (k[:, None] // 3 ** np.arange(n)) % 3
    values = np.where(digits == 0, 0, np.where(digits == 1, 2, -2)).astype(np.int64)
    order = np.argsort((digits != 0).sum(axis=1), kind="stable")
    return values[order][:cap]


def reference_verify_adjust_block(coeffs):
    """Full-render verify/adjust search, the oracle for the library's search.

    A transcription of the search rule, whose target bits are the LSBs of
    coeffs. Each round nudges 7 slots: the offenders in raster order, then
    the non-offenders whose rendered coefficient lies furthest from cur. It
    renders the whole capped pool of +-2 nudges through the full inverse
    DCT, takes each candidate's rounding energy from those samples before
    the clip, and verifies in one batch.
    Of the candidates with energy below 64/12 - sqrt(64/180), one standard
    deviation under the mean energy of 64 uniform rounding errors, it
    commits the first clean one in pool order, else re-anchors on the
    unseen one with the fewest offenders. A state counts as seen when its
    samples differ from an anchor's by whole numbers. The library's
    incremental, screened, tiered search must return the same (pixels,
    residual).
    """
    from dctsteg.blockdct import forward_dct, inverse_dct

    pool_coeffs, max_rounds, cut = 7, 16, 64 / 12 - math.sqrt(64 / 180)
    rows = _reference_patterns(pool_coeffs)
    cur = np.asarray(coeffs, dtype=np.int64).reshape(8, 8).copy()
    bits = cur & 1
    seen = [inverse_dct(cur)]  # the samples of every anchor
    best_pixels = None
    best_residual = 65
    masks, pixels = _reference_mismatch(cur[None], bits)
    mask, pix = masks[0], pixels[0]
    for round_no in range(max_rounds + 1):
        wrong = int(mask.sum())
        if wrong < best_residual:
            best_residual = wrong
            best_pixels = pix
        if wrong == 0 or round_no == max_rounds:
            break
        offenders = [int(i) for i in np.flatnonzero(mask.ravel())[:pool_coeffs]]
        distance = np.abs(forward_dct(pix) - cur).ravel()
        others = sorted(set(range(64)) - set(offenders), key=lambda i: -distance[i])
        slots = offenders + others[: pool_coeffs - len(offenders)]
        pool = np.zeros((len(rows), 64), dtype=np.int64)
        pool[:, slots] = rows
        cands = (cur.reshape(-1)[None, :] + pool).reshape(-1, 8, 8)
        samples = inverse_dct(cands)
        energy = ((samples - _reference_round(samples)) ** 2).sum(axis=(1, 2))
        masks, pixels = _reference_mismatch(cands, bits)
        screened = np.flatnonzero(energy < cut)
        counts = masks[screened].sum(axis=(1, 2))
        if (counts == 0).any():
            best_residual = 0
            best_pixels = pixels[screened[np.argmax(counts == 0)]]
            break
        chosen = None
        for k in screened[np.argsort(counts, kind="stable")]:
            shifts = [samples[k] - anchor for anchor in seen]
            if all(np.abs(d - np.rint(d)).max() > 1e-6 for d in shifts):
                chosen = int(k)
                break
        if chosen is None:
            break
        cur = cands[chosen]
        seen.append(samples[chosen])
        mask, pix = masks[chosen], pixels[chosen]
    return best_pixels.astype(np.uint8), best_residual


def build_v1_frame(secret, kind=KIND_BYTES, dims=(0, 0)):
    """The version-1 frame of secret, as embedders before version 2 wrote it.

    A 128-bit header, the 2048-bit table and the Huffman payload, zero
    padded to a multiple of 64 bits, with no coding choice and no check.
    """
    secret = bytes(secret)
    table = build_table(secret)
    payload = encode(secret, table)
    header = PayloadHeader(kind, *dims, len(secret), payload.bit_length, version=1)
    data = header.to_bytes() + serialize_table(table) + payload.data
    return PayloadFrame(data + bytes(-len(data) % 8), header)


def frame_bits(frame):
    """A PayloadFrame's bits, one uint8 each."""
    return np.unpackbits(np.frombuffer(frame.data, dtype=np.uint8))


def reference_embed(cover, frame, mode="container"):
    """Whole-cover embed, the oracle for the library's chunked one.

    Each step runs over every block of the cover at once: partition, forward
    DCT, quantize, set the frame's bits, render, then for spatial8 the
    library's verify/adjust on each payload block. Returns (int64
    coefficients, uint8 pixels of the render, residual bit errors).
    """
    from dctsteg import engine
    from dctsteg.blockdct import assemble, forward_dct, inverse_dct, partition, quantize

    coeffs = quantize(forward_dct(partition(cover)))
    bit_blocks = frame_bits(frame).reshape(-1, 8, 8).astype(np.int64)
    used = len(bit_blocks)
    coeffs[:used] = engine.set_lsb(coeffs[:used], bit_blocks)
    rendered = reference_pixels(inverse_dct(coeffs))
    residual = 0
    if mode == "spatial8":
        for i in range(used):
            rendered[i], errors = engine.verify_adjust_block(coeffs[i])
            residual += errors
    return coeffs, assemble(rendered, cover.width, cover.height).astype(np.uint8), residual
