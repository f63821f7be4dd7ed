"""Canonical Huffman coding over byte symbols, and the Bitstream carrier.

Codes are defined entirely by their lengths: they are assigned in
(length, symbol) order, so a 256-entry length array is the whole table.
"""

import bisect
import heapq
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    InvalidCode,
    KraftViolation,
    SymbolNotInTable,
    TruncatedStream,
    WrongLength,
)

TABLE_BITS = 2048  # 256 symbols x 8-bit code length
LOOKUP_BITS = 16  # decode finds codes up to this long in one lookup table
STRIDE_LOG = 4  # decode steps over 2**STRIDE_LOG short codes at a time
STRIDE = 1 << STRIDE_LOG
DOUBLING_BLOCK = 1 << 15  # offsets composed per gather, bounding the temporary


@dataclass(frozen=True)
class Bitstream:
    """Huffman payload: the first bit_length bits of MSB-first data; decode ignores the rest."""

    data: bytes
    bit_length: int


class HuffmanTable:
    """Canonical prefix code over the 256 byte symbols, held as code lengths.

    code_lengths[s] == 0 means symbol s has no codeword. Codewords go to the
    symbols in (length, symbol) order; symbols lists that order. For each
    length l up to max_length, count[l] codes have length l, the first
    of them is first_code[l], and it belongs to symbols[first_index[l]].
    Codes are Python ints because a parsed table may carry 255-bit codes.
    fixed_length is true for a complete fixed-length code, where every
    max_length-bit word is a codeword (Kraft then leaves no other length,
    so max_length <= 8): the codeword of symbols[v] is v.
    """

    def __init__(self, code_lengths):
        lengths = np.asarray(code_lengths, dtype=np.int64).reshape(-1)
        if lengths.shape != (256,):
            raise ValueError("code_lengths must have 256 entries")
        if lengths.min() < 0 or lengths.max() > 255:
            raise ValueError("code lengths must be in [0, 255]")
        self.code_lengths = lengths
        self.max_length = int(lengths.max())
        order = np.argsort(lengths, kind="stable")
        self.symbols = order[lengths[order] > 0].tolist()
        self.count = np.bincount(lengths, minlength=self.max_length + 1).tolist()
        self.count[0] = 0
        self.first_code = [0] * (self.max_length + 1)
        self.first_index = [0] * (self.max_length + 1)
        for l in range(1, self.max_length + 1):
            self.first_code[l] = (self.first_code[l - 1] + self.count[l - 1]) << 1
            self.first_index[l] = self.first_index[l - 1] + self.count[l - 1]
        self.fixed_length = self.count[self.max_length] == 1 << self.max_length

    def __eq__(self, other):
        if not isinstance(other, HuffmanTable):
            return NotImplemented
        return bool(np.all(self.code_lengths == other.code_lengths))


def byte_counts(data):
    """Occurrences of each byte value 0..255 in data, as np.bincount gives them.

    bincount copies its input to intp first, so it counts DOUBLING_BLOCK
    bytes at a time: each copy is the size of a doubling block's offsets,
    where a whole 480 KB secret made a 3.9 MB one.
    """
    values = np.frombuffer(data, dtype=np.uint8)
    counts = np.zeros(256, dtype=np.intp)
    for start in range(0, values.size, DOUBLING_BLOCK):
        counts += np.bincount(values[start:start + DOUBLING_BLOCK], minlength=256)
    return counts


def entropy_bits(counts):
    """Length times byte entropy of data with these byte_counts: no prefix code is shorter."""
    present = counts[counts > 0].astype(np.float64)
    total = present.sum()
    return float(total * np.log2(total) - present @ np.log2(present))


def build_table(data, counts=None):
    """Optimal prefix code lengths for the byte frequencies of data, canonicalized.

    A single distinct symbol gets code length 1 so it still occupies bits.
    counts is byte_counts(data), where the caller has counted already.
    """
    data = bytes(data)
    if not data:
        raise EmptyInput("cannot build a code from empty data")
    freqs = byte_counts(data) if counts is None else counts
    lengths = np.zeros(256, dtype=np.int64)
    present = np.flatnonzero(freqs)
    # heap entries: (weight, leaf-before-internal, symbol or creation order, node)
    m = present.size
    heap = [(int(freqs[s]), 0, int(s), i) for i, s in enumerate(present)]
    heapq.heapify(heap)
    parent = [0] * (2 * m - 1)
    for node in range(m, 2 * m - 1):
        w1, _, _, a = heapq.heappop(heap)
        w2, _, _, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (w1 + w2, 1, node - m, node))
    depth = [0] * (2 * m - 1)
    for node in range(2 * m - 3, -1, -1):  # a parent comes after its children
        depth[node] = depth[parent[node]] + 1
    lengths[present] = np.maximum(depth[:m], 1)  # a lone symbol's tree is its root
    return HuffmanTable(lengths)


def encode(data, table):
    """Concatenate the canonical codes of data's bytes in input order.

    Under a complete fixed-length code (see HuffmanTable) the codeword of a
    symbol is its rank in table.symbols, so the translated ranks, each cut
    to its last max_length bits for a shorter code, are the stream.
    """
    data = bytes(data)
    missing = data.translate(None, bytes(table.symbols))
    if missing:
        raise SymbolNotInTable(f"symbol 0x{min(missing):02x} has no codeword")
    m = table.max_length
    if table.fixed_length:
        rank = np.zeros(256, dtype=np.uint8)
        rank[table.symbols] = np.arange(1 << m)
        ranks = data.translate(rank.tobytes())
        if m < 8:
            words = np.unpackbits(np.frombuffer(ranks, dtype=np.uint8)).reshape(-1, 8)[:, 8 - m:]
            ranks = np.packbits(words).tobytes()
        return Bitstream(ranks, m * len(data))
    strings = [None] * 256
    for i, s in enumerate(table.symbols):
        l = int(table.code_lengths[s])
        strings[s] = format(table.first_code[l] + i - table.first_index[l], f"0{l}b")
    joined = "".join(map(strings.__getitem__, data))
    bits = np.frombuffer(joined.encode("ascii"), np.uint8) - ord("0")
    return Bitstream(np.packbits(bits).tobytes(), len(joined))


def decode(bits, table, symbol_count):
    """Decode exactly symbol_count symbols from a canonical-code bitstream.

    Two window tables, indexed by the next width = min(max_length,
    LOOKUP_BITS) bits, give the symbol and the length (0 for none) of the
    short codeword those bits start with. numpy reads the length at every
    bit offset and composes offset + length STRIDE_LOG times with itself
    into the offset STRIDE short codes on. A Python loop then jumps a
    stride at a time while one is whole and fits in symbol_count, and
    otherwise steps one codeword, reading a longer codeword as one int
    where it meets one. numpy marks the codeword starts inside each stride
    and looks their symbols up.

    A complete fixed-length code (see HuffmanTable) skips the walk: the
    codeword of symbols[v] is v, so one translate through symbols decodes
    the stream's first symbol_count bytes, or, for a shorter code, the
    codes repacked one to a byte, right-aligned.
    """
    if symbol_count == 0:
        return b""
    if not table.symbols:
        raise InvalidCode("empty table cannot decode symbols")
    m = table.max_length
    if table.fixed_length:
        # symbol_count comes from an untrusted header: check it before allocating
        if bits.bit_length < symbol_count * m:
            raise TruncatedStream(
                f"stream ended after {bits.bit_length // m} of {symbol_count} symbols")
        words = bits.data[:symbol_count]
        if m < 8:
            codes = np.unpackbits(np.frombuffer(bits.data, np.uint8), count=symbol_count * m)
            words = np.packbits(np.pad(codes.reshape(-1, m), ((0, 0), (8 - m, 0)))).tobytes()
        return words.translate(bytes(table.symbols).ljust(256, b"\0"))
    # Left-justified to m bits, the limits first_code[l] + count[l] rise with l.
    # A prefix that matched no shorter codeword is at least first_code[l], so
    # the codeword at an offset is as long as the first limit above its next m bits.
    lefts = [(f + c) << (m - l)
             for l, (f, c) in enumerate(zip(table.first_code, table.count))][1:]
    base = [i - f for i, f in zip(table.first_index, table.first_code)]
    width = min(m, LOOKUP_BITS)
    # in canonical order, short symbol s covers 2**(width - length) windows
    short = np.array(table.symbols[:table.first_index[width] + table.count[width]], dtype=np.uint8)
    covered = np.repeat(short, 1 << (width - table.code_lengths[short]))
    symbol_at = np.zeros(1 << width, dtype=np.uint8)
    length_at = np.zeros(1 << width, dtype=np.uint8)
    symbol_at[:covered.size] = covered
    length_at[:covered.size] = table.code_lengths[covered]
    length, index = _codeword_lengths(bits, length_at, width)
    # far[p] is the offset STRIDE short codes after p, or the first offset
    # on the way with no short codeword (long, invalid or cut off), which maps
    # to itself; so a stride is whole exactly when length[far[p]] is nonzero.
    # Each pass composes far with itself in place, a block at a time: a block
    # reads only offsets at or after its own (far[p] >= p), which later
    # blocks have not yet overwritten, so one array of offsets is live.
    far = np.arange(bits.bit_length + 1) + length
    for _ in range(STRIDE_LOG):
        for head in range(0, far.size, DOUBLING_BLOCK):
            block = far[head:head + DOUBLING_BLOCK]
            block[:] = far[block]
    jumps = memoryview(far)
    steps = memoryview(length)  # indexing yields cached small ints, copying nothing
    visited = bytearray(bits.bit_length + 1)  # 2 marks a stride head, 1 any other start
    late = []  # symbols of codes longer than width, in stream order
    last = symbol_count - STRIDE  # a stride may start at or before symbol last
    p = k = 0
    while k < symbol_count:
        if k <= last:
            q = jumps[p]
            if steps[q]:
                visited[p] = 2
                p = q
                k += STRIDE
                continue
        step = steps[p]
        if not step:
            # the next m bits as one int, zero-filled past the end of the stream
            have = min(m, bits.bit_length - p)
            end = p + have
            word = int.from_bytes(bits.data[p >> 3:(end + 7) >> 3], "big") >> (-end & 7)
            value = (word & ((1 << have) - 1)) << (m - have)
            step = bisect.bisect_right(lefts, value) + 1
            if step > have:
                if have == m:
                    raise InvalidCode(f"no codeword matches prefix of length {m}")
                raise TruncatedStream(f"stream ended after {k} of {symbol_count} symbols")
            late.append(table.symbols[(value >> (m - step)) + base[step]])
        visited[p] = 1
        p += step
        k += 1
    marks = np.frombuffer(visited, dtype=np.uint8)
    at = np.flatnonzero(marks == 2)
    for _ in range(STRIDE - 1):  # the other starts of each stride, one codeword on at a time
        at += length[at]
        marks[at] = 1
    starts = np.flatnonzero(marks)
    out = symbol_at[index[starts]]
    out[length[starts] == 0] = late
    return out.tobytes()


def _codeword_lengths(bits, length_at, width):
    """Codeword length and the next width bits at every bit offset of bits.

    The lengths have one entry past the stream, and are 0 where the codeword
    is longer than width, matches nothing, or needs bits past the end;
    decode resolves those offsets one by one. The width bits are zero-filled
    past the last byte; only codewords cut off at the end read bits after n.
    """
    n = bits.bit_length
    # zero bytes past the end give each offset its full 24-bit word
    groups = n // 8 + 1
    packed = np.frombuffer(bits.data.ljust(groups + 2, b"\0"), dtype=np.uint8)
    # 24 bits from each byte on hold the next width bits at each of its 8 offsets
    word = (packed[:groups].astype(np.uint32) << 16
            | packed[1:groups + 1].astype(np.uint32) << 8 | packed[2:groups + 2])
    index = word[:, None] >> np.arange(24 - width, 16 - width, -1, dtype=np.uint32)
    index &= (1 << width) - 1
    index = index.reshape(-1)[:n + 1]
    length = length_at[index]
    length[n] = 0
    # a codeword that only the zero fill past the end would complete is cut off
    tail = length[max(n - width, 0):n]
    tail[tail > np.arange(tail.size, 0, -1)] = 0
    return length, index


def serialize_table(table):
    """256 code lengths, one byte each, symbol order 0..255."""
    return table.code_lengths.astype(np.uint8).tobytes()


def parse_table(data):
    """Inverse of serialize_table; rejects length sets that overfill the code space."""
    if 8 * len(data) != TABLE_BITS:
        raise WrongLength(f"expected {TABLE_BITS} bits, got {8 * len(data)}")
    table = HuffmanTable(np.frombuffer(data, dtype=np.uint8))
    # Kraft sum over 2^-len, computed exactly in integers, one term per length
    top = table.max_length
    if sum(c << (top - l) for l, c in enumerate(table.count)) > 1 << top:
        raise KraftViolation("code lengths overfill the prefix code space")
    return table
