"""Canonical Huffman coding over byte symbols, and the Bitstream carrier.

Codes are defined entirely by their lengths: codewords are assigned in
(length, symbol) order, so a 256-entry length array is the whole table.
"""

import bisect
import heapq

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


class Bitstream:
    """Ordered bit sequence, one uint8 0/1 per bit."""

    __slots__ = ("bits",)

    def __init__(self, bits=()):
        self.bits = np.asarray(bits, dtype=np.uint8).reshape(-1)

    @property
    def bit_length(self):
        return int(self.bits.size)


class HuffmanTable:
    """Canonical prefix code over the 256 byte symbols, held as code lengths.

    code_lengths[s] == 0 means symbol s has no codeword. Codewords go to the
    symbols in (length, symbol) order; symbols lists that order. For each
    length l up to max_length, count[l] codewords have length l, the first
    of them is first_code[l], and it belongs to symbols[first_index[l]].
    Codes are Python ints because a parsed table may carry 255-bit codes.
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
        self.codewords = {}  # symbol -> (code value, length)
        for idx, symbol in enumerate(self.symbols):
            l = int(lengths[symbol])
            self.codewords[symbol] = (self.first_code[l] + idx - self.first_index[l], l)

    def bit_string(self, symbol):
        """Codeword of symbol as a '0'/'1' string."""
        code, length = self.codewords[symbol]
        return format(code, f"0{length}b")

    def __eq__(self, other):
        if not isinstance(other, HuffmanTable):
            return NotImplemented
        return bool(np.all(self.code_lengths == other.code_lengths))

    def __repr__(self):
        present = int(np.count_nonzero(self.code_lengths))
        return f"HuffmanTable({present} symbols, max length {self.max_length})"


def build_table(data):
    """Optimal prefix code lengths for the byte frequencies of data, canonicalized.

    A single distinct symbol gets code length 1 so it still occupies bits.
    """
    data = bytes(data)
    if not data:
        raise EmptyInput("cannot build a code from empty data")
    freqs = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
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
    """Concatenate canonical codewords for data in input order.

    Under a complete fixed-length code (see decode) the codeword of a
    symbol is its rank in table.symbols, so one unpackbits of the ranks,
    keeping the last max_length bits of each byte, is the stream.
    """
    data = bytes(data)
    used = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256) > 0
    missing = np.flatnonzero(used & (table.code_lengths == 0))
    if missing.size:
        raise SymbolNotInTable(f"symbol 0x{missing[0]:02x} has no codeword")
    m = table.max_length
    if table.count[m] == 1 << m:
        rank = np.zeros(256, dtype=np.uint8)
        rank[table.symbols] = np.arange(1 << m)
        words = np.unpackbits(np.frombuffer(data.translate(rank.tobytes()), dtype=np.uint8))
        return Bitstream(words.reshape(-1, 8)[:, 8 - m:])
    strings = [None] * 256
    for s in np.flatnonzero(used):
        strings[s] = table.bit_string(int(s))
    joined = "".join(map(strings.__getitem__, data))
    return Bitstream(np.frombuffer(joined.encode("ascii"), np.uint8) - ord("0"))


def decode(bits, table, symbol_count):
    """Decode exactly symbol_count symbols from a canonical-code bitstream.

    numpy finds the length of every codeword up to LOOKUP_BITS long that
    starts at a bit offset; a Python loop then steps once per symbol along
    those lengths, reading a longer codeword as one int where it meets one,
    and one gather maps the short codewords it stepped on to their symbols.

    A complete fixed-length code, where every max_length-bit word is a
    codeword (Kraft then leaves no other length, so max_length <= 8), skips
    the walk: the codeword of symbols[v] is v, so one packbits of the
    codewords, each right-aligned in a byte, and one gather through
    symbols decode the stream.
    """
    if symbol_count == 0:
        return b""
    if not table.symbols:
        raise InvalidCode("empty table cannot decode symbols")
    m = table.max_length
    if table.count[m] == 1 << m:
        # symbol_count comes from an untrusted header: check it before allocating
        if bits.bit_length < symbol_count * m:
            raise TruncatedStream(
                f"stream ended after {bits.bit_length // m} of {symbol_count} symbols")
        words = bits.bits[:symbol_count * m].reshape(-1, m)
        if m < 8:
            words = np.pad(words, ((0, 0), (8 - m, 0)))
        return np.packbits(words).tobytes().translate(bytes(table.symbols).ljust(256, b"\0"))
    # Left-justified to m bits, the limits first_code[l] + count[l] rise with l.
    # A prefix that matched no shorter codeword is at least first_code[l], so
    # the codeword at an offset is as long as the first limit above its next m bits.
    lefts = [(f + c) << (m - l)
             for l, (f, c) in enumerate(zip(table.first_code, table.count))][1:]
    base = [i - f for i, f in zip(table.first_index, table.first_code)]
    width = min(m, LOOKUP_BITS)
    length, index = _codeword_lengths(bits, lefts, width)
    steps = memoryview(length)  # indexing yields cached small ints, copying nothing
    visited = bytearray(bits.bit_length + 1)
    late = []  # symbols of codewords longer than width, in stream order
    p = k = 0
    while True:
        for k in range(k, symbol_count):
            step = steps[p]
            if not step:
                break
            visited[p] = 1
            p += step
        else:
            break
        chunk = bits.bits[p:p + m]
        # the next m bits as one int, zero-filled past the end of the stream
        packed_chunk = np.packbits(chunk)
        value = (int.from_bytes(packed_chunk.tobytes(), "big") << m) >> (8 * packed_chunk.size)
        step = bisect.bisect_right(lefts, value) + 1
        if step > chunk.size:
            if chunk.size == m:
                raise InvalidCode(f"no codeword matches prefix of length {m}")
            raise TruncatedStream(f"stream ended after {k} of {symbol_count} symbols")
        late.append(table.symbols[(value >> (m - step)) + base[step]])
        visited[p] = 1
        p += step
        k += 1
    starts = np.flatnonzero(np.frombuffer(visited, dtype=np.uint8))
    lengths = length[starts]
    short = lengths > 0
    lengths = lengths[short].astype(np.intp)
    codes = index[starts[short]] >> (width - lengths).astype(np.uint32)
    out = np.empty(starts.size, dtype=np.uint8)
    out[short] = np.asarray(table.symbols, dtype=np.uint8)[
        codes.astype(np.intp) + np.array(base[:width + 1], dtype=np.intp)[lengths]]
    out[~short] = late
    return out.tobytes()


def _codeword_lengths(bits, lefts, width):
    """Codeword length and the next width bits at every bit offset of bits.

    The lengths are uint8 with one entry past the stream, and 0 where the
    codeword is longer than width, matches nothing, or needs bits past the
    end; decode resolves those offsets one by one. The width bits are
    uint32, zero-filled past the end.
    """
    n = bits.bit_length
    m = len(lefts)
    bounds = [x << width >> m for x in lefts[:width]]
    lookup = np.zeros(1 << width, dtype=np.uint8)
    lookup[:bounds[-1]] = np.repeat(np.arange(1, width + 1, dtype=np.uint8),
                                    np.diff(bounds, prepend=0))
    # zero bytes past the end give each offset its full 24-bit word
    groups = n // 8 + 1
    packed = np.concatenate([np.packbits(bits.bits), np.zeros(3, dtype=np.uint8)])
    # 24 bits from each byte on hold the next width bits at each of its 8 offsets
    word = (packed[:groups].astype(np.uint32) << 16
            | packed[1:groups + 1].astype(np.uint32) << 8 | packed[2:groups + 2])
    index = word[:, None] >> np.arange(24 - width, 16 - width, -1, dtype=np.uint32)
    index &= (1 << width) - 1
    index = index.reshape(-1)[:n + 1]
    length = lookup[index]
    length[n] = 0
    # a codeword that only the zero fill past the end would complete is cut off
    tail = length[max(n - width, 0):n]
    tail[tail > np.arange(tail.size, 0, -1)] = 0
    return length, index


def serialize_table(table):
    """256 code lengths, each an 8-bit big-endian integer, symbol order 0..255."""
    lengths = table.code_lengths.astype(np.uint8)
    return Bitstream(np.unpackbits(lengths))


def parse_table(bits):
    """Inverse of serialize_table; rejects length sets that overfill the code space."""
    if bits.bit_length != TABLE_BITS:
        raise WrongLength(f"expected {TABLE_BITS} bits, got {bits.bit_length}")
    lengths = np.packbits(bits.bits).astype(np.int64)
    nonzero = lengths[lengths > 0]
    if nonzero.size >= 2:
        # Kraft sum over 2^-len, computed exactly in integers
        top = int(nonzero.max())
        total = sum(1 << (top - int(l)) for l in nonzero)
        if total > (1 << top):
            raise KraftViolation("code lengths overfill the prefix code space")
    return HuffmanTable(lengths)
