"""Canonical Huffman coding over byte symbols, and the Bitstream carrier.

Codes are defined entirely by their lengths: codewords are assigned in
(length, symbol) order, so a 256-entry length array is the whole table.
"""

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
    if present.size == 1:
        lengths[present[0]] = 1
        return HuffmanTable(lengths)
    # heap entries: (weight, leaf-before-internal, symbol or creation order, depth map)
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
    return HuffmanTable(lengths)


def encode(data, table):
    """Concatenate canonical codewords for data in input order."""
    data = bytes(data)
    used = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256) > 0
    missing = np.flatnonzero(used & (table.code_lengths == 0))
    if missing.size:
        raise SymbolNotInTable(f"symbol 0x{missing[0]:02x} has no codeword")
    strings = [None] * 256
    for s in np.flatnonzero(used):
        strings[s] = table.bit_string(int(s))
    joined = "".join(map(strings.__getitem__, data))
    return Bitstream(np.frombuffer(joined.encode("ascii"), np.uint8) - ord("0"))


def decode(bits, table, symbol_count):
    """Decode exactly symbol_count symbols from a canonical-code bitstream."""
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
    for bit in bits.bits.tolist():
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
