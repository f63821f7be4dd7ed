"""Self-describing payload frame: header || code table || compressed payload.

Wire layout, all fields big-endian:

    header, 128 bits: magic u16 (0x5347), version u8, secret_kind u8,
                      secret_width u16, secret_height u16,
                      symbol_count u32, payload_bit_length u32
    table, 2048 bits: serialized Huffman code lengths
    payload, L bits:  Huffman-coded secret
    padding:          zero bits up to a multiple of 64

Each 64-bit group of the padded frame lands in one coefficient block.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import huffman
from .errors import (
    BadHeader,
    BadMagic,
    DimensionMismatch,
    EmptyInput,
    TruncatedFrame,
    UnsupportedVersion,
)
from .huffman import Bitstream

FRAME_MAGIC = 0x5347
FRAME_VERSION = 1
KIND_BYTES = 0
KIND_IMAGE = 1
HEADER_BITS = 128
TABLE_BITS = huffman.TABLE_BITS
GROUP_BITS = 64

_HEADER_STRUCT = struct.Struct(">HBBHHII")


@dataclass(frozen=True)
class PayloadHeader:
    """Fixed 128-bit frame prefix describing the embedded secret."""

    secret_kind: int
    secret_width: int
    secret_height: int
    symbol_count: int
    payload_bit_length: int
    magic: int = FRAME_MAGIC
    version: int = FRAME_VERSION

    def to_bytes(self):
        return _HEADER_STRUCT.pack(
            self.magic,
            self.version,
            self.secret_kind,
            self.secret_width,
            self.secret_height,
            self.symbol_count,
            self.payload_bit_length,
        )

    @classmethod
    def parse(cls, bits):
        if bits.bit_length < HEADER_BITS:
            raise TruncatedFrame(
                f"header needs {HEADER_BITS} bits, have {bits.bit_length}"
            )
        fields = _HEADER_STRUCT.unpack(np.packbits(bits.bits[:HEADER_BITS]).tobytes())
        magic, version, kind, width, height, symbol_count, payload_bits = fields
        if magic != FRAME_MAGIC:
            raise BadMagic(f"frame magic 0x{magic:04x} != 0x{FRAME_MAGIC:04x}")
        if version != FRAME_VERSION:
            raise UnsupportedVersion(f"frame version {version} not supported")
        if kind not in (KIND_BYTES, KIND_IMAGE):
            raise BadHeader(f"corrupt frame header: unknown secret kind {kind}")
        if symbol_count == 0:
            raise BadHeader("corrupt frame header: zero symbol count")
        if kind == KIND_IMAGE and width * height != symbol_count:
            raise BadHeader("corrupt frame header: image dims disagree with symbol count")
        if kind == KIND_BYTES and (width or height):
            raise BadHeader(f"corrupt frame header: bytes secret with dims {width}x{height}")
        return cls(kind, width, height, symbol_count, payload_bits)


@dataclass(frozen=True)
class PayloadFrame:
    """The complete padded frame plus its parsed-out header."""

    bits: Bitstream
    header: PayloadHeader

    @property
    def bit_length(self):
        return self.bits.bit_length


def build_frame(secret, kind=KIND_BYTES, dims=None):
    """Compress secret bytes and wrap them into a padded frame.

    kind KIND_IMAGE requires dims=(width, height) matching len(secret).
    """
    secret = bytes(secret)
    if not secret:
        raise EmptyInput("secret must be nonempty")
    if kind == KIND_IMAGE:
        if dims is None:
            raise DimensionMismatch("image secrets require dims=(width, height)")
        width, height = dims
        if width * height != len(secret):
            raise DimensionMismatch(
                f"dims {width}x{height} disagree with {len(secret)} secret bytes"
            )
        if not (0 < width <= 0xFFFF and 0 < height <= 0xFFFF):
            raise DimensionMismatch(f"dims {width}x{height} do not fit the header's u16 fields")
    elif kind == KIND_BYTES:
        width = height = 0
    else:
        raise ValueError(f"unknown secret kind {kind}")
    table = huffman.build_table(secret)
    payload = huffman.encode(secret, table)
    header = PayloadHeader(kind, width, height, len(secret), payload.bit_length)
    # header + table is 2176 bits, 34 whole groups, so only the payload needs padding
    bits = np.concatenate([
        np.unpackbits(np.frombuffer(header.to_bytes(), dtype=np.uint8)),
        huffman.serialize_table(table).bits,
        payload.bits,
        np.zeros((-payload.bit_length) % GROUP_BITS, dtype=np.uint8),
    ])
    return PayloadFrame(Bitstream(bits), header)


def parse_frame(bits):
    """Split a bitstream into (header, table, payload bits); padding is ignored."""
    header = PayloadHeader.parse(bits)
    table_end = HEADER_BITS + TABLE_BITS
    if bits.bit_length < table_end:
        raise TruncatedFrame(
            f"table needs {table_end} bits, have {bits.bit_length}"
        )
    table = huffman.parse_table(Bitstream(bits.bits[HEADER_BITS:table_end]))
    payload_end = table_end + header.payload_bit_length
    if bits.bit_length < payload_end:
        raise TruncatedFrame(
            f"payload promises {header.payload_bit_length} bits, frame is short"
        )
    return header, table, Bitstream(bits.bits[table_end:payload_end])
