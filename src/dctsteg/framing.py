"""Self-describing payload frame: header || code table || payload.

Wire layout of version 2, which build_frame writes, all fields big-endian:

    header, 192 bits: magic u16 (0x5347), version u8 (2), secret_kind u8,
                      secret_width u16, secret_height u16,
                      symbol_count u32, payload_bit_length u32,
                      coding u8 (0 stored, 1 coded), table_form u8 (0),
                      sync_interval u16 (0), crc32 u32
    table, 2048 bits: serialized Huffman code lengths, coded frames only
    payload, L bits:  the secret's bytes (stored) or their Huffman code (coded)
    padding:          zero bits up to a multiple of 64

table_form and sync_interval are reserved and 0. crc32 is zlib's CRC-32 of
the header bytes before it, then the table and the payload bytes, where
the padding bits in the payload's last byte count as 0. A stored frame is
coded with the flat code STORED_TABLE, whose 8-bit codeword of each byte
is the byte, so its payload is the secret.

Version 1, which earlier embedders wrote and parse_frame still reads, is
the first 128 bits of that header, then the table and the coded payload,
with no check.

Each 64-bit group of the padded frame lands in one coefficient block.
"""

import struct
import zlib
from dataclasses import dataclass, replace

from . import huffman
from .errors import (
    BadHeader,
    BadMagic,
    ChecksumMismatch,
    DimensionMismatch,
    EmptyInput,
    TruncatedFrame,
    UnsupportedVersion,
)

FRAME_MAGIC = 0x5347
FRAME_VERSION = 2
KIND_BYTES = 0
KIND_IMAGE = 1
STORED = 0
CODED = 1
HEADER_BITS = 192
TABLE_BITS = huffman.TABLE_BITS
GROUP_BITS = 64
STORED_TABLE = huffman.HuffmanTable([8] * 256)

_HEADERS = {1: struct.Struct(">HBBHHII"), 2: struct.Struct(">HBBHHIIBBHI")}
_CRC_AT = _HEADERS[2].size - 4  # the crc32 field's offset, also the bytes of header it covers


def _checksum(header, *body):
    """CRC-32 of a version-2 header's bytes before its crc32 field, then of each body part."""
    crc = zlib.crc32(header[:_CRC_AT])
    for part in body:
        crc = zlib.crc32(part, crc)
    return crc


@dataclass(frozen=True)
class PayloadHeader:
    """Fixed frame prefix describing the embedded secret; a version-1 header is coded."""

    secret_kind: int
    secret_width: int
    secret_height: int
    symbol_count: int
    payload_bit_length: int
    magic: int = FRAME_MAGIC
    version: int = FRAME_VERSION
    coding: int = CODED
    crc32: int = 0

    def to_bytes(self):
        fields = (self.magic, self.version, self.secret_kind, self.secret_width,
                  self.secret_height, self.symbol_count, self.payload_bit_length)
        if self.version == 1:
            return _HEADERS[1].pack(*fields)
        return _HEADERS[2].pack(*fields, self.coding, 0, 0, self.crc32)

    @property
    def size(self):
        """Header bytes on the wire: 16 in version 1, 24 in version 2."""
        return _HEADERS[self.version].size

    @classmethod
    def parse(cls, data):
        if len(data) < _HEADERS[1].size:
            raise TruncatedFrame(
                f"header needs {8 * _HEADERS[1].size} bits, have {8 * len(data)}"
            )
        magic, version = _HEADERS[1].unpack_from(data)[:2]
        if magic != FRAME_MAGIC:
            raise BadMagic(f"frame magic 0x{magic:04x} != 0x{FRAME_MAGIC:04x}")
        if version not in _HEADERS:
            raise UnsupportedVersion(f"frame version {version} not supported")
        layout = _HEADERS[version]
        if len(data) < layout.size:
            raise TruncatedFrame(f"header needs {8 * layout.size} bits, have {8 * len(data)}")
        _, _, kind, width, height, symbol_count, payload_bits, *rest = layout.unpack_from(data)
        coding, table_form, sync_interval, crc = rest or (CODED, 0, 0, 0)
        if coding not in (STORED, CODED):
            raise BadHeader(f"corrupt frame header: unknown coding {coding}")
        if table_form or sync_interval:
            raise BadHeader("corrupt frame header: reserved fields are not 0")
        if kind not in (KIND_BYTES, KIND_IMAGE):
            raise BadHeader(f"corrupt frame header: unknown secret kind {kind}")
        if symbol_count == 0:
            raise BadHeader("corrupt frame header: zero symbol count")
        if kind == KIND_IMAGE and width * height != symbol_count:
            raise BadHeader("corrupt frame header: image dims disagree with symbol count")
        if kind == KIND_BYTES and (width or height):
            raise BadHeader(f"corrupt frame header: bytes secret with dims {width}x{height}")
        return cls(kind, width, height, symbol_count, payload_bits, magic, version, coding, crc)


@dataclass(frozen=True)
class PayloadFrame:
    """The complete padded frame, MSB-first bytes, plus its parsed-out header."""

    data: bytes
    header: PayloadHeader

    @property
    def bit_length(self):
        return 8 * len(self.data)


def build_frame(secret, kind=KIND_BYTES, dims=None):
    """Wrap secret bytes into a padded version-2 frame, stored or Huffman-coded.

    The frame is coded only when the Huffman payload plus its table is
    shorter than the 8 bits a byte that storing costs. No prefix code beats
    the byte entropy, so where that bound plus the table already reaches
    8 bits a byte, the frame is stored without building a table; the bound
    is a float, and the one bit of slack absorbs its rounding.
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
    counts = huffman.byte_counts(secret)
    stored_bits = 8 * len(secret)
    coding, table = STORED, STORED_TABLE
    if huffman.entropy_bits(counts) + TABLE_BITS < stored_bits + 1:
        coded = huffman.build_table(secret, counts)
        if int(counts @ coded.code_lengths) + TABLE_BITS < stored_bits:
            coding, table = CODED, coded
    payload = huffman.encode(secret, table)
    # the header is 3 whole groups and the table 32, so only the payload needs
    # padding; encode leaves the bits after its last one zero
    body = huffman.serialize_table(table) + payload.data if coding == CODED else payload.data
    header = PayloadHeader(kind, width, height, len(secret), payload.bit_length, coding=coding)
    header = replace(header, crc32=_checksum(header.to_bytes(), body))
    data = header.to_bytes() + body
    return PayloadFrame(data + bytes(-len(data) % (GROUP_BITS // 8)), header)


def parse_frame(data):
    """Split frame bytes into (header, table, payload Bitstream); padding is ignored.

    The version byte picks the layout. A version-2 frame's CRC-32 is checked
    before its table is parsed; a mismatch raises ChecksumMismatch.
    """
    header = PayloadHeader.parse(data)
    table_end = header.size + (TABLE_BITS // 8 if header.coding == CODED else 0)
    if len(data) < table_end:
        raise TruncatedFrame(f"table needs {8 * table_end} bits, have {8 * len(data)}")
    payload_end = 8 * table_end + header.payload_bit_length
    if 8 * len(data) < payload_end:
        raise TruncatedFrame(
            f"payload promises {header.payload_bit_length} bits, frame is short"
        )
    whole, spare = divmod(payload_end, 8)
    if header.version > 1:
        # the payload's bits in its last byte; the padding after them counts as 0
        tail = bytes([data[whole] & (0xFF00 >> spare)]) if spare else b""
        view = memoryview(data)
        if _checksum(view, view[header.size:whole], tail) != header.crc32:
            raise ChecksumMismatch(
                f"frame CRC-32 0x{header.crc32:08x} does not match its contents"
            )
    if header.coding == CODED:
        table = huffman.parse_table(data[header.size:table_end])
    else:
        table = STORED_TABLE
    payload = data[table_end:whole + (spare > 0)]
    return header, table, huffman.Bitstream(payload, header.payload_bit_length)
