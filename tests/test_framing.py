"""Payload frame layout and parsing tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg import KIND_BYTES, KIND_IMAGE, Image8, build_frame, embed
from dctsteg.framing import PayloadHeader, parse_frame
from dctsteg.huffman import decode
from dctsteg.errors import (
    BadHeader,
    BadMagic,
    DimensionMismatch,
    EmptyInput,
    KraftViolation,
    TruncatedFrame,
    UnsupportedVersion,
)
from support import frame_bits, natural_cover, stream_bits


def test_single_symbol_frame_layout():
    frame = build_frame(b"aaaa")
    # 128 header + 2048 table + 4 payload bits, padded to the next 64 multiple
    assert frame.bit_length == 2240
    assert frame.header.symbol_count == 4
    assert frame.header.payload_bit_length == 4
    assert frame.header.secret_kind == KIND_BYTES
    assert frame.header.secret_width == 0
    assert frame_bits(frame).reshape(-1, 64).shape == (35, 64)
    # padding region is all zero
    assert not frame_bits(frame)[2180:].any()


def test_header_wire_format():
    header = PayloadHeader(KIND_IMAGE, 3, 2, 6, 40)
    packed = header.to_bytes()
    assert packed == struct.pack(">HBBHHII", 0x5347, 1, 1, 3, 2, 6, 40)
    assert PayloadHeader.parse(packed) == header


def test_header_magic_bytes():
    frame = build_frame(b"hello")
    assert frame.data[:2] == b"\x53\x47"


def test_frame_round_trip_bytes():
    secret = bytes(range(97, 123)) * 3
    frame = build_frame(secret)
    header, table, payload = parse_frame(frame.data)
    assert header == frame.header
    assert decode(payload, table, header.symbol_count) == secret


def test_frame_round_trip_image_kind():
    secret = bytes(range(48)) * 2
    frame = build_frame(secret, KIND_IMAGE, (12, 8))
    header, table, payload = parse_frame(frame.data)
    assert (header.secret_width, header.secret_height) == (12, 8)
    assert header.secret_kind == KIND_IMAGE
    assert decode(payload, table, header.symbol_count) == secret


def test_image_kind_requires_matching_dims():
    with pytest.raises(DimensionMismatch):
        build_frame(b"abc", KIND_IMAGE, (2, 2))
    with pytest.raises(DimensionMismatch):
        build_frame(b"abcd", KIND_IMAGE)
    with pytest.raises(EmptyInput):
        build_frame(b"")
    with pytest.raises(ValueError):
        build_frame(b"ab", 7)


def test_parse_rejects_wrong_magic():
    frame = build_frame(b"data")
    data = bytearray(frame.data)
    data[0] ^= 0x80  # the first frame bit
    with pytest.raises(BadMagic):
        parse_frame(bytes(data))


def test_parse_rejects_unknown_version():
    packed = bytearray(build_frame(b"data").data)
    packed[2] = 9  # version byte
    with pytest.raises(UnsupportedVersion):
        parse_frame(bytes(packed))


def test_parse_rejects_unknown_kind():
    packed = bytearray(build_frame(b"data").data)
    packed[3] = 5  # kind byte
    with pytest.raises(BadHeader):
        parse_frame(bytes(packed))


def test_parse_rejects_dim_symbol_mismatch():
    packed = bytearray(build_frame(b"abcd", KIND_IMAGE, (2, 2)).data)
    packed[4:6] = (0).to_bytes(2, "big")  # zero out secret_width
    with pytest.raises(BadHeader):
        parse_frame(bytes(packed))


@pytest.mark.parametrize("dims", [(5, 7), (1, 0), (0, 1)])
def test_parse_rejects_bytes_kind_with_dims(dims):
    # build_frame writes 0x0 for a bytes secret; any other dims are corrupt
    good = build_frame(b"data").data
    assert parse_frame(good)[0].secret_width == 0
    packed = bytearray(good)
    packed[4:8] = struct.pack(">HH", *dims)  # secret_width, secret_height
    with pytest.raises(BadHeader, match="corrupt frame header"):
        parse_frame(bytes(packed))


def test_parse_truncation_points():
    frame = build_frame(b"some payload bytes")
    with pytest.raises(TruncatedFrame):
        parse_frame(frame.data[:12])  # inside the header
    with pytest.raises(TruncatedFrame):
        parse_frame(frame.data[:187])  # inside the table
    assert frame.header.payload_bit_length > 8
    with pytest.raises(TruncatedFrame):
        parse_frame(frame.data[:(128 + 2048) // 8 + 1])  # inside the payload


def test_parse_corrupt_table_overfull():
    frame = build_frame(b"data")
    data = bytearray(frame.data)
    # force many symbols to claim 1-bit codes
    data[16:20] = bytes([1, 1, 1, 1])
    with pytest.raises(KraftViolation):
        parse_frame(bytes(data))


def test_block_lsbs_match_frame_bit_order():
    frame = build_frame(b"zq" * 40)
    container, report = embed(Image8(natural_cover(64, 64, 7)), frame)
    lsbs = container.coeffs[: report.blocks_used] & 1
    assert np.array_equal(lsbs.reshape(-1), frame_bits(frame))


@given(st.binary(min_size=1, max_size=400))
@settings(max_examples=60, deadline=None)
def test_frame_round_trip_property(secret):
    frame = build_frame(secret)
    assert frame.bit_length % 64 == 0
    unpadded = 2176 + frame.header.payload_bit_length
    assert unpadded <= frame.bit_length < unpadded + 64
    header, table, payload = parse_frame(frame.data)
    assert decode(payload, table, header.symbol_count) == secret
    # padding of ones, from the bit after the payload on, parses the same
    bits = frame_bits(frame)
    bits[unpadded:] = 1
    header_1, table_1, payload_1 = parse_frame(np.packbits(bits).tobytes())
    assert (header_1, table_1) == (header, table)
    assert payload_1.bit_length == payload.bit_length
    assert np.array_equal(stream_bits(payload_1), stream_bits(payload))
    assert decode(payload_1, table, header.symbol_count) == secret
