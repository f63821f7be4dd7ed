"""Payload frame layout and parsing tests."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg import KIND_BYTES, KIND_IMAGE, Image8, build_frame, embed
from dctsteg.framing import CODED, STORED, STORED_TABLE, PayloadHeader, parse_frame
from dctsteg import huffman
from dctsteg.huffman import build_table, decode, serialize_table
from dctsteg.errors import (
    BadHeader,
    BadMagic,
    ChecksumMismatch,
    DimensionMismatch,
    EmptyInput,
    KraftViolation,
    StegError,
    TruncatedFrame,
    UnsupportedVersion,
)
from support import build_v1_frame, frame_bits, natural_cover, stream_bits


def test_single_symbol_frame_layout():
    frame = build_v1_frame(b"aaaa")
    # 128 header + 2048 table + 4 payload bits, padded to the next 64 multiple
    assert frame.bit_length == 2240
    assert frame.header.symbol_count == 4
    assert frame.header.payload_bit_length == 4
    assert frame.header.secret_kind == KIND_BYTES
    assert frame.header.secret_width == 0
    assert frame_bits(frame).reshape(-1, 64).shape == (35, 64)
    # padding region is all zero
    assert not frame_bits(frame)[2180:].any()
    assert parse_frame(frame.data)[0] == frame.header


def _crc32(frame_data, end):
    """CRC-32 of a version-2 frame's bytes up to end, skipping the crc32 field at 20..23."""
    return zlib.crc32(frame_data[24:end], zlib.crc32(frame_data[:20]))


def test_v2_frame_layouts():
    # 4 bytes: 32 stored bits cost less than any table, so 192 + 32 bits pad to 256
    stored = build_frame(b"aaaa")
    assert stored.bit_length == 256
    assert stored.header.coding == STORED
    assert stored.header.payload_bit_length == 32
    assert stored.data[24:28] == b"aaaa" and not any(stored.data[28:])
    # 401 bytes of one symbol: 192 + 2048 + 401 coded bits pad to 2688, not 3400 stored
    coded = build_frame(b"a" * 401)
    assert coded.bit_length == 2688
    assert coded.header.coding == CODED
    assert coded.header.payload_bit_length == 401
    assert coded.data[24:280] == serialize_table(build_table(b"a" * 401))
    for frame, secret in ((stored, b"aaaa"), (coded, b"a" * 401)):
        bits = 192 + 2048 * frame.header.coding + frame.header.payload_bit_length
        assert frame.header.crc32 == _crc32(frame.data, (bits + 7) // 8)
        assert frame.data[20:24] == frame.header.crc32.to_bytes(4, "big")
        assert frame_bits(frame).reshape(-1, 64).shape == (frame.bit_length // 64, 64)
        assert not frame_bits(frame)[bits:].any()
        header, table, payload = parse_frame(frame.data)
        assert header == frame.header
        assert decode(payload, table, header.symbol_count) == secret
        # padding is not checked, the 7 bits after the coded payload in its last byte included
        ones = frame_bits(frame)
        ones[bits:] = 1
        assert parse_frame(np.packbits(ones).tobytes())[0] == header
    assert parse_frame(stored.data)[1] == STORED_TABLE


def test_header_wire_format():
    header = PayloadHeader(KIND_IMAGE, 3, 2, 6, 40, version=1)
    packed = header.to_bytes()
    assert packed == struct.pack(">HBBHHII", 0x5347, 1, 1, 3, 2, 6, 40)
    assert PayloadHeader.parse(packed) == header
    header = PayloadHeader(KIND_IMAGE, 3, 2, 6, 40, coding=STORED, crc32=0xDEADBEEF)
    packed = header.to_bytes()
    # coding, then the reserved table form and sync interval, then crc32
    assert packed == struct.pack(">HBBHHIIBBHI", 0x5347, 2, 1, 3, 2, 6, 40, 0, 0, 0, 0xDEADBEEF)
    assert PayloadHeader.parse(packed) == header


@pytest.mark.parametrize("at, value, message", [
    (16, 2, "unknown coding 2"),
    (17, 1, "reserved fields are not 0"),
    (19, 16, "reserved fields are not 0"),
])
def test_parse_rejects_unknown_coding_and_reserved_fields(at, value, message):
    packed = bytearray(build_frame(b"data").data)
    packed[at] = value
    with pytest.raises(BadHeader, match=message):
        parse_frame(bytes(packed))


@pytest.mark.parametrize("secret", [b"stored secret", b"c" * 400], ids=["stored", "coded"])
def test_v2_frame_checks_every_header_table_and_payload_bit(secret):
    # every single-bit flip of the header (crc32 included) is refused, and of
    # the table or payload refused by the checksum
    frame = build_frame(secret)
    end = 192 + 2048 * frame.header.coding + frame.header.payload_bit_length
    for bit in range(end):
        data = bytearray(frame.data)
        data[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(ChecksumMismatch if bit >= 192 else StegError):
            parse_frame(bytes(data))


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
    frame = build_v1_frame(b"some payload bytes")
    with pytest.raises(TruncatedFrame):
        parse_frame(frame.data[:12])  # inside the header
    with pytest.raises(TruncatedFrame):
        parse_frame(frame.data[:187])  # inside the table
    assert frame.header.payload_bit_length > 8
    with pytest.raises(TruncatedFrame):
        parse_frame(frame.data[:(128 + 2048) // 8 + 1])  # inside the payload


@pytest.mark.parametrize("secret, cuts", [
    (b"some payload bytes", (12, 20, 25)),  # stored: inside the header, its crc32, the payload
    (b"b" * 400, (20, 187, 281)),  # coded: inside the crc32, the table, the payload
], ids=["stored", "coded"])
def test_v2_parse_truncation_points(secret, cuts):
    frame = build_frame(secret)
    assert frame.header.payload_bit_length > 8
    for cut in cuts:
        with pytest.raises(TruncatedFrame):
            parse_frame(frame.data[:cut])


def test_parse_corrupt_table_overfull():
    frame = build_v1_frame(b"data")
    data = bytearray(frame.data)
    # force many symbols to claim 1-bit codes
    data[16:20] = bytes([1, 1, 1, 1])
    with pytest.raises(KraftViolation):
        parse_frame(bytes(data))


def test_v2_corrupt_table_fails_the_checksum_first():
    frame = build_frame(b"d" * 400)
    assert frame.header.coding == CODED
    data = bytearray(frame.data)
    data[24:28] = bytes([1, 1, 1, 1])  # the table's first four lengths
    with pytest.raises(ChecksumMismatch):
        parse_frame(bytes(data))
    # with the checksum made to match, the table's own check still runs
    end = 24 + 256 + (frame.header.payload_bit_length + 7) // 8
    data[20:24] = _crc32(bytes(data), end).to_bytes(4, "big")
    with pytest.raises(KraftViolation):
        parse_frame(bytes(data))


def test_block_lsbs_match_frame_bit_order():
    frame = build_frame(b"zq" * 40)
    container, report = embed(Image8(natural_cover(64, 64, 7)), frame)
    lsbs = container.coeffs[: report.blocks_used] & 1
    assert np.array_equal(lsbs.reshape(-1), frame_bits(frame))


@given(st.one_of(st.binary(min_size=1, max_size=400),
                 # four symbols, at least 400 of them: coded, in codes of 1-3 bits
                 st.lists(st.sampled_from(b"ab c"), min_size=400, max_size=2000).map(bytes)))
@settings(max_examples=60, deadline=None)
def test_frame_round_trip_property(secret):
    frame = build_frame(secret)
    assert frame.bit_length % 64 == 0
    n = len(secret)
    coded = frame.header.coding == CODED
    # coded exactly when the code and its table are shorter than the bytes
    huffman_bits = int(build_table(secret).code_lengths @ np.bincount(
        np.frombuffer(secret, dtype=np.uint8), minlength=256))
    assert coded == (huffman_bits + 2048 < 8 * n)
    assert frame.header.payload_bit_length == (huffman_bits if coded else 8 * n)
    unpadded = 192 + 2048 * coded + frame.header.payload_bit_length
    assert unpadded <= frame.bit_length < unpadded + 64
    assert unpadded <= 192 + 8 * n  # never longer than the stored frame
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


@pytest.mark.parametrize("size", [1, 150, 1651, 30_000])
def test_random_secrets_are_stored_without_building_a_table(monkeypatch, size):
    # n random bytes carry close to 8n bits of entropy, so entropy plus table already exceeds 8n
    def no_table(*args):
        raise AssertionError("build_table called")

    monkeypatch.setattr(huffman, "build_table", no_table)
    secret = np.random.default_rng(size).bytes(size)
    frame = build_frame(secret)
    assert frame.header.coding == STORED
    assert frame.data[24:24 + size] == secret


@given(st.binary(max_size=600))
@settings(max_examples=200, deadline=None)
def test_v2_parse_of_any_bytes_raises_only_steg_errors(rest):
    # a version-2 magic and version byte, then anything: a header, a CRC-32, a table or none
    data = b"SG\x02" + rest
    try:
        header, table, payload = parse_frame(data)
        decode(payload, table, header.symbol_count)
    except StegError:
        pass
