"""Command-line interface tests: stdout contracts and exit codes."""

import subprocess
import sys
import tempfile
from dataclasses import replace
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg import (
    KIND_BYTES, KIND_IMAGE, Image8, StegoContainer, build_frame, embed, extract, read_pgm,
    write_pgm,
)
from dctsteg.cli import entry
from dctsteg.errors import (
    BadHeader, ChecksumMismatch, DimensionMismatch, InvalidCode, PayloadLengthMismatch, StegError,
    TruncatedStream,
)
from dctsteg.framing import TABLE_BITS, PayloadFrame, PayloadHeader
from dctsteg.huffman import build_table, decode
from support import bitstream, build_v1_frame, fibonacci_secret, frame_bits, natural_cover


@pytest.fixture
def cover_path(tmp_path):
    path = tmp_path / "cover.pgm"
    path.write_bytes(write_pgm(Image8(natural_cover(64, 64, 42))))
    return path


@pytest.fixture
def big_cover_path(tmp_path):
    path = tmp_path / "big.pgm"
    path.write_bytes(write_pgm(Image8(natural_cover(512, 512, 43))))
    return path


def run_cli(capsys, *argv):
    code = entry([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(line):
    return dict(pair.split("=", 1) for pair in line.split())


def test_dsc_streamed_equals_to_bytes(capsys, tmp_path):
    # 520x512 is 4,160 blocks, more than one 2,048-block chunk of the embed
    cover = Image8(natural_cover(520, 512, 520 + 512))
    secret = np.random.default_rng(520).bytes(20000)
    container, _ = embed(cover, build_frame(secret))
    blob = container.to_bytes()
    written = tmp_path / "written.dsc"
    with open(written, "wb") as out:
        container.write(out)
    assert written.read_bytes() == blob
    assert StegoContainer.from_bytes(written.read_bytes()) == container
    (tmp_path / "cover.pgm").write_bytes(write_pgm(cover))
    (tmp_path / "secret.bin").write_bytes(secret)
    code, _, _ = run_cli(capsys, "embed", "--cover", tmp_path / "cover.pgm",
                         "--secret", tmp_path / "secret.bin", "--out", tmp_path / "cli.dsc")
    assert code == 0
    assert (tmp_path / "cli.dsc").read_bytes() == blob


def test_capacity_exact_output(capsys, big_cover_path):
    code, out, _ = run_cli(capsys, "capacity", "--cover", big_cover_path)
    assert code == 0
    # every bit but the 192 of the version-2 header: the largest stored payload
    assert out == "raw_slots=262144 payload_bits=261952\n"


def test_embed_extract_container(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    payload = bytes(np.random.default_rng(1).integers(0, 256, 150, dtype=np.uint8))
    secret.write_bytes(payload)
    out_path = tmp_path / "stego.dsc"
    code, out, _ = run_cli(
        capsys, "embed", "--cover", cover_path, "--secret", secret, "--out", out_path
    )
    assert code == 0
    fields = parse_kv(out)
    assert fields["mode"] == "container"
    assert fields["residual_bit_errors"] == "0"
    # the random secret is stored: 192 header bits and 1,200 payload bits
    assert int(fields["blocks_used"]) == 22
    assert float(fields["psnr_db"]) > 40.0

    recovered = tmp_path / "recovered.bin"
    code, out, _ = run_cli(capsys, "extract", "--in", out_path, "--out", recovered)
    assert code == 0
    fields = parse_kv(out)
    assert fields["secret_kind"] == "bytes"
    assert fields["secret_bytes"] == "150"
    assert recovered.read_bytes() == payload


def test_embed_extract_image_secret(capsys, tmp_path, cover_path):
    rng = np.random.default_rng(2)
    secret_img = Image8(rng.integers(0, 8, (8, 16)).astype(np.uint8))
    secret = tmp_path / "secret.pgm"
    secret.write_bytes(write_pgm(secret_img))
    out_path = tmp_path / "stego.dsc"
    code, out, _ = run_cli(
        capsys,
        "embed", "--cover", cover_path, "--secret", secret,
        "--secret-kind", "image", "--out", out_path,
    )
    assert code == 0

    recovered = tmp_path / "recovered.pgm"
    code, out, _ = run_cli(capsys, "extract", "--in", out_path, "--out", recovered)
    assert code == 0
    fields = parse_kv(out)
    assert fields["secret_kind"] == "image"
    assert (fields["secret_width"], fields["secret_height"]) == ("16", "8")
    assert read_pgm(recovered.read_bytes()) == secret_img


def test_embed_spatial_mode_round_trip(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    payload = b"spatial mode carries bits in a plain image"
    secret.write_bytes(payload)
    out_path = tmp_path / "stego.pgm"
    code, out, _ = run_cli(
        capsys,
        "embed", "--cover", cover_path, "--secret", secret,
        "--mode", "spatial8", "--out", out_path,
    )
    assert code == 0
    fields = parse_kv(out)
    assert fields["mode"] == "spatial8"
    assert fields["residual_bit_errors"] == "0"
    assert 40.0 < float(fields["psnr_db"]) < 60.0
    # the artifact is an ordinary PGM
    img = read_pgm(out_path.read_bytes())
    assert (img.width, img.height) == (64, 64)

    recovered = tmp_path / "recovered.bin"
    code, out, _ = run_cli(capsys, "extract", "--in", out_path, "--out", recovered)
    assert code == 0
    assert recovered.read_bytes() == payload

    code, out, _ = run_cli(capsys, "inspect", "--in", out_path)
    assert code == 0
    assert parse_kv(out)["symbol_count"] == str(len(payload))


def test_embed_spatial_residual_errors_exit_5(capsys, tmp_path):
    # clamping at 255 undoes the +-2 nudges, so no render carries the bits
    cover = tmp_path / "white.pgm"
    cover.write_bytes(write_pgm(Image8(np.full((64, 64), 255, dtype=np.uint8))))
    secret = tmp_path / "secret.bin"
    secret.write_bytes(bytes(np.random.default_rng(5).integers(0, 256, 120, dtype=np.uint8)))
    out_path = tmp_path / "stego.pgm"
    code, out, err = run_cli(
        capsys,
        "embed", "--cover", cover, "--secret", secret,
        "--mode", "spatial8", "--out", out_path,
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: ") and "residual bit errors" in err
    assert not out_path.exists()


def edge_cover(kind, seed):
    """64x64 cover that clamps at 0 or 255, or spans the full 8-bit range."""
    rng = np.random.default_rng(seed)
    if kind == "all-0":
        return np.zeros((64, 64), dtype=np.uint8)
    if kind == "all-255":
        return np.full((64, 64), 255, dtype=np.uint8)
    if kind == "binary":
        return (rng.integers(0, 2, (64, 64)) * 255).astype(np.uint8)
    if kind == "noise":
        return rng.integers(0, 256, (64, 64)).astype(np.uint8)
    img = natural_cover(64, 64, seed).astype(np.float64)
    img = (img - img.min()) * 255.0 / (img.max() - img.min())
    return np.rint(img).astype(np.uint8)


@given(
    st.sampled_from(["all-0", "all-255", "binary", "noise", "stretched"]),
    st.integers(0, 2**16),
    st.binary(min_size=1, max_size=32),
)
@settings(max_examples=8, deadline=None)
def test_spatial8_on_edge_covers_round_trips_or_exits_5(kind, seed, payload):
    with tempfile.TemporaryDirectory() as tmp:
        cover, secret = Path(tmp, "cover.pgm"), Path(tmp, "secret.bin")
        stego, recovered = Path(tmp, "stego.pgm"), Path(tmp, "recovered.bin")
        cover.write_bytes(write_pgm(Image8(edge_cover(kind, seed))))
        secret.write_bytes(payload)
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = entry(["embed", "--cover", str(cover), "--secret", str(secret),
                          "--mode", "spatial8", "--out", str(stego)])
        if code == 5:
            assert out.getvalue() == ""
            assert not stego.exists()
            return
        assert code == 0
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = entry(["extract", "--in", str(stego), "--out", str(recovered)])
        assert code == 0
        assert recovered.read_bytes() == payload


def test_embed_payload_too_large_exit_2(capsys, tmp_path):
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(write_pgm(Image8(np.full((8, 8), 99, dtype=np.uint8))))
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"does not fit")
    code, out, err = run_cli(
        capsys, "embed", "--cover", tiny, "--secret", secret, "--out", tmp_path / "o"
    )
    assert code == 2
    assert out == ""
    assert "payload too large" in err


def test_embed_io_errors_exit_3(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"x")
    code, _, err = run_cli(
        capsys, "embed", "--cover", tmp_path / "missing.pgm",
        "--secret", secret, "--out", tmp_path / "o",
    )
    assert code == 3 and "error:" in err

    misaligned = tmp_path / "odd.pgm"
    misaligned.write_bytes(write_pgm(Image8(np.zeros((8, 12), dtype=np.uint8))))
    code, _, err = run_cli(
        capsys, "embed", "--cover", misaligned, "--secret", secret, "--out", tmp_path / "o"
    )
    assert code == 3 and "error:" in err


def test_extract_non_stego_exit_4(capsys, tmp_path, cover_path):
    code, _, err = run_cli(
        capsys, "extract", "--in", cover_path, "--out", tmp_path / "o"
    )
    assert code == 4 and "error:" in err

    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"this is neither format")
    code, _, err = run_cli(capsys, "extract", "--in", junk, "--out", tmp_path / "o")
    assert code == 4

    code, _, err = run_cli(
        capsys, "extract", "--in", tmp_path / "absent", "--out", tmp_path / "o"
    )
    assert code == 3


def test_psnr_output(capsys, tmp_path, cover_path):
    code, out, _ = run_cli(capsys, "psnr", "--a", cover_path, "--b", cover_path)
    assert code == 0
    fields = parse_kv(out)
    assert fields["psnr_db"] == "inf"
    assert float(fields["mse"]) == 0.0

    other = tmp_path / "other.pgm"
    pixels = natural_cover(64, 64, 42).astype(np.int64)
    pixels[0, 0] = (pixels[0, 0] + 128) % 256
    other.write_bytes(write_pgm(Image8(pixels)))
    code, out, _ = run_cli(capsys, "psnr", "--a", cover_path, "--b", other)
    assert code == 0
    assert float(parse_kv(out)["psnr_db"]) > 30.0


def test_inspect_container(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"inspectable payload")
    out_path = tmp_path / "stego.dsc"
    run_cli(capsys, "embed", "--cover", cover_path, "--secret", secret, "--out", out_path)
    code, out, _ = run_cli(capsys, "inspect", "--in", out_path)
    assert code == 0
    fields = parse_kv(out)
    assert fields["magic"] == "0x5347"
    assert fields["version"] == "2"
    assert fields["coding"] == "0"  # stored: 152 bits, where the table alone is 2,048
    assert fields["symbol_count"] == "19"
    assert int(fields["table_symbols"]) >= 10
    assert int(fields["max_code_length"]) >= 4


def test_codes_longer_than_the_lookup_window_round_trip(capsys, tmp_path, big_cover_path):
    # 21 symbols with Fibonacci counts get codes of 1..20 bits: the longest
    # five pass decode's 16-bit window and take its one-codeword walk
    secret = tmp_path / "fibonacci.bin"
    secret.write_bytes(fibonacci_secret(21))
    assert len(secret.read_bytes()) == 28656
    stego = tmp_path / "fibonacci.dsc"
    code, _, _ = run_cli(capsys, "embed", "--cover", big_cover_path, "--secret", secret,
                         "--out", stego)
    assert code == 0
    code, out, _ = run_cli(capsys, "inspect", "--in", stego)
    assert code == 0 and out.endswith(" table_symbols=21 max_code_length=20\n")
    recovered = tmp_path / "recovered.bin"
    code, _, _ = run_cli(capsys, "extract", "--in", stego, "--out", recovered)
    assert code == 0 and recovered.read_bytes() == secret.read_bytes()


def test_inspect_non_stego_exit_4(capsys, tmp_path, cover_path):
    code, _, err = run_cli(capsys, "inspect", "--in", cover_path)
    assert code == 4 and "error:" in err


def _empty_table_container(header, cover_path):
    """Container of a version-1 frame, which has no checksum, with an all-zero table and no payload."""
    header = replace(header, version=1)
    frame = PayloadFrame(header.to_bytes() + bytes(TABLE_BITS // 8), header)
    container, _ = embed(read_pgm(cover_path.read_bytes()), frame)
    return container


def test_zero_symbol_count_exit_4(capsys, tmp_path, cover_path):
    # build_frame never writes a zero symbol count, but a 0x0 image header
    # with an empty table and payload agrees with it
    container = _empty_table_container(PayloadHeader(KIND_IMAGE, 0, 0, 0, 0), cover_path)
    stego = tmp_path / "zero.dsc"
    stego.write_bytes(container.to_bytes())
    recovered = tmp_path / "recovered.pgm"
    code, out, err = run_cli(capsys, "extract", "--in", stego, "--out", recovered)
    assert code == 4 and out == ""
    assert "zero symbol count" in err
    assert not recovered.exists()
    code, out, err = run_cli(capsys, "inspect", "--in", stego)
    assert code == 4 and out == ""
    assert "zero symbol count" in err


def test_empty_table_with_symbols_to_decode_exit_4(capsys, tmp_path, cover_path):
    container = _empty_table_container(PayloadHeader(KIND_BYTES, 0, 0, 1, 0), cover_path)
    with pytest.raises(InvalidCode, match="empty table cannot decode symbols"):
        extract(container)
    stego = tmp_path / "empty.dsc"
    stego.write_bytes(container.to_bytes())
    recovered = tmp_path / "recovered.bin"
    code, out, err = run_cli(capsys, "extract", "--in", stego, "--out", recovered)
    assert code == 4 and out == ""
    assert "empty table cannot decode symbols" in err
    assert not recovered.exists()


@pytest.fixture
def deep_path(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n64 64\n65535\n" + np.full(64 * 64, 40000, dtype=">u2").tobytes())
    return path


@pytest.mark.parametrize("argv, want", [
    (("embed", "--cover", "{deep}", "--secret", "{cover}", "--out", "{out}"), 3),
    (("embed", "--cover", "{cover}", "--secret", "{deep}", "--secret-kind", "image",
      "--out", "{out}"), 3),
    (("capacity", "--cover", "{deep}"), 3),
    (("psnr", "--a", "{cover}", "--b", "{deep}"), 3),
    (("extract", "--in", "{deep}", "--out", "{out}"), 4),
    (("inspect", "--in", "{deep}"), 4),
], ids=["embed cover", "embed image secret", "capacity", "psnr", "extract", "inspect"])
def test_16bit_pgm_where_8bit_is_needed(capsys, tmp_path, cover_path, deep_path, argv, want):
    paths = {"cover": cover_path, "deep": deep_path, "out": tmp_path / "out"}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == want and out == ""
    assert err.startswith("error: ") and str(deep_path) in err
    assert not paths["out"].exists()


def test_maxval_without_whitespace_after_it_exit_3(capsys, tmp_path, cover_path):
    data = b"P5\n8 8\n255#" + bytes(64)
    with pytest.raises(BadHeader):
        read_pgm(data)
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(data)
    for argv in (("capacity", "--cover", bad),
                 ("embed", "--cover", bad, "--secret", cover_path, "--out", tmp_path / "o")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "o").exists()


def test_magic_without_whitespace_after_it_exit_3_and_4(capsys, tmp_path, cover_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P58 8\n255\n" + bytes(64))
    for want, argv in (
        (3, ("embed", "--cover", bad, "--secret", cover_path, "--out", tmp_path / "o")),
        (4, ("extract", "--in", bad, "--out", tmp_path / "o")),
        (4, ("inspect", "--in", bad)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == want and out == ""
        assert err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "o").exists()


def test_cover_too_wide_for_a_container_exit_3(capsys, tmp_path):
    wide = tmp_path / "wide.pgm"
    rng = np.random.default_rng(14)
    wide.write_bytes(write_pgm(Image8(rng.integers(0, 256, (8, 65536), dtype=np.uint8))))
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"hello world")
    out = tmp_path / "out.dsc"
    code, stdout, err = run_cli(capsys, "embed", "--cover", wide, "--secret", secret,
                                "--out", out)
    assert code == 3 and stdout == ""
    assert err == "error: 65536x8 does not fit the u16 dims of a .dsc\n"
    assert not out.exists()
    # spatial8 writes a PGM, whose header holds any width
    pgm = tmp_path / "out.pgm"
    code, stdout, _ = run_cli(capsys, "embed", "--cover", wide, "--secret", secret,
                              "--mode", "spatial8", "--out", pgm)
    assert code == 0 and "residual_bit_errors=0" in stdout
    code, _, _ = run_cli(capsys, "extract", "--in", pgm, "--out", tmp_path / "back.bin")
    assert code == 0 and (tmp_path / "back.bin").read_bytes() == b"hello world"


def test_image_secret_too_wide_for_the_frame_header_exit_3(capsys, tmp_path, big_cover_path):
    with pytest.raises(DimensionMismatch, match="u16"):
        build_frame(bytes(65536), KIND_IMAGE, (65536, 1))
    with pytest.raises(DimensionMismatch, match="u16"):
        build_frame(bytes(1), KIND_IMAGE, (-1, -1))
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(write_pgm(Image8(np.zeros((1, 65536), dtype=np.uint8))))
    out = tmp_path / "out.dsc"
    code, stdout, err = run_cli(capsys, "embed", "--cover", big_cover_path, "--secret", wide,
                                "--secret-kind", "image", "--out", out)
    assert code == 3 and stdout == ""
    assert "do not fit the header's u16 fields" in err
    assert not out.exists()


def test_verbose_embed_notes_the_frame_on_stderr_only(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"verbose or not, the same stdout")
    quiet = run_cli(capsys, "embed", "--cover", cover_path, "--secret", secret,
                    "--out", tmp_path / "quiet.dsc")
    loud = run_cli(capsys, "-v", "embed", "--cover", cover_path, "--secret", secret,
                   "--out", tmp_path / "loud.dsc")
    assert quiet[0] == loud[0] == 0
    assert loud[1] == quiet[1] != ""
    assert quiet[2] == ""
    bits = build_frame(secret.read_bytes()).bit_length
    assert loud[2] == f"frame of {bits} bits into 64x64 cover\n"
    assert (tmp_path / "loud.dsc").read_bytes() == (tmp_path / "quiet.dsc").read_bytes()


def test_inspect_corrupt_kind_exit_4(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"kind byte gets corrupted")
    out_path = tmp_path / "stego.dsc"
    run_cli(capsys, "embed", "--cover", cover_path, "--secret", secret, "--out", out_path)
    data = bytearray(out_path.read_bytes())
    # frame bits 24..31 (the kind byte) sit in the LSBs of block 0's
    # coefficients 24..31; each coefficient is 2 big-endian bytes after the
    # 8-byte container header
    for i, bit in enumerate(np.unpackbits(np.uint8(5))):
        data[8 + 2 * (24 + i) + 1] = (data[8 + 2 * (24 + i) + 1] & 0xFE) | int(bit)
    out_path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "inspect", "--in", out_path)
    assert code == 4 and out == ""
    assert "unknown secret kind 5" in err and "magic" not in err


def test_bytes_secret_with_dims_exit_4(capsys, tmp_path, cover_path):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(b"a bytes secret carries no dims")
    stego = tmp_path / "stego.dsc"
    run_cli(capsys, "embed", "--cover", cover_path, "--secret", secret, "--out", stego)
    data = bytearray(stego.read_bytes())
    # frame bits 32..63 (width and height, u16 each) are the LSBs of block
    # 0's coefficients 32..63; set them to 5x7
    dims = np.unpackbits(np.array([0, 5, 0, 7], dtype=np.uint8))  # u16 5, then u16 7
    for i, bit in enumerate(dims):
        data[8 + 2 * (32 + i) + 1] = (data[8 + 2 * (32 + i) + 1] & 0xFE) | int(bit)
    stego.write_bytes(bytes(data))
    recovered = tmp_path / "recovered.bin"
    code, out, err = run_cli(capsys, "extract", "--in", stego, "--out", recovered)
    assert code == 4 and out == ""
    assert "corrupt frame header" in err and "5x7" in err
    assert not recovered.exists()
    code, out, err = run_cli(capsys, "inspect", "--in", stego)
    assert code == 4 and out == ""
    assert "corrupt frame header" in err


def _write_v1_container(cover_path, secret, path):
    """Embed the version-1 frame of secret, as an earlier embedder wrote it, into a .dsc."""
    container, _ = embed(read_pgm(cover_path.read_bytes()), build_v1_frame(secret))
    path.write_bytes(container.to_bytes())


def _set_frame_bits(data, start, bits):
    """Write bits into the LSBs of the .dsc coefficients from frame bit start on.

    Frame bit i is the LSB of coefficient i, the low byte of its 2-byte
    big-endian word after the 8-byte container header.
    """
    for i, bit in enumerate(bits):
        at = 8 + 2 * (start + i) + 1
        data[at] = (data[at] & 0xFE) | int(bit)


def test_payload_flip_that_decodes_other_bytes_exit_4(capsys, tmp_path, cover_path):
    # a version-1 frame has no checksum: the payload-length check catches this flip
    secret = b"abracadabra, " * 8
    table = build_table(secret)
    frame = build_v1_frame(secret)
    start = 128 + TABLE_BITS
    payload = frame_bits(frame)[start:start + frame.header.payload_bit_length]
    # the first payload bit whose flip still decodes every symbol, to other
    # bytes that fill fewer bits than the header declares
    for flip in range(payload.size):
        bits = payload.copy()
        bits[flip] ^= 1
        try:
            other = decode(bitstream(bits), table, len(secret))
        except StegError:
            continue
        if other != secret:
            break
    else:
        pytest.fail("no payload flip decodes to other bytes")
    stego = tmp_path / "stego.dsc"
    _write_v1_container(cover_path, secret, stego)
    data = bytearray(stego.read_bytes())
    data[8 + 2 * (start + flip) + 1] ^= 1  # the LSB of coefficient start + flip
    stego.write_bytes(bytes(data))
    recovered = tmp_path / "recovered.bin"
    code, out, err = run_cli(capsys, "extract", "--in", stego, "--out", recovered)
    assert code == 4 and out == ""
    assert f"of {payload.size} payload bits" in err
    assert not recovered.exists()


@pytest.mark.parametrize("extra, error, message", [
    (-1, TruncatedStream, "stream ended after 29999 of 30000 symbols"),
    (8, PayloadLengthMismatch, "decoded 30000 symbols from 240000 of 240008 payload bits"),
])
def test_complete_code_payload_length_edit_exit_4(capsys, tmp_path, big_cover_path,
                                                  extra, error, message):
    # the version-1 frame of a random 30,000 B secret has the complete 8-bit
    # code, 8 payload bits a byte, and no checksum
    stego = tmp_path / "stego.dsc"
    _write_v1_container(big_cover_path, np.random.default_rng(3).bytes(30_000), stego)
    code, out, _ = run_cli(capsys, "inspect", "--in", stego)
    fields = parse_kv(out)
    assert code == 0 and fields["version"] == "1" and fields["payload_bits"] == "240000"
    assert fields["table_symbols"] == "256" and fields["max_code_length"] == "8"
    data = bytearray(stego.read_bytes())
    # frame bits 96..127 are payload_bit_length, u32
    _set_frame_bits(data, 96, np.unpackbits(np.array([240_000 + extra], ">u4").view(np.uint8)))
    stego.write_bytes(bytes(data))
    with pytest.raises(error, match=f"^{message}$"):
        extract(StegoContainer.from_bytes(data))
    recovered = tmp_path / "recovered.bin"
    code, out, err = run_cli(capsys, "extract", "--in", stego, "--out", recovered)
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"
    assert not recovered.exists()


@pytest.mark.parametrize("edit", ["payload bit", "payload length", "crc32 bit"])
def test_v2_frame_edits_fail_the_checksum_exit_4(capsys, tmp_path, big_cover_path, edit):
    # the same random secret, stored in a version-2 frame
    secret = tmp_path / "secret.bin"
    secret.write_bytes(np.random.default_rng(3).bytes(30_000))
    stego = tmp_path / "stego.dsc"
    run_cli(capsys, "embed", "--cover", big_cover_path, "--secret", secret, "--out", stego)
    code, out, _ = run_cli(capsys, "inspect", "--in", stego)
    fields = parse_kv(out)
    assert code == 0 and (fields["version"], fields["coding"]) == ("2", "0")
    assert fields["payload_bits"] == "240000"
    data = bytearray(stego.read_bytes())
    if edit == "payload bit":
        data[8 + 2 * (192 + 1000) + 1] ^= 1
    elif edit == "payload length":
        _set_frame_bits(data, 96, np.unpackbits(np.array([240_008], ">u4").view(np.uint8)))
    else:
        data[8 + 2 * 170 + 1] ^= 1  # frame bits 160..191 are crc32
    stego.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        extract(StegoContainer.from_bytes(data))
    recovered = tmp_path / "recovered.bin"
    for argv in (("extract", "--in", stego, "--out", recovered), ("inspect", "--in", stego)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("error: frame CRC-32 0x") and "does not match" in err
    assert not recovered.exists()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dctsteg", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "embed" in proc.stdout and "extract" in proc.stdout


def test_usage_errors_repeat_when_the_parser_is_reused(capsys, cover_path):
    # The parser is built once per process; a parse must leave nothing behind.
    def outcome(*argv):
        try:
            code = entry([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    missing = outcome("embed", "--cover", cover_path)
    assert missing[0] == 2 and missing[1] == ""
    assert "the following arguments are required: --secret, --out" in missing[2]
    assert outcome("capacity", "--cover", cover_path)[0] == 0
    assert outcome("-v", "bogus")[0] == 2
    assert outcome("embed", "--cover", cover_path) == missing
