"""Parser fuzz: mutated artifacts go through from_bytes or read_pgm, then extract.

The inputs are random bytes and mutations of the two version-1 fixtures, a
.dsc and a spatial8 PGM: byte edits, truncation, edits of the file header,
and appended bytes. Whatever the bytes, the parse and the extract raise
nothing but a StegError, and an artifact whose frame bits are the fixture's
gives the fixture's secret. A version-1 frame has no checksum, so a changed
payload bit can decode to other bytes: of the 1,027 single payload-bit flips
of the .dsc fixture, 1,022 do.

A version-2 frame carries a CRC-32, so a single-coefficient edit of a
version-2 container or a single-pixel edit of a version-2 spatial8 PGM
gives one of two outcomes: the secret byte-exact, or a StegError (the CLI
exits 4).
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg import (
    KIND_IMAGE, Image8, StegoContainer, blockdct, build_frame, embed, extract, read_pgm,
    write_pgm,
)
from dctsteg.engine import COEFF_MAX, COEFF_MIN
from dctsteg.errors import StegError
from support import FIXTURES, V1_FIXTURE_SECRETS, low_entropy_secret, natural_cover

ARTIFACTS = {
    "v1_container.dsc": (StegoContainer.from_bytes, V1_FIXTURE_SECRETS["v1_container.dsc"]),
    "v1_spatial8.pgm": (read_pgm, V1_FIXTURE_SECRETS["v1_spatial8.pgm"]),
}
_HEADER_BYTES = 16  # covers the 8-byte .dsc header and the 13-byte PGM header


@st.composite
def mutations(draw, data):
    """data with byte edits, a cut, header edits or appended bytes, in any mix."""
    out = bytearray(data)
    if draw(st.booleans()):  # byte edits, at any offset or in the frame's first blocks
        offsets = st.one_of(st.integers(0, len(out) - 1), st.integers(0, min(len(out), 600) - 1))
        for at, value in draw(st.lists(st.tuples(offsets, st.integers(0, 255)), max_size=4)):
            out[at] = value
    if draw(st.booleans()):
        for at, value in draw(st.lists(st.tuples(st.integers(0, _HEADER_BYTES - 1),
                                                 st.integers(0, 255)), min_size=1, max_size=3)):
            out[at] = value
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(out))):]
    if draw(st.booleans()):
        out += draw(st.binary(min_size=1, max_size=64))
    return bytes(out)


def _frame_lsbs(stego, count):
    """The first count coefficient LSBs that extract reads from stego."""
    if isinstance(stego, StegoContainer):
        lsbs = stego.coeffs & 1
    else:
        lsbs = blockdct.lsb_parity(blockdct.partition(stego))
    return lsbs.reshape(-1)[:count].astype(np.uint8)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ARTIFACTS)), st.data())
def test_mutated_artifacts_give_the_secret_or_a_steg_error(name, data):
    parse, secret = ARTIFACTS[name]
    original = (FIXTURES / name).read_bytes()
    blob = data.draw(st.one_of(st.binary(max_size=256), mutations(original)))
    try:
        stego = parse(blob)
        got = extract(stego)[0]
    except StegError:
        return
    assert isinstance(got, bytes)
    count = build_frame(secret).bit_length
    if np.array_equal(_frame_lsbs(stego, count), _frame_lsbs(parse(original), count)):
        assert got == secret


@functools.cache
def _v2_artifacts(coding):
    """(secret, frame blocks, .dsc bytes, spatial8 PGM bytes) of a version-2 frame in a 64^2 cover."""
    if coding == "stored":  # random bytes: the table would cost more than it saves
        secret = ARTIFACTS["v1_container.dsc"][1]
        frame = build_frame(secret)
    else:  # 768 pixels of five levels: 803 coded bits, where storing takes 6,144
        secret = low_entropy_secret(32, 24).tobytes()
        frame = build_frame(secret, KIND_IMAGE, (32, 24))
    assert frame.header.coding == (coding == "coded")
    cover = Image8(natural_cover(64, 64, 42))
    container, report = embed(cover, frame)
    stego, spatial = embed(cover, frame, "spatial8")
    assert spatial.residual_bit_errors == 0
    return secret, report.blocks_used, container.to_bytes(), write_pgm(stego)


def _secret_or_steg_error(parse, blob, secret):
    try:
        got = extract(parse(blob))[0]
    except StegError:
        return
    assert got == secret


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["stored", "coded"]), st.data())
def test_v2_coefficient_edits_give_the_secret_or_a_steg_error(coding, data):
    secret, blocks, dsc, _ = _v2_artifacts(coding)
    # mostly inside the frame's blocks, where an edit can change a frame bit
    index = data.draw(st.one_of(st.integers(0, 64 * blocks - 1), st.integers(0, 64 * 64 - 1)))
    value = data.draw(st.integers(COEFF_MIN, COEFF_MAX))
    edited = bytearray(dsc)
    edited[8 + 2 * index:10 + 2 * index] = value.to_bytes(2, "big", signed=True)
    _secret_or_steg_error(StegoContainer.from_bytes, bytes(edited), secret)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["stored", "coded"]), st.data())
def test_v2_pixel_edits_give_the_secret_or_a_steg_error(coding, data):
    secret, blocks, _, pgm = _v2_artifacts(coding)
    # a pixel of one of the frame's blocks, mostly; blocks are 8 a row
    block = data.draw(st.one_of(st.integers(0, blocks - 1), st.integers(0, 63)))
    y = 8 * (block // 8) + data.draw(st.integers(0, 7))
    x = 8 * (block % 8) + data.draw(st.integers(0, 7))
    edited = bytearray(pgm)
    header = len(pgm) - 64 * 64  # write_pgm's header, then the pixels row-major
    edited[header + 64 * y + x] = data.draw(st.integers(0, 255))
    _secret_or_steg_error(read_pgm, bytes(edited), secret)
