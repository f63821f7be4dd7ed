"""Parser fuzz: mutated artifacts go through from_bytes or read_pgm, then extract.

The inputs are random bytes and mutations of the two version-1 fixtures, a
.dsc and a spatial8 PGM: byte edits, truncation, edits of the file header,
and appended bytes. Whatever the bytes, the parse and the extract raise
nothing but a StegError, and an artifact whose frame bits are the fixture's
gives the fixture's secret. A version-1 frame has no checksum, so a changed
payload bit can decode to other bytes: of the 1,027 single payload-bit flips
of the .dsc fixture, 1,022 do.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg import StegoContainer, blockdct, build_frame, extract, read_pgm
from dctsteg.errors import StegError

FIXTURES = Path(__file__).parent / "fixtures"
# the fixtures' secrets, as tests/test_golden.py lists them
ARTIFACTS = {
    "v1_container.dsc": (
        StegoContainer.from_bytes,
        np.random.default_rng(2024).integers(0, 256, 150, dtype=np.uint8).tobytes(),
    ),
    "v1_spatial8.pgm": (read_pgm, b"golden spatial8 secret"),
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
