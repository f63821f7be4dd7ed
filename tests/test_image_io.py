"""Binary PGM parsing and serialization, pinned to golden bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dctsteg import Image8, read_pgm, write_pgm
from dctsteg.errors import BadHeader, BadMagic, Truncated, UnsupportedMaxval


def test_minimal_8bit_image():
    img = read_pgm(b"P5\n1 1\n255\n\x80")
    assert isinstance(img, Image8)
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0, 0] == 128


def test_write_golden_bytes():
    assert write_pgm(Image8(np.array([[128]]))) == b"P5\n1 1\n255\n\x80"


def test_write_row_major_order():
    img = Image8(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    assert write_pgm(img) == b"P5\n2 2\n255\n\x01\x02\x03\x04"


def test_header_comments_and_whitespace():
    data = b"P5 # comment\n# another comment\n 2\t1 #c\n255\n\x00\xff"
    img = read_pgm(data)
    assert (img.width, img.height) == (2, 1)
    assert img.pixels.tolist() == [[0, 255]]


_WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]
# comment bodies that hold header-like tokens, or any bytes but a newline
_COMMENT = st.one_of(
    st.lists(st.sampled_from([b" ", b"\t", b"#", b"8", b"255", b"x"]), max_size=6).map(b"".join),
    st.binary(max_size=12).map(lambda body: body.replace(b"\n", b" ")),
).map(lambda body: b"#" + body)
_SEPARATORS = st.lists(
    st.one_of(st.sampled_from(_WHITESPACE), _COMMENT.map(lambda c: c + b"\n")), min_size=1
).map(b"".join)


@given(
    st.integers(1, 40), st.integers(1, 40), st.lists(_SEPARATORS, min_size=3, max_size=3),
    st.sampled_from(_WHITESPACE),
)
@settings(max_examples=200, deadline=None)
def test_fields_between_any_whitespace_and_comments(width, height, separators, last):
    pixels = np.arange(width * height, dtype=np.uint8).reshape(height, width)
    fields = [str(width).encode(), str(height).encode(), b"255"]
    header = b"P5" + b"".join(sep + field for sep, field in zip(separators, fields))
    img = read_pgm(header + last + pixels.tobytes())
    assert (img.width, img.height) == (width, height)
    assert np.array_equal(img.pixels, pixels)


@given(st.integers(0, 2), st.lists(_SEPARATORS, min_size=3, max_size=3), _COMMENT)
@settings(max_examples=200, deadline=None)
def test_comment_without_newline_before_the_last_field(read, separators, comment):
    fields = [b"8", b"8", b"255"][:read]
    header = b"P5" + b"".join(sep + field for sep, field in zip(separators, fields))
    with pytest.raises(BadHeader):
        read_pgm(header + separators[read] + comment)


def test_trailing_bytes_ignored():
    img = read_pgm(b"P5\n1 1\n255\n\x07garbage")
    assert img.pixels[0, 0] == 7


def test_wrong_magic():
    with pytest.raises(BadMagic):
        read_pgm(b"P6\n1 1\n255\n\x00")
    with pytest.raises(BadMagic):
        read_pgm(b"")


def test_bad_header_fields():
    with pytest.raises(BadHeader):
        read_pgm(b"P5\nx 1\n255\n\x00")
    with pytest.raises(BadHeader):
        read_pgm(b"P5\n0 1\n255\n")
    with pytest.raises(BadHeader):
        read_pgm(b"P5\n1 -1\n255\n")
    with pytest.raises(BadHeader):
        read_pgm(b"P5\n1 1")  # header ends early
    with pytest.raises(BadHeader, match="field 1 missing or not separated"):
        read_pgm(b"P58 8\n255\n" + bytes(64))  # no whitespace after the magic
    assert read_pgm(b"P5#c\n8 8\n255\n" + bytes(64)).width == 8  # a comment separates
    for header in (b"P5\n+8 8\n255\n", b"P5\n8 8\n2_55\n", b"P5\n0_8 8\n255\n"):
        with pytest.raises(BadHeader, match="non-numeric header field"):
            read_pgm(header + bytes(64))  # int() would read these fields


def test_unsupported_maxval():
    with pytest.raises(UnsupportedMaxval):
        read_pgm(b"P5\n1 1\n300\n\x00\x00")
    with pytest.raises(UnsupportedMaxval):
        read_pgm(b"P5\n1 1\n16\n\x00")
    with pytest.raises(UnsupportedMaxval, match="maxval 65535 not supported"):
        read_pgm(b"P5\n1 2\n65535\n\x01\x02\xff\xfe")  # 16-bit PGMs are not read


def test_truncated_samples():
    with pytest.raises(Truncated):
        read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")


def test_pixel_range_validation():
    with pytest.raises(ValueError):
        Image8(np.array([[256]]))
    with pytest.raises(ValueError):
        Image8(np.array([[-1]]))
    with pytest.raises(ValueError):
        Image8(np.zeros(4))  # not 2-D


@pytest.mark.parametrize("shape", [(8, 0), (0, 8), (0, 0)])
def test_zero_size_image_is_rejected(shape):
    # read_pgm rejects such a header, and psnr would divide by zero pixels
    with pytest.raises(ValueError, match="zero-size"):
        Image8(np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.complex128, bool, object])
def test_non_integer_image_is_rejected(dtype):
    # [[0.5, 254.9]] used to hold [[0, 254]]
    with pytest.raises(ValueError, match="must be integers"):
        Image8(np.array([[0.5, 254.9]]).astype(dtype))


def test_image_equality_is_type_strict():
    a = Image8(np.zeros((1, 1), dtype=np.uint8))
    assert a.__eq__(a.pixels) is NotImplemented
    assert a != Image8(np.ones((1, 1), dtype=np.uint8))
    assert a == Image8(np.zeros((1, 1), dtype=np.int64))


@given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24))))
@settings(max_examples=60, deadline=None)
def test_round_trip_8bit(pixels):
    img = Image8(pixels)
    assert read_pgm(write_pgm(img)) == img

