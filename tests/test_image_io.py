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

