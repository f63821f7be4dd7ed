"""Bit-exact reading and writing of binary PGM (P5) grayscale images.

Supports maxval 255 (8-bit) and 65535 (16-bit, big-endian samples). The
writer emits one canonical header form so golden byte comparisons are stable.
"""

import numpy as np

from .errors import BadHeader, BadMagic, Truncated, UnsupportedMaxval

_WHITESPACE = b" \t\n\r\x0b\x0c"


class _Raster:
    """Shared container: pixels is a (height, width) array of the named dtype."""

    maxval = None
    dtype = None

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        if arr.dtype != self.dtype:
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > self.maxval):
                raise ValueError(f"pixel values must lie in [0, {self.maxval}]")
            arr = arr.astype(self.dtype)
        self.pixels = arr

    @property
    def width(self):
        return int(self.pixels.shape[1])

    @property
    def height(self):
        return int(self.pixels.shape[0])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.all(self.pixels == other.pixels)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.width}x{self.height})"


class Image8(_Raster):
    """8-bit grayscale raster."""

    maxval = 255
    dtype = np.uint8


class Image16(_Raster):
    """16-bit grayscale raster."""

    maxval = 65535
    dtype = np.uint16


def _next_token(data, pos):
    """Skip whitespace and '#' comments, then collect one header token."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch in (b"#",):
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE and data[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise BadHeader("header ended before all fields were read")
    return data[start:pos], pos


def read_pgm(data):
    """Parse binary PGM bytes into Image8 (maxval 255) or Image16 (maxval 65535).

    Trailing bytes after the declared samples are ignored; the parser never
    reads past the declared sample count.
    """
    data = bytes(data)
    if data[:2] != b"P5":
        raise BadMagic("not a binary PGM (expected magic 'P5')")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise BadHeader(f"non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise BadHeader(f"nonpositive dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise UnsupportedMaxval(f"maxval {maxval} not supported")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise BadHeader("expected single whitespace byte after maxval")
    pos += 1
    count = width * height
    sample_dtype = np.dtype(np.uint8 if maxval == 255 else ">u2")
    need = count * sample_dtype.itemsize
    if len(data) - pos < need:
        raise Truncated(f"need {need} sample bytes, have {len(data) - pos}")
    samples = np.frombuffer(data, dtype=sample_dtype, count=count, offset=pos)
    pixels = samples.reshape(height, width)
    if maxval == 255:
        return Image8(pixels)
    return Image16(pixels.astype(np.uint16))


def write_pgm(img):
    """Serialize an image to canonical binary PGM bytes.

    Header is always 'P5\\n<w> <h>\\n<maxval>\\n'; 16-bit samples big-endian.
    """
    header = f"P5\n{img.width} {img.height}\n{img.maxval}\n".encode("ascii")
    if isinstance(img, Image16):
        body = img.pixels.astype(">u2").tobytes()
    else:
        body = img.pixels.tobytes()
    return header + body
