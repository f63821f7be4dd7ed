"""Bit-exact reading and writing of binary PGM (P5) grayscale images.

8-bit only: maxval 255, one byte per sample. The writer emits one canonical
header form so golden byte comparisons are stable.
"""

import re

import numpy as np

from .errors import BadHeader, BadMagic, Truncated, UnsupportedMaxval

class Image8:
    """8-bit grayscale raster: pixels is a (height, width) uint8 array."""

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        if arr.size == 0:
            raise ValueError(f"zero-size pixel array of shape {arr.shape}")
        if arr.dtype.kind not in "iu":  # a cast would truncate floats without a word
            raise ValueError(f"pixels must be integers, not {arr.dtype}")
        if arr.dtype != np.uint8:
            if int(arr.min()) < 0 or int(arr.max()) > 255:
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        self.pixels = arr

    @property
    def width(self):
        return int(self.pixels.shape[1])

    @property
    def height(self):
        return int(self.pixels.shape[0])

    def __eq__(self, other):
        if not isinstance(other, Image8):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.all(self.pixels == other.pixels)
        )


# One or more ASCII whitespace bytes and whole '#' comments (the lookahead
# bars backtracking into one; netpbm requires one after the magic), a token
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))+([^\s#]+)")


def read_pgm(data):
    """Parse binary PGM bytes (maxval 255) into an Image8.

    Trailing bytes after the declared samples are ignored; the parser never
    reads past the declared sample count.
    """
    data = bytes(data)
    if data[:2] != b"P5":
        raise BadMagic("not a binary PGM (expected magic 'P5')")
    pos = 2
    fields = []
    for _ in range(3):
        token = _TOKEN.match(data, pos)
        if token is None:
            raise BadHeader(f"header field {len(fields) + 1} missing or not separated")
        if not token[1].isdigit():  # ASCII digits only: int() would also take '+' and '_'
            raise BadHeader(f"non-numeric header field {token[1]!r}")
        fields.append(int(token[1]))
        pos = token.end()
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise BadHeader(f"nonpositive dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} not supported (8-bit PGMs only: maxval 255)")
    if not data[pos:pos + 1].isspace():
        raise BadHeader("expected single whitespace byte after maxval")
    pos += 1
    count = width * height
    if len(data) - pos < count:
        raise Truncated(f"need {count} sample bytes, have {len(data) - pos}")
    samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    return Image8(samples.reshape(height, width))


def write_pgm(img):
    """Serialize an Image8 to canonical binary PGM bytes: 'P5\\n<w> <h>\\n255\\n' + samples."""
    return f"P5\n{img.width} {img.height}\n255\n".encode("ascii") + img.pixels.tobytes()
