"""Exception types raised across the library.

Everything subclasses StegError so callers can catch one base class.
"""


class StegError(Exception):
    """Base class for all library errors."""


class BadMagic(StegError):
    """Input does not start with the expected magic value."""


class BadHeader(StegError):
    """Header fields are malformed (non-numeric, nonpositive, ...)."""


class UnsupportedMaxval(StegError):
    """PGM maxval is not 255: only 8-bit PGMs are read."""


class Truncated(StegError):
    """Fewer raw samples than the header declares."""


class NotBlockAligned(StegError):
    """Image dimensions are not multiples of 8."""


class EmptyInput(StegError):
    """Operation requires nonempty input data."""


class SymbolNotInTable(StegError):
    """A byte has no codeword in the Huffman table."""


class InvalidCode(StegError):
    """Bit pattern does not correspond to any codeword."""


class TruncatedStream(StegError):
    """Bitstream ended mid-codeword or before the promised symbol count."""


class WrongLength(StegError):
    """Serialized table is not exactly 2048 bits."""


class KraftViolation(StegError):
    """Code lengths cannot form a prefix code."""


class DimensionMismatch(StegError):
    """Dimensions disagree with each other or with the data, or exceed a u16 field."""


class UnsupportedVersion(StegError):
    """Frame version is not understood."""


class ChecksumMismatch(StegError):
    """A version-2 frame's CRC-32 disagrees with its header, table and payload."""


class PayloadLengthMismatch(StegError):
    """Decoded symbols do not fill exactly the payload bits the header declares."""


class TruncatedFrame(StegError):
    """Frame holds fewer bits than its header promises."""


class PayloadTooLarge(StegError):
    """Frame does not fit in the cover's coefficient slots."""
