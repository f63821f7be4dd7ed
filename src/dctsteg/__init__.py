"""Steganography in the LSBs of 8x8 block-DCT coefficients of grayscale images.

This is the surface the README and the CLI use. Internals (the block DCT,
Huffman coding, frame parsing, verify/adjust) are imported from their
modules: dctsteg.blockdct, dctsteg.huffman, dctsteg.framing, dctsteg.engine.
"""

from . import errors
from .engine import EmbedReport, StegoContainer, capacity, embed, extract, render
from .framing import KIND_BYTES, KIND_IMAGE, build_frame
from .image_io import Image8, read_pgm, write_pgm
from .metrics import psnr

__version__ = "0.1.0"

__all__ = [
    "EmbedReport",
    "Image8",
    "KIND_BYTES",
    "KIND_IMAGE",
    "StegoContainer",
    "build_frame",
    "capacity",
    "embed",
    "errors",
    "extract",
    "psnr",
    "read_pgm",
    "render",
    "write_pgm",
]
