"""Byte-identity pins: SHA-256 digests of frames and artifacts.

The digests are fixed values, so any change to the frame bits, the container
wire bytes or the spatial8 render shows up here as a failing digest. The
version-1 fixtures are artifacts written by an earlier embedder; whatever the
embed side becomes, they must keep extracting byte-exact.
"""

import hashlib
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from dctsteg import (
    KIND_IMAGE, Image8, StegoContainer, build_frame, embed, extract, read_pgm, write_pgm,
)
from dctsteg.cli import entry
from support import low_entropy_secret, natural_cover

FIXTURES = Path(__file__).parent / "fixtures"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


RANDOM_SECRET = np.random.default_rng(2024).integers(0, 256, 150, dtype=np.uint8).tobytes()


def test_frame_bits_digests():
    frames = {
        "random": build_frame(RANDOM_SECRET),
        "image": build_frame(low_entropy_secret(12, 10).tobytes(), KIND_IMAGE, (12, 10)),
        "single": build_frame(b"z" * 9),
    }
    digests = {name: sha256(np.packbits(f.bits.bits).tobytes()) for name, f in frames.items()}
    assert digests == {
        "random": "a74a79efb1fde80e6f8304041ef4271ffe69206eb470df2cc1145728bd3ed4be",
        "image": "706571e9a584e293021e46bbc77bcd21322f63593a35543cbe16aad9ddeca4c9",
        "single": "64e6ebc89d5f98d8f02c64b3d754d760903af9b79e04f3da3ebdfd34efab0d43",
    }


def test_container_bytes_digest():
    container, _ = embed(Image8(natural_cover(64, 64, 42)), build_frame(RANDOM_SECRET))
    assert sha256(container.to_bytes()) == (
        "6e2d20a97b0880a07a2a699d13823cb4114bdc40b2dcc7217193cdfae4083823"
    )


def test_spatial8_pgm_digest():
    stego, report = embed(
        Image8(natural_cover(64, 64, 42)), build_frame(b"golden spatial8 secret"), "spatial8"
    )
    assert report.residual_bit_errors == 0
    assert sha256(write_pgm(stego)) == (
        "4680413c13786d03b442b0459b451d0e325eebbc2525600d7e9b83c2f47c3296"
    )


# Both hold natural_cover(64, 64, 42): the container with RANDOM_SECRET, the
# PGM with b"golden spatial8 secret".
V1_FIXTURES = {
    "v1_container.dsc": (
        "6e2d20a97b0880a07a2a699d13823cb4114bdc40b2dcc7217193cdfae4083823", RANDOM_SECRET,
    ),
    "v1_spatial8.pgm": (
        "6ca8767903a0a4499f908d8d724c79853c61162e81b1fa9bc0a42c677962362f",
        b"golden spatial8 secret",
    ),
}


@pytest.mark.parametrize("name", sorted(V1_FIXTURES))
def test_v1_fixtures_extract_byte_exact(name, tmp_path):
    digest, secret = V1_FIXTURES[name]
    data = (FIXTURES / name).read_bytes()
    assert sha256(data) == digest
    stego = StegoContainer.from_bytes(data) if name.endswith(".dsc") else read_pgm(data)
    assert extract(stego)[0] == secret
    out = tmp_path / "secret.bin"
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        code = entry(["extract", "--in", str(FIXTURES / name), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == secret
