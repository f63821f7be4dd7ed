"""The CLI's end-to-end cases, run as subprocesses through both entry points.

Each test runs once under ``python -m dctsteg`` and once under the console
script: the installed ``dctsteg`` where one is on PATH, as after
``pip install -e``, else a script that calls the target named by the
``dctsteg = "module:function"`` line of pyproject.toml's ``[project.scripts]``,
so a renamed target fails here too. Each subprocess runs in a scratch
directory with the imported package's ``src`` directory first on PYTHONPATH.

Every input is built once per module by tests/support.py's helpers, and the
artifacts the CLI writes must equal the library's own ``to_bytes()`` or
``write_pgm`` of the same embed, byte for byte.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dctsteg
from dctsteg import Image8, build_frame, embed, write_pgm
from support import (
    FIXTURES, V1_FIXTURE_SECRETS, banded_secret, fibonacci_secret, noise_cover, parse_kv,
    random_secret, striped_secret,
)

SRC = Path(dctsteg.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TEXT = b"hidden in the LSBs of 8x8 block-DCT coefficients"


def console_script(tmp_path_factory):
    """argv of the console script: the installed one, else one written from pyproject.toml."""
    installed = shutil.which("dctsteg")
    if installed:
        return [installed]
    target = re.search(r'^dctsteg = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M)
    assert target, "pyproject.toml names no dctsteg console script"
    module, function = target.groups()
    script = tmp_path_factory.mktemp("bin") / "dctsteg"
    script.write_text(f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n")
    return [sys.executable, str(script)]


@pytest.fixture(scope="module", params=["python -m", "console script"])
def cli(request, tmp_path_factory):
    """run(*argv): the CompletedProcess of one CLI call, stdout and stderr as text."""
    if request.param == "python -m":
        launcher = [sys.executable, "-m", "dctsteg"]
    else:
        launcher = console_script(tmp_path_factory)
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}
    cwd = tmp_path_factory.mktemp("cwd")

    def run(*argv):
        return subprocess.run([*launcher, *map(str, argv)], capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=300)

    return run


def succeeds(proc):
    """proc's stdout, once its exit status is 0."""
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Directory of every input, and of the library's artifacts to compare the CLI's with."""
    work = tmp_path_factory.mktemp("inputs")
    noise512 = Image8(noise_cover(512, 512))
    noise2048 = Image8(noise_cover(2048, 2048))
    files = {
        "cover.pgm": write_pgm(Image8(noise_cover(64, 64))),
        "wide.pgm": write_pgm(Image8(noise_cover(128, 72))),
        "white.pgm": write_pgm(Image8(np.full((64, 64), 255, dtype=np.uint8))),
        "noise512.pgm": write_pgm(noise512),
        "noise2048.pgm": write_pgm(noise2048),
        "secret.txt": TEXT,
        "random.bin": random_secret(30_000, 3),
        "large.bin": random_secret(300_000, 4),
        "stripes.pgm": write_pgm(Image8(striped_secret())),
        "bands.pgm": write_pgm(Image8(banded_secret())),
        "fibonacci.bin": fibonacci_secret(21),
    }
    files["random_lib.dsc"] = embed(noise512, build_frame(files["random.bin"]))[0].to_bytes()
    files["large_lib.dsc"] = embed(noise2048, build_frame(files["large.bin"]))[0].to_bytes()
    files["noise8_lib.pgm"] = write_pgm(embed(noise512, build_frame(TEXT), "spatial8")[0])
    for name, data in files.items():
        (work / name).write_bytes(data)
    return work


def test_help_lists_the_subcommands(cli):
    out = succeeds(cli("--help"))
    for command in ("embed", "extract", "capacity", "psnr", "inspect"):
        assert command in out


def test_text_secret_round_trips_in_both_modes(cli, work, tmp_path):
    cover, stego, stego8 = work / "cover.pgm", tmp_path / "stego.dsc", tmp_path / "stego.pgm"
    succeeds(cli("embed", "--cover", cover, "--secret", work / "secret.txt", "--out", stego))
    succeeds(cli("extract", "--in", stego, "--out", tmp_path / "back.txt"))
    assert (tmp_path / "back.txt").read_bytes() == TEXT
    succeeds(cli("embed", "--mode", "spatial8", "--cover", cover, "--secret", work / "secret.txt",
                 "--out", stego8))
    succeeds(cli("extract", "--in", stego8, "--out", tmp_path / "back8.txt"))
    assert (tmp_path / "back8.txt").read_bytes() == TEXT
    succeeds(cli("psnr", "--a", cover, "--b", stego8))
    succeeds(cli("inspect", "--in", stego))
    succeeds(cli("inspect", "--in", stego8))


def test_spatial8_over_four_chunks_equals_the_library(cli, work, tmp_path):
    # a 512^2 spatial8 cover is four chunks, two per worker on two CPUs, in
    # the embed pass and in the render
    stego = tmp_path / "noise8.pgm"
    succeeds(cli("embed", "--mode", "spatial8", "--cover", work / "noise512.pgm",
                 "--secret", work / "secret.txt", "--out", stego))
    assert stego.read_bytes() == (work / "noise8_lib.pgm").read_bytes()
    succeeds(cli("extract", "--in", stego, "--out", tmp_path / "back.txt"))
    assert (tmp_path / "back.txt").read_bytes() == TEXT


def test_stored_secret_equals_the_library_and_a_flipped_bit_exits_4(cli, work, tmp_path):
    # a near-full random secret is stored in a version-2 frame, with no
    # table: its flat 8-bit code decodes with one translate
    stego = tmp_path / "random.dsc"
    succeeds(cli("embed", "--cover", work / "noise512.pgm", "--secret", work / "random.bin",
                 "--out", stego))
    assert stego.read_bytes() == (work / "random_lib.dsc").read_bytes()
    out = succeeds(cli("inspect", "--in", stego))
    assert " version=2 " in out
    assert re.search(" coding=0 table_symbols=256 max_code_length=8$", out, re.M)
    succeeds(cli("extract", "--in", stego, "--out", tmp_path / "back.bin"))
    assert (tmp_path / "back.bin").read_bytes() == (work / "random.bin").read_bytes()
    # frame bit 1192, a payload bit, is the LSB of coefficient 1192: the low
    # byte of its 2-byte word after the 8-byte container header
    data = bytearray(stego.read_bytes())
    data[8 + 2 * 1192 + 1] ^= 1
    stego.write_bytes(data)
    flipped = tmp_path / "flipped.bin"
    assert cli("extract", "--in", stego, "--out", flipped).returncode == 4
    assert not flipped.exists()


def test_2048_container_equals_the_library(cli, work, tmp_path):
    # 8 MiB of coefficients, written in one call and parsed as a view
    stego = tmp_path / "large.dsc"
    succeeds(cli("embed", "--cover", work / "noise2048.pgm", "--secret", work / "large.bin",
                 "--out", stego))
    assert stego.read_bytes() == (work / "large_lib.dsc").read_bytes()
    succeeds(cli("extract", "--in", stego, "--out", tmp_path / "back.bin"))
    assert (tmp_path / "back.bin").read_bytes() == (work / "large.bin").read_bytes()


@pytest.mark.parametrize("name, kind, secret_bytes, suffix", [
    # six levels in runs of 1..32 get codes of 1-5 bits, which decode in
    # strides of short codewords
    ("stripes.pgm", "image", 24_000, " max_code_length=[1-7]$"),
    # four equally common levels get the complete 2-bit code, which encode
    # and decode repack, not walk
    ("bands.pgm", "image", 24_000, "table_symbols=4 max_code_length=2$"),
    # 21 symbols with Fibonacci counts get codes of 1..20 bits, so five take
    # the walk past decode's 16-bit window
    ("fibonacci.bin", "bytes", 28_656, " table_symbols=21 max_code_length=20$"),
], ids=["stripes", "bands", "fibonacci"])
def test_coded_secret_round_trips(cli, work, tmp_path, name, kind, secret_bytes, suffix):
    stego, back = tmp_path / "stego.dsc", tmp_path / name
    succeeds(cli("embed", "--cover", work / "noise512.pgm", "--secret", work / name,
                 "--secret-kind", kind, "--out", stego))
    assert re.search(suffix, succeeds(cli("inspect", "--in", stego)), re.M)
    out = succeeds(cli("extract", "--in", stego, "--out", back))
    assert parse_kv(out)["secret_bytes"] == str(secret_bytes)
    assert back.read_bytes() == (work / name).read_bytes()


def test_all_white_cover_spatial8_exits_5_and_writes_nothing(cli, work, tmp_path):
    # an all-255 cover clamps every block: spatial8 keeps residual bits
    stego = tmp_path / "white8.pgm"
    proc = cli("embed", "--mode", "spatial8", "--cover", work / "white.pgm",
               "--secret", work / "secret.txt", "--out", stego)
    assert proc.returncode == 5
    assert not stego.exists()


@pytest.mark.parametrize("name", sorted(V1_FIXTURE_SECRETS))
def test_v1_fixture_extracts(cli, tmp_path, name):
    # version-1 artifacts written by an earlier embedder still extract
    succeeds(cli("extract", "--in", FIXTURES / name, "--out", tmp_path / "v1.bin"))
    assert (tmp_path / "v1.bin").read_bytes() == V1_FIXTURE_SECRETS[name]


@pytest.mark.parametrize("cover", ["cover.pgm", "wide.pgm"], ids=["64x64", "128x72"])
def test_capacity_is_a_tight_bound(cli, work, tmp_path, cover):
    # every secret of capacity // 8 bytes fits; one byte more exits 2 and
    # writes nothing
    cover = work / cover
    fits = int(parse_kv(succeeds(cli("capacity", "--cover", cover)))["payload_bits"]) // 8
    secret, stego, back = tmp_path / "secret.bin", tmp_path / "stego.dsc", tmp_path / "back.bin"
    secret.write_bytes(random_secret(fits, 5))
    succeeds(cli("embed", "--cover", cover, "--secret", secret, "--out", stego))
    succeeds(cli("extract", "--in", stego, "--out", back))
    assert back.read_bytes() == secret.read_bytes()
    secret.write_bytes(random_secret(fits + 1, 5))
    too_large = tmp_path / "too_large.dsc"
    proc = cli("embed", "--cover", cover, "--secret", secret, "--out", too_large)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not too_large.exists()
