"""Command-line interface for the embed/extract pipeline.

stdout carries machine-parseable key=value lines; diagnostics go to stderr.
Exit codes: 0 success, 2 payload too large, 3 I/O or input format error,
4 input is not a (valid) stego artifact, its frame checksum included, 5 a
spatial8 render kept residual bit errors (no artifact is written).
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import engine, framing
from .errors import BadMagic, PayloadTooLarge, StegError
from .image_io import Image8, read_pgm, write_pgm
from .metrics import psnr


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _note(args, message):
    if args.verbose:
        print(message, file=sys.stderr)


def _load_image8(path, data=None):
    """The 8-bit PGM at path (data: its bytes, if read); a parse error names the file."""
    try:
        return read_pgm(Path(path).read_bytes() if data is None else data)
    except StegError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_stego(path):
    data = Path(path).read_bytes()
    if data[:4] == engine.CONTAINER_MAGIC.to_bytes(4, "big"):
        return engine.StegoContainer.from_bytes(data)
    if data[:2] == b"P5":
        return _load_image8(path, data)
    raise BadMagic(f"{path}: neither a coefficient container nor a PGM")


def cmd_embed(args):
    cover = _load_image8(args.cover)
    if args.secret_kind == "image":
        secret = _load_image8(args.secret)
        frame = framing.build_frame(
            secret.pixels.tobytes(),
            framing.KIND_IMAGE,
            (secret.width, secret.height),
        )
    else:
        frame = framing.build_frame(Path(args.secret).read_bytes())
    _note(args, f"frame of {frame.bit_length} bits into {cover.width}x{cover.height} cover")
    stego, report = engine.embed(cover, frame, args.mode)
    if report.residual_bit_errors:
        return _fail(
            5,
            f"spatial8 render kept {report.residual_bit_errors} residual bit "
            f"errors; no artifact written",
        )
    if args.mode == "container":
        with open(args.out, "wb") as out:
            stego.write(out)
    else:
        Path(args.out).write_bytes(write_pgm(stego))
    print(
        f"mode={args.mode} blocks_used={report.blocks_used} "
        f"payload_bits={report.payload_bits} psnr_db={report.psnr_db:.4f} "
        f"residual_bit_errors={report.residual_bit_errors}"
    )
    return 0


def cmd_extract(args):
    stego = _load_stego(args.input)
    secret, header = engine.extract(stego)
    if header.secret_kind == framing.KIND_IMAGE:
        pixels = np.frombuffer(secret, dtype=np.uint8).reshape(
            header.secret_height, header.secret_width
        )
        Path(args.out).write_bytes(write_pgm(Image8(pixels)))
        kind = "image"
    else:
        Path(args.out).write_bytes(secret)
        kind = "bytes"
    print(
        f"secret_kind={kind} secret_bytes={len(secret)} "
        f"secret_width={header.secret_width} secret_height={header.secret_height} "
        f"payload_bits={header.payload_bit_length}"
    )
    return 0


def cmd_capacity(args):
    cover = _load_image8(args.cover)
    payload = engine.capacity(cover.width, cover.height)
    print(f"raw_slots={cover.width * cover.height} payload_bits={payload}")
    return 0


def cmd_psnr(args):
    first = _load_image8(args.a)
    second = _load_image8(args.b)
    score = psnr(first, second)
    print(f"psnr_db={score.psnr_db:.4f} mse={score.mse:.6f}")
    return 0


def cmd_inspect(args):
    header, table, _ = engine.read_frame(_load_stego(args.input))
    print(
        f"magic=0x{header.magic:04x} version={header.version} "
        f"secret_kind={header.secret_kind} secret_width={header.secret_width} "
        f"secret_height={header.secret_height} symbol_count={header.symbol_count} "
        f"payload_bits={header.payload_bit_length} coding={header.coding} "
        f"table_symbols={len(table.symbols)} "
        f"max_code_length={table.max_length}"
    )
    return 0


@functools.cache
def _build_parser():
    # Built once per process: building costs some twenty times a parse.
    parser = argparse.ArgumentParser(
        prog="dctsteg",
        description="Hide byte or image secrets in coefficient LSBs of PGM covers.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="progress diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="hide a secret inside a cover image")
    p.add_argument("--cover", required=True, help="8-bit block-aligned PGM")
    p.add_argument("--secret", required=True, help="file to hide")
    p.add_argument("--secret-kind", choices=("bytes", "image"), default="bytes")
    p.add_argument("--mode", choices=("container", "spatial8"), default="container")
    p.add_argument("--out", required=True, help="output artifact path")
    p.set_defaults(func=cmd_embed, bad_input=3)

    p = sub.add_parser("extract", help="recover the secret from a stego artifact")
    p.add_argument("--in", dest="input", required=True, help=".dsc container or stego PGM")
    p.add_argument("--out", required=True, help="recovered secret path")
    p.set_defaults(func=cmd_extract, bad_input=4)

    p = sub.add_parser("capacity", help="payload budget of a cover")
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_capacity, bad_input=3)

    p = sub.add_parser("psnr", help="fidelity between two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_psnr, bad_input=3)

    p = sub.add_parser("inspect", help="dump frame header and table stats")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_inspect, bad_input=4)
    return parser


def entry(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PayloadTooLarge as exc:
        return _fail(2, f"payload too large: {exc}")
    except OSError as exc:
        return _fail(3, exc)
    except StegError as exc:
        return _fail(args.bad_input, exc)
