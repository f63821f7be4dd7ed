"""Seeded input corpus for the dctsteg benchmark.

The generator depends on numpy only, never on dctsteg: the program under test
receives nothing but the files written here. The same workload and seed give
byte-identical files and therefore the same corpus digest.

Usage: python3 perfbench/corpus.py --workload NAME --seed N --out DIR
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("container-mixed", "spatial8-natural", "spatial8-saturated")
FRAME_OVERHEAD_BITS = 128 + 2048  # frame header + code table
# Random bytes never cost more than 8 bits each under Huffman coding, so a
# secret of FILL * capacity / 8 bytes is near-full yet always fits.
FILL = 0.93
MANIFEST = "manifest.json"

_WORDS = (
    "attack at dawn the river crossing holds until the signal lamp burns twice "
    "north ridge supply cache moved east of the old mill bring maps and rope "
    "contact waits by the bridge at noon code word is harvest"
).split()


def _bilinear(coarse, height, width):
    ys = np.linspace(0, coarse.shape[0] - 1, height)
    xs = np.linspace(0, coarse.shape[1] - 1, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, coarse.shape[0] - 1)
    x1 = np.minimum(x0 + 1, coarse.shape[1] - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    return (
        coarse[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
        + coarse[np.ix_(y0, x1)] * (1 - wy) * wx
        + coarse[np.ix_(y1, x0)] * wy * (1 - wx)
        + coarse[np.ix_(y1, x1)] * wy * wx
    )


def natural_cover(width, height, seed):
    """Photograph-like cover clipped to [16, 239], so renders never clamp.

    The same construction as the test suite's natural_cover, copied rather
    than imported so that edits to the tests cannot move the benchmark corpus.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(48.0, 208.0, (height // 16 + 2, width // 16 + 2))
    base = _bilinear(coarse, height, width)
    texture = rng.normal(0.0, 6.0, (height, width))
    texture = 0.25 * (
        texture
        + np.roll(texture, 1, axis=0)
        + np.roll(texture, 1, axis=1)
        + np.roll(texture, (1, 1), axis=(0, 1))
    )
    grain = rng.normal(0.0, 2.0, (height, width))
    img = np.clip(base + texture + grain, 16.0, 239.0)
    return img.astype(np.uint8)


def pgm_bytes(pixels):
    """Canonical 8-bit binary PGM, the same header form dctsteg writes."""
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def _capacity(side):
    return side * side - FRAME_OVERHEAD_BITS


def _random_secret(rng, side):
    return rng.integers(0, 256, int(FILL * _capacity(side)) // 8, dtype=np.uint8).tobytes()


def _image_secret(rng, width, height):
    """Few-level striped image with sparse speckle: well under 6 bits/symbol."""
    levels = rng.choice(np.arange(16, 240), size=5, replace=False)
    period = int(rng.integers(24, 72))
    yy, xx = np.mgrid[0:height, 0:width]
    img = levels[((xx + yy) // period) % 5]
    img = img + 3 * ((xx * 7 + yy * 13) % 97 == 0)
    return img.astype(np.uint8)


def _text_secret(rng, words=(40, 80)):
    chosen = rng.choice(_WORDS, size=int(rng.integers(*words)))
    return (" ".join(chosen) + "\n").encode("ascii")


def _saturated_covers(rng, side):
    """Covers whose renders clamp at 0 or 255, in a fixed order."""
    stretched = natural_cover(side, side, int(rng.integers(2**32)))
    stretched = np.clip((stretched.astype(np.float64) - 128.0) * 1.8 + 128.0, 0, 255)
    return [
        ("zero", np.zeros((side, side), dtype=np.uint8)),
        ("full", np.full((side, side), 255, dtype=np.uint8)),
        ("binary", rng.integers(0, 2, (side, side), dtype=np.uint8) * 255),
        ("noise", rng.integers(0, 256, (side, side), dtype=np.uint8)),
        ("stretched", stretched.astype(np.uint8)),
    ]


def _plan(workload, rng):
    """(id, mode, cover pixels, kind, secret) per item; an image secret is pixels.

    container-mixed repeats the group [random, image, random, text, random
    2048^2]: the 512^2 ops are the common case and the 2048^2 ops, a fifth
    of all, fill the tail.
    """
    items = []
    if workload == "container-mixed":
        for _ in range(2):
            for side, kind in [(512, "random"), (512, "image"), (512, "random"),
                               (512, "text"), (2048, "random")]:
                cover = natural_cover(side, side, int(rng.integers(2**32)))
                if kind == "image":
                    w = 8 * int(rng.integers(20, 28))
                    h = 8 * int(rng.integers(20, 28)) + 3
                    items.append(("image", cover, _image_secret(rng, w, h)))
                elif kind == "text":
                    items.append(("bytes", cover, _text_secret(rng)))
                else:
                    items.append(("bytes", cover, _random_secret(rng, side)))
        mode = "container"
    elif workload == "spatial8-natural":
        for _ in range(24):
            cover = natural_cover(128, 128, int(rng.integers(2**32)))
            items.append(("bytes", cover, _random_secret(rng, 128)))
        mode = "spatial8"
    elif workload == "spatial8-saturated":
        for _, cover in _saturated_covers(rng, 64):
            items.append(("bytes", cover, _random_secret(rng, 64)))
        mode = "spatial8"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(f"i{n:02d}", mode, cover, kind, secret) for n, (kind, cover, secret) in enumerate(items)]


def generate(workload, seed, out_dir):
    """Write the corpus of one workload and seed; return (manifest, digest).

    Besides the workload's items, every corpus holds a warm-up item (64^2
    natural cover, short text secret) for the set-up probes and warm-up.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    files = {}

    def put(name, data):
        (out_dir / name).write_bytes(data)
        files[name] = data
        return name

    def entry(item_id, mode, cover, kind, secret):
        item = {
            "id": item_id,
            "mode": mode,
            "cover": put(f"{item_id}-cover.pgm", pgm_bytes(cover)),
            "width": int(cover.shape[1]),
            "height": int(cover.shape[0]),
        }
        if kind == "image":
            item.update(kind="image", secret=put(f"{item_id}-secret.pgm", pgm_bytes(secret)),
                        secret_width=int(secret.shape[1]), secret_height=int(secret.shape[0]),
                        secret_bytes=int(secret.size))
        else:
            item.update(kind="bytes", secret=put(f"{item_id}-secret.bin", secret),
                        secret_width=0, secret_height=0, secret_bytes=len(secret))
        return item

    # At most 15 words of at most 8 letters: under 1200 bits, so the frame
    # always fits the 4096 slots of a 64^2 cover.
    warmup = entry("warmup", "container", natural_cover(64, 64, int(rng.integers(2**32))),
                   "bytes", _text_secret(rng, words=(8, 16)))
    items = [entry(*planned) for planned in _plan(workload, rng)]
    manifest = {"workload": workload, "seed": seed, "warmup": warmup, "items": items}
    text = json.dumps(manifest, indent=1, sort_keys=True)
    (out_dir / MANIFEST).write_text(text)
    digest = hashlib.sha256(text.encode())
    for name in sorted(files):
        digest.update(name.encode())
        digest.update(hashlib.sha256(files[name]).digest())
    return manifest, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    manifest, digest = generate(args.workload, args.seed, args.out)
    print(f"corpus workload={args.workload} seed={args.seed} "
          f"items={len(manifest['items'])} digest={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
