"""End-to-end acceptance battery.

Each criterion prints exactly one line of the form

    ACCEPTANCE <n> PASS|FAIL <name>: <details>

directly to the terminal (bypassing capture), then asserts.
"""

import itertools
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import dctsteg as d
from dctsteg import Image8, blockdct, engine, huffman, write_pgm
from support import (
    literal_forward,
    literal_inverse,
    low_entropy_secret,
    min_prefix_cost,
    natural_cover,
    oracle_forward_many,
    oracle_inverse_many,
    shannon_entropy,
)


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {num} {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _fitting_frame(secret_bytes, slots):
    """Build a byte-kind frame, trimming the secret if it overshoots the slots.

    Code length per symbol never exceeds entropy + 1 <= 9 bits, so callers
    that size secrets at 9 bits/byte never actually trim; this is a guard for
    callers that size them tighter on purpose.
    """
    frame = d.build_frame(secret_bytes)
    while frame.bit_length > slots and len(secret_bytes) > 1:
        secret_bytes = secret_bytes[: len(secret_bytes) * 31 // 32]
        frame = d.build_frame(secret_bytes)
    return secret_bytes, frame


def test_criterion_1_lossless_container_round_trip(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    failed = set()
    trials = 200
    for i in range(trials):
        if i == 0:
            width = height = 512
        elif i == 1:
            width = height = 64
        else:
            width = 8 * int(rng.integers(8, 65))
            height = 8 * int(rng.integers(8, 65))
        if i % 2:
            cover = Image8(natural_cover(width, height, int(rng.integers(2**31))))
        else:
            cover = Image8(rng.integers(0, 256, (height, width)).astype(np.uint8))
        slots = width * height
        budget_bytes = (slots - 2240) // 9  # safe at worst-case 9 bits/byte
        if i % 7 == 3:
            kind = d.KIND_IMAGE
            sw = int(rng.integers(1, 17))
            sh = int(rng.integers(1, max(2, min(65, budget_bytes // (8 * sw) + 1))))
            secret = rng.integers(0, 256, sw * sh).astype(np.uint8).tobytes()
            frame = d.build_frame(secret, kind, (sw, sh))
        else:
            kind = d.KIND_BYTES
            n = budget_bytes if i < 4 else int(rng.integers(1, budget_bytes + 1))
            secret = rng.integers(0, 256, n).astype(np.uint8).tobytes()
            secret, frame = _fitting_frame(secret, slots)
        container, _ = d.embed(cover, frame)
        recovered, header = d.extract(d.StegoContainer.from_bytes(container.to_bytes()))
        if (
            recovered != secret
            or header.secret_kind != kind
            or header.symbol_count != len(secret)
        ):
            failed.add(i)
    dt = time.perf_counter() - t0
    ok = not failed and dt < 60.0
    report(
        capsys, 1, "lossless container round trip",
        ok, f"{trials - len(failed)}/{trials} exact, {dt:.1f}s (budget 60s)",
    )


def test_criterion_2_spatial_psnr_band(capsys):
    values = []
    used_fracs = []
    for seed in (21, 22, 23):
        cover = Image8(natural_cover(512, 512, seed))
        rng = np.random.default_rng(1000 + seed)
        secret = rng.integers(0, 256, 32200).astype(np.uint8).tobytes()
        secret, frame = _fitting_frame(secret, 512 * 512)
        stego, rep = d.embed(cover, frame, mode="spatial8")
        values.append(rep.psnr_db)
        used_fracs.append(rep.blocks_used / 4096.0)
    ok = all(47.0 <= v <= 53.0 for v in values) and min(used_fracs) >= 0.97
    detail = (
        "psnr_db=" + "/".join(f"{v:.2f}" for v in values)
        + f" (band [47, 53]), block usage >= {min(used_fracs):.1%}"
    )
    report(capsys, 2, "near-full-payload spatial PSNR", ok, detail)


def test_criterion_3_capacity_arithmetic(capsys):
    raw = 512 * 512
    payload = d.capacity(512, 512)
    secret_img = low_entropy_secret(192, 195)
    entropy = shannon_entropy(secret_img.tobytes())
    frame = d.build_frame(secret_img.tobytes(), d.KIND_IMAGE, (192, 195))
    cover = Image8(natural_cover(512, 512, 31))
    container, _ = d.embed(cover, frame)
    recovered, header = d.extract(container)
    raw_secret_bits = 8 * secret_img.size
    ok = (
        raw == 262144
        and payload == 261952  # all but the 192-bit version-2 header
        and entropy <= 6.0
        and frame.bit_length <= raw
        and recovered == secret_img.tobytes()
        and (header.secret_width, header.secret_height) == (192, 195)
    )
    detail = (
        f"raw_slots={raw} payload_bits={payload}; 192x195 secret: raw "
        f"{raw_secret_bits} bits exceeds the {payload}-bit budget, but at "
        f"{entropy:.2f} bits/symbol it compresses to a {frame.bit_length}-bit "
        f"frame and fits (documented, not a failure)"
    )
    report(capsys, 3, "capacity arithmetic", ok, detail)


def test_criterion_4_dct_conformance(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    # the bulk tensor oracle is itself validated against the quadruple sum
    probe = rng.uniform(0.0, 255.0, (3, 8, 8))
    tensor_err = max(
        float(np.abs(oracle_forward_many(probe)[i] - literal_forward(probe[i])).max())
        for i in range(3)
    )
    cprobe = rng.uniform(-1024.0, 1024.0, (3, 8, 8))
    tensor_err = max(
        tensor_err,
        max(
            float(np.abs(oracle_inverse_many(cprobe)[i] - literal_inverse(cprobe[i])).max())
            for i in range(3)
        ),
    )
    assert tensor_err < 1e-12

    blocks = rng.uniform(0.0, 255.0, (10000, 8, 8))
    fwd = blockdct.forward_dct(blocks)
    fwd_err = float(np.abs(fwd - oracle_forward_many(blocks)).max())
    coeff_blocks = rng.uniform(-1024.0, 1024.0, (10000, 8, 8))
    inv_err = float(
        np.abs(blockdct.inverse_dct(coeff_blocks) - oracle_inverse_many(coeff_blocks)).max()
    )
    rt_err = float(np.abs(blockdct.inverse_dct(fwd) - blocks).max())
    e_spatial = (blocks * blocks).sum(axis=(1, 2))
    e_coeff = (fwd * fwd).sum(axis=(1, 2))
    parseval_rel = float((np.abs(e_spatial - e_coeff) / e_spatial).max())
    dt = time.perf_counter() - t0
    ok = (
        fwd_err < 1e-9 and inv_err < 1e-9 and rt_err < 1e-9
        and parseval_rel < 1e-6 and dt < 30.0
    )
    detail = (
        f"10^4 blocks: fwd {fwd_err:.1e}, inv {inv_err:.1e}, round trip {rt_err:.1e} "
        f"(tol 1e-9); parseval {parseval_rel:.1e} (tol 1e-6); {dt:.1f}s (budget 30s)"
    )
    report(capsys, 4, "transform conformance", ok, detail)


def test_criterion_5_huffman_optimality(capsys):
    checked = 0
    mismatches = 0
    for m in range(1, 6):
        for counts in itertools.combinations_with_replacement(range(1, 7), m):
            data = b"".join(bytes([s]) * c for s, c in enumerate(counts))
            table = huffman.build_table(data)
            cost = sum(counts[s] * int(table.code_lengths[s]) for s in range(m))
            if cost != min_prefix_cost(list(counts)):
                mismatches += 1
            checked += 1
    rng = np.random.default_rng(505)
    rt_failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 500))
        alphabet = int(rng.integers(2, 257))
        data = rng.integers(0, alphabet, n).astype(np.uint8).tobytes()
        table = huffman.build_table(data)
        if huffman.parse_table(huffman.serialize_table(table)) != table:
            rt_failures += 1
    ok = mismatches == 0 and rt_failures == 0
    detail = (
        f"{checked - mismatches}/{checked} frequency multisets match the "
        f"exhaustive minimum; {1000 - rt_failures}/1000 table round trips exact"
    )
    report(capsys, 5, "prefix code optimality", ok, detail)


def test_criterion_6_spatial_integrity(capsys):
    rng = np.random.default_rng(606)
    noise_failures = 0
    for _ in range(1000):
        block = rng.integers(96, 161, (8, 8)).astype(np.float64)
        bits = rng.integers(0, 2, (8, 8)).astype(np.int64)
        coeffs = engine.set_lsb(blockdct.quantize(blockdct.forward_dct(block)), bits)
        _, residual = engine.verify_adjust_block(coeffs)
        if residual:
            noise_failures += 1

    const_failures = 0
    flat_coeffs = blockdct.quantize(blockdct.forward_dct(np.full((8, 8), 128.0)))
    for _ in range(10000):
        bits = rng.integers(0, 2, (8, 8)).astype(np.int64)
        _, residual = engine.verify_adjust_block(engine.set_lsb(flat_coeffs, bits))
        if residual:
            const_failures += 1

    # CLI on natural covers: the reported residual count bounds the clean
    # block fraction from below by 1 - bit_errors / blocks_used
    fractions = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for seed in (61, 62):
            cover_path = tmp / f"cover{seed}.pgm"
            cover_path.write_bytes(write_pgm(Image8(natural_cover(512, 512, seed))))
            secret_path = tmp / f"secret{seed}.bin"
            srng = np.random.default_rng(6000 + seed)
            secret_path.write_bytes(
                srng.integers(0, 256, 20000).astype(np.uint8).tobytes()
            )
            out_path = tmp / f"stego{seed}.pgm"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "dctsteg", "embed",
                    "--cover", str(cover_path), "--secret", str(secret_path),
                    "--mode", "spatial8", "--out", str(out_path),
                ],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            fields = dict(p.split("=", 1) for p in proc.stdout.split())
            errors = int(fields["residual_bit_errors"])
            blocks = int(fields["blocks_used"])
            fractions.append(1.0 - errors / blocks)
            rec_path = tmp / f"rec{seed}.bin"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "dctsteg", "extract",
                    "--in", str(out_path), "--out", str(rec_path),
                ],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert rec_path.read_bytes() == secret_path.read_bytes()

    ok = noise_failures == 0 and const_failures == 0 and min(fractions) >= 0.999
    detail = (
        f"noise blocks {1000 - noise_failures}/1000 clean, constant blocks "
        f"{10000 - const_failures}/10000 clean, CLI corpus zero-residual "
        f"block fraction >= {min(fractions):.4f} (threshold 0.999)"
    )
    report(capsys, 6, "render verify/adjust integrity", ok, detail)


def test_criterion_7_psnr_formula(capsys):
    a = np.zeros((512, 512), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 255
    score = d.psnr(Image8(a), Image8(b))
    want = 10.0 * math.log10(262144.0)
    err = abs(score.psnr_db - want)
    ok = err < 1e-6
    report(
        capsys, 7, "psnr closed form",
        ok, f"psnr_db={score.psnr_db:.6f} vs {want:.6f}, |err|={err:.2e} (tol 1e-6)",
    )
