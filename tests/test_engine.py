"""Embedding engine tests: LSB plumbing, both artifact modes, verify/adjust."""

import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg import (
    Image8,
    StegoContainer,
    build_frame,
    capacity,
    embed,
    extract,
    psnr,
    render,
)
from dctsteg.blockdct import assemble, forward_dct, inverse_dct, partition, quantize
from dctsteg.engine import set_lsb, verify_adjust_block
from dctsteg.framing import PayloadFrame, PayloadHeader
from dctsteg.huffman import build_table
from dctsteg.errors import (
    BadHeader,
    BadMagic,
    NotBlockAligned,
    PayloadTooLarge,
    Truncated,
)
from dctsteg import blockdct, engine
from support import (
    build_v1_frame,
    fibonacci_secret,
    frame_bits,
    natural_cover,
    reference_embed,
    reference_pixels,
    reference_verify_adjust_block,
)


def test_lsb_examples():
    assert set_lsb(13, 0) == 12
    assert set_lsb(-6, 1) == -5
    assert set_lsb(0, 1) == 1


def test_lsb_exhaustive_involution():
    c = np.arange(-4096, 4096, dtype=np.int64)
    for b in (0, 1):
        written = set_lsb(c, b)
        assert np.all(written & 1 == b)
        assert np.abs(written - c).max() <= 1
        # writing is idempotent and only touches bit 0
        assert np.array_equal(set_lsb(written, b), written)
        assert np.array_equal(written >> 1, c >> 1)


def test_capacity_values():
    # every coefficient but the 192 of the version-2 header
    assert capacity(512, 512) == 261952
    assert capacity(64, 64) == 3904
    assert capacity(8, 8) == 0
    assert capacity(16, 16) == 64
    assert capacity(48, 48) == 2112
    with pytest.raises(NotBlockAligned):
        capacity(12, 8)


def test_capacity_monotone_in_area():
    caps = [capacity(8 * k, 8 * k) for k in range(1, 20)]
    assert caps == sorted(caps)
    assert all(c >= 0 for c in caps)


def _cover(width, height, seed):
    return Image8(natural_cover(width, height, seed))


def test_container_round_trip_through_bytes():
    cover = _cover(64, 64, 1)
    secret = bytes(np.random.default_rng(2).integers(0, 256, 100, dtype=np.uint8))
    container, report = embed(cover, build_frame(secret))
    assert report.blocks_used == build_frame(secret).bit_length // 64
    assert report.residual_bit_errors == 0
    assert 30.0 < report.psnr_db < 70.0
    reloaded = StegoContainer.from_bytes(container.to_bytes())
    assert reloaded == container
    recovered, header = extract(reloaded)
    assert recovered == secret
    assert header.symbol_count == 100


def test_untouched_blocks_keep_plain_coefficients():
    cover = _cover(64, 64, 3)
    frame = build_frame(b"tiny")
    container, report = embed(cover, frame)
    plain = quantize(forward_dct(partition(cover)))
    used = report.blocks_used
    assert used == frame.bit_length // 64
    assert np.array_equal(container.coeffs[used:], plain[used:])
    # used blocks differ only in LSBs
    assert np.array_equal(container.coeffs[:used] >> 1, plain[:used] >> 1)


def test_zero_frame_into_constant_cover():
    cover = Image8(np.full((16, 16), 128, dtype=np.uint8))
    frame = PayloadFrame(bytes(16), PayloadHeader(0, 0, 0, 0, 0))
    container, report = embed(cover, frame)
    assert report.blocks_used == 2
    assert not (container.coeffs[:2] & 1).any()
    assert container.coeffs[0][0, 0] == 1024  # DC of a 128 block, already even
    assert report.psnr_db == math.inf  # the render is the cover: a zero error sum


def test_embed_rejects_oversized_frame():
    cover = Image8(np.full((8, 8), 100, dtype=np.uint8))
    with pytest.raises(PayloadTooLarge):
        embed(cover, build_frame(b"aaaa"))


def test_embed_rejects_unknown_mode():
    cover = _cover(64, 64, 4)
    with pytest.raises(ValueError):
        embed(cover, build_frame(b"x"), mode="both")


def test_container_wire_format_errors():
    cover = Image8(np.full((16, 16), 90, dtype=np.uint8))
    container, _ = embed(cover, PayloadFrame(bytes(8), PayloadHeader(0, 0, 0, 0, 0)))
    blob = container.to_bytes()
    with pytest.raises(Truncated):
        StegoContainer.from_bytes(blob[:6])
    with pytest.raises(Truncated):
        StegoContainer.from_bytes(blob[:-1])
    with pytest.raises(BadMagic):
        StegoContainer.from_bytes(b"XXXX" + blob[4:])
    zero_dims = b"DST1" + b"\x00\x00\x00\x10" + blob[8:]
    with pytest.raises(BadHeader):
        StegoContainer.from_bytes(zero_dims)
    misaligned = b"DST1" + b"\x00\x0c\x00\x10" + blob[8:]
    with pytest.raises(NotBlockAligned):
        StegoContainer.from_bytes(misaligned)
    with pytest.raises(NotBlockAligned):  # 144 coefficients are no whole number of blocks
        StegoContainer.from_bytes(b"DST1" + b"\x00\x0c\x00\x0c" + blob[8:])
    out_of_range = bytearray(blob)
    out_of_range[8:10] = b"\x7f\xff"  # 32767, beyond the coefficient range
    with pytest.raises(BadHeader):
        StegoContainer.from_bytes(bytes(out_of_range))


def test_container_constructor_validation():
    with pytest.raises(NotBlockAligned):
        StegoContainer(12, 8, np.zeros((1, 8, 8), dtype=np.int64))
    with pytest.raises(ValueError):
        StegoContainer(8, 8, np.zeros((2, 8, 8), dtype=np.int64))
    too_big = np.zeros((1, 8, 8), dtype=np.int64)
    too_big[0, 0, 0] = 4096
    with pytest.raises(ValueError):
        StegoContainer(8, 8, too_big)


@pytest.mark.parametrize("width, height", [(0, 8), (8, 0), (0, 0)])
def test_container_constructor_rejects_zero_dimensions(width, height):
    # from_bytes rejects such a header, and render would split zero blocks over zero workers
    with pytest.raises(ValueError, match="zero dimension"):
        StegoContainer(width, height, np.zeros((0, 8, 8), dtype=np.int16))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, bool, object])
def test_container_constructor_rejects_non_integer_coefficients(dtype):
    coeffs = np.full((1, 8, 8), 2.5).astype(dtype)
    with pytest.raises(ValueError, match="must be integers"):
        StegoContainer(8, 8, coeffs)


@pytest.mark.parametrize("value", [70000, -40000, 65543, -65539])
def test_container_constructor_rejects_int64_values_that_wrap_in_int16(value):
    # 65543 and -65539 wrap to 7 and -3 in int16, so the check must precede the narrowing
    coeffs = np.zeros((1, 8, 8), dtype=np.int64)
    coeffs[0, 3, 5] = value
    with pytest.raises(ValueError):
        StegoContainer(8, 8, coeffs)


def test_container_holds_wire_format_coefficients_from_every_source():
    container, _ = embed(_cover(64, 64, 5), build_frame(b"wire width"))
    parsed = StegoContainer.from_bytes(container.to_bytes())
    built = StegoContainer(64, 64, container.coeffs.astype(np.int64))
    for each in (container, parsed, built):
        assert each.coeffs.dtype == np.dtype(">i2")
    assert parsed == container == built
    assert parsed.to_bytes() == container.to_bytes()


@pytest.mark.parametrize("dtype", [">i2", np.int16])
def test_container_of_strided_coefficients_writes_its_bytes(dtype, tmp_path):
    # every other block of four: a view that file.write would reject as not C-contiguous
    values = np.arange(-128, 128).reshape(4, 8, 8).astype(dtype)[::2]
    container = StegoContainer(8, 16, values)
    with open(tmp_path / "strided.dsc", "wb") as out:
        container.write(out)
    blob = (tmp_path / "strided.dsc").read_bytes()
    assert blob == container.to_bytes()
    parsed = StegoContainer.from_bytes(blob)
    assert parsed == container
    assert np.array_equal(parsed.coeffs, values)


def test_container_parse_and_write_copy_no_coefficients(tmp_path):
    frame = build_frame(np.random.default_rng(29).bytes(20000))
    container, _ = embed(_cover(512, 512, 29), frame)
    data = container.to_bytes()
    limit = container.coeffs.nbytes // 10
    tracemalloc.start()
    try:
        parsed = StegoContainer.from_bytes(data)
        _, parse_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(tmp_path / "written.dsc", "wb") as out:  # a real file: BytesIO's buffer would count
        tracemalloc.start()
        try:
            parsed.write(out)
            _, write_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (tmp_path / "written.dsc").read_bytes() == data
    assert parse_peak < limit
    assert write_peak < limit


def test_parsed_container_is_a_read_only_snapshot():
    data = bytearray(StegoContainer(8, 8, np.arange(-32, 32).reshape(1, 8, 8)).to_bytes())
    before = StegoContainer.from_bytes(bytes(data))
    parsed = StegoContainer.from_bytes(data)
    data[-1] ^= 0x02  # the last coefficient's bit 1
    assert parsed == before
    assert not parsed.coeffs.flags.writeable


def _frame_of_blocks(count, seed):
    """A frame of count random 64-bit groups, so the payload ends on a chosen block."""
    bits = np.random.default_rng(seed).integers(0, 2, 64 * count).astype(np.uint8)
    return PayloadFrame(np.packbits(bits).tobytes(), PayloadHeader(0, 0, 0, 0, 0))


def _chunk_and_total(width, height, cpus=1):
    """Blocks in a chunk of the pass split over cpus, and in the cover."""
    across = width // 8
    budget = max(1, engine._CHUNK_BLOCKS // across)
    workers = min(cpus, budget, -(-(height // 8) // budget))
    return across * (budget // workers), across * (height // 8)


# one thread, or the budget split into smaller chunks over up to three
_WORKER_COUNTS = (1, 3)


@pytest.mark.parametrize(
    "width, height", [(128, 128), (512, 512), (520, 512), (64, 64)],
    ids=["under one chunk", "two whole chunks", "last chunk partial", "binary cover that clips"],
)
def test_chunked_container_embed_equals_the_whole_cover_reference(monkeypatch, width, height):
    chunk, total = _chunk_and_total(width, height)
    # blocks in the last chunk
    assert total % chunk == {
        (128, 128): 256, (512, 512): 0, (520, 512): 130, (64, 64): 64}[width, height]
    if width == 64:  # 0/255 pixels: the render overshoots both ends and the clamps decide it
        cover = Image8(np.random.default_rng(64).integers(0, 2, (64, 64), dtype=np.uint8) * 255)
    else:
        cover = _cover(width, height, width + height)
    ends = {0, 1, total // 2, chunk // 2 + 3, total - 1, total}
    for workers in _WORKER_COUNTS:
        split = _chunk_and_total(width, height, workers)[0]
        ends |= {split - 1, split, split + 1}
    for used in sorted(end for end in ends if end <= total):
        frame = _frame_of_blocks(used, used)
        coeffs, pixels, _ = reference_embed(cover, frame)
        for workers in _WORKER_COUNTS:
            monkeypatch.setattr(engine, "_cpus", lambda: workers)
            container, report = embed(cover, frame)
            assert report.blocks_used == used
            assert np.array_equal(container.coeffs, coeffs), (used, workers)
            assert report.psnr_db == psnr(cover, Image8(pixels)).psnr_db, (used, workers)
            assert np.array_equal(render(container).pixels, pixels), (used, workers)
    # with no payload block, the spatial8 artifact is the chunked render itself
    pixels = reference_embed(cover, _frame_of_blocks(0, 0))[1]
    for workers in _WORKER_COUNTS:
        monkeypatch.setattr(engine, "_cpus", lambda: workers)
        stego, report = embed(cover, _frame_of_blocks(0, 0), mode="spatial8")
        assert np.array_equal(stego.pixels, pixels), workers


@pytest.mark.parametrize("chunk_blocks", [5, 24])
def test_chunked_spatial8_embed_equals_the_whole_cover_reference(monkeypatch, chunk_blocks):
    # A 64x64 cover has 8 blocks a row: chunks of one row (5 rounds up to a
    # row, so one thread), or of 24, 24 and 16 blocks (one row each over
    # three threads).
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", chunk_blocks)
    chunk, total = _chunk_and_total(64, 64)
    cover = _cover(64, 64, 91)
    for used in sorted({chunk // 2 + 1, chunk, chunk + 1, total}):
        frame = _frame_of_blocks(used, used)
        _, pixels, residual = reference_embed(cover, frame, mode="spatial8")
        rendered = reference_embed(cover, frame)[1]
        for workers in _WORKER_COUNTS:
            monkeypatch.setattr(engine, "_cpus", lambda: workers)
            stego, report = embed(cover, frame, mode="spatial8")
            assert report.residual_bit_errors == residual, (used, workers)
            assert np.array_equal(stego.pixels, pixels), (used, workers)
            container, _ = embed(cover, frame)
            assert np.array_equal(render(container).pixels, rendered), (used, workers)


def test_the_threads_share_one_buffer_budget_whatever_the_cpu_count(monkeypatch):
    # A 64x512 cover is 64 block rows of 8 blocks and a 24-block budget is
    # three rows: 64 CPUs get three workers (the caller and two threads),
    # each with one-row buffers, not a three-row buffer per CPU.
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", 24)
    monkeypatch.setattr(engine, "_cpus", lambda: 64)
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    cover = _cover(64, 512, 93)
    frame = _frame_of_blocks(300, 93)
    coeffs, pixels, _ = reference_embed(cover, frame)
    container, _ = embed(cover, frame)
    assert len(started) == 2
    assert np.array_equal(container.coeffs, coeffs)
    assert np.array_equal(render(container).pixels, pixels)
    assert len(started) == 4


def test_a_worker_exception_leaves_embed_and_render_after_every_thread_joined(monkeypatch):
    # A 512^2 cover is four chunks, two per worker; the second inverse DCT
    # of the pass raises, in whichever thread makes it.
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    cover = _cover(512, 512, 84)
    container, _ = embed(cover, build_frame(b"two workers"))
    real_inverse, failure = blockdct.inverse_dct, RuntimeError("second inverse DCT")
    for run in (lambda: embed(cover, build_frame(b"two workers")), lambda: render(container)):
        calls = itertools.count(1)

        def inverse_dct(coeffs, out=None):
            if next(calls) == 2:
                raise failure
            return real_inverse(coeffs, out=out)

        monkeypatch.setattr(blockdct, "inverse_dct", inverse_dct)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            run()
        assert raised.value is failure
        assert threading.active_count() == before


def test_container_embed_allocates_chunk_sized_temporaries(monkeypatch):
    # The whole-cover outputs of a 1024^2 cover are 3 MiB; one whole-cover
    # float64 temporary alone would be 8 MiB. Eight workers share the 2 MiB
    # of float buffers one worker would have.
    monkeypatch.setattr(engine, "_cpus", lambda: 8)
    cover = _cover(1024, 1024, 81)
    frame = build_frame(np.random.default_rng(81).bytes(capacity(1024, 1024) * 93 // 800))
    embed(cover, frame)
    tracemalloc.start()
    try:
        embed(cover, frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_render_allocates_chunk_sized_temporaries(monkeypatch):
    # The uint8 render of a 1024^2 container is 1 MiB; one whole-cover
    # float64 temporary alone would be 8 MiB. Eight workers share the 2 MiB
    # of float buffers one worker would have.
    monkeypatch.setattr(engine, "_cpus", lambda: 8)
    container, _ = embed(_cover(1024, 1024, 82), build_frame(b"render in chunks"))
    render(container)
    tracemalloc.start()
    try:
        render(container)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_render_known_blocks():
    zero = StegoContainer(8, 8, np.zeros((1, 8, 8), dtype=np.int64))
    assert not render(zero).pixels.any()
    dc = np.zeros((1, 8, 8), dtype=np.int64)
    dc[0, 0, 0] = 1024
    assert np.all(render(StegoContainer(8, 8, dc)).pixels == 128)


def test_render_stays_close_to_cover():
    cover = _cover(64, 64, 6)
    plain = quantize(forward_dct(partition(cover)))
    rendered = render(StegoContainer(64, 64, plain))
    diff = np.abs(rendered.pixels.astype(np.int64) - cover.pixels.astype(np.int64))
    assert (diff <= 1).mean() >= 0.99
    assert diff.max() <= 3


def test_verify_adjust_clean_block_is_untouched():
    coeffs = np.zeros((8, 8), dtype=np.int64)
    pixels, residual = verify_adjust_block(coeffs)
    assert residual == 0
    assert not pixels.any()


def test_verify_adjust_converges_on_noise_blocks():
    rng = np.random.default_rng(12)
    worst_mse = 0.0
    for _ in range(200):
        block = rng.integers(96, 161, (8, 8)).astype(np.float64)
        bits = rng.integers(0, 2, (8, 8)).astype(np.int64)
        coeffs = set_lsb(quantize(forward_dct(block)), bits)
        pixels, residual = verify_adjust_block(coeffs)
        assert residual == 0
        # zero residual must mean the canonical pipeline recovers the bits
        recovered = quantize(forward_dct(pixels.astype(np.float64))) & 1
        assert np.array_equal(recovered, bits)
        worst_mse = max(worst_mse, float(((pixels - block) ** 2).mean()))
    assert worst_mse < 16.0  # adjusted render stays near the cover block


def _same_as_reference(coeffs):
    pixels, residual = verify_adjust_block(coeffs)
    ref_pixels, ref_residual = reference_verify_adjust_block(coeffs)
    return residual == ref_residual and np.array_equal(pixels, ref_pixels)


def _flat_coeffs(value):
    return quantize(forward_dct(np.full((8, 8), float(value))))


def test_verify_adjust_matches_full_render_reference():
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(40):  # noise blocks, the common repair case
        cases.append(quantize(forward_dct(rng.integers(96, 161, (8, 8)).astype(np.float64))))
    cases += [_flat_coeffs(128)] * 40  # mid-gray constant blocks
    cases += [_flat_coeffs(0)] * 4 + [_flat_coeffs(255)] * 4  # clamped: 16 rounds each
    kept = {}  # case index: the coefficients whose LSBs stay 0, on their ties
    # Flat blocks on DC = 4 (mod 8): every sample a .5 tie. Then DC = 2
    # (mod 8) and 2 on a +-1/8 basis image: half the samples tie. Any odd
    # coefficient would move them off, so all 64 LSBs stay 0; the first
    # render is then clean, and its pixels differ by the tie direction.
    for _ in range(40):
        flat = np.zeros((8, 8), dtype=np.int64)
        flat[0, 0] = 8 * int(rng.integers(1, 255)) + 4
        kept[len(cases)] = slice(None)
        cases.append(flat)
    tie_rng = np.random.default_rng(22)
    for slot in [(0, 4), (4, 0), (4, 4)] * 8:
        block = np.zeros((8, 8), dtype=np.int64)
        block[0, 0], block[slot] = 8 * int(tie_rng.integers(1, 255)) + 2, 2
        kept[len(cases)] = slice(None)
        cases.append(block)
    mismatched = []
    for index, coeffs in enumerate(cases):
        bits = rng.integers(0, 2, (8, 8)).astype(np.int64)
        if index in kept:
            bits[kept[index]] = 0
        if not _same_as_reference(set_lsb(coeffs, bits)):
            mismatched.append(index)
    assert mismatched == []


def test_candidate_render_equals_full_render_on_dc_ties():
    # DC-only blocks nudged by +-2 onto DC = 4 (mod 8): every sample of the
    # candidate lands on a .5 tie, where the incremental sum and the full
    # inverse DCT must round the same way.
    slots = np.arange(7)  # slot 0 is the DC
    rows = engine._ROWS[:2]  # the pool's first two candidates: DC +2 and DC -2
    assert rows.tolist() == [[2, 0, 0, 0, 0, 0, 0], [-2, 0, 0, 0, 0, 0, 0]]
    differing = 0
    for dc in range(4, 2040, 8):
        for start in (dc - 2, dc + 2):
            cur = np.zeros((8, 8), dtype=np.int64)
            cur[0, 0] = start
            pool = engine._pool_factor(slots, inverse_dct(cur))
            fast, _ = engine._candidate_pixels(pool, 0, 2, engine._Workspace())
            full = engine._to_pixels(inverse_dct(engine._nudged(cur, slots, rows)))
            differing += not np.array_equal(np.clip(fast, 0, 255), full)
    assert differing == 0


def _tie_blocks():
    """Blocks whose every sample is an exact .5 tie, in [0.5, 254.5].

    The basis images of (0,0), (0,4), (4,0) and (4,4) are +-1/8 everywhere.
    """
    blocks = []
    for k in range(255):
        block = np.zeros((8, 8), dtype=np.int64)
        block[0, 0] = 8 * k + 4  # samples k + 1/2
        blocks.append(block)
    for slot in ((0, 4), (4, 0), (4, 4)):
        for k in range(1, 255):
            block = np.zeros((8, 8), dtype=np.int64)
            block[0, 0], block[slot] = 8 * k, 4 if k % 2 else -4  # samples k +- 1/2
            blocks.append(block)
    return np.array(blocks)


@pytest.mark.parametrize("association", ["library", "other"])
def test_exact_render_ties_round_up(monkeypatch, association):
    # An exact tie computes to within 1e-12 of .5 on either side, whichever
    # order the products run in; the pixel is its ceiling either way.
    if association == "other":
        M, MT = blockdct._M, blockdct._MT
        monkeypatch.setattr(
            blockdct, "inverse_dct", lambda c, out=None: MT @ (np.asarray(c, float) @ M)
        )
    blocks = _tie_blocks()
    samples = blockdct.inverse_dct(blocks)
    exact = np.rint(2 * samples) / 2
    assert np.all(exact % 1 == 0.5) and np.abs(samples - exact).max() < 1e-12
    assert np.array_equal(engine._to_pixels(samples), exact + 0.5)
    # the candidate render: cur is 2 below or above the tie block on the DC,
    # and the pool's first pass nudges the four tie slots, alone and in
    # pairs (half-tie blocks), and three others
    slots = np.array([0, 4, 32, 36, 1, 8, 9])
    rows = engine._ROWS[: engine._PASSES[0][1]]
    assert rows[:2].tolist() == [[2, 0, 0, 0, 0, 0, 0], [-2, 0, 0, 0, 0, 0, 0]]
    ws = engine._Workspace()
    for block, ceiling in zip(blocks, exact + 0.5):
        for row, shift in enumerate((-2, 2)):  # row 0 or 1 nudges cur back onto block
            cur = block.copy()
            cur[0, 0] += shift
            pool = engine._pool_factor(slots, blockdct.inverse_dct(cur))
            fast, _ = engine._candidate_pixels(pool, 0, len(rows), ws)
            fast = np.clip(fast, 0, 255)
            full = engine._to_pixels(blockdct.inverse_dct(engine._nudged(cur, slots, rows)))
            assert np.array_equal(fast, full)
            assert np.array_equal(fast[row], ceiling)


def _tiers(rows):
    """(start, stop) ranges of the rows that share one nonzero count, in pool order."""
    nonzero = (rows != 0).sum(1)
    stops = [*np.flatnonzero(np.diff(nonzero)) + 1, len(rows)]
    return list(zip([0, *stops[:-1]], stops))


def test_sign_pattern_tiers_partition_the_pool_by_nonzero_count():
    rows = engine._ROWS
    assert rows.shape == (2048, 7)
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert set(np.unique(rows).tolist()) == {-2.0, 0.0, 2.0} and (rows != 0).any(axis=1).all()
    tiers = _tiers(rows)
    assert tiers[0][0] == 0 and tiers[-1][1] == len(rows)
    for (_, stop), (start, _) in zip(tiers, tiers[1:]):
        assert stop == start
    nonzero = [set((rows[a:b] != 0).sum(axis=1).tolist()) for a, b in tiers]
    assert all(len(counts) == 1 for counts in nonzero)
    assert [c.pop() for c in nonzero] == list(range(1, len(tiers) + 1))
    # every pattern of up to 5 nonzero slots, then as many 6-slot ones as fit
    assert [b - a for a, b in tiers] == [14, 84, 280, 560, 672, 438]


def test_passes_group_whole_tiers_in_pool_order():
    rows, passes = engine._ROWS, engine._PASSES
    tiers = _tiers(rows)
    bounds = {start for start, _ in tiers} | {len(rows)}
    assert passes[0][0] == 0 and passes[-1][1] == len(rows)
    for (_, stop), (start, _) in zip(passes, passes[1:]):
        assert stop == start
    assert all(start in bounds and stop in bounds for start, stop in passes)
    assert all(stop - start >= engine._MIN_PASS for start, stop in passes[:-1])


def _noise_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        block = rng.integers(96, 161, (8, 8)).astype(np.float64)
        bits = rng.integers(0, 2, (8, 8)).astype(np.int64)
        yield set_lsb(quantize(forward_dct(block)), bits)


def test_verify_adjust_in_a_workspace_allocates_no_pool_sized_arrays(monkeypatch):
    # One 2048-row float64 temporary alone is 1 MB; a whole pool without a
    # workspace peaks at 2.5-3.7 MB of traced allocation.
    rounds = []
    factor = engine._pool_factor
    monkeypatch.setattr(engine, "_pool_factor", lambda *a: rounds.append(1) or factor(*a))
    ws = engine._Workspace()
    peaks = []
    for coeffs in _noise_cases(12, 24):  # 6 of them take more than one round
        rounds.clear()
        tracemalloc.start()
        try:
            _, residual = verify_adjust_block(coeffs, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual == 0
        if len(rounds) >= 2:
            peaks.append(peak)
    assert len(peaks) >= 3
    assert max(peaks) < 512 * 1024


def test_verify_adjust_never_re_anchors_on_a_whole_sample_shift(monkeypatch):
    # Block 22 of a near-full 128^2 embed. Re-anchoring on candidates unseen
    # by their coefficients alone, its search walked all 16 rounds through
    # +2 on (0,0), (0,4), (4,0) and (4,4): each step adds 1 to a quarter of
    # the samples and leaves every rounding error, so the one offender, as
    # it was.
    # Its bits are those of the table of a version-1 frame, whose 128-bit
    # header and 2048-bit table left 14,208 bits of a 128^2 cover.
    rng = np.random.default_rng(4028)
    bits = frame_bits(build_v1_frame(rng.bytes(14208 * 93 // 800)))
    bits = bits.reshape(-1, 8, 8)[22].astype(np.int64)
    coeffs = quantize(forward_dct(partition(natural_cover(128, 128, 4028))))[22]
    coeffs = set_lsb(coeffs, bits)
    anchors = []
    factor = engine._pool_factor
    monkeypatch.setattr(engine, "_pool_factor", lambda *a: anchors.append(a[1]) or factor(*a))
    pixels, residual = verify_adjust_block(coeffs)
    assert residual == 0 and len(anchors) >= 2
    for i, later in enumerate(anchors):
        for earlier in anchors[:i]:
            shift = later - earlier
            assert np.abs(shift - np.rint(shift)).max() > 1e-6
    monkeypatch.undo()
    assert _same_as_reference(coeffs)


def test_verify_adjust_results_outlive_the_workspace():
    # Clamped blocks keep residual errors, so their result is an anchor from
    # an earlier round, whose pool rows later rounds overwrite.
    rng = np.random.default_rng(13)
    cases = list(_noise_cases(13, 16))
    for value in (0, 255, 0, 255):
        bits = rng.integers(0, 2, (8, 8))
        cases.append(set_lsb(_flat_coeffs(value), bits))
    ws = engine._Workspace()
    kept = []
    for coeffs in cases:
        pixels, residual = verify_adjust_block(coeffs, ws)
        assert not np.shares_memory(pixels, ws.pixels)
        kept.append((pixels, pixels.copy(), residual, coeffs))
    assert any(residual for _, _, residual, _ in kept)
    for pixels, snapshot, residual, coeffs in kept:
        assert np.array_equal(pixels, snapshot)
        ref_pixels, ref_residual = reference_verify_adjust_block(coeffs)
        assert residual == ref_residual and np.array_equal(pixels, ref_pixels)


def test_concurrent_spatial_embeds_match_sequential():
    rng = np.random.default_rng(14)
    jobs = [
        (Image8(natural_cover(64, 64, seed)), build_frame(rng.bytes(100)))
        for seed in (31, 32)
    ]

    def stego_bytes(job):
        stego, report = embed(*job, mode="spatial8")
        assert report.residual_bit_errors == 0
        return stego.pixels.tobytes()

    sequential = [stego_bytes(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(stego_bytes, jobs)) == sequential


def test_spatial8_embed_equals_the_reference_search_on_a_near_full_cover():
    rng = np.random.default_rng(61)
    cover = Image8(natural_cover(64, 64, 61))
    frame = build_frame(rng.bytes(capacity(64, 64) * 93 // 800))
    bit_blocks = frame_bits(frame).reshape(-1, 8, 8).astype(np.int64)
    assert len(bit_blocks) >= 56  # of 64 blocks
    stego, report = embed(cover, frame, mode="spatial8")
    coeffs = quantize(forward_dct(partition(cover)))
    coeffs[: len(bit_blocks)] = set_lsb(coeffs[: len(bit_blocks)], bit_blocks)
    rendered = reference_pixels(inverse_dct(coeffs))
    residual = 0
    for i in range(len(bit_blocks)):
        rendered[i], errors = reference_verify_adjust_block(coeffs[i])
        residual += errors
    assert report.residual_bit_errors == residual
    assert np.array_equal(stego.pixels, assemble(rendered, 64, 64).astype(np.uint8))


def test_candidate_render_equals_full_render_near_the_clamps():
    # The candidate render is not clamped; clipped to 0..255, as the search
    # clips the rows it reads, it must equal the full render at every level.
    rng = np.random.default_rng(71)
    rows = engine._ROWS
    ws = engine._Workspace()
    for level in (0, 2, 5, 128, 250, 253, 255):
        for _ in range(3):
            block = np.clip(level + rng.integers(-4, 5, (8, 8)), 0, 255).astype(np.float64)
            cur = quantize(forward_dct(block))
            slots = rng.choice(64, 7, replace=False)
            pool = engine._pool_factor(slots, inverse_dct(cur))
            fast, _ = engine._candidate_pixels(pool, 0, len(rows), ws)
            full = engine._to_pixels(inverse_dct(engine._nudged(cur, slots, rows)))
            assert np.array_equal(np.clip(fast, 0, 255), full), level


def test_rounding_energy_is_the_coefficient_error_energy():
    # Parseval: the DCT is orthonormal, so an unclipped candidate's pixel
    # rounding energy equals the energy of its recovered coefficients' error.
    rng = np.random.default_rng(73)
    ws = engine._Workspace()
    for _ in range(4):
        cur = quantize(forward_dct(rng.integers(96, 161, (8, 8)).astype(np.float64)))
        slots = rng.choice(64, 7, replace=False)
        pool = engine._pool_factor(slots, inverse_dct(cur))
        pixels, energy = engine._candidate_pixels(pool, 0, 2048, ws)
        assert pixels.min() > 0 and pixels.max() < 255
        errors = forward_dct(pixels) - engine._nudged(cur, slots, engine._ROWS)
        assert np.abs(energy - (errors**2).sum(axis=(1, 2))).max() < 1e-9
        assert (energy < engine._ENERGY_CUT).any() and (energy >= engine._ENERGY_CUT).any()


def test_energy_cut_is_one_standard_deviation_below_the_mean_rounding_energy():
    # One uniform rounding error u in (-1/2, 1/2) has E[u^2] = 1/12 and
    # Var[u^2] = 1/80 - 1/144 = 1/180, so 64 of them have energy mean 16/3
    # and standard deviation sqrt(64/180) = 0.596.
    assert engine._ENERGY_CUT == pytest.approx(64 / 12 - math.sqrt(64 / 180), abs=1e-12)
    assert engine._ENERGY_CUT == pytest.approx(4.737, abs=5e-4)
    energy = (np.random.default_rng(75).uniform(-0.5, 0.5, (50_000, 64)) ** 2).sum(axis=1)
    # 50,000 draws: the standard error is 0.0027 for the mean, about 0.002 for the sd
    assert energy.mean() == pytest.approx(64 / 12, abs=0.01)
    assert energy.std() == pytest.approx(math.sqrt(64 / 180), abs=0.01)


def _clamped_cases(seed, levels, count):
    """Blocks within 4 of each level, clipped to 0..255, with random bits."""
    rng = np.random.default_rng(seed)
    for level in levels:
        for _ in range(count):
            block = np.clip(level + rng.integers(-4, 5, (8, 8)), 0, 255).astype(np.float64)
            bits = rng.integers(0, 2, (8, 8)).astype(np.int64)
            yield set_lsb(quantize(forward_dct(block)), bits)


def test_each_pass_verifies_exactly_the_candidates_below_the_cut(monkeypatch):
    renders, verified = [], []
    candidate_pixels, lsb_parity = engine._candidate_pixels, blockdct.lsb_parity

    def recording_render(*args):
        pixels, energy = candidate_pixels(*args)
        renders.append((pixels.copy(), energy.copy()))
        return pixels, energy

    def recording_parity(blocks, *args):
        verified.append(np.array(blocks, copy=True))  # the call overwrites pooled rows
        return lsb_parity(blocks, *args)

    monkeypatch.setattr(engine, "_candidate_pixels", recording_render)
    monkeypatch.setattr(blockdct, "lsb_parity", recording_parity)
    passes = screened = candidates = clipped = 0
    noise = list(_noise_cases(76, 16))
    for index, coeffs in enumerate(noise + list(_clamped_cases(77, (0, 2, 253, 255), 2))):
        renders.clear()
        verified.clear()
        _, residual = verify_adjust_block(coeffs)
        assert residual == 0 or index >= len(noise)
        # one 1-block call for the first render, then one call per pass
        assert len(verified) == 1 + len(renders) and verified[0].shape == (1, 8, 8)
        for (pixels, energy), blocks in zip(renders, verified[1:]):
            below = pixels[energy < engine._ENERGY_CUT]
            assert np.array_equal(blocks, np.clip(below, 0, 255))  # only read rows clamp
            clipped += int(((below < 0) | (below > 255)).any(axis=(1, 2)).sum())
            if index < len(noise):
                screened += len(blocks)
                candidates += len(pixels)
        passes += len(renders)
    assert passes > 16 and 0.05 < screened / candidates < 0.3
    assert clipped > 0


def test_near_full_natural_embed_verifies_under_450_candidates_per_block(monkeypatch):
    # The machine-independent counter of the spatial8 search: rows handed to
    # lsb_parity and rounds (pools) per payload block, with no residual bit.
    rows, rounds = [], []
    lsb_parity, pool_factor = blockdct.lsb_parity, engine._pool_factor
    monkeypatch.setattr(
        blockdct, "lsb_parity", lambda b, *a: rows.append(len(b)) or lsb_parity(b, *a)
    )
    monkeypatch.setattr(engine, "_pool_factor", lambda *a: rounds.append(1) or pool_factor(*a))
    rng = np.random.default_rng(4000)
    frame = build_frame(rng.bytes(capacity(128, 128) * 93 // 800))
    _, report = embed(Image8(natural_cover(128, 128, 4000)), frame, mode="spatial8")
    blocks = report.blocks_used
    assert blocks >= 230 and report.residual_bit_errors == 0
    assert sum(rows) / blocks < 450  # 1,024 with the cut at the mean energy 64/12
    assert len(rounds) / blocks <= 1.6


def test_verify_adjust_with_nothing_screened_returns_the_first_render(monkeypatch):
    monkeypatch.setattr(engine, "_ENERGY_CUT", 0.0)
    for coeffs in _noise_cases(74, 8):
        pixels, residual = verify_adjust_block(coeffs)
        first = engine._to_pixels(inverse_dct(coeffs))
        assert np.array_equal(pixels, first)
        assert residual == int(((quantize(forward_dct(first)) & 1) != (coeffs & 1)).sum()) > 0


def test_spatial_embed_extract_round_trip():
    cover = _cover(64, 64, 7)
    secret = bytes(np.random.default_rng(8).integers(0, 256, 60, dtype=np.uint8))
    stego, report = embed(cover, build_frame(secret), mode="spatial8")
    assert isinstance(stego, Image8)
    assert report.residual_bit_errors == 0
    recovered, header = extract(stego)
    assert recovered == secret
    assert header.symbol_count == 60
    assert report.psnr_db > 40.0


def test_spatial8_round_trip_of_codes_longer_than_the_lookup_window():
    # 18 symbols with Fibonacci counts get codes of 1..17 bits; shuffled, the
    # two 17-bit codes, past decode's 16-bit window, fall mid-stream
    runs = np.frombuffer(fibonacci_secret(18), dtype=np.uint8)
    secret = np.random.default_rng(18).permutation(runs).tobytes()
    assert len(secret) == 6764 and build_table(secret).max_length == 17
    stego, report = embed(Image8(natural_cover(144, 144, 18)), build_frame(secret), "spatial8")
    assert report.residual_bit_errors == 0
    assert extract(stego)[0] == secret


def test_spatial8_on_full_range_noise_covers_has_no_residual_bits():
    # Blocks of 0..255 noise clamp at both ends, so fewer candidates render
    # as they would unclamped; the search must still find clean ones.
    secret = b"hidden in the LSBs of 8x8 block-DCT coefficients"
    for seed in range(1, 11):
        cover = Image8(np.random.default_rng(seed).integers(0, 256, (64, 64), dtype=np.uint8))
        stego, report = embed(cover, build_frame(secret), mode="spatial8")
        assert report.residual_bit_errors == 0, seed
        assert extract(stego)[0] == secret, seed


def test_extract_rejects_plain_image():
    plain = _cover(64, 64, 9)
    with pytest.raises(BadMagic):
        extract(plain)


@given(st.binary(min_size=1, max_size=120), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_container_round_trip_property(secret, seed):
    cover = Image8(natural_cover(64, 64, seed))
    container, _ = embed(cover, build_frame(secret))
    recovered, _ = extract(StegoContainer.from_bytes(container.to_bytes()))
    assert recovered == secret
