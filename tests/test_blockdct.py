"""Transform layer checked against literal-summation oracles."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dctsteg import Image8
from dctsteg.blockdct import (
    assemble,
    forward_dct,
    inverse_dct,
    lsb_parity,
    partition,
    quantize,
)
from dctsteg.engine import get_lsb
from dctsteg.errors import NotBlockAligned
from support import (
    literal_forward,
    literal_inverse,
    oracle_forward_many,
    oracle_inverse_many,
)

pixel_blocks = hnp.arrays(np.uint8, (8, 8))


def test_constant_block_concentrates_in_dc():
    coeffs = forward_dct(np.full((8, 8), 128.0))
    assert abs(coeffs[0, 0] - 1024.0) < 1e-9
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-9


def test_zero_block_maps_to_zero():
    assert np.abs(forward_dct(np.zeros((8, 8)))).max() == 0.0
    assert np.abs(inverse_dct(np.zeros((8, 8)))).max() == 0.0


def test_forward_matches_literal_sum():
    rng = np.random.default_rng(7)
    for _ in range(25):
        block = rng.uniform(0.0, 255.0, (8, 8))
        assert np.abs(forward_dct(block) - literal_forward(block)).max() < 1e-9


def test_inverse_matches_literal_sum():
    rng = np.random.default_rng(8)
    for _ in range(25):
        coeffs = rng.uniform(-1024.0, 1024.0, (8, 8))
        assert np.abs(inverse_dct(coeffs) - literal_inverse(coeffs)).max() < 1e-9


def test_forward_matches_scipy_orthonormal():
    rng = np.random.default_rng(9)
    for _ in range(25):
        block = rng.uniform(0.0, 255.0, (8, 8))
        ref = scipy.fft.dctn(block, type=2, norm="ortho")
        assert np.abs(forward_dct(block) - ref).max() < 1e-9


def test_batched_forward_matches_single():
    # and so does the inverse, each with and without a caller's buffer
    blocks = np.random.default_rng(10).uniform(-255.0, 255.0, (17, 8, 8))
    for transform, oracle in [(forward_dct, oracle_forward_many), (inverse_dct, oracle_inverse_many)]:
        batched = transform(blocks)
        for i in range(17):
            assert np.array_equal(batched[i], transform(blocks[i]))
            assert np.array_equal(batched[i], transform(blocks[i], out=np.empty((2, 8, 8))))
        assert np.array_equal(batched, transform(blocks, out=np.empty((2, 17, 8, 8))))
        assert np.abs(batched - oracle(blocks)).max() < 1e-9


@pytest.mark.parametrize("transform", [forward_dct, inverse_dct])
def test_transforms_reject_blocks_of_other_shapes(transform):
    for shape in [(8,), (8, 7), (3, 7, 8), ()]:
        with pytest.raises(ValueError):
            transform(np.zeros(shape))


@given(pixel_blocks)
@settings(max_examples=50, deadline=None)
def test_round_trip_recovers_pixels(block):
    rebuilt = inverse_dct(forward_dct(block.astype(np.float64)))
    assert np.abs(rebuilt - block).max() < 1e-9


@given(pixel_blocks)
@settings(max_examples=50, deadline=None)
def test_energy_is_preserved(block):
    spatial = block.astype(np.float64)
    coeffs = forward_dct(spatial)
    e_spatial = float((spatial * spatial).sum())
    e_coeffs = float((coeffs * coeffs).sum())
    assert abs(e_spatial - e_coeffs) <= 1e-6 * max(e_spatial, 1.0)


def test_coefficient_magnitude_bound():
    rng = np.random.default_rng(11)
    blocks = rng.integers(0, 256, (2000, 8, 8)).astype(np.float64)
    assert np.abs(forward_dct(blocks)).max() <= 4080.0 + 1e-9
    # the extremes themselves
    assert abs(forward_dct(np.full((8, 8), 255.0))[0, 0] - 2040.0) < 1e-9
    checker = 255.0 * ((np.arange(8)[:, None] + np.arange(8)[None, :]) % 2)
    assert np.abs(forward_dct(checker)).max() <= 4080.0 + 1e-9


def test_rounding_is_half_away_from_zero():
    vals = np.array([2.5, -2.5, 0.4999, -0.4999, 0.5, -0.5, 1.5, -1.5, 0.0])
    want = np.array([3.0, -3.0, 0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.0])
    assert np.array_equal(quantize(vals), want)


def test_quantize_examples():
    coeffs = np.full((8, 8), 0.0)
    coeffs[0, 0] = 2.5
    coeffs[0, 1] = -2.5
    coeffs[0, 2] = 0.4999
    q = quantize(coeffs)
    assert q.dtype == np.int64
    assert q[0, 0] == 3
    assert q[0, 1] == -3
    assert q[0, 2] == 0


@given(hnp.arrays(np.float64, (8, 8), elements=st.floats(-4000, 4000)))
@settings(max_examples=50, deadline=None)
def test_quantize_moves_at_most_half(coeffs):
    q = quantize(coeffs)
    assert np.abs(q - coeffs).max() <= 0.5
    assert np.array_equal(quantize(q.astype(np.float64)), q)


def _parity_cases(rng, n):
    """n pixel blocks of each kind whose parity could go wrong."""
    flat = np.repeat(rng.integers(0, 255, (n, 1, 1)), 64).reshape(n, 8, 8)
    tie_sum = flat.astype(np.float64)  # pixel sum = 4 (mod 8): DC = sum / 8 on a .5 tie
    tie_sum[:, 0, :4] += 1.0
    slope = np.arange(64.0).reshape(8, 8) * 4.0
    return {
        "random pixels": rng.integers(0, 256, (n, 8, 8)).astype(np.float64),
        "flat, DC on a tie": flat + 1.0 / 16.0,
        "flat, negative DC on a tie": -flat - 1.0 / 16.0,
        "flat, pixel sum on a tie": tie_sum,
        "negative coefficients": 255.0 - slope + rng.integers(-3, 4, (n, 8, 8)),
        "negative reals": rng.uniform(-300.0, 600.0, (n, 8, 8)),
    }


@pytest.mark.parametrize("n", [1, 7, 2048])
def test_lsb_parity_is_quantized_forward_lsb(n):
    cases = _parity_cases(np.random.default_rng(n), n)
    for kind, blocks in cases.items():
        want = get_lsb(quantize(forward_dct(blocks))).astype(bool)
        assert np.array_equal(lsb_parity(blocks), want), kind
    negative = quantize(forward_dct(cases["negative coefficients"])) < 0
    assert negative.any(axis=(1, 2)).all()


def test_lsb_parity_in_workspace_views():
    rng = np.random.default_rng(5)
    work = np.empty((2, 2048, 8, 8))
    out = np.empty((2048, 8, 8), dtype=bool)
    for kind, blocks in _parity_cases(rng, 7).items():
        before = blocks.copy()
        want = get_lsb(quantize(forward_dct(blocks))).astype(bool)
        assert np.array_equal(forward_dct(blocks, out=work[:, 100:107]), forward_dct(blocks))
        got = lsb_parity(blocks, work[:, 100:107], out[100:107])
        assert np.shares_memory(got, out) and np.array_equal(got, want), kind
        assert np.array_equal(blocks, before), kind


def test_partition_shapes_and_order():
    img = Image8(np.arange(512 * 512, dtype=np.int64).reshape(512, 512) % 256)
    blocks = partition(img)
    assert blocks.shape == (4096, 8, 8)
    assert blocks.dtype == np.float64
    # row-major block order: second block is columns 8..15 of the top rows
    assert np.array_equal(blocks[1], img.pixels[0:8, 8:16].astype(np.float64))
    assert np.array_equal(blocks[64], img.pixels[8:16, 0:8].astype(np.float64))


def test_partition_rejects_misaligned():
    with pytest.raises(NotBlockAligned):
        partition(Image8(np.zeros((8, 12), dtype=np.uint8)))
    with pytest.raises(NotBlockAligned):
        partition(Image8(np.zeros((9, 16), dtype=np.uint8)))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_assemble_inverts_partition(bw, bh, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (8 * bh, 8 * bw)).astype(np.float64)
    blocks = partition(pixels)
    assert blocks.shape == (bw * bh, 8, 8)
    assert np.array_equal(assemble(blocks, 8 * bw, 8 * bh), pixels)
