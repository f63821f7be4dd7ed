"""Canonical Huffman coding tests, including an exhaustive optimality oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctsteg.huffman import (
    DOUBLING_BLOCK,
    STRIDE,
    Bitstream,
    HuffmanTable,
    build_table,
    byte_counts,
    decode,
    encode,
    parse_table,
    serialize_table,
)
from dctsteg.errors import (
    EmptyInput,
    InvalidCode,
    KraftViolation,
    StegError,
    SymbolNotInTable,
    TruncatedStream,
    WrongLength,
)
from support import (
    bitstream,
    min_prefix_cost,
    reference_canonical_codes,
    reference_code_lengths,
    reference_decode,
    stream_bits,
    with_trailing_ones,
)


def lengths_of(table):
    return {s: int(length) for s, length in enumerate(table.code_lengths) if length}


def code_of(table, symbol):
    """The codeword of symbol as a '0'/'1' string, as encode writes it."""
    return "".join(map(str, stream_bits(encode(bytes([symbol]), table)).tolist()))


def test_worked_example_lengths_and_cost():
    data = b"a" * 5 + b"b" * 2 + b"c" + b"d"
    table = build_table(data)
    lens = lengths_of(table)
    assert lens[ord("a")] == 1
    assert lens[ord("b")] == 2
    assert lens[ord("c")] == 3
    assert lens[ord("d")] == 3
    assert encode(data, table).bit_length == 15


def test_worked_example_canonical_codes():
    table = build_table(b"a" * 5 + b"b" * 2 + b"c" + b"d")
    assert stream_bits(encode(b"ab", table)).tolist() == [0, 1, 0]
    assert code_of(table, ord("a")) == "0"
    assert code_of(table, ord("b")) == "10"
    assert code_of(table, ord("c")) == "110"
    assert code_of(table, ord("d")) == "111"


def test_single_symbol_input():
    table = build_table(b"aaaa")
    assert lengths_of(table) == {ord("a"): 1}
    assert stream_bits(encode(b"aaaa", table)).tolist() == [0, 0, 0, 0]
    assert decode(encode(b"aaaa", table), table, 4) == b"aaaa"


def test_two_equal_symbols_get_one_bit_each():
    table = build_table(b"xyxy")
    lens = lengths_of(table)
    assert lens == {ord("x"): 1, ord("y"): 1}
    # canonical order: smaller byte value takes the smaller code
    assert code_of(table, ord("x")) == "0"
    assert code_of(table, ord("y")) == "1"


def test_optimality_against_exhaustive_search():
    # every multiset of counts over small alphabets
    import itertools

    for m in range(1, 5):
        for counts in itertools.combinations_with_replacement(range(1, 6), m):
            data = b"".join(bytes([s]) * c for s, c in enumerate(counts))
            table = build_table(data)
            cost = sum(counts[s] * length for s, length in lengths_of(table).items())
            assert cost == min_prefix_cost(list(counts)), counts


def test_kraft_inequality_holds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        data = rng.integers(0, 256, n).astype(np.uint8).tobytes()
        table = build_table(data)
        lens = list(lengths_of(table).values())
        top = max(lens)
        total = sum(1 << (top - l) for l in lens)
        if len(lens) >= 2:
            assert total == 1 << top  # optimal codes are complete
        else:
            assert total <= 1 << top


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        build_table(b"")


@pytest.mark.parametrize(
    "lengths, message",
    [
        ([0] * 255, "must have 256 entries"),
        ([0] * 257, "must have 256 entries"),
        ([-1] + [0] * 255, r"must be in \[0, 255\]"),
        ([256] + [0] * 255, r"must be in \[0, 255\]"),
    ],
    ids=["255 lengths", "257 lengths", "length -1", "length 256"],
)
def test_huffman_table_rejects_a_bad_shape_or_length(lengths, message):
    with pytest.raises(ValueError, match=message):
        HuffmanTable(lengths)


def test_encode_unknown_symbol():
    table = build_table(b"ab")
    with pytest.raises(SymbolNotInTable):
        encode(b"abq", table)


def test_encode_names_the_smallest_absent_symbol():
    table = build_table(b"ab")
    with pytest.raises(SymbolNotInTable, match="symbol 0x10 has no codeword"):
        encode(b"a\xf0\x10b", table)


# lengths on either side of each of the first slice edges
_SLICE_EDGES = sorted({max(0, k * DOUBLING_BLOCK + d) for k in range(4) for d in (-1, 0, 1)})


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    st.builds(lambda n, seed: np.random.default_rng(seed).bytes(n),
              st.sampled_from(_SLICE_EDGES), st.integers(0, 2**32 - 1)),
    st.builds(lambda n, b: bytes([b]) * n, st.sampled_from(_SLICE_EDGES), st.integers(0, 255)),
))
def test_byte_counts_equal_bincount(data):
    want = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    got = byte_counts(data)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_decode_invalid_code():
    table = build_table(b"aaaa")  # lone symbol, code "0"
    with pytest.raises(InvalidCode):
        decode(bitstream([1]), table, 1)


def test_decode_truncated_stream():
    table = build_table(b"a" * 5 + b"b" * 2 + b"c" + b"d")
    bits = encode(b"ab", table)
    with pytest.raises(TruncatedStream):
        decode(bitstream(stream_bits(bits)[:-1]), table, 2)


def test_decode_zero_symbols():
    table = build_table(b"ab")
    assert decode(Bitstream(b"", 0), table, 0) == b""


def test_serialized_table_is_fixed_width_lengths():
    packed = serialize_table(build_table(b"aaaa"))
    assert len(packed) == 256
    assert packed[0x61] == 0x01
    assert all(b == 0 for i, b in enumerate(packed) if i != 0x61)


def test_parse_table_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        data = rng.integers(0, rng.integers(2, 257), n).astype(np.uint8).tobytes()
        table = build_table(data)
        assert parse_table(serialize_table(table)) == table


def test_parse_table_wrong_length():
    with pytest.raises(WrongLength):
        parse_table(bytes(255))
    with pytest.raises(WrongLength):
        parse_table(bytes(257))


def test_parse_table_kraft_violation():
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[0] = 1
    lengths[1] = 1
    lengths[2] = 1  # sum 2^-1 * 3 > 1
    with pytest.raises(KraftViolation):
        parse_table(lengths.tobytes())


def test_parse_table_accepts_exact_kraft_equality():
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[10] = 1
    lengths[20] = 2
    lengths[30] = 3
    lengths[40] = 3  # sums to exactly 1
    table = parse_table(lengths.tobytes())
    assert code_of(table, 10) == "0"
    assert code_of(table, 40) == "111"


def test_parse_all_zero_table():
    table = parse_table(bytes(256))
    assert lengths_of(table) == {}


@given(st.binary(min_size=1, max_size=600))
@settings(max_examples=80, deadline=None)
def test_round_trip_any_bytes(data):
    table = build_table(data)
    bits = encode(data, table)
    assert decode(bits, table, len(data)) == data
    assert parse_table(serialize_table(table)) == table


@given(
    st.one_of(
        st.binary(min_size=1, max_size=2000),
        st.lists(st.sampled_from(b"q"), min_size=1).map(bytes),  # one symbol
        st.lists(st.sampled_from(b"\x00\xff"), min_size=1, max_size=300).map(bytes),
        st.lists(st.integers(0, 255), min_size=1, max_size=64).map(lambda s: bytes(s) * 3),
    )
)
@settings(max_examples=300, deadline=None)
def test_code_lengths_equal_the_depth_map_builder(data):
    assert build_table(data).code_lengths.tolist() == reference_code_lengths(data).tolist()


def test_code_lengths_equal_the_depth_map_builder_on_large_secrets():
    rng = np.random.default_rng(17)
    secrets = [
        rng.bytes(30_000),
        b"hidden in the LSBs of 8x8 block-DCT coefficients " * 400,
        rng.geometric(0.05, 30_000).clip(0, 255).astype(np.uint8).tobytes(),
        bytes(range(256)) * 4,  # all weights tie
        bytes([0, 1]),
    ]
    for data in secrets:
        assert build_table(data).code_lengths.tolist() == reference_code_lengths(data).tolist()


def test_uniform_data_is_incompressible():
    data = bytes(range(256)) * 8
    table = build_table(data)
    assert encode(data, table).bit_length >= 0.99 * 8 * len(data)


def test_skewed_data_compresses():
    data = b"a" * 900 + b"bcd" * 10
    table = build_table(data)
    assert encode(data, table).bit_length < 0.3 * 8 * len(data)


def test_decode_255_bit_codes():
    # Kraft-exact chain: symbol s has length s + 1, symbols 254 and 255 share 255
    lengths = np.append(np.arange(1, 256), 255).astype(np.uint8)
    table = parse_table(lengths.tobytes())
    assert table.max_length == 255
    data = b"\xfe\xff\x00d\xff"
    bits = encode(data, table)
    assert bits.bit_length == 255 + 255 + 1 + 101 + 255
    assert decode(bits, table, len(data)) == data


def test_canonical_tables_match_reference_codes():
    rng = np.random.default_rng(6)
    chain = np.append(np.arange(1, 256), 255)
    tables = [build_table(rng.integers(0, rng.integers(2, 257), 500).astype(np.uint8).tobytes())
              for _ in range(20)]
    tables.append(parse_table(chain.astype(np.uint8).tobytes()))
    for table in tables:
        lengths = table.code_lengths.tolist()
        reference = reference_canonical_codes(lengths)
        assert set(reference) == set(table.symbols)
        for index, symbol in enumerate(table.symbols):
            code, length = reference[symbol]
            assert code_of(table, symbol) == format(code, f"0{length}b")
            assert table.first_index[length] <= index < table.first_index[length] + table.count[length]
            assert code == table.first_code[length] + index - table.first_index[length]
        assert table.count[1:] == [lengths.count(l) for l in range(1, table.max_length + 1)]


def outcome(decoder, bits, table, symbol_count):
    """Decoded bytes, or the class and message of the error raised."""
    try:
        return decoder(bits, table, symbol_count)
    except StegError as exc:
        return type(exc), str(exc)


def complete_table(length, symbols):
    """The complete fixed-length code: the first 2**length of symbols, each length bits long."""
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[list(symbols)[:1 << length]] = length
    return parse_table(lengths.tobytes())


@st.composite
def code_tables(draw):
    """Tables from build_table, complete fixed-length codes, or Kraft-exact or
    incomplete ones through parse_table."""
    kind = draw(st.sampled_from(["built", "complete", "chain"]))
    if kind == "built":
        return build_table(draw(st.binary(min_size=1, max_size=300)))
    if kind == "complete":
        return complete_table(draw(st.integers(1, 8)), draw(st.permutations(range(256))))
    # a chain with a codeword of every length up to top is Kraft-exact, and
    # stays so as leaves split; dropping leaves makes it incomplete
    top = draw(st.integers(1, 255))
    leaves = list(range(1, top)) + [top, top]
    for pick in draw(st.lists(st.integers(0, 255), max_size=256 - len(leaves))):
        depth = leaves[pick % len(leaves)]
        if depth < 255:
            leaves[pick % len(leaves)] = depth + 1
            leaves.append(depth + 1)
    if len(leaves) > 1:
        dropped = draw(st.sets(st.integers(0, len(leaves) - 1), max_size=len(leaves) - 1))
        leaves = [d for i, d in enumerate(leaves) if i not in dropped]
    symbols = draw(st.permutations(range(256)))
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[symbols[:len(leaves)]] = leaves
    return parse_table(lengths.tobytes())


@given(code_tables(), st.data())
@settings(max_examples=400, deadline=None)
def test_decode_matches_per_bit_reference(table, data):
    if data.draw(st.booleans()):
        # short secrets drawn uniformly: long codewords are as likely as short ones
        secret = bytes(data.draw(st.lists(st.sampled_from(table.symbols), min_size=1, max_size=40)))
    else:
        # up to 50 strides of symbols drawn with probability 2**-length, so
        # short codewords fill the strides, with a few uniformly drawn symbols
        # spliced in to stall strides on long codewords
        size = data.draw(st.integers(1, 50 * STRIDE))
        weights = np.exp2(-table.code_lengths[table.symbols].astype(float))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        run = rng.choice(table.symbols, size, p=weights / weights.sum()).tolist()
        spliced = st.tuples(st.integers(0, size), st.sampled_from(table.symbols))
        for at, symbol in data.draw(st.lists(spliced, min_size=1, max_size=8)):
            run.insert(at, symbol)
        secret = bytes(run)
    bits = stream_bits(encode(secret, table)).copy()
    for i in data.draw(st.lists(st.integers(0, bits.size - 1), max_size=3)):
        bits[i] ^= 1
    if data.draw(st.booleans()):
        bits = bits[:data.draw(st.integers(0, bits.size))]
    count = max(0, len(secret) + data.draw(st.integers(-2, 5)))
    stream = bitstream(bits)
    expected = outcome(reference_decode, stream, table, count)
    assert outcome(decode, stream, table, count) == expected
    assert outcome(decode, with_trailing_ones(stream), table, count) == expected


@given(st.integers(1, 8), st.permutations(range(256)), st.data())
@settings(max_examples=100, deadline=None)
def test_encode_complete_codes_joins_the_reference_codes(length, symbols, data):
    table = complete_table(length, symbols)
    assert table.count[length] == 1 << length and len(table.symbols) == 1 << length
    codes = reference_canonical_codes(table.code_lengths.tolist())
    secret = bytes(data.draw(st.lists(st.sampled_from(table.symbols), max_size=300)))
    joined = "".join(format(code, f"0{length}b") for code, _ in map(codes.__getitem__, secret))
    bits = encode(secret, table)
    assert "".join(map(str, stream_bits(bits).tolist())) == joined
    assert decode(bits, table, len(secret)) == secret
    assert decode(with_trailing_ones(bits), table, len(secret)) == secret
    # cut inside the last code, with the bits after the cut zero and then ones
    if secret:
        short = bitstream(stream_bits(bits)[:-1])
        for stream in (short, with_trailing_ones(short)):
            assert outcome(decode, stream, table, len(secret)) == outcome(
                reference_decode, short, table, len(secret))


@pytest.mark.parametrize("long", [16, 17, 56, 57, 58, 64])
def test_decode_long_codes_first_and_last(long):
    # symbol s has length s + 1 below long; symbols long - 1 and long share it
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[:long] = np.arange(1, long + 1)
    lengths[long] = long
    table = parse_table(lengths.tobytes())
    assert code_of(table, long - 1).endswith("0")
    for secret in [bytes([long - 1]), bytes([long, 0, 3, long - 1]), bytes([long - 1, 7, long])]:
        bits = encode(secret, table)
        # the last codeword ends on the last bit
        assert bits.bit_length == sum(int(lengths[s]) for s in secret)
        for stream in (bits, with_trailing_ones(bits)):
            assert decode(stream, table, len(secret)) == secret
            assert decode(stream, table, len(secret) - 1) == secret[:-1]
        # zero fill past the end would complete the code of long - 1, which
        # ends in 0; ones after the end would complete the code of long
        short = bitstream(stream_bits(bits)[:-1])
        for stream in (short, with_trailing_ones(short)):
            with pytest.raises(TruncatedStream, match=f"after {len(secret) - 1} of {len(secret)}"):
                decode(stream, table, len(secret))
            assert outcome(decode, stream, table, len(secret)) == outcome(
                reference_decode, short, table, len(secret))


@pytest.mark.parametrize("at", range(STRIDE + 1))
def test_decode_long_code_inside_and_after_the_first_stride(at):
    # symbol s has length s + 1, and 17 shares length 17 with 16: codes of 1-4
    # bits fill the strides, and symbol 17, seventeen ones, is longer than
    # LOOKUP_BITS, so the stride that holds it stalls
    lengths = np.zeros(256, dtype=np.uint8)
    lengths[:17] = np.arange(1, 18)
    lengths[17] = 17
    table = parse_table(lengths.tobytes())
    assert code_of(table, 17) == "1" * 17
    plain = bytes([0, 1, 2, 3, 0, 0, 1]) * (3 * STRIDE)
    secret = plain[:at] + b"\x11" + plain[at:3 * STRIDE]
    bits = encode(secret, table)
    for cut in [bits.bit_length, bits.bit_length - 1]:
        stream = bitstream(stream_bits(bits)[:cut])
        for j in [1, 2, 3]:
            for count in [j * STRIDE - 1, j * STRIDE, j * STRIDE + 1]:
                expected = outcome(reference_decode, stream, table, count)
                if cut == bits.bit_length:
                    assert expected == secret[:count]
                assert outcome(decode, stream, table, count) == expected
                assert outcome(decode, with_trailing_ones(stream), table, count) == expected


def test_decode_spans_several_doubling_blocks():
    # short codewords run across three doubling-block boundaries, so strides
    # near a boundary reach offsets that a later block composes; each shift
    # moves the stride heads against the boundaries
    table = build_table(b"a" * 8 + b"b" * 4 + b"c" * 2 + b"d")
    rng = np.random.default_rng(3)
    weights = [8 / 15, 4 / 15, 2 / 15, 1 / 15]
    run = rng.choice(np.frombuffer(b"abcd", np.uint8), 2 * DOUBLING_BLOCK, p=weights).tobytes()
    for shift in range(STRIDE):
        secret = run[shift:]
        bits = encode(secret, table)
        assert bits.bit_length > 3 * DOUBLING_BLOCK
        assert decode(bits, table, len(secret)) == secret
    flipped = stream_bits(bits).copy()
    flipped[2 * DOUBLING_BLOCK + 5] ^= 1
    stream = bitstream(flipped)
    for count in [len(secret) - 1, len(secret)]:
        assert outcome(decode, stream, table, count) == outcome(reference_decode, stream, table, count)

def test_decode_huge_symbol_count_is_bounded_by_the_stream():
    table = build_table(b"ab")
    with pytest.raises(TruncatedStream, match="^stream ended after 64 of 4294967295 symbols$"):
        decode(Bitstream(bytes(8), 64), table, 2**32 - 1)
