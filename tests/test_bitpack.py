"""Packing unit: index map, round trips, metadata, file format."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyprec.bitpack import (
    PackedBuffer,
    PaddedStream,
    metadata,
    pack,
    pack_into,
    packed_index,
    read_packed_file,
    unpack,
    write_packed_file,
)
from anyprec.codec import FormatSpec, Kind, parse_format
from anyprec.errors import FormatError

FP6 = parse_format("e2m3")
FP5 = parse_format("e2m2")
FP7 = parse_format("e3m3")
FP8 = parse_format("e4m3")


def test_fp6_index_example():
    # second element's bits: input 8..13 land at output 6..11
    assert [packed_index(i, 8, 6) for i in range(8, 14)] == list(range(6, 12))
    # first element maps through unchanged
    assert [packed_index(i, 8, 6) for i in range(6)] == list(range(6))


def test_identity_when_no_padding():
    assert all(packed_index(i, 8, 8) == i for i in range(64))
    stream = PaddedStream.from_elements([0xAB, 0x01, 0xFF], FP8, 8)
    buf = pack(stream)
    assert buf.words() == [0xAB, 0x01, 0xFF]


def test_fp5_four_elements_is_20_bits():
    words = [0b01001, 0b11111, 0b00001, 0b10101]
    stream = PaddedStream.from_elements(words, FP5, 8)
    buf = pack(stream)
    assert buf.nbits == 20
    assert buf.words() == words
    before = [v.to_fraction() for v in stream_decode(stream)]
    after = [v.to_fraction() for v in buf.decode_all()]
    assert before == after


def stream_decode(stream):
    from anyprec.codec import decode

    return [decode(w, stream.fmt) for w in stream.element_words()]


def test_pack_unpack_roundtrip_on_paper_example():
    words = [0b101011, 0b010101, 0b111000]
    stream = PaddedStream.from_elements(words, FP6, 8)
    buf = pack(stream, start_idx=0)
    back = unpack(buf, 8)
    assert back.words == stream.words
    again = pack(back, buf.start_bit)
    assert (again.payload, again.nbits) == (buf.payload, buf.nbits)


def test_empty_roundtrip():
    stream = PaddedStream([], 8, FP6)
    buf = pack(stream)
    assert buf.elem_count == 0 and buf.nbits == 0
    assert unpack(buf, 8).words == []


def test_random_fp7_roundtrip():
    rng = random.Random(1234)
    words = [rng.randrange(1 << 7) for _ in range(1000)]
    stream = PaddedStream.from_elements(words, FP7, 8)
    buf = pack(stream)
    assert buf.nbits == 7000
    assert unpack(buf, 8).words == stream.words


@given(
    words=st.lists(st.integers(0, 63), max_size=64),
    container=st.integers(6, 12),
    start=st.integers(0, 17),
)
def test_roundtrip_property(words, container, start):
    stream = PaddedStream.from_elements(words, FP6, container)
    buf = pack(stream, start)
    assert buf.start_bit == start
    assert buf.nbits == start + 6 * len(words)
    again = pack(unpack(buf, container), start)
    assert (again.payload, again.nbits) == (buf.payload, buf.nbits)
    assert again.elem_count == buf.elem_count


def test_chunked_packing_carries_start_idx():
    rng = random.Random(9)
    words = [rng.randrange(64) for _ in range(24)]
    whole = pack(PaddedStream.from_elements(words, FP6, 8))
    first = pack(PaddedStream.from_elements(words[:8], FP6, 8))
    merged = pack_into(first, PaddedStream.from_elements(words[8:], FP6, 8))
    assert (merged.payload, merged.nbits) == (whole.payload, whole.nbits)
    assert merged.elem_count == 24


def test_container_narrower_than_element_rejected():
    with pytest.raises(FormatError):
        PaddedStream.from_elements([0], FP6, 4)
    buf = PackedBuffer.from_words([0b000111], FP6)
    with pytest.raises(FormatError):
        unpack(buf, 5)


def test_metadata():
    for n in (0, 1, 1000):
        buf = PackedBuffer.from_words([0] * n, FP6)
        assert metadata(buf)["elem_count"] == n
    assert metadata(PackedBuffer.from_words([1], FP6))["precision"] == 6
    shifted = PackedBuffer.from_words([1, 2], FP6, start_bit=12)
    assert metadata(shifted)["start_addr"] == 12


def test_storage_saving_ratio():
    words = [0] * 100
    stream = PaddedStream.from_elements(words, FP6, 8)
    buf = pack(stream)
    padded_bits = len(words) * 8
    assert 1 - buf.nbits / padded_bits == pytest.approx(0.25)


def test_pack_is_a_bijection_on_useful_bits():
    # no output bit written twice across a realistic span
    seen = set()
    for i in range(0, 512):
        if i % 8 < 6:
            j = packed_index(i, 8, 6)
            assert j not in seen
            seen.add(j)
    assert seen == set(range(len(seen)))


def test_file_roundtrip(tmp_path):
    rng = random.Random(5)
    words = [rng.randrange(64) for _ in range(321)]
    buf = PackedBuffer.from_words(words, FP6, start_bit=3)
    path = tmp_path / "t.fxbp"
    write_packed_file(path, buf)
    back = read_packed_file(path)
    assert back.fmt == buf.fmt
    assert back.start_bit == 3
    assert back.words() == words
    # header is 18 bytes; payload padded to whole bytes at the end only
    assert path.stat().st_size == 18 + (3 + 321 * 6 + 7) // 8


def test_file_bad_magic(tmp_path):
    path = tmp_path / "bad.fxbp"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        read_packed_file(path)


def reference_pack(stream, start):
    """(payload, nbits) with every useful input bit set one at a time at its
    packed_index: the written spec that pack() must match."""
    p, c = stream.fmt.total_bits, stream.container_bits
    nbits = start + len(stream.words) * p
    out = bytearray((nbits + 7) // 8)
    for k, word in enumerate(stream.words):
        for t in range(p):
            j = packed_index(k * c + t, c, p, start)
            if (word >> (c - 1 - t)) & 1:
                out[j // 8] |= 0x80 >> (j % 8)
    return bytes(out), nbits


def test_pack_matches_index_map_on_c4_shapes():
    rng = random.Random(4)
    for e in range(1, 5):
        for m in range(5):
            fmt = parse_format(f"e{e}m{m}")
            for container in (c for c in (8, 12, 16) if c >= fmt.total_bits):
                for start in range(8):
                    n = rng.randrange(41)
                    words = [rng.randrange(1 << fmt.total_bits) for _ in range(n)]
                    stream = PaddedStream.from_elements(words, fmt, container)
                    buf = pack(stream, start)
                    assert (buf.payload, buf.nbits) == reference_pack(stream, start)
                    assert buf.words() == words


@given(
    data=st.data(),
    width=st.integers(2, 16),
    start=st.integers(1, 63),
)
def test_pack_into_chain_equals_one_pack(data, width, start):
    fmt = FormatSpec(Kind.FLOAT, exp_bits=1, man_bits=width - 2)
    container = data.draw(st.sampled_from([c for c in (8, 16) if c >= width]))
    words = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=2, max_size=60))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(words) - 1), min_size=1, max_size=3)))
    bounds = [0, *cuts, len(words)]
    chunks = [
        PaddedStream.from_elements(words[a:b], fmt, container) for a, b in zip(bounds, bounds[1:])
    ]
    buf = pack(chunks[0], start)
    for chunk in chunks[1:]:
        buf = pack_into(buf, chunk)
    whole = pack(PaddedStream.from_elements(words, fmt, container), start)
    assert buf == whole


def test_wide_format_roundtrip():
    fmt = parse_format("e20m100")
    rng = random.Random(20)
    top = (1 << fmt.total_bits) - 1
    words = [rng.randrange(top + 1) for _ in range(50)] + [top, 0]
    stream = PaddedStream.from_elements(words, fmt, 128)
    buf = pack(stream, 5)
    assert (buf.payload, buf.nbits) == reference_pack(stream, 5)
    assert buf.words() == words
    assert unpack(buf, 128).words == stream.words


def test_long_stream_roundtrip():
    # longer than one internal join chunk of 2**16 words
    rng = random.Random(70)
    words = [rng.randrange(1 << 7) for _ in range(70_001)]
    buf = pack(PaddedStream.from_elements(words, FP7, 8), 3)
    assert buf.nbits == 3 + 7 * len(words)
    assert buf.words() == words


def test_file_padding_bits_are_cleared(tmp_path):
    buf = PackedBuffer.from_words([0b101011, 0b010101, 0b111000], FP6, start_bit=1)
    assert buf.nbits % 8
    path = tmp_path / "junk.fxbp"
    write_packed_file(path, buf)
    raw = bytearray(path.read_bytes())
    raw[-1] |= (1 << (-buf.nbits % 8)) - 1
    path.write_bytes(bytes(raw))
    assert read_packed_file(path) == buf


def test_payload_length_must_match_nbits():
    with pytest.raises(FormatError):
        PackedBuffer(b"\x00\x00", 6, 1, FP6)
    with pytest.raises(FormatError):
        PackedBuffer(b"", 6, 1, FP6)


@pytest.mark.parametrize("word", [1 << 6, -1])
def test_from_words_rejects_word_wider_than_p(word):
    with pytest.raises(FormatError):
        PackedBuffer.from_words([0, word], FP6)


def stream_fault(words, container, p):
    """Per-word reference for PaddedStream's check: the message of its
    fault, a word out of range anywhere before any padding fault."""
    for w in words:
        if w < 0 or w >> container:
            return "container word out of range"
    for w in words:
        if w & ((1 << (container - p)) - 1):
            return "padding bits must be zero"
    return None


@pytest.mark.parametrize("words, container, fault", [
    ([0, -4], 8, "container word out of range"),
    ([0, 1 << 8], 8, "container word out of range"),
    ([1 << 16], 16, "container word out of range"),
    ([0b100, 0b1], 8, "padding bits must be zero"),
    ([1 << 10 | 1 << 9], 16, "padding bits must be zero"),
    ([0b10, 1 << 8], 8, "container word out of range"),
    ([0b11111100, 0], 8, None),
    ([0b111111, 0], 6, None),
])
def test_padded_stream_faults(words, container, fault):
    if fault is None:
        assert PaddedStream(words, container, FP6).words == words
        return
    with pytest.raises(FormatError, match=fault):
        PaddedStream(words, container, FP6)


def test_padded_stream_check_matches_per_word_reference():
    rng = random.Random(17)
    for _ in range(2000):
        container = rng.choice([6, 8, 16])
        fmt = FormatSpec(Kind.FLOAT, exp_bits=2, man_bits=rng.randrange(container - 2))
        pad = container - fmt.total_bits
        words = [rng.randrange(1 << fmt.total_bits) << pad for _ in range(rng.randrange(6))]
        for _ in range(rng.randrange(3)):
            if words:
                words[rng.randrange(len(words))] = rng.randrange(-2, 1 << (container + 1))
        fault = stream_fault(words, container, fmt.total_bits)
        if fault is None:
            PaddedStream(words, container, fmt)
        else:
            with pytest.raises(FormatError, match=fault):
                PaddedStream(words, container, fmt)


@pytest.mark.parametrize("start", [0, 65535])
def test_file_start_bit_limits_roundtrip(start, tmp_path):
    buf = PackedBuffer.from_words([0b101011, 0b010101], FP6, start_bit=start)
    path = tmp_path / "s.fxbp"
    write_packed_file(path, buf)
    assert read_packed_file(path) == buf


def test_file_start_bit_beyond_header_field(tmp_path):
    buf = PackedBuffer.from_words([0b101011], FP6, start_bit=65536)
    path = tmp_path / "s.fxbp"
    with pytest.raises(FormatError, match="start bit 65536"):
        write_packed_file(path, buf)
    assert not path.exists()
