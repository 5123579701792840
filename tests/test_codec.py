"""Format parsing, decode/encode, and exact reference arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anyprec.codec import (
    ExactNumber,
    FormatSpec,
    Kind,
    MxBlock,
    Rounding,
    add_ref,
    decode,
    encode,
    mul_ref,
    mx_dot_ref,
    parse_format,
)
from anyprec.errors import FormatError, ShapeError

E2M3 = parse_format("e2m3")
E3M2 = parse_format("e3m2")
E2M2 = parse_format("e2m2")


def all_float_formats(max_total: int, min_total: int = 3):
    for total in range(min_total, max_total + 1):
        for e in range(1, total):
            yield FormatSpec(Kind.FLOAT, exp_bits=e, man_bits=total - 1 - e)


class TestParsing:
    @pytest.mark.parametrize(
        "text,e,m",
        [("e2m3", 2, 3), ("E5M10", 5, 10), ("fp6:e2m3", 2, 3), ("e3m0", 3, 0)],
    )
    def test_float_roundtrip(self, text, e, m):
        fmt = parse_format(text)
        assert (fmt.exp_bits, fmt.man_bits) == (e, m)
        assert parse_format(fmt.render()) == fmt

    def test_int_roundtrip(self):
        fmt = parse_format("int8")
        assert fmt.kind is Kind.INT and fmt.signed and fmt.man_bits == 7
        assert fmt.total_bits == 8
        assert fmt.render() == "int8"
        ufmt = parse_format("uint4")
        assert not ufmt.signed and ufmt.man_bits == 4

    @pytest.mark.parametrize("bad", ["fp7:e2m3", "e0m3", "m3e2", "float16", "int1"])
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_format(bad)

    def test_default_bias(self):
        assert E2M3.bias_value == 1
        assert parse_format("e5m10").bias_value == 15
        assert parse_format("e1m2").bias_value == 0


class TestDecode:
    def test_e2m3_example(self):
        v = decode("0_10_011", E2M3)
        assert (v.sign, v.exp_field, v.man_field) == (0, 2, 3)
        assert v.to_fraction() == Fraction(11, 4)  # (1 + 3/8) * 2^(2-1)

    def test_all_zero_is_zero(self):
        v = decode("000000", E2M3)
        assert v.is_zero and v.to_fraction() == 0

    def test_e3m2_negative_one(self):
        v = decode("1_011_00", E3M2)
        assert v.to_fraction() == -1  # e == bias

    def test_nonzero_exponent_zero_mantissa_is_not_zero(self):
        v = decode("1_00_000", E2M3)
        assert not v.is_zero
        assert v.to_fraction() == Fraction(-1, 2)  # -(1+0) * 2^(0-1)

    def test_length_mismatch(self):
        with pytest.raises(FormatError):
            decode("0101010", E2M3)
        with pytest.raises(FormatError):
            decode(64, E2M3)

    def test_int_sign_magnitude(self):
        fmt = parse_format("int4")
        assert decode(0b0101, fmt).to_fraction() == 5
        assert decode(0b1101, fmt).to_fraction() == -5
        assert decode(0, fmt).is_zero


class TestEncode:
    def test_exact_roundtrip_example(self):
        v = ExactNumber.from_int(11).mul(ExactNumber(0, 1, -2))  # 2.75
        assert encode(v, E2M3).word() == 0b0_10_011

    def test_zero(self):
        assert encode(ExactNumber.zero(), E2M3).word() == 0

    def test_truncation(self):
        # 2.8125 = 1.01101 * 2^1 truncates to 2.75 in e2m3
        v = ExactNumber(0, 45, -4)
        assert encode(v, E2M3).to_fraction() == Fraction(11, 4)

    def test_saturation_on_overflow(self):
        v = ExactNumber.from_int(1 << 20)
        out = encode(v, E2M3)
        assert out.word() == 0b0_11_111  # max finite = 7.5
        assert out.to_fraction() == Fraction(15, 2)

    def test_underflow_flushes_to_zero(self):
        v = ExactNumber(0, 1, -40)
        assert encode(v, E2M3).is_zero

    def test_nearest_even_hook(self):
        # 2.8125 is below the 2.75/3.0 midpoint: both modes keep 2.75
        v = ExactNumber(0, 45, -4)
        assert encode(v, E2M3, Rounding.NEAREST_EVEN).to_fraction() == Fraction(11, 4)
        # 2.875 is exactly halfway between 2.75 and 3.0 (tie -> even mantissa)
        tie = ExactNumber(0, 23, -3)
        assert encode(tie, E2M3, Rounding.NEAREST_EVEN).to_fraction() == 3
        assert encode(tie, E2M3).to_fraction() == Fraction(11, 4)

    def test_int_encode(self):
        i8 = parse_format("int8")
        assert encode(ExactNumber.from_int(-42), i8).to_fraction() == -42
        assert encode(ExactNumber.from_int(300), i8).to_fraction() == 127
        assert encode(ExactNumber(0, 3, -1), i8).to_fraction() == 1  # 1.5 -> 1

    @pytest.mark.parametrize("fmt", list(all_float_formats(12)))
    def test_roundtrip_exhaustive(self, fmt):
        for word in range(1 << fmt.total_bits):
            assert encode(decode(word, fmt).to_exact(), fmt).word() == word

    @given(
        sig=st.integers(min_value=0, max_value=1 << 24),
        exp2=st.integers(min_value=-12, max_value=12),
        sign=st.integers(min_value=0, max_value=1),
    )
    def test_truncation_never_increases_magnitude(self, sig, exp2, sign):
        v = ExactNumber(sign, sig, exp2)
        out = encode(v, E2M3)
        assert abs(out.to_fraction()) <= abs(v.to_fraction())

    def test_half_encodes_as_zero(self):
        # +1/2 = 2^-bias of e2m3 has all-zero fields, so its word is 0
        out = encode(ExactNumber(0, 1, -1), E2M3)
        assert out.word() == 0 and out.is_zero and out.to_exact().is_zero

    @given(
        fmt=st.sampled_from(
            list(all_float_formats(12))
            + [parse_format(f"{u}int{bits}") for u in ("", "u") for bits in range(2, 13)]
        ),
        # powers of two reach the all-zero-field value 2^-bias
        sig=st.one_of(
            st.integers(min_value=0, max_value=1 << 24), st.integers(0, 24).map(lambda b: 1 << b)
        ),
        exp2=st.integers(min_value=-40, max_value=40),
        sign=st.integers(min_value=0, max_value=1),
    )
    @example(fmt=E2M3, sig=4, exp2=-3, sign=0)
    def test_encoded_value_is_its_word(self, fmt, sig, exp2, sign):
        out = encode(ExactNumber(sign, sig, exp2), fmt)
        assert decode(out.word(), fmt) == out


class TestMulRef:
    def test_simple(self):
        a = encode(ExactNumber(0, 3, -1), E2M3)  # 1.5
        b = encode(ExactNumber.from_int(2), E2M3)
        assert mul_ref(a, b).to_fraction() == 3

    def test_zero_operand(self):
        z = decode(0, E2M3)
        x = decode(0b0_10_011, E2M3)
        assert mul_ref(x, z).is_zero

    def test_max_squared(self):
        m = decode(0b0_11_111, E2M3)  # 7.5
        assert mul_ref(m, m).to_fraction() == Fraction(225, 4)  # 56.25

    def test_mixed_formats_use_own_biases(self):
        a = decode("0_10_011", E2M3)  # 2.75
        b = decode("0_100_01", E3M2)  # (1+1/4)*2^(4-3) = 2.5
        assert mul_ref(a, b).to_fraction() == Fraction(11, 4) * Fraction(5, 2)

    @given(wa=st.integers(0, 63), wb=st.integers(0, 63))
    def test_commutative_and_sign_rule(self, wa, wb):
        a, b = decode(wa, E2M3), decode(wb, E2M3)
        p, q = mul_ref(a, b), mul_ref(b, a)
        assert p.to_fraction() == q.to_fraction()
        if not p.is_zero:
            assert p.sign == a.sign ^ b.sign
        assert p.to_fraction() == a.to_fraction() * b.to_fraction()


class TestAddRef:
    def test_cancellation(self):
        x = decode("0_10_011", E2M3).to_exact()
        assert add_ref(x, x.neg()).is_zero

    def test_simple(self):
        assert add_ref(ExactNumber(0, 3, -1), ExactNumber.from_int(2)).to_fraction() == Fraction(7, 2)

    def test_no_truncation_at_oracle_level(self):
        small = ExactNumber(0, 3, -5)  # 0.09375
        big = ExactNumber.from_int(56)
        assert add_ref(small, big).to_fraction() == Fraction(1795, 32)  # 56.09375

    def test_sign_follows_larger_magnitude(self):
        s = add_ref(ExactNumber.from_int(-5), ExactNumber.from_int(3))
        assert s.sign == 1 and s.to_fraction() == -2

    @given(
        st.tuples(st.integers(-64, 64), st.integers(-64, 64), st.integers(-64, 64))
    )
    def test_associative_exactly(self, triple):
        a, b, c = (ExactNumber.from_int(v).mul(ExactNumber(0, 1, -3)) for v in triple)
        left = add_ref(add_ref(a, b), c)
        right = add_ref(a, add_ref(b, c))
        assert left.to_fraction() == right.to_fraction()


class TestMxDot:
    def _block(self, scale_word, elem_words, fmt, scale_fmt):
        scale = decode(scale_word, scale_fmt)
        elems = tuple(decode(w, fmt) for w in elem_words)
        return MxBlock(scale, elems, len(elems))

    def test_k1_reduces_to_mul(self):
        sf = parse_format("e3m0")
        one = encode(ExactNumber.from_int(1), sf)
        a = MxBlock(one, (encode(ExactNumber(0, 3, -1), E2M3),), 1)
        w = MxBlock(one, (encode(ExactNumber.from_int(2), E2M3),), 1)
        assert mx_dot_ref(a, w).to_fraction() == 3

    def test_cancellation_with_scale(self):
        sf = parse_format("e3m0")
        two = encode(ExactNumber.from_int(2), sf)
        one = encode(ExactNumber.from_int(1), sf)
        pos = encode(ExactNumber.from_int(1), E2M3)
        neg = encode(ExactNumber.from_int(-1), E2M3)
        a = MxBlock(two, (pos, pos), 2)
        w = MxBlock(one, (pos, neg), 2)
        assert mx_dot_ref(a, w).is_zero

    def test_k4_matches_elementwise_oracle(self):
        import random

        rng = random.Random(7)
        fmt = parse_format("e2m1")
        sf = parse_format("e3m0")
        for _ in range(50):
            aw = [rng.randrange(16) for _ in range(4)]
            ww = [rng.randrange(16) for _ in range(4)]
            a = self._block(rng.randrange(1, 16), aw, fmt, sf)
            w = self._block(rng.randrange(1, 16), ww, fmt, sf)
            expect = sum(
                (ea.to_fraction() * ew.to_fraction() for ea, ew in zip(a.elements, w.elements)),
                Fraction(0),
            ) * a.scale.to_fraction() * w.scale.to_fraction()
            assert mx_dot_ref(a, w).to_fraction() == expect

    def test_size_mismatch(self):
        sf = parse_format("e3m0")
        one = encode(ExactNumber.from_int(1), sf)
        x = encode(ExactNumber.from_int(1), E2M3)
        a = MxBlock(one, (x,), 1)
        w = MxBlock(one, (x, x), 2)
        with pytest.raises(ShapeError):
            mx_dot_ref(a, w)
