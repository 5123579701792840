"""Arbitrary-width scalar formats, bit-exact encode/decode, and exact
reference arithmetic.

A float word is laid out MSB-first as [sign | exponent | mantissa]; an int
word as [sign | magnitude] (sign-magnitude, which is what a sign-register /
magnitude-multiplier datapath naturally produces). There are no subnormals,
NaNs, or infinities: the all-zero word is the unique encoding of zero and
every other word carries an implicit leading 1.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError, ShapeError


class Kind(enum.Enum):
    FLOAT = "float"
    INT = "int"


class Rounding(enum.Enum):
    TRUNCATE = "truncate_toward_zero"
    NEAREST_EVEN = "nearest_even"


_FMT_RE = re.compile(r"^(?:fp(?P<total>\d+):)?e(?P<e>\d+)m(?P<m>\d+)$")
_INT_RE = re.compile(r"^(?P<u>u?)int(?P<n>\d+)$")


@dataclass(frozen=True)
class FormatSpec:
    """An arbitrary scalar format: float e/m split or sign-magnitude int."""

    kind: Kind
    exp_bits: int = 0
    man_bits: int = 0
    signed: bool = True
    bias: int | None = None

    def __post_init__(self):
        if self.kind is Kind.FLOAT:
            if self.exp_bits < 1:
                raise FormatError("float formats need at least one exponent bit")
            if not self.signed:
                raise FormatError("float formats always carry a sign bit")
        else:
            if self.exp_bits != 0:
                raise FormatError("int formats have no exponent field")
            if self.bias is not None:
                raise FormatError("int formats have no bias")
        if self.man_bits < 0:
            raise FormatError("negative mantissa width")
        if self.total_bits < 2:
            raise FormatError(f"{self.render()} is narrower than 2 bits")

    @property
    def total_bits(self) -> int:
        if self.kind is Kind.FLOAT:
            return 1 + self.exp_bits + self.man_bits
        return self.man_bits + (1 if self.signed else 0)

    @property
    def bias_value(self) -> int:
        if self.kind is not Kind.FLOAT:
            return 0
        if self.bias is not None:
            return self.bias
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def exp_max(self) -> int:
        return (1 << self.exp_bits) - 1

    @property
    def man_max(self) -> int:
        return (1 << self.man_bits) - 1

    def render(self) -> str:
        if self.kind is Kind.FLOAT:
            return f"e{self.exp_bits}m{self.man_bits}"
        return f"{'' if self.signed else 'u'}int{self.total_bits}"

    def __str__(self) -> str:
        return self.render()


def parse_format(text: str) -> FormatSpec:
    """Parse "eXmY", "intN", "uintN", or "fpN:eXmY" (case-insensitive)."""
    s = text.strip().lower()
    m = _FMT_RE.match(s)
    if m:
        e, mm = int(m.group("e")), int(m.group("m"))
        fmt = FormatSpec(Kind.FLOAT, exp_bits=e, man_bits=mm)
        total = m.group("total")
        if total is not None and int(total) != fmt.total_bits:
            raise FormatError(f"{text!r}: declared width {total} != 1+{e}+{mm}")
        return fmt
    m = _INT_RE.match(s)
    if m:
        n = int(m.group("n"))
        signed = not m.group("u")
        return FormatSpec(Kind.INT, man_bits=n - (1 if signed else 0), signed=signed)
    raise FormatError(f"unrecognized format string {text!r}")


@dataclass(frozen=True)
class ExactNumber:
    """(-1)^sign * significand * 2^exp2, exact. Canonical form has an odd
    significand, or significand == 0 with sign == 0 and exp2 == 0."""

    sign: int
    significand: int
    exp2: int

    def __post_init__(self):
        if self.significand < 0 or self.sign not in (0, 1):
            raise ValueError("significand must be >= 0 and sign a bit")

    @classmethod
    def zero(cls) -> "ExactNumber":
        return cls(0, 0, 0)

    @classmethod
    def from_int(cls, v: int) -> "ExactNumber":
        return cls(1 if v < 0 else 0, abs(v), 0).canonical()

    def canonical(self) -> "ExactNumber":
        sig, e = self.significand, self.exp2
        if sig == 0:
            return ExactNumber(0, 0, 0)
        while sig % 2 == 0:
            sig //= 2
            e += 1
        return ExactNumber(self.sign, sig, e)

    @property
    def is_zero(self) -> bool:
        return self.significand == 0

    def to_fraction(self) -> Fraction:
        mag = Fraction(self.significand) * Fraction(2) ** self.exp2
        return -mag if self.sign else mag

    def neg(self) -> "ExactNumber":
        if self.is_zero:
            return self
        return ExactNumber(1 - self.sign, self.significand, self.exp2)

    def mul(self, other: "ExactNumber") -> "ExactNumber":
        if self.is_zero or other.is_zero:
            return ExactNumber.zero()
        return ExactNumber(
            self.sign ^ other.sign,
            self.significand * other.significand,
            self.exp2 + other.exp2,
        ).canonical()

    def add(self, other: "ExactNumber") -> "ExactNumber":
        if self.is_zero:
            return other.canonical()
        if other.is_zero:
            return self.canonical()
        e = min(self.exp2, other.exp2)
        a = self.significand << (self.exp2 - e)
        b = other.significand << (other.exp2 - e)
        if self.sign:
            a = -a
        if other.sign:
            b = -b
        s = a + b
        return ExactNumber(1 if s < 0 else 0, abs(s), e).canonical()


@dataclass(frozen=True)
class ScalarValue:
    """One decoded scalar: raw fields plus its format."""

    sign: int
    exp_field: int
    man_field: int
    fmt: FormatSpec
    is_zero: bool = False

    def __post_init__(self):
        if not 0 <= self.exp_field <= self.fmt.exp_max:
            raise FormatError("exponent field out of range")
        if not 0 <= self.man_field <= self.fmt.man_max:
            raise FormatError("mantissa field out of range")

    def word(self) -> int:
        if self.is_zero:
            return 0
        f = self.fmt
        if f.kind is Kind.FLOAT:
            return (self.sign << (f.exp_bits + f.man_bits)) | (self.exp_field << f.man_bits) | self.man_field
        if f.signed:
            return (self.sign << f.man_bits) | self.man_field
        return self.man_field

    def to_exact(self) -> ExactNumber:
        if self.is_zero:
            return ExactNumber.zero()
        f = self.fmt
        if f.kind is Kind.FLOAT:
            sig = (1 << f.man_bits) | self.man_field
            return ExactNumber(self.sign, sig, self.exp_field - f.bias_value - f.man_bits)
        return ExactNumber(self.sign, self.man_field, 0)

    def to_fraction(self) -> Fraction:
        return self.to_exact().to_fraction()


def decode(word: int | str, fmt: FormatSpec) -> ScalarValue:
    """Split a word into fields. Accepts an int or a bit string like "0_10_011"."""
    if isinstance(word, str):
        s = word.replace("_", "").strip()
        if len(s) != fmt.total_bits or set(s) - {"0", "1"}:
            raise FormatError(f"word {word!r} is not {fmt.total_bits} bits")
        word = int(s, 2)
    if word < 0 or word >> fmt.total_bits:
        raise FormatError(f"word {word} does not fit {fmt.total_bits} bits")
    if fmt.kind is Kind.FLOAT:
        man = word & fmt.man_max
        exp = (word >> fmt.man_bits) & fmt.exp_max
        sign = word >> (fmt.exp_bits + fmt.man_bits)
        return ScalarValue(sign, exp, man, fmt, is_zero=(word == 0))
    if fmt.signed:
        man = word & fmt.man_max
        sign = word >> fmt.man_bits
    else:
        man, sign = word, 0
    return ScalarValue(sign, 0, man, fmt, is_zero=(man == 0))


def encode(v: ExactNumber, fmt: FormatSpec, rounding: Rounding = Rounding.TRUNCATE) -> ScalarValue:
    """Fit an exact value into `fmt`.

    Floats: normalize to 1.x * 2^k, round the mantissa (truncation toward
    zero by default), saturate the exponent to the max finite value on
    overflow and flush to zero on underflow. Ints: round toward zero and
    saturate the magnitude. Total function; exact zero encodes as all-zero.
    """
    if v.is_zero:
        return ScalarValue(0, 0, 0, fmt, is_zero=True)
    if fmt.kind is Kind.INT:
        return _encode_int(v, fmt)

    sig, exp2 = v.significand, v.exp2
    k = sig.bit_length() - 1  # sig == 1.xxx * 2^k
    unbiased = k + exp2
    if k >= fmt.man_bits:
        drop = k - fmt.man_bits
        man = (sig >> drop) & fmt.man_max
        rem = sig & ((1 << drop) - 1)
        if rounding is Rounding.NEAREST_EVEN and drop > 0:
            half = 1 << (drop - 1)
            if rem > half or (rem == half and (man & 1)):
                man += 1
                if man > fmt.man_max:  # mantissa carry bumps the exponent
                    man = 0
                    unbiased += 1
    else:
        man = (sig << (fmt.man_bits - k)) - (1 << fmt.man_bits)

    e_field = unbiased + fmt.bias_value
    if e_field > fmt.exp_max:  # saturate to max-magnitude finite value
        return ScalarValue(v.sign, fmt.exp_max, fmt.man_max, fmt)
    if e_field < 0:  # underflow flushes to zero
        return ScalarValue(0, 0, 0, fmt, is_zero=True)
    # +2^-bias encodes as the all-zero word, which decodes as zero
    return ScalarValue(v.sign, e_field, man, fmt, is_zero=not (v.sign or e_field or man))


def _encode_int(v: ExactNumber, fmt: FormatSpec) -> ScalarValue:
    if v.exp2 >= 0:
        mag = v.significand << v.exp2
    else:
        mag = v.significand >> -v.exp2  # truncation toward zero
    if mag == 0:
        return ScalarValue(0, 0, 0, fmt, is_zero=True)
    if v.sign and not fmt.signed:
        return ScalarValue(0, 0, 0, fmt, is_zero=True)  # clamp below zero
    mag = min(mag, fmt.man_max)
    return ScalarValue(v.sign if fmt.signed else 0, 0, mag, fmt, is_zero=(mag == 0))


def mul_ref(a: ScalarValue, b: ScalarValue) -> ExactNumber:
    """Exact float product; exponent arithmetic uses each operand's own bias."""
    if a.fmt.kind is not Kind.FLOAT or b.fmt.kind is not Kind.FLOAT:
        raise FormatError("mul_ref is defined on float operands")
    return a.to_exact().mul(b.to_exact())


def add_ref(a: ExactNumber, b: ExactNumber) -> ExactNumber:
    """Exact sum; the result sign follows the larger-magnitude operand."""
    return a.add(b)


@dataclass(frozen=True)
class MxBlock:
    """A microscaling block: one shared scale and K private elements."""

    scale: ScalarValue
    elements: tuple[ScalarValue, ...]
    block_size: int

    def __post_init__(self):
        if len(self.elements) != self.block_size:
            raise ShapeError(f"block of {len(self.elements)} elements, K={self.block_size}")
        fmts = {e.fmt for e in self.elements}
        if len(fmts) > 1:
            raise ShapeError("all block elements must share one format")


def mx_dot_ref(a: MxBlock, w: MxBlock) -> ExactNumber:
    """Exact block dot product: X(A)*X(W)*sum_i P_i(A)*P_i(W)."""
    if a.block_size != w.block_size:
        raise ShapeError(f"block sizes differ: {a.block_size} vs {w.block_size}")
    acc = ExactNumber.zero()
    for ea, ew in zip(a.elements, w.elements):
        acc = acc.add(ea.to_exact().mul(ew.to_exact()))
    return a.scale.to_exact().mul(w.scale.to_exact()).mul(acc)
