"""Packing and unpacking between container-padded host layouts and the
accelerator's back-to-back packed layout.

A padded stream stores one element per container, element bits first
(MSB leading) with zeros in the low (container - P) bits. Packing drops the
padding: useful input bit i (i mod container < P) lands at output bit
j = start_idx + i - floor(i/container) * (container - P).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import or_

from .codec import FormatSpec, Kind, decode
from .errors import FormatError

_HEADER = struct.Struct("<4sBBBBQH")
MAX_START_BIT = 0xFFFF  # the header's start bit is an unsigned 16-bit field
_MAGIC = b"FXBP"
_VERSION = 1
_JOIN_CHUNK = 1 << 16


@dataclass
class PackedBuffer:
    """Back-to-back encoded scalars: element k occupies bits
    [start_bit + k*P, start_bit + (k+1)*P) of an nbits-long bit string.

    Bit k of the string lives in payload byte k//8 at bit position 7 - k%8
    (MSB first), so the payload reads left to right in string order. The
    bits after nbits in the last byte are always zero, so equal buffers
    have equal payloads.
    """

    payload: bytes
    nbits: int
    elem_count: int
    fmt: FormatSpec
    start_bit: int = 0

    def __post_init__(self):
        if self.start_bit < 0:
            raise FormatError("start_bit must be >= 0")
        need = self.start_bit + self.elem_count * self.fmt.total_bits
        if self.nbits < need:
            raise FormatError(f"buffer holds {self.nbits} bits, needs {need}")
        if len(self.payload) != (self.nbits + 7) // 8:
            raise FormatError(
                f"payload of {len(self.payload)} bytes does not hold exactly {self.nbits} bits"
            )
        extra = -self.nbits % 8
        if extra and self.payload[-1] & ((1 << extra) - 1):
            self.payload = self.payload[:-1] + bytes([self.payload[-1] & (0xFF << extra) & 0xFF])

    def words(self) -> list[int]:
        p = self.fmt.total_bits
        s = f"{int.from_bytes(self.payload, 'big'):0{8 * len(self.payload)}b}"
        lo = self.start_bit
        return [int(s[i : i + p], 2) for i in range(lo, lo + self.elem_count * p, p)]

    def decode_all(self):
        return [decode(w, self.fmt) for w in self.words()]

    @classmethod
    def from_words(cls, words, fmt: FormatSpec, start_bit: int = 0) -> "PackedBuffer":
        """Words back to back after start_bit zero bits, each as its P bits
        MSB first; a word that does not fit in P bits is rejected."""
        words = list(words)
        p = fmt.total_bits
        spec = f"0{p}b"
        lead = "0" * start_bit
        nbits = len(lead) + len(words) * p
        pad = "0" * (-nbits % 8)
        # joined a chunk at a time, so at most _JOIN_CHUNK per-word strings
        # are alive at once
        bits = "".join([
            lead,
            *("".join(map(format, words[i : i + _JOIN_CHUNK], repeat(spec)))
              for i in range(0, len(words), _JOIN_CHUNK)),
            pad,
        ])
        if len(bits) != nbits + len(pad) or "-" in bits:
            bad = next(w for w in words if w < 0 or w >> p)
            raise FormatError(f"word {bad} does not fit in {p} bits")
        # str <-> int conversion in base 2 is linear in the length in CPython
        payload = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
        return cls(payload, nbits, len(words), fmt, start_bit)


@dataclass
class PaddedStream:
    """Container-padded host layout: one element per container word."""

    words: list[int]
    container_bits: int
    fmt: FormatSpec

    def __post_init__(self):
        if self.container_bits < self.fmt.total_bits:
            raise FormatError(
                f"container {self.container_bits} < element width {self.fmt.total_bits}"
            )
        # one OR over the words, iterated in C: it is negative, or has a bit
        # at or above container_bits or in the padding, exactly when some
        # word has
        bits = reduce(or_, self.words, 0)
        if bits < 0 or bits >> self.container_bits:
            raise FormatError("container word out of range")
        if bits & ((1 << (self.container_bits - self.fmt.total_bits)) - 1):
            raise FormatError("padding bits must be zero")

    def element_words(self) -> list[int]:
        pad = self.container_bits - self.fmt.total_bits
        return [w >> pad for w in self.words]

    @classmethod
    def from_elements(cls, words, fmt: FormatSpec, container_bits: int = 8) -> "PaddedStream":
        pad = container_bits - fmt.total_bits
        if pad < 0:
            raise FormatError(
                f"container {container_bits} < element width {fmt.total_bits}"
            )
        return cls([int(w) << pad for w in words], container_bits, fmt)


def packed_index(i: int, container: int, precision: int, start_idx: int = 0) -> int:
    """Output position of useful input bit i under the packing map."""
    return start_idx + i - (i // container) * (container - precision)


def pack(stream: PaddedStream, start_idx: int = 0) -> PackedBuffer:
    """Drop container padding, concatenating elements back to back; the
    result places every useful input bit i at packed_index(i, ...)."""
    return PackedBuffer.from_words(stream.element_words(), stream.fmt, start_idx)


def pack_into(buf: PackedBuffer, stream: PaddedStream) -> PackedBuffer:
    """Append a further chunk, carrying the running start index forward.

    Models the chunked wide-interface behavior: each call continues at
    start_idx = start_bit + elem_count * P.
    """
    if stream.fmt != buf.fmt:
        raise FormatError("appending a stream of a different format")
    carry = buf.start_bit + buf.elem_count * buf.fmt.total_bits
    tail = pack(stream, carry)
    # the tail's first `carry` bits are zero: fill them with buf's
    head = int.from_bytes(buf.payload, "big") >> (8 * len(buf.payload) - carry)
    n = len(tail.payload)
    payload = (int.from_bytes(tail.payload, "big") | head << (8 * n - carry)).to_bytes(n, "big")
    return PackedBuffer(
        payload, tail.nbits, buf.elem_count + tail.elem_count, buf.fmt, buf.start_bit
    )


def unpack(buf: PackedBuffer, container_bits: int) -> PaddedStream:
    """Inverse of pack: re-insert zero padding for off-chip writeback."""
    if container_bits < buf.fmt.total_bits:
        raise FormatError(
            f"container {container_bits} < element width {buf.fmt.total_bits}"
        )
    pad = container_bits - buf.fmt.total_bits
    return PaddedStream([w << pad for w in buf.words()], container_bits, buf.fmt)


def metadata(buf: PackedBuffer) -> dict:
    """Header the packing unit reports to the controller."""
    return {
        "start_addr": buf.start_bit,
        "precision": buf.fmt.total_bits,
        "elem_count": buf.elem_count,
    }


def write_packed_file(path, buf: PackedBuffer) -> None:
    """Serialize with the little-endian FXBP header followed by the raw bit
    payload, padded to a whole byte at the end only."""
    if not 0 <= buf.start_bit <= MAX_START_BIT:
        raise FormatError(
            f"start bit {buf.start_bit} does not fit the FXBP header (at most {MAX_START_BIT})"
        )
    fmt = buf.fmt
    kind = 0 if fmt.kind is Kind.FLOAT else (1 if fmt.signed else 2)
    header = _HEADER.pack(
        _MAGIC, _VERSION, kind, fmt.exp_bits, fmt.man_bits, buf.elem_count, buf.start_bit
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(buf.payload)


def read_packed_file(path) -> PackedBuffer:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError("truncated packed file")
    magic, version, kind, exp_bits, man_bits, elem_count, start_bit = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if kind == 0:
        fmt = FormatSpec(Kind.FLOAT, exp_bits=exp_bits, man_bits=man_bits)
    elif kind in (1, 2):
        fmt = FormatSpec(Kind.INT, man_bits=man_bits, signed=(kind == 1))
    else:
        raise FormatError(f"unknown kind byte {kind}")
    nbits = start_bit + elem_count * fmt.total_bits
    return PackedBuffer(raw[_HEADER.size :], nbits, elem_count, fmt, start_bit)
