"""A minimal growable bit vector with MSB-first byte serialization.

Bit k of the vector lives in byte k//8 at bit position 7 - k%8, so the
serialized form reads left-to-right in the same order as the vector.
"""

from __future__ import annotations


class BitVector:
    __slots__ = ("_bytes", "_nbits")

    def __init__(self, nbits: int = 0):
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        self._nbits = nbits
        self._bytes = bytearray((nbits + 7) // 8)

    def __len__(self) -> int:
        return self._nbits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and self._bytes == other._bytes

    def __repr__(self) -> str:
        head = "".join(str(self.get(i)) for i in range(min(self._nbits, 64)))
        tail = "..." if self._nbits > 64 else ""
        return f"BitVector({self._nbits}, {head}{tail})"

    def get(self, i: int) -> int:
        if not 0 <= i < self._nbits:
            raise IndexError(f"bit {i} out of range [0, {self._nbits})")
        return (self._bytes[i >> 3] >> (7 - (i & 7))) & 1

    def set(self, i: int, value: int) -> None:
        if not 0 <= i < self._nbits:
            raise IndexError(f"bit {i} out of range [0, {self._nbits})")
        mask = 1 << (7 - (i & 7))
        if value & 1:
            self._bytes[i >> 3] |= mask
        else:
            self._bytes[i >> 3] &= ~mask

    def _grow_to(self, nbits: int) -> None:
        if nbits <= self._nbits:
            return
        need = (nbits + 7) // 8
        if need > len(self._bytes):
            self._bytes.extend(b"\x00" * (need - len(self._bytes)))
        self._nbits = nbits

    def append_word(self, value: int, width: int) -> None:
        """Append `width` bits of `value`, most significant bit first."""
        if value < 0 or (width and value >> width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        pos = self._nbits
        self._grow_to(pos + width)
        for t in range(width):
            if (value >> (width - 1 - t)) & 1:
                self.set(pos + t, 1)

    def read_word(self, pos: int, width: int) -> int:
        """Read `width` bits starting at `pos`, most significant bit first."""
        value = 0
        for t in range(width):
            value = (value << 1) | self.get(pos + t)
        return value

    def to_bytes(self) -> bytes:
        return bytes(self._bytes)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitVector":
        if (nbits + 7) // 8 != len(data):
            raise ValueError("payload length does not match bit count")
        bv = cls(nbits)
        bv._bytes[:] = data
        # clear padding bits beyond nbits so equality stays canonical
        extra = len(data) * 8 - nbits
        if extra:
            bv._bytes[-1] &= 0xFF << extra & 0xFF
        return bv

    def bits(self) -> list[int]:
        return [self.get(i) for i in range(self._nbits)]
