"""Integer and bit-vector primitives shared by the Hilbert-order codecs.

Conventions used throughout the package:

* ``n`` is the dimension (at least 2) and ``m`` the curve level; every
  coordinate component lies in ``[0, 2**m)``.
* A coordinate is stored as ``(x1, x2, ..., xn)``: tuple slot ``i``
  holds component ``i + 1``.  Human-facing rendering reverses this to
  the conventional ``(xn, ..., x1)`` reading, and the CLI accepts and
  prints that order.
* ``vec_of_scalar`` / ``vec_to_scalar`` work on bit vectors written the
  way a binary number reads, most significant bit first.
* A Hilbert index is kept as its radix ``2**n`` digit sequence, most
  significant digit first, so ``n * m`` may exceed any machine word.

Everything here is pure and operates on non-negative integers only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatchError, DomainError

Coordinate = tuple[int, ...]
BitVec = tuple[int, ...]

# Widths up to this many bits get a precomputed Gray-decode table;
# wider values fall back to the xor-shift cascade.  2**width entries.
GRAY_TABLE_MAX_BITS = 16

# The struct code of a field of each width in bits up to one word.
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@dataclass(frozen=True)
class CurveParams:
    """Dimension and level of one curve; fixes the coordinate domain."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < 0:
            raise DomainError(f"level must be a non-negative integer, got {self.m!r}")


@dataclass(frozen=True)
class HilbertIndex:
    """Position along the curve as radix ``2**n`` digits, most significant first."""

    n: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "digits", tuple(self.digits))
        radix = 1 << self.n
        for pos, digit in enumerate(self.digits):
            if not isinstance(digit, int) or not 0 <= digit < radix:
                raise DomainError(
                    f"digit {len(self.digits) - pos} out of range for dimension {self.n}: {digit!r}"
                )

    @property
    def level(self) -> int:
        return len(self.digits)


def coord_xor(a: Sequence[int], b: Sequence[int]) -> Coordinate:
    """Componentwise xor of two coordinates of the same dimension."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"cannot xor coordinates with {len(a)} and {len(b)} components"
        )
    for value in (*a, *b):
        if value < 0:
            raise DomainError(f"components must be non-negative, got {value}")
    return tuple(x ^ y for x, y in zip(a, b))


def reflect(j: int, k: int) -> int:
    """Complement each of the ``k`` low bits of ``j`` (so ``2**k - 1 - j``)."""
    if k < 0:
        raise DomainError(f"bit width must be non-negative, got {k}")
    if not 0 <= j < (1 << k):
        raise DomainError(f"value {j} does not fit in {k} bits")
    return ((1 << k) - 1) ^ j


def parity_prefix(a: Sequence[int], i: int) -> int:
    """Parity of the first ``i`` entries of a bit vector (1-based prefix length)."""
    _check_bits(a)
    if not 1 <= i <= len(a):
        raise DomainError(f"prefix length {i} out of range 1..{len(a)}")
    return sum(a[:i]) & 1


def gray_code(j: int) -> int:
    """Reflected Gray code of ``j``: xor with itself shifted right once."""
    if j < 0:
        raise DomainError(f"expected a non-negative integer, got {j}")
    return j ^ (j >> 1)


def gray_code_inverse(g: int, width: int | None = None) -> int:
    """Invert :func:`gray_code`.

    When ``width`` is given and small enough a lookup table is used;
    otherwise the cumulative xor is computed with a doubling cascade.
    """
    if g < 0:
        raise DomainError(f"expected a non-negative integer, got {g}")
    if width is not None:
        if not 0 <= g < (1 << width):
            raise DomainError(f"value {g} does not fit in {width} bits")
        if 0 < width <= GRAY_TABLE_MAX_BITS:
            return _gray_inverse_table(width)[g]
    j = g
    shift = 1
    while shift < g.bit_length():
        j ^= j >> shift
        shift <<= 1
    return j


@lru_cache(maxsize=None)
def _gray_inverse_table(width: int) -> tuple[int, ...]:
    table = [0] * (1 << width)
    for j in range(1 << width):
        table[j ^ (j >> 1)] = j
    return tuple(table)


def vec_to_scalar(a: Sequence[int]) -> int:
    """Map a bit vector to its rank along the reflected Gray sequence.

    ``a[0]`` is the most significant bit.  The result's binary digits
    are the running parities of ``a``'s prefixes, which is exactly the
    inverse of :func:`vec_of_scalar`.
    """
    _check_bits(a)
    g = 0
    for bit in a:
        g = (g << 1) | bit
    return gray_code_inverse(g, len(a))


def vec_of_scalar(j: int, n: int) -> BitVec:
    """Bit vector (most significant first) of the ``j``-th Gray codeword of width ``n``."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"width must be a positive integer, got {n!r}")
    if not 0 <= j < (1 << n):
        raise DomainError(f"value {j} does not fit in {n} bits")
    g = gray_code(j)
    return tuple((g >> (n - 1 - i)) & 1 for i in range(n))


def index_to_integer(idx: HilbertIndex) -> int:
    """Evaluate the digit string positionally in radix ``2**n``."""
    z = 0
    for digit in idx.digits:
        z = (z << idx.n) | digit
    return z


def integer_to_index(z: int, params: CurveParams) -> HilbertIndex:
    """Split ``z`` into ``m`` radix ``2**n`` digits, most significant first."""
    return HilbertIndex(params.n, tuple(integer_digits(z, params)))


def integer_digits(z: int, params: CurveParams) -> list[int]:
    """The digits of :func:`integer_to_index` as a list, without checking them again."""
    n, m = params.n, params.m
    if not 0 <= z < (1 << (n * m)):
        raise DomainError(f"index {z} out of range for dimension {n}, level {m}")
    low = (1 << n) - 1
    return [(z >> shift) & low for shift in range(n * (m - 1), -1, -n)]


def field_width(bits: int) -> int:
    """The field that holds ``bits`` bits: the least of 8, 16, 32 and 64
    bits that does, and above 64 the least multiple of 64."""
    return next((w for w in (8, 16, 32) if w >= bits), -(-bits // 64) * 64)


def field_ones(count: int, width: int) -> int:
    """Bit 0 of each of ``count`` fields ``width`` bits wide."""
    return int.from_bytes((b"\1" + bytes(width // 8 - 1)) * count, "little")


def pack_column(values: Sequence[int], width: int) -> int:
    """One ``int`` whose ``width``-bit field ``j`` holds ``values[j]``.

    ``width`` is a :func:`field_width`, and every value must fit
    its field.  Up to 64 bits this is one ``struct.pack``; above that one
    ``int.to_bytes`` per value.
    """
    code = _FIELD_CODES.get(width)
    if code:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")
    size = width // 8
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")


def unpack_columns(columns: Sequence[int], count: int, width: int) -> tuple[int, ...]:
    """Invert :func:`pack_column` on each of ``columns``, ``count`` fields
    each, and interleave them: field 0 of every column in order, then
    field 1, and so on.

    A ``memoryview`` of whole fields up to 64 bits, and of 64-bit words
    above, does the interleaving.  Up to 64 bits the fields are then read
    with one ``struct.unpack``; above that with one ``int.from_bytes`` each.
    """
    size = width // 8
    word = min(width, 64)
    code = _FIELD_CODES[word]
    per = width // word  # words per field
    stride = per * len(columns)
    data = bytearray(size * count * len(columns))
    words = memoryview(data).cast(code)
    for i, column in enumerate(columns):
        source = memoryview(column.to_bytes(size * count, "little")).cast(code)
        for t in range(per):
            words[i * per + t::stride] = source[t::per]
    if width <= 64:
        return struct.unpack(f"<{count * len(columns)}{code}", data)
    return tuple([int.from_bytes(data[j:j + size], "little") for j in range(0, len(data), size)])


def _check_bits(a: Sequence[int]) -> None:
    for bit in a:
        if bit not in (0, 1):
            raise DomainError(f"bit vector entries must be 0 or 1, got {bit!r}")
