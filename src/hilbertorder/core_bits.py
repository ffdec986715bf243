"""Integer and bit-vector primitives shared by the reference codecs.

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

from dataclasses import dataclass
from typing import Sequence

from .curve import CurveParams, check_digits, check_dimension, integer_digits
from .errors import DimensionMismatchError, DomainError

Coordinate = tuple[int, ...]
BitVec = tuple[int, ...]


@dataclass(frozen=True)
class HilbertIndex:
    """Position along the curve as radix ``2**n`` digits, most significant first."""

    n: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_dimension(self.n)
        object.__setattr__(self, "digits", tuple(self.digits))
        check_digits(self.digits, self.n)


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
    """Invert :func:`gray_code` with a doubling xor cascade; a given
    ``width`` bounds ``g``."""
    if g < 0:
        raise DomainError(f"expected a non-negative integer, got {g}")
    if width is not None and not 0 <= g < (1 << width):
        raise DomainError(f"value {g} does not fit in {width} bits")
    j = g
    shift = 1
    while shift < g.bit_length():
        j ^= j >> shift
        shift <<= 1
    return j


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


def _check_bits(a: Sequence[int]) -> None:
    for bit in a:
        if bit not in (0, 1):
            raise DomainError(f"bit vector entries must be 0 or 1, got {bit!r}")
