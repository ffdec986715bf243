"""Coordinate-to-index encoders.

Four variants compute the same index:

* ``encode_arith``: compare/subtract updates, one loop pass per level.
* ``encode_bits``: mask/shift updates, one loop pass per level.
* ``encode_arith_fast`` / ``encode_bits_fast``: loop only over the
  levels a point actually occupies.  While every examined top bit is
  zero the only effect per level is a swap of components 1 and ``n``,
  so the skipped levels collapse to at most one up-front swap.

These four are the reference code the paper studies.  The production
encoder behind ``hilbert sort`` is :func:`curve_key`, which computes
the same index as one ``int`` with per-level work that does not grow
with ``n``.

Each variant walks levels top down.  Per level it reads the current
top bit of every component (giving the quadrant digit through the
Gray-rank map), strips that bit, then applies the quadrant's reverse
and exchange commands to the remaining low bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core_bits import CurveParams, HilbertIndex, gray_code_inverse, reflect
from .errors import DimensionMismatchError, DomainError
from .gene import GeneTable


@dataclass(frozen=True)
class StepCounter:
    """Number of main-loop passes one codec call executed."""

    iterations: int


def effective_level(p: Sequence[int]) -> int:
    """Bit length of the largest component; 1 for the origin."""
    if not p:
        raise DomainError("coordinate has no components")
    return max(max(p).bit_length(), 1)


def encode_arith(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with arithmetic updates, visiting all ``m`` levels."""
    _check_point(p, params, table)
    if params.m == 0:
        return HilbertIndex(params.n, ()), StepCounter(0)
    digits = _digits_arith(list(p), params.n, params.m, table)
    return HilbertIndex(params.n, tuple(digits)), StepCounter(params.m)


def encode_bits(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with bit-operation updates, visiting all ``m`` levels."""
    _check_point(p, params, table)
    if params.m == 0:
        return HilbertIndex(params.n, ()), StepCounter(0)
    digits = _digits_bits(list(p), params.n, params.m, table)
    return HilbertIndex(params.n, tuple(digits)), StepCounter(params.m)


def encode_arith_fast(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with arithmetic updates, looping only over occupied levels."""
    return _encode_fast(p, params, table, _digits_arith)


def encode_bits_fast(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with bit-operation updates, looping only over occupied levels."""
    return _encode_fast(p, params, table, _digits_bits)


# The four variants in --algo order; the CLI and the counter benchmark
# both read this list.
ENCODERS = (
    ("arith", encode_arith),
    ("bits", encode_bits),
    ("arith-fast", encode_arith_fast),
    ("bits-fast", encode_bits_fast),
)


def curve_key(params: CurveParams, table: GeneTable) -> Callable[[Sequence[int]], int]:
    """Return the production encoder of one curve: a point to its index as one ``int``.

    The returned function checks its point as the variants do and equals
    ``index_to_integer(encode_arith(p, params, table)[0])``.  It uses the
    transposed form of J. Skilling ("Programming the Hilbert curve", AIP
    Conf. Proc. 707, 2004): the point's bits are interleaved once into
    one integer ``z`` whose ``n``-bit plane at level ``v`` holds bit
    ``v`` of every component, component ``i + 1`` at bit ``v * n + i``.
    Per level, the reverse command is then one xor and the exchange one
    delta swap on ``z``, whatever ``n`` is.  Leading all-zero levels
    collapse into one swap of components 1 and ``n``, as in the fast
    variants.
    """
    n, m = params.n, params.m
    table.check_dimension(n)
    size = 1 << n
    low = size - 1
    rep = ((1 << (n * m)) - 1) // low  # bit 0 of every plane
    # Indexed by the plane g as read, which is the Gray code of the
    # quadrant digit rank[g], so no Gray inverse runs per point at any n:
    # that quadrant's reverse command as an n-bit mask, and its exchange
    # as (distance between the two components, rep under the lower one).
    # Quadrants with the same pair share one tuple, so the table holds
    # n * (n - 1) / 2 masks of n * m bits at most, not one per quadrant.
    rank = [0] * size
    flip = [0] * size
    swap = [None] * size
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    for r in range(size):
        g = r ^ (r >> 1)
        rank[g] = r
        for i in table.reverse_slots[r]:
            flip[g] |= 1 << i
        pair = table.swap_pairs[r]
        if pair is not None:
            a, b = pair
            swap[g] = shared.setdefault(pair, (b - a, rep << a))
    spread = [0] * 256  # spread[c] moves bit j of the byte c to bit j * n
    for c in range(1, 256):
        spread[c] = (spread[c >> 1] << n) | (c & 1)
    stride = 8 * n
    top = n - 1

    def key(p: Sequence[int]) -> int:
        # A component of 2**m or more would add levels above m, so the
        # range check is what keeps the key right.
        _check_point(p, params, table)
        z = 0
        for i, c in enumerate(p):
            while c:
                z |= spread[c & 255] << i
                c >>= 8
                i += stride
        k = -(-z.bit_length() // n)  # levels the point occupies
        if (m - k) & 1:
            t = ((z >> top) ^ z) & rep
            z ^= t ^ (t << top)
        index = 0
        for shift in range(n * (k - 1), -1, -n):
            g = (z >> shift) & low
            index = (index << n) | rank[g]
            # Bits of levels already read may change too; they are not read again.
            z ^= flip[g] * rep
            if swap[g] is not None:
                d, mask = swap[g]
                t = ((z >> d) ^ z) & mask
                z ^= t ^ (t << d)
        return index

    return key


def _encode_fast(
    p: Sequence[int],
    params: CurveParams,
    table: GeneTable,
    loop: Callable[[list[int], int, int, GeneTable], list[int]],
) -> tuple[HilbertIndex, StepCounter]:
    _check_point(p, params, table)
    n, m = params.n, params.m
    if m == 0:
        return HilbertIndex(n, ()), StepCounter(0)
    k = effective_level(p)
    x = list(p)
    if (m - k) & 1:
        # One swap stands in for the odd number of skipped all-zero levels.
        x[0], x[n - 1] = x[n - 1], x[0]
    digits = [0] * (m - k)
    digits += loop(x, n, k, table)
    return HilbertIndex(n, tuple(digits)), StepCounter(k)


def _digits_arith(x: list[int], n: int, top: int, table: GeneTable) -> list[int]:
    swap_pairs = table.swap_pairs
    reverse_slots = table.reverse_slots
    digits = []
    for v in range(top, 0, -1):
        half = 1 << (v - 1)
        sliced = 0
        for i in range(n):
            if x[i] >= half:
                sliced |= 1 << i
        r = gray_code_inverse(sliced, n)
        for i in range(n):
            if x[i] >= half:
                x[i] -= half
        for i in reverse_slots[r]:
            x[i] = half - 1 - x[i]
        pair = swap_pairs[r]
        if pair is not None:
            a, b = pair
            x[a], x[b] = x[b], x[a]
        digits.append(r)
    return digits


def _digits_bits(x: list[int], n: int, top: int, table: GeneTable) -> list[int]:
    swap_pairs = table.swap_pairs
    reverse_slots = table.reverse_slots
    digits = []
    for v in range(top, 0, -1):
        shift = v - 1
        low = (1 << shift) - 1
        sliced = 0
        for i in range(n):
            sliced |= ((x[i] >> shift) & 1) << i
        r = gray_code_inverse(sliced, n)
        for i in range(n):
            x[i] &= low
        for i in reverse_slots[r]:
            x[i] = reflect(x[i], shift)
        pair = swap_pairs[r]
        if pair is not None:
            a, b = pair
            x[a], x[b] = x[b], x[a]
        digits.append(r)
    return digits


def _check_point(p: Sequence[int], params: CurveParams, table: GeneTable) -> None:
    if len(p) != params.n:
        raise DimensionMismatchError(
            f"point has {len(p)} components, curve dimension is {params.n}"
        )
    table.check_dimension(params.n)
    limit = 1 << params.m
    for i, c in enumerate(p):
        if not isinstance(c, int) or isinstance(c, bool):
            raise DomainError(f"component {i + 1} is not an integer: {c!r}")
        if not 0 <= c < limit:
            raise DomainError(
                f"component {i + 1} out of range for level {params.m}: {c}"
            )
