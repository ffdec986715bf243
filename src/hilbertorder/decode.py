"""Index-to-coordinate decoders; exact inverses of the encoders.

Decoding runs bottom up: the least significant digit places the point
inside its level-1 cell, then every further digit applies the
quadrant's exchange and reverse commands before adding the quadrant
offset.  The fast variants stop after the highest nonzero digit; the
levels above it would each contribute only a swap of components 1 and
``n``, folded into one final conditional swap.

These four are the reference code the paper studies.  The production
decoder behind ``hilbert decode`` and ``hilbert validate`` is
:func:`curve_points`, which places every index of a batch with O(n)
operations per level on integers that each hold one component of every
point, at any level, and reads the quadrant commands from closed forms,
not from a gene table; it shares its command step (``gene.exchange_step``
and ``gene.reverse_step``) and its field width (``core_bits.field_width``)
with the batch encoder.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core_bits import (
    Coordinate,
    CurveParams,
    HilbertIndex,
    field_ones,
    field_width,
    gray_code,
    pack_column,
    reflect,
    unpack_columns,
)
from .encode import StepCounter
from .errors import DimensionMismatchError, DomainError
from .gene import (
    GeneTable,
    check_table_dimension,
    exchange_step,
    reverse_step,
)

def index_effective_level(idx: HilbertIndex) -> int:
    """Position (1-based from the least significant end) of the highest nonzero digit.

    Returns 1 when every digit is zero.
    """
    for pos, digit in enumerate(idx.digits):
        if digit:
            return len(idx.digits) - pos
    return 1


def decode_arith(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with arithmetic updates, visiting all ``m`` levels."""
    return _decode(idx, params, table, _coords_arith, fast=False)


def decode_bits(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with bit-operation updates, visiting all ``m`` levels."""
    return _decode(idx, params, table, _coords_bits, fast=False)


def decode_arith_fast(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with arithmetic updates, stopping at the highest nonzero digit."""
    return _decode(idx, params, table, _coords_arith, fast=True)


def decode_bits_fast(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with bit-operation updates, stopping at the highest nonzero digit."""
    return _decode(idx, params, table, _coords_bits, fast=True)


def curve_points(
    params: CurveParams, digits: Sequence[int], count: int | None = None
) -> tuple[int, ...]:
    """Return the point of every index of a batch, its components flat.

    ``digits`` holds ``count`` indices flat, ``m`` radix ``2**n`` digits
    each, most significant first (as in ``HilbertIndex.digits``);
    ``count`` is ``len(digits) / m`` by default, and must be given at
    ``m = 0``, where an index has no digits.  The result holds each point
    written ``x_n .. x_1``, as a point file holds it, and point ``j``
    equals ``decode_arith(HilbertIndex(n, index_j), params, table)[0]``
    reversed.  Only a batch that fails the whole-batch checks (length,
    types, least and greatest digit) is checked index by index by
    :func:`check_index`, which raises for the first bad index and names a
    wrong digit count before a bad digit; a batch of one with the wrong
    count is named by its whole digit count.
    """
    n, m = params.n, params.m
    check_table_dimension(n)
    if count is None:
        count = -(-len(digits) // m) if m else 0
    if len(digits) != count * m or set(map(type, digits)) - {int} or digits and (
        min(digits) < 0 or max(digits) >> n
    ):
        for j in range(count):  # the last index takes the digits left over
            check_index(digits[j * m:(j + 1) * m if j + 1 < count else None], params)
        if len(digits) != count * m:  # only where count is 0
            raise DomainError(f"{len(digits)} digits given for {count} indices at level {m}")
    return unchecked_points(params, digits, count)


def check_index(digits: Sequence[int], params: CurveParams) -> None:
    """Raise as ``HilbertIndex`` and ``decode_arith`` do unless ``digits`` are
    ``m`` integers in ``[0, 2**n)``; a wrong count is named first."""
    _check_digit_count(len(digits), params.m)
    HilbertIndex(params.n, tuple(digits))  # raises on the first bad digit


def unchecked_points(params: CurveParams, digits: Sequence[int], count: int) -> tuple[int, ...]:
    """:func:`curve_points` of ``count`` indices whose digits are checked.

    The kernel places every index at once, bottom up, in the transposed
    form of J. Skilling ("Programming the Hilbert curve", AIP Conf. Proc.
    707, 2004), SIMD within a register (R. J. Fisher and H. G. Dietz, LCPC
    1998): component ``i + 1`` of every point is one ``int`` of ``W``-bit
    fields, one per point.  ``W`` starts at
    ``core_bits.field_width(max(min(m, 64), n))``, so it holds the ``n``
    bits of a digit and, up to ``m = 64``, the ``m`` bits of a component;
    past that every field grows by one 64-bit word each time the placed
    levels fill it, to ``field_width(m)`` at the end.  Per level ``v``, the
    digit column of every index is packed by :func:`core_bits.pack_column`;
    with ``v`` planes placed, :func:`gene.exchange_step` and then
    :func:`gene.reverse_step` apply quadrant ``r``'s commands to the low
    ``v`` bits in O(n) whole-int operations, and ``gray(r)`` becomes bit
    ``v``.  :func:`core_bits.unpack_columns` reads the components back in
    point order.
    """
    n, m = params.n, params.m
    if not m:
        return (0,) * (n * count)
    width = field_width(max(min(m, 64), n))  # a field holds a packed digit
    ones = field_ones(count, width)
    c = [0] * n
    for v in range(m):
        if v == width:  # the placed levels fill every field: widen it by a word
            values = unpack_columns(c, count, width)
            width += 64
            c = [pack_column(values[i::n], width) for i in range(n)]
            ones = field_ones(count, width)
        packed = pack_column(digits[m - 1 - v::m], width)
        r = [(packed >> i) & ones for i in range(n)]  # the rank bits r_i of every digit
        top = [x << v for x in r]
        top.append(0)
        if v:
            # Spread each rank bit over the low v bits of its field.
            low = (ones << v) - ones
            r = [t - x for t, x in zip(top, r)]
            exchange_step(c, r, low)
            reverse_step(c, r, low)
        # Set bit v, zero in every field so far, to gray(r): bit i is r_i ^ r_(i+1).
        for i in range(n):
            c[i] ^= top[i] ^ top[i + 1]
    return unpack_columns(c[::-1], count, width)


def _decode(
    idx: HilbertIndex,
    params: CurveParams,
    table: GeneTable,
    loop: Callable[[tuple[int, ...], int, int, GeneTable], list[int]],
    fast: bool,
) -> tuple[Coordinate, StepCounter]:
    if idx.n != params.n:
        raise DimensionMismatchError(
            f"index is for dimension {idx.n}, curve dimension is {params.n}"
        )
    table.check_dimension(params.n)
    _check_digit_count(len(idx.digits), params.m)
    n, m = params.n, params.m
    if m == 0:
        return (0,) * n, StepCounter(0)
    k = index_effective_level(idx) if fast else m
    x = loop(idx.digits, n, k, table)
    if (m - k) & 1:
        x[0], x[n - 1] = x[n - 1], x[0]
    return tuple(x), StepCounter(k)


def _coords_arith(
    digits: tuple[int, ...], n: int, limit: int, table: GeneTable
) -> list[int]:
    m = len(digits)
    g = gray_code(digits[-1])
    x = [(g >> i) & 1 for i in range(n)]
    swap_pairs = table.swap_pairs
    reverse_slots = table.reverse_slots
    for v in range(2, limit + 1):
        r = digits[m - v]
        s = gray_code(r)
        pair = swap_pairs[r]
        if pair is not None:
            a, b = pair
            x[a], x[b] = x[b], x[a]
        half = 1 << (v - 1)
        for i in reverse_slots[r]:
            x[i] = half - 1 - x[i]
        for i in range(n):
            if (s >> i) & 1:
                x[i] += half
    return x


def _coords_bits(
    digits: tuple[int, ...], n: int, limit: int, table: GeneTable
) -> list[int]:
    m = len(digits)
    g = gray_code(digits[-1])
    x = [(g >> i) & 1 for i in range(n)]
    swap_pairs = table.swap_pairs
    reverse_slots = table.reverse_slots
    for v in range(2, limit + 1):
        r = digits[m - v]
        s = gray_code(r)
        pair = swap_pairs[r]
        if pair is not None:
            a, b = pair
            x[a], x[b] = x[b], x[a]
        shift = v - 1
        for i in reverse_slots[r]:
            x[i] = reflect(x[i], shift)
        for i in range(n):
            if (s >> i) & 1:
                x[i] ^= 1 << shift
    return x


def _check_digit_count(count: int, m: int) -> None:
    if count != m:
        raise DomainError(f"index has {count} digits, curve level is {m}")
