"""Coordinate-to-index encoders.

Four variants compute the same index:

* ``encode_arith``: compare/subtract updates, one loop pass per level.
* ``encode_bits``: mask/shift updates, one loop pass per level.
* ``encode_arith_fast`` / ``encode_bits_fast``: loop only over the
  levels a point actually occupies.  While every examined top bit is
  zero the only effect per level is a swap of components 1 and ``n``,
  so the skipped levels collapse to at most one up-front swap.

These four are the reference code the paper studies.  The production
encoder behind ``hilbert sort`` and ``hilbert encode`` is
:func:`curve_keys`, which keys a batch of points with O(n) operations
per level on integers that each hold one component of every point, at
any level.  It shares its command step (``gene.reverse_step`` and
``gene.exchange_step``, the closed forms of the quadrant commands, not a
gene table) and its field width (``core_bits.field_width``) with the
batch decoder; one point is a batch of one.

Each variant walks levels top down.  Per level it reads the current
top bit of every component (giving the quadrant digit through the
Gray-rank map), strips that bit, then applies the quadrant's reverse
and exchange commands to the remaining low bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core_bits import (
    CurveParams,
    HilbertIndex,
    field_ones,
    field_width,
    gray_code_inverse,
    pack_column,
    reflect,
    unpack_columns,
)
from .errors import DimensionMismatchError, DomainError
from .gene import GeneTable, check_table_dimension, exchange_step, reverse_step


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
    return _encode(p, params, table, _digits_arith, fast=False)


def encode_bits(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with bit-operation updates, visiting all ``m`` levels."""
    return _encode(p, params, table, _digits_bits, fast=False)


def encode_arith_fast(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with arithmetic updates, looping only over occupied levels."""
    return _encode(p, params, table, _digits_arith, fast=True)


def encode_bits_fast(
    p: Sequence[int], params: CurveParams, table: GeneTable
) -> tuple[HilbertIndex, StepCounter]:
    """Encode with bit-operation updates, looping only over occupied levels."""
    return _encode(p, params, table, _digits_bits, fast=True)


# The four variants in a fixed order; the counter benchmark in
# ``oracle`` reads this list.
ENCODERS = (
    ("arith", encode_arith),
    ("bits", encode_bits),
    ("arith-fast", encode_arith_fast),
    ("bits-fast", encode_bits_fast),
)


def curve_keys(params: CurveParams, values: Sequence[int]) -> list[int]:
    """Return the index of every point of a batch as one ``int`` each.

    ``values`` holds the points flat, each written ``x_n .. x_1`` as in a
    point file, and key ``j`` equals ``index_to_integer(encode_arith(...)[0])``
    of point ``j``.  Only a batch that fails the whole-batch checks (length,
    types, least and greatest value) is checked point by point, raising as
    the variants do for the first bad point; an int subclass passes.

    The kernel runs the transposed-form walk of J. Skilling ("Programming
    the Hilbert curve", AIP Conf. Proc. 707, 2004) on all points at once,
    SIMD within a register (R. J. Fisher and H. G. Dietz, LCPC 1998):
    component ``i + 1`` of every point is one ``int`` of ``W``-bit fields,
    one per point, packed by :func:`core_bits.pack_column`.  Only the ``k``
    levels below the bit length of the largest component run; the levels
    above are all quadrant 0, so they collapse into one swap of components
    1 and ``n`` when their count is odd.  ``W`` is
    ``core_bits.field_width(max(k, n))``, so a field holds a component and
    at least one level's digit.  Each level reads every quadrant digit and
    applies :func:`gene.reverse_step` and then :func:`gene.exchange_step`
    to the low bits in O(n) whole-int operations.  The digits fill one
    ``W``-bit field per point, ``W // n`` levels at a time, each group read
    back by :func:`core_bits.unpack_columns`.
    """
    n, m = params.n, params.m
    check_table_dimension(n)
    if len(values) % n or set(map(type, values)) - {int} or values and (
        min(values) < 0 or max(values) >> m
    ):
        for j in range(0, len(values), n):
            check_point(values[j:j + n][::-1], params)
    return unchecked_keys(params, values)


def unchecked_keys(params: CurveParams, values: Sequence[int]) -> list[int]:
    """:func:`curve_keys` of values that are checked: whole points of
    integers in ``[0, 2**m)``."""
    n, m = params.n, params.m
    count = len(values) // n
    k = max(values, default=0).bit_length()
    if not k:
        return [0] * count
    width = field_width(max(k, n))  # a field holds a component and a digit
    c = [pack_column(values[n - 1 - i::n], width) for i in range(n)]
    if (m - k) & 1:
        c[0], c[-1] = c[-1], c[0]
    ones = field_ones(count, width)
    per = width // n  # levels whose digits fill one field
    keys: list[int] = []
    for top in range(k - 1, -1, -per):
        key = 0
        for v in range(top, max(top - per, -1), -1):
            bit = ones << v
            # The rank bits of the plane g at bit v: r_i = g_i ^ .. ^ g_(n-1).
            r = [0] * n
            acc = 0
            for i in range(n - 1, -1, -1):
                acc ^= c[i] & bit
                r[i] = acc
            digit = 0
            for i in range(n):
                digit |= r[i] >> (v - i) if v >= i else r[i] << (i - v)
            key = (key << n) | digit
            if not v:
                break
            # Spread each rank bit over the low v bits of its field.
            low = bit - ones
            r = [x - (x >> v) for x in r]
            reverse_step(c, r, low)
            exchange_step(c, r, low)
        part = unpack_columns([key], count, width)
        shift = n * (top - v + 1)  # v is the group's last level
        keys = [(a << shift) | z for a, z in zip(keys, part)] if keys else list(part)
    return keys


def _encode(
    p: Sequence[int],
    params: CurveParams,
    table: GeneTable,
    loop: Callable[[list[int], int, int, GeneTable], list[int]],
    fast: bool,
) -> tuple[HilbertIndex, StepCounter]:
    table.check_dimension(params.n)
    check_point(p, params)
    n, m = params.n, params.m
    if m == 0:
        return HilbertIndex(n, ()), StepCounter(0)
    k = effective_level(p) if fast else m
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


def check_point(p: Sequence[int], params: CurveParams) -> None:
    """Raise as the variants do unless ``p`` has ``n`` integer components,
    none a ``bool``, each in ``[0, 2**m)``."""
    if len(p) != params.n:
        raise DimensionMismatchError(
            f"point has {len(p)} components, curve dimension is {params.n}"
        )
    for i, c in enumerate(p):
        if not isinstance(c, int) or isinstance(c, bool):
            raise DomainError(f"component {i + 1} is not an integer: {c!r}")
        if c < 0 or c >> params.m:
            raise DomainError(
                f"component {i + 1} out of range for level {params.m}: {c}"
            )
