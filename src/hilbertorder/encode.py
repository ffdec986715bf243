"""Coordinate-to-index encoders.

Four variants compute the same index:

* ``encode_arith``: compare/subtract updates, one loop pass per level.
* ``encode_bits``: mask/shift updates, one loop pass per level.
* ``encode_arith_fast`` / ``encode_bits_fast``: loop only over the
  levels a point actually occupies.  While every examined top bit is
  zero the only effect per level is a swap of components 1 and ``n``,
  so the skipped levels collapse to at most one up-front swap.

These four are the reference code the paper studies; the production
encoder is ``curve.curve_keys``.

Each variant walks levels top down.  Per level it reads the current
top bit of every component (giving the quadrant digit through the
Gray-rank map), strips that bit, then applies the quadrant's reverse
and exchange commands to the remaining low bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core_bits import HilbertIndex, gray_code_inverse, reflect
from .curve import CurveParams, check_point
from .errors import DomainError
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
