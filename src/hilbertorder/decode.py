"""Index-to-coordinate decoders; exact inverses of the encoders.

Decoding runs bottom up: the least significant digit places the point
inside its level-1 cell, then every further digit applies the
quadrant's exchange and reverse commands before adding the quadrant
offset.  The fast variants stop after the highest nonzero digit; the
levels above it would each contribute only a swap of components 1 and
``n``, folded into one final conditional swap.
"""

from __future__ import annotations

from typing import Callable

from .core_bits import Coordinate, CurveParams, HilbertIndex, gray_code, reflect
from .encode import StepCounter
from .errors import DimensionMismatchError, DomainError
from .gene import GeneTable


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
    _check_index(idx, params, table)
    if params.m == 0:
        return (0,) * params.n, StepCounter(0)
    x = _coords_arith(idx.digits, params.n, params.m, table)
    return tuple(x), StepCounter(params.m)


def decode_bits(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with bit-operation updates, visiting all ``m`` levels."""
    _check_index(idx, params, table)
    if params.m == 0:
        return (0,) * params.n, StepCounter(0)
    x = _coords_bits(idx.digits, params.n, params.m, table)
    return tuple(x), StepCounter(params.m)


def decode_arith_fast(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with arithmetic updates, stopping at the highest nonzero digit."""
    return _decode_fast(idx, params, table, _coords_arith)


def decode_bits_fast(
    idx: HilbertIndex, params: CurveParams, table: GeneTable
) -> tuple[Coordinate, StepCounter]:
    """Decode with bit-operation updates, stopping at the highest nonzero digit."""
    return _decode_fast(idx, params, table, _coords_bits)


def _decode_fast(
    idx: HilbertIndex,
    params: CurveParams,
    table: GeneTable,
    loop: Callable[[tuple[int, ...], int, int, GeneTable], list[int]],
) -> tuple[Coordinate, StepCounter]:
    _check_index(idx, params, table)
    n, m = params.n, params.m
    if m == 0:
        return (0,) * n, StepCounter(0)
    k = index_effective_level(idx)
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


def _check_index(idx: HilbertIndex, params: CurveParams, table: GeneTable) -> None:
    if idx.n != params.n:
        raise DimensionMismatchError(
            f"index is for dimension {idx.n}, curve dimension is {params.n}"
        )
    table.check_dimension(params.n)
    if len(idx.digits) != params.m:
        raise DomainError(
            f"index has {len(idx.digits)} digits, curve level is {params.m}"
        )
