"""Index-to-coordinate decoders; exact inverses of the encoders.

Decoding runs bottom up: the least significant digit places the point
inside its level-1 cell, then every further digit applies the
quadrant's exchange and reverse commands before adding the quadrant
offset.  The fast variants stop after the highest nonzero digit; the
levels above it would each contribute only a swap of components 1 and
``n``, folded into one final conditional swap.

These four are the reference code the paper studies.  The production
decoder behind ``hilbert decode`` and ``hilbert validate`` is
:func:`curve_point`, which packs the components into one ``int`` so
that the per-digit work does not grow with ``n``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core_bits import Coordinate, CurveParams, HilbertIndex, gray_code, reflect
from .encode import StepCounter
from .errors import DimensionMismatchError, DomainError
from .gene import GeneTable

# Bits of per-digit steps one curve_point decoder keeps (16 MiB): every
# quadrant's step fits while n <= 8 and m <= 32768.
_STEP_BITS = 1 << 27


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


def curve_point(
    params: CurveParams, table: GeneTable
) -> Callable[[Sequence[int]], Coordinate]:
    """Return the production decoder of one curve: an index's digits to its point.

    The returned function takes the ``m`` radix ``2**n`` digits most
    significant first, as in ``HilbertIndex.digits``, rejects what
    ``HilbertIndex`` and ``decode_arith`` reject with the same messages
    (the digit count first), and equals
    ``decode_arith(HilbertIndex(n, digits), params, table)[0]``.
    Component ``i + 1`` lives in the ``m``-bit field at bit ``i * m`` of
    one integer ``x``, the decoding mirror of :func:`encode.curve_key`.
    Per digit ``r``, bottom up with ``v`` bits already placed per field,
    the exchange is one delta swap of two fields; the reverse command
    (the low ``v`` bits of the reversed fields) and the quadrant offset
    (``gray(r)``, one bit per field, at bit ``v``) are one more xor.
    The per-digit work does not grow with ``n``.

    A digit's step, which holds two ``n * m``-bit integers, is built the
    first time the digit occurs, and at most ``_STEP_BITS`` bits of steps
    are kept, so set-up does not grow with ``2**n * n * m``.
    """
    n, m = params.n, params.m
    table.check_dimension(n)
    size = 1 << n
    field = (1 << m) - 1
    # One mask of n * m bits per exchanged pair, shared by its quadrants.
    masks = {pair: field << (pair[0] * m) for pair in set(table.swap_pairs) if pair}
    spread = [0] * min(size, 256)  # spread[c] moves bit j of the byte c to bit j * m
    for c in range(1, len(spread)):
        spread[c] = (spread[c >> 1] << m) | (c & 1)

    def widen(c: int) -> int:
        """Move bit i of the n-bit mask c to bit 0 of field i."""
        w = shift = 0
        while c:
            w |= spread[c & 255] << shift
            c >>= 8
            shift += 8 * m
        return w

    steps: list = [None] * size
    built: list[int] = []  # the digits whose step is in ``steps``
    cap = max(1, _STEP_BITS // (2 * n * m + 1))

    def step(r: int) -> tuple[int, int, int, int]:
        # Digit r's exchange as the distance between the two fields and
        # the mask of the lower one ((0, 0) when it has none), then
        # ``flip + offset`` and ``offset``: bit 0 of every field that
        # reverse_slots[r] names, and of every field whose bit in gray(r)
        # is set.
        if len(built) >= cap:
            for s in built:
                steps[s] = None
            built.clear()
        d = mask = 0
        if table.swap_pairs[r] is not None:
            a, b = table.swap_pairs[r]
            d, mask = (b - a) * m, masks[a, b]
        offset = widen(r ^ (r >> 1))
        flip = widen(sum(1 << i for i in table.reverse_slots[r]))
        steps[r] = (d, mask, flip + offset, offset)
        built.append(r)
        return steps[r]

    shifts = range(0, n * m, m) if m else [0] * n

    def reject(digits: Sequence[int]) -> None:
        _check_digit_count(len(digits), m)
        HilbertIndex(n, tuple(digits))  # raises on the first bad digit

    def point(digits: Sequence[int]) -> Coordinate:
        try:
            if len(digits) != m or (m and not 0 <= min(digits) <= max(digits) < size):
                reject(digits)
            x = 0
            low = 0  # (1 << v) - 1: the v bits already placed in every field
            for r in reversed(digits):
                d, mask, flip_offset, offset = steps[r] or step(r)
                t = ((x >> d) ^ x) & mask
                # Exchange, then reverse the low v bits of the flipped
                # fields (flip * low) and set bit v of the offset fields
                # (offset << v).  Bit v is still zero in every field and
                # the two touch disjoint bits, so one xor with their sum,
                # flip * low + offset * (low + 1) = flip_offset * low + offset,
                # does both.
                x ^= t ^ (t << d) ^ (flip_offset * low + offset)
                low += low + 1
        except TypeError:  # a digit that is not an int
            reject(digits)
            raise
        return tuple([(x >> s) & field for s in shifts])

    return point


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
