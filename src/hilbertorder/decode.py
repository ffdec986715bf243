"""Index-to-coordinate decoders; exact inverses of the encoders.

Decoding runs bottom up: the least significant digit places the point
inside its level-1 cell, then every further digit applies the
quadrant's exchange and reverse commands before adding the quadrant
offset.  The fast variants stop after the highest nonzero digit; the
levels above it would each contribute only a swap of components 1 and
``n``, folded into one final conditional swap.

These four are the reference code the paper studies.  The production
decoder behind ``hilbert decode`` and ``hilbert validate`` is
:func:`curve_point`, whose per-digit work does not grow with ``n``.
While ``n <= 8`` it holds the placed levels as one byte per bit plane
and places a digit with one ``bytes.translate``; above that it packs
the components into one ``int``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core_bits import Coordinate, CurveParams, HilbertIndex, gray_code, reflect
from .encode import StepCounter
from .errors import DimensionMismatchError, DomainError
from .gene import GeneTable

# Bits of per-digit steps one curve_point decoder keeps from n = 9, where
# its field kernel runs (16 MiB): every quadrant's step fits while
# 2**n * (2 * n * m + 1) <= 2**27, so up to m = 14563 at n = 9 and
# m = 6553 at n = 10.
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
    Digits are placed bottom up in the transposed (bit-plane) form of
    J. Skilling ("Programming the Hilbert curve", AIP Conf. Proc. 707,
    2004) that :func:`encode.curve_key` reads: per digit ``r``, with
    ``v`` planes already placed, quadrant ``r``'s exchange and reverse
    commands act on each placed plane alike, and ``gray(r)`` becomes
    plane ``v``.

    While ``n <= 8`` a plane fits in a byte, so the placed planes are one
    ``bytes`` object, byte ``v`` holding bit ``v`` of every component
    (component ``i + 1`` at bit ``i``), and a digit costs one
    ``bytes.translate`` through quadrant ``r``'s 256-byte table plus one
    appended byte.  An 8 x 8 bit transpose per eight planes then gives
    each component its bytes.

    From ``n = 9`` an exchange can cross bytes, and component ``i + 1``
    lives in the ``m``-bit field at bit ``i * m`` of one integer ``x``
    instead: the exchange is one delta swap of two fields; the reverse
    command (the low ``v`` bits of the reversed fields) and the quadrant
    offset (``gray(r)``, one bit per field, at bit ``v``) are one more
    xor.  A digit's step, which holds two ``n * m``-bit integers, is
    built the first time the digit occurs, and at most ``_STEP_BITS``
    bits of steps are kept, so set-up does not grow with
    ``2**n * n * m``.  The per-digit work of either kernel does not grow
    with ``n``.
    """
    n, m = params.n, params.m
    table.check_dimension(n)

    def reject(digits: Sequence[int]) -> None:
        _check_digit_count(len(digits), m)
        HilbertIndex(n, tuple(digits))  # raises on the first bad digit

    if n <= 8:
        return _byte_plane_point(n, m, table, reject)
    return _field_point(n, m, table, reject)


def _field_point(
    n: int, m: int, table: GeneTable, reject: Callable[[Sequence[int]], None]
) -> Callable[[Sequence[int]], Coordinate]:
    """``curve_point``'s kernel from ``n = 9``: one ``m``-bit field per component."""
    size = 1 << n
    field = (1 << m) - 1
    # One mask of n * m bits per exchanged pair, shared by its quadrants.
    masks = {pair: field << (pair[0] * m) for pair in set(table.swap_pairs) if pair}
    spread = [0] * 256  # spread[c] moves bit j of the byte c to bit j * m
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


def _byte_plane_point(
    n: int, m: int, table: GeneTable, reject: Callable[[Sequence[int]], None]
) -> Callable[[Sequence[int]], Coordinate]:
    """``curve_point``'s kernel while ``n <= 8``: one byte per plane."""
    size = 1 << n
    ones = int.from_bytes(bytes([1]) * 256, "little")  # bit 0 of every byte
    every = int.from_bytes(bytes(range(256)), "little")  # byte c holds c
    # moves[r][c] is the plane c after quadrant r's exchange and then its
    # reverse command.  All 256 planes take an exchange at once, as the
    # bytes of one int (a delta swap of two bits per byte), once per pair;
    # a reverse command is then one xor per quadrant.
    swapped = {None: every}
    for pair in set(table.swap_pairs) - {None}:
        a, b = pair
        t = ((every >> (b - a)) ^ every) & (ones << a)
        swapped[pair] = every ^ t ^ (t << (b - a))
    moves = [
        (swapped[table.swap_pairs[r]] ^ sum(1 << i for i in table.reverse_slots[r]) * ones)
        .to_bytes(256, "little")
        for r in range(size)
    ]
    offsets = [bytes([r ^ (r >> 1)]) for r in range(size)]
    # The planes padded to whole words of eight, and the masks of an 8 x 8
    # bit transpose of every 64-bit word (H. S. Warren, Hacker's Delight,
    # 7-3): plane j of a word at bit 8 * j + i becomes component i + 1 at
    # bit 8 * i + j, so byte i of word w holds bits 8 * w .. 8 * w + 7 of
    # component i + 1.
    words = -(-m // 8)
    pad = bytes(8 * words - m)
    rep = int.from_bytes(bytes([1] + [0] * 7) * words, "little")  # bit 0 of every word
    mask7, mask14, mask28 = (0x00AA00AA00AA00AA * rep, 0x0000CCCC0000CCCC * rep,
                             0x00000000F0F0F0F0 * rep)
    components = range(n)

    def point(digits: Sequence[int]) -> Coordinate:
        try:
            if len(digits) != m or (m and not 0 <= min(digits) <= max(digits) < size):
                reject(digits)
            planes = b""
            for r in reversed(digits):
                planes = planes.translate(moves[r]) + offsets[r]
        except TypeError:  # a digit that is not an int
            reject(digits)
            raise
        x = int.from_bytes(planes + pad, "little")
        t = ((x >> 7) ^ x) & mask7
        x ^= t ^ (t << 7)
        t = ((x >> 14) ^ x) & mask14
        x ^= t ^ (t << 14)
        t = ((x >> 28) ^ x) & mask28
        x ^= t ^ (t << 28)
        columns = x.to_bytes(8 * words, "little")
        return tuple([int.from_bytes(columns[i::8], "little") for i in components])

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
