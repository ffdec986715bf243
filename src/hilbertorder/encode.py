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
:func:`curve_key`, which computes the same index as one ``int``.  While
``n <= 4`` it reads the levels through a state table, one list lookup
per chunk of up to five levels; above that its per-level work does not
grow with ``n``.

Each variant walks levels top down.  Per level it reads the current
top bit of every component (giving the quadrant digit through the
Gray-rank map), strips that bit, then applies the quadrant's reverse
and exchange commands to the remaining low bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import itemgetter, or_
from typing import Callable, Sequence

from .core_bits import CurveParams, HilbertIndex, gray_code_inverse, reflect
from .errors import DimensionMismatchError, DomainError
from .gene import GeneTable

# Entries one state table of curve_key may hold.  It holds 2**(n * L)
# entries per state for L levels per lookup, so L = 5 at n = 2, 2 at
# n = 3 and 1 at n = 4, and from n = 5 no table fits.
_TABLE_ENTRIES = 4096


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


def curve_key(params: CurveParams, table: GeneTable) -> Callable[[Sequence[int]], int]:
    """Return the production encoder of one curve: a point to its index as one ``int``.

    The returned function rejects what the variants reject, with the same
    messages, and equals ``index_to_integer(encode_arith(p, params, table)[0])``.
    The point's bits are first interleaved into one integer ``z`` whose
    ``n``-bit plane at level ``v`` holds bit ``v`` of every component,
    component ``i + 1`` at bit ``v * n + i``: the transposed form of
    J. Skilling ("Programming the Hilbert curve", AIP Conf. Proc. 707,
    2004).  Leading all-zero levels collapse into one swap of components
    1 and ``n``, as in the fast variants.  A point is checked only by its
    length, its component types and signs, and ``z < 2**(n * m)``; only a
    point that fails this goes through the variants' check.

    While ``n <= 4`` the planes are then read through a state table (the
    state diagram of A. R. Butz, IEEE Trans. Computers C-20, 1971, and
    J. K. Lawder, Birkbeck BBKCS-00-01, 2000): the reverse and exchange
    commands of the levels read so far compose to one of the curve's
    ``n! * 2**(n - 1)`` transforms, and one list lookup per chunk of
    ``L`` planes gives the chunk's ``L`` digits and the next transform.
    The table holds at most ``_TABLE_ENTRIES`` entries, which sets ``L``:
    5 at ``n = 2``, 2 at ``n = 3`` and 1 at ``n = 4``.  From ``n = 5`` no
    table fits, and each level costs one xor for its reverse command and
    one delta swap on ``z`` for its exchange, whatever ``n`` is.  So does
    every level of a hand-built table with more states than fit, or whose
    quadrant 0 is not the swap of components 1 and ``n``.
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
    bits = n * m
    levels, rows = _state_table(table, rank, flip) or (0, None)
    width = n * levels  # bits of z one lookup reads
    chunk = (1 << width) - 1

    def key(p: Sequence[int]) -> int:
        z = 0
        if len(p) == n:
            for i, c in enumerate(p):
                if type(c) is not int or c < 0:  # a negative c never ends the loop
                    break
                while c:
                    z |= spread[c & 255] << i
                    c >>= 8
                    i += stride
            else:
                # A component of 2**m or more would add levels above m.
                if not z >> bits:
                    if rows is not None:
                        # The occupied levels, rounded up to whole chunks;
                        # the collapsed swap stands for the levels above.
                        # e is the entry last read, and e >> width the row
                        # of the state it leads to: first a start state.
                        chunks = -(-z.bit_length() // width)
                        e = ((m - chunks * levels) & 1) << (2 * width)
                        index = 0
                        for shift in range(width * (chunks - 1), -1, -width):
                            e = rows[(e >> width) | (z >> shift) & chunk]
                            index = (index << width) | (e & chunk)
                        return index
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
        # Raise as the variants do; only an int subclass, which they
        # accept, gets past the check, and is keyed as a plain int.
        _check_point(p, params, table)
        return key([int(c) for c in p])

    return key


def _state_table(
    table: GeneTable, rank: Sequence[int], flip: Sequence[int]
) -> tuple[int, list[int]] | None:
    """The state table of :func:`curve_key`, or None where the loop must run.

    That is where the curve's ``n! * 2**(n - 1)`` states do not fit in
    ``_TABLE_ENTRIES`` for one level per lookup, and for a hand-built
    table with more states or a quadrant 0 that is not the swap of
    components 1 and ``n``.  Else returns the largest ``L`` that fits,
    and the rows: with ``W = n * L``, the entry at ``s * 2**W + c`` is
    read in state ``s`` from the chunk ``c`` of ``L`` raw planes, the top
    plane in the high bits.  It is one ``int``, the next state ``s'``
    times ``2**(2 * W)`` plus the chunk's ``L`` digits, so ``entry >> W``
    is where the row of ``s'`` starts.  A state is the
    map from a raw plane to the plane as read, held as the tuple of its
    ``2**n`` images; states 0 and 1 are the two start states, the
    identity and the swap of components 1 and ``n``.
    """
    size = len(rank)
    n = size.bit_length() - 1
    low = size - 1
    count = factorial(n) << (n - 1)  # states of the curve
    levels = 0
    while count << (n * (levels + 1)) <= _TABLE_ENTRIES:
        levels += 1
    if not levels:
        return None
    width = n * levels
    # moved[g][v]: the plane v after the commands of the quadrant read as g.
    moved = []
    for g in range(size):
        pair = table.swap_pairs[rank[g]]
        after = []
        for v in range(size):
            v ^= flip[g]
            if pair is not None and ((v >> pair[0]) ^ (v >> pair[1])) & 1:
                v ^= (1 << pair[0]) | (1 << pair[1])
            after.append(v)
        moved.append(tuple(after))
    ends = 1 | size >> 1  # components 1 and n
    swapped = tuple(v ^ ends if (v & ends) in (1, size >> 1) else v for v in range(size))
    # A point's levels are rounded up to whole chunks, so a lookup may read
    # all-zero planes above them.  They stand for the collapsed swaps only
    # if quadrant 0 is that swap; a hand-built table whose quadrant 0 is
    # not gets the loop.
    if moved[0] != swapped:
        return None
    states = [tuple(range(size)), swapped]
    offsets = {state: i << (2 * width) for i, state in enumerate(states)}
    step = []  # step[s * 2**n + x]: one level's next state and digit
    for state in states:  # breadth first; the list grows while it is read
        image = itemgetter(*state)  # image(t)[x] = t[state[x]]
        after = list(map(image, moved))  # after[g]: the state once g is read
        ahead = list(map(offsets.get, after))
        if None in ahead:
            for g, new in enumerate(after):
                if ahead[g] is None:
                    if new not in offsets:
                        if len(states) == count:
                            return None  # a hand-built table with more states
                        offsets[new] = len(states) << (2 * width)
                        states.append(new)
                    ahead[g] = offsets[new]
        step += map(or_, image(ahead), image(rank))
    rows = step
    for j in range(1, levels):  # rows of j levels to rows of j + 1
        shift = n * j
        per_state = [rows[i:i + (1 << shift)] for i in range(0, len(rows), 1 << shift)]
        rows = [
            ((e & low) << shift) | rest for e in step for rest in per_state[e >> (2 * width)]
        ]
    return levels, rows


def _encode(
    p: Sequence[int],
    params: CurveParams,
    table: GeneTable,
    loop: Callable[[list[int], int, int, GeneTable], list[int]],
    fast: bool,
) -> tuple[HilbertIndex, StepCounter]:
    _check_point(p, params, table)
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
