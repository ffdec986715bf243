"""The production codec: one batch kernel per direction, and its input checks.

A curve is a :class:`CurveParams`: the dimension ``n`` (at least 2) and
the level ``m``, every component in ``[0, 2**m)``.  A Hilbert index is
``m`` radix ``2**n`` digits, most significant first.  :func:`curve_keys`
keys a batch of points and :func:`curve_points` places a batch of
indices; each is one whole-batch check and an unchecked kernel, which
the command line runs directly once its readers have checked a file.

Both kernels run the transposed-form walk of J. Skilling ("Programming
the Hilbert curve", AIP Conf. Proc. 707, 2004) on all points at once,
SIMD within a register (R. J. Fisher and H. G. Dietz, "Compiling for
SIMD within a register", LCPC 1998): component ``i + 1`` of every point
is one ``int`` of ``W``-bit fields, one field per point, laid from
packed bytes by :func:`_spread` and read back by :func:`unpack_columns`,
with ``W`` from :func:`field_width`.  Per level, :func:`reverse_step` and
:func:`exchange_step` apply every point's quadrant commands in O(n)
whole-int operations.  They compute the commands from closed forms in
the quadrant digit (those of ``gene.quadrant_commands``), so no gene
table is built.  The tests hold both kernels to the paper's reference
variants in ``encode`` and ``decode``.

This module imports nothing of the package but ``errors``, so the codec
commands load no reference code and no dataclass.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .errors import DimensionMismatchError, DomainError

# The struct code of a field of each width in bits up to one word.
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class CurveParams:
    """Dimension and level of one curve; fixes the coordinate domain.

    Immutable; equal, and hashed alike, when ``n`` and ``m`` are.
    """

    __slots__ = ("n", "m")
    n: int
    m: int

    def __init__(self, n: int, m: int) -> None:
        check_dimension(n)
        if not isinstance(m, int) or m < 0:
            raise DomainError(f"level must be a non-negative integer, got {m!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m)

    def __hash__(self) -> int:
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, m={self.m!r})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__; __setattr__ refuses them.
        return type(self), (self.n, self.m)


def check_dimension(n: int) -> None:
    """Raise unless ``n`` is an integer dimension of at least 2."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")


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


def check_index(digits: Sequence[int], params: CurveParams) -> None:
    """Raise as ``HilbertIndex`` and ``decode_arith`` do unless ``digits`` are
    ``m`` integers in ``[0, 2**n)``; a wrong count is named first."""
    check_digit_count(len(digits), params.m)
    check_digits(digits, params.n)


def check_digit_count(count: int, m: int) -> None:
    """Raise unless an index of ``count`` digits fits level ``m``."""
    if count != m:
        raise DomainError(f"index has {count} digits, curve level is {m}")


def check_digits(digits: Sequence[int], n: int) -> None:
    """Raise for the first of ``digits`` that is not an integer in
    ``[0, 2**n)``, numbering the last digit 1."""
    radix = 1 << n
    for pos, digit in enumerate(digits):
        if not isinstance(digit, int) or not 0 <= digit < radix:
            raise DomainError(
                f"digit {len(digits) - pos} out of range for dimension {n}: {digit!r}"
            )


def integer_digits(z: int, params: CurveParams) -> list[int]:
    """Split ``z`` into ``m`` radix ``2**n`` digits, most significant first."""
    n, m = params.n, params.m
    if z < 0 or z >> (n * m):
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


def pack_bytes(values: Sequence[int], width: int) -> bytes:
    """``values`` as little-endian fields ``width`` bits wide, a
    :func:`field_width` that holds every value: up to 64 bits one
    ``struct.pack``, above that one ``int.to_bytes`` per value."""
    code = _FIELD_CODES.get(width)
    if code:
        return struct.Struct(f"<{len(values)}{code}").pack(*values)  # a tuple reaches it uncopied
    return b"".join([v.to_bytes(width // 8, "little") for v in values])


def unpack_columns(columns: Sequence[int], count: int, width: int) -> tuple[int, ...]:
    """Read each of ``columns`` as ``count`` little-endian fields ``width``
    bits wide, and interleave them: field 0 of every column in order, then
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


# The two commands bit-sliced, for the batch kernels: c[i] holds component
# i + 1 of every point, one field each, and r[i] is bit i of each point's
# quadrant, spread over the bits the commands act on, which ``low`` marks.
# Within ``low``, & and ^ act on every bit as on one point's bit.


def reverse_step(c: list[int], r: Sequence[int], low: int) -> None:
    """Apply each point's reverse command of ``gene.quadrant_commands`` to ``c``."""
    # The entry corner is gray(s), s = (r - 1) & ~1.  b is the borrow of
    # r - 1 into bit i, so s_i = r_i ^ b; past the top bit it flags r = 0,
    # where s_0 = s_n = b makes s all ones, flipping nothing.
    n = len(c)
    b = low ^ r[0]
    s = [0] * (n + 1)
    for i in range(1, n):
        s[i] = r[i] ^ b
        b &= s[i]
    s[0] = s[n] = b
    for i in range(n):
        c[i] ^= s[i] ^ s[i + 1]


def exchange_step(c: list[int], r: Sequence[int], low: int) -> None:
    """Apply each point's exchange command of ``gene.quadrant_commands`` to ``c``."""
    # Swap components d + 1 and n, d the lowest i >= 1 with r_i != r_0,
    # else 0; none when d = n - 1.  A point has one d, so component n
    # takes the xor of every swap's difference.
    last = len(c) - 1
    rest = low
    moved = 0
    for i in range(1, last):
        pick = rest & (r[i] ^ r[0])
        rest ^= pick
        t = (c[i] ^ c[last]) & pick
        c[i] ^= t
        moved ^= t
    rest ^= rest & (r[last] ^ r[0])
    t = (c[0] ^ c[last]) & rest
    c[0] ^= t
    c[last] ^= moved ^ t


def curve_keys(params: CurveParams, values: Sequence[int]) -> list[int]:
    """Return the index of every point of a batch as one ``int`` each.

    ``values`` holds the points flat, each written ``x_n .. x_1`` as in a
    point file, and key ``j`` equals ``index_to_integer(encode_arith(...)[0])``
    of point ``j``.  Only a batch that fails the whole-batch checks (length,
    types, least and greatest value) is checked point by point, raising as
    the variants do for the first bad point; an int subclass passes.  The
    values are packed once, by :func:`pack_bytes`, for :func:`unchecked_keys`.
    """
    n, m = params.n, params.m
    if len(values) % n or set(map(type, values)) - {int} or values and (
        min(values) < 0 or max(values) >> m
    ):
        for j in range(0, len(values), n):
            check_point(values[j:j + n][::-1], params)
    k = max(values, default=0).bit_length()
    size = field_width(k) // 8
    return unchecked_keys(params, pack_bytes(values, 8 * size), size, k)


def unchecked_keys(
    params: CurveParams, records: bytes | memoryview, size: int, k: int
) -> list[int]:
    """:func:`curve_keys` of checked points, packed: ``records`` holds their
    components in file order (``x_n .. x_1`` per point), ``size`` bytes each,
    little-endian, and ``k`` is the bit length of the largest component
    (any ``k`` from that up to ``m`` gives the same keys).

    The walk runs top down, over only the ``k`` levels; the levels above
    are all quadrant 0, so they collapse into one swap of components 1 and
    ``n`` when their count is odd.  :func:`_spread` lays each component in
    a column of ``W``-bit fields, ``W = field_width(max(k, n))``, so a
    field holds a component and at least one level's digit.  Each level
    reads every quadrant digit and applies :func:`reverse_step` and then
    :func:`exchange_step` to the low bits.  The digits fill one field per
    point, ``W // n`` levels at a time.  A group whose top level is ``t``
    reads no bit above ``t``, so past 64 bits it starts on fields
    ``field_width(max(t + 1, n))`` bits wide, narrowed by :func:`_spread`;
    below a word, the more and smaller groups cost more than the narrower
    fields save.  While a key fits a word (``n * k <= 64``) each group is
    spread into one key column that ``struct`` reads at the end; a wider
    key is merged from every group's :func:`unpack_columns`.
    """
    n, m = params.n, params.m
    count = len(records) // (n * size)
    if not k:
        return [0] * count
    width = field_width(max(k, n))  # a field holds a component and a digit
    column, records = bytearray(count * width // 8), memoryview(records)
    bits = min(width, 8 * size)  # no bit of a component lies above k
    c = [_spread(column, width, records[(n - 1 - i) * size:], 8 * n * size, bits) for i in range(n)]
    if (m - k) & 1:
        c[0], c[-1] = c[-1], c[0]
    ones = field_ones(count, width)
    key_width = field_width(n * k) if n * k <= 64 else 0  # the key column's fields, if any
    total, keys = 0, []
    top = k - 1
    while top >= 0:
        narrow = field_width(max(top + 1, n, 64))
        if narrow < width:
            column = bytearray(count * narrow // 8)
            c = [_spread(column, narrow, x.to_bytes(count * width // 8, "little"), width, narrow)
                 for x in c]
            width, ones = narrow, field_ones(count, narrow)
        key = 0
        for v in range(top, max(top - width // n, -1), -1):
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
        if key_width:  # the group's digits sit at bit n * v of each key
            part = key.to_bytes(count * width // 8, "little")
            column = bytearray(count * key_width // 8)
            total |= _spread(column, key_width, part, width, width) << (n * v)
        else:
            shift = n * (top - v + 1)
            part = unpack_columns([key], count, width)
            keys = [(a << shift) | z for a, z in zip(keys, part)] if keys else list(part)
        top = v - 1
    if key_width:
        data = total.to_bytes(count * key_width // 8, "little")
        return list(struct.unpack(f"<{count}{_FIELD_CODES[key_width]}", data))
    return keys


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
    count is named by its whole digit count.  :func:`pack_bytes` packs the
    digits once for :func:`unchecked_points`."""
    n, m = params.n, params.m
    if count is None:
        count = -(-len(digits) // m) if m else 0
    if len(digits) != count * m or set(map(type, digits)) - {int} or digits and (
        min(digits) < 0 or max(digits) >> n
    ):
        for j in range(count):  # the last index takes the digits left over
            check_index(digits[j * m:(j + 1) * m if j + 1 < count else None], params)
        if len(digits) != count * m:  # only where count is 0
            raise DomainError(f"{len(digits)} digits given for {count} indices at level {m}")
    return unchecked_points(params, pack_bytes(digits, field_width(n)), count)


def unchecked_points(params: CurveParams, data: bytes | memoryview, count: int) -> tuple[int, ...]:
    """:func:`curve_points` of ``count`` checked indices, packed: ``data`` holds
    their digits, read in place, ``field_width(n) // 8`` bytes each, little-endian.

    The walk places every index bottom up, on fields ``field_width(n)``
    bits wide that :func:`_spread` widens to ``field_width(W + 1)`` when
    the ``W`` placed levels fill them.  Per level ``v``, :func:`_spread`
    lays the level's digits in one column; then :func:`exchange_step` and
    :func:`reverse_step` apply every digit's quadrant ``r`` to the low
    ``v`` bits, and ``gray(r)`` becomes bit ``v``."""
    n, m = params.n, params.m
    if not m:
        return (0,) * (n * count)
    size, data = field_width(n) // 8, memoryview(data)  # bytes per digit; read in place
    c, width = [0] * n, 8 * size
    column, ones = bytearray(count * size), field_ones(count, width)
    for v in range(m):
        if v == width:  # the placed levels fill every field: widen them
            width = field_width(v + 1)
            column = bytearray(count * width // 8)  # no bit of it above a digit is read
            c = [_spread(column, width, x.to_bytes(count * v // 8, "little"), v, v) for x in c]
            ones = field_ones(count, width)
        packed = _spread(column, width, data[(m - 1 - v) * size:], 8 * m * size, 8 * size)
        r = [(packed >> i) & ones for i in range(n)]  # the rank bits r_i of every digit
        top = [x << v for x in r] + [0]
        if v:
            # Spread each rank bit over the low v bits of its field.
            low = (ones << v) - ones
            r = [t - x for t, x in zip(top, r)]
            exchange_step(c, r, low)
            reverse_step(c, r, low)
        # Set bit v, zero in every field so far, to gray(r): bit i is r_i ^ r_(i+1).
        for i in range(n):
            c[i] ^= top[i] ^ top[i + 1]
    del column, packed, r, top  # the output reuses their memory
    return unpack_columns(c[::-1], count, width)


def _spread(column: bytearray, width: int, src: bytes | memoryview, stride: int, size: int) -> int:
    """Copy the ``size`` bits at bit ``j * stride`` of ``src`` into field ``j``
    of ``column`` (``width`` bits each) for every ``j``; return ``column`` as an int."""
    word = min(size, 64)  # bits per strided copy: one copy, or one per word of a wider field
    code = _FIELD_CODES[word]
    fields, src = memoryview(column).cast(code), memoryview(src).cast(code)
    for t in range(size // word):
        fields[t::width // word] = src[t::stride // word]
    return int.from_bytes(column, "little")
