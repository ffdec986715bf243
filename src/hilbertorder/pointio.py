r"""Point files and index tokens: the formats the command line reads and writes.

Points are written component ``n`` first (``x_n ... x_1``).  A text point
file is UTF-8, one point per line, components separated by whitespace or
commas, with ``#`` comment lines; a line ends at ``\n``, ``\r\n`` or
``\r``.  A binary one is magic ``HPTS``, a version byte, the dimension
(two bytes) and the record count (eight), then 64-bit components per
record, all little-endian.  Indices print in decimal while ``n * m <= 64``,
else as ``digits:`` and their radix ``2**n`` digits, most significant first.

A reader opens its file once and takes the format from its bytes, so a
pipe works as an input.  :func:`read_points` gives the components packed,
in file order, as :func:`curve.unchecked_keys` takes them, and
:func:`read_indices` the digits of every index packed the same way, as
:func:`curve.unchecked_points` takes them; each checks its values once per
file, so the codec that follows need not check them again.  A binary
file (its payload as it is), a plain text point file
(:func:`_plain_text_values`) and a file of ``digits:`` index tokens alone
(:func:`_digit_token_values`) are read with no Python loop per row, the
text ones after the row loop's line ends (:func:`_plain_lines`).  Any other
file, and any with a component out of range, goes through a row loop, which
checks a row by its largest value and names the first bad row in file order
(``line N`` or ``record N``) with the same message either way.  The writer
moves each row's record, an ``HPTS`` row or a text line, into the new order,
formatting only text not yet as it writes it; it writes stdout's own file
through stdout and replaces any other regular output whole, so a failed run
leaves it intact.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat
import struct
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .curve import (
    CurveParams, check_index, check_point, field_width, integer_digits, pack_bytes,
)
from .errors import DomainError, PointFileError

POINT_MAGIC = b"HPTS"
POINT_FORMAT_VERSION = 1
_POINT_FIELDS = struct.Struct("<BHQ")  # version, dimension, record count
_POINT_HEADER = len(POINT_MAGIC) + _POINT_FIELDS.size
# The bytes of a text point file the whole-file reader takes: with these
# only, a line is a row, and its tokens are what the row parser reads.
_PLAIN_TEXT_BYTES = b"0123456789 \t\n"
# The bit length of every byte value, for bytes.translate.
_BIT_LENGTHS = bytes(b.bit_length() for b in range(256))

DIGIT_PREFIX = "digits:"
# Strings one digit table of format_indices may hold.  It holds 2**(n * L)
# strings for L digits per lookup, so L = 6, 4, 3 at n = 2, 3, 4 and 1 up
# to n = 12; from n = 13 no table fits.  The block reader reads digits
# through a bytes-keyed dict of the L = 1 table under the same cap.
_DIGIT_TABLE_STRINGS = 4096
# Bytes per block of the digits: reader.  A block and its digit list stay below
# glibc malloc's 128 KiB mmap threshold, so the next one reuses their pages: 10k
# n = 8, m = 32 tokens take 1,600 minor faults, 5,000 in 1,024-line blocks.
_DIGIT_BLOCK_BYTES = 16384

# CPython's cap on decimal digits per int <-> str conversion; 0 means no
# cap, as on interpreters that predate it.
int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def parse_decimal(token: str, what: str) -> int:
    """Read ``token`` as ASCII digits 0-9 only; ``what`` names it in errors."""
    if not (token.isascii() and token.isdigit()):
        raise DomainError(f"bad {what} {token!r}: not a decimal integer (digits 0-9 only)")
    try:
        return int(token)
    except ValueError:  # plain digits fail only on the digit-count cap
        raise DomainError(
            f"bad {what}: {len(token)} digits is too long, the limit is "
            f"{int_max_str_digits()} (sys.get_int_max_str_digits())"
        ) from None


def check_bit_count(bits: int, what: str, values: str) -> None:
    """Refuse a ``what`` of ``bits`` when ``values`` below ``2**bits`` can have
    more decimal digits than ``int_max_str_digits()`` allows to print."""
    limit = int_max_str_digits()
    top = (10**limit).bit_length() - 1  # highest bits with 2**bits - 1 < 10**limit
    if limit and bits > top:
        raise DomainError(
            f"{what} {bits} is above {top}: {values} below 2**{bits} can exceed "
            f"the {limit}-digit limit of sys.get_int_max_str_digits()"
        )


def parse_point(parts: Sequence[str], n: int) -> list[int]:
    """Read components written ``x_n .. x_1`` in that order, unchecked for range."""
    if len(parts) != n:
        raise DomainError(f"expected {n} components, found {len(parts)}")
    return [parse_decimal(part, "component") for part in parts]


def format_flat(flat: tuple[int, ...], n: int) -> str:
    """Text lines of ``n`` decimal components each, separated by one space,
    from their values in line order, through one ``%``-format of the whole
    output."""
    return (" ".join(["%d"] * n) + "\n") * (len(flat) // n) % flat


def parse_index(token: str, params: CurveParams) -> Sequence[int]:
    """Digits of an index token, most significant first, checked against the
    curve as :func:`curve.check_index` checks them.

    A ``digits:`` token of ASCII digits and dots takes one ``map(int, ...)``;
    any other goes to :func:`parse_decimal` per digit, which words the
    fault.  ``len`` and ``max`` check the count and the largest digit, so a
    good token pays no check per digit; :func:`check_index` only words a fault.
    """
    if not token.startswith(DIGIT_PREFIX):
        return integer_digits(parse_decimal(token, "index value"), params)
    body = token[len(DIGIT_PREFIX):]
    parts = body.split(".") if body else []
    digits = None
    if body.isascii() and body.replace(".", "").isdigit():
        try:  # not contextlib.suppress, whose calls would cost every row
            digits = list(map(int, parts))
        except ValueError:  # an empty digit, or one past the digit-count cap
            pass
    if digits is None:
        digits = [parse_decimal(part, "index digit") for part in parts]
    if len(digits) != params.m or digits and max(digits) >> params.n:
        check_index(digits, params)  # raises
    return digits


def format_indices(keys: Sequence[int], params: CurveParams, force_digits: bool) -> str:
    """The lines ``encode`` prints for ``keys``: the decimal value while
    ``n * m <= 64``, the ``digits:`` token beyond that, and both where
    ``force_digits`` asks for the token at every size.

    Every key sits below ``2**(n * k)``, ``k`` the levels the largest key
    uses (one at least while ``m > 0``), so each token's ``m - k`` leading
    digits are one constant ``0.`` prefix.  The ``k`` digits are read as
    columns over all keys: ``L`` digits per lookup in the table of
    :func:`_digit_strings` while ``2**n <= _DIGIT_TABLE_STRINGS``, the
    ``k mod L`` leading ones from a shorter table; above that, one ``str``
    per digit.  ``map`` joins each token's columns, and one join with the
    prefix between lines makes the output.  The first key outside
    ``0 <= z < 2**(n * m)`` raises as :func:`integer_digits` does.
    """
    n, m = params.n, params.m
    top = max(keys, default=0)
    if keys and (min(keys) < 0 or top >> (n * m)):
        integer_digits(next(z for z in keys if z < 0 or z >> (n * m)), params)  # raises
    decimal = n * m <= 64
    if decimal and not force_digits:
        return format_flat(tuple(keys), 1)
    k = min(m, -(-top.bit_length() // n) or 1)
    levels = (_DIGIT_TABLE_STRINGS.bit_length() - 1) // n  # largest L with 2**(n * L) <= cap
    if levels:
        width = n * levels
        chunk = (1 << width) - 1
        lead = width * (k // levels)  # the leading k mod L digits sit above this bit
        columns = []
        if k % levels:
            leading = _digit_strings(n, k % levels)
            columns.append([leading[z >> lead] for z in keys])
        strings = _digit_strings(n, levels)
        for shift in range(lead - width, -1, -width):
            columns.append([strings[(z >> shift) & chunk] for z in keys])
    else:
        low = (1 << n) - 1
        shifts = range(n * (k - 1), -1, -n)
        columns = [[str((z >> shift) & low) for z in keys] for shift in shifts]
    prefix = DIGIT_PREFIX + "0." * (m - k)
    lines = list(map(".".join, zip(*columns))) if columns else [""] * len(keys)
    if decimal:
        lines = list(map(f" {prefix}".join, zip(map(str, keys), lines)))
        prefix = ""
    if not lines:
        return ""
    # Only the first and last line are copied to give the output its ends.
    lines[0] = prefix + lines[0]
    lines[-1] += "\n"
    return f"\n{prefix}".join(lines)


@functools.lru_cache(maxsize=None)
def _digit_strings(n: int, count: int) -> tuple[str, ...]:
    """``"d1.d2.….dcount"`` for every run of ``count`` radix ``2**n`` digits,
    at the run's value: the top digit first, as a ``digits:`` token writes it."""
    if count == 1:
        return tuple(map(str, range(1 << n)))
    return tuple(f"{a}.{b}" for a in _digit_strings(n, 1) for b in _digit_strings(n, count - 1))


@functools.lru_cache(maxsize=None)
def _digit_values(n: int) -> dict[bytes, int] | None:
    """Each radix ``2**n`` digit's decimal string, as bytes, to its value,
    while ``2**n <= _DIGIT_TABLE_STRINGS``; else ``None``."""
    if 1 << n > _DIGIT_TABLE_STRINGS:
        return None
    return {string.encode(): value for value, string in enumerate(_digit_strings(n, 1))}


def read_indices(path: Path, params: CurveParams) -> tuple[bytes | bytearray, int]:
    """The digits of every index of a text index file, packed in file order
    as :func:`curve.unchecked_points` takes them, and the number of indices.

    A file of ``digits:`` tokens alone is read by :func:`_digit_token_values`,
    any other by the row loop through :func:`parse_index`, which names the
    first bad row."""
    data = path.read_bytes()
    if (found := _digit_token_values(data, params)) is not None:
        return found
    rows = _text_rows(path, data, parse_index, params)
    return pack_bytes(list(chain.from_iterable(rows)), field_width(params.n)), len(rows)


def _digit_token_values(data: bytes, params: CurveParams) -> tuple[bytes | bytearray, int] | None:
    """The digits of an index file, packed as :func:`read_indices` gives them,
    and its index count, if each line :func:`_plain_lines` leaves is
    ``digits:`` and ``m > 0`` digits below ``2**n <= _DIGIT_TABLE_STRINGS``,
    written as ``str`` writes them; else ``None``.  One-byte digits collect
    in a ``bytearray``, wider ones in a list that is packed once at the end.

    One ``translate`` that drops the digits checks that every line is the
    prefix and ``m - 1`` dots; a digit inside a prefix leaves its colon in a
    digit string, which no lookup takes.  Per block, cut at the first line
    end ``_DIGIT_BLOCK_BYTES`` or more past its start, one ``replace`` and one
    ``split`` give the digit strings, read through :func:`_digit_values`."""
    m, table, prefix = params.m, _digit_values(params.n), DIGIT_PREFIX.encode()
    data = _plain_lines(data) if m and table is not None and prefix in data else None
    if data is None:
        return None
    end = len(data) - data.endswith(b"\n")  # the end of the last line
    count = data.count(b"\n", 0, end) + 1
    if data.translate(None, b"0123456789") != (
            b"\n".join([prefix + b"." * (m - 1)] * count) + data[end:]):  # freed before the split
        return None
    width, start = field_width(params.n), 0
    digits: bytearray | list[int] = bytearray() if width == 8 else []
    while start < end:
        stop = data.find(b"\n" + prefix, start + _DIGIT_BLOCK_BYTES, end)
        stop = end if stop < 0 else stop
        block = data[start + len(prefix):stop].replace(b"\n" + prefix, b".")
        try:
            digits.extend(map(table.__getitem__, block.split(b".")))
        except KeyError:  # an empty digit, a leading zero or one of 2**n or more
            return None
        start = stop + 1
    return (digits if width == 8 else pack_bytes(digits, width)), count


def read_points(
    path: Path, params: CurveParams
) -> tuple[bytes | memoryview, int, int, memoryview | bytes | tuple[int, ...]]:
    """The points of a text or binary point file as :func:`curve.unchecked_keys`
    takes them: the components packed little-endian in file order (``x_n ..
    x_1`` per row), the bytes per component and the largest one's bit length;
    then what :func:`write_points` takes for the rows: a binary file's payload
    ``memoryview``, the first item again, a text file's bytes when its lines
    are as :func:`format_flat` writes them, else its components.
    A parse error or a component of ``2**m`` or more is named by its row."""
    n, m = params.n, params.m
    data = path.read_bytes()
    if data.startswith(POINT_MAGIC):
        records = _binary_records(path, data, n)
        k = _payload_bits(data, _POINT_HEADER)
        if k <= m:
            return records, 8, k, records
        # A component is out of range: name the first record that holds one.
        for record, row in enumerate(struct.iter_unpack(f"<{n}Q", records)):
            try:
                check_point(row[::-1], params)
            except DomainError as exc:
                raise PointFileError(f"{path}: record {record}: {exc}") from exc
    values, source = _plain_text_values(data, n) or (None, None)
    k = m + 1 if values is None else max(values, default=0).bit_length()
    if k > m:  # the row loop reads the file, and names its first bad row
        source = values = tuple(chain.from_iterable(_text_rows(path, data, _checked_row, params)))
        k = max(values, default=0).bit_length()
    size = field_width(k) // 8
    return pack_bytes(values, 8 * size), size, k, source


def write_points(path: Path, n: int, order: Sequence[int], source: Sequence) -> None:
    """Write the rows of ``source``, as :func:`read_points` gives it, to ``path``
    in ``order``, replacing it whole: an ``HPTS`` payload's ``8 * n``-byte records
    after a new header, else text lines in output form or the components' :func:`format_flat`."""
    if isinstance(source, memoryview):
        rows = [source[i:i + 8 * n] for i in range(0, len(source), 8 * n)]
        payload = POINT_MAGIC + _POINT_FIELDS.pack(POINT_FORMAT_VERSION, n, len(rows))
        _write_whole(path, payload + b"".join(map(rows.__getitem__, order)))
    else:
        rows = (source if isinstance(source, bytes) else format_flat(source, n).encode()).split(b"\n")
        _write_whole(path, b"\n".join(chain(map(rows.__getitem__, order), [b""])))


def _binary_records(path: Path, data: bytes, n: int) -> memoryview:
    """The payload of an ``HPTS`` file, after its header checks."""
    if len(data) < _POINT_HEADER:
        raise PointFileError(f"{path}: truncated header")
    version, file_n, count = _POINT_FIELDS.unpack_from(data, len(POINT_MAGIC))
    if version != POINT_FORMAT_VERSION:
        raise PointFileError(f"{path}: unsupported point file version {version}")
    if file_n < 2:
        raise PointFileError(f"{path}: invalid dimension {file_n}")
    expected = _POINT_HEADER + count * file_n * 8
    if len(data) != expected:
        raise PointFileError(f"{path}: payload has {len(data)} bytes, expected {expected}")
    if file_n != n:
        raise PointFileError(f"{path}: file is {file_n}-dimensional, expected {n}")
    return memoryview(data)[_POINT_HEADER:]


def _payload_bits(data: bytes, start: int) -> int:
    """The bit length of the largest 8-byte component of the payload at
    ``data[start:]``, from the highest byte column that is not all zero."""
    for column in range(7, -1, -1):
        lengths = data[start + column::8].translate(_BIT_LENGTHS)
        for bits in range(8, 0, -1):
            if bits in lengths:
                return 8 * column + bits
    return 0


def _plain_lines(data: bytes) -> bytes | None:
    r"""A text file's bytes as both whole-file readers take them: every line
    end the row loop takes (``\r\n`` or a lone ``\r``) made ``\n``; empty lines
    and, if the file is UTF-8, ``#`` lines gone, the last line ending as it did;
    ``None`` for a file with a ``#`` that is not UTF-8, which the row loop reads."""
    if b"\r" in data:  # a replace that finds nothing costs a pass of its own
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in data:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        lines = data.split(b"\n")
        data = b"\n".join([line for line in lines if not line.lstrip().startswith(b"#")])
    if b"\n\n" in data or data.startswith(b"\n"):
        lines = data.split(b"\n")
        data = b"\n".join([line for line in lines[:-1] if line] + lines[-1:])
    return data


def _plain_text_values(data: bytes, n: int) -> tuple[tuple[int, ...], Sequence] | None:
    """The components of a text point file, flat, if it is ``_PLAIN_TEXT_BYTES``
    only once :func:`_plain_lines` has read it, with ``n`` components on each
    line that is not blank, none past the digit-count cap; ``None`` for any
    other file, which the row loop reads.  One split and one ``map(int, ...)``
    read it whole, and the caller checks the largest value.  Then the file's
    bytes if they are what :func:`format_flat` writes, give or take the last
    line end, else the components again."""
    data = _plain_lines(data)
    if data is None or data.translate(None, _PLAIN_TEXT_BYTES):
        return None
    try:
        values = tuple(map(int, data.split()))
    except ValueError:  # a component past the digit-count cap
        return None
    shape = (b" " * (n - 1) + b"\n") * (len(values) // n)  # then every line holds n tokens
    if len(values) % n == 0 and data.translate(None, b"0123456789") in (shape, shape[:-1]):
        # Line ends made spaces, 1-9 made 1: a token with a leading zero starts " 00" or " 01".
        starts = (b" " + data).translate(bytes.maketrans(b"\n23456789", b" 11111111"))
        if b" 00" not in starts and b" 01" not in starts:
            return values, data
    rows = list(map(len, map(bytes.split, data.split(b"\n")))).count(n)
    if len(values) != n * rows:  # some token is on a line of fewer or more than n
        return None
    return values, values


def _checked_row(line: str, params: CurveParams) -> list[int]:
    """The components of one text row in file order, checked against the curve."""
    row = parse_point(line.replace(",", " ").split(), params.n)
    if max(row) >> params.m:
        check_point(row[::-1], params)  # raises
    return row


def _text_rows(path: Path, data: bytes, parse: Callable, params: CurveParams) -> list:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PointFileError(
            f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded"
        ) from None
    rows = []
    # Lines end at "\n", "\r\n" or "\r" only: str.splitlines() would also
    # split at form feeds and other separators, miscounting lines.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                rows.append(parse(line, params))
            except DomainError as exc:
                raise PointFileError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def _write_whole(path: Path, payload: bytes) -> None:
    """Give ``path`` the bytes ``payload``: through ``sys.stdout`` if it is
    stdout's file, directly if it exists and is not a regular file (a FIFO, a
    terminal), else by replacing its symlink-resolved target with a new file
    that has the target's mode, or ``open``'s if new."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    try:
        to_stdout = info is not None and os.path.samestat(info, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no stdout, or one with no descriptor
        to_stdout = False
    if to_stdout:  # written where stdout stands, so a ">>" redirect keeps what it holds
        sys.stdout.flush()
        sys.stdout.buffer.write(payload)
        return
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(path, "wb") as handle:
            handle.write(payload)
        return
    target = os.path.realpath(path)
    # A random name, created exclusively: concurrent writers never share one.
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        handle = open(temp, "xb")
    except OSError as exc:  # name the output, as a direct write would
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            handle.write(payload)
        if info is not None:
            os.chmod(temp, stat.S_IMODE(info.st_mode))
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
