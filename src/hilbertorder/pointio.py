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
file, so the codec that follows need not check them again.  With no Python
loop per row: a binary file (its payload as it is); and a text file of one
block or more (:func:`_plain_text_values`) of ``n`` tokens a line between
single blanks or commas, of decimal keys below ``2**64``, or of ``digits:``
tokens alone, by ``json.loads`` once per block, after the row loop's line
ends and one space for each run of blanks (:func:`_plain_lines`).
Any other file, and any with a component out of range, goes through a row
loop, which checks a row by its largest value and names the first bad row
in file order (``line N`` or ``record N``) with the same message either
way.  The writer moves each row's record, an ``HPTS`` row or a text line,
into the new order, formatting only text not yet as it writes it; it writes
stdout's own file through stdout and replaces any other regular output
whole, so a failed run leaves it intact.
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
    CurveParams, check_index, check_point, field_ones, field_width, integer_digits, pack_bytes,
)
from .errors import DomainError, PointFileError

POINT_MAGIC = b"HPTS"
POINT_FORMAT_VERSION = 1
_POINT_FIELDS = struct.Struct("<BHQ")  # version, dimension, record count
_POINT_HEADER = len(POINT_MAGIC) + _POINT_FIELDS.size
# The bit length of every byte value, for bytes.translate.
_BIT_LENGTHS = bytes(b.bit_length() for b in range(256))

DIGIT_PREFIX = "digits:"
# Strings one digit table of format_indices may hold.  It holds 2**(n * L)
# strings for L digits per lookup, so L = 6, 4, 3 at n = 2, 3, 4 and 1 up
# to n = 12; from n = 13 no table fits, and each digit is one ``str``.
_DIGIT_TABLE_STRINGS = 4096
# Bytes per block where the plain text scan packs its values, and the least it
# reads: a block, its text and its value list stay below glibc malloc's 128 KiB
# mmap threshold, so the next block reuses their pages; on a shorter file the
# scan saves less than the 2.6 ms ``json`` import costs, so the row loop reads it.
_TEXT_BLOCK_BYTES = 16384

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


def read_indices(path: Path, params: CurveParams) -> tuple[bytes | bytearray, int]:
    """The digits of every index of a text index file, packed in file order
    as :func:`curve.unchecked_points` takes them, and the number of indices.

    :func:`_plain_text_values` scans a file of one block or more of
    ``digits:`` tokens alone as its digits, or of keys below ``2**(n * m) <=
    2**64`` at one a line, each level's digits then one shift, mask and strided
    copy of the key column.  Any other file, and any with a value out of
    range, goes to the row loop through :func:`parse_index`, which names the
    first bad row."""
    data, n, m = path.read_bytes(), params.n, params.m
    prefix = DIGIT_PREFIX.encode()
    prefix, per, bits = (prefix, m, n) if prefix in data else (b"", 1, n * m)  # m digits or a key
    if m and bits <= 64 and len(data) >= _TEXT_BLOCK_BYTES and (
            found := _plain_text_values(data, per, b".", prefix, bits)):
        values, width = found[0], field_width(bits)
        count = len(values) * 8 // width // per
        if prefix:
            return values, count
        column, size = int.from_bytes(values, "little"), field_width(n) // 8
        low = field_ones(count, width) * ((1 << n) - 1)
        digits = bytearray(count * m * size)
        fields = memoryview(digits).cast("BHIQ"[size.bit_length() - 1])
        for v in range(m):
            level = ((column >> n * (m - 1 - v)) & low).to_bytes(count * width // 8, "little")
            fields[v::m] = memoryview(level).cast(fields.format)[::width // (8 * size)]
        return digits, count
    rows = _text_rows(path, data, parse_index, params)
    return pack_bytes(list(chain.from_iterable(rows)), field_width(n)), len(rows)


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
    sep = b"," if b"," in data else b" "
    values, source = len(data) >= _TEXT_BLOCK_BYTES and _plain_text_values(data, n, sep) or (None, None)
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


def _payload_bits(data: bytes, start: int, size: int = 8) -> int:
    """The bit length of the largest little-endian ``size``-byte field of the
    payload at ``data[start:]``, from the highest byte column not all zero."""
    for column in range(size - 1, -1, -1):
        lengths = data[start + column::size].translate(_BIT_LENGTHS)
        for bits in range(8, 0, -1):
            if bits in lengths:
                return 8 * column + bits
    return 0


def _plain_lines(data: bytes) -> bytes | None:
    r"""A text file's bytes as both whole-file readers take them: every line
    end the row loop takes (``\r\n`` or a lone ``\r``) made ``\n``; each run of
    blanks made one space, with none at either end of a line; empty lines and,
    if the file is UTF-8, ``#`` lines gone, the last line ending as it did;
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
    if b"\t" in data:
        data = data.replace(b"\t", b" ")
    if b" " in data:  # one-byte searches first, so a digits: file pays no two-byte one
        while b"  " in data:
            data = data.replace(b"  ", b" ")
        data = data.replace(b" \n", b"\n").strip(b" ")
    if b" " in data:  # none left where the only blanks ended lines
        data = data.replace(b"\n ", b"\n")
    if b"\n\n" in data or data.startswith(b"\n"):
        lines = data.split(b"\n")
        data = b"\n".join([line for line in lines[:-1] if line] + lines[-1:])
    return data


def _line_count(data: bytes, line: bytes, drop: bytes = b"") -> int | None:
    r"""How many lines ``data`` has if, with its digits and the bytes ``drop``
    gone, each is ``line``, which ends in ``\n``, the last one with or without
    its end; else ``None``."""
    gaps = data.translate(None, b"0123456789" + drop)
    unended = bool(data) and not data.endswith(b"\n")
    count = (len(gaps) + unended) // len(line)
    return count if gaps + b"\n" * unended == line * count else None


def _plain_text_values(
    data: bytes, n: int, sep: bytes = b" ", prefix: bytes = b"", bits: int = 0
) -> tuple[Sequence, Sequence] | None:
    """The values of a text file, flat, if as it stands or after
    :func:`_plain_lines` each line is ``prefix`` and ``n`` tokens between
    single ``sep`` (blanks may flank a comma), and JSON takes every token: not
    an empty one, a leading zero or one past the digit-count cap; else ``None``,
    for the row loop.  Blocks of ``_TEXT_BLOCK_BYTES`` or more, cut at a line
    end, each take one ``json.loads`` with ``prefix`` dropped and ``sep`` and
    line ends made commas.  With ``bits`` the values are packed a block at a
    time, in fields ``field_width(bits)`` wide, each below ``2**bits``;
    without, every value is kept, as one tuple, so the file is one block.
    Then, for a space, the lines, which are what :func:`format_flat` writes,
    give or take the last line end; else the values."""
    line, drop = prefix + sep * (n - 1) + b"\n", b" \t" * (sep == b",")
    table, size = bytes.maketrans(sep + b"\n", b",,"), field_width(bits) // 8
    for lines in (data, None):  # None: the file after the line rule, if it changed it
        if lines is None and ((lines := _plain_lines(data)) is None or lines is data):
            return None
        if _line_count(lines, line, drop) is None:
            continue
        import json  # loaded for a plain text file only
        found, values, start, end = bytearray(), [], 0, len(lines) - lines.endswith(b"\n")
        try:
            while start < end:  # values kept unpacked are read in one block
                stop = lines.find(b"\n", start + (_TEXT_BLOCK_BYTES if bits else end))
                stop = end if stop < 0 else stop
                block = lines[start:stop]
                if prefix:  # one with a digit in or before it stays, and JSON refuses it
                    block = block.removeprefix(prefix).replace(b"\n" + prefix, b"\n")
                values = json.loads(b"[%s]" % block.translate(table))
                if bits:
                    values = pack_bytes(values, 8 * size)
                    if _payload_bits(values, 0, size) > bits:
                        return None
                    found += values
                start = stop + 1
        except (ValueError, struct.error):  # struct refuses a value of 2**(8 * size) or more
            continue
        values = found if bits else tuple(values)
        return values, (lines if sep == b" " else values)
    return None


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
