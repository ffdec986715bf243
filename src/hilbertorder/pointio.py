"""Point files and index tokens: the formats the command line reads and writes.

Points are written component ``n`` first (``x_n ... x_1``).  A text point
file is UTF-8, one point per line, components separated by whitespace or
commas, with ``#`` comment lines; a line ends at ``\n``, ``\r\n`` or
``\r``.  A binary one is magic ``HPTS``, a version byte, the dimension
(two bytes) and the record count (eight), then 64-bit components per
record, all little-endian.  Indices print in decimal while ``n * m <= 64``,
else as ``digits:`` and their radix ``2**n`` digits, most significant first.

A reader opens its file once and takes the format from its bytes, so a
pipe works as an input.  Each row is converted as it is read, so the
first bad row in file order is named (``line N`` or ``record N``).  The
writer replaces a regular output whole, so a failed run leaves it intact.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
import sys
from pathlib import Path
from typing import Callable, Sequence

from .core_bits import Coordinate, CurveParams, integer_to_index
from .errors import DomainError, PointFileError

POINT_MAGIC = b"HPTS"
POINT_FORMAT_VERSION = 1
_POINT_FIELDS = struct.Struct("<BHQ")  # version, dimension, record count
_POINT_HEADER = len(POINT_MAGIC) + _POINT_FIELDS.size

DIGIT_PREFIX = "digits:"

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


def parse_point(parts: Sequence[str], n: int) -> Coordinate:
    """Read components written ``x_n .. x_1`` as the point ``(x_1, .., x_n)``."""
    if len(parts) != n:
        raise DomainError(f"expected {n} components, found {len(parts)}")
    return tuple(reversed([parse_decimal(part, "component") for part in parts]))


def format_point(point: Coordinate) -> str:
    return " ".join(map(str, reversed(point)))


def index_digits(token: str, params: CurveParams) -> Sequence[int]:
    """Digits of an index token, most significant first.

    A ``digits:`` token of ASCII digits and dots takes one split and one
    ``int`` per digit; when that fails, :func:`parse_decimal` reads each
    digit to raise its message.  ``curve_point`` checks the digits' count
    and range.
    """
    if token.startswith(DIGIT_PREFIX):
        body = token[len(DIGIT_PREFIX):]
        parts = body.split(".") if body else []
        if body.isascii() and "".join(parts).isdigit():
            try:
                return list(map(int, parts))
            except ValueError:  # an empty digit, or one past the decimal digit cap
                pass
        return [parse_decimal(part, "index digit") for part in parts]
    return integer_to_index(parse_decimal(token, "index value"), params).digits


def format_index_line(z: int, params: CurveParams, force_digits: bool) -> str:
    n, m = params.n, params.m
    small = n * m <= 64
    parts = []
    if small:
        parts.append(str(z))
    if force_digits or not small:
        low = (1 << n) - 1
        digits = [(z >> shift) & low for shift in range(n * (m - 1), -1, -n)]
        parts.append(DIGIT_PREFIX + ".".join(map(str, digits)))
    return " ".join(parts)


def read_rows(path: Path, parse: Callable[[str], object]) -> list:
    """``parse`` of each line of a UTF-8 text file that is not blank or a ``#`` comment."""
    return _text_rows(path, path.read_bytes(), parse)


def read_points(path: Path, n: int, convert: Callable[[Coordinate], object]) -> tuple[list, bool]:
    """``convert`` of each point of a text or binary point file, and whether it was binary.

    A ``DomainError`` from parsing or from ``convert`` names its row.
    """
    data = path.read_bytes()
    if not data.startswith(POINT_MAGIC):
        return _text_rows(
            path, data, lambda line: convert(parse_point(line.replace(",", " ").split(), n))
        ), False
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
    values = []
    records = struct.iter_unpack(f"<{n}Q", memoryview(data)[_POINT_HEADER:])
    for record, display in enumerate(records):
        try:
            values.append(convert(display[::-1]))
        except DomainError as exc:
            raise PointFileError(f"{path}: record {record}: {exc}") from exc
    return values, True


def write_points(path: Path, n: int, points: Sequence[Coordinate], binary: bool) -> None:
    """Write ``points`` to ``path`` as a binary or text point file, replacing it whole."""
    if binary:
        record = struct.Struct(f"<{n}Q").pack
        header = POINT_MAGIC + _POINT_FIELDS.pack(POINT_FORMAT_VERSION, n, len(points))
        payload = header + b"".join([record(*reversed(p)) for p in points])
    else:
        payload = "".join([format_point(p) + "\n" for p in points]).encode()
    _write_whole(path, payload)


def _text_rows(path: Path, data: bytes, parse: Callable[[str], object]) -> list:
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
                rows.append(parse(line))
            except DomainError as exc:
                raise PointFileError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def _write_whole(path: Path, payload: bytes) -> None:
    """Give ``path`` the bytes ``payload``: directly if it exists and is not a
    regular file (a FIFO, a terminal), else by replacing its symlink-resolved
    target with a new file that has the target's mode, or ``open``'s if new.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
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
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
