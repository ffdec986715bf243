"""Command-line front end: encode, decode, sort, gene, validate, bench.

Points are written with component ``n`` first (``x_n ... x_1``), both
on the command line and in files.  Text point files are UTF-8 and hold
one point per line, components separated by whitespace or commas, with
``#`` comment lines.  Binary point files start with magic ``HPTS``, a
version byte, the dimension as two little-endian bytes and the record
count as eight, followed by 64-bit little-endian components per record.

Indices print in decimal while ``n * m <= 64`` and as a marked digit
string (``digits:3.2.1``, most significant first) beyond that;
``--digits`` adds the digit form unconditionally.

``encode`` and ``sort`` key points with ``curve_key`` and ``decode`` runs
``decode_arith``.  A bad row in any input file is named by its row.
"""

from __future__ import annotations

import argparse
import sys
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .core_bits import Coordinate, CurveParams, HilbertIndex, integer_to_index
from .decode import decode_arith
from .encode import curve_key
from .errors import DomainError, HilbertError, PointFileError, ResourceLimitError
from .gene import format_table_text, gene_table, validate_gene_table
from .oracle import (
    ENUMERATION_MAX_BITS,
    benchmark_records,
    enumerate_recursive,
    format_benchmark_text,
    run_counter_benchmark,
)

POINT_MAGIC = b"HPTS"
POINT_FORMAT_VERSION = 1
_POINT_HEADER = len(POINT_MAGIC) + 1 + 2 + 8

DIGIT_PREFIX = "digits:"

# CPython's cap on decimal digits per int <-> str conversion; 0 means no
# cap, as on interpreters that predate it.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HilbertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbert",
        description="Encode, decode and sort points along an arbitrary-dimensional Hilbert curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="map coordinates to curve indices")
    _add_curve_args(encode)
    encode.add_argument("--input", type=Path, help="point file (text or binary)")
    encode.add_argument("--digits", action="store_true",
                        help="also print the radix 2**n digit form")
    encode.add_argument("coords", nargs="*", metavar="X",
                        help="one point, written x_n .. x_1")
    encode.set_defaults(func=_cmd_encode)

    decode = sub.add_parser("decode", help="map curve indices back to coordinates")
    _add_curve_args(decode)
    decode.add_argument("--input", type=Path, help="text file with one index per line")
    decode.add_argument("indices", nargs="*", metavar="Z",
                        help="index values, decimal or digits:..-form")
    decode.set_defaults(func=_cmd_decode)

    sort = sub.add_parser("sort", help="reorder a point file along the curve")
    _add_curve_args(sort)
    sort.add_argument("input", type=Path, help="point file (text or binary)")
    sort.add_argument("output", type=Path, help="destination, same format as the input")
    sort.set_defaults(func=_cmd_sort)

    gene = sub.add_parser("gene", help="build and dump gene tables")
    gene.add_argument("--dim", "-n", type=int, required=True)
    gene.add_argument("--dump-text", action="store_true", help="print the per-quadrant commands")
    gene.set_defaults(func=_cmd_gene)

    validate = sub.add_parser("validate", help="check gene table and curve properties")
    validate.add_argument("--dim", "-n", type=int, required=True)
    validate.add_argument("--max-level", type=int, default=3,
                          help="walk curves for levels 1..MAX_LEVEL (default 3)")
    validate.add_argument("--records", action="store_true",
                          help="emit key=value records instead of PASS/FAIL lines")
    validate.set_defaults(func=_cmd_validate)

    bench = sub.add_parser("bench", help="iteration counters and timings per encoder")
    bench.add_argument("--point", default="1,1,1",
                       help="comma-separated components, x_n first (default 1,1,1)")
    bench.add_argument("--levels", default="8,32,128,256",
                       help="comma-separated levels (default 8,32,128,256)")
    bench.add_argument("--repeats", type=int, default=9)
    bench.add_argument("--records", action="store_true",
                       help="emit key=value records instead of the table")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _add_curve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", "-n", type=int, required=True, help="dimension (>= 2)")
    parser.add_argument("--level", "-m", type=int, required=True, help="curve level (>= 0)")


def _cmd_encode(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    if bool(args.coords) == (args.input is not None):
        raise DomainError("give exactly one point as arguments or use --input")
    if args.input is not None:
        keys = [z for z, _ in _key_points(args.input, params)]
    else:
        point = _parse_point(args.coords, params.n)
        keys = [curve_key(params, gene_table(params.n))(point)]
    for z in keys:
        print(_format_index_line(z, params, args.digits))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    if bool(args.indices) == (args.input is not None):
        raise DomainError("give index values as arguments or use --input")
    limit = _int_max_str_digits()
    top = (10**limit).bit_length() - 1  # highest m with 2**m - 1 < 10**limit
    if limit and params.m > top:
        raise DomainError(
            f"level {params.m} is above {top}: coordinates below 2**{params.m} can exceed "
            f"the {limit}-digit limit of sys.get_int_max_str_digits()"
        )
    if args.input is not None:
        rows = _parse_text_rows(args.input, lambda line: _parse_index_token(line, params))
        indices = [idx for idx, _ in rows]
    else:
        indices = [_parse_index_token(token, params) for token in args.indices]
    table = gene_table(params.n)
    points = [decode_arith(idx, params, table)[0] for idx in indices]
    for point in points:
        print(_format_point(point))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    keyed = _key_points(args.input, params)
    keyed.sort(key=itemgetter(0))  # stable: ties keep input order
    ordered = [point for _, point in keyed]
    if _looks_binary(args.input):
        _write_points_binary(args.output, params.n, ordered)
    else:
        _write_points_text(args.output, ordered)
    return 0


def _cmd_gene(args: argparse.Namespace) -> int:
    table = gene_table(args.dim)
    if args.dump_text:
        print(format_table_text(table))
    else:
        print(f"gene table for dimension {args.dim}: {len(table.entries)} quadrants")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    params_check = CurveParams(args.dim, max(args.max_level, 0))
    top = ENUMERATION_MAX_BITS // params_check.n
    if params_check.m > top:
        raise ResourceLimitError(
            f"--max-level {params_check.m} is above {top}, the largest allowed at dimension "
            f"{params_check.n}: a curve walk is capped at 2**{ENUMERATION_MAX_BITS} points"
        )
    table = gene_table(params_check.n)
    results = []
    report = validate_gene_table(table)
    for check in report.checks:
        results.append((f"gene-{check.name}", check.passed, check.detail))
    for m in range(1, args.max_level + 1):
        params = CurveParams(args.dim, m)
        enumeration = enumerate_recursive(params, table)
        ok, detail = _walk_matches_codecs(enumeration, params, table)
        results.append((f"curve-n{args.dim}-m{m}", ok, detail))
    failed = any(not passed for _, passed, _ in results)
    if args.records:
        for name, passed, detail in results:
            line = f"check={name} passed={'1' if passed else '0'}"
            if detail:
                line += f" detail={detail!r}"
            print(line)
    else:
        for name, passed, detail in results:
            print(_check_line(name, passed, detail))
        print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def _walk_matches_codecs(enumeration, params: CurveParams, table) -> tuple[bool, str]:
    """Hold the codecs the CLI runs against the recursive enumeration."""
    key = curve_key(params, table)
    for z, expected in enumerate(enumeration.points):
        decoded, _ = decode_arith(integer_to_index(z, params), params, table)
        if decoded != expected:
            return False, f"index {z} decodes to {decoded}, enumeration holds {expected}"
        encoded = key(expected)
        if encoded != z:
            return False, f"point {expected} encodes to {encoded}, expected index {z}"
    return True, f"{len(enumeration.points)} points"


def _check_line(name: str, passed: bool, detail: str = "") -> str:
    suffix = f" ({detail})" if detail else ""
    return f"{'PASS' if passed else 'FAIL'} {name}{suffix}"


def _cmd_bench(args: argparse.Namespace) -> int:
    display = [_parse_decimal(part, "--point component")
               for part in args.point.split(",") if part != ""]
    if len(display) < 2:
        raise DomainError(f"point needs at least 2 components, got {args.point!r}")
    point = tuple(reversed(display))
    levels = [_parse_decimal(part, "--levels entry")
              for part in args.levels.split(",") if part != ""]
    if not levels:
        raise DomainError("no levels given")
    table = gene_table(len(point))
    report = run_counter_benchmark(point, levels, table, repeats=args.repeats)
    if args.records:
        for record in benchmark_records(report):
            print(record)
    else:
        print(format_benchmark_text(report))
    if not report.counters_ok:
        print("FAIL iteration counters", file=sys.stderr)
        return 1
    return 0


def _format_point(point: Coordinate) -> str:
    return " ".join(str(c) for c in reversed(point))


def _format_index_line(z: int, params: CurveParams, force_digits: bool) -> str:
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


def _parse_decimal(token: str, what: str) -> int:
    """Read ``token`` as ASCII digits 0-9 only; ``what`` names it in errors."""
    if not (token.isascii() and token.isdigit()):
        raise DomainError(f"bad {what} {token!r}: not a decimal integer (digits 0-9 only)")
    try:
        return int(token)
    except ValueError:  # plain digits fail only on the digit-count cap
        raise DomainError(
            f"bad {what}: {len(token)} digits is too long, the limit is "
            f"{_int_max_str_digits()} (sys.get_int_max_str_digits())"
        ) from None


def _parse_index_token(token: str, params: CurveParams) -> HilbertIndex:
    if token.startswith(DIGIT_PREFIX):
        body = token[len(DIGIT_PREFIX):]
        parts = body.split(".") if body else []
        digits = tuple(_parse_decimal(part, "index digit") for part in parts)
        if len(digits) != params.m:
            raise DomainError(
                f"index has {len(digits)} digits, curve level is {params.m}"
            )
        return HilbertIndex(params.n, digits)
    return integer_to_index(_parse_decimal(token, "index value"), params)


def _parse_text_rows(path: Path, parse: Callable[[str], object]) -> list[tuple]:
    """Parse each line of a UTF-8 file that is not blank or a ``#`` comment.

    Returns (value, row label) pairs; a line that ``parse`` rejects names its line.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PointFileError(
            f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded"
        ) from None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                rows.append((parse(line), f"line {lineno}"))
            except DomainError as exc:
                raise PointFileError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def _looks_binary(path: Path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(POINT_MAGIC)) == POINT_MAGIC


def _key_points(path: Path, params: CurveParams) -> list[tuple[int, Coordinate]]:
    """(curve_key, point) of every point in a file, in file order; a bad point names its row."""
    labelled = _read_points(path, params.n)
    key = curve_key(params, gene_table(params.n))
    keyed = []
    for point, label in labelled:
        try:
            keyed.append((key(point), point))
        except DomainError as exc:
            raise PointFileError(f"{path}: {label}: {exc}") from exc
    return keyed


def _read_points(path: Path, n: int) -> list[tuple[Coordinate, str]]:
    """Read a point file of either format into (point, row label) pairs."""
    if _looks_binary(path):
        file_n, labelled = _read_points_binary(path)
        if file_n != n:
            raise PointFileError(f"{path}: file is {file_n}-dimensional, expected {n}")
        return labelled
    return _read_points_text(path, n)


def _read_points_text(path: Path, n: int) -> list[tuple[Coordinate, str]]:
    return _parse_text_rows(path, lambda line: _parse_point(line.replace(",", " ").split(), n))


def _parse_point(parts: Sequence[str], n: int) -> Coordinate:
    """Read components written ``x_n .. x_1`` as the point ``(x_1, .., x_n)``."""
    if len(parts) != n:
        raise DomainError(f"expected {n} components, found {len(parts)}")
    return tuple(reversed([_parse_decimal(part, "component") for part in parts]))


def _write_points_text(path: Path, points: Iterable[Coordinate]) -> None:
    with open(path, "w") as handle:
        for point in points:
            handle.write(_format_point(point) + "\n")


def _read_points_binary(path: Path) -> tuple[int, list[tuple[Coordinate, str]]]:
    blob = path.read_bytes()
    if len(blob) < _POINT_HEADER:
        raise PointFileError(f"{path}: truncated header")
    if blob[: len(POINT_MAGIC)] != POINT_MAGIC:
        raise PointFileError(f"{path}: bad magic bytes")
    version = blob[len(POINT_MAGIC)]
    if version != POINT_FORMAT_VERSION:
        raise PointFileError(f"{path}: unsupported point file version {version}")
    n = int.from_bytes(blob[5:7], "little")
    if n < 2:
        raise PointFileError(f"{path}: invalid dimension {n}")
    count = int.from_bytes(blob[7:15], "little")
    expected = _POINT_HEADER + count * n * 8
    if len(blob) != expected:
        raise PointFileError(f"{path}: payload has {len(blob)} bytes, expected {expected}")
    points = []
    offset = _POINT_HEADER
    for record in range(count):
        display = [
            int.from_bytes(blob[offset + 8 * i : offset + 8 * (i + 1)], "little")
            for i in range(n)
        ]
        offset += 8 * n
        points.append((tuple(reversed(display)), f"record {record}"))
    return n, points


def _write_points_binary(path: Path, n: int, points: Sequence[Coordinate]) -> None:
    blob = bytearray()
    blob += POINT_MAGIC
    blob.append(POINT_FORMAT_VERSION)
    blob += n.to_bytes(2, "little")
    blob += len(points).to_bytes(8, "little")
    for record, point in enumerate(points):
        for c in reversed(point):
            if c >= 1 << 64:
                raise PointFileError(
                    f"{path}: record {record}: component {c} does not fit in 64 bits"
                )
            blob += c.to_bytes(8, "little")
    path.write_bytes(bytes(blob))


if __name__ == "__main__":
    sys.exit(main())
