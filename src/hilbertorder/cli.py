"""Command-line front end: encode, decode, sort, gene, validate, bench.

Points are written with component ``n`` first (``x_n ... x_1``), both
on the command line and in files.  Text point files hold one point per
line, components separated by whitespace or commas, with ``#`` comment
lines.  Binary point files start with magic ``HPTS``, a version byte,
the dimension as two little-endian bytes and the record count as eight,
followed by 64-bit little-endian components per record.

Indices print in decimal while ``n * m <= 64`` and as a marked digit
string (``digits:3.2.1``, most significant first) beyond that;
``--digits`` adds the digit form unconditionally.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .core_bits import (
    Coordinate,
    CurveParams,
    HilbertIndex,
    index_to_integer,
    integer_to_index,
)
from .decode import decode_arith, decode_arith_fast, decode_bits, decode_bits_fast
from .encode import ENCODERS, encode_bits, encode_bits_fast
from .errors import DomainError, HilbertError, PointFileError
from .gene import format_table_text, gene_table, validate_gene_table
from .oracle import (
    benchmark_records,
    enumerate_recursive,
    format_benchmark_text,
    run_counter_benchmark,
)

POINT_MAGIC = b"HPTS"
POINT_FORMAT_VERSION = 1
_POINT_HEADER = len(POINT_MAGIC) + 1 + 2 + 8

_ENCODERS = {algo: encoder for algo, (_, encoder) in enumerate(ENCODERS, start=1)}
_DECODERS = {1: decode_arith, 2: decode_bits, 3: decode_arith_fast, 4: decode_bits_fast}

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
    encode.add_argument("--algo", type=int, choices=(1, 2, 3, 4), default=1,
                        help="1 arith, 2 bit ops, 3 arith fast, 4 bit ops fast")
    encode.add_argument("--input", type=Path, help="point file (text or binary)")
    encode.add_argument("--digits", action="store_true",
                        help="also print the radix 2**n digit form")
    encode.add_argument("coords", nargs="*", metavar="X",
                        help="one point, written x_n .. x_1")
    encode.set_defaults(func=_cmd_encode)

    decode = sub.add_parser("decode", help="map curve indices back to coordinates")
    _add_curve_args(decode)
    decode.add_argument("--algo", type=int, choices=(1, 2, 3, 4), default=1,
                        help="1 arith, 2 bit ops, 3 arith fast, 4 bit ops fast")
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
        points = [point for point, _ in _read_points(args.input, params.n)]
    else:
        if len(args.coords) != params.n:
            raise DomainError(
                f"expected {params.n} components, got {len(args.coords)}"
            )
        points = [tuple(reversed([_parse_decimal(c, "component") for c in args.coords]))]
    table = gene_table(params.n)
    encoder = _ENCODERS[args.algo]
    for point in points:
        idx, _ = encoder(point, params, table)
        print(_format_index_line(idx, args.digits))
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
        tokens = _read_index_tokens(args.input)
    else:
        tokens = list(args.indices)
    table = gene_table(params.n)
    decoder = _DECODERS[args.algo]
    for token in tokens:
        idx = _parse_index_token(token, params)
        point, _ = decoder(idx, params, table)
        print(_format_point(point))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    binary = _looks_binary(args.input)
    if binary:
        file_n, labelled = _read_points_binary(args.input)
        if file_n != params.n:
            raise PointFileError(
                f"{args.input}: file is {file_n}-dimensional, --dim is {params.n}"
            )
    else:
        labelled = _read_points(args.input, params.n)
    table = gene_table(params.n)
    keyed = []
    for point, label in labelled:
        try:
            idx, _ = encode_bits_fast(point, params, table)
        except DomainError as exc:
            raise PointFileError(f"{args.input}: {label}: {exc}") from exc
        keyed.append((idx.digits, point))
    keyed.sort(key=lambda pair: pair[0])  # stable: ties keep input order
    ordered = [point for _, point in keyed]
    if binary:
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
    for z, expected in enumerate(enumeration.points):
        idx = integer_to_index(z, params)
        decoded, _ = decode_bits(idx, params, table)
        if decoded != expected:
            return False, f"index {z} decodes to {decoded}, enumeration holds {expected}"
        encoded, _ = encode_bits(expected, params, table)
        if encoded != idx:
            return False, f"point {expected} encodes to {encoded.digits}, expected index {z}"
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


def _format_index_line(idx: HilbertIndex, force_digits: bool) -> str:
    small = idx.n * len(idx.digits) <= 64
    parts = []
    if small:
        parts.append(str(index_to_integer(idx)))
    if force_digits or not small:
        parts.append(DIGIT_PREFIX + ".".join(str(d) for d in idx.digits))
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


def _read_index_tokens(path: Path) -> list[str]:
    tokens = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append(line)
    return tokens


def _looks_binary(path: Path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(POINT_MAGIC)) == POINT_MAGIC


def _read_points(path: Path, n: int) -> list[tuple[Coordinate, str]]:
    """Read a point file of either format into (point, row label) pairs."""
    if _looks_binary(path):
        file_n, labelled = _read_points_binary(path)
        if file_n != n:
            raise PointFileError(f"{path}: file is {file_n}-dimensional, expected {n}")
        return labelled
    return _read_points_text(path, n)


def _read_points_text(path: Path, n: int) -> list[tuple[Coordinate, str]]:
    points = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != n:
            raise PointFileError(
                f"{path}: line {lineno}: expected {n} components, found {len(parts)}"
            )
        try:
            display = [_parse_decimal(part, "component") for part in parts]
        except DomainError as exc:
            raise PointFileError(f"{path}: line {lineno}: {exc}") from exc
        points.append((tuple(reversed(display)), f"line {lineno}"))
    return points


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
