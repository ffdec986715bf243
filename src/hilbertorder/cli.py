"""Command-line front end: encode, decode, sort, gene, validate, bench.

This module holds the argument parser and the subcommands only.  The
point-file and index-token formats, and how files are read and
written, live in :mod:`hilbertorder.pointio`.

``encode`` and ``sort`` key points with the production encoder
``curve_key``; ``decode`` runs the production decoder ``curve_point``.
A bad row in any input file is named by its row.
"""

from __future__ import annotations

import argparse
import sys
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .core_bits import CurveParams, integer_to_index
from .decode import curve_point
from .encode import curve_key
from .errors import DomainError, HilbertError, ResourceLimitError
from .gene import format_table_text, gene_table, validate_gene_table
from .oracle import (
    ENUMERATION_MAX_BITS,
    benchmark_records,
    enumerate_recursive,
    format_benchmark_text,
    run_counter_benchmark,
)
from .pointio import (
    format_index_line,
    format_point,
    index_digits,
    int_max_str_digits,
    parse_decimal,
    parse_point,
    read_points,
    read_rows,
    write_points,
)


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
        keys, _ = read_points(args.input, params.n, curve_key(params, gene_table(params.n)))
    else:
        point = parse_point(args.coords, params.n)
        keys = [curve_key(params, gene_table(params.n))(point)]
    for z in keys:
        print(format_index_line(z, params, args.digits))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    if bool(args.indices) == (args.input is not None):
        raise DomainError("give index values as arguments or use --input")
    limit = int_max_str_digits()
    top = (10**limit).bit_length() - 1  # highest m with 2**m - 1 < 10**limit
    if limit and params.m > top:
        raise DomainError(
            f"level {params.m} is above {top}: coordinates below 2**{params.m} can exceed "
            f"the {limit}-digit limit of sys.get_int_max_str_digits()"
        )
    point = curve_point(params, gene_table(params.n))
    if args.input is not None:
        points = read_rows(args.input, lambda line: point(index_digits(line, params)))
    else:
        points = [point(index_digits(token, params)) for token in args.indices]
    for p in points:
        print(format_point(p))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    key = curve_key(params, gene_table(params.n))
    keyed, binary = read_points(args.input, params.n, lambda p: (key(p), p))
    keyed.sort(key=itemgetter(0))  # stable: ties keep input order
    write_points(args.output, params.n, [point for _, point in keyed], binary)
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
    for name, passed, detail in results:
        if args.records:
            print(f"check={name} passed={'1' if passed else '0'}"
                  + (f" detail={detail!r}" if detail else ""))
        else:
            print(f"{'PASS' if passed else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    failed = any(not passed for _, passed, _ in results)
    if not args.records:
        print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def _walk_matches_codecs(enumeration, params: CurveParams, table) -> tuple[bool, str]:
    """Hold the codecs the CLI runs against the recursive enumeration."""
    key = curve_key(params, table)
    point = curve_point(params, table)
    for z, expected in enumerate(enumeration.points):
        decoded = point(integer_to_index(z, params).digits)
        if decoded != expected:
            return False, f"index {z} decodes to {decoded}, enumeration holds {expected}"
        encoded = key(expected)
        if encoded != z:
            return False, f"point {expected} encodes to {encoded}, expected index {z}"
    return True, f"{len(enumeration.points)} points"


def _cmd_bench(args: argparse.Namespace) -> int:
    display = [parse_decimal(part, "--point component")
               for part in args.point.split(",") if part != ""]
    if len(display) < 2:
        raise DomainError(f"point needs at least 2 components, got {args.point!r}")
    point = tuple(reversed(display))
    levels = [parse_decimal(part, "--levels entry")
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


if __name__ == "__main__":
    sys.exit(main())
