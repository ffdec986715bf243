"""Command-line front end: encode, decode, sort, gene, validate, bench.

This module holds the argument parser and the subcommands only.  The
point-file and index-token formats, and how files are read and
written, live in :mod:`hilbertorder.pointio`.

``encode`` and ``sort`` key all their points with one call of the
production encoder's kernel ``curve.unchecked_keys``, and ``decode``
places all its indices with one call of the production decoder's kernel
``curve.unchecked_points``; neither builds a gene table.  The readers of
:mod:`pointio` check the values once per file, naming a bad row by its
row, so the kernels do not check them again.  These commands load only
``curve``, ``pointio`` and ``errors`` of the package; ``gene``,
``validate`` and ``bench`` import the gene tables and the oracle when
they run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Sequence

from .curve import CurveParams, curve_keys, field_width, pack_bytes, unchecked_keys, unchecked_points
from .errors import DomainError, HilbertError, ResourceLimitError
from .pointio import (
    check_bit_count, format_flat, format_indices, parse_decimal, parse_index, parse_point,
    read_indices, read_points, write_points,
)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: ``argv``, or the process's arguments when it is None.

    With no ``argv`` this is the process's entry point (the ``hilbert``
    script, ``python -m hilbertorder``), and the objects start-up and the
    imports made live until exit: they are frozen, so no collection, the
    one at exit included, walks them again.  A caller that passes ``argv``
    keeps its collector as it was.
    """
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None and args.command != "sort":  # started with stdout closed
            raise HilbertError("standard output is closed")
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (HilbertError, OSError) as exc:
        message = f"error: {exc}"
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__ is not None:
            # What stdout still holds goes nowhere, so exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except MemoryError:
        message = "error: out of memory"
    if sys.stderr is not None:  # a closed stderr is None, or a stream whose write fails
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbert",
        description="Encode, decode and sort points along an arbitrary-dimensional Hilbert curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="map coordinates to curve indices")
    _add_curve_args(encode)
    encode.add_argument("--input", type=_path, help="point file (text or binary)")
    encode.add_argument("--digits", action="store_true",
                        help="also print the radix 2**n digit form")
    encode.add_argument("coords", nargs="*", metavar="X",
                        help="one point, written x_n .. x_1")
    encode.set_defaults(func=_cmd_encode)

    decode = sub.add_parser("decode", help="map curve indices back to coordinates")
    _add_curve_args(decode)
    decode.add_argument("--input", type=_path, help="text file with one index per line")
    decode.add_argument("indices", nargs="*", metavar="Z",
                        help="index values, decimal or digits:..-form")
    decode.set_defaults(func=_cmd_decode)

    sort = sub.add_parser("sort", help="reorder a point file along the curve")
    _add_curve_args(sort)
    sort.add_argument("input", type=_path, help="point file (text or binary)")
    sort.add_argument("output", type=_path, help="destination, same format as the input")
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


def _path(text: str) -> Path:
    """A path argument; no file name holds a NUL byte, so one is a usage error."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot contain a NUL byte")
    return Path(text)


def _add_curve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", "-n", type=int, required=True, help="dimension (>= 2)")
    parser.add_argument("--level", "-m", type=int, required=True, help="curve level (>= 0)")


def _cmd_encode(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    if bool(args.coords) == (args.input is not None):
        raise DomainError("give exactly one point as arguments or use --input")
    check_bit_count(params.m, "level", "coordinates")
    check_bit_count(params.n, "dimension", "digits")  # a digits: digit has n bits
    if args.input is not None:
        keys = unchecked_keys(params, *read_points(args.input, params)[:3])
    else:
        keys = curve_keys(params, parse_point(args.coords, params.n))
    sys.stdout.write(format_indices(keys, params, args.digits))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    if bool(args.indices) == (args.input is not None):
        raise DomainError("give index values as arguments or use --input")
    check_bit_count(params.m, "level", "coordinates")
    if args.input is not None:
        digits, count = read_indices(args.input, params)
    else:
        rows = [parse_index(token, params) for token in args.indices]
        digits, count = pack_bytes(list(chain(*rows)), field_width(params.n)), len(rows)
    sys.stdout.write(format_flat(unchecked_points(params, digits, count), params.n))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    records, size, k, source = read_points(args.input, params)
    keys = unchecked_keys(params, records, size, k)
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable: ties keep input order
    write_points(args.output, params.n, order, source)
    return 0


def _cmd_gene(args: argparse.Namespace) -> int:
    from .gene import format_table_text, gene_table

    table = gene_table(args.dim)
    if args.dump_text:
        print(format_table_text(table))
    else:
        print(f"gene table for dimension {args.dim}: {len(table.swap_pairs)} quadrants")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .gene import gene_table, validate_gene_table
    from .oracle import WALK_MAX_BITS, check_curve

    params = CurveParams(args.dim, args.max_level)
    top = WALK_MAX_BITS // params.n
    if params.m > top:
        raise ResourceLimitError(
            f"--max-level {params.m} is above {top}, the largest allowed at dimension "
            f"{params.n}: a curve walk is capped at 2**{WALK_MAX_BITS} points"
        )
    table = gene_table(params.n)
    checks = [validate_gene_table(table)]
    checks += [check_curve(CurveParams(params.n, m), table) for m in range(1, params.m + 1)]
    for check in checks:
        if args.records:
            print(f"check={check.name} passed={check.passed:d}"
                  + (f" detail={check.detail!r}" if check.detail else ""))
        else:
            print(f"{'PASS' if check.passed else 'FAIL'} {check.name}"
                  + (f" ({check.detail})" if check.detail else ""))
    failed = not all(check.passed for check in checks)
    if not args.records:
        print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .gene import gene_table
    from .oracle import benchmark_records, format_benchmark_text, run_counter_benchmark

    display = [parse_decimal(part, "--point component")
               for part in args.point.split(",") if part != ""]
    if len(display) < 2:
        raise DomainError(f"point needs at least 2 components, got {args.point!r}")
    point = tuple(reversed(display))
    levels = [parse_decimal(part, "--levels entry")
              for part in args.levels.split(",") if part != ""]
    if not levels:
        raise DomainError("no levels given")
    for m in levels:
        check_bit_count(m, "level", "coordinates")
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
