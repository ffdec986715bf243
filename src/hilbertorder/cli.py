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
import gc
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Sequence

from .curve import (
    CurveParams, curve_keys, integer_digits, unchecked_keys, unchecked_points,
)
from .errors import DomainError, HilbertError, ResourceLimitError
from .pointio import (
    binary_values,
    check_bit_count,
    format_flat,
    format_indices,
    parse_decimal,
    parse_index,
    parse_point,
    read_indices,
    read_points,
    write_points,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (HilbertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # What stdout still holds goes nowhere, so exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
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
        digits, count = list(chain.from_iterable(rows)), len(rows)
    sys.stdout.write(format_flat(unchecked_points(params, digits, count), params.n))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    params = CurveParams(args.dim, args.level)
    records, size, k, values = read_points(args.input, params)
    keys = unchecked_keys(params, records, size, k)
    binary = values is None
    flat = binary_values(records) if binary else values
    rows = list(zip(*[iter(flat)] * params.n))  # as the file writes them, x_n first
    order = sorted(range(len(rows)), key=keys.__getitem__)  # stable: ties keep input order
    write_points(args.output, params.n, list(map(rows.__getitem__, order)), binary)
    return 0


def _cmd_gene(args: argparse.Namespace) -> int:
    from .gene import format_table_text, gene_table

    table = gene_table(args.dim)
    if args.dump_text:
        print(format_table_text(table))
    else:
        print(f"gene table for dimension {args.dim}: {len(table.entries)} quadrants")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .gene import WALK_MAX_BITS, gene_table, validate_gene_table
    from .oracle import enumerate_recursive

    params_check = CurveParams(args.dim, max(args.max_level, 0))
    top = WALK_MAX_BITS // params_check.n
    if params_check.m > top:
        raise ResourceLimitError(
            f"--max-level {params_check.m} is above {top}, the largest allowed at dimension "
            f"{params_check.n}: a curve walk is capped at 2**{WALK_MAX_BITS} points"
        )
    table = gene_table(params_check.n)
    results = []
    report = validate_gene_table(table)
    for check in report.checks:
        results.append((f"gene-{check.name}", check.passed, check.detail))
    for m in range(1, args.max_level + 1):
        params = CurveParams(args.dim, m)
        enumeration = enumerate_recursive(params, table)
        ok, detail = _walk_matches_codecs(enumeration, params)
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


def _walk_matches_codecs(enumeration, params: CurveParams) -> tuple[bool, str]:
    """Hold the codecs the CLI runs against the recursive enumeration."""
    walk = enumeration.points
    digits = [d for z in range(len(walk)) for d in integer_digits(z, params)]
    flat = unchecked_points(params, digits, len(walk))
    decoded = [point[::-1] for point in zip(*[iter(flat)] * params.n)]
    keys = curve_keys(params, list(chain.from_iterable(map(reversed, walk))))
    if decoded != list(walk) or keys != list(range(len(walk))):
        for z, expected in enumerate(walk):
            if decoded[z] != expected:
                return False, f"index {z} decodes to {decoded[z]}, enumeration holds {expected}"
            if keys[z] != z:
                return False, f"point {expected} encodes to {keys[z]}, expected index {z}"
    return True, f"{len(walk)} points"


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
