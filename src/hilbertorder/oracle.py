"""Reference constructions and instrumentation used to cross-check the codecs.

``enumerate_recursive`` rebuilds the whole visit order by geometric
expansion (transform whole sub-curves, then concatenate) instead of the
per-point digit loop, so a codec bug cannot confirm itself, and
``check_curve`` holds the production codecs to it.  ``table3_update`` is
the fused two-dimensional per-level update; the tests replay it against
the stepwise encoder.  The counter benchmark records loop passes and wall
time per encoder variant across levels.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from itertools import chain, islice, product
from operator import sub
from time import perf_counter
from typing import Sequence

from .core_bits import Coordinate, gray_code
from .curve import CurveParams, curve_keys, field_width, pack_bytes, unchecked_points
from .encode import ENCODERS, effective_level
from .errors import DomainError, ResourceLimitError
from .gene import GeneTable, ValidationCheck

_LINEAR_VARIANTS = frozenset({"arith", "bits"})
# A full curve walk visits 2**(n * m) points.  enumerate_recursive refuses,
# and ``hilbert validate`` refuses up front, a walk past 2**WALK_MAX_BITS.
WALK_MAX_BITS = 20


@dataclass(frozen=True)
class BenchmarkRow:
    algorithm: str
    level: int
    iterations: int
    expected_iterations: int
    median_seconds: float


@dataclass(frozen=True)
class BenchmarkReport:
    point: Coordinate
    levels: tuple[int, ...]
    repeats: int
    rows: tuple[BenchmarkRow, ...]

    @property
    def counters_ok(self) -> bool:
        return all(row.iterations == row.expected_iterations for row in self.rows)


def enumerate_recursive(params: CurveParams, table: GeneTable) -> tuple[Coordinate, ...]:
    """Every grid point of the curve, in visit order, built by expanding one
    level at a time.

    Each pass replaces the level ``t - 1`` point list by ``2**n``
    transformed copies, one per quadrant in Gray order: swap the
    exchange pair, reflect the reverse components within the old box,
    then shift into the quadrant.
    """
    if params.n * params.m > WALK_MAX_BITS:
        raise ResourceLimitError(
            f"enumerating 2**{params.n * params.m} points exceeds the guard of "
            f"2**{WALK_MAX_BITS}"
        )
    table.check_dimension(params.n)
    n = params.n
    points = [(0,) * n]
    for level in range(1, params.m + 1):
        half = 1 << (level - 1)
        box = half - 1
        grown = []
        for q in range(1 << n):
            corner = gray_code(q)
            pair = table.swap_pairs[q]
            rev = table.reverse_slots[q]
            for point in points:
                y = list(point)
                if pair is not None:
                    a, b = pair
                    y[a], y[b] = y[b], y[a]
                for i in rev:
                    y[i] = box - y[i]
                for i in range(n):
                    if (corner >> i) & 1:
                        y[i] += half
                grown.append(tuple(y))
        points = grown
    return tuple(points)


def check_curve(params: CurveParams, table: GeneTable) -> ValidationCheck:
    """Hold the production codecs and unit steps to the curve that
    :func:`enumerate_recursive` walks: index ``z`` must decode to point ``z``,
    which must encode to ``z``.  A fault names the first bad step, index or point."""
    n, m, width = params.n, params.m, field_width(params.n)
    name = f"curve-n{n}-m{m}"
    # The walk's points flat, x_n .. x_1 each, as the codecs give and take them.
    flat = tuple(chain.from_iterable(map(reversed, enumerate_recursive(params, table))))
    count = len(flat) // n
    # The digits of the indices 0..N-1 in turn, packed: every run of m digits, in order.
    digits = chain.from_iterable(product(range(1 << n), repeat=m))
    digits = bytes(digits) if width == 8 else pack_bytes(list(digits), width)
    decoded = unchecked_points(params, digits, count)
    decoded = flat if decoded == flat else decoded  # one tuple, not two, while keying
    keys = curve_keys(params, flat)
    # Keys 0..N-1 make the points distinct, so each of the N - 1 steps is 1
    # or more, and a walk N - 1 long makes every one 1.
    length = sum(map(abs, map(sub, islice(flat, n, None), flat)))
    if decoded is not flat or keys != list(range(count)) or length != count - 1:
        for z in range(count):
            here = slice(z * n, z * n + n)
            expected = flat[here][::-1]
            if z and (step := sum(map(abs, map(sub, flat[z * n - n:z * n], flat[here])))) != 1:
                return ValidationCheck(name, False, f"indices {z - 1} and {z} are {step} apart")
            if (point := decoded[here][::-1]) != expected:
                return ValidationCheck(
                    name, False, f"index {z} decodes to {point}, enumeration holds {expected}")
            if keys[z] != z:
                return ValidationCheck(
                    name, False, f"point {expected} encodes to {keys[z]}, expected index {z}")
    return ValidationCheck(name, True, f"{count} points")


def table3_update(quadrant: int, x: int, y: int, m: int) -> tuple[int, int]:
    """Fused two-dimensional per-level update for a point in ``quadrant``.

    Components are ordered ``(x, y) = (x2, x1)``.  Combines the strip,
    reverse and exchange steps of one encoder pass at level ``m`` into
    a single rule per quadrant.
    """
    if quadrant not in (0, 1, 2, 3):
        raise DomainError(f"quadrant {quadrant} out of range 0..3")
    if m < 1:
        raise DomainError(f"level must be at least 1, got {m}")
    half = 1 << (m - 1)
    if quadrant == 0:
        return y, x
    if quadrant == 1:
        return x, y - half
    if quadrant == 2:
        return x - half, y - half
    return half - 1 - y, 2 * half - 1 - x


def run_counter_benchmark(
    point: Sequence[int],
    levels: Sequence[int],
    table: GeneTable,
    repeats: int = 9,
) -> BenchmarkReport:
    """Run every encoder on ``point`` at each level, recording counters and medians.

    Counters are exact (loop passes per call); the timing medians are
    informational only.
    """
    if repeats < 1:
        raise DomainError(f"repeats must be positive, got {repeats}")
    point = tuple(point)
    k = effective_level(point)
    rows = []
    for m in levels:
        params = CurveParams(len(point), m)
        for name, encoder in ENCODERS:
            _, counter = encoder(point, params, table)
            times = []
            for _ in range(repeats):
                start = perf_counter()
                encoder(point, params, table)
                times.append(perf_counter() - start)
            expected = m if name in _LINEAR_VARIANTS else min(k, m)
            rows.append(
                BenchmarkRow(name, m, counter.iterations, expected, statistics.median(times))
            )
    return BenchmarkReport(point, tuple(levels), repeats, tuple(rows))


def format_benchmark_text(report: BenchmarkReport) -> str:
    """Two blocks, iteration counts then median seconds, one column per level."""
    rendered_point = "(" + ", ".join(str(c) for c in reversed(report.point)) + ")"
    header = f"{'algorithm':<12}" + "".join(f"{m:>12}" for m in report.levels)
    lines = [
        f"point {rendered_point}, dimension {len(report.point)}, repeats {report.repeats}",
        "iterations per call",
        header,
    ]
    by_algo: dict[str, list[BenchmarkRow]] = {}
    for row in report.rows:
        by_algo.setdefault(row.algorithm, []).append(row)
    for name, rows in by_algo.items():
        cells = "".join(f"{row.iterations:>12}" for row in rows)
        lines.append(f"{name:<12}{cells}")
    lines.append("median seconds per call")
    lines.append(header)
    for name, rows in by_algo.items():
        cells = "".join(f"{row.median_seconds:>12.3e}" for row in rows)
        lines.append(f"{name:<12}{cells}")
    return "\n".join(lines)


def benchmark_records(report: BenchmarkReport) -> list[str]:
    """Machine-readable form: one ``key=value`` record per row."""
    return [f"algo={row.algorithm} level={row.level} iterations={row.iterations} "
            f"expected={row.expected_iterations} median_s={row.median_seconds:.9e}"
            for row in report.rows]
