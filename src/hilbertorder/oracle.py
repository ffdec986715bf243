"""Reference constructions and instrumentation used to cross-check the codecs.

``enumerate_recursive`` rebuilds the whole visit order by geometric
expansion (transform whole sub-curves, then concatenate) instead of the
per-point digit loop, so a codec bug cannot confirm itself.
``table3_update`` is the fused two-dimensional per-level update; the
tests replay it against the stepwise encoder.  The counter benchmark
records loop passes and wall time per encoder variant across levels.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

from .core_bits import Coordinate, CurveParams, gray_code
from .encode import ENCODERS, effective_level
from .errors import DomainError, ResourceLimitError
from .gene import GeneTable

# 2**bits total cells; keeps a full enumeration near desk scale.
ENUMERATION_MAX_BITS = 24

_LINEAR_VARIANTS = frozenset({"arith", "bits"})


@dataclass(frozen=True)
class CurveEnumeration:
    """Every grid point of one curve, in visit order."""

    params: CurveParams
    points: tuple[Coordinate, ...]


@dataclass(frozen=True)
class BenchmarkRow:
    algorithm: str
    level: int
    iterations: int
    expected_iterations: int
    median_seconds: float

    @property
    def counter_ok(self) -> bool:
        return self.iterations == self.expected_iterations


@dataclass(frozen=True)
class BenchmarkReport:
    point: Coordinate
    levels: tuple[int, ...]
    repeats: int
    rows: tuple[BenchmarkRow, ...]

    @property
    def counters_ok(self) -> bool:
        return all(row.counter_ok for row in self.rows)


def enumerate_recursive(
    params: CurveParams, table: GeneTable, max_bits: int | None = None
) -> CurveEnumeration:
    """Build the full visit order by expanding one level at a time.

    Each pass replaces the level ``t - 1`` point list by ``2**n``
    transformed copies, one per quadrant in Gray order: swap the
    exchange pair, reflect the reverse components within the old box,
    then shift into the quadrant.
    """
    cap = ENUMERATION_MAX_BITS if max_bits is None else max_bits
    if params.n * params.m > cap:
        raise ResourceLimitError(
            f"enumerating 2**{params.n * params.m} points exceeds the guard of 2**{cap}"
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
    return CurveEnumeration(params, tuple(points))


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
    records = []
    for row in report.rows:
        records.append(
            f"algo={row.algorithm} level={row.level} iterations={row.iterations} "
            f"expected={row.expected_iterations} median_s={row.median_seconds:.9e}"
        )
    return records
