import pytest

from hilbertorder.core_bits import integer_to_index, vec_to_scalar
from hilbertorder.curve import CurveParams
from hilbertorder.decode import decode_arith
from hilbertorder.encode import encode_arith
from hilbertorder.errors import DimensionMismatchError, DomainError, ResourceLimitError
from hilbertorder.gene import gene_table
from hilbertorder.oracle import (
    benchmark_records,
    enumerate_recursive,
    format_benchmark_text,
    run_counter_benchmark,
    table3_update,
)

from conftest import bit_vectors

TABLES = {n: gene_table(n) for n in (2, 3, 4)}


def display(point):
    return tuple(reversed(point))


def stepwise_update(q, x, y, m):
    """Strip, reverse, exchange of one encoder pass, spelled out literally.

    Independent of both the encoder and the fused rule it is checked
    against.  (x, y) = (x2, x1); commands are read off the table.
    """
    exchange, reverse = bit_vectors(TABLES[2])[q]
    half = 1 << (m - 1)
    components = [y, x]  # slot order: component 1 first
    for i in range(2):
        if components[i] >= half:
            components[i] -= half
    for i in range(2):
        if reverse[i]:
            components[i] = half - 1 - components[i]
    if sum(exchange) == 2:
        components[0], components[1] = components[1], components[0]
    return components[1], components[0]


class TestEnumeration:
    def test_level_one_square(self):
        walk = enumerate_recursive(CurveParams(2, 1), TABLES[2])
        assert [display(p) for p in walk] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_level_two_square_fixtures(self):
        walk = enumerate_recursive(CurveParams(2, 2), TABLES[2])
        assert len(walk) == 16
        assert display(walk[2]) == (1, 1)
        assert display(walk[13]) == (2, 1)
        assert display(walk[15]) == (3, 0)

    def test_level_one_cube_adjacency(self):
        walk = enumerate_recursive(CurveParams(3, 1), TABLES[3])
        assert len(walk) == 8
        for prev, point in zip(walk, walk[1:]):
            assert sum(abs(a - b) for a, b in zip(prev, point)) == 1

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bijection_and_adjacency(self, n, m):
        walk = enumerate_recursive(CurveParams(n, m), TABLES[n])
        assert len(set(walk)) == 2 ** (n * m)
        assert all(0 <= c < 2**m for p in walk for c in p)
        for prev, point in zip(walk, walk[1:]):
            assert sum(abs(a - b) for a, b in zip(prev, point)) == 1

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_decoder_everywhere(self, n, m):
        params = CurveParams(n, m)
        walk = enumerate_recursive(params, TABLES[n])
        for z, point in enumerate(walk):
            decoded, _ = decode_arith(integer_to_index(z, params), params, TABLES[n])
            assert decoded == point

    def test_size_guard(self):
        # A walk past 2**20 points takes GB: 2**21 points are refused.
        for m in (7, 9):
            with pytest.raises(ResourceLimitError):
                enumerate_recursive(CurveParams(3, m), TABLES[3])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            enumerate_recursive(CurveParams(2, 1), TABLES[3])


class TestTable3Update:
    def test_fourth_quadrant_worked_example(self):
        assert table3_update(3, 3, 0, 2) == (1, 0)

    def test_first_quadrant_swaps(self):
        assert table3_update(0, 1, 1, 2) == (1, 1)
        assert table3_update(0, 1, 0, 1) == (0, 1)

    def test_third_quadrant_strips_both(self):
        assert table3_update(2, 2, 2, 2) == (0, 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            table3_update(4, 0, 0, 1)
        with pytest.raises(DomainError):
            table3_update(0, 0, 0, 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_stepwise_update(self, m):
        for x in range(2**m):
            for y in range(2**m):
                q = vec_to_scalar(((x >> (m - 1)) & 1, (y >> (m - 1)) & 1))
                assert table3_update(q, x, y, m) == stepwise_update(q, x, y, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_composed_updates_replay_the_encoder(self, m):
        params = CurveParams(2, m)
        for x0 in range(2**m):
            for y0 in range(2**m):
                x, y = x0, y0
                digits = []
                for v in range(m, 0, -1):
                    q = vec_to_scalar(((x >> (v - 1)) & 1, (y >> (v - 1)) & 1))
                    digits.append(q)
                    x, y = table3_update(q, x, y, v)
                idx, _ = encode_arith((y0, x0), params, TABLES[2])
                assert tuple(digits) == idx.digits


class TestCounterBenchmark:
    def test_table_four_counters(self):
        report = run_counter_benchmark(
            (1, 1, 1), (8, 32, 128, 256), TABLES[3], repeats=3
        )
        assert report.counters_ok
        for row in report.rows:
            if row.algorithm in ("arith", "bits"):
                assert row.iterations == row.level
            else:
                assert row.iterations == 1

    def test_origin_keeps_reduced_counter_at_one(self):
        report = run_counter_benchmark((0, 0, 0), (0, 4, 16), TABLES[3], repeats=2)
        assert report.counters_ok
        for row in report.rows:
            if row.algorithm.endswith("fast"):
                assert row.iterations == min(row.level, 1)

    def test_text_and_record_output(self):
        report = run_counter_benchmark((1, 1), (2, 4), TABLES[2], repeats=2)
        text = format_benchmark_text(report)
        assert "iterations per call" in text
        assert "median seconds per call" in text
        assert "(1, 1)" in text
        records = benchmark_records(report)
        assert len(records) == 8
        assert all("algo=" in r and "level=" in r and "median_s=" in r for r in records)

    def test_rejects_bad_repeats(self):
        with pytest.raises(DomainError):
            run_counter_benchmark((1, 1), (2,), TABLES[2], repeats=0)
