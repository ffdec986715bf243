import random

import pytest
from hypothesis import given, settings, strategies as st

from hilbertorder.core_bits import CurveParams, HilbertIndex, index_to_integer
from hilbertorder.encode import (
    effective_level,
    encode_arith,
    encode_arith_fast,
    encode_bits,
    encode_bits_fast,
)
from hilbertorder.errors import DimensionMismatchError, DomainError
from hilbertorder.gene import gene_table

ENCODERS = [encode_arith, encode_bits, encode_arith_fast, encode_bits_fast]
LINEAR = [encode_arith, encode_bits]
REDUCED = [encode_arith_fast, encode_bits_fast]

TABLES = {n: gene_table(n) for n in (2, 3, 4, 5)}


def grid(n, m):
    points = [()]
    for _ in range(n):
        points = [p + (c,) for p in points for c in range(2**m)]
    return points


def encode_value(encoder, point_display, n, m):
    params = CurveParams(n, m)
    idx, _ = encoder(tuple(reversed(point_display)), params, TABLES[n])
    return index_to_integer(idx)


class TestLevelOneGolden:
    # The level-1 walk visits the four cells in the scalar-map order.
    CELLS = [((0, 0), 0), ((0, 1), 1), ((1, 1), 2), ((1, 0), 3)]

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("point,expected", CELLS)
    def test_cell_order(self, encoder, point, expected):
        assert encode_value(encoder, point, 2, 1) == expected


class TestWorkedFixtures:
    # Hand-executed two-dimensional level-2 encodings.
    FIXTURES = [((1, 1), 2), ((3, 0), 15), ((2, 1), 13), ((0, 1), 3)]

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("point,expected", FIXTURES)
    def test_level_two_values(self, encoder, point, expected):
        assert encode_value(encoder, point, 2, 2) == expected

    @pytest.mark.parametrize("encoder", ENCODERS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_origin_encodes_to_zero(self, encoder, n, m):
        assert encode_value(encoder, (0,) * n, n, m) == 0


class TestEffectiveLevel:
    def test_origin_counts_as_one(self):
        assert effective_level((0, 0, 0)) == 1

    def test_small_values(self):
        assert effective_level((0, 1)) == 1
        assert effective_level((5, 0, 2)) == 3
        assert effective_level((8, 1)) == 4

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            effective_level(())


class TestFourWayEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exhaustive_small(self, n, m):
        params = CurveParams(n, m)
        table = TABLES[n]
        seen = set()
        for point in grid(n, m):
            results = [encoder(point, params, table)[0] for encoder in ENCODERS]
            assert results[0] == results[1] == results[2] == results[3]
            seen.add(index_to_integer(results[0]))
        # Encoding the whole grid is a bijection onto the index range.
        assert seen == set(range(2 ** (n * m)))

    def test_random_points_at_level_sixty_four(self):
        rng = random.Random(0xA5)
        params = CurveParams(3, 64)
        table = TABLES[3]
        for _ in range(1000):
            point = tuple(rng.randrange(2**64) for _ in range(3))
            results = [encoder(point, params, table)[0] for encoder in ENCODERS]
            assert results[0] == results[1] == results[2] == results[3]

    @settings(max_examples=60)
    @given(st.data())
    def test_random_small_parameters(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=6))
        point = tuple(
            data.draw(st.integers(min_value=0, max_value=2**m - 1)) for _ in range(n)
        )
        params = CurveParams(n, m)
        results = [encoder(point, params, TABLES[n])[0] for encoder in ENCODERS]
        assert results[0] == results[1] == results[2] == results[3]


class TestStepCounters:
    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_linear_variants_walk_every_level(self, m):
        params = CurveParams(3, m)
        for encoder in LINEAR:
            _, counter = encoder((1, 1, 0), params, TABLES[3])
            assert counter.iterations == m

    @pytest.mark.parametrize("m", [1, 4, 9, 256])
    def test_reduced_variants_walk_occupied_levels(self, m):
        params = CurveParams(3, m)
        for encoder in REDUCED:
            _, counter = encoder((1, 1, 1), params, TABLES[3])
            assert counter.iterations == 1

    def test_reduced_counter_tracks_point_height(self):
        params = CurveParams(2, 12)
        for encoder in REDUCED:
            _, counter = encoder((0, 37), params, TABLES[2])
            assert counter.iterations == effective_level((0, 37)) == 6

    def test_origin_at_huge_level(self):
        params = CurveParams(3, 10**6)
        idx, counter = encode_bits_fast((0, 0, 0), params, TABLES[3])
        assert counter.iterations == 1
        assert len(idx.digits) == 10**6
        assert not any(idx.digits)


class TestNesting:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_dropping_low_digit_halves_the_point(self, n, m):
        fine = CurveParams(n, m)
        coarse = CurveParams(n, m - 1)
        table = TABLES[n]
        for point in grid(n, m):
            full, _ = encode_bits(point, fine, table)
            halved, _ = encode_bits(tuple(c // 2 for c in point), coarse, table)
            assert full.digits[:-1] == halved.digits


class TestDegenerateAndErrors:
    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_level_zero(self, encoder):
        idx, counter = encoder((0, 0), CurveParams(2, 0), TABLES[2])
        assert idx == HilbertIndex(2, ())
        assert counter.iterations == 0

    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_component_too_large(self, encoder):
        with pytest.raises(DomainError):
            encoder((4, 0), CurveParams(2, 2), TABLES[2])

    @pytest.mark.parametrize("encoder", ENCODERS)
    def test_negative_component(self, encoder):
        with pytest.raises(DomainError):
            encoder((-1, 0), CurveParams(2, 2), TABLES[2])
        with pytest.raises(DomainError):  # bool is an int subclass, not a component
            encoder((True, False), CurveParams(2, 2), TABLES[2])

    def test_wrong_point_length(self):
        with pytest.raises(DimensionMismatchError):
            encode_arith((1, 1, 1), CurveParams(2, 2), TABLES[2])

    def test_wrong_table_dimension(self):
        with pytest.raises(DimensionMismatchError):
            encode_arith((1, 1), CurveParams(2, 2), TABLES[3])
