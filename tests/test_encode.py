import random
import re
import tracemalloc
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbertorder import encode
from hilbertorder.core_bits import CurveParams, HilbertIndex, index_to_integer
from hilbertorder.encode import (
    curve_key,
    effective_level,
    encode_arith,
    encode_arith_fast,
    encode_bits,
    encode_bits_fast,
)
from hilbertorder.errors import DimensionMismatchError, DomainError
from hilbertorder.gene import GeneEntry, GeneTable, gene_table

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
        key = curve_key(params, table)
        seen = set()
        for point in grid(n, m):
            results = [encoder(point, params, table)[0] for encoder in ENCODERS]
            assert results[0] == results[1] == results[2] == results[3]
            seen.add(index_to_integer(results[0]))
            assert key(point) == index_to_integer(results[0])
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


@st.composite
def curve_points(draw):
    """(n, m, point) with the point below 2**k for a random k <= m, so
    both odd and even counts of skipped levels occur."""
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=0, max_value=40))
    k = draw(st.integers(min_value=0, max_value=m))
    point = tuple(draw(st.integers(min_value=0, max_value=2**k - 1)) for _ in range(n))
    return n, m, point


KEY_TABLES = {n: gene_table(n) for n in range(2, 9)}


class TestCurveKey:
    @settings(max_examples=300, deadline=None)
    @given(curve_points())
    @example((2, 0, (0, 0)))  # level 0: the key is 0
    @example((3, 40, (0, 0, 0)))
    @example((2, 7, (1, 0)))  # six skipped levels
    @example((2, 8, (1, 0)))  # seven skipped levels
    @example((8, 40, (2**40 - 1,) * 8))  # n * m = 320
    @example((5, 40, (2**39, 0, 3, 2**17, 1)))
    def test_equals_encode_arith(self, case):
        n, m, point = case
        params = CurveParams(n, m)
        table = KEY_TABLES[n]
        expected = index_to_integer(encode_arith(point, params, table)[0])
        assert curve_key(params, table)(point) == expected

    @pytest.mark.parametrize(
        "point",
        [(1, 1, 1), (1,), (-1, 0), (0, -5), (True, False), (0, True), (4, 0), (0, 2**70), (1.0, 0)],
    )
    def test_rejects_what_the_variants_reject(self, point):
        params = CurveParams(2, 2)
        with pytest.raises(DomainError) as reference:
            encode_arith(point, params, TABLES[2])
        with pytest.raises(type(reference.value), match=re.escape(str(reference.value))):
            curve_key(params, TABLES[2])(point)

    # n = 3 and 4 read a state table, n = 5 the transposed loop.
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize(
        "bad",
        [(1, 1, 1), (1,), (-1, 0), (0, -5), (True, False), (0, True), (4, 0), (0, 2**70),
         (1.0, 0), (4, "x")],
    )
    def test_rejects_what_the_variants_reject_at_every_n(self, n, bad):
        point = bad[:1] + (0,) * (n - 2) + bad[1:]  # a wrong length stays wrong
        params = CurveParams(n, 2)
        with pytest.raises(DomainError) as reference:
            encode_arith(point, params, TABLES[n])
        with pytest.raises(type(reference.value), match=re.escape(str(reference.value))):
            curve_key(params, TABLES[n])(point)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_keys_an_int_subclass_as_the_variants_do(self, n):
        class Int(int):
            pass

        params = CurveParams(n, 4)
        key = curve_key(params, TABLES[n])
        rng = random.Random(n)
        for _ in range(20):
            point = tuple(rng.randrange(16) for _ in range(n))
            for given in (tuple(map(Int, point)), point[:-1] + (Int(point[-1]),)):
                assert key(given) == index_to_integer(encode_arith(given, params, TABLES[n])[0])

    def test_wrong_table_dimension(self):
        with pytest.raises(DimensionMismatchError):
            curve_key(CurveParams(2, 2), TABLES[3])


@pytest.fixture
def state_tables(monkeypatch):
    """The result of every state-table build curve_key makes while the test runs."""
    built = []
    build = encode._state_table

    def record(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(encode, "_state_table", record)
    return built


def _state_count(n, state_table):
    levels, rows = state_table
    return len(rows) >> (n * levels)


class TestCurveKeyStateTable:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_set_up_holds_each_state_of_the_curve_once(self, n, state_tables):
        table = gene_table(n)
        tracemalloc.start()
        try:
            key = curve_key(CurveParams(n, 1000), table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        if n == 5:  # 1,920 states of 32 entries each: no table fits
            assert state_tables == [None]
        else:
            levels, rows = state_tables[0]
            assert levels == {2: 5, 3: 2, 4: 1}[n]
            assert len(rows) <= 4096
            assert _state_count(n, state_tables[0]) == factorial(n) * 2 ** (n - 1)
        expected, _ = encode_arith((1,) * n, CurveParams(n, 1000), table)
        assert key((1,) * n) == index_to_integer(expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("altered", ["moved", "odd-reverse"])
    def test_equals_encode_arith_on_a_hand_built_table(self, n, altered, state_tables):
        entries = list(gene_table(n).entries)
        if altered == "moved":
            # Quadrants 1 and 2 trade commands, and the last one exchanges nothing.
            entries[1], entries[2] = entries[2], entries[1]
            entries[-1] = GeneEntry((0,) * n, entries[-1].reverse)
        else:
            # Quadrant 1 also reverses component 1, which doubles the states:
            # more than a table is sized for, so the loop runs.
            reverse = entries[1].reverse
            entries[1] = GeneEntry(entries[1].exchange, (1 - reverse[0],) + reverse[1:])
        table = GeneTable(n, tuple(entries), gene_table(n).corners)
        for m in (1, 2, 3):
            params = CurveParams(n, m)
            key = curve_key(params, table)
            for point in grid(n, m):
                assert key(point) == index_to_integer(encode_arith(point, params, table)[0])
        if altered == "moved":
            states = factorial(n) * 2 ** (n - 1)
            assert [_state_count(n, built) for built in state_tables] == [states] * 3
        else:
            assert state_tables == [None] * 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_the_fast_variants_when_quadrant_zero_is_not_the_swap(self, n, state_tables):
        # Leading all-zero levels no longer read as swaps, so encode_arith
        # differs; the fast variants collapse them as curve_key does.
        entries = list(gene_table(n).entries)
        entries[0] = GeneEntry(entries[0].exchange, (1,) * n)
        table = GeneTable(n, tuple(entries), gene_table(n).corners)
        for m in (1, 2, 3):
            params = CurveParams(n, m)
            key = curve_key(params, table)
            for point in grid(n, m):
                assert key(point) == index_to_integer(encode_arith_fast(point, params, table)[0])
        assert state_tables == [None] * 3
