import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbertorder.core_bits import HilbertIndex, index_to_integer
from hilbertorder.curve import CurveParams, curve_keys
from hilbertorder.encode import (
    effective_level,
    encode_arith,
    encode_arith_fast,
    encode_bits,
    encode_bits_fast,
)
from hilbertorder.errors import DimensionMismatchError, DomainError
from hilbertorder.gene import gene_table

from conftest import reference_table

ENCODERS = [encode_arith, encode_bits, encode_arith_fast, encode_bits_fast]
LINEAR = [encode_arith, encode_bits]
REDUCED = [encode_arith_fast, encode_bits_fast]

TABLES = {n: gene_table(n) for n in (2, 3, 4, 5)}


def grid(n, m):
    points = [()]
    for _ in range(n):
        points = [p + (c,) for p in points for c in range(2**m)]
    return points


def flat(points):
    """Points as curve_keys takes them: one list, each point written x_n .. x_1."""
    return [c for p in points for c in reversed(p)]


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
        keys = []
        for point in grid(n, m):
            results = [encoder(point, params, table)[0] for encoder in ENCODERS]
            assert results[0] == results[1] == results[2] == results[3]
            keys.append(index_to_integer(results[0]))
        # Encoding the whole grid is a bijection onto the index range.
        assert set(keys) == set(range(2 ** (n * m)))
        assert curve_keys(params, flat(grid(n, m))) == keys

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


def reference_keys(values, params):
    """The keys of the points in ``values``, flat as curve_keys takes them, by
    ``encode_arith``."""
    n = params.n
    table = reference_table(n)
    return [index_to_integer(encode_arith(tuple(values[j:j + n][::-1]), params, table)[0])
            for j in range(0, len(values), n)]


def batch_message(error, point, n):
    """The message of ``error`` for ``point`` as a batch of one: a point longer
    than ``n`` is a whole point and a partial one, and the partial one is named."""
    if len(point) > n:
        return re.escape(f"point has {len(point) - n} components, curve dimension is {n}")
    return re.escape(str(error))


class TestCurveKey:
    """One point, keyed as a batch of one: ``curve_keys(params, point[::-1])``."""

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
        table = reference_table(n)
        expected = index_to_integer(encode_arith(point, params, table)[0])
        assert curve_keys(params, point[::-1]) == [expected]

    @pytest.mark.parametrize(
        "point",
        [(1, 1, 1), (1,), (-1, 0), (0, -5), (True, False), (0, True), (4, 0), (0, 2**70), (1.0, 0)],
    )
    def test_rejects_what_the_variants_reject(self, point):
        params = CurveParams(2, 2)
        with pytest.raises(DomainError) as reference:
            encode_arith(point, params, TABLES[2])
        with pytest.raises(type(reference.value), match=batch_message(reference.value, point, 2)):
            curve_keys(params, point[::-1])

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
        with pytest.raises(type(reference.value), match=batch_message(reference.value, point, n)):
            curve_keys(params, point[::-1])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_keys_an_int_subclass_as_the_variants_do(self, n):
        class Int(int):
            pass

        params = CurveParams(n, 4)
        rng = random.Random(n)
        for _ in range(20):
            point = tuple(rng.randrange(16) for _ in range(n))
            for given in (tuple(map(Int, point)), point[:-1] + (Int(point[-1]),)):
                [key] = curve_keys(params, given[::-1])
                assert key == index_to_integer(encode_arith(given, params, TABLES[n])[0])
                assert type(key) is int

    @pytest.mark.parametrize("n", [21, 64, 1024])
    def test_takes_a_dimension_above_the_gene_table_cap(self, n):
        # The kernel builds no gene table, so the table's cap is no limit.
        params = CurveParams(n, 3)
        values = [(7 * i) % 8 for i in range(n)]
        assert curve_keys(params, values) == reference_keys(values, params)
        assert curve_keys(params, []) == []


@st.composite
def batches(draw):
    """(n, m, points): up to six points below 2**k for a random k <= m, some
    of them below 4, so a batch may hold one large point among small ones."""
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.sampled_from([0, 1, 2, 63, 64, 65]) | st.integers(min_value=0, max_value=130))
    k = draw(st.integers(min_value=0, max_value=m))
    component = st.integers(min_value=0, max_value=2**k - 1)
    small = st.integers(min_value=0, max_value=min(3, 2**m - 1))
    points = st.tuples(*[component] * n) | st.tuples(*[small] * n)
    return n, m, draw(st.lists(points, max_size=6))


class TestCurveKeys:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    @example((3, 5, []))  # no points
    @example((3, 20, [(5, 6, 7)]))  # one point
    @example((4, 40, [(0, 0, 0, 0)] * 3))  # all at the origin: no level runs
    @example((2, 7, [(1, 0), (0, 1), (1, 1)]))  # k = 1, six skipped levels
    @example((2, 8, [(1, 0), (0, 1), (1, 1)]))  # seven skipped levels
    @example((3, 40, [(1, 0, 2), (2**39 + 5, 5, 3), (0, 0, 1)]))  # one large point
    @example((5, 13, [(2**13 - 1,) * 5, (1, 2, 3, 4, 5)]))  # n * k = 65: two key groups
    @example((12, 64, [(2**64 - 1,) * 12, (1,) * 12]))  # eleven key groups
    @example((3, 70, [(2**69, 1, 2), (5, 6, 7)]))  # k > 64: 128-bit fields
    def test_equals_encode_arith(self, case):
        n, m, points = case
        params = CurveParams(n, m)
        table = reference_table(n)
        expected = [index_to_integer(encode_arith(p, params, table)[0]) for p in points]
        assert curve_keys(params, flat(points)) == expected
        assert curve_keys(params, tuple(flat(points))) == expected

    @pytest.mark.parametrize("n", range(13, 21))
    def test_batch_kernel_equals_the_per_point_loop_at_large_n(self, n):
        # The per-point loop is encode_arith on the closed-form stand-in for
        # a gene table; with a component of 65 bits the fields are 128 bits.
        rng = random.Random(n)
        params = CurveParams(n, 65)
        values = [rng.getrandbits(rng.choice((1, 3, 20, 64))) for _ in range(8 * n)]
        values[:n] = [0] * (n - 1) + [1]
        for batch in (values, values + [2**64] + [0] * (n - 1)):
            assert curve_keys(params, batch) == reference_keys(batch, params)
        assert curve_keys(params, values)[0] == 1

    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("n", [*range(2, 22), 32, 64, 100])
    def test_equals_encode_arith_at_every_n(self, n, m):
        # Past the gene table's cap of n = 20 the reference runs on the
        # closed-form stand-in; the kernel takes any n.
        rng = random.Random(n * 100 + m)
        params = CurveParams(n, m)
        values = [rng.getrandbits(rng.choice((min(1, m), m // 2, m))) for _ in range(5 * n)]
        values[:n] = [2**m - 1] * n
        assert curve_keys(params, values) == reference_keys(values, params)

    @pytest.mark.parametrize("k", [7, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129])
    @pytest.mark.parametrize("n", [2, 8, 9, 13, 20])
    def test_equals_encode_arith_where_the_field_widens(self, n, k):
        # The fields are field_width(max(k, n)) bits: 8, 16, 32 or 64, then
        # 128 up to k = 128, then 192; at n = 9, 13 and 20 they are set by n
        # while k is small.  m = 129 leaves an odd and an even count of
        # skipped levels.
        rng = random.Random(n * 1000 + k)
        params = CurveParams(n, 129)
        values = [rng.getrandbits(rng.choice((1, k // 2, k))) for _ in range(4 * n)]
        values[n + 1] = 2**(k - 1)
        assert curve_keys(params, values) == reference_keys(values, params)

    @pytest.mark.parametrize("m", [63, 64, 65, 129, 1000])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 16, 32, 64])
    def test_equals_encode_arith_on_both_sides_of_a_word_key(self, n, m):
        # Keys of n * k <= 64 bits leave the kernel through one key column,
        # wider ones through the merge; at k = m past 64 the fields narrow.
        rng = random.Random(n * 10000 + m)
        params = CurveParams(n, m)
        for k in sorted({64 // n, 64 // n + 1, m}):
            values = [rng.getrandbits(rng.choice((1, k // 2, k))) for _ in range(3 * n)]
            values[1] = 2**(k - 1)
            assert curve_keys(params, values) == reference_keys(values, params)

    @pytest.mark.parametrize(
        "bad", [(-1, 0), (0, -5), (True, 0), (0, False), (4, 0), (0, 2**70), (1.0, 0), (0, "1")],
    )
    def test_rejects_the_first_bad_point_as_the_variants_do(self, bad):
        params = CurveParams(2, 2)
        with pytest.raises(DomainError) as reference:
            encode_arith(bad, params, TABLES[2])
        values = flat([(1, 2), bad, (3, 1), (-1, 9)])
        with pytest.raises(type(reference.value), match=re.escape(str(reference.value))):
            curve_keys(params, values)

    def test_rejects_a_partial_point(self):
        with pytest.raises(DimensionMismatchError, match="point has 1 components"):
            curve_keys(CurveParams(2, 2), [1, 2, 3])
