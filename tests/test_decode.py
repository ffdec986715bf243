import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbertorder.core_bits import HilbertIndex, integer_to_index
from hilbertorder.curve import (
    CurveParams, curve_keys, curve_points, field_width, integer_digits, pack_bytes,
    unchecked_points,
)
from hilbertorder.decode import (
    decode_arith,
    decode_arith_fast,
    decode_bits,
    decode_bits_fast,
    index_effective_level,
)
from hilbertorder.encode import encode_arith, encode_bits
from hilbertorder.errors import DimensionMismatchError, DomainError
from hilbertorder.gene import gene_table

from conftest import reference_table

DECODERS = [decode_arith, decode_bits, decode_arith_fast, decode_bits_fast]
LINEAR = [decode_arith, decode_bits]
REDUCED = [decode_arith_fast, decode_bits_fast]

TABLES = {n: gene_table(n) for n in (2, 3, 4)}


def decode_display(decoder, z, n, m):
    params = CurveParams(n, m)
    point, _ = decoder(integer_to_index(z, params), params, TABLES[n])
    return tuple(reversed(point))


class TestGoldenValues:
    CELLS = [(0, (0, 0)), (1, (0, 1)), (2, (1, 1)), (3, (1, 0))]
    LEVEL_TWO = [(2, (1, 1)), (15, (3, 0)), (13, (2, 1))]

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("z,point", CELLS)
    def test_level_one_cells(self, decoder, z, point):
        assert decode_display(decoder, z, 2, 1) == point

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("z,point", LEVEL_TWO)
    def test_level_two_fixtures(self, decoder, z, point):
        assert decode_display(decoder, z, 2, 2) == point

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 4), (4, 2)])
    def test_zero_decodes_to_origin(self, decoder, n, m):
        assert decode_display(decoder, 0, n, m) == (0,) * n


class TestIndexEffectiveLevel:
    def test_all_zero_counts_as_one(self):
        assert index_effective_level(HilbertIndex(2, (0, 0, 0))) == 1
        assert index_effective_level(HilbertIndex(2, ())) == 1

    def test_highest_nonzero_digit(self):
        assert index_effective_level(HilbertIndex(2, (0, 3))) == 1
        assert index_effective_level(HilbertIndex(2, (2, 0, 1))) == 3
        assert index_effective_level(HilbertIndex(2, (1, 0, 0, 0))) == 4


class TestFourWayEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exhaustive_small(self, n, m):
        params = CurveParams(n, m)
        table = TABLES[n]
        digits, points = [], []
        for z in range(2 ** (n * m)):
            idx = integer_to_index(z, params)
            results = [decoder(idx, params, table)[0] for decoder in DECODERS]
            assert results[0] == results[1] == results[2] == results[3]
            digits += idx.digits
            points += results[0][::-1]
        assert curve_points(params, digits) == tuple(points)

    def test_random_indices_at_level_sixty_four(self):
        rng = random.Random(0x5A)
        params = CurveParams(3, 64)
        table = TABLES[3]
        for _ in range(1000):
            idx = integer_to_index(rng.randrange(2**192), params)
            results = [decoder(idx, params, table)[0] for decoder in DECODERS]
            assert results[0] == results[1] == results[2] == results[3]


class TestRoundTrips:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_decode_then_encode_exhaustive(self, n, m):
        params = CurveParams(n, m)
        table = TABLES[n]
        for z in range(2 ** (n * m)):
            idx = integer_to_index(z, params)
            point, _ = decode_bits(idx, params, table)
            back, _ = encode_arith(point, params, table)
            assert back == idx

    @settings(max_examples=60)
    @given(st.data())
    def test_random_large_levels(self, data):
        n = data.draw(st.integers(min_value=2, max_value=4))
        m = data.draw(st.integers(min_value=1, max_value=32))
        z = data.draw(st.integers(min_value=0, max_value=2 ** (n * m) - 1))
        params = CurveParams(n, m)
        idx = integer_to_index(z, params)
        for decoder in DECODERS:
            point, _ = decoder(idx, params, TABLES[n])
            back, _ = encode_bits(point, params, TABLES[n])
            assert back == idx


class TestAdjacency:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_consecutive_indices_touch(self, n, m):
        params = CurveParams(n, m)
        table = TABLES[n]
        prev, _ = decode_arith(integer_to_index(0, params), params, table)
        for z in range(1, 2 ** (n * m)):
            point, _ = decode_arith(integer_to_index(z, params), params, table)
            assert sum(abs(a - b) for a, b in zip(prev, point)) == 1
            prev = point


class TestEndpoint:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_two_dim_curve_ends_on_the_x_axis(self, m):
        # Pinned by observation: the last point is (2**m - 1, 0).
        assert decode_display(decode_bits, 2 ** (2 * m) - 1, 2, m) == (2**m - 1, 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_last_point_lies_on_component_n_axis(self, n, m):
        params = CurveParams(n, m)
        point, _ = decode_bits(
            integer_to_index(2 ** (n * m) - 1, params), params, TABLES[n]
        )
        assert point == (0,) * (n - 1) + (2**m - 1,)


class TestStepCounters:
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_linear_variants_walk_every_level(self, m):
        params = CurveParams(2, m)
        idx = integer_to_index(3, params)
        for decoder in LINEAR:
            _, counter = decoder(idx, params, TABLES[2])
            assert counter.iterations == m

    @pytest.mark.parametrize("m", [1, 3, 8, 256])
    def test_reduced_variants_stop_at_highest_digit(self, m):
        params = CurveParams(3, m)
        idx = integer_to_index(0, params)
        for decoder in REDUCED:
            point, counter = decoder(idx, params, TABLES[3])
            assert counter.iterations == 1
            assert point == (0, 0, 0)

    def test_reduced_counter_matches_digit_height(self):
        params = CurveParams(2, 9)
        idx = integer_to_index(3 * 4**4, params)
        assert index_effective_level(idx) == 5
        for decoder in REDUCED:
            _, counter = decoder(idx, params, TABLES[2])
            assert counter.iterations == 5


class TestDegenerateAndErrors:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_level_zero_decodes_to_origin(self, decoder):
        point, counter = decoder(HilbertIndex(3, ()), CurveParams(3, 0), TABLES[3])
        assert point == (0, 0, 0)
        assert counter.iterations == 0

    def test_digit_count_mismatch(self):
        with pytest.raises(DomainError):
            decode_arith(HilbertIndex(2, (1,)), CurveParams(2, 2), TABLES[2])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            decode_arith(HilbertIndex(3, (1, 1)), CurveParams(2, 2), TABLES[2])
        with pytest.raises(DimensionMismatchError):
            decode_arith(HilbertIndex(2, (1, 1)), CurveParams(2, 2), TABLES[3])

    def test_digit_too_large_rejected_at_construction(self):
        with pytest.raises(DomainError):
            HilbertIndex(2, (4, 0))


@st.composite
def curve_indices(draw, min_n=2, max_n=8, levels=None):
    """(n, m, digits) with all but the last k digits zero for a random
    k <= m, so both odd and even counts of leading zero digits occur.
    By default levels 63 to 65 sit on both sides of the batch kernel's
    cut-over; otherwise m <= 40, and m <= 12 above n = 8, where
    ``decode_arith`` and the tables cost more."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if levels is None:
        levels = st.sampled_from([63, 64, 65]) | st.integers(
            min_value=0, max_value=40 if n <= 8 else 12)
    m = draw(levels)
    k = draw(st.integers(min_value=0, max_value=m))
    low = [draw(st.integers(min_value=0, max_value=2**n - 1)) for _ in range(k)]
    return n, m, [0] * (m - k) + low


@st.composite
def curve_point_cases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=0, max_value=40))
    k = draw(st.integers(min_value=0, max_value=m))
    point = tuple(draw(st.integers(min_value=0, max_value=2**k - 1)) for _ in range(n))
    return n, m, point


TOP = object()  # stands for the digit 2**n, the first one out of range


def reference_points(indices, params):
    """The points of ``indices`` by ``decode_arith``, flat, each ``x_n .. x_1``."""
    table = reference_table(params.n)
    return tuple(c for digits in indices
                 for c in decode_arith(HilbertIndex(params.n, tuple(digits)), params, table)[0][::-1])


def sample_indices(n, m, seed):
    """Six indices: all zero, all top digits, two random, one random index
    with its top digits zero, and one random reversed."""
    rng = random.Random(seed)
    randoms = [[rng.randrange(2**n) for _ in range(m)] for _ in range(3)]
    return [[0] * m, [2**n - 1] * m, randoms[0], randoms[1],
            [0] * (m // 2) + randoms[2][m // 2:], randoms[0][::-1]]


class TestCurvePoint:
    """One index, placed as a batch of one: ``curve_points(params, digits, 1)``."""

    # The fields start at field_width(n) bits and widen each time the placed
    # levels fill them, at v = 8, 16, 32, 64, 128, ...  Every property below
    # is drawn on both sides of m = 64.
    @settings(max_examples=300, deadline=None)
    @given(curve_indices(max_n=10))
    @example((2, 0, []))  # level 0: the origin
    @example((3, 40, [0] * 40))
    @example((2, 7, [0] * 6 + [2]))  # six leading zero digits
    @example((2, 8, [0] * 7 + [2]))  # seven leading zero digits
    @example((8, 40, [255] * 40))  # n * m = 320
    @example((5, 40, [31, 0, 17] + [1] * 37))
    @example((9, 12, [511] * 12))
    @example((10, 3, [1023, 0, 512]))
    @example((9, 8, [511, 3] * 4))  # m < n: the fields are n bits wide
    @example((8, 65, [255] * 65))
    @example((10, 65, [1023, 0] * 32 + [1]))
    def test_equals_decode_arith(self, case):
        n, m, digits = case
        params = CurveParams(n, m)
        table = reference_table(n)
        expected, _ = decode_arith(HilbertIndex(n, tuple(digits)), params, table)
        assert curve_points(params, digits, 1) == expected[::-1]

    @settings(max_examples=100, deadline=None)
    @given(curve_point_cases())
    @example((8, 40, (2**40 - 1,) * 8))
    def test_inverts_curve_keys_of_one_point(self, case):
        n, m, point = case
        params = CurveParams(n, m)
        [key] = curve_keys(params, point[::-1])
        digits = integer_to_index(key, params).digits
        assert curve_points(params, digits, 1) == point[::-1]

    @pytest.mark.parametrize(
        "digits",
        [(), (1,), (1, 0, 0), (TOP, 0), (0, TOP), (0, 2**70), (-1, 0), (0, 1.0), (0, "1"),
         (0, -1), (TOP, -1)],
    )
    def test_rejects_what_decode_arith_rejects(self, digits):
        for n in (2, 8, 9):
            for m in (2, 65):
                params = CurveParams(n, m)
                at_n = tuple(2**n if d is TOP else d for d in digits)
                at_n = at_n[:1] + (0,) * (m - 2) + at_n[1:]  # a wrong count stays wrong
                with pytest.raises(DomainError) as reference:
                    decode_arith(HilbertIndex(n, at_n), params, reference_table(n))
                for given_as in (tuple, list):
                    with pytest.raises(type(reference.value),
                                       match=re.escape(str(reference.value))):
                        curve_points(params, given_as(at_n), 1)

    @settings(max_examples=50, deadline=None)
    @given(curve_indices(min_n=9, max_n=10, levels=st.integers(min_value=65, max_value=80)))
    def test_equals_decode_arith_when_steps_are_dropped(self, case):
        # n >= 9 and m > 64: the batch kernel with 128-bit fields places an
        # index and its reverse in one batch.
        n, m, digits = case
        params = CurveParams(n, m)
        table = reference_table(n)
        expected, _ = decode_arith(HilbertIndex(n, tuple(digits)), params, table)
        backwards, _ = decode_arith(HilbertIndex(n, tuple(digits[::-1])), params, table)
        assert curve_points(params, digits + digits[::-1]) == expected[::-1] + backwards[::-1]

    @pytest.mark.parametrize(
        "n, m",
        [(n, m) for n in (8, 9) for m in (0, 1, 7, 9, 33, 63, 64, 65, 66, 128, 129, 192, 193)]
        + [(8, 200)],
    )
    def test_equals_decode_arith_at_the_cut_over(self, n, m):
        # The cut-over from one-word fields to wider ones: the fields widen
        # at levels 64, 128 and 192 (at n = 8 also at 8, 16 and 32), so
        # m = 65, 129 and 193 place one level in a field just widened.
        params = CurveParams(n, m)
        indices = sample_indices(n, m, n * 1000 + m)
        assert curve_points(params, [d for i in indices for d in i], len(indices)) == (
            reference_points(indices, params))

    def test_one_index_at_level_1000_is_small(self):
        # Fields of 16 words at the end, one per component.
        params = CurveParams(8, 1000)
        tracemalloc.start()
        try:
            curve_points(params, [0] * 999 + [1], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_set_up_does_not_grow_with_every_quadrant(self):
        # All 2**12 steps at n * m = 12000 bits would take about 12 MB.
        params = CurveParams(12, 1000)
        tracemalloc.start()
        try:
            curve_points(params, [0] * 999 + [1], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("n", [21, 64, 1024])
    def test_takes_a_dimension_above_the_gene_table_cap(self, n):
        # The kernel builds no gene table, so the table's cap is no limit.
        params = CurveParams(n, 3)
        indices = sample_indices(n, 3, n)
        assert curve_points(params, [d for i in indices for d in i]) == (
            reference_points(indices, params))
        assert curve_points(params, []) == ()


class TestUncheckedPoints:
    """The kernel takes its digits packed, ``field_width(n) // 8`` little-endian
    bytes each, from any buffer, and reads them in place."""

    @pytest.mark.parametrize("count", [1, 257])
    @pytest.mark.parametrize("m", [0, 1, 7, 64, 65])
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 12, 13, 16])
    def test_equals_decode_arith_on_every_buffer(self, n, m, count):
        params = CurveParams(n, m)
        rng = random.Random(n * 1000 + m * 10 + count)
        indices = [[2**n - 1] * m] + [[rng.getrandbits(n) for _ in range(m)]
                                      for _ in range(count - 1)]
        expected = reference_points(indices, params)
        packed = pack_bytes([d for index in indices for d in index], field_width(n))
        buffers = {
            "bytes": packed,
            "bytearray": bytearray(packed),
            "memoryview": memoryview(packed),
            "memoryview-at-an-offset": memoryview(b"\1" + packed + b"\1")[1:-1],
        }
        for kind, data in buffers.items():
            assert unchecked_points(params, data, count) == expected, kind


class TestCurvePoints:
    @pytest.mark.parametrize(
        "m", [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129, 192, 193])
    @pytest.mark.parametrize("n", [*range(2, 22), 32, 64, 65, 100])
    def test_equals_decode_arith_at_every_n(self, n, m):
        # The fields start at field_width(n) bits and widen when the placed
        # levels fill them, at v = 8, 16, 32, 64, 128 and 192 from the
        # start width on; so m = W - 1, W and W + 1 end a level before a
        # widening, on it and one level past it at every width W it
        # passes through, and m = 1, or m = 8 at n >= 9, holds fields wider
        # than m.  Past the gene table's cap of n = 20 the reference runs
        # on the closed-form stand-in; the kernel takes any n.
        params = CurveParams(n, m)
        indices = sample_indices(n, m, n * 100 + m)
        flat = [d for index in indices for d in index]
        expected = reference_points(indices, params)
        assert curve_points(params, flat, len(indices)) == expected
        assert curve_points(params, tuple(flat), len(indices)) == expected
        if m:
            assert curve_points(params, flat) == expected
        assert tuple(c for index in indices for c in curve_points(params, index, 1)) == expected

    @pytest.mark.parametrize("m", [1, 8, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("n", [*range(2, 22), 32, 64, 100])
    def test_inverts_curve_keys(self, n, m):
        rng = random.Random(n * 100 + m)
        params = CurveParams(n, m)
        values = [rng.getrandbits(rng.choice((1, m // 2 + 1, m))) for _ in range(5 * n)]
        values[:n] = [2**m - 1] * n
        keys = curve_keys(params, values)
        digits = [d for z in keys for d in integer_digits(z, params)]
        assert curve_points(params, digits) == tuple(values)

    def test_no_indices(self):
        assert curve_points(CurveParams(3, 5), []) == ()
        assert curve_points(CurveParams(3, 0), [], 2) == (0,) * 6

    @pytest.mark.parametrize("m", [2, 65])
    @pytest.mark.parametrize(
        "bad", [(TOP, 0), (0, TOP), (-1, 0), (0, 2**70), (1.0, 0), (0, "1")],
    )
    def test_rejects_the_first_bad_index_as_curve_point_does(self, bad, m):
        params = CurveParams(3, m)
        bad = tuple(8 if d is TOP else d for d in bad)
        bad = bad[:1] + (0,) * (m - 2) + bad[1:]
        with pytest.raises(DomainError) as reference:
            curve_points(params, bad, 1)
        good = [1] * m
        values = good + list(bad) + [2] * m + [-1] * m  # a later bad index is not named
        with pytest.raises(type(reference.value), match=re.escape(str(reference.value))):
            curve_points(params, values)

    def test_digits_left_over_for_the_count(self):
        with pytest.raises(DomainError, match="3 digits given for 0 indices at level 0"):
            curve_points(CurveParams(2, 0), [0, 0, 0])

    def test_places_an_int_subclass_and_a_bool(self):
        class Int(int):
            pass

        params = CurveParams(3, 4)
        digits = [Int(5), True, 0, 7]
        assert curve_points(params, digits) == curve_points(params, [5, 1, 0, 7])
