import copy
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from hilbertorder.core_bits import (
    HilbertIndex,
    coord_xor,
    gray_code,
    gray_code_inverse,
    index_to_integer,
    integer_to_index,
    parity_prefix,
    reflect,
    vec_of_scalar,
    vec_to_scalar,
)
from hilbertorder.curve import (
    CurveParams,
    field_ones,
    field_width,
    integer_digits,
    pack_bytes,
    unpack_columns,
)
from hilbertorder.errors import DimensionMismatchError, DomainError


def recurrence_vector(j: int, n: int) -> tuple[int, ...]:
    """Literal per-entry recurrence for the scalar-to-vector map.

    Independent of the xor-shift form the implementation uses.
    """
    a = [(j >> (n - 1 - i)) & 1 for i in range(n)]
    b = [a[0]]
    for i in range(1, n):
        b.append(a[i] if a[i - 1] == 0 else 1 - a[i])
    return tuple(b)


def recurrence_scalar(bits) -> int:
    """Literal prefix-parity recurrence for the vector-to-scalar map."""
    out = bits[0]
    for i in range(1, len(bits)):
        parity = sum(bits[:i]) % 2
        digit = bits[i] if parity == 0 else 1 - bits[i]
        out = out * 2 + digit
    return out


class TestCurveParams:
    def test_accepts_degenerate_level(self):
        assert CurveParams(2, 0).m == 0

    @pytest.mark.parametrize("n,m", [(1, 3), (0, 1), (-2, 1), (2, -1)])
    def test_rejects_bad_parameters(self, n, m):
        with pytest.raises(DomainError):
            CurveParams(n, m)

    def test_behaves_as_a_frozen_value(self):
        params = CurveParams(n=3, m=8)
        assert params == CurveParams(3, 8) != CurveParams(3, 9)
        assert params != (3, 8)
        assert hash(params) == hash(CurveParams(3, 8))
        assert repr(params) == "CurveParams(n=3, m=8)"
        with pytest.raises(AttributeError):
            params.m = 9
        with pytest.raises(AttributeError):
            del params.n
        assert pickle.loads(pickle.dumps(params)) == copy.deepcopy(params) == params


class TestCoordXor:
    def test_basic(self):
        assert coord_xor((0, 0), (1, 1)) == (1, 1)

    def test_hand_checked_components(self):
        # 3^6 = 5 and 5^3 = 6, bitwise per component
        assert coord_xor((3, 5), (6, 3)) == (5, 6)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=2, max_size=6))
    def test_self_annihilation(self, values):
        point = tuple(values)
        assert coord_xor(point, point) == (0,) * len(point)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            coord_xor((1, 2), (1, 2, 3))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            coord_xor((1, -2), (0, 0))


class TestReflect:
    def test_zero_maps_to_all_ones(self):
        for k in range(1, 10):
            assert reflect(0, k) == 2**k - 1

    def test_small_value(self):
        assert reflect(5, 3) == 2

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_involution(self, j):
        assert reflect(reflect(j, 20), 20) == j

    def test_order_reversing(self):
        values = [reflect(j, 6) for j in range(2**6)]
        assert values == sorted(values, reverse=True)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            reflect(8, 3)
        with pytest.raises(DomainError):
            reflect(0, -1)
        assert reflect(0, 0) == 0


class TestParityPrefix:
    @pytest.mark.parametrize("i,expected", [(1, 1), (2, 0), (3, 1)])
    def test_ones_vector(self, i, expected):
        assert parity_prefix((1, 1, 1), i) == expected

    def test_all_zero(self):
        for i in range(1, 6):
            assert parity_prefix((0,) * 5, i) == 0

    def test_rejects_bad_prefix_length(self):
        with pytest.raises(DomainError):
            parity_prefix((1, 0), 0)
        with pytest.raises(DomainError):
            parity_prefix((1, 0), 3)

    def test_rejects_non_bits(self):
        with pytest.raises(DomainError):
            parity_prefix((1, 2), 1)


class TestScalarVectorMaps:
    # The eight two-dimensional values every other fixture builds on.
    TABLE = [
        ((0, 0), 0),
        ((0, 1), 1),
        ((1, 1), 2),
        ((1, 0), 3),
    ]

    @pytest.mark.parametrize("vec,scalar", TABLE)
    def test_two_dim_forward(self, vec, scalar):
        assert vec_to_scalar(vec) == scalar

    @pytest.mark.parametrize("vec,scalar", TABLE)
    def test_two_dim_backward(self, vec, scalar):
        assert vec_of_scalar(scalar, 2) == vec

    def test_zero_vector(self):
        for n in range(1, 8):
            assert vec_to_scalar((0,) * n) == 0
            assert vec_of_scalar(0, n) == (0,) * n

    def test_top_scalar_maps_to_leading_one(self):
        for n in range(2, 10):
            assert vec_of_scalar(2**n - 1, n) == (1,) + (0,) * (n - 1)

    def test_three_dim_value_by_enumeration(self):
        # Enumerate the scalar-to-vector recurrence over 0..7 and invert it.
        inverse = {recurrence_vector(j, 3): j for j in range(8)}
        assert inverse[(1, 1, 1)] == 5
        assert vec_to_scalar((1, 1, 1)) == 5

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_recurrences_exhaustively(self, n):
        for j in range(2**n):
            vec = recurrence_vector(j, n)
            assert vec_of_scalar(j, n) == vec
            assert vec_to_scalar(vec) == j
            assert recurrence_scalar(vec) == j

    @pytest.mark.parametrize("n", range(1, 11))
    def test_adjacent_scalars_differ_in_one_entry(self, n):
        for j in range(2**n - 1):
            flips = coord_xor(vec_of_scalar(j, n), vec_of_scalar(j + 1, n))
            assert sum(flips) == 1

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            vec_to_scalar((0, 2))
        with pytest.raises(DomainError):
            vec_of_scalar(4, 2)
        with pytest.raises(DomainError):
            vec_of_scalar(-1, 2)


class TestGrayHelpers:
    @pytest.mark.parametrize("width", [1, 4, 16, 17, 24])
    def test_inverse_round_trip(self, width):
        step = max(1, (1 << width) // 4096)
        for j in range(0, 1 << width, step):
            assert gray_code_inverse(gray_code(j), width) == j

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            gray_code(-1)
        with pytest.raises(DomainError):
            gray_code_inverse(-1)
        with pytest.raises(DomainError):
            gray_code_inverse(4, width=2)


class TestIndexConversions:
    def test_positional_value(self):
        assert index_to_integer(HilbertIndex(2, (0, 2))) == 2
        assert index_to_integer(HilbertIndex(2, (3, 3))) == 15

    def test_empty_digits(self):
        assert index_to_integer(HilbertIndex(2, ())) == 0
        assert integer_to_index(0, CurveParams(2, 0)) == HilbertIndex(2, ())

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=8),
        st.randoms(use_true_random=False),
    )
    def test_round_trip(self, n, m, rng):
        digits = tuple(rng.randrange(2**n) for _ in range(m))
        idx = HilbertIndex(n, digits)
        assert integer_to_index(index_to_integer(idx), CurveParams(n, m)) == idx

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            integer_to_index(16, CurveParams(2, 2))
        with pytest.raises(DomainError):
            integer_to_index(-1, CurveParams(2, 2))

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=8), st.data())
    def test_integer_digits_are_the_digits_of_integer_to_index(self, n, m, data):
        z = data.draw(st.integers(min_value=0, max_value=2 ** (n * m) - 1))
        params = CurveParams(n, m)
        assert integer_digits(z, params) == list(integer_to_index(z, params).digits)

    @pytest.mark.parametrize("z", [16, -1, 2**70])
    def test_integer_digits_raise_as_integer_to_index(self, z):
        message = re.escape(f"index {z} out of range for dimension 2, level 2")
        for split in (integer_digits, integer_to_index):
            with pytest.raises(DomainError, match=message):
                split(z, CurveParams(2, 2))

    def test_digit_validation(self):
        with pytest.raises(DomainError):
            HilbertIndex(2, (4,))
        with pytest.raises(DomainError):
            HilbertIndex(2, (-1,))


class TestColumns:
    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 192])
    def test_unpack_interleaves_what_pack_packed(self, width):
        rng = random.Random(width)
        columns = [[rng.getrandbits(width) for _ in range(5)] for _ in range(3)]
        columns[0][0] = 2**width - 1
        packed = [int.from_bytes(pack_bytes(column, width), "little") for column in columns]
        assert packed[0] == sum(v << (j * width) for j, v in enumerate(columns[0]))
        assert unpack_columns(packed, 5, width) == tuple(v for row in zip(*columns) for v in row)
        assert unpack_columns(packed[:1], 5, width) == tuple(columns[0])
        assert pack_bytes([], width) == b"" and unpack_columns([0, 0], 0, width) == ()

    def test_field_width_is_the_least_that_holds_the_bits(self):
        widths = {bits: field_width(bits) for bits in (1, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129)}
        assert widths == {1: 8, 8: 8, 9: 16, 16: 16, 17: 32, 32: 32, 33: 64, 64: 64,
                          65: 128, 128: 128, 129: 192}
        assert field_ones(3, 16) == 1 | 1 << 16 | 1 << 32
        assert field_ones(2, 128) == 1 | 1 << 128
