"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is integer-exact (zero mismatches allowed); the only timing
comparison is informational and printed, never asserted.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import random
import sys
import time

from hilbertorder.core_bits import (
    index_to_integer,
    integer_to_index,
    vec_of_scalar,
    vec_to_scalar,
)
from hilbertorder.curve import CurveParams, curve_keys, curve_points
from hilbertorder.decode import (
    decode_arith,
    decode_arith_fast,
    decode_bits,
    decode_bits_fast,
)
from hilbertorder.encode import (
    encode_arith,
    encode_arith_fast,
    encode_bits,
    encode_bits_fast,
)
from hilbertorder.gene import gene_table, validate_gene_table
from hilbertorder.oracle import enumerate_recursive, table3_update
from hilbertorder.core_bits import reflect

from conftest import bit_vectors

ENCODERS = [encode_arith, encode_bits, encode_arith_fast, encode_bits_fast]
DECODERS = [decode_arith, decode_bits, decode_arith_fast, decode_bits_fast]

TABLES = {n: gene_table(n) for n in range(2, 9)}

SMALL_RANGE = [(n, m) for n in (2, 3, 4) for m in (1, 2, 3)]
DEEP_RANGE = [(2, m) for m in range(1, 9)]


def announce(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS", file=sys.stderr)


def grid(n, m):
    points = [()]
    for _ in range(n):
        points = [p + (c,) for p in points for c in range(2**m)]
    return points


def test_criterion_01_golden_scalar_vector_table():
    table = [((0, 0), 0), ((0, 1), 1), ((1, 1), 2), ((1, 0), 3)]
    for vec, scalar in table:
        assert vec_to_scalar(vec) == scalar
        assert vec_of_scalar(scalar, 2) == vec
    announce(1, "two-dim scalar/vector map, all 8 entries exact")


def test_criterion_02_golden_gene_table():
    expected = [
        ((1, 1), (0, 0)),
        ((0, 0), (0, 0)),
        ((0, 0), (0, 0)),
        ((1, 1), (1, 1)),
    ]
    assert bit_vectors(TABLES[2]) == expected
    for n in range(2, 9):
        exchange, reverse = bit_vectors(TABLES[n])[0]
        assert exchange == (1,) + (0,) * (n - 2) + (1,)
        assert reverse == (0,) * n
    announce(2, "two-dim gene table exact; quadrant-0 commands for n=2..8")


def test_criterion_03_golden_combined_update():
    def stepwise(q, x, y, m):
        exchange, reverse = bit_vectors(TABLES[2])[q]
        half = 1 << (m - 1)
        comps = [y, x]
        for i in range(2):
            if comps[i] >= half:
                comps[i] -= half
        for i in range(2):
            if reverse[i]:
                comps[i] = half - 1 - comps[i]
        if sum(exchange) == 2:
            comps[0], comps[1] = comps[1], comps[0]
        return comps[1], comps[0]

    checked = 0
    for m in range(1, 5):
        quadrants_seen = set()
        for x in range(2**m):
            for y in range(2**m):
                q = vec_to_scalar(((x >> (m - 1)) & 1, (y >> (m - 1)) & 1))
                quadrants_seen.add(q)
                assert table3_update(q, x, y, m) == stepwise(q, x, y, m)
                checked += 1
        assert quadrants_seen == {0, 1, 2, 3}
    assert checked == sum(4**m for m in range(1, 5))
    announce(3, f"combined update equals stepwise update on {checked} states")


def test_criterion_04_round_trips():
    checked = 0
    for n, m in SMALL_RANGE + DEEP_RANGE:
        params = CurveParams(n, m)
        table = TABLES[n]
        for point in grid(n, m):
            idx, _ = encode_bits(point, params, table)
            back, _ = decode_bits(idx, params, table)
            assert back == point
            checked += 1
        for z in range(2 ** (n * m)):
            point, _ = decode_bits(integer_to_index(z, params), params, table)
            idx, _ = encode_bits(point, params, table)
            assert index_to_integer(idx) == z
            checked += 1
    announce(4, f"both round trips exact over {checked} cases")


def test_criterion_05_adjacency():
    checked = 0
    for n, m in SMALL_RANGE + DEEP_RANGE:
        params = CurveParams(n, m)
        table = TABLES[n]
        prev, _ = decode_bits(integer_to_index(0, params), params, table)
        for z in range(1, 2 ** (n * m)):
            point, _ = decode_bits(integer_to_index(z, params), params, table)
            assert sum(abs(a - b) for a, b in zip(prev, point)) == 1
            prev = point
            checked += 1
    announce(5, f"Manhattan distance exactly 1 across {checked} consecutive pairs")


def test_criterion_06_four_way_equivalence():
    for n, m in SMALL_RANGE:
        params = CurveParams(n, m)
        table = TABLES[n]
        for point in grid(n, m):
            encoded = [encoder(point, params, table)[0] for encoder in ENCODERS]
            assert encoded[0] == encoded[1] == encoded[2] == encoded[3]
            assert curve_keys(params, point[::-1]) == [index_to_integer(encoded[0])]
        for z in range(2 ** (n * m)):
            idx = integer_to_index(z, params)
            decoded = [decoder(idx, params, table)[0] for decoder in DECODERS]
            assert decoded[0] == decoded[1] == decoded[2] == decoded[3]
            assert curve_points(params, idx.digits, 1) == decoded[0][::-1]
    rng = random.Random(0xC0FFEE)
    params = CurveParams(3, 64)
    table = TABLES[3]
    for _ in range(1000):
        point = tuple(rng.randrange(2**64) for _ in range(3))
        encoded = [encoder(point, params, table)[0] for encoder in ENCODERS]
        assert encoded[0] == encoded[1] == encoded[2] == encoded[3]
        idx = integer_to_index(rng.randrange(2**192), params)
        decoded = [decoder(idx, params, table)[0] for decoder in DECODERS]
        assert decoded[0] == decoded[1] == decoded[2] == decoded[3]
    announce(6, "all four encoders, all four decoders and the production codecs agree pointwise")


def test_criterion_07_oracle_equivalence():
    checked = 0
    for n in (2, 3):
        for m in (1, 2, 3):
            params = CurveParams(n, m)
            walk = enumerate_recursive(params, TABLES[n])
            for z, point in enumerate(walk):
                decoded, _ = decode_arith(integer_to_index(z, params), params, TABLES[n])
                assert decoded == point
                checked += 1
    announce(7, f"recursive enumeration matches the decoder at {checked} indices")


def test_criterion_08_nesting():
    checked = 0
    for n in (2, 3, 4):
        for m in (2, 3):
            fine = CurveParams(n, m)
            coarse = CurveParams(n, m - 1)
            table = TABLES[n]
            for point in grid(n, m):
                full, _ = encode_bits(point, fine, table)
                halved, _ = encode_bits(tuple(c // 2 for c in point), coarse, table)
                assert full.digits[:-1] == halved.digits
                checked += 1
    announce(8, f"low-digit drop equals halved-point encode on {checked} points")


def test_criterion_09_counter_scaling():
    point = (1, 1, 1)
    levels = (8, 32, 128, 256)
    table = TABLES[3]
    linear = {}
    reduced = {}
    for m in levels:
        params = CurveParams(3, m)
        for encoder in (encode_arith, encode_bits):
            _, counter = encoder(point, params, table)
            assert counter.iterations == m
        for encoder in (encode_arith_fast, encode_bits_fast):
            _, counter = encoder(point, params, table)
            assert counter.iterations == 1
    # Informational timing only: medians at the deepest level.
    params = CurveParams(3, 256)
    for label, encoder, sink in (
        ("O(m)", encode_bits, linear),
        ("O(k)", encode_bits_fast, reduced),
    ):
        times = []
        for _ in range(21):
            start = time.perf_counter()
            encoder(point, params, table)
            times.append(time.perf_counter() - start)
        sink["median"] = sorted(times)[len(times) // 2]
    print(
        f"ACCEPTANCE 9 info: m=256 medians O(m)={linear['median']:.3e}s "
        f"O(k)={reduced['median']:.3e}s (informational, not asserted)",
        file=sys.stderr,
    )
    announce(9, "counters are {8,32,128,256} for O(m) and {1,1,1,1} for O(k)")


def test_criterion_10_worked_fixtures():
    params = CurveParams(2, 2)
    table = TABLES[2]
    fixtures = [((1, 1), 2), ((3, 0), 15), ((2, 1), 13)]
    for display, z in fixtures:
        point = tuple(reversed(display))
        for encoder in ENCODERS:
            idx, _ = encoder(point, params, table)
            assert index_to_integer(idx) == z
        for decoder in DECODERS:
            decoded, _ = decoder(integer_to_index(z, params), params, table)
            assert decoded == point
    for encoder in (encode_arith, encode_arith_fast):
        idx, _ = encoder((1, 0), params, table)  # display (0, 1)
        assert index_to_integer(idx) == 3
    announce(10, "level-2 fixtures and the (0,1)->3 path hold for every algorithm")


def test_criterion_11_property_suite():
    for n in range(1, 11):
        previous = None
        for j in range(2**n):
            vec = vec_of_scalar(j, n)
            # per-entry recurrence form agrees with the xor-shift form
            bits = [(j >> (n - 1 - i)) & 1 for i in range(n)]
            recur = [bits[0]]
            for i in range(1, n):
                recur.append(bits[i] if bits[i - 1] == 0 else 1 - bits[i])
            assert vec == tuple(recur)
            assert vec_to_scalar(vec) == j
            if previous is not None:
                assert sum(a ^ b for a, b in zip(previous, vec)) == 1
            previous = vec
    for k in range(0, 13):
        for j in range(2**k):
            assert reflect(reflect(j, k), k) == j
    assert validate_gene_table(TABLES[4]).passed
    announce(11, "scalar-map, reflection and gene-table properties all hold")
