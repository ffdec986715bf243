import contextlib
import dataclasses
import gc
import io
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hilbertorder import cli, curve, decode, gene, oracle, pointio
from hilbertorder.cli import main
from hilbertorder.core_bits import HilbertIndex, index_to_integer, integer_to_index
from hilbertorder.curve import (
    CurveParams, curve_keys, integer_digits, unchecked_keys, unchecked_points,
)
from hilbertorder.decode import decode_arith, decode_arith_fast, decode_bits, decode_bits_fast
from hilbertorder.encode import ENCODERS, encode_arith, encode_bits
from hilbertorder.errors import DomainError
from hilbertorder.gene import GeneTable, gene_table, validate_gene_table

from conftest import reference_table

DIGIT_CAP = 4300  # CPython's default int_max_str_digits


@pytest.fixture
def digit_cap():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no cap on decimal digits")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_CAP)
    yield DIGIT_CAP
    sys.set_int_max_str_digits(saved)


HUGE_LEVEL = str(10**12)
HUGE_LEVEL_ERROR = (f"error: level {HUGE_LEVEL} is above 14284: coordinates below "
                    f"2**{HUGE_LEVEL} can exceed the 4300-digit limit of "
                    "sys.get_int_max_str_digits()\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_point_file(path, n, rows, binary):
    """Write ``rows``, each written ``x_n .. x_1``, as a binary or text point file."""
    flat = [c for row in rows for c in row]
    if binary:
        header = pointio.POINT_MAGIC + struct.pack("<BHQ", 1, n, len(rows))
        path.write_bytes(header + struct.pack(f"<{len(flat)}Q", *flat))
    else:
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))


# The paper's four encoders and four decoders, numbered 1..4 in the order
# arithmetic, bit-operation, arithmetic fast, bit-operation fast.
VARIANTS = ("1", "2", "3", "4")
VARIANT_ENCODERS = dict(zip(VARIANTS, (encoder for _, encoder in ENCODERS)))
VARIANT_DECODERS = dict(zip(VARIANTS, (decode_arith, decode_bits,
                                       decode_arith_fast, decode_bits_fast)))


def variant_encode(variant, display, n, m):
    """Encode a point written as the CLI writes it, last coordinate first."""
    params = CurveParams(n, m)
    idx, _ = VARIANT_ENCODERS[variant](tuple(reversed(display)), params, gene_table(n))
    return index_to_integer(idx)


def variant_decode(variant, z, n, m):
    """Decode ``z`` and return the point as the CLI writes it, last coordinate first."""
    params = CurveParams(n, m)
    point, _ = VARIANT_DECODERS[variant](integer_to_index(z, params), params, gene_table(n))
    return tuple(reversed(point))


class TestEncodeCommand:
    def test_refuses_a_huge_level_as_decode_does(self, capsys, tmp_path, digit_cap):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        for args in (["1", "2", "3"], ["--input", str(empty)]):
            code, out, err = run(capsys, "encode", "-n", "3", "-m", HUGE_LEVEL, *args)
            assert (code, out, err) == (2, "", HUGE_LEVEL_ERROR)

    def test_refuses_a_dimension_whose_digits_can_exceed_the_digit_cap(
        self, capsys, tmp_path, digit_cap
    ):
        # A digits: digit has n bits: 2**14284 - 1 has 4300 decimal digits,
        # 2**14285 - 1 has 4301.  The check comes before the input is read.
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, "encode", "-n", "14285", "-m", "1", "--input", missing)
        assert (code, out, err) == (2, "", "error: dimension 14285 is above 14284: digits below "
                                    "2**14285 can exceed the 4300-digit limit of "
                                    "sys.get_int_max_str_digits()\n")
        code, out, err = run(capsys, "encode", "-n", "14284", "-m", "1", "--input", missing)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_takes_the_point_from_arguments_or_a_file_not_both(self, capsys, tmp_path):
        points = tmp_path / "points.txt"
        points.write_text("1 1\n")
        for args in (["--input", str(points), "1", "1"], []):
            code, out, err = run(capsys, "encode", "-n", "2", "-m", "2", *args)
            assert (code, out, err) == (
                2, "", "error: give exactly one point as arguments or use --input\n")

    @pytest.mark.parametrize("argv, step", [
        (["encode", "-n", "3", "-m", "40", "1", "2", "3"], "format_indices"),
        (["encode", "-n", "2", "-m", "2", "1", "1"], "curve_keys"),
        (["decode", "-n", "2", "-m", "2", "5"], "unchecked_points"),
        (["sort", "-n", "2", "-m", "2", "{source}", "{target}"], "unchecked_keys"),
    ], ids=["printer", "encode", "decode", "sort"])
    def test_out_of_memory_is_one_error_line(self, capsys, tmp_path, monkeypatch, argv, step):
        # A huge level with no digit cap, or a batch too large for memory.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, step, exhausted)
        source = tmp_path / "points.txt"
        source.write_text("1 1\n")
        argv = [a.format(source=source, target=tmp_path / "sorted.txt") for a in argv]
        assert run(capsys, *argv) == (2, "", "error: out of memory\n")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_single_point(self, capsys, variant):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "2", "1", "1")
        assert code == 0
        assert out == "2\n"
        assert out == f"{variant_encode(variant, (1, 1), 2, 2)}\n"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_algorithms_agree(self, capsys, variant):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "2", "3", "0")
        assert code == 0
        assert out == "15\n"
        assert out == f"{variant_encode(variant, (3, 0), 2, 2)}\n"

    def test_five_dim_origin(self, capsys):
        code, out, _ = run(capsys, "encode", "--dim", "5", "--level", "1",
                           "0", "0", "0", "0", "0")
        assert code == 0
        assert out == "0\n"

    def test_digit_form_added_on_request(self, capsys):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "2",
                           "--digits", "3", "0")
        assert code == 0
        assert out == "15 digits:3.3\n"

    def test_digit_form_output_is_no_index_file(self, capsys, tmp_path):
        # While n * m <= 64 a --digits line holds two tokens and decode takes
        # one a line: decode refuses the file, and each token decodes alone.
        source, indices = tmp_path / "points.txt", tmp_path / "indices.txt"
        source.write_text("1 2 3\n")
        code, out, _ = run(capsys, "encode", "-n", "3", "-m", "4", "--digits",
                           "--input", str(source))
        assert (code, out) == (0, "18 digits:0.0.2.2\n")
        indices.write_text(out)
        assert run(capsys, "decode", "-n", "3", "-m", "4", "--input", str(indices)) == (
            2, "", f"error: {indices}: line 1: bad index value '18 digits:0.0.2.2': "
                   "not a decimal integer (digits 0-9 only)\n")
        for token in out.split():
            assert run(capsys, "decode", "-n", "3", "-m", "4", token) == (0, "1 2 3\n", "")

    def test_level_zero_digit_form_is_empty(self, capsys):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "0", "--digits", "0", "0")
        assert (code, out) == (0, "0 digits:\n")

    def test_digits_above_the_table_cap(self, capsys):
        # 2**13 digit values fit no digit table: each digit is printed alone.
        display = (63, *range(12))
        code, out, _ = run(capsys, "encode", "--dim", "13", "--level", "6", *map(str, display))
        params = CurveParams(13, 6)
        digits = integer_digits(variant_encode("1", display, 13, 6), params)
        assert (code, out) == (0, "digits:" + ".".join(map(str, digits)) + "\n")

    def test_wide_indices_print_as_digits(self, capsys):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "40", "0", "1")
        assert code == 0
        assert out.startswith("digits:")
        assert out.count(".") == 39

    def test_wide_digit_round_trip(self, capsys):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "40",
                           "977", "131071")
        assert code == 0
        token = out.strip()
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "40", token)
        assert code == 0
        assert out == "977 131071\n"

    def test_input_file(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text("# corner walk\n1 0\n0 0\n1,1\n0 1\n")
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "1",
                           "--input", str(source))
        assert code == 0
        assert out.splitlines() == ["3", "0", "2", "1"]

    def test_binary_input_file(self, capsys, tmp_path):
        source = tmp_path / "points.bin"
        display = [(1, 0), (0, 0), (1, 1), (0, 1)]
        write_point_file(source, 2, display, binary=True)
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "1",
                           "--input", str(source))
        assert code == 0
        assert out.splitlines() == ["3", "0", "2", "1"]

    def test_empty_binary_input_prints_nothing(self, capsys, tmp_path):
        source = tmp_path / "points.bin"
        write_point_file(source, 3, [], binary=True)
        for level, digits in (("2", []), ("2", ["--digits"]), ("40", [])):
            code, out, err = run(capsys, "encode", "--dim", "3", "--level", level,
                                 "--input", str(source), *digits)
            assert (code, out, err) == (0, "", "")

    def test_binary_input_dimension_mismatch(self, capsys, tmp_path):
        source = tmp_path / "points.bin"
        write_point_file(source, 3, [(0, 0, 0)], binary=True)
        code, _, err = run(capsys, "encode", "--dim", "2", "--level", "1",
                           "--input", str(source))
        assert code == 2
        assert "3-dimensional" in err

    def test_component_out_of_range(self, capsys):
        code, _, err = run(capsys, "encode", "--dim", "2", "--level", "2", "4", "0")
        assert code == 2
        assert "error:" in err

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, "encode", "--dim", "1", "--level", "2", "0")
        assert code == 2
        assert "dimension" in err

    def test_wrong_component_count(self, capsys):
        code, _, err = run(capsys, "encode", "--dim", "3", "--level", "2", "1", "1")
        assert code == 2
        assert "expected 3 components" in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), m=st.integers(0, 40), digits=st.booleans())
    def test_input_file_matches_reference(self, tmp_path_factory, data, n, m, digits):
        # Points below 2**k for k <= m, so the top digits are often zero;
        # the origin and the far corner, when drawn, mix the widest k in.
        k = data.draw(st.integers(0, m))
        component = st.integers(0, (1 << k) - 1)
        points = data.draw(st.lists(st.tuples(*[component] * n), min_size=1, max_size=20))
        points += data.draw(st.sets(st.sampled_from([(0,) * n, ((1 << m) - 1,) * n])))
        points = data.draw(st.permutations(points))
        path = tmp_path_factory.mktemp("encode") / "points.txt"
        path.write_text("".join(" ".join(map(str, p[::-1])) + "\n" for p in points))
        argv = ["encode", "--dim", str(n), "--level", str(m), "--input", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--digits"] * digits) == 0
        params, table = CurveParams(n, m), gene_table(n)
        expected = []
        for p in points:
            idx, _ = encode_arith(p, params, table)
            parts = [str(index_to_integer(idx))] if n * m <= 64 else []
            if digits or n * m > 64:
                parts.append("digits:" + ".".join(map(str, idx.digits)))
            expected.append(" ".join(parts))
        assert out.getvalue().splitlines() == expected


# Bit lengths of the largest component of a point file: each side of a
# byte, of every field width, and of the 64-bit HPTS component.
FILE_BITS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64]


class TestPointFileInput:
    """encode --input of HPTS files, whose payload reaches the kernel as it
    is, against encode_arith, against the same points in a text file, and
    with a component out of range."""

    @staticmethod
    def encode_both(capsys, tmp_path, rows, n, m):
        """encode --input of ``rows`` (each written x_n .. x_1) as a binary
        and as a text file: both results."""
        results = []
        for binary in (True, False):
            path = tmp_path / ("points.bin" if binary else "points.txt")
            write_point_file(path, n, rows, binary)
            results.append(run(capsys, "encode", "-n", str(n), "-m", str(m), "--input", str(path)))
        return results

    @pytest.mark.parametrize("count", [0, 1, 257])
    @pytest.mark.parametrize("bits", FILE_BITS)
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 64, 65, 100])
    def test_equals_encode_arith(self, capsys, tmp_path, n, bits, count):
        # The records repeat a few points, so the reference runs once per
        # point; one holds the origin and one a component of exactly `bits`.
        m = 64
        rng = random.Random(n * 1000 + bits)
        pool = [(0,) * n] + [tuple(rng.getrandbits(rng.choice((1, bits // 2, bits)))
                                   for _ in range(n)) for _ in range(4)]
        pool[1] = pool[1][:-1] + (2**bits - 1,)
        points = [pool[1]] * min(count, 1) + [rng.choice(pool) for _ in range(count - 1)]
        params, table = CurveParams(n, m), reference_table(n)
        keys = {p: index_to_integer(encode_arith(p, params, table)[0]) for p in set(points)}
        binary, text = self.encode_both(capsys, tmp_path, [p[::-1] for p in points], n, m)
        expected = "".join(reference_line(keys[p], params, False) + "\n" for p in points)
        assert binary == text == (0, expected, "")

    @pytest.mark.parametrize("count", [1, 257])
    @pytest.mark.parametrize("n", [2, 9, 65])
    def test_all_zero_records(self, capsys, tmp_path, n, count):
        for m in (0, 1, 64):
            binary, text = self.encode_both(capsys, tmp_path, [(0,) * n] * count, n, m)
            line = reference_line(0, CurveParams(n, m), False)
            assert binary == text == (0, (line + "\n") * count, "")

    @pytest.mark.parametrize("bits", FILE_BITS)
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 64, 65, 100])
    def test_a_component_out_of_range_names_its_record(self, capsys, tmp_path, n, bits):
        # Level bits - 1 leaves every component of `bits` bits out of range;
        # the first record holding one is named, and in it the first such
        # component from x_1.
        m = bits - 1
        rng = random.Random(n * 1000 + bits)
        rows = [[rng.getrandbits(m) for _ in range(n)] for _ in range(20)]
        first = rng.randrange(19)
        for j in (first, rng.randrange(first + 1, 20)):
            for i in rng.sample(range(n), 2):
                rows[j][i] = 2**m + rng.getrandbits(m)
        path = tmp_path / "points.bin"
        write_point_file(path, n, rows, True)
        code, out, err = run(capsys, "encode", "-n", str(n), "-m", str(m), "--input", str(path))
        component = next(i for i, c in enumerate(rows[first][::-1]) if c >> m)
        value = rows[first][::-1][component]
        assert (code, out, err) == (2, "", f"error: {path}: record {first}: component "
                                    f"{component + 1} out of range for level {m}: {value}\n")


def reference_line(z, params, force_digits):
    """The output line of an index, one ``str`` per digit."""
    wide = params.n * params.m > 64
    parts = [] if wide else [str(z)]
    if force_digits or wide:
        parts.append("digits:" + ".".join(map(str, integer_digits(z, params))))
    return " ".join(parts)


def digits_per_lookup(n):
    """Digits one digit-table string holds at dimension n; 0 where no table fits."""
    return max((count for count in range(1, 13) if 2 ** (n * count) <= 4096), default=0)


def reference_text(keys, params, force_digits):
    """What ``encode`` prints for ``keys``: one reference line each."""
    return "".join(reference_line(z, params, force_digits) + "\n" for z in keys)


class TestIndexFormatter:
    @pytest.mark.parametrize("force_digits", [False, True])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_the_reference(self, n, force_digits):
        rng = random.Random(n)
        per = digits_per_lookup(n)
        for m in {0, 1, per - 1, per, per + 1, 40} - {-1}:
            params = CurveParams(n, m)
            top = 2 ** (n * m) - 1
            keys = [0, min(1, top), top, *(rng.randint(0, top) for _ in range(20))]
            for batch in [keys, *([z] for z in keys)]:
                expected = reference_text(batch, params, force_digits)
                assert pointio.format_indices(batch, params, force_digits) == expected, (m, batch)

    @pytest.mark.parametrize("force_digits", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 13, 14])
    def test_batch_shapes(self, n, force_digits):
        # n = 12 holds the last table (L = 1); from n = 13 no table fits.
        rng = random.Random(100 + n)
        per = max(digits_per_lookup(n), 1)
        for m in {3 * per + 2, 64 // n + 1}:  # the second prints digits only
            params = CurveParams(n, m)
            top = 2 ** (n * m) - 1
            assert pointio.format_indices([], params, force_digits) == ""
            batches = [[0], [0, 0, 0], [0, top], [top, 0], [0, 1, 0]]
            # Keys below 2**(n * k) for every k, most not a multiple of L.
            batches += [[rng.getrandbits(n * k) for _ in range(6)] + [2 ** (n * k) - 1] * (k > 0)
                        for k in range(m + 1)]
            for batch in batches:
                expected = reference_text(batch, params, force_digits)
                assert pointio.format_indices(batch, params, force_digits) == expected, (m, batch)

    @pytest.mark.parametrize("force_digits", [False, True])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_out_of_range_raises_as_integer_digits(self, n, force_digits):
        for m in (0, 1, 5, 40):
            params = CurveParams(n, m)
            top = 2 ** (n * m)
            for z in (-1, top):
                with pytest.raises(DomainError) as split:
                    integer_digits(z, params)
                # The first bad key in batch order is named, wherever it sits.
                for batch in ([z], [0, z], [top - 1, z, 0, -2 - z, top + 1]):
                    with pytest.raises(DomainError, match=f"^{re.escape(str(split.value))}$"):
                        pointio.format_indices(batch, params, force_digits)

    def test_digit_tables_hold_at_most_4096_strings(self, monkeypatch):
        built = []
        build = pointio._digit_strings

        def record(n, count):
            built.append((n, build(n, count)))
            return built[-1][1]

        monkeypatch.setattr(pointio, "_digit_strings", record)
        for n in range(2, 21):
            for m in (1, 2, 7, 40):
                for k in range(m + 1):
                    pointio.format_indices([0, 2 ** (n * k) - 1], CurveParams(n, m), True)
        assert {n for n, _ in built} == set(range(2, 13))
        assert max(len(strings) for _, strings in built) <= 4096

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_set_up_is_small(self, n):
        pointio._digit_strings.cache_clear()
        tracemalloc.start()
        try:
            pointio.format_indices([2 ** (n * 40) - 1], CurveParams(n, 40), True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


NOT_A_DIGIT = "bad index digit {!r}: not a decimal integer (digits 0-9 only)"
TOO_LONG = (f"bad index {{}}: {DIGIT_CAP + 1} digits is too long, the limit is {DIGIT_CAP} "
            "(sys.get_int_max_str_digits())")
# Malformed index tokens at m = 3, and the message parse_index gives each;
# either may be a function of n.  The over-long cases need the digit_cap fixture.
BAD_INDEX_TOKENS = {
    "sign": ("digits:+1.0.0", NOT_A_DIGIT.format("+1")),
    "space": ("digits: 1.0.0", NOT_A_DIGIT.format(" 1")),
    "non-ascii-digit": ("digits:\u0661.0.0", NOT_A_DIGIT.format("\u0661")),
    "trailing-letter": ("digits:1.0.0x", NOT_A_DIGIT.format("0x")),
    "empty-digit": ("digits:1..0", NOT_A_DIGIT.format("")),
    "over-long-digit": ("digits:" + "1" * (DIGIT_CAP + 1) + ".0.0", TOO_LONG.format("digit")),
    "too-few-digits": ("digits:1.0", "index has 2 digits, curve level is 3"),
    "too-many-digits": ("digits:1.0.0.0", "index has 4 digits, curve level is 3"),
    "no-digits": ("digits:", "index has 0 digits, curve level is 3"),
    "digit-of-radix": (lambda n: f"digits:0.{2**n}.0",
                       lambda n: f"digit 2 out of range for dimension {n}: {2**n}"),
    "count-before-range": (lambda n: f"digits:{2**n}.0", "index has 2 digits, curve level is 3"),
    "decimal-key-of-radix-power": (
        lambda n: str(2 ** (3 * n)),
        lambda n: f"index {2 ** (3 * n)} out of range for dimension {n}, level 3"),
    "decimal-sign": ("+1", "bad index value '+1': not a decimal integer (digits 0-9 only)"),
    "over-long-decimal": ("1" * (DIGIT_CAP + 1), TOO_LONG.format("value")),
}


class TestParseIndex:
    @pytest.mark.parametrize("n", [2, 8, 12, 13])  # the block reader's digit table stops at n = 12
    def test_matches_int_per_digit(self, n):
        rng = random.Random(n)
        params = CurveParams(n, 40)
        for _ in range(20):
            digits = [rng.randrange(2**n) for _ in range(40)]
            token = pointio.DIGIT_PREFIX + ".".join(map(str, digits))
            assert pointio.parse_index(token, params) == digits
        top = 2**n - 1
        assert pointio.parse_index(f"{pointio.DIGIT_PREFIX}{top}.0.{top}", CurveParams(n, 3)) == [
            top, 0, top]
        if n >= 3:  # leading zeros read as the digit
            assert pointio.parse_index(f"{pointio.DIGIT_PREFIX}007.000.1", CurveParams(n, 3)) == [
                7, 0, 1]

    @pytest.mark.parametrize("kind", sorted(BAD_INDEX_TOKENS))
    @pytest.mark.parametrize("n", [2, 3, 8, 12, 13])
    def test_pins_the_message(self, request, n, kind):
        if kind.startswith("over-long"):
            request.getfixturevalue("digit_cap")
        token, message = (x(n) if callable(x) else x for x in BAD_INDEX_TOKENS[kind])
        with pytest.raises(DomainError) as caught:
            pointio.parse_index(token, CurveParams(n, 3))
        assert str(caught.value) == message

    def test_leading_zeros_decode_as_the_digit(self, capsys):
        code, out, err = run(capsys, "decode", "--dim", "8", "--level", "2",
                             "digits:007.000", "digits:7.0")
        assert (code, err) == (0, "")
        first, second = out.splitlines()
        assert first == second


class TestFormatPoints:
    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_same_text_as_a_line_per_point(self, n):
        rng = random.Random(n)
        points = [tuple(rng.randrange(2 ** rng.randrange(1, 200)) for _ in range(n))
                  for _ in range(50)] + [(0,) * n]
        expected = "".join(" ".join(map(str, reversed(p))) + "\n" for p in points)
        assert pointio.format_flat(tuple(c for p in points for c in p[::-1]), n) == expected
        assert pointio.format_flat((), n) == ""


class TestDecodeCommand:
    def test_level_two_fixture(self, capsys):
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "2", "13")
        assert code == 0
        assert out == "2 1\n"

    def test_level_one_cell(self, capsys):
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "1", "2")
        assert code == 0
        assert out == "1 1\n"

    def test_origin(self, capsys):
        code, out, _ = run(capsys, "decode", "--dim", "3", "--level", "4", "0")
        assert code == 0
        assert out == "0 0 0\n"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_algorithms_agree(self, capsys, variant):
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "2", "15")
        assert code == 0
        assert out == "3 0\n"
        assert out == " ".join(map(str, variant_decode(variant, 15, 2, 2))) + "\n"

    def test_digit_form_token(self, capsys):
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "2", "digits:3.1")
        assert code == 0
        assert out == "2 1\n"

    def test_input_file(self, capsys, tmp_path):
        source = tmp_path / "indices.txt"
        source.write_text("# fixtures\n2\n15\n13\n")
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "2",
                           "--input", str(source))
        assert code == 0
        assert out.splitlines() == ["1 1", "3 0", "2 1"]

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "decode", "--dim", "2", "--level", "2", "16")
        assert code == 2
        assert "error:" in err

    def test_index_out_of_range_message(self, capsys, tmp_path):
        source = tmp_path / "indices.txt"
        source.write_text("15\n16\n")
        message = "index 16 out of range for dimension 2, level 2"
        code, out, err = run(capsys, "decode", "--dim", "2", "--level", "2", "16")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, "decode", "-n", "2", "-m", "2", "--input", str(source))
        assert (code, out, err) == (2, "", f"error: {source}: line 2: {message}\n")

    def test_garbage_token(self, capsys):
        code, _, err = run(capsys, "decode", "--dim", "2", "--level", "2", "pony")
        assert code == 2
        assert "bad index" in err

    def test_builds_no_gene_table(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("decode must not build a gene table")

        monkeypatch.setattr(gene, "gene_table", refuse)
        code, out, _ = run(capsys, "decode", "-n", "16", "-m", "8", "5")
        assert code == 0
        assert out == "1 0 0 0 0 0 0 0 0 0 0 0 0 1 1 0\n"  # as when it built one

    @pytest.mark.parametrize("n", [21, 64, 1024])
    def test_takes_a_dimension_above_the_gene_table_cap(self, capsys, n):
        # decode and encode build no gene table, so its cap is no limit.
        params = CurveParams(n, 2)
        z = (1 << (2 * n)) // 3
        point, _ = decode_arith(integer_to_index(z, params), params, reference_table(n))
        code, out, err = run(capsys, "decode", "-n", str(n), "-m", "2", str(z))
        assert (code, out, err) == (0, " ".join(map(str, reversed(point))) + "\n", "")
        code, out, err = run(capsys, "encode", "-n", str(n), "-m", "2", *out.split())
        digits = "digits:" + ".".join(map(str, integer_digits(z, params)))
        token = f"{z}" if 2 * n <= 64 else digits
        assert (code, out, err) == (0, token + "\n", "")

    @pytest.mark.parametrize("rows, line, message", [
        ("digits:1.2.3\npony\n", 1, "index has 3 digits, curve level is 2"),
        ("digits:1.0\ndigits:4.0\npony\n", 2, "digit 2 out of range for dimension 2: 4"),
        ("digits:1.0\n\n# c\npony\ndigits:4.0\n", 4, "bad index value 'pony'"),
        ("3\n\ndigits:1\n99\n", 3, "index has 1 digits, curve level is 2"),
    ])
    def test_names_the_first_bad_row_in_file_order(self, capsys, tmp_path, rows, line, message):
        path = tmp_path / "indices.txt"
        path.write_text(rows)
        code, out, err = run(capsys, "decode", "-n", "2", "-m", "2", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: line {line}: {message}")

    def test_checks_a_good_file_once_not_per_row(self, capsys, tmp_path, monkeypatch):
        def per_row(digits, params):
            raise AssertionError("a good file needs no per-row check")

        monkeypatch.setattr(pointio, "check_index", per_row)
        path = tmp_path / "indices.txt"
        path.write_text("13\ndigits:3.1\n# c\n0\n")
        code, out, _ = run(capsys, "decode", "-n", "2", "-m", "2", "--input", str(path))
        assert (code, out) == (0, "2 1\n2 1\n0 0\n")

    def test_level_beyond_printable_coordinates(self, capsys, digit_cap):
        # 2**14284 - 1 has 4300 decimal digits, 2**14285 - 1 has 4301.
        for level, expected in ((14284, 0), (14285, 2)):
            token = "digits:" + ".".join(["3"] + ["0"] * (level - 1))
            code, out, err = run(capsys, "decode", "--dim", "2", "--level", str(level), token)
            assert code == expected
        assert "level 14285 is above 14284" in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), m=st.integers(0, 40))
    def test_input_file_matches_reference(self, tmp_path_factory, data, n, m):
        # Indices below 2**(n * k) for k <= m, so the top digits are often
        # zero; each is written in decimal or as a digits: token, may follow
        # a comment or blank line, and ends at "\n" or "\r\n".  A file of
        # digits: tokens, comments and "\r\n" is the block reader's; any other
        # is the row loop's.
        k = data.draw(st.integers(0, m))
        indices = data.draw(st.lists(st.integers(0, (1 << (n * k)) - 1), min_size=1, max_size=4))
        params = CurveParams(n, m)
        lines = []
        for z in indices:
            lines += data.draw(st.sampled_from([[], [], ["# c"], [" \t# c"], [""]]))
            if data.draw(st.booleans()):
                lines.append("digits:" + ".".join(map(str, integer_to_index(z, params).digits)))
            else:
                lines.append(str(z))
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                                  min_size=len(lines), max_size=len(lines)))
        path = tmp_path_factory.mktemp("decode") / "indices.txt"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decode", "--dim", str(n), "--level", str(m), "--input", str(path)]) == 0
        table = gene_table(n)
        points = [decode_arith(integer_to_index(z, params), params, table)[0] for z in indices]
        expected = [" ".join(map(str, reversed(point))) for point in points]
        assert out.getvalue().splitlines() == expected


NOT_DECIMAL = "bad index digit {!r}: not a decimal integer (digits 0-9 only)"
# Malformed digits: tokens, the level they are read at (n = 2), and the
# message the strict per-digit parser gives them.
BAD_DIGIT_TOKENS = {
    "empty-digit": ("digits:1..2", 3, NOT_DECIMAL.format("")),
    "leading-dot": ("digits:.1", 2, NOT_DECIMAL.format("")),
    "trailing-dot": ("digits:1.", 2, NOT_DECIMAL.format("")),
    "digit-too-large": ("digits:4.0", 2, "digit 2 out of range for dimension 2: 4"),
    "too-many-digits": ("digits:1.2.3", 2, "index has 3 digits, curve level is 2"),
    "no-digits": ("digits:", 2, "index has 0 digits, curve level is 2"),
    "plus-sign": ("digits:+1.0", 2, NOT_DECIMAL.format("+1")),
    "non-ascii-digit": ("digits:\u0661.0", 2, NOT_DECIMAL.format("\u0661")),
    "over-long-digit": (
        "digits:" + "1" * (DIGIT_CAP + 1) + ".0", 2,
        f"bad index digit: {DIGIT_CAP + 1} digits is too long, the limit is {DIGIT_CAP} "
        "(sys.get_int_max_str_digits())",
    ),
}


class TestDigitTokenMessages:
    """A malformed digits: token gets the strict parser's message, as argument and as row."""

    @pytest.mark.parametrize("kind", sorted(BAD_DIGIT_TOKENS))
    @pytest.mark.parametrize("as_row", [False, True], ids=["argument", "row"])
    def test_same_message_as_the_strict_parser(self, capsys, tmp_path, request, kind, as_row):
        if kind == "over-long-digit":
            request.getfixturevalue("digit_cap")
        token, level, expected = BAD_DIGIT_TOKENS[kind]
        argv = ["decode", "--dim", "2", "--level", str(level)]
        if as_row:
            path = tmp_path / "indices.txt"
            path.write_text(f"0\n{token}\n", encoding="utf-8")
            argv += ["--input", str(path)]
            expected = f"{path}: line 2: {expected}"
        code, out, err = run(capsys, *argv, *([] if as_row else [token]))
        assert code == 2
        assert out == ""
        assert err == f"error: {expected}\n"


# Characters str.splitlines() breaks lines at that are whitespace within a row here.
LINE_BREAKS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ROW_COMMANDS = {
    "encode": (["encode", "--dim", "2", "--level", "4", "--input"], "1 1", "2 x", "1 1{}2 2"),
    "decode": (["decode", "--dim", "2", "--level", "4", "--input"], "1", "x", "1{}2"),
}


class TestLineEnds:
    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"{ord(c):#x}" for c in LINE_BREAKS])
    def test_bad_row_named_by_its_physical_line(self, capsys, tmp_path, command, brk):
        argv, good, bad, _ = ROW_COMMANDS[command]
        path = tmp_path / "rows.txt"
        path.write_text(f"{good}{brk}\n{bad}\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: line 2: ")

    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"{ord(c):#x}" for c in LINE_BREAKS])
    def test_one_value_per_line(self, capsys, tmp_path, command, brk):
        argv, _, _, two = ROW_COMMANDS[command]
        path = tmp_path / "rows.txt"
        path.write_text(two.format(brk) + "\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: line 1: ")

    @pytest.mark.parametrize("command", sorted(ROW_COMMANDS))
    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_carriage_return_ends_a_line(self, capsys, tmp_path, command, end):
        argv, good, bad, _ = ROW_COMMANDS[command]
        path = tmp_path / "rows.txt"
        path.write_text(f"{good}{end}{good}{end}", encoding="utf-8", newline="")
        code, out, _ = run(capsys, *argv, str(path))
        assert code == 0
        assert len(out.splitlines()) == 2
        path.write_text(f"{good}{end}{bad}{end}", encoding="utf-8", newline="")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: line 2: ")


# Each entry point that reads a number, as argv for one bad token.
NUMBER_ENTRY_POINTS = {
    "encode-args": lambda tok, path: ["encode", "--dim", "2", "--level", "4", "1", tok],
    "point-file": lambda tok, path: ["encode", "--dim", "2", "--level", "4", "--input", path],
    "decode-value": lambda tok, path: ["decode", "--dim", "2", "--level", "4", tok],
    "decode-digits": lambda tok, path: ["decode", "--dim", "2", "--level", "2", f"digits:1.{tok}"],
    "bench-point": lambda tok, path: ["bench", "--point", f"1,{tok}", "--levels", "2"],
    "bench-levels": lambda tok, path: ["bench", "--point", "1,1", "--levels", f"2,{tok}"],
}
BAD_TOKENS = {
    "underscore": "1_0",
    "arabic-indic": "\u0661",
    "fullwidth": "\uff11",
    "superscript": "\u00b2",
    "plus": "+1",
    "minus": "-1",
    "hex": "0x1",
    "too-long": "1" * (DIGIT_CAP + 1),
}


class TestFileErrorsNameTheirRow:
    @pytest.mark.parametrize("command,rows", [
        (["encode", "--dim", "2", "--level", "2", "--input"], "1 1\n1 9\n"),
        (["decode", "--dim", "2", "--level", "2", "--input"], "1\n99\n"),
    ], ids=["encode", "decode"])
    def test_nothing_printed_before_the_error(self, capsys, tmp_path, command, rows):
        path = tmp_path / "rows.txt"
        path.write_text(rows)
        code, out, err = run(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: line 2: ") and err.count("\n") == 1


class TestStrictDecimals:
    @pytest.mark.parametrize("entry", sorted(NUMBER_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", sorted(BAD_TOKENS))
    def test_rejected_with_one_line(self, capsys, tmp_path, digit_cap, entry, kind):
        token = BAD_TOKENS[kind]
        path = tmp_path / "points.txt"
        path.write_text(f"1 {token}\n", encoding="utf-8")
        code, out, err = run(capsys, *NUMBER_ENTRY_POINTS[entry](token, str(path)))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if kind == "too-long":
            assert "too long" in err


class TestNotUtf8:
    @pytest.mark.parametrize("command", [
        ["sort", "--dim", "2", "--level", "4", "{path}", "{out}"],
        ["encode", "--dim", "2", "--level", "4", "--input", "{path}"],
        ["decode", "--dim", "2", "--level", "4", "--input", "{path}"],
    ], ids=["sort", "encode", "decode"])
    def test_one_error_line(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1 1\n")
        argv = [a.format(path=path, out=tmp_path / "out.txt") for a in command]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text: byte 0 cannot be decoded\n"


class TestRoundTripThroughText:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_every_cell_survives_formatting(self, capsys, n, m):
        params = CurveParams(n, m)
        for z in range(2 ** (n * m)):
            code, out, _ = run(capsys, "decode", "--dim", str(n), "--level", str(m), str(z))
            assert code == 0
            coords = out.split()
            code, out, _ = run(capsys, "encode", "--dim", str(n), "--level", str(m), *coords)
            assert code == 0
            assert out.strip() == str(z)


class TestSortCommand:
    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_round_trips_a_file_above_the_gene_table_cap(self, capsys, tmp_path, binary):
        # sort, encode --input and decode --input at n = 64, past the gene
        # table's cap, against encode_arith on the closed-form stand-in.
        n = m = 64
        params = CurveParams(n, m)
        rng = random.Random(64)
        points = [tuple(rng.getrandbits(rng.choice((3, 64))) for _ in range(n)) for _ in range(20)]
        source, target, indices = tmp_path / "points", tmp_path / "sorted", tmp_path / "indices"
        write_point_file(source, n, points, binary)
        code, out, err = run(capsys, "sort", "-n", "64", "-m", "64", str(source), str(target))
        assert (code, out, err) == (0, "", "")
        table = reference_table(n)
        keys = {p: index_to_integer(encode_arith(p[::-1], params, table)[0]) for p in points}
        expected = sorted(points, key=keys.__getitem__)
        write_point_file(tmp_path / "expected", n, expected, binary)
        assert target.read_bytes() == (tmp_path / "expected").read_bytes()
        code, out, err = run(capsys, "encode", "-n", "64", "-m", "64", "--input", str(target))
        tokens = "".join("digits:" + ".".join(map(str, integer_digits(keys[p], params))) + "\n"
                         for p in expected)
        assert (code, out, err) == (0, tokens, "")
        indices.write_text(out)
        code, out, err = run(capsys, "decode", "-n", "64", "-m", "64", "--input", str(indices))
        assert (code, out, err) == (0, "".join(" ".join(map(str, p)) + "\n" for p in expected), "")

    def test_sorts_commas_at_a_huge_level_as_spaces(self, capsys, tmp_path, digit_cap):
        # The points' own digits are under the cap, so sort takes any level.
        outputs = []
        for name, text in (("commas", "1,2,3\n0,0,1\n"), ("spaces", "1 2 3\n0 0 1\n")):
            source, target = tmp_path / f"{name}.txt", tmp_path / f"{name}.out"
            source.write_text(text)
            assert run(capsys, "sort", "-n", "3", "-m", HUGE_LEVEL, str(source), str(target))[0] == 0
            outputs.append(target.read_text())
        assert outputs == ["0 0 1\n1 2 3\n"] * 2

    def test_level_one_walk_order(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text("1 0\n0 0\n1 1\n0 1\n")
        target = tmp_path / "sorted.txt"
        code, _, _ = run(capsys, "sort", "--dim", "2", "--level", "1",
                         str(source), str(target))
        assert code == 0
        assert target.read_text().splitlines() == ["0 0", "0 1", "1 1", "1 0"]

    def test_idempotent(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text("0 0\n0 1\n1 1\n1 0\n")
        target = tmp_path / "sorted.txt"
        code, _, _ = run(capsys, "sort", "--dim", "2", "--level", "1",
                         str(source), str(target))
        assert code == 0
        assert target.read_text() == source.read_text()

    def test_random_three_dim_points(self, capsys, tmp_path):
        rng = random.Random(7)
        points = [tuple(rng.randrange(16) for _ in range(3)) for _ in range(1000)]
        source = tmp_path / "cloud.txt"
        source.write_text("".join(" ".join(map(str, p)) + "\n" for p in points))
        target = tmp_path / "cloud-sorted.txt"
        code, _, _ = run(capsys, "sort", "--dim", "3", "--level", "4",
                         str(source), str(target))
        assert code == 0
        rows = [tuple(map(int, line.split())) for line in target.read_text().splitlines()]
        assert sorted(rows) == sorted(points)  # permutation of the input
        params = CurveParams(3, 4)
        table = gene_table(3)
        keys = [
            index_to_integer(encode_bits(tuple(reversed(row)), params, table)[0])
            for row in rows
        ]
        assert keys == sorted(keys)

    def test_index_wider_than_64_bits(self, capsys, tmp_path):
        rng = random.Random(11)
        points = [
            tuple(rng.randrange(2 ** rng.randrange(41)) for _ in range(3)) for _ in range(300)
        ]
        source = tmp_path / "cloud.txt"
        source.write_text("".join(" ".join(map(str, p)) + "\n" for p in points))
        target = tmp_path / "cloud-sorted.txt"
        code, _, _ = run(capsys, "sort", "--dim", "3", "--level", "40",
                         str(source), str(target))
        assert code == 0
        params = CurveParams(3, 40)
        table = gene_table(3)
        expected = sorted(
            points, key=lambda p: index_to_integer(encode_arith(p[::-1], params, table)[0])
        )
        assert target.read_text().splitlines() == [" ".join(map(str, p)) for p in expected]

    def test_binary_round_trip(self, capsys, tmp_path):
        points_display = [(1, 0), (0, 0), (1, 1), (0, 1)]
        source = tmp_path / "points.bin"
        write_point_file(source, 2, points_display, binary=True)
        target = tmp_path / "sorted.bin"
        code, _, _ = run(capsys, "sort", "--dim", "2", "--level", "1",
                         str(source), str(target))
        assert code == 0
        records, size, k, source = pointio.read_points(target, CurveParams(2, 1))
        assert (size, k) == (8, 1) and source is records
        assert struct.unpack("<8Q", records) == (0, 0, 0, 1, 1, 1, 1, 0)
        assert target.read_bytes()[:4] == pointio.POINT_MAGIC

    def test_ragged_row_names_line(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text("0 0\n1 2 3\n")
        code, _, err = run(capsys, "sort", "--dim", "2", "--level", "2",
                           str(source), str(tmp_path / "out.txt"))
        assert code == 2
        assert "line 2" in err

    def test_component_overflow_names_line(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text("0 0\n0 1\n9 0\n")
        code, _, err = run(capsys, "sort", "--dim", "2", "--level", "2",
                           str(source), str(tmp_path / "out.txt"))
        assert code == 2
        assert "line 3" in err

    def test_binary_dimension_mismatch(self, capsys, tmp_path):
        source = tmp_path / "points.bin"
        write_point_file(source, 3, [(0, 0, 0)], binary=True)
        code, _, err = run(capsys, "sort", "--dim", "2", "--level", "1",
                           str(source), str(tmp_path / "out.bin"))
        assert code == 2
        assert "3-dimensional" in err

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "sort", "--dim", "2", "--level", "1",
                           str(tmp_path / "nope.txt"), str(tmp_path / "out.txt"))
        assert code == 2
        assert "error:" in err


class TestGeneCommand:
    def test_dump_text_two_dim(self, capsys):
        code, out, _ = run(capsys, "gene", "--dim", "2", "--dump-text")
        assert code == 0
        rows = [" ".join(line.split()) for line in out.splitlines()[2:]]
        assert rows == [
            "0 (1, 1) (0, 0)",
            "1 (0, 0) (0, 0)",
            "2 (0, 0) (0, 0)",
            "3 (1, 1) (1, 1)",
        ]

    def test_summary_line_names_no_location(self, capsys):
        code, out, _ = run(capsys, "gene", "--dim", "3")
        assert code == 0
        assert out == "gene table for dimension 3: 8 quadrants\n"

    @pytest.mark.parametrize("argv", [
        ["gene", "-n", "21"],
        ["validate", "-n", "21", "--max-level", "0"],
        ["bench", "--point", ",".join(["1"] * 21), "--levels", "4"],
    ], ids=["gene", "validate", "bench"])
    def test_refuses_a_dimension_above_the_cap(self, capsys, argv):
        # The commands that build a gene table keep its cap.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: gene table for dimension 21 exceeds the cap of 20\n"


class TestValidateCommand:
    def test_three_dim_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--dim", "3", "--max-level", "3")
        assert code == 0
        assert out.splitlines() == [
            "PASS gene-closed-form",
            "PASS curve-n3-m1 (8 points)",
            "PASS curve-n3-m2 (64 points)",
            "PASS curve-n3-m3 (512 points)",
            "PASS",
        ]

    def test_records_mode(self, capsys):
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "2",
                           "--records")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("check=") and "passed=" in line for line in lines)
        assert lines == ["check=gene-closed-form passed=1",
                         "check=curve-n2-m1 passed=1 detail='4 points'",
                         "check=curve-n2-m2 passed=1 detail='16 points'"]

    def test_broken_table_fails(self, capsys, monkeypatch):
        table = gene_table(2)
        broken = GeneTable(2, table.swap_pairs, ((0, 1),) + table.reverse_slots[1:])
        monkeypatch.setattr(gene, "gene_table", lambda n: broken)
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "1")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert out.splitlines()[0] == (
            "FAIL gene-closed-form (quadrant 0: reverse (1, 1), the closed form gives (0, 0))")

    @pytest.mark.parametrize("n, level, top", [(5, 5, 4), (2, 11, 10), (21, 1, 0)])
    def test_refuses_a_level_above_the_walk_guard_up_front(
            self, capsys, monkeypatch, n, level, top):
        # A walk of 2**20 points takes seconds and hundreds of MB; past that, GB.
        def walk(*args, **kwargs):
            raise AssertionError("no curve may be walked")

        monkeypatch.setattr(oracle, "enumerate_recursive", walk)
        code, out, err = run(capsys, "validate", "--dim", str(n), "--max-level", str(level))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --max-level {level} is above {top}, the largest allowed")
        assert err.count("\n") == 1

    def test_refuses_a_negative_level(self, capsys):
        code, out, err = run(capsys, "validate", "--dim", "2", "--max-level", "-1")
        assert (code, out) == (2, "")
        assert err == "error: level must be a non-negative integer, got -1\n"

    def test_level_zero_checks_the_table_only(self, capsys):
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "0")
        assert (code, out) == (0, "PASS gene-closed-form\nPASS\n")

    def test_checks_the_decoder_decode_runs(self, capsys, monkeypatch):
        def broken(params, digits, count):
            flat = unchecked_points(params, digits, count)
            return flat[:2] + (0, 0) + flat[4:]  # index 1 placed at the origin

        monkeypatch.setattr(oracle, "unchecked_points", broken)
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "1")
        assert code == 1
        assert "FAIL curve-n2-m1 (index 1 decodes to (0, 0), enumeration holds (1, 0))" in out

    def test_checks_the_encoder_encode_runs(self, capsys, monkeypatch):
        def broken(params, records, size, k):
            keys = unchecked_keys(params, records, size, k)
            return keys[:2] + [keys[3], keys[2]] + keys[4:]

        monkeypatch.setattr(curve, "unchecked_keys", broken)  # as curve_keys looks it up
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "1")
        assert code == 1
        assert "FAIL curve-n2-m1 (point (1, 1) encodes to 3, expected index 2)" in out

    @staticmethod
    def enumerating(monkeypatch, change):
        """Stub ``oracle.enumerate_recursive`` with one whose points at each
        level are ``change(points, m)``."""
        real = oracle.enumerate_recursive

        def walk(params, table):
            return change(real(params, table), params.m)

        monkeypatch.setattr(oracle, "enumerate_recursive", walk)

    @pytest.mark.parametrize("change, detail", [
        (lambda p: p[:1] + p[2:3] + p[1:2] + p[3:], "indices 0 and 1 are 2 apart"),
        (lambda p: p[:1] * 2 + p[2:], "indices 0 and 1 are 0 apart"),
    ], ids=["swapped", "repeated"])
    def test_a_broken_enumeration_is_named_by_its_first_bad_step(
            self, capsys, monkeypatch, change, detail):
        # The level-1 walk is (0, 0) (1, 0) (1, 1) (0, 1), component 1 first.
        self.enumerating(monkeypatch, lambda points, m: change(points))
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "1")
        assert code == 1
        assert out.splitlines()[1:] == [f"FAIL curve-n2-m1 ({detail})", "FAIL"]

    def test_a_bad_step_the_codecs_agree_with_fails_its_level(self, capsys, monkeypatch):
        # Points 5 and 6 of the level-3 walk trade places in the enumeration
        # and in both codecs alike, so only the unit-step check sees it.
        def swapped(seq, size, m):
            if m != 3:
                return seq
            return seq[:5 * size] + seq[6 * size:7 * size] + seq[5 * size:6 * size] + seq[7 * size:]

        def decoding(params, digits, count):
            decoded.append(params.m)
            return swapped(unchecked_points(params, digits, count), params.n, params.m)

        decoded = []
        self.enumerating(monkeypatch, lambda points, m: swapped(points, 1, m))
        monkeypatch.setattr(oracle, "unchecked_points", decoding)
        monkeypatch.setattr(curve, "unchecked_keys", lambda params, records, size, k: swapped(
            unchecked_keys(params, records, size, k), 1, params.m))
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "3")
        # The step check reports before the decode check at the same index, so
        # the output alone cannot show that the swapped decoder was the one run.
        assert (code, decoded) == (1, [1, 2, 3])
        assert out.splitlines() == [
            "PASS gene-closed-form",
            "PASS curve-n2-m1 (4 points)",
            "PASS curve-n2-m2 (16 points)",
            "FAIL curve-n2-m3 (indices 4 and 5 are 2 apart)",
            "FAIL",
        ]

    @pytest.mark.parametrize("n, levels", [(10, 1), (3, 3)])
    def test_walks_each_level_once_and_decodes_no_point_alone(
            self, capsys, monkeypatch, n, levels):
        walked = []
        self.enumerating(monkeypatch, lambda points, m: walked.append(m) or points)
        monkeypatch.setattr(decode, "decode_bits", lambda *args: pytest.fail("decode_bits called"))
        code, out, _ = run(capsys, "validate", "--dim", str(n), "--max-level", str(levels))
        assert (code, out.splitlines()[-1]) == (0, "PASS")
        assert walked == list(range(1, levels + 1))

    def test_validates_the_table_once_per_run(self, capsys, monkeypatch):
        calls = []

        def counting(table):
            calls.append(table.n)
            return validate_gene_table(table)

        monkeypatch.setattr(gene, "validate_gene_table", counting)
        for _ in range(2):
            code, _, _ = run(capsys, "validate", "--dim", "3", "--max-level", "1")
            assert code == 0
        assert calls == [3, 3]


class TestBenchCommand:
    def test_counters_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--point", "1,1,1",
                           "--levels", "8,32", "--repeats", "2")
        assert code == 0
        lines = out.splitlines()
        table = {line.split()[0]: line.split()[1:] for line in lines[3:7]}
        assert table["arith"] == ["8", "32"]
        assert table["bits"] == ["8", "32"]
        assert table["arith-fast"] == ["1", "1"]
        assert table["bits-fast"] == ["1", "1"]

    def test_records_mode(self, capsys):
        code, out, _ = run(capsys, "bench", "--point", "1,1", "--levels", "4",
                           "--repeats", "2", "--records")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("algo=") for line in lines)

    def test_refuses_a_huge_level_as_decode_does(self, capsys, digit_cap):
        code, out, err = run(capsys, "bench", "--point", "1,1", "--levels", f"4,{HUGE_LEVEL}")
        assert (code, out, err) == (2, "", HUGE_LEVEL_ERROR)

    def test_rejects_tiny_point(self, capsys):
        code, _, err = run(capsys, "bench", "--point", "5", "--levels", "4")
        assert code == 2
        assert "at least 2 components" in err

    def test_rejects_an_empty_level_list(self, capsys):
        assert run(capsys, "bench", "--levels", ",") == (2, "", "error: no levels given\n")

    def test_fails_when_a_counter_is_off(self, capsys, monkeypatch):
        counted = oracle.run_counter_benchmark

        def one_pass_over(*args, **kwargs):
            report = counted(*args, **kwargs)
            row = report.rows[0]
            rows = (dataclasses.replace(row, iterations=row.iterations + 1),) + report.rows[1:]
            return dataclasses.replace(report, rows=rows)

        monkeypatch.setattr(oracle, "run_counter_benchmark", one_pass_over)
        code, out, err = run(capsys, "bench", "--point", "1,1", "--levels", "4", "--repeats", "1")
        assert (code, err) == (1, "FAIL iteration counters\n")
        assert out.splitlines()[3].split() == ["arith", "5"]

    @pytest.mark.parametrize("option,value", [("--point", "1,x"), ("--levels", "4,y")])
    def test_rejects_non_integer(self, capsys, option, value):
        code, _, err = run(capsys, "bench", option, value)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def _not_an_int(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


# Numbers stay small so that no example asks for minutes of honest work
# (a gene table at n = 20, a curve walk at n * m = 24); the malformed
# inputs are the junk tokens and the file bytes.
SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "4"])
DIM = st.one_of(st.sampled_from(["2", "3"]), SMALL)
JUNK = st.text(max_size=6).filter(_not_an_int)
FILE, OUT = "<file>", "<out>"
LEVEL = st.one_of(SMALL, st.sampled_from(["40", "64"]), JUNK)
LIST = st.lists(st.one_of(SMALL, JUNK), max_size=4).map(",".join)
TOKEN = st.one_of(SMALL, JUNK, st.sampled_from([FILE, OUT, "-h", "digits:1.2"]))
TOKENS = st.lists(TOKEN, max_size=4)
NONE = st.one_of(st.just([]), TOKENS)
# Per subcommand: the options every valid call needs, the optional ones
# (None for a flag) and its positional tokens.
COMMANDS = {
    "encode": ({"--dim": DIM, "--level": LEVEL},
               {"--input": st.just(FILE), "--digits": None}, TOKENS),
    "decode": ({"--dim": DIM, "--level": LEVEL}, {"--input": st.just(FILE)}, TOKENS),
    "sort": ({"--dim": DIM, "--level": LEVEL}, {},
             st.one_of(st.just([FILE, OUT]), TOKENS)),
    "gene": ({"--dim": DIM}, {"--dump-text": None}, NONE),
    "validate": ({"--dim": DIM},
                 {"--max-level": st.sampled_from(["-1", "0", "1", "2"]), "--records": None},
                 NONE),
    "bench": ({}, {"--point": LIST, "--levels": LIST, "--repeats": SMALL, "--records": None},
              NONE),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional, positional = COMMANDS[command]
    options = {**required, **optional}
    names = list(required)
    if draw(st.integers(min_value=0, max_value=9)) == 0:  # now and then: any options at all
        names = draw(st.lists(st.sampled_from(sorted(options)), max_size=4))
    names += draw(st.lists(st.sampled_from(sorted(optional)), max_size=2)) if optional else []
    argv = [command]
    for name in names:
        argv.append(name)
        if options[name] is not None:
            argv.append(draw(options[name]))
    return argv + draw(positional)


def _file_call(command, dim, level, in_place):
    if command == "sort":
        return [command, "--dim", dim, "--level", level, FILE, FILE if in_place else OUT]
    return [command, "--dim", dim, "--level", level, "--input", FILE]


# Half the examples are well-formed calls that read the fuzzed file; some
# sort it in place.
ARGVS = st.one_of(
    argvs(),
    st.builds(_file_call, st.sampled_from(["sort", "encode", "decode"]), DIM,
              st.sampled_from(["0", "1", "4", "40", "64"]), st.booleans()),
)


def _text_file(rows):
    return "\n".join(" ".join(row) for row in rows).encode()


ROW_TOKEN = st.one_of(
    st.integers(min_value=0, max_value=20).map(str),
    st.integers(min_value=0, max_value=2**70).map(str),
    JUNK,
    st.sampled_from(["#", ",", "digits:3.0", "digits:1"]),
)
TEXT_FILE = st.lists(st.lists(ROW_TOKEN, max_size=4), max_size=5).map(_text_file)
FILE_BYTES = st.one_of(
    st.binary(max_size=80),
    TEXT_FILE,
    st.tuples(TEXT_FILE, st.binary(min_size=1, max_size=4), TEXT_FILE).map(b"".join),
    st.builds(
        lambda version, dim, count, payload: pointio.POINT_MAGIC + bytes([version])
        + dim.to_bytes(2, "little") + count.to_bytes(8, "little") + payload,
        st.sampled_from([0, 1, 2]),
        st.integers(min_value=0, max_value=65535) | st.sampled_from([2, 3]),
        st.integers(min_value=0, max_value=2**64 - 1) | st.integers(min_value=0, max_value=3),
        st.binary(max_size=64),
    ),
)


class TestFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(argv=ARGVS, blob=FILE_BYTES)
    @example(argv=["sort", "--dim", "2", "--level", "0", "\x00", "-1"], blob=b"")
    @example(argv=["sort", "--dim", "2", "--level", "0", FILE, "a\x00"], blob=b"1 2\n")
    def test_no_traceback(self, tmp_path_factory, argv, blob):
        work = tmp_path_factory.getbasetemp()
        path = work / "fuzz-input"
        path.write_bytes(blob)
        argv = [{FILE: str(path), OUT: str(work / "fuzz-out")}.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and -h
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() + out.getvalue()
        if code == 2:  # a refused call leaves its input, also when it is the output
            assert path.read_bytes() == blob


class TestBrokenPipe:
    """Output into a pipe whose reader is gone ends in one error line."""

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["encode-input", "decode-one"])
    def test_one_error_line(self, tmp_path, command, buffering):
        source = tmp_path / "points.txt"
        source.write_text("1023 5 0 77\n" * 2000)  # over 64 KiB of digits: lines
        argv = {
            "encode-input": ["encode", "--dim", "4", "--level", "40", "--input", str(source)],
            "decode-one": ["decode", "--dim", "2", "--level", "2", "13"],
        }[command]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hilbertorder", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, "error: [Errno 32] Broken pipe\n")


class TestClosedStreams:
    """A call started with standard input (``<&-``), output (``>&-``) or
    error (``2>&-``) closed, or with standard output on ``/dev/full``, ends in
    exit code 0 or 2, never in a traceback."""

    @staticmethod
    def run_closed(fd, argv):
        """Run ``argv`` in a child with descriptor ``fd`` closed, or with its
        stdout on ``/dev/full`` where ``fd`` is ``"full"``; give the exit code,
        then what stdout and stderr hold, of those that stay open."""
        kept = [name for i, name in ((1, "stdout"), (2, "stderr"))
                if i != fd and (i, fd) != (1, "full")]
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "hilbertorder", *argv], stdin=subprocess.DEVNULL,
                stdout=full if fd == "full" else subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60, preexec_fn=None if fd == "full" else lambda: os.close(fd),
            )
        return (result.returncode, *(getattr(result, name) for name in kept))

    @pytest.mark.parametrize("argv", [
        ["encode", "-n", "2", "-m", "2", "1", "1"],
        ["decode", "-n", "2", "-m", "2", "13"],
        ["gene", "-n", "2"],
        ["validate", "-n", "2", "--max-level", "1"],
        ["bench", "--point", "1,1", "--levels", "4", "--repeats", "1"],
        ["decode", "-n", "2", "-m", "2", "99"],
    ], ids=["encode", "decode", "gene", "validate", "bench", "refused"])
    def test_a_command_that_prints_refuses_a_closed_stdout(self, argv):
        assert self.run_closed(1, argv) == (2, "error: standard output is closed\n")

    def test_sort_needs_no_stdout(self, tmp_path):
        source, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        source.write_text("1 1\n0 0\n")
        assert self.run_closed(1, ["sort", "-n", "2", "-m", "2", str(source), str(target)]) == (
            0, "")
        assert target.read_text() == "0 0\n1 1\n"

    def test_a_refused_call_exits_2_with_stderr_closed(self):
        assert self.run_closed(2, ["decode", "-n", "2", "-m", "2", "99"]) == (2, "")

    # A good and a refused call of every subcommand; sort reads {src} and writes {dst}.
    CALLS = {
        "encode": (["encode", "-n", "2", "-m", "2", "1", "1"],
                   ["encode", "-n", "2", "-m", "2", "4", "1"]),
        "decode": (["decode", "-n", "2", "-m", "2", "13"], ["decode", "-n", "2", "-m", "2", "99"]),
        "gene": (["gene", "-n", "2"], ["gene", "-n", "1"]),
        "validate": (["validate", "-n", "2", "--max-level", "1"],
                     ["validate", "-n", "5", "--max-level", "5"]),
        "bench": (["bench", "--point", "1,1", "--levels", "4", "--repeats", "1"],
                  ["bench", "--point", "1"]),
        "sort": (["sort", "-n", "2", "-m", "2", "{src}", "{dst}"],
                 ["sort", "-n", "2", "-m", "0", "{src}", "{dst}"]),
    }

    @pytest.mark.parametrize("good", [True, False], ids=["good", "refused"])
    @pytest.mark.parametrize("command", sorted(CALLS))
    @pytest.mark.parametrize("fd", [0, "full"], ids=["stdin-closed", "stdout-full"])
    def test_stdin_closed_or_stdout_full(self, tmp_path, fd, command, good):
        source, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        source.write_text("1 1\n0 0\n")
        target.write_text("kept\n")
        argv = [arg.format(src=source, dst=target) for arg in self.CALLS[command][not good]]
        code, *streams = self.run_closed(fd, argv)
        assert not any("Traceback" in stream for stream in streams)
        err = streams[-1]
        if good and (fd == 0 or command == "sort"):  # sort prints nothing
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            if good:
                assert err == "error: [Errno 28] No space left on device\n"
        assert target.read_text() == ("0 0\n1 1\n" if good and command == "sort" else "kept\n")

    def test_an_error_line_that_cannot_be_written_keeps_exit_code_2(self, capsys, monkeypatch):
        # Where the closed descriptor still has a stream, writing to it fails.
        with open(os.devnull) as unwritable:
            monkeypatch.setattr(sys, "stderr", unwritable)
            assert main(["decode", "-n", "2", "-m", "2", "99"]) == 2
        assert capsys.readouterr().out == ""


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "hilbertorder",
             "encode", "--dim", "2", "--level", "2", "1", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "2\n"

    def test_python_dash_m_decode(self):
        result = subprocess.run(
            [sys.executable, "-m", "hilbertorder",
             "decode", "--dim", "2", "--level", "2", "13"],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "2 1\n", "")

    def test_entry_point_freezes_the_start_up_heap(self):
        code = """if True:
            import gc, sys
            from hilbertorder.cli import main
            sys.argv = ["hilbert", "decode", "--dim", "2", "--level", "2", "13"]
            assert gc.get_freeze_count() == 0
            assert main() == 0
            print(gc.get_freeze_count() > 0, gc.isenabled())
        """
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "2 1\nTrue True\n", "")

    def test_in_process_call_leaves_the_collector_as_it_was(self, capsys, tmp_path):
        path = tmp_path / "indices.txt"
        path.write_text("digits:3.1\n13\n")
        before = gc.isenabled(), gc.get_freeze_count()
        try:
            gc.disable()
            assert run(capsys, "decode", "-n", "2", "-m", "2", "--input", str(path)) == (
                0, "2 1\n2 1\n", "")
            assert (gc.isenabled(), gc.get_freeze_count()) == (False, before[1])
        finally:
            gc.enable()
        assert run(capsys, "decode", "-n", "2", "-m", "2", "13") == (0, "2 1\n", "")
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_import_leaves_statistics_unloaded(self, tmp_path):
        # statistics pulls in fractions and decimal, and dataclasses costs more
        # than a one-point codec call; only `gene`, `validate` and `bench` load
        # these modules.  The child checks after the import and after the calls.
        # json is loaded by the plain text scan alone, which reads files of one
        # block or more: not by the import, an HPTS point file or a one-line
        # text or digits: file.
        source, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        source.write_text("1 2\n0 3\n")
        single = tmp_path / "point.txt"
        single.write_text("1 2\n")
        binary, indices = tmp_path / "points.bin", tmp_path / "indices.txt"
        binary.write_bytes(b"HPTS\x01" + struct.pack("<HQ2Q", 2, 1, 1, 2))  # the point 1 2
        indices.write_text("digits:3.1\n")
        blocks = tmp_path / "blocks.txt"
        count = 2 * pointio._TEXT_BLOCK_BYTES // len("digits:3.1\n") + 1
        blocks.write_text("digits:3.1\n" * count)
        # n = 32 is past the gene table's cap, so only the codec path runs it.
        wide = [str(i % 8) for i in range(32)]
        params = CurveParams(32, 3)
        [key] = curve_keys(params, list(map(int, wide)))
        token = "digits:" + ".".join(map(str, integer_digits(key, params)))
        code = f"""if True:
            import sys
            import hilbertorder.cli
            unwanted = {{"dataclasses", "statistics"}} | {{"hilbertorder." + name for name in
                ("core_bits", "encode", "decode", "gene", "oracle")}}
            print(sorted(unwanted & set(sys.modules)), "json" in sys.modules)
            for argv in (["encode", "-n", "2", "-m", "2", "--input", {str(binary)!r}],
                         ["decode", "-n", "2", "-m", "2", "--input", {str(indices)!r}],
                         ["sort", "-n", "2", "-m", "2", {str(single)!r}, {str(single)!r}]):
                assert hilbertorder.cli.main(argv) == 0
            print("json" in sys.modules)
            for argv in (["encode", "-n", "2", "-m", "2", "1", "1"],
                         ["decode", "-n", "2", "-m", "2", "2"],
                         ["sort", "-n", "2", "-m", "2", {str(source)!r}, {str(target)!r}],
                         ["encode", "-n", "32", "-m", "3", *{wide!r}],
                         ["decode", "-n", "32", "-m", "3", {token!r}]):
                assert hilbertorder.cli.main(argv) == 0
            print(sorted(unwanted & set(sys.modules)), "json" in sys.modules)
            assert hilbertorder.cli.main(["decode", "-n", "2", "-m", "2", "--input", {str(blocks)!r}]) == 0
            print("json" in sys.modules)
        """
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        lines, decoded = f"2\n1 1\n{token}\n{' '.join(wide)}\n", "2 1\n" * count
        assert (result.returncode, result.stdout) == (
            0, f"[] False\n7\n2 1\nFalse\n{lines}[] False\n{decoded}True\n")
        assert target.read_text() == "0 3\n1 2\n"  # keys 5 and 7
        assert single.read_text() == "1 2\n"

    def test_package_resolves_every_public_name(self):
        import hilbertorder

        namespace = {}
        exec("from hilbertorder import *", namespace)
        for name in hilbertorder.__all__:
            assert getattr(hilbertorder, name) is namespace[name]
        assert len(hilbertorder.__all__) == len(set(hilbertorder.__all__)) == 45
        assert hilbertorder.__version__ == "0.1.0"
        with pytest.raises(AttributeError, match="no attribute 'curve_key'"):
            hilbertorder.curve_key


class TestBenchShapedFiles:
    """``sort``, ``encode --input`` and ``decode --input``, each run as a
    child process on a file shaped as the benchmark's inputs but of 2,000
    records, two blocks or more of text, give what the reference codecs give."""

    RECORDS = 2000

    @staticmethod
    def child(*argv):
        result = subprocess.run([sys.executable, "-m", "hilbertorder", *map(str, argv)],
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        return result.stdout

    @staticmethod
    def line(point):
        return " ".join(map(str, reversed(point)))

    def test_sort_of_a_text_file(self, tmp_path):
        rng, params = random.Random(1), CurveParams(3, 20)
        points = [tuple(rng.getrandbits(20) for _ in range(3)) for _ in range(self.RECORDS)]
        source, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        source.write_text("".join(self.line(p) + "\n" for p in points))
        assert len(source.read_bytes()) >= 2 * pointio._TEXT_BLOCK_BYTES
        assert self.child("sort", "--dim", 3, "--level", 20, source, target) == ""
        keys = [encode_arith(p, params, gene_table(3))[0].digits for p in points]
        order = sorted(range(self.RECORDS), key=keys.__getitem__)
        assert target.read_text() == "".join(self.line(points[i]) + "\n" for i in order)

    def test_encode_of_an_hpts_file(self, tmp_path):
        rng, params = random.Random(2), CurveParams(4, 40)
        points = [tuple(rng.getrandbits(10) for _ in range(4)) for _ in range(self.RECORDS)]
        source = tmp_path / "points.bin"
        source.write_bytes(b"HPTS\x01" + struct.pack("<HQ", 4, len(points)) + b"".join(
            struct.pack("<4Q", *reversed(p)) for p in points))
        out = self.child("encode", "--dim", 4, "--level", 40, "--input", source)
        assert out == "".join("digits:" + ".".join(map(str, encode_arith(
            p, params, gene_table(4))[0].digits)) + "\n" for p in points)

    def test_decode_of_a_digits_file(self, tmp_path):
        rng, params = random.Random(3), CurveParams(8, 32)
        indices = [[rng.getrandbits(8) for _ in range(32)] for _ in range(self.RECORDS)]
        source = tmp_path / "indices.txt"
        source.write_text("".join("digits:" + ".".join(map(str, d)) + "\n" for d in indices))
        assert len(source.read_bytes()) >= 2 * pointio._TEXT_BLOCK_BYTES
        out = self.child("decode", "--dim", 8, "--level", 32, "--input", source)
        assert out == "".join(self.line(decode_arith(
            HilbertIndex(8, d), params, gene_table(8))[0]) + "\n" for d in indices)
