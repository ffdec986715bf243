import contextlib
import io
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hilbertorder import cli, gene, pointio
from hilbertorder.cli import main
from hilbertorder.core_bits import CurveParams, index_to_integer, integer_to_index
from hilbertorder.decode import (
    curve_point, decode_arith, decode_arith_fast, decode_bits, decode_bits_fast,
)
from hilbertorder.encode import ENCODERS, encode_arith, encode_bits
from hilbertorder.errors import DomainError
from hilbertorder.gene import GeneEntry, GeneTable, gene_table, validate_gene_table

DIGIT_CAP = 4300  # CPython's default int_max_str_digits


@pytest.fixture
def digit_cap():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no cap on decimal digits")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_CAP)
    yield DIGIT_CAP
    sys.set_int_max_str_digits(saved)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        pointio.write_points(source, 2, [tuple(reversed(p)) for p in display], binary=True)
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "1",
                           "--input", str(source))
        assert code == 0
        assert out.splitlines() == ["3", "0", "2", "1"]

    def test_binary_input_dimension_mismatch(self, capsys, tmp_path):
        source = tmp_path / "points.bin"
        pointio.write_points(source, 3, [(0, 0, 0)], binary=True)
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
        # Points below 2**k for k <= m, so the top digits are often zero.
        k = data.draw(st.integers(0, m))
        component = st.integers(0, (1 << k) - 1)
        points = data.draw(st.lists(st.tuples(*[component] * n), min_size=1, max_size=4))
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

    def test_garbage_token(self, capsys):
        code, _, err = run(capsys, "decode", "--dim", "2", "--level", "2", "pony")
        assert code == 2
        assert "bad index" in err

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
        # zero; each is written in decimal or as a digits: token.
        k = data.draw(st.integers(0, m))
        indices = data.draw(st.lists(st.integers(0, (1 << (n * k)) - 1), min_size=1, max_size=4))
        params = CurveParams(n, m)
        tokens = []
        for z in indices:
            if data.draw(st.booleans()):
                tokens.append("digits:" + ".".join(map(str, integer_to_index(z, params).digits)))
            else:
                tokens.append(str(z))
        path = tmp_path_factory.mktemp("decode") / "indices.txt"
        path.write_text("".join(token + "\n" for token in tokens))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decode", "--dim", str(n), "--level", str(m), "--input", str(path)]) == 0
        table = gene_table(n)
        expected = [
            pointio.format_point(decode_arith(integer_to_index(z, params), params, table)[0])
            for z in indices
        ]
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
        pointio.write_points(source, 2, [tuple(reversed(p)) for p in points_display], binary=True)
        target = tmp_path / "sorted.bin"
        code, _, _ = run(capsys, "sort", "--dim", "2", "--level", "1",
                         str(source), str(target))
        assert code == 0
        points, binary = pointio.read_points(target, 2, tuple)
        assert binary
        assert [tuple(reversed(p)) for p in points] == [(0, 0), (0, 1), (1, 1), (1, 0)]
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
        pointio.write_points(source, 3, [(0, 0, 0)], binary=True)
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


class TestValidateCommand:
    def test_three_dim_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--dim", "3", "--max-level", "3")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert "curve-n3-m3" in out

    def test_records_mode(self, capsys):
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "2",
                           "--records")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("check=") and "passed=" in line for line in lines)
        assert any("check=curve-n2-m2 passed=1" in line for line in lines)

    def test_broken_table_fails(self, capsys, monkeypatch):
        table = gene_table(2)
        entries = list(table.entries)
        entries[0] = GeneEntry(entries[0].exchange, (1, 1))
        broken = GeneTable(2, tuple(entries), table.corners)
        monkeypatch.setattr(cli, "gene_table", lambda n: broken)
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "1")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert any(line.startswith("FAIL gene-quadrant-zero") for line in out.splitlines())

    def test_refuses_a_level_above_the_walk_guard_up_front(self, capsys, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("no curve may be walked")

        monkeypatch.setattr(cli, "enumerate_recursive", walk)
        code, out, err = run(capsys, "validate", "--dim", "5", "--max-level", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --max-level 5 is above 4, the largest allowed")
        assert err.count("\n") == 1

    def test_checks_the_decoder_decode_runs(self, capsys, monkeypatch):
        def broken(params, table):
            point = curve_point(params, table)
            return lambda digits: (0, 0) if list(digits) == [1] else point(digits)

        monkeypatch.setattr(cli, "curve_point", broken)
        code, out, _ = run(capsys, "validate", "--dim", "2", "--max-level", "1")
        assert code == 1
        assert "FAIL curve-n2-m1 (index 1 decodes to (0, 0), enumeration holds (1, 0))" in out

    def test_validates_the_table_once_per_run(self, capsys, monkeypatch):
        calls = []

        def counting(table):
            calls.append(table.n)
            return validate_gene_table(table)

        monkeypatch.setattr(cli, "validate_gene_table", counting)
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

    def test_rejects_tiny_point(self, capsys):
        code, _, err = run(capsys, "bench", "--point", "5", "--levels", "4")
        assert code == 2
        assert "at least 2 components" in err

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


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "hilbertorder",
             "encode", "--dim", "2", "--level", "2", "1", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "2\n"
