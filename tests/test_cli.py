import random
import subprocess
import sys

import pytest

from hilbertorder import cli, gene
from hilbertorder.cli import main
from hilbertorder.core_bits import CurveParams, index_to_integer
from hilbertorder.encode import encode_bits
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


class TestEncodeCommand:
    @pytest.mark.parametrize("algo", ["1", "2", "3", "4"])
    def test_single_point(self, capsys, algo):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "2",
                           "--algo", algo, "1", "1")
        assert code == 0
        assert out == "2\n"

    @pytest.mark.parametrize("algo", ["1", "2", "3", "4"])
    def test_algorithms_agree(self, capsys, algo):
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "2",
                           "--algo", algo, "3", "0")
        assert code == 0
        assert out == "15\n"

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
        cli._write_points_binary(source, 2, [tuple(reversed(p)) for p in display])
        code, out, _ = run(capsys, "encode", "--dim", "2", "--level", "1",
                           "--input", str(source))
        assert code == 0
        assert out.splitlines() == ["3", "0", "2", "1"]

    def test_binary_input_dimension_mismatch(self, capsys, tmp_path):
        source = tmp_path / "points.bin"
        cli._write_points_binary(source, 3, [(0, 0, 0)])
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

    def test_unknown_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["encode", "--dim", "2", "--level", "2", "--algo", "9", "1", "1"])


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

    @pytest.mark.parametrize("algo", ["1", "2", "3", "4"])
    def test_algorithms_agree(self, capsys, algo):
        code, out, _ = run(capsys, "decode", "--dim", "2", "--level", "2",
                           "--algo", algo, "15")
        assert code == 0
        assert out == "3 0\n"

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

    def test_binary_round_trip(self, capsys, tmp_path):
        points_display = [(1, 0), (0, 0), (1, 1), (0, 1)]
        source = tmp_path / "points.bin"
        cli._write_points_binary(source, 2, [tuple(reversed(p)) for p in points_display])
        target = tmp_path / "sorted.bin"
        code, _, _ = run(capsys, "sort", "--dim", "2", "--level", "1",
                         str(source), str(target))
        assert code == 0
        n, labelled = cli._read_points_binary(target)
        assert n == 2
        assert [tuple(reversed(p)) for p, _ in labelled] == [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert target.read_bytes()[:4] == cli.POINT_MAGIC

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
        cli._write_points_binary(source, 3, [(0, 0, 0)])
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


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "hilbertorder",
             "encode", "--dim", "2", "--level", "2", "1", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "2\n"
