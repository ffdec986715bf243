"""Point and index files: read once, written whole, and read the same way
by the whole-file or block readers and the row loop.

The command-line tests drive ``cli.main`` only, so they hold for any
layout of the reading and writing code.  The property tests hold
``read_points`` and ``format_flat`` against per-line references.
"""

import contextlib
import itertools
import os
import random
import stat
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbertorder import pointio
from hilbertorder.cli import main
from hilbertorder.curve import CurveParams, curve_keys, field_width, pack_bytes
from hilbertorder.encode import encode_arith
from hilbertorder.errors import DomainError, PointFileError
from hilbertorder.gene import gene_table

POINTS = "3 0\n0 0\n1 1\n0 3\n2 2\n"  # x_2 x_1 per line, n = 2, m = 2
SORTED = "0 0\n1 1\n0 3\n2 2\n3 0\n"  # along the curve at n = 2, m = 2
INDICES = ["15", "0", "2", "5", "8"]  # of POINTS, in file order


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sort(capsys, source, target):
    return run(capsys, "sort", "--dim", "2", "--level", "2", source, target)


def _finish(thread, path, flags):
    """Open the FIFO's other end without blocking until ``thread`` is out of a blocking open."""
    deadline = time.monotonic() + 10
    while thread.is_alive() and time.monotonic() < deadline:
        with contextlib.suppress(OSError):  # ENXIO: no reader yet
            os.close(os.open(path, flags | os.O_NONBLOCK))
        thread.join(0.05)
    assert not thread.is_alive()


@contextlib.contextmanager
def fed_fifo(path, data):
    """A FIFO whose first reader gets ``data``.

    Every later reader gets an empty file at once, as a drained pipe
    would give, so a program that opens the input twice reads nothing the
    second time instead of blocking.
    """
    os.mkfifo(path)
    done = threading.Event()

    def feed():
        payload = data
        while not done.is_set():
            with contextlib.suppress(BrokenPipeError), open(path, "wb") as handle:
                handle.write(payload)  # the open blocks until a reader opens
            payload = b""

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        done.set()
        _finish(thread, path, os.O_RDONLY)


@contextlib.contextmanager
def drained_fifo(path):
    """A FIFO read to its end by one reader; yields the list that gets what it read."""
    os.mkfifo(path)
    received = []

    def drain():
        with open(path, "rb") as handle:
            received.append(handle.read())

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    try:
        yield received
    finally:
        _finish(thread, path, os.O_WRONLY)


class TestInputReadOnce:
    def test_encode_reads_a_fifo(self, capsys, tmp_path):
        with fed_fifo(tmp_path / "points", POINTS.encode()) as fifo:
            code, out, err = run(capsys, "encode", "--dim", "2", "--level", "2", "--input", fifo)
        assert (code, err) == (0, "")
        assert out.splitlines() == INDICES

    def test_sort_reads_a_fifo(self, capsys, tmp_path):
        target = tmp_path / "sorted.txt"
        with fed_fifo(tmp_path / "points", POINTS.encode()) as fifo:
            code, _, err = sort(capsys, fifo, target)
        assert (code, err) == (0, "")
        assert target.read_text() == SORTED

    def test_sort_of_a_binary_fifo_writes_binary(self, capsys, tmp_path):
        rows = [tuple(map(int, line.split())) for line in POINTS.splitlines()]
        blob = b"HPTS\x01" + struct.pack("<HQ", 2, len(rows))
        blob += b"".join(struct.pack("<2Q", *row) for row in rows)
        target = tmp_path / "sorted.bin"
        with fed_fifo(tmp_path / "points", blob) as fifo:
            code, _, err = sort(capsys, fifo, target)
        assert (code, err) == (0, "")
        expected = [tuple(map(int, line.split())) for line in SORTED.splitlines()]
        assert target.read_bytes() == blob[:15] + b"".join(
            struct.pack("<2Q", *row) for row in expected
        )


def _fail(src, dst):
    raise OSError("disk on fire")


class TestOutputWrittenWhole:
    def test_sort_in_place(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text(POINTS)
        code, _, err = sort(capsys, path, path)
        assert (code, err) == (0, "")
        assert path.read_text() == SORTED
        assert [p.name for p in tmp_path.iterdir()] == ["points.txt"]

    def test_failed_write_keeps_the_old_output(self, capsys, tmp_path, monkeypatch):
        source = tmp_path / "points.txt"
        source.write_text(POINTS)
        target = tmp_path / "sorted.txt"
        target.write_bytes(b"old output\n")
        monkeypatch.setattr(os, "replace", _fail)
        code, out, err = sort(capsys, source, target)
        assert code == 2
        assert out == ""
        assert err == "error: disk on fire\n"
        assert target.read_bytes() == b"old output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["points.txt", "sorted.txt"]

    def test_failed_in_place_sort_keeps_the_input(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "points.txt"
        path.write_text(POINTS)
        monkeypatch.setattr(os, "replace", _fail)
        code, _, _ = sort(capsys, path, path)
        assert code == 2
        assert path.read_text() == POINTS
        assert [p.name for p in tmp_path.iterdir()] == ["points.txt"]

    def test_interrupted_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        source = tmp_path / "points.txt"
        source.write_text(POINTS)
        target = tmp_path / "sorted.txt"
        target.write_bytes(b"old output\n")

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["sort", "--dim", "2", "--level", "2", str(source), str(target)])
        assert target.read_bytes() == b"old output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["points.txt", "sorted.txt"]

    def test_error_names_the_output(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text(POINTS)
        target = tmp_path / "missing" / "sorted.txt"
        code, _, err = sort(capsys, source, target)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_symlink_output_updates_its_target(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text(POINTS)
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "sorted.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        code, _, err = sort(capsys, source, link)
        assert (code, err) == (0, "")
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert real.read_text() == SORTED
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["sorted.txt"]

    def test_fifo_output_receives_the_rows(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text(POINTS)
        with drained_fifo(tmp_path / "out") as received:
            code, _, err = sort(capsys, source, tmp_path / "out")
        assert (code, err) == (0, "")
        assert received == [SORTED.encode()]
        assert stat.S_ISFIFO(os.stat(tmp_path / "out").st_mode)

    def test_modes(self, capsys, tmp_path):
        source = tmp_path / "points.txt"
        source.write_text(POINTS)
        kept = tmp_path / "kept.txt"
        kept.write_text("old\n")
        kept.chmod(0o640)
        plain = tmp_path / "plain.txt"
        plain.write_text("")  # the mode a plain open gives a new file
        new = tmp_path / "new.txt"
        for target in (kept, new):
            code, _, err = sort(capsys, source, target)
            assert (code, err) == (0, "")
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_appended_to_keeps_what_it_held(self, tmp_path):
        # A shell's ">> log" opens log for append as the child's stdout; the
        # sorted rows follow what log held instead of replacing the file.
        source, log = tmp_path / "points.txt", tmp_path / "log"
        source.write_text(POINTS)
        log.write_text("kept line\n")
        with open(log, "ab") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "hilbertorder", "sort", "--dim", "2", "--level", "2",
                 str(source), "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert (result.returncode, result.stderr) == (0, "")
        assert log.read_text() == "kept line\n" + SORTED

    def test_output_that_is_stdouts_file_is_written_through_stdout(self, tmp_path):
        source, log = tmp_path / "points.txt", tmp_path / "log"
        source.write_text(POINTS)
        log.write_text("kept line\n")
        with open(log, "a") as stdout, contextlib.redirect_stdout(stdout):
            print("printed first")
            assert main(["sort", "--dim", "2", "--level", "2", str(source), str(log)]) == 0
            print("printed last")
        assert log.read_text() == "kept line\nprinted first\n" + SORTED + "printed last\n"


def point_file(n, rows, binary):
    """``rows``, each written ``x_n .. x_1``, as ``format_flat`` writes them or
    as an ``HPTS`` file."""
    flat = tuple(c for row in rows for c in row)
    if binary:
        return b"HPTS\x01" + struct.pack(f"<HQ{len(flat)}Q", n, len(rows), *flat)
    return pointio.format_flat(flat, n).encode()


def sorted_file(n, m, rows, binary):
    """:func:`point_file` of ``rows`` stably sorted along the curve."""
    keys = curve_keys(CurveParams(n, m), [c for row in rows for c in row])
    return point_file(n, [rows[j] for j in sorted(range(len(rows)), key=keys.__getitem__)], binary)


# Text point file layouts: each from its rows and line end.
LAYOUTS = {
    "single-space": lambda rows, end: end.join(" ".join(row) for row in rows),
    "tabs": lambda rows, end: end.join("\t".join(row) for row in rows),
    "double-space": lambda rows, end: end.join("  ".join(row) for row in rows),
    "padded": lambda rows, end: end.join(f" {' '.join(row)}\t" for row in rows),
    "commas": lambda rows, end: end.join(",".join(row) for row in rows),
    "leading-zeros": lambda rows, end: end.join(" ".join("00" + c for c in row) for row in rows),
    "blank-lines": lambda rows, end: (end * 2).join(" ".join(row) for row in rows),
    "comment": lambda rows, end: end.join(["# x_3 x_2 x_1"] + [" ".join(row) for row in rows]),
}


class TestSortWritesRecords:
    """sort writes the rows' own records in curve order: the output is
    ``format_flat`` of the stably sorted points, or their ``HPTS`` file."""

    @staticmethod
    def rows(count=60, top=8, n=3, seed=5):
        rng = random.Random(seed)
        rows = [tuple(rng.randrange(top) for _ in range(n)) for _ in range(count)]
        return rows + rows[: count // 4]  # tied keys

    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_text_layouts(self, capsys, tmp_path, layout, end, final):
        rows = self.rows()
        path, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        text = [[str(c) for c in row] for row in rows]
        path.write_bytes((LAYOUTS[layout](text, end) + end * final).encode())
        assert run(capsys, "sort", "-n", 3, "-m", 3, path, target) == (0, "", "")
        assert target.read_bytes() == sorted_file(3, 3, rows, False)

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    @pytest.mark.parametrize("count", [0, 1, 75])
    def test_in_place(self, capsys, tmp_path, binary, count):
        rows = self.rows()[:count]
        path = tmp_path / "points"
        path.write_bytes(point_file(3, rows, binary))
        assert run(capsys, "sort", "-n", 3, "-m", 3, path, path) == (0, "", "")
        assert path.read_bytes() == sorted_file(3, 3, rows, binary)

    @pytest.mark.parametrize("blob", [b"", b"\n", b"# only a comment\n", b"\r\n\r\n"],
                             ids=["empty", "newline", "comment", "blank-lines"])
    def test_a_file_with_no_points_gives_an_empty_output(self, capsys, tmp_path, blob):
        path, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        path.write_bytes(blob)
        assert run(capsys, "sort", "-n", 3, "-m", 3, path, target) == (0, "", "")
        assert target.read_bytes() == b""

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_hpts_records(self, capsys, tmp_path, n):
        rows = self.rows(200, 1 << 64, n)
        path, target = tmp_path / "points.bin", tmp_path / "sorted.bin"
        path.write_bytes(point_file(n, rows, True))
        assert run(capsys, "sort", "-n", n, "-m", 64, path, target) == (0, "", "")
        assert target.read_bytes() == sorted_file(n, 64, rows, True)

    @pytest.mark.parametrize("zeros", [0, 1], ids=["output-form", "leading-zero"])
    def test_components_at_the_digit_cap(self, capsys, tmp_path, zeros):
        # The widest components int() reads: the output holds them as read.
        cap = sys.get_int_max_str_digits()
        if not cap:
            pytest.skip("this interpreter has no cap on decimal digits")
        wide = ["0" * zeros + "9" * (cap - zeros), "0" * zeros + "8" + "0" * (cap - zeros - 1)]
        text = [[wide[0], "1"], ["0", "0"], ["1", wide[1]], [wide[1], wide[0]]]
        path, target = tmp_path / "points.txt", tmp_path / "sorted.txt"
        path.write_text("".join(" ".join(row) + "\n" for row in text))
        m = int(wide[0]).bit_length()
        assert run(capsys, "sort", "-n", 2, "-m", m, path, target) == (0, "", "")
        rows = [tuple(map(int, row)) for row in text]
        assert target.read_bytes() == sorted_file(2, m, rows, False)


def _binary(version=1, dim=2, count=1, payload=b"\0" * 16):
    return b"HPTS" + bytes([version]) + struct.pack("<HQ", dim, count) + payload


# A malformed binary point file, read at n = 2, m = 4, and the message
# that follows "PATH: " in its error line.
BAD_BINARY = {
    "truncated-header": (b"HPTS\x01\x02\x00", "truncated header"),
    "version": (_binary(version=2), "unsupported point file version 2"),
    "dimension-below-2": (_binary(dim=1, payload=b"\0" * 8), "invalid dimension 1"),
    "payload-length": (_binary(count=2), "payload has 31 bytes, expected 47"),
    "other-dimension": (_binary(dim=3, payload=b"\0" * 24), "file is 3-dimensional, expected 2"),
    "out-of-range": (
        _binary(count=2, payload=struct.pack("<4Q", 0, 15, 0, 16)),
        "record 1: component 1 out of range for level 4: 16",
    ),
}


class TestBinaryReaderMessages:
    @pytest.mark.parametrize("kind", sorted(BAD_BINARY))
    @pytest.mark.parametrize("command", ["encode", "sort"])
    def test_one_error_line(self, capsys, tmp_path, kind, command):
        blob, message = BAD_BINARY[kind]
        path = tmp_path / "points.bin"
        path.write_bytes(blob)
        target = tmp_path / "sorted.bin"
        if command == "sort":
            code, out, err = run(capsys, "sort", "--dim", "2", "--level", "4", path, target)
            assert not target.exists()
        else:
            code, out, err = run(capsys, "encode", "--dim", "2", "--level", "4", "--input", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"


LEVEL = 4  # components 0..15 are in range, 16 is not
# One component past the digit-count cap, or a long one where there is no cap.
LONG = "9" * ((sys.get_int_max_str_digits() or 4300) + 1)
IN_RANGE = ["0", "1", "3", "12", "15", "007"]
COMPONENTS = st.sampled_from(IN_RANGE * 6 + ["16", "99999999999999999999", LONG])
SPACES = st.sampled_from([" ", " ", "  ", "\t", " \t "])
EDGES = st.sampled_from(["", "", " ", "\t"])
PIECES = st.sampled_from(IN_RANGE + [LONG, " ", "\t", "\n", "\r", "\r\n", ",", "#", "-", "x"])
COMMENTS = st.sampled_from(["# x_2 x_1", "#", "  # hash", "\t#1 2 3", "# \u00e9", "\x0b#\x0c"])


@st.composite
def point_files(draw):
    """``n`` and a text point file.  About half are digits, spaces, tabs,
    ``#`` comment lines and ``\\n``, ``\\r\\n`` or ``\\r`` line ends only, as
    the whole-file reader takes them; the rest mix in commas, comments, lone
    carriage returns, signs and letters."""
    n = draw(st.integers(2, 4))
    plain = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"])) if plain else "\n"
    counts = st.sampled_from([n] * 6 + [0, n - 1, n + 1])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if plain and not draw(st.integers(0, 5)):
            lines.append(draw(COMMENTS))
        elif plain or draw(st.integers(0, 2)):
            parts = [draw(COMPONENTS) for _ in range(draw(counts))]
            line = parts[0] if parts else ""
            for part in parts[1:]:
                line += draw(SPACES if plain else SPACES | st.just(",")) + part
            lines.append(draw(EDGES) + line + draw(EDGES))
        else:
            lines.append("".join(draw(st.lists(PIECES, max_size=8))))
    return n, newline.join(lines) + draw(st.sampled_from([newline, newline, ""]))


def reference_values(path, data, n):
    """What ``read_points`` must give for a text file at level ``LEVEL``, one
    line at a time: the components flat, in file order."""
    params = CurveParams(n, LEVEL)
    values = []
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = pointio.parse_point(line.replace(",", " ").split(), n)
            encode_arith(row[::-1], params, gene_table(n))  # raises for a component out of range
        except DomainError as exc:
            raise PointFileError(f"{path}: line {lineno}: {exc}") from exc
        values.extend(row)
    return values


def written_values(source, n):
    """The components the last item of ``read_points`` stands for, as a list.
    Text it hands over as bytes must have ``format_flat``'s lines, as the
    writer takes them."""
    if not isinstance(source, bytes):
        return list(source)
    values = tuple(map(int, source.split()))
    rows = len(values) // n
    assert source.split(b"\n")[:rows] == pointio.format_flat(values, n).encode().split(b"\n")[:rows]
    return list(values)


def outcome(read, *args):
    try:
        return read(*args)
    except PointFileError as exc:
        return str(exc)


class TestWholeFileReader:
    @settings(max_examples=400, deadline=None)
    @given(point_files())
    def test_text_matches_the_per_line_reference(self, tmp_path_factory, drawn):
        n, text = drawn
        path = tmp_path_factory.mktemp("points") / "points.txt"
        data = text.encode()
        path.write_bytes(data)
        expected = outcome(reference_values, path, data, n)
        got = outcome(lambda: written_values(pointio.read_points(path, CurveParams(n, LEVEL))[3], n))
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(*[st.integers(0, 2**70) | st.integers(0, 20)] * n), max_size=20))))
    @example((2, []))
    def test_format_flat_is_a_line_per_point(self, drawn):
        n, points = drawn
        expected = "".join(" ".join(map(str, reversed(p))) + "\n" for p in points)
        assert pointio.format_flat(tuple(c for p in points for c in p[::-1]), n) == expected

    def test_plain_digit_file_takes_the_whole_file_path(self):
        # Tabs, blank runs and blanks at line ends are scanned; the source is
        # the lines the line rule leaves, one space between their tokens.
        data = b"1 2 3\n\n4\t5  6\n 7 8 9 \n10 11 12"
        values, lines = tuple(range(1, 13)), b"1 2 3\n4 5 6\n7 8 9\n10 11 12"
        assert pointio._plain_text_values(data, 3) == (values, lines)
        for same in (data.replace(b"\n", b"\r\n"), data.replace(b"\n", b"\r"),
                     b"# x_3 x_2 x_1\n" + data, b" \t#1 2 \xc3\xa9\r\n\n" + data + b"\n#"):
            assert pointio._plain_text_values(same, 3) == (values, lines)
        assert pointio._plain_text_values(b"1 2 3\r", 3) == ((1, 2, 3), b"1 2 3\n")

    def test_lines_in_output_form_are_handed_over_as_bytes(self):
        # n tokens a line and no leading zero: the file's own lines, after the
        # line rule, are what format_flat would write.  Empty lines go, each
        # run of blanks is one space and none ends a line, and the last line
        # keeps its end, or its lack of one.
        for data, lines in ((b"1 2 3\n40 0 6", None), (b"1 2 3\r\n40 0 6\r\n", b"1 2 3\n40 0 6\n"),
                            (b"# c\n0 0 0\n", b"0 0 0\n"), (b"", None), (b"\n", b""),
                            (b"1 2 3\n\n4 5 6\n", b"1 2 3\n4 5 6\n"), (b"1 2 3\n\n", b"1 2 3\n"),
                            (b"\n\n1 2 3\n\n\n4 5 6", b"1 2 3\n4 5 6"),
                            (b"1 2 3\n4 5 6\n\n\n", b"1 2 3\n4 5 6\n"), (b" 1 2 3\n", b"1 2 3\n"),
                            (b"1 2 3 \n", b"1 2 3\n"), (b"1  2 3\n", b"1 2 3\n"), (b"1\t2 3", b"1 2 3"),
                            (b"1 2 3\n \n4 5 6\n", b"1 2 3\n4 5 6\n"),
                            (b"\t 1 \t 2\t\t3 \r\n  4 5    6\t", b"1 2 3\n4 5 6")):
            values, source = pointio._plain_text_values(data, 3)
            assert source == (data if lines is None else lines)
            assert values == tuple(map(int, source.split()))
        # A leading zero (JSON refuses it) and any other layout: the row loop.
        for other in (b"007 1 2\n", b"1 01 2\n", b"1 2 00", b"\t007 1 2\n",
                      b"# a\rb\n1 2 3\n", b"#\xff\n1 2 3\n", b"\xc2\xa0# a\n",
                      b"1 2 3 # c\n", b"1,2,3\n", b"1 2\n", b"1  2\n3 4 5\n", b"7", b"1 2"):
            assert pointio._plain_text_values(other, 3) is None


def _sort(capsys, path):
    return run(capsys, "sort", "--dim", "2", "--level", str(LEVEL), path, path.with_suffix(".out"))


class TestNamedRows:
    def test_out_of_range_on_a_plain_file_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_bytes(b"1 2\n3 4\n16 0\n5 6\n")
        assert pointio._plain_text_values(path.read_bytes(), 2) is not None
        code, out, err = _sort(capsys, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 3: component 2 out of range for level 4: 16\n"
        assert not path.with_suffix(".out").exists()

    def test_out_of_range_before_a_bad_token_names_the_first(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_bytes(b"1 2\n0 16\nx 1\n")
        code, out, err = _sort(capsys, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 2: component 1 out of range for level 4: 16\n"

    def test_out_of_range_record_is_named(self, capsys, tmp_path):
        rows = [(1, 2), (3, 4), (5, 6), (7, 8), (16, 0), (17, 0)]
        path = tmp_path / "points.bin"
        path.write_bytes(_binary(count=len(rows), payload=b"".join(
            struct.pack("<2Q", *row) for row in rows)))
        code, out, err = _sort(capsys, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: record 4: component 2 out of range for level 4: 16\n"

    @pytest.mark.parametrize("row, message", [
        ("1,2,3", "expected 2 components, found 3"),
        ("1,x", "bad component 'x': not a decimal integer (digits 0-9 only)"),
        ("17,16", "component 1 out of range for level 4: 16"),
    ], ids=["wrong-count", "bad-token", "out-of-range"])
    def test_row_loop_words_a_bad_row(self, capsys, tmp_path, row, message):
        # Commas keep the file from the whole-file reader: the row loop reads it.
        path = tmp_path / "points.txt"
        path.write_bytes(f"1,2\r\n{row}\r3,4\n".encode())
        assert pointio._plain_text_values(path.read_bytes(), 2) is None
        code, out, err = _sort(capsys, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 2: {message}\n"
        assert not path.with_suffix(".out").exists()

    def test_comment_that_is_not_utf8_is_refused(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_bytes(b"1 2\r\n# \xff\r\n3 4\r\n")
        code, out, err = _sort(capsys, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text: byte 7 cannot be decoded\n"

    def test_lone_carriage_return_ends_a_comment(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_bytes(b"# x_2 x_1\r3 0\r\n# 16 16\n0 0\r\n")
        code, out, err = _sort(capsys, path)
        assert (code, out, err) == (0, "", "")
        assert path.with_suffix(".out").read_bytes() == b"0 0\n3 0\n"


BUDGET = pointio._DIGIT_BLOCK_BYTES
DIGIT_LEVEL = 3  # digits per index in the block reader's files


def digit_lines(n, count, seed=0):
    """``count`` lines of ``digits:`` tokens at dimension ``n``, level ``DIGIT_LEVEL``."""
    rng = random.Random(seed)
    return ["digits:" + ".".join(str(rng.getrandbits(n)) for _ in range(DIGIT_LEVEL))
            for _ in range(count)]


def block_lines(n):
    """Lines of ``digits:`` tokens at dimension ``n``, and ``B``, how many of
    them the block reader's first block holds: it ends at the first line end
    ``BUDGET`` bytes or more into the file.  Every line is 13 bytes or more,
    so the lines hold more than ``2 * B + 3``."""
    lines = digit_lines(n, 3 * BUDGET // 13, seed=n)
    ends = itertools.accumulate(len(line) + 1 for line in lines)  # one past each line end
    return lines, next(i for i, end in enumerate(ends, start=1) if end > BUDGET)


def _put(lines, j, *new):
    """``lines`` with line ``j`` replaced by the lines ``new``."""
    return lines[:j] + list(new) + lines[j + 1:]


def _with_digit(line, digit):
    """``line``'s token with its second digit written as ``digit``."""
    digits = line[len("digits:"):].split(".")
    digits[1] = str(digit)
    return "digits:" + ".".join(digits)


# Files the block reader takes after its line rule, as a change at line j
# of a file of digits: tokens.
ACCEPTED = {
    "crlf": lambda lines, j, n: _put(lines, j, lines[j] + "\r"),
    "comment": lambda lines, j, n: _put(lines, j, "# x", lines[j]),
    "indented-comment": lambda lines, j, n: _put(lines, j, " \t# x \u00e9", lines[j]),
    "lone-cr": lambda lines, j, n: _put(lines[:j + 1] + lines[j + 2:], j,
                                        lines[j] + "\r" + lines[j + 1]),
    "blank-line": lambda lines, j, n: _put(lines, j, "", lines[j]),
    "padded": lambda lines, j, n: _put(lines, j, f" \t{lines[j]} "),
    "tab-before": lambda lines, j, n: _put(lines, j, f"\t{lines[j]}"),
}
# Files the block reader does not take, as such a change; the row loop reads
# them, and accepts or refuses each.  A file is written with surrogateescape,
# so "\udcff" is the byte 0xff.
REJECTIONS = {
    "non-utf8-comment": lambda lines, j, n: _put(lines, j, "# \udcff", lines[j]),
    "commented-decimal": lambda lines, j, n: _put(lines, j, "# x", "5"),
    "leading-zero": lambda lines, j, n: _put(lines, j, lines[j].replace(":", ":00", 1)),
    "empty-digit": lambda lines, j, n: _put(lines, j, _with_digit(lines[j], "")),
    "digit-too-large": lambda lines, j, n: _put(lines, j, _with_digit(lines[j], 1 << n)),
    "over-long-digit": lambda lines, j, n: _put(
        lines, j, _with_digit(lines[j], "1" * (pointio.int_max_str_digits() + 1))),
    # m + 1 digits on line j, m - 1 on the next
    "digit-moved-up": lambda lines, j, n: _put(
        lines[:j + 1] + lines[j + 2:], j,
        lines[j] + "." + lines[j + 1].rpartition(".")[2], lines[j + 1].rpartition(".")[0]),
    "no-prefix": lambda lines, j, n: _put(lines, j, lines[j][len("digits:"):]),
    "prefix-twice": lambda lines, j, n: _put(lines, j, "digits:" + lines[j]),
    "digit-in-prefix": lambda lines, j, n: _put(lines, j, "di5" + lines[j][2:]),
    "decimal-token": lambda lines, j, n: _put(lines, j, "5"),
}


class TestDigitBlockReader:
    """decode --input gives the same stdout, stderr and exit code whether the
    block reader takes a file or the row loop reads it."""

    @staticmethod
    def both_readers(capsys, monkeypatch, path, n, m=DIGIT_LEVEL):
        argv = ["decode", "--dim", n, "--level", m, "--input", path]
        blocks = run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(pointio, "_digit_token_values", lambda data, params: None)
            rows = run(capsys, *argv)
        return blocks, rows

    @staticmethod
    def row_loop(monkeypatch, path, params):
        """``read_indices`` with the block reader out of the way."""
        with monkeypatch.context() as patch:
            patch.setattr(pointio, "_digit_token_values", lambda data, params: None)
            return pointio.read_indices(path, params)

    @pytest.mark.parametrize("blob", [b"# x\n5\n12\n", b"# x\r\n5\r\n", b"# \xff\n5\n"])
    def test_no_line_rule_for_a_file_without_the_prefix(self, monkeypatch, blob):
        # A decimal index file is refused before the line rule, which the row
        # loop then runs once; so are level 0 and n past the digit table.
        monkeypatch.setattr(pointio, "_plain_lines", lambda data: pytest.fail("line rule run"))
        for n, m in ((3, 2), (3, 0), (13, 2)):
            assert pointio._digit_token_values(blob, CurveParams(n, m)) is None
        blob = blob.replace(b"5", b"digits:5")
        assert pointio._digit_token_values(blob, CurveParams(13, 1)) is None

    @pytest.mark.parametrize("end", ["\n", ""], ids=["final-newline", "no-final-newline"])
    @pytest.mark.parametrize("full, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["0", "1", "B-1", "B", "B+1", "2B+3"])
    @pytest.mark.parametrize("n", [2, 3, 8, 12, 13])
    def test_takes_a_file_of_digit_tokens(self, capsys, monkeypatch, tmp_path, n, full, extra, end):
        # full * B + extra lines: B fill the first block, B + 1 start a second.
        path = tmp_path / "indices.txt"
        lines, B = block_lines(n)
        count = full * B + extra
        lines = lines[:count]
        path.write_text("\n".join(lines) + (end if lines else ""))  # "\n" alone is a blank line
        blocks, rows = self.both_readers(capsys, monkeypatch, path, n)
        assert blocks == rows
        assert blocks[0] == 0 and len(blocks[1].splitlines()) == count
        taken = pointio._digit_token_values(path.read_bytes(), CurveParams(n, DIGIT_LEVEL))
        # Past the digit table (n > 12), and for an empty file, the row loop reads it.
        assert (taken and taken[1]) == (count if n <= 12 and count else None)

    @pytest.mark.parametrize("full, extra", [(0, 0), (1, 0), (1, 1)],
                             ids=["first-line", "block-start", "in-block"])
    @pytest.mark.parametrize("kind", sorted(ACCEPTED))
    @pytest.mark.parametrize("n", [2, 3, 8, 12, 13])
    def test_takes_crlf_ends_and_comment_lines(
            self, capsys, monkeypatch, tmp_path, n, kind, full, extra):
        # The change is at line full * B + extra: line B starts the second block.
        lines, B = block_lines(n)
        lines = ACCEPTED[kind](lines[:B + 3], full * B + extra, n)
        path = tmp_path / "indices.txt"
        path.write_text("\n".join(lines) + "\n")
        blocks, rows = self.both_readers(capsys, monkeypatch, path, n)
        assert blocks == rows and blocks[0] == 0
        params = CurveParams(n, DIGIT_LEVEL)
        taken = pointio._digit_token_values(path.read_bytes(), params)
        if n > 12:  # past the digit table the row loop reads it
            assert taken is None
        else:
            assert taken == self.row_loop(monkeypatch, path, params)

    @pytest.mark.parametrize("full, extra", [(0, 0), (1, 0), (1, 1)],
                             ids=["first-line", "block-start", "in-block"])
    @pytest.mark.parametrize("kind", sorted(REJECTIONS))
    @pytest.mark.parametrize("n", [2, 3, 8, 12, 13])
    def test_other_files_read_as_the_row_passes_read_them(
            self, capsys, monkeypatch, tmp_path, n, kind, full, extra):
        # The change is at line full * B + extra: line B starts the second block.
        lines, B = block_lines(n)
        lines = REJECTIONS[kind](lines[:B + 3], full * B + extra, n)
        path = tmp_path / "indices.txt"
        path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        blocks, rows = self.both_readers(capsys, monkeypatch, path, n)
        assert blocks == rows
        assert pointio._digit_token_values(path.read_bytes(), CurveParams(n, DIGIT_LEVEL)) is None

    @pytest.mark.parametrize("end", ["\n", ""], ids=["final-newline", "no-final-newline"])
    @pytest.mark.parametrize("n", [2, 8, 12])
    def test_blocks_of_a_few_bytes(self, capsys, monkeypatch, tmp_path, n, end):
        # Budgets of 1 byte up to two lines: the first block's search for a
        # line end starts at every byte of the first two lines (in the
        # prefix, on a dot, inside a digit, on the line end).
        lines = digit_lines(n, 4, seed=n)
        path = tmp_path / "indices.txt"
        path.write_text("\n".join(lines) + end)
        data, params = path.read_bytes(), CurveParams(n, DIGIT_LEVEL)
        argv = ["decode", "--dim", n, "--level", DIGIT_LEVEL, "--input", path]
        with monkeypatch.context() as patch:  # the row loop
            patch.setattr(pointio, "_digit_token_values", lambda data, params: None)
            rows = run(capsys, *argv)
        expected = self.row_loop(monkeypatch, path, params)
        good = {}
        for kind, change in ACCEPTED.items():
            other = tmp_path / f"{kind}.txt"
            other.write_text("\n".join(change(lines, 1, n)) + end)
            with monkeypatch.context() as patch:
                patch.setattr(pointio, "_digit_token_values", lambda data, params: None)
                output = run(capsys, *argv[:-1], other)
            good[kind] = (other, self.row_loop(monkeypatch, other, params), output)
        bad = {kind: "\n".join(REJECTIONS[kind](lines, 1, n)).encode(errors="surrogateescape")
               for kind in REJECTIONS}
        for budget in range(1, len(lines[0]) + len(lines[1]) + 3):
            monkeypatch.setattr(pointio, "_DIGIT_BLOCK_BYTES", budget)
            assert pointio._digit_token_values(data, params) == expected
            assert run(capsys, *argv) == rows
            for kind, (other, digits_and_count, output) in good.items():
                taken = pointio._digit_token_values(other.read_bytes(), params)
                assert taken == digits_and_count, kind
                assert run(capsys, *argv[:-1], other) == output, kind
            for kind, other in bad.items():
                assert pointio._digit_token_values(other, params) is None, kind

    @pytest.mark.parametrize("n, kind", [(8, None), (10, None), (8, "padded"), (10, "padded"),
                                         (13, None), (8, "decimal-token")])
    def test_every_path_gives_the_digits_packed(self, tmp_path, n, kind):
        # The block reader at n = 8 and 10, also through a padded line; the
        # row loop past the digit table (n = 13) and for a decimal token.
        lines = digit_lines(n, 5, seed=n)
        if kind:
            lines = {**ACCEPTED, **REJECTIONS}[kind](lines, 2, n)
        path = tmp_path / "indices.txt"
        path.write_text("\n".join(lines) + "\n")
        params = CurveParams(n, DIGIT_LEVEL)
        flat = [d for line in lines for d in pointio.parse_index(line.strip(), params)]
        assert pointio.read_indices(path, params) == (pack_bytes(flat, field_width(n)), 5)
        taken = pointio._digit_token_values(path.read_bytes(), params)
        assert (taken is None) == (kind in REJECTIONS or n > 12)

    @pytest.mark.parametrize("text", ["", "\n", "digits:\n", "digits:\ndigits:", "0\ndigits:\n",
                                      "5digits:\n", "digits:0\n", "digits:.\n"])
    def test_level_zero(self, capsys, monkeypatch, tmp_path, text):
        path = tmp_path / "indices.txt"
        path.write_text(text)
        blocks, rows = self.both_readers(capsys, monkeypatch, path, 2, 0)
        assert blocks == rows


SCAN_LEVEL = 70  # components of 2**64 and more are in range, 2**70 is not
# Tokens of a scanned file: JSON takes the plain ones and refuses a leading
# zero and one past the digit cap, which the row loop reads or refuses.
SCAN_TOKENS = ["0", "5", "12", "1048575", str(2**64 - 1), str(2**64), str(2**69 + 3)]
SCAN_ODD = ["007", "00", str(2**70), LONG]


@st.composite
def scanned_files(draw, n, tokens):
    """A text file of rows of ``n`` tokens, each drawn from ``tokens``: most
    are as ``format_flat`` writes them or as one separator per file (a comma,
    or blanks) writes them; the rest add padded, blank, ``#`` and comma-only
    lines, blank runs around a row's separators, mixed or doubled separators,
    rows of another length, ``\\r\\n`` ends, a sign, a ``digits:`` token and
    no final line end."""
    sep = draw(st.sampled_from([" ", " ", ",", ", ", " ,\t", "\t", "  ", " \t "]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    odd = draw(st.integers(0, 3))  # how often a line is not a plain row
    blanks = st.sampled_from(["", " ", "\t", "  ", " \t "])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) < odd:
            lines.append(draw(st.sampled_from(
                ["", "  ", "\t", "# x_2, x_1", " #", ",", "+1", "digits:1.2", " ".join(["1"] * n),
                 ",".join(["1"] * n), "1,," + "1," * n])))
            continue
        count = draw(st.sampled_from([n] * 8 + [n - 1, n + 1]))
        row = draw(tokens) if count else ""
        for _ in range(count - 1):
            gap = sep if draw(st.integers(0, 9)) >= odd else draw(blanks) + sep + draw(blanks)
            row += gap + draw(tokens)
        if draw(st.integers(0, 9)) < odd:
            row = draw(st.sampled_from(["", " ", "\t "])) + row
            row += draw(st.sampled_from(["", " ", "\t"]))
        lines.append(row)
    return newline.join(lines) + draw(st.sampled_from([newline, newline, ""]))


def readings(read, path, params, parse):
    """``read(path, params)`` and the row loop's reading of ``path``, each as
    its flat values or its error message."""
    def rows():
        return list(itertools.chain.from_iterable(
            pointio._text_rows(path, path.read_bytes(), parse, params)))
    return outcome(read, path, params), outcome(rows)


class TestScanReader:
    """The scanned text readers give what the row loop gives, value for value
    and message for message."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), scanned_files(
        n, st.sampled_from(SCAN_TOKENS * 4 + SCAN_ODD)))))
    @example((2, "0 \n0"))  # a line end where a blank was: two rows of one
    @example((2, "0 1\n2"))
    @example((3, ""))
    @example((2, "1, 2\n3 ,4\n"))
    @example((2, "1,2\n,\n3,4\n"))
    def test_read_points_equals_the_row_loop(self, tmp_path_factory, drawn):
        n, text = drawn
        path = tmp_path_factory.mktemp("points") / "points.txt"
        path.write_bytes(text.encode())
        params = CurveParams(n, SCAN_LEVEL)

        def read(path, params):
            packed, size, k, source = pointio.read_points(path, params)
            values = written_values(source, n)
            assert packed == pack_bytes(values, 8 * size) and size == field_width(k) // 8
            assert k == max(values, default=0).bit_length()
            return values

        got, expected = readings(read, path, params, pointio._checked_row)
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(2, 3), (3, 20), (2, 32), (8, 8), (16, 4)]).flatmap(
        lambda nm: st.tuples(st.just(nm), scanned_files(1, st.sampled_from(
            [str(z) for z in (0, 1, 2**(nm[0] * nm[1]) - 1, 2**(nm[0] * nm[1]), 12345)] * 3
            + ["007", "00", LONG])))))
    @example(((3, 20), "5\r\n+1\r\n"))
    @example(((2, 3), "63\n64\n"))
    @example(((2, 3), "1\ndigits:0.0.1\n"))
    @example(((2, 3), ""))
    def test_read_indices_equals_the_row_loop(self, tmp_path_factory, drawn):
        (n, m), text = drawn
        path = tmp_path_factory.mktemp("indices") / "indices.txt"
        path.write_bytes(text.encode())
        params = CurveParams(n, m)

        def read(path, params):
            digits, count = pointio.read_indices(path, params)
            size = field_width(n) // 8
            values = list(struct.unpack(f"<{len(digits) // size}{'BHIQ'[size.bit_length() - 1]}",
                                        digits))
            assert len(values) == count * m
            return values

        got, expected = readings(read, path, params, pointio.parse_index)
        assert got == expected
