"""Point files through the command line: read once, written whole.

Every test here drives ``cli.main`` only, so it holds for any layout of
the reading and writing code.
"""

import contextlib
import os
import stat
import struct
import threading
import time

import pytest

from hilbertorder.cli import main

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
