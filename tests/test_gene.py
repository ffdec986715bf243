import io

import pytest

from hilbertorder.core_bits import CurveParams, integer_to_index
from hilbertorder.decode import decode_arith
from hilbertorder.errors import (
    DomainError,
    GeneTableFormatError,
    GeneTableValidationError,
    ResourceLimitError,
)
from hilbertorder import gene
from hilbertorder.gene import (
    CACHE_MAGIC,
    GeneEntry,
    GeneTable,
    entry_exit,
    format_table_text,
    gene_table,
    load_table,
    save_table,
    validate_gene_table,
)

# The eight two-dimensional command vectors, component 1 in slot 0.
TWO_DIM_COMMANDS = [
    ((1, 1), (0, 0)),
    ((0, 0), (0, 0)),
    ((0, 0), (0, 0)),
    ((1, 1), (1, 1)),
]


def checks_by_name(report):
    return {check.name: check for check in report.checks}


class TestEntryExit:
    def test_quadrant_zero_corners(self):
        for n in range(2, 8):
            corner = entry_exit(n, 0)
            assert corner.entry == (0,) * n
            # exit flags component 1 only
            assert corner.exit == (1,) + (0,) * (n - 1)

    def test_two_dim_quadrant_three_commands(self):
        corner = entry_exit(2, 3)
        flip = tuple(a ^ b for a, b in zip(corner.entry, corner.exit))
        top = (0, 1)
        exchange = tuple(a ^ b for a, b in zip(top, flip))
        assert exchange == (1, 1)
        assert corner.entry == (1, 1)  # reverse command equals the entry corner

    def test_neighbouring_corners_touch(self):
        # exit of quadrant i and entry of quadrant i+1 differ in exactly
        # one component, the axis along which the walk crosses.
        for n in range(2, 7):
            table = gene_table(n)
            for i in range(2**n - 1):
                leave = table.corners[i].exit
                enter = table.corners[i + 1].entry
                assert sum(a ^ b for a, b in zip(leave, enter)) == 1

    def test_quadrant_out_of_range(self):
        with pytest.raises(DomainError):
            entry_exit(2, 4)
        with pytest.raises(DomainError):
            entry_exit(2, -1)
        with pytest.raises(DomainError):
            entry_exit(1, 0)


class TestGeneTable:
    def test_two_dim_commands_exact(self):
        table = gene_table(2)
        assert [(e.exchange, e.reverse) for e in table.entries] == TWO_DIM_COMMANDS

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quadrant_zero_commands(self, n):
        table = gene_table(n)
        assert table.entries[0].exchange == (1,) + (0,) * (n - 2) + (1,)
        assert table.entries[0].reverse == (0,) * n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exchange_population(self, n):
        for entry in gene_table(n).entries:
            assert sum(entry.exchange) in (0, 2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_commands_rebuild_from_corners(self, n):
        table = gene_table(n)
        top = tuple(1 if i == n - 1 else 0 for i in range(n))
        for i, corner in enumerate(table.corners):
            assert corner == entry_exit(n, i)
            flip = tuple(a ^ b for a, b in zip(corner.entry, corner.exit))
            exchange = tuple(a ^ b for a, b in zip(top, flip))
            assert table.entries[i].exchange == exchange
            assert table.entries[i].reverse == corner.entry

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            gene_table(21)
        with pytest.raises(ResourceLimitError):
            gene_table(4, max_dimension=3)

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            gene_table(1)


class TestValidation:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_built_tables_pass(self, n):
        report = validate_gene_table(gene_table(n))
        assert report.passed
        assert report.failures() == ()

    def test_quadrant_zero_violation_reported(self):
        table = gene_table(2)
        entries = list(table.entries)
        entries[0] = GeneEntry(entries[0].exchange, (1, 1))
        broken = GeneTable(2, tuple(entries), table.corners)
        report = validate_gene_table(broken)
        assert not report.passed
        assert not checks_by_name(report)["quadrant-zero"].passed

    def test_three_ones_exchange_reported(self):
        table = gene_table(3)
        entries = list(table.entries)
        entries[2] = GeneEntry((1, 1, 1), entries[2].reverse)
        broken = GeneTable(3, tuple(entries), table.corners)
        report = validate_gene_table(broken)
        assert not checks_by_name(report)["exchange-population"].passed

    def test_bad_walk_reported(self):
        # Swapping the commands of two quadrants keeps the structure
        # legal but breaks the curve itself.
        table = gene_table(2)
        entries = list(table.entries)
        entries[1], entries[3] = entries[3], entries[1]
        corners = list(table.corners)
        corners[1], corners[3] = corners[3], corners[1]
        broken = GeneTable(2, tuple(entries), tuple(corners))
        report = validate_gene_table(broken)
        named = checks_by_name(report)
        assert not report.passed
        assert not named["curve-walk-level-2"].passed

    def test_level_two_walk_skipped_above_guard(self):
        report = validate_gene_table(gene_table(13))
        named = checks_by_name(report)
        assert report.passed
        assert named["curve-walk-level-1"].passed
        assert named["curve-walk-level-1"].detail == ""
        assert named["curve-walk-level-2"].detail.startswith("skipped")

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3)])
    def test_full_curve_walk_beyond_validator_levels(self, n, m):
        # Bijection and unit steps hold at level 3 as well.
        table = gene_table(n)
        params = CurveParams(n, m)
        seen = set()
        prev = None
        for z in range(2 ** (n * m)):
            point, _ = decode_arith(integer_to_index(z, params), params, table)
            assert point not in seen
            seen.add(point)
            if prev is not None:
                assert sum(abs(a - b) for a, b in zip(prev, point)) == 1
            prev = point
        assert len(seen) == 2 ** (n * m)


class TestPersistence:
    def test_round_trip_path(self, tmp_path):
        table = gene_table(3)
        target = tmp_path / "table.bin"
        save_table(table, target)
        assert load_table(target) == table

    def test_round_trip_stream(self):
        table = gene_table(4)
        buffer = io.BytesIO()
        save_table(table, buffer)
        buffer.seek(0)
        assert load_table(buffer) == table

    def test_truncated_payload(self, tmp_path):
        table = gene_table(3)
        target = tmp_path / "table.bin"
        save_table(table, target)
        target.write_bytes(target.read_bytes()[:-1])
        with pytest.raises(GeneTableFormatError):
            load_table(target)

    def test_bad_magic(self):
        with pytest.raises(GeneTableFormatError):
            load_table(io.BytesIO(b"NOPE" + bytes(10)))

    def test_version_mismatch(self, tmp_path):
        table = gene_table(2)
        target = tmp_path / "table.bin"
        save_table(table, target)
        blob = bytearray(target.read_bytes())
        blob[len(CACHE_MAGIC)] = 99
        target.write_bytes(bytes(blob))
        with pytest.raises(GeneTableFormatError):
            load_table(target)

    @pytest.mark.parametrize("record_half", [0, 1])  # exchange byte, reverse byte
    def test_edited_bit_fails_validation(self, tmp_path, record_half):
        table = gene_table(3)
        target = tmp_path / "table.bin"
        save_table(table, target)
        blob = bytearray(target.read_bytes())
        header = len(CACHE_MAGIC) + 1 + 2
        blob[header + 2 * 1 + record_half] ^= 0b001  # quadrant 1
        target.write_bytes(bytes(blob))
        with pytest.raises(GeneTableValidationError):
            load_table(target)

    def test_every_payload_bit_is_checked(self):
        # Padding bits included: the payload must equal the pinned table.
        buffer = io.BytesIO()
        save_table(gene_table(3), buffer)
        blob = buffer.getvalue()
        header = len(CACHE_MAGIC) + 1 + 2
        for bit in range(8 * header, 8 * len(blob)):
            edited = bytearray(blob)
            edited[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(GeneTableValidationError):
                load_table(io.BytesIO(bytes(edited)))

    def test_load_runs_no_curve_walk(self, monkeypatch):
        def refuse(table):
            raise AssertionError("load_table called validate_gene_table")

        monkeypatch.setattr(gene, "validate_gene_table", refuse)
        buffer = io.BytesIO()
        save_table(gene_table(5), buffer)
        buffer.seek(0)
        assert load_table(buffer) == gene_table(5)

    def test_trailing_bytes_rejected(self, tmp_path):
        table = gene_table(2)
        target = tmp_path / "table.bin"
        save_table(table, target)
        target.write_bytes(target.read_bytes() + b"\x00")
        with pytest.raises(GeneTableFormatError):
            load_table(target)


class TestTextDump:
    def test_two_dim_rows(self):
        lines = format_table_text(gene_table(2)).splitlines()
        rows = [" ".join(line.split()) for line in lines[2:]]
        assert rows == [
            "0 (1, 1) (0, 0)",
            "1 (0, 0) (0, 0)",
            "2 (0, 0) (0, 0)",
            "3 (1, 1) (1, 1)",
        ]

    def test_vectors_render_highest_component_first(self):
        # Quadrant 1 of dimension 3 exchanges components 2 and 3, so the
        # storage tuple (0, 1, 1) must print as (1, 1, 0).
        table = gene_table(3)
        assert table.entries[1].exchange == (0, 1, 1)
        row = " ".join(format_table_text(table).splitlines()[3].split())
        assert row == "1 (1, 1, 0) (0, 0, 0)"
