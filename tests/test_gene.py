import pytest

from hilbertorder import decode
from hilbertorder.core_bits import integer_to_index
from hilbertorder.curve import CurveParams
from hilbertorder.decode import decode_arith
from hilbertorder.errors import DomainError, ResourceLimitError
from hilbertorder.gene import (
    EntryExit,
    GeneEntry,
    GeneTable,
    _curve_walk_defect,
    entry_exit,
    format_table_text,
    gene_table,
    quadrant_commands,
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


def changed(n, entries=None, corners=None, count=None):
    """``gene_table(n)`` with the quadrants in the dicts ``entries`` and
    ``corners`` replaced, and with only its first ``count`` entries or
    corner pairs where ``count`` is ``(entries, corners)``."""
    table = gene_table(n)
    new_entries = [(entries or {}).get(i, entry) for i, entry in enumerate(table.entries)]
    new_corners = [(corners or {}).get(i, corner) for i, corner in enumerate(table.corners)]
    if count is not None:
        new_entries, new_corners = new_entries[:count[0]], new_corners[:count[1]]
    return GeneTable(n, tuple(new_entries), tuple(new_corners))


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

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            gene_table(1)


class TestQuadrantCommands:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_forms_equal_the_table(self, n):
        table = gene_table(n)
        for r in range(1 << n):
            reverse, pair = quadrant_commands(n, r)
            assert reverse == sum(1 << i for i in table.reverse_slots[r])
            assert pair == table.swap_pairs[r]


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

    @pytest.mark.parametrize("table, detail", [
        (changed(2, count=(3, 4)), "3 entries, expected 4"),
        (changed(2, count=(4, 3)), "3 corner pairs, expected 4"),
        (changed(2, {1: GeneEntry((0, 0, 0), (0, 0))}), "quadrant 1: vector of length 3"),
        (changed(2, {1: GeneEntry((0, 2), (0, 0))}), "quadrant 1: non-bit entry"),
    ], ids=["entries", "corners", "vector-length", "non-bit"])
    def test_shape_violation_reported(self, table, detail):
        named = checks_by_name(validate_gene_table(table))
        assert (named["shape"].passed, named["shape"].detail) == (False, detail)
        assert named["curve-walk-level-1"].detail == "not run: structural checks failed"

    def test_quadrant_zero_exchange_reported(self):
        named = checks_by_name(validate_gene_table(changed(3, {0: GeneEntry((1, 1, 0), (0,) * 3)})))
        assert (named["quadrant-zero"].passed, named["quadrant-zero"].detail) == (
            False, "exchange is (1, 1, 0), expected flags on components 1 and 3")

    def test_corners_more_than_one_step_apart_reported(self):
        table = changed(2, corners={1: EntryExit((0, 0), (1, 1))})
        named = checks_by_name(validate_gene_table(table))
        assert (named["corner-consistency"].passed, named["corner-consistency"].detail) == (
            False, "quadrant 1: entry and exit differ in 2 positions")

    @pytest.mark.parametrize("point, defect", [
        ((4, 0), "level 2: index 0 decodes outside the grid: (4, 0)"),
        ((1, 2), "level 2: index 1 revisits point (1, 2)"),
    ], ids=["outside-the-grid", "revisit"])
    def test_walk_defect_named(self, monkeypatch, point, defect):
        # The decoder only swaps, reflects and sets bits below level m, so
        # no table leaves the grid or revisits a point; a stub decoder does.
        monkeypatch.setattr(decode, "decode_bits", lambda idx, params, table: (point, None))
        assert _curve_walk_defect(gene_table(2), 2) == defect

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
