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
    ValidationCheck,
    _check_closed_form,
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

    @pytest.mark.parametrize("n", range(2, 14))
    def test_built_tables_hold_the_closed_form(self, n):
        assert _check_closed_form(gene_table(n)) == ValidationCheck("closed-form", True)

    @pytest.mark.parametrize("table, detail", [
        (changed(2, {0: GeneEntry((1, 1), (1, 1))}),
         "quadrant 0: reverse (1, 1), the closed form gives (0, 0)"),
        (changed(3, {0: GeneEntry((1, 1, 0), (0,) * 3)}),
         "quadrant 0: exchange (1, 1, 0), the closed form gives (1, 0, 1)"),
        (changed(3, {2: GeneEntry((1, 1, 1), (0, 0, 0))}),
         "quadrant 2: exchange (1, 1, 1), the closed form gives (0, 1, 1)"),
        (changed(2, count=(3, 4)), "3 entries and 4 corner pairs, expected 4 of each"),
        (changed(2, count=(4, 3)), "4 entries and 3 corner pairs, expected 4 of each"),
        (changed(2, {1: GeneEntry((0, 0, 0), (0, 0))}),
         "quadrant 1: exchange (0, 0, 0), the closed form gives (0, 0)"),
        (changed(2, {1: GeneEntry((0, 2), (0, 0))}),
         "quadrant 1: exchange (0, 2), the closed form gives (0, 0)"),
        (changed(2, corners={1: EntryExit((0, 0), (1, 1))}),
         "quadrant 1: corners EntryExit(entry=(0, 0), exit=(1, 1)), "
         "the closed form gives EntryExit(entry=(0, 0), exit=(0, 1))"),
        # Quadrants 1 and 3 swapped whole: each entry still agrees with its
        # own corners, but the walk would break, so the table is refused.
        (changed(2, {1: gene_table(2).entries[3], 3: gene_table(2).entries[1]},
                 {1: gene_table(2).corners[3], 3: gene_table(2).corners[1]}),
         "quadrant 1: exchange (1, 1), the closed form gives (0, 0)"),
    ], ids=["quadrant-zero-reverse", "quadrant-zero-exchange", "three-ones-exchange",
            "entries", "corners", "vector-length", "non-bit", "corners-two-steps-apart",
            "quadrants-swapped"])
    def test_closed_form_violation_reported(self, table, detail):
        report = validate_gene_table(table)
        assert report.checks == (ValidationCheck("closed-form", False, detail),)
        assert not report.passed

    def test_walks_no_curve(self, monkeypatch):
        # The closed form alone holds the table; the curves are walked once,
        # by ``hilbert validate`` through the enumeration oracle.
        monkeypatch.setattr(decode, "decode_bits", lambda *args: pytest.fail("curve walked"))
        report = validate_gene_table(gene_table(13))
        assert report.checks == (ValidationCheck("closed-form", True),)

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
