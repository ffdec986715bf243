import pytest

from hilbertorder import decode
from hilbertorder.core_bits import integer_to_index
from hilbertorder.curve import CurveParams
from hilbertorder.decode import decode_arith
from hilbertorder.errors import DomainError, ResourceLimitError
from hilbertorder.gene import (
    GeneTable,
    ValidationCheck,
    entry_exit,
    format_table_text,
    gene_table,
    quadrant_commands,
    validate_gene_table,
)

from conftest import bit_vectors

# The eight two-dimensional command vectors, component 1 in slot 0.
TWO_DIM_COMMANDS = [
    ((1, 1), (0, 0)),
    ((0, 0), (0, 0)),
    ((0, 0), (0, 0)),
    ((1, 1), (1, 1)),
]


def changed(n, pairs=None, slots=None, count=None):
    """``gene_table(n)`` with the quadrants in the dicts ``pairs`` and
    ``slots`` replaced, and with only its first ``count`` exchange or
    reverse commands where ``count`` is ``(exchanges, reverses)``."""
    table = gene_table(n)
    new_pairs = [(pairs or {}).get(i, pair) for i, pair in enumerate(table.swap_pairs)]
    new_slots = [(slots or {}).get(i, rev) for i, rev in enumerate(table.reverse_slots)]
    if count is not None:
        new_pairs, new_slots = new_pairs[:count[0]], new_slots[:count[1]]
    return GeneTable(n, tuple(new_pairs), tuple(new_slots))


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
            for i in range(2**n - 1):
                leave = entry_exit(n, i).exit
                enter = entry_exit(n, i + 1).entry
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
        assert bit_vectors(table) == TWO_DIM_COMMANDS

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quadrant_zero_commands(self, n):
        exchange, reverse = bit_vectors(gene_table(n))[0]
        assert exchange == (1,) + (0,) * (n - 2) + (1,)
        assert reverse == (0,) * n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exchange_population(self, n):
        for exchange, _ in bit_vectors(gene_table(n)):
            assert sum(exchange) in (0, 2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_commands_rebuild_from_corners(self, n):
        top = tuple(1 if i == n - 1 else 0 for i in range(n))
        for i, commands in enumerate(bit_vectors(gene_table(n))):
            corner = entry_exit(n, i)
            flip = tuple(a ^ b for a, b in zip(corner.entry, corner.exit))
            exchange = tuple(a ^ b for a, b in zip(top, flip))
            assert commands == (exchange, corner.entry)

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
    @pytest.mark.parametrize("n", range(2, 14))
    def test_built_tables_hold_the_closed_form(self, n):
        assert validate_gene_table(gene_table(n)) == ValidationCheck("closed-form", True)

    @pytest.mark.parametrize("table, detail", [
        (changed(2, slots={0: (0, 1)}),
         "quadrant 0: reverse (1, 1), the closed form gives (0, 0)"),
        (changed(3, {0: (0, 1)}),
         "quadrant 0: exchange (0, 1, 1), the closed form gives (1, 0, 1)"),
        (changed(3, {2: (0, 1, 2)}),
         "quadrant 2: exchange (1, 1, 1), the closed form gives (1, 1, 0)"),
        (changed(2, count=(3, 4)), "3 exchange and 4 reverse commands, expected 4 of each"),
        (changed(2, count=(4, 3)), "4 exchange and 3 reverse commands, expected 4 of each"),
        (changed(2, {1: (0, 2)}),
         "quadrant 1: exchange (1, 0, 1), the closed form gives (0, 0)"),
        (changed(2, slots={1: (2,)}),
         "quadrant 1: reverse (1, 0, 0), the closed form gives (0, 0)"),
        (changed(2, {0: (1, 0)}),
         "quadrant 0: exchange slots (1, 0), the closed form gives slots (0, 1)"),
        (changed(2, slots={3: (0, 1, 1)}),
         "quadrant 3: reverse slots (0, 1, 1), the closed form gives slots (0, 1)"),
        # Quadrants 1 and 3 swapped whole: the walk would break, so the
        # table is refused.
        (changed(2, {1: gene_table(2).swap_pairs[3], 3: gene_table(2).swap_pairs[1]},
                 {1: gene_table(2).reverse_slots[3], 3: gene_table(2).reverse_slots[1]}),
         "quadrant 1: exchange (1, 1), the closed form gives (0, 0)"),
    ], ids=["quadrant-zero-reverse", "quadrant-zero-exchange", "three-ones-exchange",
            "exchanges", "reverses", "exchange-slot-out-of-range",
            "reverse-slot-out-of-range", "pair-out-of-order", "slot-repeated",
            "quadrants-swapped"])
    def test_closed_form_violation_reported(self, table, detail):
        assert validate_gene_table(table) == ValidationCheck("closed-form", False, detail)

    def test_walks_no_curve(self, monkeypatch):
        # The closed form alone holds the table; the curves are walked once,
        # by ``hilbert validate`` through the enumeration oracle.
        monkeypatch.setattr(decode, "decode_bits", lambda *args: pytest.fail("curve walked"))
        assert validate_gene_table(gene_table(13)) == ValidationCheck("closed-form", True)

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
        assert bit_vectors(table)[1][0] == (0, 1, 1)
        row = " ".join(format_table_text(table).splitlines()[3].split())
        assert row == "1 (1, 1, 0) (0, 0, 0)"
