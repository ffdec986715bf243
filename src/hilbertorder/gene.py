"""Per-quadrant evolutive rules: entry/exit corners and gene commands.

A gene table holds, for every quadrant ``i`` of the unit cube, two
coordinate-transform commands that grow a level ``m`` curve out of the
level ``m - 1`` curve:

* the exchange command swaps the two flagged components (a reflection
  through the hyperplane ``x_i - x_j = 0``);
* the reverse command replaces each flagged component by its reflection
  within the current box (the hyperplane ``x_i = (2**m - 1) / 2``).

Both commands derive from the corner where the sub-curve enters the
quadrant and the corner where it leaves:

    exchange(i) = (top xor) (entry(i) xor exit(i))      with top = component n flag
    reverse(i)  = entry(i)

The corner assignment itself uses Gray-code closed forms: quadrant 0
enters at the origin, ``entry(i) = gray_code(2 * ((i - 1) // 2))`` for
``i >= 1``, and ``exit(i) = entry(2**n - 1 - i) ^ top``.  Other corner
assignments also produce valid curves in three or more dimensions; this
package pins the orientation generated by these forms.  Every table is
built from them, and :func:`validate_gene_table` holds a table to them in
one check, quadrant by quadrant against :func:`quadrant_commands` and
:func:`entry_exit`.  It walks no curve: ``hilbert validate`` walks each
level it asks for once, through the enumeration oracle.

Bit vectors here are component-indexed: tuple slot ``i`` flags
component ``i + 1``.  Rendering reverses the tuple (component ``n``
first), matching coordinate output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core_bits import BitVec, gray_code
from .curve import check_dimension
from .errors import DimensionMismatchError, DomainError, ResourceLimitError

# A table has 2**n entries; gene_table refuses dimensions above this cap.
GENE_DIMENSION_CAP = 20


@dataclass(frozen=True)
class EntryExit:
    """Corners where the curve enters and leaves one quadrant."""

    entry: BitVec
    exit: BitVec


@dataclass(frozen=True)
class GeneEntry:
    """Exchange and reverse command of one quadrant."""

    exchange: BitVec
    reverse: BitVec


@dataclass(frozen=True)
class GeneTable:
    """Commands for all ``2**n`` quadrants of one dimension.

    Instances are immutable and safe to share between threads; the
    reference variants read only the derived ``swap_pairs`` and
    ``reverse_slots``, and the batch kernels read no table.
    """

    n: int
    entries: tuple[GeneEntry, ...]
    corners: tuple[EntryExit, ...]
    swap_pairs: tuple = field(init=False, repr=False, compare=False)
    reverse_slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = []
        slots = []
        for entry in self.entries:
            flagged = tuple(i for i, bit in enumerate(entry.exchange) if bit)
            # Anything but exactly two flags is ignored here and left
            # for validate_gene_table to report.
            pairs.append(flagged if len(flagged) == 2 else None)
            slots.append(tuple(i for i, bit in enumerate(entry.reverse) if bit))
        object.__setattr__(self, "swap_pairs", tuple(pairs))
        object.__setattr__(self, "reverse_slots", tuple(slots))

    def check_dimension(self, n: int) -> None:
        """Raise :class:`DimensionMismatchError` unless the table is for dimension ``n``."""
        if self.n != n:
            raise DimensionMismatchError(
                f"gene table is for dimension {self.n}, curve dimension is {n}"
            )


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class GeneValidationReport:
    """Outcome of every gene-table check; carries failures instead of raising."""

    n: int
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def entry_exit(n: int, i: int) -> EntryExit:
    """Entry and exit corner of quadrant ``i`` for dimension ``n``."""
    check_dimension(n)
    if not 0 <= i < (1 << n):
        raise DomainError(f"quadrant {i} out of range for dimension {n}")
    return EntryExit(
        _mask_to_bits(_entry_mask(i), n),
        _mask_to_bits(_exit_mask(n, i), n),
    )


def gene_table(n: int) -> GeneTable:
    """Build the full gene table for dimension ``n``, at most ``GENE_DIMENSION_CAP``."""
    check_dimension(n)
    if n > GENE_DIMENSION_CAP:
        raise ResourceLimitError(
            f"gene table for dimension {n} exceeds the cap of {GENE_DIMENSION_CAP}"
        )
    top = 1 << (n - 1)
    entries = []
    corners = []
    for i in range(1 << n):
        e = _entry_mask(i)
        f = _exit_mask(n, i)
        entries.append(
            GeneEntry(_mask_to_bits(top ^ e ^ f, n), _mask_to_bits(e, n))
        )
        corners.append(EntryExit(_mask_to_bits(e, n), _mask_to_bits(f, n)))
    return GeneTable(n, tuple(entries), tuple(corners))


def quadrant_commands(n: int, r: int) -> tuple[int, tuple[int, int] | None]:
    """Quadrant ``r``'s reverse command as an ``n``-bit mask, and its exchange
    as ``swap_pairs`` holds it, from closed forms in ``r`` alone, in O(1):
    the entry corner ``gray((r - 1) & ~1)`` (0 at ``r = 0``), and ``(d, n - 1)``
    with ``d`` the lowest ``i >= 1`` where bit ``i`` of ``r`` differs from
    bit 0 (0 if none), or None when ``d = n - 1``."""
    y = ((r >> 1) ^ -(r & 1)) & ((1 << (n - 1)) - 1)  # bit i - 1: r_i != r_0
    d = (y & -y).bit_length()
    return _entry_mask(r), None if d == n - 1 else (d, n - 1)


def validate_gene_table(table: GeneTable) -> GeneValidationReport:
    """Hold the table to the closed forms and report the outcome.

    The one ``closed-form`` check passes only for a table of ``2**n``
    entries and ``2**n`` corner pairs whose quadrant ``r`` holds the
    commands of :func:`quadrant_commands` and the corners of
    :func:`entry_exit`.  No curve is walked here.
    """
    return GeneValidationReport(table.n, (_check_closed_form(table),))


# Every table is built from the closed form; the old cached name stays public.
cached_gene_table = gene_table


def format_table_text(table: GeneTable) -> str:
    """Human-readable dump, one quadrant per row, vectors component ``n`` first."""
    width = max(3 * table.n, len("exchange"))
    lines = [f"gene table for dimension {table.n} ({len(table.entries)} quadrants)"]
    lines.append(f"{'quadrant':<8}  {'exchange':<{width}}  reverse")
    for i, entry in enumerate(table.entries):
        lines.append(
            f"{i:<8}  {_render_bits(entry.exchange):<{width}}  {_render_bits(entry.reverse)}"
        )
    return "\n".join(lines)


def _render_bits(bits: BitVec) -> str:
    return "(" + ", ".join(str(b) for b in reversed(bits)) + ")"


def _entry_mask(i: int) -> int:
    if i == 0:
        return 0
    return gray_code(2 * ((i - 1) // 2))


def _exit_mask(n: int, i: int) -> int:
    return _entry_mask(((1 << n) - 1) - i) ^ (1 << (n - 1))


def _mask_to_bits(mask: int, n: int) -> BitVec:
    return tuple((mask >> i) & 1 for i in range(n))


def _check_closed_form(table: GeneTable) -> ValidationCheck:
    name = "closed-form"
    n, size = table.n, 1 << table.n
    if (len(table.entries), len(table.corners)) != (size, size):
        return ValidationCheck(name, False, f"{len(table.entries)} entries and "
                               f"{len(table.corners)} corner pairs, expected {size} of each")
    for r, (entry, corner) in enumerate(zip(table.entries, table.corners)):
        reverse, pair = quadrant_commands(n, r)
        exchange = _mask_to_bits(sum(1 << i for i in pair or ()), n)
        for part, held, expected in (("exchange", entry.exchange, exchange),
                                     ("reverse", entry.reverse, _mask_to_bits(reverse, n)),
                                     ("corners", corner, entry_exit(n, r))):
            if held != expected:
                return ValidationCheck(
                    name, False, f"quadrant {r}: {part} {held}, the closed form gives {expected}")
    return ValidationCheck(name, True)
