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
built from them, and :func:`validate_gene_table` holds a table, quadrant
by quadrant, to the second derivation of :func:`quadrant_commands`, the
one the batch kernels use.  It walks no curve: ``hilbert validate`` walks
each level it asks for once, through the enumeration oracle.

A table stores each command as the reference variants read it: the
exchange as the pair of component slots it swaps (None for no swap), the
reverse as the slots it reflects.  Slot ``i`` is component ``i + 1``.
The paper's bit vectors are drawn from them only to be printed, with
component ``n`` first, matching coordinate output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
class GeneTable:
    """Commands for all ``2**n`` quadrants of one dimension: quadrant ``r``
    swaps the slots ``swap_pairs[r]`` and reflects the slots ``reverse_slots[r]``.

    Instances are immutable and safe to share between threads; the batch
    kernels read no table.
    """

    n: int
    swap_pairs: tuple[tuple[int, int] | None, ...]
    reverse_slots: tuple[tuple[int, ...], ...]

    def check_dimension(self, n: int) -> None:
        """Raise :class:`DimensionMismatchError` unless the table is for dimension ``n``."""
        if self.n != n:
            raise DimensionMismatchError(
                f"gene table is for dimension {self.n}, curve dimension is {n}"
            )


@dataclass(frozen=True)
class ValidationCheck:
    """Outcome of one check: its name, whether it passed, and why not."""

    name: str
    passed: bool
    detail: str = ""


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
    slots = cache(_slots)  # one tuple per command, shared by the quadrants holding it
    entry = [_entry_mask(i) for i in range(1 << n)]  # each quadrant's entry corner
    pairs = tuple(slots(top ^ e ^ _exit_mask(n, i)) or None for i, e in enumerate(entry))
    return GeneTable(n, pairs, tuple(map(slots, entry)))


def quadrant_commands(n: int, r: int) -> tuple[int, tuple[int, int] | None]:
    """Quadrant ``r``'s reverse command as an ``n``-bit mask, and its exchange
    as ``swap_pairs`` holds it, from closed forms in ``r`` alone, in O(1):
    the entry corner ``gray((r - 1) & ~1)`` (0 at ``r = 0``), and ``(d, n - 1)``
    with ``d`` the lowest ``i >= 1`` where bit ``i`` of ``r`` differs from
    bit 0 (0 if none), or None when ``d = n - 1``."""
    y = ((r >> 1) ^ -(r & 1)) & ((1 << (n - 1)) - 1)  # bit i - 1: r_i != r_0
    d = (y & -y).bit_length()
    return _entry_mask(r), None if d == n - 1 else (d, n - 1)


def validate_gene_table(table: GeneTable) -> ValidationCheck:
    """Hold the table to the closed forms of :func:`quadrant_commands`.

    The ``gene-closed-form`` check passes only for a table of ``2**n``
    quadrants, each holding the commands of the closed forms; a failure
    names the first quadrant that does not.  No curve is walked here.
    """
    name, n, size = "gene-closed-form", table.n, 1 << table.n
    exchanges, reverses = len(table.swap_pairs), len(table.reverse_slots)
    if (exchanges, reverses) != (size, size):
        return ValidationCheck(name, False, f"{exchanges} exchange and {reverses} reverse "
                               f"commands, expected {size} of each")
    for r, (pair, slots) in enumerate(zip(table.swap_pairs, table.reverse_slots)):
        reverse, swap = quadrant_commands(n, r)
        for part, held, given in (("exchange", pair or (), swap or ()),
                                  ("reverse", slots, _slots(reverse))):
            if held != given:
                shown = _render(held, n), _render(given, n)
                if shown[0] == shown[1]:  # the same flags, repeated or out of order
                    shown = f"slots {held}", f"slots {given}"
                return ValidationCheck(name, False, f"quadrant {r}: {part} {shown[0]}, "
                                       f"the closed form gives {shown[1]}")
    return ValidationCheck(name, True)


# Every table is built from the closed form; the old cached name stays public.
cached_gene_table = gene_table


def format_table_text(table: GeneTable) -> str:
    """Human-readable dump, one quadrant per row, vectors component ``n`` first."""
    n = table.n
    width = max(3 * n, len("exchange"))
    lines = [f"gene table for dimension {n} ({len(table.swap_pairs)} quadrants)"]
    lines.append(f"{'quadrant':<8}  {'exchange':<{width}}  reverse")
    for i, (pair, slots) in enumerate(zip(table.swap_pairs, table.reverse_slots)):
        lines.append(f"{i:<8}  {_render(pair or (), n):<{width}}  {_render(slots, n)}")
    return "\n".join(lines)


def _render(slots: tuple[int, ...], n: int) -> str:
    """The paper's bit vector flagging ``slots``, component ``n`` first; it
    grows past ``n`` components to show a slot out of range."""
    top = max((n - 1, *slots))
    return "(" + ", ".join(str(int(i in slots)) for i in range(top, -1, -1)) + ")"


def _entry_mask(i: int) -> int:
    if i == 0:
        return 0
    return gray_code(2 * ((i - 1) // 2))


def _exit_mask(n: int, i: int) -> int:
    return _entry_mask(((1 << n) - 1) - i) ^ (1 << (n - 1))


def _mask_to_bits(mask: int, n: int) -> BitVec:
    return tuple((mask >> i) & 1 for i in range(n))


def _slots(mask: int) -> tuple[int, ...]:
    """The slots of the components ``mask`` flags, lowest first."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
