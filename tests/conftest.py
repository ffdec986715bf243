"""Reference gene tables that the codec tests hold the batch kernels to."""

from functools import cache

from hilbertorder.gene import gene_table, quadrant_commands


class CommandTable:
    """The two lookups the reference variants make in a gene table, answered
    from the closed forms of ``quadrant_commands``, which ``test_gene`` holds
    against the built tables up to n = 12.  Past that a built table takes
    over a second (n = 16), up to 24 s and 1.4 GB (n = 20)."""

    def __init__(self, n):
        self.n = n
        self.swap_pairs = _Lookup(lambda r: quadrant_commands(n, r)[1])
        self.reverse_slots = _Lookup(
            lambda r: [i for i in range(n) if quadrant_commands(n, r)[0] >> i & 1])

    def check_dimension(self, n):
        assert n == self.n


class _Lookup:
    def __init__(self, get):
        self.get = get

    def __getitem__(self, r):
        return self.get(r)


def bit_vectors(table):
    """Each quadrant's exchange and reverse command as the paper writes them:
    bit vectors, component 1 in slot 0."""
    def vector(slots):
        return tuple(int(i in slots) for i in range(table.n))

    return [(vector(pair or ()), vector(slots))
            for pair, slots in zip(table.swap_pairs, table.reverse_slots)]


@cache
def reference_table(n):
    """The built gene table up to n = 12, a :class:`CommandTable` above."""
    return gene_table(n) if n <= 12 else CommandTable(n)
