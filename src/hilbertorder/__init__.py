"""Arbitrary-dimensional Hilbert-order encoding, decoding and point sorting.

Quick start::

    from hilbertorder import CurveParams, curve_keys, curve_points, integer_to_index

    params = CurveParams(n=2, m=2)
    keys = curve_keys(params, [1, 1, 2, 3])       # two points, each x2 x1
    digits = [d for z in keys for d in integer_to_index(z, params).digits]
    points = curve_points(params, digits)         # (1, 1, 2, 3) again

Each public name is imported from its module on first use, so importing
one module, such as the command line's, loads none of the others.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each module; ``__all__`` and the lookup derive from it.
_EXPORTS = {
    "core_bits": "BitVec Coordinate HilbertIndex coord_xor gray_code gray_code_inverse "
                 "index_to_integer integer_to_index parity_prefix reflect vec_of_scalar "
                 "vec_to_scalar",
    "curve": "CurveParams curve_keys curve_points",
    "decode": "decode_arith decode_arith_fast decode_bits decode_bits_fast "
              "index_effective_level",
    "encode": "StepCounter effective_level encode_arith encode_arith_fast encode_bits "
              "encode_bits_fast",
    "errors": "DimensionMismatchError DomainError HilbertError PointFileError "
              "ResourceLimitError",
    "gene": "EntryExit GeneTable ValidationCheck cached_gene_table entry_exit "
            "format_table_text gene_table validate_gene_table",
    "oracle": "BenchmarkReport benchmark_records enumerate_recursive "
              "format_benchmark_text run_counter_benchmark table3_update",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
