"""Arbitrary-dimensional Hilbert-order encoding, decoding and point sorting.

Quick start::

    from hilbertorder import CurveParams, curve_keys, curve_points, integer_to_index

    params = CurveParams(n=2, m=2)
    keys = curve_keys(params, [1, 1, 2, 3])       # two points, each x2 x1
    digits = [d for z in keys for d in integer_to_index(z, params).digits]
    points = curve_points(params, digits)         # (1, 1, 2, 3) again
"""

from .core_bits import (
    BitVec,
    Coordinate,
    CurveParams,
    HilbertIndex,
    coord_xor,
    gray_code,
    gray_code_inverse,
    index_to_integer,
    integer_to_index,
    parity_prefix,
    reflect,
    vec_of_scalar,
    vec_to_scalar,
)
from .decode import (
    curve_points,
    decode_arith,
    decode_arith_fast,
    decode_bits,
    decode_bits_fast,
    index_effective_level,
)
from .encode import (
    StepCounter,
    curve_keys,
    effective_level,
    encode_arith,
    encode_arith_fast,
    encode_bits,
    encode_bits_fast,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    HilbertError,
    PointFileError,
    ResourceLimitError,
)
from .gene import (
    EntryExit,
    GeneEntry,
    GeneTable,
    GeneValidationReport,
    cached_gene_table,
    entry_exit,
    format_table_text,
    gene_table,
    validate_gene_table,
)
from .oracle import (
    BenchmarkReport,
    CurveEnumeration,
    benchmark_records,
    enumerate_recursive,
    format_benchmark_text,
    run_counter_benchmark,
    table3_update,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "BitVec",
    "Coordinate",
    "CurveEnumeration",
    "CurveParams",
    "DimensionMismatchError",
    "DomainError",
    "EntryExit",
    "GeneEntry",
    "GeneTable",
    "GeneValidationReport",
    "HilbertError",
    "HilbertIndex",
    "PointFileError",
    "ResourceLimitError",
    "StepCounter",
    "benchmark_records",
    "cached_gene_table",
    "coord_xor",
    "curve_keys",
    "curve_points",
    "decode_arith",
    "decode_arith_fast",
    "decode_bits",
    "decode_bits_fast",
    "effective_level",
    "encode_arith",
    "encode_arith_fast",
    "encode_bits",
    "encode_bits_fast",
    "entry_exit",
    "enumerate_recursive",
    "format_benchmark_text",
    "format_table_text",
    "gene_table",
    "gray_code",
    "gray_code_inverse",
    "index_effective_level",
    "index_to_integer",
    "integer_to_index",
    "parity_prefix",
    "reflect",
    "run_counter_benchmark",
    "table3_update",
    "validate_gene_table",
    "vec_of_scalar",
    "vec_to_scalar",
]
