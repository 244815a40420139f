"""Braid codes: multiset color codes on cyclic integer grids.

Construct, serialize, verify, encode and decode block-distinguishable
color maps built by braiding repetitive codes over interlocked
sub-grids.
"""

from .core import (
    BlockSpec,
    ColorMap,
    GridSpec,
    OutOfCodingAreaError,
    PaletteEntry,
    block_points,
    canonical,
    coding_area,
    coding_area_size,
    encode,
    from_json,
    to_json,
)
from .sunmao import Decomposition1D, UnitaryDecompositionND, classify_block, synthesize, theta, theta_inv
from .generators import (
    GeneratorCode,
    SearchStatus,
    builtin,
    identity_generator,
    max_cyclic_length,
    min_colors,
    repetitive_extend,
    search_distinguishable,
)
from .braid1d import (
    BraidParams1D,
    InfeasibleError,
    construct,
    modify_general_size,
    optimize_generators,
    restrict,
    validate,
)
from .braidnd import (
    UnitaryBraidParamsND,
    construct_unitary_nd,
    extend_arbitrary_size,
    product,
    project,
)
from .codec import (
    AmbiguousDecode,
    DecodeResult,
    ErasureResult,
    NotACodeword,
    associated_matrix,
    b_matrix,
    compile_decoder,
    decode,
    decode_1d,
    decode_1d_general,
    decode_nd,
    erasure_decode,
    generalized_crt,
)
from .oracle import check_structure, count_colors, is_distinguishable, order_bench

__version__ = "0.1.0"
