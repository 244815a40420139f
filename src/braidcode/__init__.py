"""Braid codes: multiset color codes on cyclic integer grids.

Construct, serialize, verify, encode and decode block-distinguishable
color maps built by braiding repetitive codes over interlocked
sub-grids.

``import braidcode`` loads no submodule.  Each public name below is
resolved on first use, by importing its home module, and then cached
here; ``braidcode.codec`` and the other submodules resolve the same way.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports here
_EXPORTS = {
    "core": (
        "BlockSpec", "ColorMap", "GridSpec", "NotACodeword", "OutOfCodingAreaError",
        "PaletteEntry", "block_points", "canonical", "coding_area", "coding_area_size",
        "encode", "format_codeword", "from_json", "parse_codeword", "to_json",
    ),
    "sunmao": (
        "Decomposition1D", "UnitaryDecompositionND", "classify_block", "synthesize", "theta",
        "theta_inv",
    ),
    "generators": (
        "GeneratorCode", "SearchStatus", "builtin", "identity_generator", "max_cyclic_length",
        "min_colors", "repetitive_extend", "search_distinguishable",
    ),
    "braid1d": (
        "BraidParams1D", "InfeasibleError", "construct", "modify_general_size",
        "optimize_generators", "restrict", "validate",
    ),
    "braidnd": (
        "UnitaryBraidParamsND", "construct_unitary_nd", "extend_arbitrary_size", "product",
        "project",
    ),
    "codec": (
        "AmbiguousDecode", "DecodeResult", "ErasureResult", "associated_matrix", "b_matrix",
        "compile_decoder", "decode", "decode_1d", "decode_1d_general", "decode_nd",
        "erasure_decode", "generalized_crt",
    ),
    "oracle": ("check_structure", "count_colors", "is_distinguishable", "order_bench"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
