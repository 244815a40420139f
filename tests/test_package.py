"""The package namespace: lazy, complete, and the same objects as the modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidcode

# every name ``braidcode`` exported when its __init__ imported each module eagerly
EAGER_EXPORTS = {
    "BlockSpec", "ColorMap", "GridSpec", "OutOfCodingAreaError", "PaletteEntry", "block_points",
    "canonical", "coding_area", "coding_area_size", "encode", "from_json", "to_json",
    "Decomposition1D", "UnitaryDecompositionND", "classify_block", "synthesize", "theta",
    "theta_inv", "GeneratorCode", "SearchStatus", "builtin", "identity_generator",
    "max_cyclic_length", "min_colors", "repetitive_extend", "search_distinguishable",
    "BraidParams1D", "InfeasibleError", "construct", "modify_general_size",
    "optimize_generators", "restrict", "validate", "UnitaryBraidParamsND",
    "construct_unitary_nd", "extend_arbitrary_size", "product", "project", "AmbiguousDecode",
    "DecodeResult", "ErasureResult", "NotACodeword", "associated_matrix", "b_matrix",
    "compile_decoder", "decode", "decode_1d", "decode_1d_general", "decode_nd",
    "erasure_decode", "generalized_crt", "check_structure", "count_colors",
    "is_distinguishable", "order_bench",
}


def test_every_eager_export_is_still_exported():
    assert EAGER_EXPORTS <= set(braidcode.__all__)


@pytest.mark.parametrize("name", braidcode.__all__)
def test_a_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"braidcode.{braidcode._HOME[name]}")
    assert getattr(braidcode, name) is getattr(home, name)


def test_the_codeword_helpers_and_error_stay_on_the_codec():
    from braidcode import codec, core

    for name in ("NotACodeword", "format_codeword", "parse_codeword"):
        assert getattr(codec, name) is getattr(core, name)


def test_dir_lists_every_export():
    assert set(braidcode.__all__) <= set(dir(braidcode))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from braidcode import *", namespace)
    assert set(braidcode.__all__) <= namespace.keys()
    assert namespace["decode"] is braidcode.codec.decode


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        braidcode.no_such_name
    with pytest.raises(ImportError):
        from braidcode import no_such_name  # noqa: F401


def test_import_loads_no_submodule_until_a_name_is_used():
    src = Path(braidcode.__file__).resolve().parents[1]
    script = (
        "import sys, braidcode\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('braidcode.'))\n"
        "print(loaded())\n"
        "braidcode.encode\n"
        "print(loaded())\n"
        "braidcode.oracle.is_distinguishable\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['braidcode.core']",
        "['braidcode.core', 'braidcode.oracle']",
    ]
