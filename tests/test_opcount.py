"""The bytecode counter of ``scripts/opcount.py``, and what it shows: a
decode and an encode cost the same bytecodes on maps of one shape,
whatever their size."""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from braidcode import codec
from braidcode.braid1d import BraidParams1D, construct
from braidcode.braidnd import UnitaryBraidParamsND, construct_unitary_nd
from braidcode.core import encode, from_json, to_json

_spec = importlib.util.spec_from_file_location(
    "opcount", Path(__file__).resolve().parent.parent / "scripts" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


def _unitary_1d(M, q):
    return construct(BraidParams1D(M=M, parts=(1, 1), g=2, c=(1, 1), q=q))


def _unitary_2d(qtable):
    return construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=qtable))


SHAPES = {
    "two-part unitary 1D": {
        "1d-24": lambda: _unitary_1d(24, (2, 3)),
        "1d-4620": lambda: _unitary_1d(4620, (15, 77)),
        "1d-41612": lambda: _unitary_1d(41612, (101, 103)),
    },
    "unitary 2D, 2x2 blocks": {
        "2d-24": lambda: _unitary_2d({(0, 0): (1, 3), (0, 1): (2, 1), (1, 0): (1, 2), (1, 1): (3, 1)}),
        "2d-140": lambda: _unitary_2d({(0, 0): (5, 7), (0, 1): (7, 5), (1, 0): (1, 5), (1, 1): (7, 1)}),
    },
}


@pytest.mark.parametrize("shape", SHAPES)
def test_decode_and_encode_cost_the_same_bytecodes_on_every_map_of_one_shape(shape):
    # Closed form: the fewest and the most bytecodes over 200 seeded tags are
    # the same on every map of the shape, from 24 points per axis up.  The
    # maps are compared with each other, so no count is pinned.
    ranges = {}
    for name, build in SHAPES[shape].items():
        cmap = build()
        codec.compile_decoder(cmap)
        tags = opcount.tags(cmap, 200, seed=1)
        decodes = [opcount.count(codec.decode, cmap, encode(cmap, t)) for t in tags]
        encodes = [opcount.count(encode, cmap, t) for t in tags]
        ranges[name] = (min(decodes), max(decodes), min(encodes), max(encodes))
    assert len(set(ranges.values())) == 1, ranges


@pytest.mark.parametrize("shape", SHAPES)
def test_compiling_a_constructed_map_skips_the_proof_its_loaded_copy_makes(shape):
    # the largest map of the shape; the proof is the one step of the compile that
    # walks the map's colors, so only the loaded copy pays it
    build = list(SHAPES[shape].values())[-1]
    built, loaded = build(), from_json(to_json(build()))
    assert opcount.count(codec.compile_decoder, built) < opcount.count(codec.compile_decoder, loaded)


def test_compiling_a_constructed_1d_map_costs_the_same_bytecodes_on_every_size():
    # the decode tables come built with the map's params; the parent built them
    # at compile, in 3,288 bytecodes on 1d-4620 and 6,424 on 1d-41612
    counts = {name: opcount.count(codec.compile_decoder, build())
              for name, build in SHAPES["two-part unitary 1D"].items()}
    assert len(set(counts.values())) == 1, counts


def test_the_counter_chains_to_the_tracer_set_before_and_restores_it(m24):
    w = encode(m24, (7,))
    codec.compile_decoder(m24)
    alone = opcount.count(codec.decode, m24, w)
    lines = []

    def line_tracer(frame, event, arg):
        if event == "opcode":
            raise AssertionError("an opcode event reached the chained tracer")
        if event == "line" and frame.f_code.co_name == "_decide":
            lines.append(frame.f_lineno)
        return line_tracer

    before = sys.gettrace()
    sys.settrace(line_tracer)
    try:
        chained = opcount.count(codec.decode, m24, w)
        after = sys.gettrace()
    finally:
        sys.settrace(before)
    assert after is line_tracer
    assert chained == alone > 0
    assert lines  # the chained tracer saw the decode's lines
    assert gc.isenabled()


def test_a_count_takes_in_every_callee():
    def inner():
        return sum(range(3))

    def outer():
        return inner() + inner()

    assert opcount.count(outer) > 2 * opcount.count(inner) > 0
