"""Shared fixtures: small reference maps used across the test modules."""

import pytest

from braidcode import braid1d, braidnd
from braidcode.core import BlockSpec, ColorMap, GridSpec, PaletteEntry, replace
from braidcode.sunmao import Decomposition1D


@pytest.fixture(scope="session")
def m24():
    """1D unitary braid map on a 24-point cyclic grid (g=2, q=(2,3))."""
    params = braid1d.BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))
    return braid1d.construct(params)


@pytest.fixture(scope="session")
def example_sets():
    """The three reference parameterizations of the 75-point grid with parts (2,3)."""
    return [
        braid1d.BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5)),
        braid1d.BraidParams1D(M=75, parts=(2, 3), g=3, c=(1, 3), q=(1, 5)),
        braid1d.BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1)),
    ]


def with_generators(cmap, gens):
    """Standard 1D map ``cmap`` with its stored generators' colors replaced by
    the id lists ``gens`` and its colors rebuilt to obey them by the per-point
    rule: point j*m + d_i + r carries gens[i][(j*m_i + r) mod ell_i].  It builds
    no ``Window1D``, which refuses generators that are not distinguishable or
    share an id, so such generators can be stored in a map the reader refuses."""
    dec = Decomposition1D(cmap.grid.dims[0], tuple(cmap.params["parts"]))
    colors = []
    for x in range(dec.M):
        i, j, r = dec.split(x)
        colors.append(gens[i][(j * dec.parts[i] + r) % len(gens[i])])
    stored = [dict(gen, colors=list(ids)) for gen, ids in zip(cmap.params["gens"], gens)]
    return replace(cmap, colors=tuple(colors), params=dict(cmap.params, gens=stored))


FIG1_QTABLE = {(0, 0): (1, 3), (0, 1): (2, 1), (1, 0): (1, 2), (1, 1): (3, 1)}


@pytest.fixture(scope="session")
def fig_map():
    """2D unitary braid map on a 24x24 grid with 2x2 blocks and 40 colors."""
    params = braidnd.UnitaryBraidParamsND(m=(2, 2), g=2, qtable=FIG1_QTABLE)
    return braidnd.construct_unitary_nd(params)


def _edge_map(dims, block, cyclic, colors):
    return ColorMap(GridSpec(dims, cyclic), BlockSpec(block), tuple(colors),
                    tuple(PaletteEntry(c, label=f"c{c}") for c in sorted(set(colors))))


# 4 rows of 5 colors over ids 10-13, so that blocks of every shape collide.
_ROWS = (10, 11, 12, 10, 13, 11, 10, 12, 13, 10, 12, 12, 13, 11, 10, 13, 10, 11, 12, 12)


@pytest.fixture(scope="session")
def edge_maps():
    """Hand-made maps on the edge paths of the oracle and the JSON writer:
    one point (one color id, of two digits), and 2D grids with a block of
    size 1 on one axis, cyclic and flat."""
    return {
        "one-point": _edge_map((1,), (1,), True, (42,)),
        "one-point-flat": _edge_map((1,), (1,), False, (42,)),
        "2d-block-2x1": _edge_map((4, 5), (2, 1), True, _ROWS),
        "2d-block-2x1-flat": _edge_map((4, 5), (2, 1), False, _ROWS),
        "2d-block-1x2": _edge_map((4, 5), (1, 2), True, _ROWS),
        "2d-block-1x2-flat": _edge_map((4, 5), (1, 2), False, _ROWS),
        "2d-block-1x1": _edge_map((4, 5), (1, 1), True, _ROWS),
        "2d-distinct-1x2": _edge_map((3, 4), (1, 2), True, range(20, 32)),
        "2d-distinct-2x1-flat": _edge_map((3, 4), (2, 1), False, range(20, 32)),
    }
