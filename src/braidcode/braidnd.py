"""Product codes and unitary braid codes in n dimensions.

Colors of an n-dim product construction are tuples of per-axis factors
with no sub-grid.  The unitary braid construction assigns each sub-grid J
(a residue vector mod m) its own factor palette with per-axis periods
ell^(i)_J = g * q^(i)_J; ``project`` maps a codeword of such a palette
onto an axis by the (J, i-th factor) pair of every element.

Arbitrary grid sizes are reached by restricting each axis and, where the
block size divides the target length, recoloring one band of boundary
sub-grids with fresh factors so wrapped blocks stay identifiable.
"""

from __future__ import annotations

import itertools
import math

from .core import BlockSpec, ColorMap, GridSpec, PaletteEntry, int_tuple
from .params import (  # noqa: F401  re-exported
    UnitaryBraidParamsND, _base_colors, parse_qtable, params_of_nd,
)

FRESH = -1  # sentinel meaning "fresh factor" in internal factor tuples


def product(maps: list[ColorMap]) -> ColorMap:
    """Product of n one-dimensional maps: colors are factor tuples.

    Block-distinguishable iff every factor map is: a product codeword fixes
    each factor's.  A color is its factors' colors in mixed radix over the
    palette sizes k_i, folded one axis at a time as ``c * k_i + x``; factor
    tuples and labels run in the same order.  Flat factors give a flat grid.
    """
    if not maps:
        raise ValueError("need at least one factor map")
    if len({mp.grid.cyclic for mp in maps}) != 1:
        raise ValueError("factors mix cyclic and flat grids")
    labels, colors = [], [0]
    for i, mp in enumerate(maps):
        if mp.grid.n != 1:
            raise ValueError(f"factor {i} lies on {mp.grid.n} axes, not one")
        by_id = {e.id: e.label for e in mp.palette}
        if by_id.keys() != set(range(len(by_id))):
            raise ValueError(f"factor {i} has palette ids other than 0..{len(by_id) - 1}")
        labels.append([by_id[c] for c in range(len(by_id))])
        colors = [c * len(by_id) + x for c in colors for x in mp.colors]
    factors = itertools.product(*(range(len(names)) for names in labels))
    palette = zip(itertools.count(), itertools.repeat(None), factors,
                  map("*".join, itertools.product(*labels)))
    return ColorMap(
        grid=GridSpec(tuple(mp.grid.dims[0] for mp in maps), maps[0].grid.cyclic),
        block=BlockSpec(tuple(mp.block.dims[0] for mp in maps)),
        colors=tuple(colors),
        palette=tuple(map(PaletteEntry._make, palette)),
        params={"kind": "product", "factors": [mp.params for mp in maps]},
    )


def _base_palette(layout) -> list[PaletteEntry]:
    """One entry per factor tuple of every sub-grid, ids in layout order.

    A label joins the factors' digit strings, made once per sub-grid and
    axis and walked in step with the factor tuples; each sub-grid's
    entries are built by ``map`` over zipped fields, with no Python frame
    an entry."""
    palette = []
    for J, (offset, ells, _) in layout.items():
        prefix = "s" + "".join(map(str, J)) + "_"
        factors = itertools.product(*map(range, ells))
        digits = itertools.product(*([str(i) for i in range(e)] for e in ells))
        labels = map(prefix.__add__, map(",".join, digits))
        palette += map(PaletteEntry._make,
                       zip(itertools.count(offset), itertools.repeat(J), factors, labels))
    return palette


def construct_unitary_nd(params: UnitaryBraidParamsND) -> ColorMap:
    """Standard unitary braid code on the grid implied by the q-table.

    The colors are ``_base_colors``'s, the rule ``params_of_nd`` proves a
    map against, so the map keeps ``params`` as the value it reads, and
    its reads skip the proof."""
    dims = params.dims
    cmap = ColorMap(
        grid=GridSpec(dims),
        block=BlockSpec(params.m),
        colors=tuple(_base_colors(params, dims)),
        palette=tuple(_base_palette(params.layout)),
        params=_params_dict(params, None),
    )
    object.__setattr__(cmap, "_checked_params", params)
    return cmap


def _params_dict(params: UnitaryBraidParamsND, L: tuple[int, ...] | None) -> dict:
    d = {
        "kind": "unitary-braid-nd" if L is None else "extended-nd",
        "m": list(params.m),
        "g": params.g,
        "q": {",".join(map(str, J)): list(qs) for J, qs in sorted(params.qtable.items())},
        "M": list(params.dims),
    }
    if L is not None:
        d["L"] = list(L)
    return d


def project(cmap: ColorMap, codeword, axis: int) -> list[tuple[tuple[int, ...], int]]:
    """Axis projection of a unitary n-D codeword: (J, factor index) pairs.

    Product entries carry factors but no sub-grid J, and are refused, as
    are an id the palette lacks and an axis outside 0..n-1.  A fresh factor
    projects to index ell^(i)_J (one past the base range).
    """
    n = cmap.grid.n
    if axis not in range(n):  # -1 would index the last axis, 0.5 no factor
        raise ValueError(f"axis {axis} is not in 0..{n - 1}")
    by_id = {e.id: e for e in cmap.palette}
    out = []
    for cid in codeword:
        e = by_id.get(cid)
        if e is None:
            raise ValueError(f"color {cid} is not in the palette")
        if e.factors is None or e.subgrid is None:
            raise ValueError(f"color {cid} has no factor structure")
        out.append((e.subgrid, e.factors[axis]))
    return out


def extend_arbitrary_size(cmap: ColorMap, L: tuple[int, ...]) -> ColorMap:
    """Shrink a standard unitary braid map to target dims L.

    Per axis: plain restriction when m_i does not divide L_i (wrapped
    blocks may then collide, as on the 137x137 re-cut of the 140x140 map),
    otherwise the last aligned band of each boundary sub-grid (l; 0, ..., 0)
    gets a fresh axis factor.  Requires 2*m_i <= L_i <= M_i.  The colors
    are cut from the map, which ``params_of_nd`` proves carries the params'.
    In each slice x_i of a fresh band J is fixed, so the slice's flat
    indices and (J, factor tuple) keys are products of per-axis lists; one
    index -> key dict then gives each band point its fresh color.
    """
    params = params_of_nd(cmap)
    dims, m = params.dims, params.m
    if cmap.grid.dims != dims:  # a standard map, or an extension to the full period
        raise ValueError("extension starts from a standard unitary braid map")
    L = int_tuple(L, "target dims")
    if len(L) != params.n:
        raise ValueError(f"target L={L} needs {params.n} dims")
    for L_i, M_i, m_i in zip(L, dims, m):
        if not 2 * m_i <= L_i <= M_i:
            raise ValueError(f"need 2*m_i <= L_i <= M_i, got L={L}")

    # The box x < L of the map, one last-axis run at a time: the runs start
    # at the products of per-axis ranges scaled by the map's row-major strides.
    steps = [math.prod(dims[k + 1:]) for k in range(len(dims) - 1)]
    runs = itertools.product(*(range(0, L_k * step, step) for L_k, step in zip(L, steps)))
    colors, width = [], L[-1]
    for start in map(sum, runs):
        colors += cmap.colors[start:start + width]
    # The fresh band of axis i: its last aligned band x_i div m_i = L_i/m_i - 1
    # in the boundary sub-grids J with J_k = 0 for every other axis k.  A
    # point in the bands of several axes takes a fresh factor on each.  In a
    # slice x_i, each other axis k runs over its aligned points x_k = j*m_k,
    # of factor j mod ell_k, fresh at the last j of a fresh axis when J_i = 0.
    n = params.n
    fresh_axes = [i for i in range(n) if L[i] != dims[i] and L[i] % m[i] == 0]
    strides = [math.prod(L[k + 1:]) for k in range(n)]
    band = {}  # flat index -> (J, factor tuple)
    for i in fresh_axes:
        for x_i in range(L[i] - m[i], L[i]):
            J = tuple(x_i % m_k if k == i else 0 for k, m_k in enumerate(m))
            ells = params.ells(J)
            points, factors = [], []
            for k in range(n):
                if k == i:
                    points.append((x_i * strides[k],))
                    factors.append((FRESH,))
                    continue
                points.append(range(0, L[k] * strides[k], m[k] * strides[k]))
                f = [x // m[k] % ells[k] for x in range(0, L[k], m[k])]
                if k in fresh_axes and J[i] == 0:
                    f[-1] = FRESH
                factors.append(f)
            band.update(zip(map(sum, itertools.product(*points)),
                            zip(itertools.repeat(J), itertools.product(*factors))))
    base_total = params.color_count()
    fresh_ids = {key: base_total + c for c, key in enumerate(sorted(set(band.values())))}
    for index, key in band.items():
        colors[index] = fresh_ids[key]

    palette = _base_palette(params.layout)
    for (J, f), cid in fresh_ids.items():
        shown = tuple(e if fi == FRESH else fi for fi, e in zip(f, params.ells(J)))
        label = "s" + "".join(map(str, J)) + "_d" + ",".join(map(str, shown))
        palette.append(PaletteEntry(id=cid, subgrid=J, factors=shown, label=label))
    ext = ColorMap(
        grid=GridSpec(L),
        block=cmap.block,
        colors=tuple(colors),
        palette=tuple(palette),
        params=_params_dict(params, L),
    )
    object.__setattr__(ext, "_checked_params", params)  # only its tails, which the proof skips, differ
    return ext


def is_fresh_factor(params: UnitaryBraidParamsND, J: tuple[int, ...], axis: int, index: int) -> bool:
    """True when a palette factor index denotes the fresh color d^(axis)_J."""
    return index == params.ells(J)[axis]
