"""Product codes and unitary braid codes in n dimensions.

Colors of an n-dim product construction are tuples of per-axis factors;
a codeword projects onto each axis by taking the i-th factor of every
element.  The unitary braid construction assigns each sub-grid J (a
residue vector mod m) its own factor palette with per-axis periods
ell^(i)_J = g * q^(i)_J.

Arbitrary grid sizes are reached by restricting each axis and, where the
block size divides the target length, recoloring one band of boundary
sub-grids with fresh factors so wrapped blocks stay identifiable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import BlockSpec, ColorMap, GridSpec, PaletteEntry, int_tuple

FRESH = -1  # sentinel meaning "fresh factor" in internal factor tuples


def product(maps: list[ColorMap]) -> ColorMap:
    """Product of n one-dimensional maps: colors are factor tuples.

    The product is block-distinguishable iff every factor map is.
    Factor tuples are interned row-major over the factor id ranges.
    """
    if not maps:
        raise ValueError("need at least one factor map")
    dims = tuple(mp.grid.dims[0] for mp in maps)
    block = tuple(mp.block.dims[0] for mp in maps)
    ranges = tuple(max(e.id for e in mp.palette) + 1 for mp in maps)
    shape = GridSpec(ranges)
    grid = GridSpec(dims)
    colors = []
    for x in grid.points():
        factors = tuple(mp.colors[c] for mp, c in zip(maps, x))
        colors.append(shape.index(factors))
    palette = tuple(
        PaletteEntry(
            id=shape.index(f),
            subgrid=None,
            factors=f,
            label="*".join(mp.palette_by_id[c].label for mp, c in zip(maps, f)),
        )
        for f in shape.points()
    )
    return ColorMap(
        grid=grid,
        block=BlockSpec(block),
        colors=tuple(colors),
        palette=palette,
        params={"kind": "product", "factors": [mp.params for mp in maps]},
    )


@dataclass(frozen=True)
class UnitaryBraidParamsND:
    """Unitary n-dim braid parameters: block m, shared g, q-table.

    ``qtable[J]`` is the per-axis vector (q^(1)_J, ..., q^(n)_J) for
    sub-grid J; J runs over all residue vectors 0 <= J < m.
    """

    m: tuple[int, ...]
    g: int
    qtable: dict[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        # Stored params come from map files, where an m_i of 2.9 must not pass for 2.
        object.__setattr__(self, "m", int_tuple(self.m, "n-dim params m"))
        object.__setattr__(self, "qtable", {
            int_tuple(J, "q-table keys"): int_tuple(qs, "q-table entries")
            for J, qs in self.qtable.items()
        })
        int_tuple((self.g,), "n-dim params g")
        if self.g < 2:
            raise ValueError("g must exceed 1")
        expected = set(GridSpec(self.m).points())
        if set(self.qtable) != expected:
            raise ValueError("qtable must cover every sub-grid index J")
        for J, qs in self.qtable.items():
            if len(qs) != len(self.m) or any(q < 1 for q in qs):
                raise ValueError(f"bad q vector {qs} for J={J}")

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def Q(self) -> tuple[int, ...]:
        """Per-axis lcm of the q-table column."""
        return tuple(
            math.lcm(*(qs[i] for qs in self.qtable.values())) for i in range(self.n)
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.g * m_i * Q_i for m_i, Q_i in zip(self.m, self.Q))

    def ells(self, J: tuple[int, ...]) -> tuple[int, ...]:
        """Per-axis factor periods ell^(i)_J = g * q^(i)_J."""
        return tuple(self.g * q for q in self.qtable[J])

    def color_count(self) -> int:
        return sum(math.prod(self.ells(J)) for J in sorted(self.qtable))


def _subgrid_layout(params: UnitaryBraidParamsND) -> dict[tuple[int, ...], tuple]:
    """Per sub-grid J, in palette order: (palette offset, per-axis factor
    periods ell_J, row-major strides of the factor grid of shape ell_J)."""
    layout, offset = {}, 0
    for J in itertools.product(*(range(m_i) for m_i in params.m)):
        ells = params.ells(J)
        strides = [1] * len(ells)
        for i in reversed(range(len(ells) - 1)):
            strides[i] = strides[i + 1] * ells[i + 1]
        layout[J] = (offset, ells, tuple(strides))
        offset += math.prod(ells)
    return layout


def _base_colors(params: UnitaryBraidParamsND, layout, dims: tuple[int, ...]) -> list[int]:
    """Colors of the standard map at the points 0 <= x < dims, row-major.

    Point x lies in sub-grid J = x mod m at sub-grid position l = x div m
    and carries factor tuple f = l mod ell_J, i.e. the color
    offset_J + sum_i f_i * stride_J,i.  Along the last axis the points of
    one J form every m_n-th entry of a row, with f_n = l_n mod ell_J,n:
    one period of ell_J,n consecutive ids, tiled along the row.
    """
    m = params.m
    *outer, width = dims
    colors: list[int] = []
    for prefix in itertools.product(*(range(d) for d in outer)):
        J_outer = tuple(x % m_i for x, m_i in zip(prefix, m))
        l_outer = [x // m_i for x, m_i in zip(prefix, m)]
        row = [0] * width
        for j in range(m[-1]):
            offset, ells, strides = layout[J_outer + (j,)]
            start = offset + sum(l % e * s for l, e, s in zip(l_outer, ells, strides))
            count = len(range(j, width, m[-1]))
            row[j::m[-1]] = (list(range(start, start + ells[-1])) * (count // ells[-1] + 1))[:count]
        colors += row
    return colors


def _base_palette(layout) -> list[PaletteEntry]:
    """One entry per factor tuple of every sub-grid, ids in layout order."""
    palette = []
    for J, (offset, ells, _) in layout.items():
        prefix = "s" + "".join(map(str, J)) + "_"
        for k, f in enumerate(itertools.product(*(range(e) for e in ells))):
            palette.append(
                PaletteEntry(id=offset + k, subgrid=J, factors=f, label=prefix + ",".join(map(str, f)))
            )
    return palette


def construct_unitary_nd(params: UnitaryBraidParamsND) -> ColorMap:
    """Standard unitary braid code on the grid implied by the q-table."""
    dims = params.dims
    layout = _subgrid_layout(params)
    return ColorMap(
        grid=GridSpec(dims),
        block=BlockSpec(params.m),
        colors=tuple(_base_colors(params, layout, dims)),
        palette=tuple(_base_palette(layout)),
        params=_params_dict(params, None),
    )


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


def parse_qtable(raw: dict) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The q-table of its JSON form, {"i,j": [q_1, q_2], ...}, as
    ``_params_dict`` writes it and ``construct --qtable`` reads it."""
    return {tuple(int(t) for t in J.split(",")): tuple(qs) for J, qs in raw.items()}


def params_of_nd(cmap: ColorMap) -> UnitaryBraidParamsND:
    """Parameters an n-dim unitary braid map, or an extension, was built from.

    The grid must fit their period M: equal to it on a standard map, no
    longer on any axis of an extension, as ``braid1d.params_of`` requires.
    This is the one reader of an n-dim map's params; a field that is not
    an int raises ValueError.
    """
    p = cmap.params
    if p is None or p.get("kind") not in ("unitary-braid-nd", "extended-nd"):
        raise ValueError("not an n-dim unitary braid map")
    params = UnitaryBraidParamsND(m=tuple(p["m"]), g=p["g"], qtable=parse_qtable(p["q"]))
    dims = cmap.grid.dims
    if (len(dims) != params.n or any(L > M for L, M in zip(dims, params.dims))
            or (p["kind"] == "unitary-braid-nd" and dims != params.dims)):
        raise ValueError(f"grid {dims} does not fit the params' period M={params.dims}")
    return params


def project(cmap: ColorMap, codeword, axis: int) -> list[tuple[tuple[int, ...], int]]:
    """Axis projection of a codeword: list of (J, factor index) pairs.

    A fresh factor projects to index ell^(i)_J (one past the base range).
    """
    by_id = cmap.palette_by_id
    out = []
    for cid in codeword:
        e = by_id[cid]
        if e.factors is None or e.subgrid is None:
            raise ValueError(f"color {cid} has no factor structure")
        out.append((e.subgrid, e.factors[axis]))
    return out


def extend_arbitrary_size(cmap: ColorMap, L: tuple[int, ...]) -> ColorMap:
    """Shrink a standard unitary braid map to target dims L.

    Per axis: plain restriction when m_i does not divide L_i (wrapped
    blocks may then collide, as on the 137x137 re-cut of the 140x140 map),
    otherwise the last aligned band of each boundary sub-grid (l; 0, ..., 0)
    gets a fresh axis factor.  Requires 2*m_i <= L_i <= M_i.
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

    grid = GridSpec(L)
    layout = _subgrid_layout(params)
    colors = _base_colors(params, layout, L)
    # The fresh band of axis i: its last aligned band x_i div m_i = L_i/m_i - 1
    # in the boundary sub-grids J with J_k = 0 for every other axis k.  A
    # point in the bands of several axes takes a fresh factor on each.
    fresh_axes = [i for i in range(params.n) if L[i] != dims[i] and L[i] % m[i] == 0]
    band: dict[int, tuple] = {}
    for i in fresh_axes:
        ranges = [range(0, L_k, m_k) for L_k, m_k in zip(L, m)]
        ranges[i] = range(L[i] - m[i], L[i])
        for x in itertools.product(*ranges):
            J = tuple(c % m_k for c, m_k in zip(x, m))
            ells = layout[J][1]
            f = [c // m_k % e for c, m_k, e in zip(x, m, ells)]
            for a in fresh_axes:
                if x[a] >= L[a] - m[a] and all(J[k] == 0 for k in range(params.n) if k != a):
                    f[a] = FRESH
            band[grid.index(x)] = (J, tuple(f))
    base_total = params.color_count()
    fresh_ids = {key: base_total + n for n, key in enumerate(sorted(set(band.values())))}
    for idx, key in band.items():
        colors[idx] = fresh_ids[key]

    palette = _base_palette(layout)
    for (J, f), cid in fresh_ids.items():
        shown = tuple(e if fi == FRESH else fi for fi, e in zip(f, layout[J][1]))
        palette.append(
            PaletteEntry(
                id=cid,
                subgrid=J,
                factors=shown,
                label="s" + "".join(map(str, J)) + "_d" + ",".join(map(str, shown)),
            )
        )
    return ColorMap(
        grid=grid,
        block=cmap.block,
        colors=tuple(colors),
        palette=tuple(palette),
        params=_params_dict(params, L),
    )


def is_fresh_factor(params: UnitaryBraidParamsND, J: tuple[int, ...], axis: int, index: int) -> bool:
    """True when a palette factor index denotes the fresh color d^(axis)_J."""
    return index == params.ells(J)[axis]
