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

import math
from dataclasses import dataclass

from .core import BlockSpec, ColorMap, GridSpec, PaletteEntry, Point
from .sunmao import UnitaryDecompositionND

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
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(
            self,
            "qtable",
            {tuple(k): tuple(int(v) for v in vs) for k, vs in self.qtable.items()},
        )
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


def _subgrid_order(params: UnitaryBraidParamsND) -> list[tuple[int, ...]]:
    return list(GridSpec(params.m).points())


def _palette_offsets(params: UnitaryBraidParamsND) -> dict[tuple[int, ...], int]:
    offsets, acc = {}, 0
    for J in _subgrid_order(params):
        offsets[J] = acc
        acc += math.prod(params.ells(J))
    return offsets


def base_factors_at(params: UnitaryBraidParamsND, x: Point) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(J, factor tuple) of the standard map at point x."""
    dec = UnitaryDecompositionND(params.dims, params.m)
    J, l = dec.split(x)
    ells = params.ells(J)
    return J, tuple(li % e for li, e in zip(l, ells))


def construct_unitary_nd(params: UnitaryBraidParamsND) -> ColorMap:
    """Standard unitary braid code on the grid implied by the q-table."""
    grid = GridSpec(params.dims)
    offsets = _palette_offsets(params)
    colors = []
    for x in grid.points():
        J, f = base_factors_at(params, x)
        colors.append(offsets[J] + GridSpec(params.ells(J)).index(f))
    palette = []
    for J in _subgrid_order(params):
        shape = GridSpec(params.ells(J))
        for f in shape.points():
            palette.append(
                PaletteEntry(
                    id=offsets[J] + shape.index(f),
                    subgrid=J,
                    factors=f,
                    label="s" + "".join(map(str, J)) + "_" + ",".join(map(str, f)),
                )
            )
    return ColorMap(
        grid=grid,
        block=BlockSpec(params.m),
        colors=tuple(colors),
        palette=tuple(palette),
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


def params_of_nd(cmap: ColorMap) -> UnitaryBraidParamsND:
    p = cmap.params
    if p is None or p.get("kind") not in ("unitary-braid-nd", "extended-nd"):
        raise ValueError("not an n-dim unitary braid map")
    qtable = {
        tuple(int(t) for t in key.split(",")): tuple(qs) for key, qs in p["q"].items()
    }
    return UnitaryBraidParamsND(m=tuple(p["m"]), g=p["g"], qtable=qtable)


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


def extended_factors_at(
    params: UnitaryBraidParamsND, L: tuple[int, ...], x: Point
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(J, factors) at x on the size-L extension; FRESH marks fresh factors."""
    J, f = base_factors_at(params, x)
    f = list(f)
    for i, (L_i, M_i, m_i) in enumerate(zip(L, params.dims, params.m)):
        if L_i == M_i or L_i % m_i != 0:
            continue
        if any(J[k] != 0 for k in range(params.n) if k != i):
            continue
        if x[i] // m_i == L_i // m_i - 1:
            f[i] = FRESH
    return J, tuple(f)


def extend_arbitrary_size(cmap: ColorMap, L: tuple[int, ...]) -> ColorMap:
    """Shrink a standard unitary braid map to target dims L.

    Per axis: plain restriction when m_i does not divide L_i (wrapped
    blocks are then identifiable by sub-grid counts), otherwise the last
    aligned band of each boundary sub-grid (l; 0, ..., 0) gets a fresh
    axis factor.  Requires 2*m_i <= L_i <= M_i.
    """
    params = params_of_nd(cmap)
    if cmap.params.get("kind") != "unitary-braid-nd":
        raise ValueError("extension starts from a standard unitary braid map")
    L = tuple(int(v) for v in L)
    for L_i, M_i, m_i in zip(L, params.dims, params.m):
        if not 2 * m_i <= L_i <= M_i:
            raise ValueError(f"need 2*m_i <= L_i <= M_i, got L={L}")

    grid = GridSpec(L)
    offsets = _palette_offsets(params)
    base_total = sum(math.prod(params.ells(J)) for J in params.qtable)
    point_facts = []
    fresh_combos: dict[tuple, int] = {}
    for x in grid.points():
        J, f = extended_factors_at(params, L, x)
        point_facts.append((J, f))
        if FRESH in f:
            fresh_combos[(J, f)] = -1
    for new_id, key in enumerate(sorted(fresh_combos)):
        fresh_combos[key] = base_total + new_id

    colors = []
    for J, f in point_facts:
        if FRESH in f:
            colors.append(fresh_combos[(J, f)])
        else:
            colors.append(offsets[J] + GridSpec(params.ells(J)).index(f))

    # rebuild base palette entries (ids unchanged) plus fresh composites
    palette = []
    for J in _subgrid_order(params):
        shape = GridSpec(params.ells(J))
        for f in shape.points():
            palette.append(
                PaletteEntry(
                    id=offsets[J] + shape.index(f),
                    subgrid=J,
                    factors=f,
                    label="s" + "".join(map(str, J)) + "_" + ",".join(map(str, f)),
                )
            )
    for (J, f), cid in sorted(fresh_combos.items(), key=lambda kv: kv[1]):
        ells = params.ells(J)
        shown = tuple(ells[i] if fi == FRESH else fi for i, fi in enumerate(f))
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
