"""Stored construction params: their readers, their checks, and the color
rules that the constructions and the decoder share.

A map file keeps the params its construction was built from.
``params_of`` reads a 1D braid map's params (a restriction's or a
modification's included), ``params_of_nd`` an n-dim unitary map's or an
extension's; each checks every field it reads once, and a field that is
not an int raises ValueError.  ``_class_colors`` and ``_base_colors``
give the colors those params imply: ``braid1d.construct`` and
``braidnd.construct_unitary_nd`` write them, and the decoder proves a
map against them.

This module imports only ``core``, so a decode loads no construction
module: ``braid1d`` and ``braidnd`` re-export every name defined here.
"""

from __future__ import annotations

import itertools
import math

from .core import ColorMap, GridSpec, int_tuple, record


# ---------------------------------------------------------------------------
# 1D braid params


@record
class BraidParams1D:
    """Parameter set of a 1D braid code."""

    M: int
    parts: tuple[int, ...]
    g: int
    c: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        parts, c, q = tuple(self.parts), tuple(self.c), tuple(self.q)
        # Stored params come from map files, where a c_i of 1.9 must not pass for 1.
        int_tuple((self.g, self.M, *parts, *c, *q), "braid params")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)

    @property
    def m(self) -> int:
        return sum(self.parts)

    @property
    def I(self) -> int:
        return len(self.parts)

    @property
    def ells(self) -> tuple[int, ...]:
        return tuple(self.g * c * q for c, q in zip(self.c, self.q))

    @property
    def Q(self) -> int:
        return math.lcm(*self.q)

    @property
    def decomposition(self) -> Decomposition1D:
        from .sunmao import Decomposition1D  # a decode never asks for it

        return Decomposition1D(self.M, self.parts)

    @property
    def klass(self) -> str:
        if all(c == m for c, m in zip(self.c, self.parts)):
            return "1"
        if all(c == 1 for c in self.c):
            return "2"
        return "mixed"

    @property
    def unitary(self) -> bool:
        return all(p == 1 for p in self.parts)


def validate(params: BraidParams1D) -> list[str]:
    """All violated braid conditions, empty when the parameter set is valid."""
    errs = []
    p = params
    if p.I < 1:
        errs.append("at least one part required")
        return errs
    if not len(p.parts) == len(p.c) == len(p.q):
        errs.append(f"need one c_i and one q_i per part, got {len(p.parts)} parts, "
                    f"{len(p.c)} c and {len(p.q)} q")
        return errs
    if p.g < 2:
        errs.append(f"g must exceed 1, got {p.g}")
    for i, (m_i, c_i, q_i) in enumerate(zip(p.parts, p.c, p.q)):
        if m_i < 1 or c_i < 1 or q_i < 1:
            errs.append(f"part {i}: all of m_i, c_i, q_i must be positive")
            continue
        ell = p.g * c_i * q_i
        if m_i % c_i != 0:
            errs.append(f"part {i}: c_i={c_i} must divide m_i={m_i}")
        elif math.gcd(m_i, ell) != c_i:
            errs.append(f"part {i}: gcd(m_i, ell_i)=gcd({m_i},{ell})={math.gcd(m_i, ell)} != c_i={c_i}")
        if p.g * c_i <= m_i:
            errs.append(f"part {i}: need g*c_i > m_i, got {p.g * c_i} <= {m_i}")
    if p.I == 1 and p.c[0] != p.parts[0]:
        # With a single part there is no second sub-grid to anchor
        # non-aligned blocks, so only c_1 = m_1 (period = grid) works.
        errs.append("a single part requires c_1 = m_1")
    if not errs and p.M != p.m * p.g * p.Q:
        errs.append(f"M={p.M} != m*g*lcm(q) = {p.m * p.g * p.Q}")
    return errs


def _class_colors(params: BraidParams1D, gen_colors, shift: int, n: int):
    """Yield (x0, colors) per residue class x = x0 (mod m), 0 <= x < n:
    point x carries the color the generators give to y = x + shift.

    Sub-grid i holds the classes y = d_i + r (mod m), r < m_i, and
    y = j*m + d_i + r has color gen_colors[i][(j*m_i + r) mod ell_i].
    Along a class this repeats every ell_i / gcd(m_i, ell_i) points: one
    period is built and tiled, sharing one int object per color id.
    """
    m = params.m
    for colors, d, m_i, ell in zip(
        gen_colors, itertools.accumulate(params.parts, initial=0), params.parts, params.ells
    ):
        period = ell // math.gcd(m_i, ell)
        for r in range(m_i):
            x0 = (d + r - shift) % m
            j0 = (x0 + shift) // m
            count = len(range(x0, n, m))
            one = tuple(colors[((j0 + k) * m_i + r) % ell] for k in range(period))
            yield x0, (one * (count // period + 1))[:count]


def params_of(cmap: ColorMap) -> tuple[BraidParams1D, list[dict], int, int]:
    """Standard braid parameters and generators a 1D map was built from,
    and its window on that map: every point x but the last ``tail``
    carries the standard color at x + ``shift``.

    A restricted or modified map, or a cut of one, gives those of the
    standard map it was cut from, on M = m * g * lcm(q) points (a cut map
    has fewer); only stored params are read, no map is rebuilt.  This is
    the one reader of a 1D map's params: each field it reads, the
    generators' and the cuts' included, is checked here once, and one that
    is not an int, such as 19.5 or true, raises ValueError.
    """
    p = cmap.params or {}
    cuts = []
    while p.get("kind") in ("restricted", "modified"):
        cuts.append(p)
        p = p.get("base") or {}
    if p.get("kind") != "braid1d":
        raise ValueError("not a 1D braid map, nor a restriction or modification of one")
    parts, q = tuple(p["parts"]), tuple(p["q"])
    params = BraidParams1D(
        M=sum(parts) * p["g"] * math.lcm(*q), parts=parts, g=p["g"], c=tuple(p["c"]), q=q
    )
    dims = cmap.grid.dims
    if len(dims) != 1 or dims[0] > params.M or (not cuts and dims[0] != params.M):
        raise ValueError(f"grid {dims} does not fit the generators' period M={params.M}")
    gens = p["gens"]
    if len(gens) != params.I:
        raise ValueError(f"map lists {len(gens)} generators for {params.I} sub-grids")
    for i, (gen, m_i, ell) in enumerate(zip(gens, params.parts, params.ells)):
        int_tuple((gen["ell"], gen["m"], *gen["colors"]), "generator fields")
        if (gen["ell"], gen["m"], len(gen["colors"])) != (ell, m_i, ell):
            raise ValueError(f"generator {i} does not have period ell={ell} and block m={m_i}")
    # n: how many leading points carry standard colors, cut by cut from the root
    shift, n = 0, params.M
    for cut in reversed(cuts):
        # a restriction keeps the first M_r points; a modification rotates by
        # its shift, keeps M_r points and recolors the last m-1
        modified = cut["kind"] == "modified"
        M_r, s = int_tuple((cut["M_r"], cut["shift"] if modified else 0), "cut fields")
        shift += s
        n = min(n - s, M_r - params.m + 1) if modified else min(n, M_r)
    return params, gens, shift, dims[0] - max(0, min(n, dims[0]))


# ---------------------------------------------------------------------------
# n-dim unitary braid params


@record
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


def parse_qtable(raw: dict) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The q-table of its JSON form, {"i,j": [q_1, q_2], ...}, as
    ``braidnd._params_dict`` writes it and ``construct --qtable`` reads it.

    A key must be spelled as it is written, comma-separated decimal ints
    and nothing else: ``int()`` would read "0_0", "+0" and " 0" as 0, and
    one such key would silently replace the entry of "0,0".
    """
    table = {}
    for key, qs in raw.items():
        try:
            J = tuple(int(t) for t in key.split(","))
        except ValueError:
            J = None
        if J is None or ",".join(map(str, J)) != key:
            raise ValueError(f"q-table key {key!r} is not a sub-grid index like \"0,1\"")
        table[J] = tuple(qs)
    return table


def params_of_nd(cmap: ColorMap) -> UnitaryBraidParamsND:
    """Parameters an n-dim unitary braid map, or an extension, was built from.

    The grid must fit their period M: equal to it on a standard map, no
    longer on any axis of an extension, as ``params_of`` requires.
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
