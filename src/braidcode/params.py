"""Stored construction params: their one reader, their checks, and the
color rules that the constructions and the decoder share.

A map file keeps the params its construction was built from.  ``read``
is the one place a map's kind is read: one table sends it to the reader
of its family, which checks every field once and refuses what it cannot
read with ValueError.  ``params_of`` reads a 1D map to a ``Window1D``,
``params_of_nd`` an n-dim one to its ``UnitaryBraidParamsND``.
``_colors_1d`` and ``_base_colors`` give the colors those values imply:
``braid1d.construct`` and ``braidnd.construct_unitary_nd`` write
them, and each reader proves the map against them with ``_prove`` (a
``Window1D`` its generators distinguishable and their ids disjoint), so
every caller (the decoder, the cuts, ``associated_matrix``) gets params
the map's colors obey.

This module imports only ``core``, so a decode loads no construction
module: ``braid1d`` and ``braidnd`` re-export every name defined here.
"""

from __future__ import annotations

import itertools
import math
import operator

from .core import Codeword, ColorMap, GridSpec, int_tuple, record


# ---------------------------------------------------------------------------
# 1D braid params


@record
class BraidParams1D:
    """Parameter set of a 1D braid code.

    Derived state, built once per params object and no field: the block
    ``m`` = sum(parts), the part count ``I``, the sub-grid ``offsets``
    (d_i = m_0 + ... + m_{i-1}), the generator periods ``ells``
    (ell_i = g * c_i * q_i), ``Q`` = lcm(q) and ``unitary`` (every part 1).
    """

    M: int
    parts: tuple[int, ...]
    g: int
    c: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        parts, c, q = tuple(self.parts), tuple(self.c), tuple(self.q)
        # Stored params come from map files, where a c_i of 1.9 must not pass for 1.
        int_tuple((self.g, self.M, *parts, *c, *q), "braid params")
        # the fields as tuples, then the derived state, in one write past the frozen __setattr__
        vars(self).update(parts=parts, c=c, q=q, m=sum(parts), I=len(parts),
                          offsets=tuple(itertools.accumulate(parts, initial=0))[:-1],
                          ells=tuple(map(self.g.__mul__, map(operator.mul, c, q))),
                          Q=math.lcm(*q), unitary=parts == (1,) * len(parts))


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
    if not errs:
        ks = _split_clash(p.parts, p.g, p.c, p.q)
        if ks:
            errs.append(
                f"two parts: blocks split in sub-grid 0 at k_0={ks[0]} and in sub-grid 1 at "
                f"k_1={ks[1]} carry one codeword, since k_0*n_1 + k_1*n_0 = n_0*n_1 "
                f"(mod g*gcd(q_0,q_1) = {p.g * math.gcd(*p.q)}) with n_i = m_i/c_i = "
                f"({p.parts[0] // p.c[0]}, {p.parts[1] // p.c[1]})")
    return errs


def _split_clash(parts, g: int, c, q) -> tuple[int, int] | None:
    """Offsets (k_0, k_1) of two blocks that carry one codeword, or None.

    Of braid params (c_i = gcd(m_i, ell_i), g*c_i > m_i), only two-part
    ones have such blocks.  As ``codec._Router.solve`` reads it, the block
    at j*m + d_i + r + k*c_i (r < c_i, k < n_i = m_i/c_i < g), split in
    sub-grid i, has the sub-grid positions j + 1 before i, j after i and
    j + k*u_i at i, u_i the inverse of n_i mod g*q_i, plus r at i.  Two
    blocks with one codeword have the same positions, so the same r, and
    D, the difference of their j's, is fixed by every sub-grid:
    - split in the same sub-grid, the other sub-grids give D = 0, then
      the split one k = k' and D = 0 mod g*lcm(q): one block;
    - split in i < i', with three or more parts a third sub-grid gives
      D = 0 or 1 mod g, so k*u_i = 1 or k'*u_i' = 1 mod g, that is
      k = n_i or k' = n_i' mod g, out of range;
    - split in 0 and 1 of two parts, D = 1 - k_0*u_0 mod g*q_0 and
      D = k_1*u_1 mod g*q_1, which agree mod G = g*gcd(q_0, q_1) iff
      k_0*n_1 + k_1*n_0 = n_0*n_1 (mod G).
    When n_0 and n_1 share a factor d > 1, k_0 = n_0/d, k_1 = (d-1)*n_1/d
    always solves it.
    """
    if len(parts) != 2:
        return None
    n0, n1 = parts[0] // c[0], parts[1] // c[1]
    G = g * math.gcd(*q)
    inv = pow(n1, -1, G)  # n_1 is prime to g*q_1
    for k1 in range(n1):
        k0 = n0 * (n1 - k1) * inv % G
        if k0 < n0:
            return k0, k1
    return None


@record
class Window1D:
    """A 1D map as a window on the standard map of its params: every point x
    but the last ``tail`` carries the color the generators give to x + ``shift``.

    ``gens`` holds each sub-grid's generator as its color ids, an int tuple
    of length ell_i; a standard map is the window with shift and tail 0.
    Derived state, no field: ``tables``, each generator's window -> position,
    and ``sub_of``, id -> generator; two equal windows or a shared id raise ValueError.
    """

    params: BraidParams1D
    gens: tuple[tuple[int, ...], ...]
    shift: int = 0
    tail: int = 0

    def __post_init__(self):
        tables, sub_of = [], {}
        for i, (gen, m_i) in enumerate(zip(self.gens, self.params.parts)):
            tables.append(dict(zip(windows(gen, m_i), itertools.count())))
            if len(tables[i]) < len(gen):
                raise ValueError(f"generator {i} is not {m_i}-distinguishable: two of its "
                                 f"{len(gen)} windows share a sub-codeword")
            for cid in filter(sub_of.__contains__, gen):
                raise ValueError(f"generators {sub_of[cid]} and {i} share color id {cid}")
            sub_of.update(zip(gen, itertools.repeat(i)))
        vars(self).update(tables=tuple(tables), sub_of=sub_of)


def _colors_1d(window: Window1D, n: int) -> list[int]:
    """The colors of points 0 <= x < n: point x carries the color the
    window's generators give to y = x + shift of the standard map.

    Sub-grid i holds the classes y = d_i + r (mod m), r < m_i, and
    y = j*m + d_i + r has color gens[i][(j*m_i + r) mod ell_i].
    Along a class this repeats every ell_i / gcd(m_i, ell_i) points: one
    period is built and tiled, sharing one int object per color id.
    """
    params, shift = window.params, window.shift
    m = params.m
    colors = [0] * n
    for gen, d, m_i, ell in zip(window.gens, params.offsets, params.parts, params.ells):
        period = ell // math.gcd(m_i, ell)
        for r in range(m_i):
            x0 = (d + r - shift) % m
            j0 = (x0 + shift) // m
            count = len(range(x0, n, m))
            one = [gen[((j0 + k) * m_i + r) % ell] for k in range(period)]
            tiled = one * (count // period)
            tiled += one[:count % period]  # in place: no second copy of the class
            colors[x0::m] = tiled
    return colors


def windows(colors, m: int) -> list[Codeword]:
    """The sorted m-window colors[(x + t) % ell], t < m, at each start x of
    the cyclic sequence ``colors`` (m may pass ell): column x of the m
    rotations of ``colors``, so one C-level pass sorts every window."""
    ell = len(colors)
    rotated = [colors[t % ell:] + colors[:t % ell] for t in range(m)]
    return list(map(tuple, map(sorted, zip(*rotated))))


def distinguishable(colors, m: int) -> bool:
    """Whether the ell cyclic m-windows of ``colors`` hold distinct multisets."""
    ws = colors if m == 1 or not colors else windows(colors, m)
    return len(set(ws)) == len(colors)


def _prove(cmap: ColorMap, m: tuple, want: list[int], ends: tuple, what: str, name) -> None:
    """Raise ValueError unless the map has block ``m`` and each point before
    ``ends[i]`` on every axis i carries the color ``want`` lists for it,
    row-major.  When ``want`` lists just those points (a 1D window, a whole
    n-D grid), one C-level list comparison proves them; else, or when it
    fails, the first proven point x that differs is named by ``name(x)``."""
    if cmap.block.dims != m:
        raise ValueError(f"block {cmap.block.dims} does not match the generators' {m}")
    colors, n = cmap.colors, len(want)
    if n == math.prod(ends) and want == list(colors[:n]):
        return
    for k in itertools.compress(itertools.count(), map(operator.ne, colors, want)):
        x = cmap.grid.point(k)
        if all(x_i < e for x_i, e in zip(x, ends)):
            raise ValueError(f"map contradicts its {what}: point {name(x)} "
                             f"has color {colors[k]}, they give {want[k]}")


def _window_1d(cmap: ColorMap, p: dict) -> Window1D:
    cuts = []
    while p.get("kind") in ("restricted", "modified"):
        cuts.append(p)
        p = p.get("base") or {}
    if p.get("kind") != "braid1d":
        raise ValueError(_NOT_1D)
    parts, q, g = tuple(p["parts"]), tuple(p["q"]), p["g"]
    params = BraidParams1D(M=sum(parts) * g * math.lcm(*q), parts=parts, g=g, c=tuple(p["c"]), q=q)
    dims = cmap.grid.dims
    if len(dims) != 1 or dims[0] > params.M or (not cuts and dims[0] != params.M):
        raise ValueError(f"grid {dims} does not fit the generators' period M={params.M}")
    stored = p["gens"]
    if len(stored) != params.I:
        raise ValueError(f"map lists {len(stored)} generators for {params.I} sub-grids")
    for i, (gen, m_i, ell) in enumerate(zip(stored, params.parts, params.ells)):
        int_tuple((gen["ell"], gen["m"], *gen["colors"]), "generator fields")
        if (gen["ell"], gen["m"], len(gen["colors"])) != (ell, m_i, ell):
            raise ValueError(f"generator {i} does not have period ell={ell} and block m={m_i}")
    gens = tuple(tuple(gen["colors"]) for gen in stored)
    # n: how many leading points carry standard colors, cut by cut from the root
    shift, n = 0, params.M
    for cut in reversed(cuts):
        # a restriction keeps the first M_r points; a modification rotates by
        # its shift, keeps M_r points and recolors the last m-1
        modified = cut["kind"] == "modified"
        M_r, s = int_tuple((cut["M_r"], cut["shift"] if modified else 0), "cut fields")
        shift += s
        n = min(n - s, M_r - params.m + 1) if modified else min(n, M_r)
    errs = validate(params)  # the routing needs g > 1 and g*c_i > m_i
    if errs:
        raise ValueError("not braid params: " + "; ".join(errs))
    n = max(0, min(n, dims[0]))
    window = Window1D(params, gens, shift, dims[0] - n)  # refuses bad generators before the proof
    _prove(cmap, (params.m,), _colors_1d(window, n), (n,), "generators", operator.itemgetter(0))
    return window


# ---------------------------------------------------------------------------
# n-dim unitary braid params


@record
class UnitaryBraidParamsND:
    """Unitary n-dim braid parameters: block m, shared g, q-table.

    ``qtable[J]`` is the per-axis vector (q^(1)_J, ..., q^(n)_J) for
    sub-grid J; J runs over all residue vectors 0 <= J < m.  Derived state,
    built once per params object and no field: ``layout`` gives each J, in
    row-major (palette) order, its (palette offset, per-axis factor periods
    ell_J, row-major strides of the factor grid of shape ell_J); ``n`` is
    the axis count, ``Q`` the per-axis lcm of the q-table column and
    ``dims`` the period g * m_i * Q_i of each axis.
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
        layout, offset = {}, 0
        for J in itertools.product(*map(range, self.m)):
            ells = tuple(self.g * q for q in self.qtable[J])
            layout[J] = (offset, ells, tuple(math.prod(ells[i + 1:]) for i in range(len(ells))))
            offset += math.prod(ells)
        Q = tuple(itertools.starmap(math.lcm, zip(*self.qtable.values())))
        dims = tuple(self.g * m_i * Q_i for m_i, Q_i in zip(self.m, Q))
        vars(self).update(layout=layout, _color_count=offset, n=len(self.m), Q=Q, dims=dims)

    def ells(self, J: tuple[int, ...]) -> tuple[int, ...]:
        """Per-axis factor periods ell^(i)_J = g * q^(i)_J."""
        return self.layout[J][1]

    def color_count(self) -> int:
        return self._color_count


def _base_colors(params: UnitaryBraidParamsND, dims: tuple[int, ...]) -> list[int]:
    """Colors of the standard map at the points 0 <= x < dims, row-major.

    Point x lies in sub-grid J = x mod m at sub-grid position l = x div m
    and carries factor tuple f = l mod ell_J, i.e. the color
    offset_J + sum_i f_i * stride_J,i.  Along the last axis the points of
    one J form every m_n-th entry of a row, with f_n = l_n mod ell_J,n:
    one period of ell_J,n consecutive ids, tiled along the row.  A
    segment's first id names its J, so its tiled list is built once per
    first id and reused by every row that starts J there.
    """
    m, layout = params.m, params.layout
    *outer, width = dims
    step = m[-1]
    counts = [len(range(j, width, step)) for j in range(step)]
    tiled: dict[int, list[int]] = {}
    colors: list[int] = []
    for prefix in itertools.product(*(range(d) for d in outer)):
        J_outer = tuple(map(operator.mod, prefix, m))
        l_outer = tuple(map(operator.floordiv, prefix, m))
        row = [0] * width
        for j in range(step):
            offset, ells, strides = layout[J_outer + (j,)]
            start = offset + sum(map(operator.mul, map(operator.mod, l_outer, ells), strides))
            segment = tiled.get(start)
            if segment is None:
                e, count = ells[-1], counts[j]
                segment = tiled[start] = (list(range(start, start + e)) * (count // e + 1))[:count]
            row[j::step] = segment
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


def _params_nd(cmap: ColorMap, p: dict) -> UnitaryBraidParamsND:
    params = UnitaryBraidParamsND(m=tuple(p["m"]), g=p["g"], qtable=parse_qtable(p["q"]))
    dims = cmap.grid.dims
    if (len(dims) != params.n or any(L > M for L, M in zip(dims, params.dims))
            or (p["kind"] == "unitary-braid-nd" and dims != params.dims)):
        raise ValueError(f"grid {dims} does not fit the params' period M={params.dims}")
    want = _base_colors(params, dims)
    _prove(cmap, params.m, want, _tail_starts(params, dims), "params", str)
    return params


def _tail_starts(params: UnitaryBraidParamsND, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Per axis, L_i on an axis as long as the period, else L_i - m_i: the
    start of the tail (last m_i points) an extension may recolor."""
    return tuple(L if L == M else L - m_i for L, M, m_i in zip(dims, params.dims, params.m))


# map kind -> the reader of its family; _window_1d walks the cuts down to the braid map
_READERS = {"braid1d": _window_1d, "restricted": _window_1d, "modified": _window_1d,
            "unitary-braid-nd": _params_nd, "extended-nd": _params_nd}
_NOT_1D = "not a 1D braid map, nor a restriction or modification of one"


def read(cmap: ColorMap) -> Window1D | UnitaryBraidParamsND:
    """The checked params a map was built from: ``params_of`` of a 1D map or
    a cut of one, ``params_of_nd`` of an n-dim map or an extension.  Any
    other kind, params of the wrong shape and a map whose colors contradict
    them raise ValueError."""
    return _read(cmap, None, None)


def _read(cmap: ColorMap, family, refusal: str | None):
    """``read``, refused with ``refusal`` unless the map's reader is ``family``.

    The family check runs on every call; the reader's value is then kept
    on the map (``_checked_params``, derived state beside the codec's
    ``_decoder``), so a map is proved once.  ``braid1d.construct`` and
    ``braidnd.construct_unitary_nd`` keep the value their params give
    when they build a map: they write the colors ``_colors_1d`` and
    ``_base_colors`` give, so its proof cannot fail, and an extension its
    source's (it recolors only tails the proof skips).  Any other map proves
    on its first read (loaded, by ``core.replace``, a 1D cut); a refusal is not kept."""
    try:
        p = cmap.params or {}
        reader = _READERS.get(p.get("kind"))
        if reader is None or family not in (None, reader):
            raise ValueError(refusal or f"unsupported map kind {p.get('kind')!r}")
        value = getattr(cmap, "_checked_params", None)
        if value is None:
            value = reader(cmap, p)
            object.__setattr__(cmap, "_checked_params", value)
        return value
    except (KeyError, TypeError, AttributeError, IndexError) as e:
        # the stored params come from outside, e.g. a map file
        raise ValueError(f"malformed map params: {e!r}") from e


def params_of(cmap: ColorMap) -> Window1D:
    """The 1D map as a ``Window1D``: the standard braid parameters and
    generators it was built from, and its window on that map: every point
    x but the last ``tail`` carries the standard color at x + ``shift``.

    A restricted or modified map, or a cut of one, gives those of the
    standard map it was cut from, on M = m * g * lcm(q) points (a cut map
    has fewer); only stored params are read, no map is rebuilt.  A field,
    the generators' and the cuts' included, that is not an int (19.5,
    true), params ``validate`` refuses, a generator that is not
    m_i-distinguishable, then two generators that share a color id (as
    ``Window1D`` refuses them), a map with a point before the tail that is
    not so colored, and any other map raise ValueError.
    """
    return _read(cmap, _window_1d, _NOT_1D)


def params_of_nd(cmap: ColorMap) -> UnitaryBraidParamsND:
    """Parameters an n-dim unitary braid map, or an extension, was built from.

    The grid must fit their period M: equal to it on a standard map, no
    longer on any axis of an extension; every point but the tail (last m_i
    points) of a shortened axis carries the color they give.  Any other map
    raises ValueError.
    """
    return _read(cmap, _params_nd, "not an n-dim unitary braid map")


def is_nd_kind(cmap: ColorMap) -> bool:
    """Whether the map's kind is one ``_READERS`` sends to the n-dim reader;
    nothing else is read."""
    p = cmap.params
    nd = [kind for kind, reader in _READERS.items() if reader is _params_nd]
    return isinstance(p, dict) and p.get("kind") in nd  # a list: a file's kind may be unhashable
