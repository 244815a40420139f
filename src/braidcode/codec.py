"""Decoding: associated matrices, CRT routing, and erasure handling.

A decode never scans the grid.  The codeword is split by sub-grid, each
piece is decoded on its small generator, and the sub-grid positions are
routed to the block tag by a generalized CRT: their residues mod g name
the split sub-grid and its offset, so a decode solves one CRT on unitary
rows (every n-D axis) and at most two otherwise.  A cut map (restriction,
modification, extension, a cut of a cut) changes only the blocks at or
past a seam on each cut axis, read into a seam table; one rule decodes
every cyclic map: the routed tag when it lies before every seam, plus
every seam tag the table lists for the codeword.

All a decode needs that depends only on the map (sub-grid split, generator
tables, routing constants and CRT plans, seam table) is compiled once by
``compile_decoder`` and kept on the map: a decode costs O(ell), not O(M),
and reads the params and colors, not the palette.

A decode loads ``core``, ``params`` (the stored-params readers and the
color rules it proves a map against) and this module, and no
construction module: ``braid1d``, ``braidnd``, ``generators`` and
``sunmao`` stay unloaded.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter

from .core import ColorMap, Codeword, NotACodeword, Point, canonical, record
from .core import format_codeword, parse_codeword  # noqa: F401  re-exported
from .params import (
    BraidParams1D, UnitaryBraidParamsND, _base_colors, _class_colors, _subgrid_layout, params_of,
    params_of_nd, validate,
)


class AmbiguousDecode(ValueError):
    """More than one tag carries the codeword: the map is not
    distinguishable there.  ``tags`` lists the clashing tags."""

    def __init__(self, tags):
        self.tags = tuple(tags)
        super().__init__(f"ambiguous decode: tags {list(self.tags)}")


@record
class DecodeResult:
    """Decoded tag plus routing diagnostics.

    ``i_star`` (0-based) is the split sub-grid: the block starts inside
    its sub-block j*, at offset ``r_star`` < m_i*, so tag = m j* + d + r*
    with d the sub-grid's first point in a block.  The sub-grids before it
    contribute their sub-block j*+1, those after it their sub-block j*.
    ``a_star``/``b_star`` are the CRT quotient and shared remainder
    j* = a*g + b*, and ``a_vec`` the B-matrix column residues fed to the
    CRT.  ``path`` is ``"routing"``, or ``"seam"`` for a tag read from a
    cut map's seam table, whose routing fields are then placeholders.
    """

    tag: int
    j_star: int
    i_star: int
    r_star: int
    a_star: int
    b_star: int
    a_vec: tuple[int, ...]
    path: str


@record
class DecodeResultND:
    """Decoded tag, per-axis routing (None on every axis for a seam tag)
    and the path, ``"routing"`` or ``"seam"``."""

    tag: tuple[int, ...]
    per_axis: tuple[DecodeResult | None, ...]
    path: str


@record
class ErasureResult:
    candidates: tuple[int, ...]
    resolution: int


# ---------------------------------------------------------------------------
# Generalized CRT


def _crt_plan(moduli) -> tuple:
    """Per n_i, n the lcm of those before: gcd(n, n_i) = g, n, 1/(n/g) mod n_i/g, n_i/g, lcm."""
    plan, n = [], 1
    for mod in moduli:
        if mod < 1:
            raise ValueError("moduli must be positive")
        g = math.gcd(n, mod)
        plan.append((g, n, pow(n // g, -1, mod // g), mod // g, n // g * mod))
        n = n // g * mod
    return tuple(plan)


def _crt_solve(plan, residues) -> int | None:
    """x = r_i (mod n_i) over a ``_crt_plan``, or None."""
    x = 0
    for r, (g, n, inv, h, lcm) in zip(residues, plan):
        d, rem = divmod(r - x, g)  # x + n*t = r (mod n_i): t = d*inv (mod n_i/g)
        if rem:
            return None
        x = (x + n * (d * inv % h)) % lcm
    return x


def generalized_crt(residues, moduli) -> int | None:
    """The x in [0, lcm(moduli)) with x = r_i (mod n_i), moduli possibly not
    coprime, or None when the congruences are inconsistent (not a fault)."""
    return _crt_solve(_crt_plan(moduli), residues)


def qhat(qs, i: int) -> int:
    """Minimum product of an i-element subset of qs."""
    if not 1 <= i <= len(qs):
        raise ValueError("subset size out of range")
    return min(math.prod(sub) for sub in itertools.combinations(qs, i))


# ---------------------------------------------------------------------------
# Associated matrices


@record
class AssociatedMatrix:
    """Row i lists first-appearance labels of aligned m_i-block codewords."""

    rows: tuple[tuple[int, ...], ...]
    g: int
    q: tuple[int, ...]

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(self.g * q_i for q_i in self.q)


@record
class BMatrix:
    rows: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]


def associated_matrix(cmap: ColorMap) -> AssociatedMatrix:
    """A[i][j] = label of the j-th aligned sub-block codeword of sub-grid i.

    Labels number distinct sub-grid codewords in order of first
    appearance along j.  Derived from generator params only; a cut map
    (or a cut of one) gives the matrix of the standard map it was cut from.
    """
    params, gens, _, _ = params_of(cmap)
    cols = params.M // params.m
    rows = []
    for gen in gens:
        ell, m_i, colors = gen["ell"], gen["m"], gen["colors"]
        labels: dict[tuple, int] = {}
        row = []
        for j in range(cols):
            w = canonical(colors[(j * m_i + t) % ell] for t in range(m_i))
            row.append(labels.setdefault(w, len(labels)))
        rows.append(tuple(row))
    return AssociatedMatrix(rows=tuple(rows), g=params.g, q=params.q)


def b_matrix(A: AssociatedMatrix) -> BMatrix:
    """B[i][a] = A[i][a*g] / g; errors if a label is not divisible by g."""
    Q = math.lcm(*A.q)
    rows = []
    for i, row in enumerate(A.rows):
        out = []
        for a in range(Q):
            lab = row[(a * A.g) % len(row)]
            if lab % A.g != 0:
                raise ValueError(
                    f"row {i}, column {a}: label {lab} not divisible by g={A.g}; "
                    "label order does not match the aligned period structure"
                )
            out.append(lab // A.g)
        rows.append(tuple(out))
    return BMatrix(rows=tuple(rows), q=A.q)


def dump_matrices(cmap: ColorMap) -> str:
    """A rows, blank line, B rows; space-separated labels."""
    A = associated_matrix(cmap)
    return "\n".join(" ".join(map(str, row)) for row in A.rows + ((),) + b_matrix(A).rows)


# ---------------------------------------------------------------------------
# Routing and standard 1D decode


class _Router:
    """Routing constants of one braid parameter set, its CRT plan among
    them, and the routing step: generator positions to tags, in closed form."""

    def __init__(self, g: int, parts, c, q):
        self.g, self.parts, self.c, self.q = g, tuple(parts), tuple(c), tuple(q)
        self.m = sum(self.parts)
        self.offsets = tuple(itertools.accumulate(self.parts, initial=0))[:-1]
        self.ells = tuple(g * c_i * q_i for c_i, q_i in zip(self.c, self.q))
        self.gq = tuple(g * q_i for q_i in self.q)
        # u_i * (m_i / c_i) = 1 (mod g*q_i), i.e. u_i * m_i = c_i (mod ell_i)
        self.inv = tuple(pow(m_i // c_i, -1, gq_i)
                         for m_i, c_i, gq_i in zip(self.parts, self.c, self.gq))
        self.plan = _crt_plan(self.q)

    def solve(self, alphas) -> list[tuple]:
        """All tags consistent with per-sub-grid generator positions ``alphas``,
        as (tag, j*, i*, r*, a*, b*, a_vec) tuples.

        Each alpha is read as (j_i, r_i): alpha = j_i*m_i + r_i mod ell_i,
        r_i < c_i.  The block at tag j*m + d_i* + x_r, x_r = r_i* + k*c_i*,
        gives j_i = j+1 before the split sub-grid i*, j after it and
        j + k*u_i* at it.  So with b* = j mod g, the j_i mod g read b*+1
        before i* and b* after it.  b* is read off the last sub-grid, and
        i* is where the readings change from b*+1 to b*: the last sub-grid
        before the closing run of b*, or the first in it.  Only a last
        sub-grid split with k > 0 reads otherwise; then b* is one less than
        the first sub-grid's reading.  At most two (i*, b*) fit.  At i*,
        k = (j_i* - b*)*(m_i*/c_i*) mod g, unique because k < m_i*/c_i* < g
        (the braid condition g*c_i > m_i).  One CRT of the a-residues of
        j = a*g + b* then gives the tag, which carries every alpha by
        construction.  A valid braid code yields at most one tag.
        """
        g, parts, c, q, gq = self.g, self.parts, self.c, self.q, self.gq
        I = len(parts)
        js, rs = [], []
        for alpha, c_i, u_i, gq_i in zip(alphas, c, self.inv, gq):
            r_i = alpha % c_i
            js.append(((alpha - r_i) // c_i * u_i) % gq_i)
            rs.append(r_i)

        nonzero = [i for i, r in enumerate(rs) if r != 0]
        if len(nonzero) > 1:
            raise NotACodeword("split-offset", "more than one non-aligned sub-block")
        es = [j % g for j in js]
        b, ahead = es[-1], (es[-1] + 1) % g
        p = 0  # sub-grids before p read b+1
        while p < I and es[p] == ahead:
            p += 1
        s = I - 1  # sub-grids from s on read b
        while s and es[s - 1] == b:
            s -= 1
        splits = [(i, b) for i in range(max(s - 1, 0), min(p, I - 1) + 1)]
        if es[0] != ahead and I > 1 and es[:-1].count(es[0]) == I - 1:
            splits.append((I - 1, (es[0] - 1) % g))  # the last sub-grid split, k > 0
        results = []
        for i_star, b_star in splits:
            k = (es[i_star] - b_star) * (parts[i_star] // c[i_star]) % g
            x_r = rs[i_star] + k * c[i_star]
            if x_r >= parts[i_star] or nonzero and nonzero != [i_star]:
                continue
            res = [js[i] - (i < i_star) for i in range(I)]
            res[i_star] -= k * self.inv[i_star]
            a_vec = tuple(((r - b_star) // g) % q_i for r, q_i in zip(res, q))
            a_star = _crt_solve(self.plan, a_vec)
            if a_star is None:
                continue
            j_star = a_star * g + b_star
            results.append((j_star * self.m + self.offsets[i_star] + x_r,
                            j_star, i_star, x_r, a_star, b_star, a_vec))
        return results


def _window_table(gen: dict) -> dict[Codeword, int]:
    """Sub-codeword -> start position, over one generator period."""
    ell, m_i, colors = gen["ell"], gen["m"], gen["colors"]
    return {canonical(colors[(x + t) % ell] for t in range(m_i)): x for x in range(ell)}


def _check_colors(cmap: ColorMap, params: BraidParams1D, gens, shift: int, tail: int) -> None:
    """Raise ValueError unless the map agrees with the generators it decodes on.

    Every point x but the last ``tail`` must carry the color the
    generators give to point y = x + shift of the standard map
    (``params._class_colors``); a decoder trusting contradicting
    generators decodes wrong; ``params_of`` has checked the generators
    themselves (one per part, one period of ints each).  Each residue
    class mod m is compared in one C-level tuple comparison, so no copy of
    the whole map is held; only a class that differs is searched for its
    first bad point.
    """
    m = params.m
    if cmap.block.dims != (m,):
        raise ValueError(f"block {cmap.block.dims} does not match the generators' {(m,)}")
    n = len(cmap.colors) - tail
    bad = []
    for x0, want in _class_colors(params, [gen["colors"] for gen in gens], shift, n):
        got = tuple(cmap.colors[x0:n:m])  # a list slice would never equal want
        if got != want:
            k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
            bad.append((x0 + k * m, want[k]))
    if bad:
        x, expected = min(bad)
        raise ValueError(
            f"map contradicts its generators: point {x} has color {cmap.colors[x]}, "
            f"they give {expected}"
        )


def _decide(dec, w: Codeword):
    """The decode rule of every map: ``dec``'s seam-table tags for ``w``,
    plus each ``dec.route(w)`` result before every seam.  Returns the
    single hit; raises ``AmbiguousDecode`` naming them all, or
    ``NotACodeword`` (the routing's own, if it failed)."""
    seam_tags = dec.table.get(w, ())
    try:
        routed = dec.route(w)
    except NotACodeword:
        if not seam_tags:
            raise
        routed = ()
    hits = [dec.seam_result(x) for x in seam_tags] if seam_tags else []
    for res in routed:
        x = res.tag if isinstance(res.tag, tuple) else (res.tag,)
        for t, s in zip(x, dec.seams):
            if s is not None and t >= s:
                break
        else:
            hits.append(res)
    if len(hits) == 1:
        return hits[0]
    if hits:
        raise AmbiguousDecode(sorted(h.tag for h in hits))
    raise NotACodeword("verify", "no seam tag carries the codeword, nor a routed tag before the seam")


def _seam_table(cmap: ColorMap, seams) -> dict[Codeword, tuple[Point, ...]]:
    """Codeword -> tags, over the tags at or past the seam of some axis.

    ``seams[k]`` is the first coordinate on axis k whose block the cut
    changed, or None for an axis the cut left whole; a standard map has
    no seam and an empty table.  Blocks are read straight from the color
    array, their flat indices built one axis at a time, so tags that
    share leading coordinates share that part of the work.
    """
    dims, m, colors = cmap.grid.dims, cmap.block.dims, cmap.colors
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    seams = [None if s is None else max(s, 0) for s in seams]  # params may come from a file
    table: dict[Codeword, list[Point]] = {}
    for k, seam in enumerate(seams):
        if seam is None:
            continue
        # tags past the seam of axis k but of no earlier axis, so none is read twice
        ranges = [range(L) if j > k or s is None else range(s)
                  for j, (L, s) in enumerate(zip(dims, seams))]
        ranges[k] = range(seam, dims[k])
        blocks = [((), [0])]
        for r, L, m_j, stride in zip(ranges, dims, m, strides):
            blocks = [(x + (c,), [i + (c + o) % L * stride for i in idx for o in range(m_j)])
                      for x, idx in blocks for c in r]
        for x, idx in blocks:
            table.setdefault(canonical(colors[i] for i in idx), []).append(x)
    return {w: tuple(tags) for w, tags in table.items()}


class _Braid:
    """Compiled 1D braid code, standard or cut: sub-grid split, generator
    tables, router, seam table.

    A tag before the seam carries the block of the standard map at
    tag + shift (the window ``_check_colors`` proves), so its codeword
    routes; blocks that wrap or cover the tail start at or past the seam.
    """

    def __init__(self, cmap: ColorMap):
        params, gens, self.shift, self.tail = params_of(cmap)
        errs = validate(params)  # the routing needs g > 1 and g*c_i > m_i
        if errs:
            raise ValueError("not braid params: " + "; ".join(errs))
        _check_colors(cmap, params, gens, self.shift, self.tail)
        (L,) = cmap.grid.dims
        self.M, self.m, self.parts = params.M, params.m, params.parts
        self.seams = (None if L == params.M and not self.tail else L - params.m + 1 - self.tail,)
        self.table = _seam_table(cmap, self.seams)
        self.sub_of = {cid: i for i, gen in enumerate(gens) for cid in gen["colors"]}
        self.tables = tuple(_window_table(gen) for gen in gens)
        for i, (table, m_i, ell) in enumerate(zip(self.tables, params.parts, params.ells)):
            if len(table) != ell:
                raise ValueError(f"generator {i} is not {m_i}-distinguishable: two of its "
                                 f"{ell} windows share a sub-codeword")
        self.router = _Router(params.g, params.parts, params.c, params.q)

    def route(self, w: Codeword) -> list[DecodeResult]:
        """The standard map's tags with canonical codeword ``w``, moved back by ``shift``."""
        groups = [[] for _ in self.parts]
        for cid in w:
            i = self.sub_of.get(cid)
            if i is None:
                raise NotACodeword("palette-split", f"unknown color id {cid}")
            groups[i].append(cid)
        for i, (group, m_i) in enumerate(zip(groups, self.parts)):
            if len(group) != m_i:
                raise NotACodeword(
                    "palette-split", f"sub-grid {i} contributed {len(group)} colors, expected {m_i}"
                )
        alphas = []
        for i, (group, table) in enumerate(zip(groups, self.tables)):
            pos = table.get(tuple(group))  # w is sorted, so each group is canonical
            if pos is None:
                raise NotACodeword("generator-decode", f"sub-grid {i} piece is not a sub-codeword")
            alphas.append(pos)
        results = self.router.solve(alphas)
        if not results:
            raise NotACodeword("crt", "no consistent routing")
        return [DecodeResult((tag - self.shift) % self.M, *rest, "routing") for tag, *rest in results]

    def seam_result(self, x: Point) -> DecodeResult:
        return DecodeResult(x[0], x[0] // self.m, 0, x[0] % self.m, 0, 0, (), "seam")


# ---------------------------------------------------------------------------
# Compiled decoder of n-D maps


class _Axis:
    """Routing data of one axis of a unitary n-D braid code.

    The band matrix of the axis is the associated matrix of a 1D unitary
    braid code with block nu(m); its rows (r; J^-) are labelled with band
    r = J_axis outermost and the remaining components row-major, and the
    1D router is reused on them.
    """

    def __init__(self, params: UnitaryBraidParamsND, axis: int):
        m = params.m
        self.axis = axis
        self.m_axis = m[axis]
        self.nu = math.prod(m)
        self.w_band = self.nu // m[axis]
        others = [k for k in range(params.n) if k != axis]
        self.row: dict[tuple[int, ...], int] = {}
        qlist = [0] * self.nu
        for J, qs in params.qtable.items():
            r = J[axis]
            for k in others:
                r = r * m[k] + J[k]
            self.row[J] = r
            qlist[r] = qs[axis]
        self.router = _Router(params.g, (1,) * self.nu, (1,) * self.nu, qlist)

    def decode(self, facts) -> DecodeResult:
        """Decode the axis from the codeword's (J, factor tuple) pairs."""
        axis = self.axis
        alphas = [None] * self.nu
        for J, f in facts:
            s = self.row[J]
            if alphas[s] is not None:
                raise NotACodeword("projection", f"axis {axis}: sub-grid {J} appears twice")
            alphas[s] = f[axis]
        if None in alphas:
            raise NotACodeword("projection", f"axis {axis}: missing sub-grid contribution")
        for tag, *rest in self.router.solve(alphas):
            j, off = divmod(tag, self.nu)
            r, rem = divmod(off, self.w_band)
            if rem == 0:
                return DecodeResult(j * self.m_axis + r, *rest, "routing")
        raise NotACodeword("crt", f"axis {axis}: no consistent routing")


class _UnitaryND:
    """Each axis decodes independently from the codeword's projection.

    Compiling proves that every point carries the color the params give,
    save in the tail (last m_i points) of each shortened axis, so a tag
    routed before the seam L_i - 2m_i + 1 needs no ``encode``.  Factors come
    from the params: a fresh color has none, and only the seam table reads it.
    """

    def __init__(self, cmap: ColorMap):
        params = params_of_nd(cmap)
        if cmap.block.dims != params.m:
            raise ValueError(f"block {cmap.block.dims} does not match the generators' {params.m}")
        dims = cmap.grid.dims
        ends = tuple(None if L_i == M_i else L_i - m_i
                     for L_i, M_i, m_i in zip(dims, params.dims, params.m))
        layout = _subgrid_layout(params)
        want = _base_colors(params, layout, dims)
        for k in itertools.compress(itertools.count(), map(operator.ne, cmap.colors, want)):
            x = cmap.grid.point(k)
            if all(e is None or x_i < e for x_i, e in zip(x, ends)):
                raise ValueError(f"map contradicts its params: point {x} has color "
                                 f"{cmap.colors[k]}, they give {want[k]}")
        self.factors_of = {
            offset + k: (J, f)
            for J, (offset, ells, _) in layout.items()
            for k, f in enumerate(itertools.product(*map(range, ells)))
        }
        self.axes = tuple(_Axis(params, axis) for axis in range(params.n))
        self.seams = tuple(None if e is None else e - m_i + 1 for e, m_i in zip(ends, params.m))
        self.table = _seam_table(cmap, self.seams)

    def seam_result(self, x: Point) -> DecodeResultND:
        return DecodeResultND(x, (None,) * len(x), "seam")

    def route(self, w: Codeword) -> list[DecodeResultND]:
        try:
            facts = [self.factors_of[cid] for cid in w]
        except KeyError as e:
            raise NotACodeword("projection", f"color {e.args[0]} has no factor structure") from None
        diags = tuple([ax.decode(facts) for ax in self.axes])
        return [DecodeResultND(tuple(d.tag for d in diags), diags, "routing")]


_DECODERS = {
    "braid1d": _Braid,
    "restricted": _Braid,
    "modified": _Braid,
    "unitary-braid-nd": _UnitaryND,
    "extended-nd": _UnitaryND,
}


def compile_decoder(cmap: ColorMap):
    """The map's compiled decoder: built on first use, then kept on the map.

    Maps are immutable, so the decoder stays valid; it is not a record
    field, so it does not take part in ``==`` or in JSON.  Stored params
    of the wrong shape, and a flat grid, raise ``ValueError``.
    """
    dec = getattr(cmap, "_decoder", None)
    if dec is None:
        if not cmap.grid.cyclic:
            raise ValueError("decoding requires a cyclic grid")
        try:
            kind = (cmap.params or {}).get("kind")
            build = _DECODERS.get(kind)
            if build is None:
                raise ValueError(f"unsupported map kind {kind!r}")
            dec = build(cmap)
        except (KeyError, TypeError, AttributeError, IndexError) as e:
            # the stored params come from outside, e.g. a map file
            raise ValueError(f"malformed map params: {e!r}") from e
        object.__setattr__(cmap, "_decoder", dec)
    return dec


def _decoder(cmap: ColorMap, kind: type, message: str):
    dec = compile_decoder(cmap)
    if not isinstance(dec, kind):
        raise ValueError(message)
    return dec


def decode(cmap: ColorMap, w) -> DecodeResult | DecodeResultND:
    """Decode a codeword of any decodable map back to its tag."""
    return _decide(compile_decoder(cmap), canonical(w))


def decode_1d(cmap: ColorMap, w) -> DecodeResult:
    """Decode a codeword of a standard 1D braid map back to its tag."""
    dec = _decoder(cmap, _Braid, "not a 1D braid map")
    if dec.seams != (None,):  # a cut map
        raise ValueError("not a 1D braid map")
    return _decide(dec, canonical(w))


def decode_1d_general(cmap: ColorMap, w) -> DecodeResult:
    """Decode on standard, restricted or modified 1D braid maps."""
    dec = _decoder(cmap, _Braid, "not a 1D braid map, nor a restriction or modification of one")
    return _decide(dec, canonical(w))


def decode_nd(cmap: ColorMap, w) -> DecodeResultND:
    """Decode a codeword of an n-dim unitary braid map (or its extension)."""
    dec = _decoder(cmap, _UnitaryND, "not an n-dim unitary braid map")
    return _decide(dec, canonical(w))


# ---------------------------------------------------------------------------
# Erasure decoding (1D unitary)


def erasure_decode(cmap: ColorMap, partial) -> ErasureResult:
    """Locate a block from a partial codeword with e colors erased.

    The map must be a 1D unitary braid map or a restriction of one.  The
    color at position alpha of generator i sits at exactly the points
    x = i + m*(alpha + k*ell_i) < M_r, so each surviving color gives the
    tags (x - o) mod M_r, o < m, with multiplicity; the candidates are the
    tags whose block holds every survivor as often as it survives.  They
    are returned along with their spread (max pairwise cyclic distance).
    """
    message = "erasure decoding requires a unitary braid map or restriction"
    braid = _decoder(cmap, _Braid, message)
    if braid.shift or braid.tail:  # a modified map, or a cut of one
        raise ValueError(message)
    if any(p != 1 for p in braid.parts):
        raise ValueError("erasure decoding requires a unitary map")
    (M_r,) = cmap.grid.dims
    m = len(braid.parts)
    need = Counter(partial)
    if not 0 < sum(need.values()) <= m:
        raise NotACodeword("palette-split", "partial codeword size out of range")

    cands = None
    for cid, n in need.items():
        i = braid.sub_of.get(cid)
        if i is None:
            raise NotACodeword("palette-split", f"unknown color id {cid}")
        alpha = braid.tables[i][(cid,)]
        points = range(i + m * alpha, M_r, m * braid.router.ells[i])
        hits = Counter((x - o) % M_r for x in points for o in range(m))
        held = {t for t, k in hits.items() if k >= n}
        cands = held if cands is None else cands & held

    if not cands:
        raise NotACodeword("erasure", "no tag contains the partial codeword")
    ordered = tuple(sorted(cands))
    spread = 0
    for a in ordered:
        for b in ordered:
            if a < b:
                d = min(b - a, M_r - (b - a))
                spread = max(spread, d)
    return ErasureResult(candidates=ordered, resolution=spread)
