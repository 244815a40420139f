"""Decoding: associated matrices, CRT routing, and erasure handling.

A decode never scans the grid.  The codeword is split by sub-grid, each
piece is decoded on its small generator, and the sub-grid positions are
routed to the block tag by a generalized CRT: their residues mod g name
the split sub-grid and its offset, so a 1D decode solves one CRT on
unitary rows and at most two otherwise.  Each n-D axis is a unitary band
and routes in closed form, with one CRT: its split row is the number of
leading rows one ahead of the last mod g.  A cut map (restriction,
modification, extension, a cut of a cut) changes only the blocks at or
past a seam on each cut axis, read into a seam table; one rule decodes
every cyclic map: the routed tag when it lies before every seam, plus
every seam tag the table lists for the codeword.  Routing gives one tag
at most, so a decode is ambiguous only when a seam tag is among its hits.

``compile_decoder`` is the one step that reads a map to decode it, once, and
keeps the result on the map: the decoder (sub-grid split, generator tables,
routing constants, CRT plans) is built from ``params.read``'s value, one seam
rule picks the blocks of the seam table.  A decode then costs O(ell), not O(M).

A decode loads ``core``, ``params`` (the one reader of a map's kind and
params, which refuses a map whose colors contradict them) and this module,
and no construction module: ``braid1d``, ``braidnd``, ``generators``
and ``sunmao`` stay unloaded.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter

from .core import ColorMap, Codeword, NotACodeword, Point, canonical, record, tuple_record
from .core import format_codeword, parse_codeword  # noqa: F401  re-exported
from .params import BraidParams1D, UnitaryBraidParamsND, Window1D, params_of, read
from .params import _tail_starts


class AmbiguousDecode(ValueError):
    """More than one tag carries the codeword: the map is not
    distinguishable there.  ``tags`` lists the clashing tags; routing
    gives one tag at most, so at least one of them is a cut map's seam tag."""

    def __init__(self, tags):
        self.tags = tuple(tags)
        super().__init__(f"ambiguous decode: tags {list(self.tags)}")


@tuple_record
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


@tuple_record
class DecodeResultND:
    """Decoded tag, per-axis routing (None on every axis for a seam tag)
    and the path, ``"routing"`` or ``"seam"``."""

    tag: tuple[int, ...]
    per_axis: tuple[DecodeResult | None, ...]
    path: str


@tuple_record
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
    coprime, or None when the congruences are inconsistent (not a fault).
    Lists of different lengths raise ValueError: no congruence is dropped."""
    residues, moduli = tuple(residues), tuple(moduli)
    if len(residues) != len(moduli):
        raise ValueError(f"{len(residues)} residues for {len(moduli)} moduli")
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
    appearance along j.  Derived from generator params only (proven by
    ``params_of``); a cut map gives the matrix of the standard map at its root.
    """
    window = params_of(cmap)
    params = window.params
    cols = params.M // params.m
    rows = []
    for table, m_i, ell in zip(window.tables, params.parts, params.ells):
        ws = list(table)  # the windows, in position order
        labels: dict[tuple, int] = {}
        rows.append(tuple(labels.setdefault(ws[j * m_i % ell], len(labels)) for j in range(cols)))
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
    them, and the routing step: generator positions to their tag, in closed form."""

    def __init__(self, params: BraidParams1D):
        self.g, self.parts, self.c, self.q = params.g, params.parts, params.c, params.q
        self.m, self.offsets = params.m, params.offsets
        self.gq = tuple(self.g * q_i for q_i in self.q)
        # u_i * (m_i / c_i) = 1 (mod g*q_i), i.e. u_i * m_i = c_i (mod ell_i)
        self.inv = tuple(pow(m_i // c_i, -1, gq_i)
                         for m_i, c_i, gq_i in zip(self.parts, self.c, self.gq))
        self.plan = _crt_plan(self.q)

    def solve(self, alphas) -> tuple | None:
        """The tag consistent with per-sub-grid generator positions ``alphas``,
        as a (tag, j*, i*, r*, a*, b*, a_vec) tuple, or None.

        Each alpha is read as (j_i, r_i): alpha = j_i*m_i + r_i mod ell_i,
        r_i < c_i.  The block at tag j*m + d_i* + x_r, x_r = r_i* + k*c_i*,
        gives j_i = j+1 before the split sub-grid i*, j after it and
        j + k*u_i* at it.  So with b* = j mod g, the j_i mod g read b*+1
        before i* and b* after it.  b* is read off the last sub-grid, and
        i* = p, the number of leading sub-grids that read b*+1, when every
        sub-grid after p reads b*.  (The split at p - 1 also reads so, but
        there k = m_i/c_i, since g*c_i > m_i, so x_r >= m_i.)  Only a last
        sub-grid split with k > 0 reads otherwise: sub-grids 0..I-2 all
        read one value e other than b*+1, and b* = e - 1.  At i*,
        k = (j_i* - b*)*(m_i*/c_i*) mod g, unique because k < m_i*/c_i* < g
        (the braid condition g*c_i > m_i).  One CRT of the a-residues of
        j = a*g + b* then gives the tag, which carries every alpha by
        construction; the first split that fits is returned.  Params
        ``validate`` accepts have no second one: two tags with the same
        positions need two parts, split one in each at offsets k_0, k_1
        that ``params._split_clash`` finds and ``validate`` refuses.  Each
        n-D axis routes its unitary rows in closed form (``_Axis.decode``);
        this serves 1D decoders.
        """
        g, parts, c, q = self.g, self.parts, self.c, self.q
        I = len(parts)
        rs = [alpha % c_i for alpha, c_i in zip(alphas, c)]
        js = [(alpha - r_i) // c_i * u_i % gq_i
              for alpha, r_i, c_i, u_i, gq_i in zip(alphas, rs, c, self.inv, self.gq)]
        nonzero = [i for i, r in enumerate(rs) if r] if any(rs) else []
        if len(nonzero) > 1:
            raise NotACodeword("split-offset", "more than one non-aligned sub-block")
        es = [j % g for j in js]
        b, ahead = es[-1], (es[-1] + 1) % g
        p = 0  # sub-grids before p read b+1; the last reads b, so p < I
        while es[p] == ahead:
            p += 1
        splits = [(p, b)] if es[p + 1:].count(b) == I - 1 - p else []
        if es[0] != ahead and I > 1 and es[:-1].count(es[0]) == I - 1:
            splits.append((I - 1, (es[0] - 1) % g))  # the last sub-grid split, k > 0
        for i_star, b_star in splits:
            k = (es[i_star] - b_star) * (parts[i_star] // c[i_star]) % g
            x_r = rs[i_star] + k * c[i_star]
            if x_r >= parts[i_star] or nonzero and nonzero != [i_star]:
                continue
            res = [js[i] - (i < i_star) for i in range(I)]
            res[i_star] -= k * self.inv[i_star]
            a_vec = tuple(((r - b_star) // g) % q_i for r, q_i in zip(res, q))
            a_star = _crt_solve(self.plan, a_vec)
            if a_star is not None:
                j_star = a_star * g + b_star
                return (j_star * self.m + self.offsets[i_star] + x_r,
                        j_star, i_star, x_r, a_star, b_star, a_vec)
        return None


def _decide(dec, w: Codeword):
    """The decode rule of every map: ``dec``'s seam-table tags for ``w``,
    plus the ``dec.route(w)`` result if it lies before every seam.  Returns
    the single hit; raises ``AmbiguousDecode`` naming them all (routing
    gives one tag at most, so a seam-table tag is among them), or
    ``NotACodeword`` (the routing's own, if it failed).  On a map with no
    seam (``dec.cut`` false) the table is empty and every tag lies before
    every seam, so the rule is the routing alone."""
    if not dec.cut:
        return dec.route(w)
    seam_tags = dec.table.get(w, ())
    hits = [dec.seam_result(x) for x in seam_tags] if seam_tags else []
    try:
        res = dec.route(w)
    except NotACodeword:
        if not seam_tags:
            raise
    else:
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
    """Compiled 1D braid code, standard or cut, from ``params.read``'s value
    alone: sub-grid split, generator tables, router.

    A tag before the seam carries the block of the standard map at
    tag + shift (the window ``params.read`` proves), so its codeword
    routes; blocks that wrap or cover the tail start at or past the seam.
    The sub-grid split and the generator tables are the window's own.
    """

    def __init__(self, window: Window1D):
        params = window.params
        self.window, self.shift = window, window.shift
        self.M, self.m, self.parts = params.M, params.m, params.parts
        self.sub_of, self.tables = window.sub_of, window.tables
        self.router = _Router(params)

    def route(self, w: Codeword) -> DecodeResult:
        """The standard map's tag with canonical codeword ``w``, moved back by ``shift``."""
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
        found = self.router.solve(alphas)
        if found is None:
            raise NotACodeword("crt", "no consistent routing")
        tag, *rest = found
        return DecodeResult._make(((tag - self.shift) % self.M, *rest, "routing"))

    def seam_result(self, x: Point) -> DecodeResult:
        return DecodeResult(x[0], x[0] // self.m, 0, x[0] % self.m, 0, 0, (), "seam")


# ---------------------------------------------------------------------------
# Compiled decoder of n-D maps


class _Axis:
    """Routing data of one axis of a unitary n-D braid code, and its
    routing in closed form.

    The band matrix of the axis is the associated matrix of a 1D unitary
    braid code with block nu(m); its rows (r; J^-) are labelled with band
    r = J_axis outermost and the remaining components row-major.  Those
    rows are unitary (every m_s = c_s = 1), so only ``_Router.solve``'s
    split at p lives, with offset k = 0, and ``decode`` reads it inline:
    the split row p is the number of leading rows reading b + 1 mod g, b
    the last row's reading, and every row from p on must read b.  The axis
    tag is j*m_axis + p/w_band, so p must start a band.

    The CRT residue of row s is (alpha_s - b) // g mod q_s, with no [s < p]
    term: once the split holds, a row before p reads b + 1 mod g, so
    alpha_s - b = 1 (mod g) and, as g > 1, (alpha_s - 1 - b) // g equals
    (alpha_s - b) // g; a row from p on reads b and has no term to drop.
    """

    def __init__(self, params: UnitaryBraidParamsND, axis: int):
        m = params.m
        self.axis = axis
        self.g = params.g
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
        self.q = tuple(qlist)
        self.plan = _crt_plan(self.q)
        self.ahead = (*range(1, self.g), 0)  # b -> b + 1 mod g

    def decode(self, cells) -> DecodeResult:
        """Decode the axis from the codeword's cells on it: per color, its
        sub-grid's row, its factor on the axis and that factor mod g."""
        axis, g = self.axis, self.g
        alphas, es = [None] * self.nu, [None] * self.nu
        for s, f, e in cells:
            alphas[s] = f
            es[s] = e
        if len(cells) != self.nu or None in alphas:  # then some row is missing or twice
            seen = set()
            for s, _, _ in cells:
                if s in seen:
                    J = next(J for J, r in self.row.items() if r == s)
                    raise NotACodeword("projection", f"axis {axis}: sub-grid {J} appears twice")
                seen.add(s)
            raise NotACodeword("projection", f"axis {axis}: missing sub-grid contribution")
        b = es[-1]
        ahead = self.ahead[b]
        p = 0  # rows before p read b+1; the last row reads b, so p < nu
        while es[p] == ahead:
            p += 1
        band, rem = divmod(p, self.w_band)
        if not rem and es.count(b) == self.nu - p:  # no row before p reads b
            a_vec = tuple([(alpha - b) // g % q_s for alpha, q_s in zip(alphas, self.q)])
            a_star = _crt_solve(self.plan, a_vec)
            if a_star is not None:
                j = a_star * g + b
                return DecodeResult._make((j * self.m_axis + band, j, p, 0, a_star, b, a_vec,
                                           "routing"))
        raise NotACodeword("crt", f"axis {axis}: no consistent routing")


class _UnitaryND:
    """Each axis decodes independently from the codeword's projection;
    compiled from the params alone.

    ``params.read`` proves every point carries the color the params give,
    save in the tail (last m_i points) of each shortened axis, so a tag
    routed before the seam L_i - 2m_i + 1 needs no ``encode``.  Factors come
    from the params: a fresh color has none, and only the seam table reads it.
    ``cells`` gives each color id, of sub-grid J and factor tuple f, its
    (row of J, f_axis, f_axis mod g) cell on each axis, so no axis reads J
    or takes a residue while it decodes.
    """

    def __init__(self, params: UnitaryBraidParamsND):
        self.axes = tuple(_Axis(params, axis) for axis in range(params.n))
        self.cells, g = {}, params.g
        for J, (offset, ells, _) in params.layout.items():
            rows = [ax.row[J] for ax in self.axes]
            per_axis = [[(s, f, f % g) for f in range(ell)] for s, ell in zip(rows, ells)]
            self.cells.update(enumerate(itertools.product(*per_axis), offset))

    def seam_result(self, x: Point) -> DecodeResultND:
        return DecodeResultND(x, (None,) * len(x), "seam")

    def route(self, w: Codeword) -> DecodeResultND:
        try:
            cells = list(map(self.cells.__getitem__, w))
        except KeyError as e:
            raise NotACodeword("projection", f"color {e.args[0]} has no factor structure") from None
        columns = zip(*cells) if cells else [()] * len(self.axes)  # each axis's cells
        diags = tuple(map(_Axis.decode, self.axes, columns))
        return DecodeResultND._make((tuple(map(itemgetter(0), diags)), diags, "routing"))


def compile_decoder(cmap: ColorMap):
    """The map's compiled decoder: built on first use, then kept on the map.

    The one decode step that reads the map: the type of what ``params.read``
    gives picks the decoder, built from that value alone; what it refuses,
    and a flat grid, raise ``ValueError``.  On each axis, with e its proven
    prefix (L - tail in 1D, the tail start in n-D), the seam is e - m + 1
    (at least 0: params may come from a file), or None when e is the whole
    period M; the seam table holds the blocks from the seams on, and ``cut``
    says whether any axis has a seam.  Maps are
    immutable, so the decoder stays valid; not a record field, it is not in
    ``==`` or JSON.
    """
    dec = getattr(cmap, "_decoder", None)
    if dec is None:
        if not cmap.grid.cyclic:
            raise ValueError("decoding requires a cyclic grid")
        value, dims = read(cmap), cmap.grid.dims
        if isinstance(value, UnitaryBraidParamsND):
            dec, axes = _UnitaryND(value), zip(_tail_starts(value, dims), value.dims, value.m)
        else:
            dec, p = _Braid(value), value.params
            axes = [(dims[0] - value.tail, p.M, p.m)]
        dec.seams = tuple(None if e == M else max(e - m + 1, 0) for e, M, m in axes)
        dec.cut = any(s is not None for s in dec.seams)
        dec.table = _seam_table(cmap, dec.seams)
        object.__setattr__(cmap, "_decoder", dec)
    return dec


def decode(cmap: ColorMap, w) -> DecodeResult | DecodeResultND:
    """Decode a codeword of any decodable map back to its tag."""
    return _decide(compile_decoder(cmap), canonical(w))


def decode_1d(cmap: ColorMap, w) -> DecodeResult:
    """Decode a codeword of a standard 1D braid map back to its tag."""
    dec = compile_decoder(cmap)
    if not isinstance(dec, _Braid) or dec.cut:
        raise ValueError("not a 1D braid map")
    return _decide(dec, canonical(w))


def decode_1d_general(cmap: ColorMap, w) -> DecodeResult:
    """Decode on standard, restricted or modified 1D braid maps."""
    dec = compile_decoder(cmap)
    if not isinstance(dec, _Braid):
        raise ValueError("not a 1D braid map, nor a restriction or modification of one")
    return _decide(dec, canonical(w))


def decode_nd(cmap: ColorMap, w) -> DecodeResultND:
    """Decode a codeword of an n-dim unitary braid map (or its extension)."""
    dec = compile_decoder(cmap)
    if not isinstance(dec, _UnitaryND):
        raise ValueError("not an n-dim unitary braid map")
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
    braid = compile_decoder(cmap)
    if not isinstance(braid, _Braid) or braid.window.shift or braid.window.tail:  # a modification
        raise ValueError("erasure decoding requires a unitary braid map or restriction")
    params = braid.window.params
    if not params.unitary:
        raise ValueError("erasure decoding requires a unitary map")
    (M_r,) = cmap.grid.dims
    m = params.m
    need = Counter(partial)
    if not 0 < sum(need.values()) <= m:
        raise NotACodeword("palette-split", "partial codeword size out of range")

    cands = None
    for cid, n in need.items():
        i = braid.sub_of.get(cid)
        if i is None:
            raise NotACodeword("palette-split", f"unknown color id {cid}")
        alpha = braid.tables[i][(cid,)]
        points = range(i + m * alpha, M_r, m * params.ells[i])
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
