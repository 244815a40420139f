"""One-dimensional braid codes.

A braid code interlocks repetitive codes on the sub-grids of a 1D
decomposition so that their periods braid into an m-distinguishable map
on the whole cyclic grid.  Parameters per sub-grid i: generator length
ell_i = g * c_i * q_i with c_i = gcd(m_i, ell_i), the shared factor
g > 1, and M = m * g * lcm(q_0, ..., q_{I-1}).

Class 1 codes have c_i = m_i everywhere, class 2 have c_i = 1; mixtures
are allowed.  Codes with all parts equal to 1 are called unitary.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

# Nothing here uses sunmao, but perfbench's tracer needs it loaded with
# braid1d until ROADMAP direction 1 step 1b lands.
from . import sunmao  # noqa: F401
from .core import BlockSpec, ColorMap, GridSpec, PaletteEntry, int_tuple, record
from .generators import GeneratorCode, find_generator, min_colors
from .params import BraidParams1D, _colors_1d, params_of, validate  # noqa: F401  re-exported
from .params import Window1D, _generator_fields, _params_dict_1d, _split_clash, is_nd_kind

_FIELDS = operator.attrgetter("ell", "m", "colors")  # the fields a map file stores of a generator


class InfeasibleError(ValueError):
    """No valid braid parameterization exists for the request."""


def construct(params: BraidParams1D, gens: list[GeneratorCode] | None = None) -> ColorMap:
    """Build the braid code map from validated params and generators.

    Generator i must be an m_i-distinguishable code on G^c_{ell_i} with
    ids 0..k_i-1, k_i = max id + 1; its ids are shifted by the k_j of the
    generators before it, so sub-grid palettes are disjoint, sub-grid 0
    first.  When ``gens`` is None, generators are chosen automatically.
    The colors are ``_colors_1d``'s, the rule ``params_of`` proves a map
    against, and the params ``_params_dict_1d``'s.  What ``params_of``
    would refuse in the map is refused here, in its words and order: params
    ``validate`` refuses (as InfeasibleError), then what
    ``_generator_fields`` refuses, then what ``Window1D`` refuses (a
    generator past the parts before any id is shifted).  So the map keeps
    ``params_of``'s value, and its reads skip the proof.
    """
    errs = validate(params)
    if errs:
        raise InfeasibleError("; ".join(errs))
    if gens is None:
        gens = [find_generator(ell, m_i) for ell, m_i in zip(params.ells, params.parts)]
    _generator_fields(params, map(_FIELDS, gens))  # as params_of reads stored ones
    if gens[params.I:]:  # a generator past the parts, refused before any id is shifted
        Window1D(params, tuple(gen.colors for gen in gens))  # in the reader's words
    gen_colors, palette = [], []
    for i, gen in enumerate(gens):
        if min(gen.colors) < 0:
            raise ValueError(f"generator {i} has a negative color id")
        ids, entries = gen.shifted(len(palette), (i,))  # ids 0..k-1 follow the palette so far
        gen_colors.append(ids)
        palette += entries
    window = Window1D(params, tuple(gen_colors))  # refuses the generators as params_of does
    cmap = ColorMap(
        grid=GridSpec((params.M,)),
        block=BlockSpec((params.m,)),
        colors=tuple(_colors_1d(window, params.M)),
        palette=tuple(palette),
        params=_params_dict_1d(window),
    )
    # the value params_of gives this map: every check it makes has passed above
    object.__setattr__(cmap, "_checked_params", window)
    return cmap


# ---------------------------------------------------------------------------
# Optimizer


@record
class OptimizeResult:
    params: BraidParams1D
    cost: int
    costs: tuple[int, ...]
    exact: bool


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending, by trial division up to sqrt(n); none for n < 1."""
    small, large = [], []
    for d in range(1, math.isqrt(max(n, 0)) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def _shared_factors(M: int, parts: tuple[int, ...]):
    """Yield (g, Q, qdivs) for every shared factor g > 1 of N = M/m,
    ascending: Q = N/g is the lcm the q-vector must reach and ``qdivs``
    its divisors, ascending, the values each q_i may take.  M and the parts
    are read as the params reader reads them: a value that is not an int
    (24.0, true), M < 1 and a part < 1 raise ValueError."""
    M, *parts = int_tuple((M, *parts), "grid size M and parts")
    if M < 1:
        raise ValueError(f"grid size M must be positive, got {M}")
    if not parts or any(m_i < 1 for m_i in parts):
        raise ValueError(f"parts must be positive, got {tuple(parts)}")
    m = sum(parts)
    if M % m != 0:
        raise InfeasibleError(f"block size {m} must divide M={M}")
    N = M // m
    divs = _divisors(N)
    for g in divs[1:]:
        Q = N // g
        yield g, Q, [d for d in divs if Q % d == 0]  # ascending, as _divisors(Q)


def enumerate_params(M: int, parts: tuple[int, ...], klass: str = "auto"):
    """All valid (g, c, q) for the given grid size and parts: g ascending,
    then q and c in ``itertools.product`` order.

    ``klass`` restricts to class-1 (c_i = m_i) or class-2 (c_i = 1) codes.
    """
    single = len(parts) == 1
    for g, Q, qdivs in _shared_factors(M, parts):
        options = {(m_i, q_i): _c_options(m_i, g, q_i, klass, single)
                   for m_i in set(parts) for q_i in qdivs}
        for q in itertools.product(qdivs, repeat=len(parts)):
            if math.lcm(*q) == Q:
                for c in itertools.product(*(options[pair] for pair in zip(parts, q))):
                    if not _split_clash(parts, g, c, q):  # the rule validate applies
                        yield BraidParams1D(M=M, parts=parts, g=g, c=c, q=q)


def _c_options(m_i: int, g: int, q_i: int, klass: str, single: bool) -> list[int]:
    """The c_i a part of size m_i admits with shared factor g and q_i."""
    opts = []
    for c_i in _divisors(m_i):
        if klass == "1" and c_i != m_i:
            continue
        if klass == "2" and c_i != 1:
            continue
        if single and c_i != m_i:
            continue
        if g * c_i <= m_i:
            continue
        if math.gcd(m_i, g * c_i * q_i) != c_i:  # the rule validate applies
            continue
        opts.append(c_i)
    return opts


def optimize_generators(M: int, parts: tuple[int, ...], klass: str = "auto") -> OptimizeResult:
    """Minimize total generator colors over all valid braid parameterizations.

    Cost is the sum of the fewest-color counts for each (ell_i, m_i);
    ties break toward lexicographically smallest (ell-list, g).  The
    result is exact when every part is at most 3.  M and the parts must be
    positive ints (else ValueError); InfeasibleError says no code fits them.

    The walk is a depth-first branch and bound over ``enumerate_params``'s
    order: g ascending, then q_1, q_2, ... each over the divisors of
    Q = N/g, then the c picks.  ``min_colors(m_i, ell)`` never decreases
    as ell grows and ell_i = g*c_i*q_i >= g*q_i, so a part costs at least
    ``min_colors(m_i, g*q_i)``.  A g stops the walk once its floor
    sum_i min_colors(m_i, g) exceeds the best cost, a q_i ends its part's
    scan once the cost so far (each chosen part's cheapest c), part i's
    floor at g*q_i and the later parts' floors at g exceed it, and the last
    q must lift the lcm so far, L, to Q, so it costs at least
    ``min_colors(m_n, g*Q/L)``.  Pruning is strict, so candidates that
    could tie still reach the key in order, and the result is the one
    scoring every candidate gives.  Each part's c options are built only
    for the (m_i, q_i) the walk reaches; one params record is built, for
    the winner.
    """
    parts = tuple(parts)
    fewest = functools.cache(min_colors)  # few distinct (m_i, ell) pairs recur
    single, last = len(parts) == 1, len(parts) - 1
    best = None  # ((cost, ells, g), c, q)
    for g, Q, qdivs in _shared_factors(M, parts):
        floors = [fewest(m_i, g).k for m_i in parts]
        if best is not None and sum(floors) > best[0][0]:
            break  # a larger g raises every floor
        later = [sum(floors[i + 1:]) for i in range(len(parts))]
        options = {}  # (m_i, q_i) -> [(cost, ell_i, c_i)], c_i ascending

        def walk(i, lcm, partial, q, picked):
            nonlocal best
            m_i = parts[i]
            if i == last and best is not None and partial + fewest(m_i, g * Q // lcm).k > best[0][0]:
                return
            for q_i in qdivs:
                if best is not None and partial + fewest(m_i, g * q_i).k + later[i] > best[0][0]:
                    break  # later q_i are no cheaper
                lcm_i = math.lcm(lcm, q_i)
                if i == last and lcm_i != Q:
                    continue
                opts = options.get((m_i, q_i))
                if opts is None:
                    opts = options[m_i, q_i] = [
                        (fewest(m_i, g * c_i * q_i).k, g * c_i * q_i, c_i)
                        for c_i in _c_options(m_i, g, q_i, klass, single)]
                if not opts:
                    continue
                if i < last:
                    walk(i + 1, lcm_i, partial + opts[0][0], q + (q_i,), picked + [opts])
                    continue
                for choice in itertools.product(*picked, opts):
                    costs, ells, c = zip(*choice)
                    key = (sum(costs), ells, g)
                    if (best is None or key < best[0]) and not _split_clash(parts, g, c, q + (q_i,)):
                        best = (key, c, q + (q_i,))

        walk(0, 1, 0, (), [])
    if best is None:
        raise InfeasibleError(f"no valid braid parameterization for M={M}, parts={parts}")
    (cost, ells, g), c, q = best
    mcs = [fewest(m_i, ell) for m_i, ell in zip(parts, ells)]
    return OptimizeResult(params=BraidParams1D(M=M, parts=parts, g=g, c=c, q=q), cost=cost,
                          costs=tuple(mc.k for mc in mcs), exact=all(mc.exact for mc in mcs))


# ---------------------------------------------------------------------------
# Non-standard sizes: restriction and modification


def restrict(cmap: ColorMap, M_r: int) -> ColorMap:
    """Restrict a 1D map to the first M_r points of its grid, kept cyclic.

    Distinguishability is guaranteed when ``params_of`` reads (and so proves,
    its generators and their disjoint ids included) a unitary braid map or a
    restriction of one (shift and tail 0) and the block size does not divide M_r;
    otherwise check the result with the oracle.  A map on more axes and an n-dim braid map, even on one
    axis and whatever its colors, are refused: ``extend_arbitrary_size`` cuts those."""
    if len(cmap.grid.dims) != 1 or is_nd_kind(cmap):
        raise ValueError("restrict cuts 1D braid maps; cut an n-dim braid map with "
                         "extend_arbitrary_size")
    (M_r,) = int_tuple((M_r,), "restriction size M_r")
    try:
        window = params_of(cmap)
    except ValueError:
        window = None  # a hand-made map, malformed params, or colors that contradict them
    (M,) = cmap.grid.dims
    m = cmap.block.dims[0]
    if not m < M_r < M:
        raise ValueError(f"need m < M_r < M, got M_r={M_r}")
    guaranteed = (window is not None and window.shift == window.tail == 0
                  and window.params.unitary and M_r % m != 0)
    return ColorMap(
        grid=GridSpec((M_r,)),
        block=cmap.block,
        colors=cmap.colors[:M_r],
        palette=cmap.palette,
        params={"kind": "restricted", "base": cmap.params, "M_r": M_r, "guaranteed": guaranteed},
    )


def modify_general_size(cmap: ColorMap, M_r: int, fresh: bool = False) -> ColorMap:
    """Shrink a unitary braid map to M_r = J*m points via shift + recolor.

    Rotates the map so the first and last aligned blocks differ at offset
    0, restricts to M_r, then overwrites the last m-1 points with the
    color of the last aligned point (or a globally fresh color when
    ``fresh``).  Only the blocks from M_r - 2m + 2 on wrap or cover
    the overwritten run; the decoder reads them into its seam table.  A
    map whose colors contradict its generators, with a generator that is not
    distinguishable, or with generators that share a color id, raises
    ValueError in ``params_of``, as its decode would.
    """
    window = params_of(cmap)
    params = window.params
    (M_r,) = int_tuple((M_r,), "modification size M_r")
    if cmap.grid.dims != (params.M,) or window.shift or window.tail or not params.unitary:
        raise ValueError("modification requires a standard unitary braid map")
    M, m = params.M, params.m
    if M_r % m != 0 or not 2 * m <= M_r < M:
        raise ValueError(f"need M_r = J*m with 2 <= J and M_r < M, got {M_r}")
    J = M_r // m
    # an offset differs: point i of aligned block j has color gen_i[j mod ell_i], each
    # gen_i is injective (params_of proves it), and lcm(ell_i) = M/m cannot divide 0 < J-1 < M/m
    shift = next(j for j in range(m) if cmap.colors[j] != cmap.colors[(J - 1) * m + j])
    # the window [shift, shift + M_r) does not wrap: shift < m and M_r <= M - m
    cstar = cmap.colors[shift + M_r - m]
    fill = max(e.id for e in cmap.palette) + 1 if fresh else cstar
    palette = cmap.palette + ((PaletteEntry(id=fill, label="fresh"),) if fresh else ())
    colors = tuple(cmap.colors[shift:shift + M_r - m + 1]) + (fill,) * (m - 1)
    return ColorMap(
        grid=GridSpec((M_r,)),
        block=cmap.block,
        colors=colors,
        palette=palette,
        params={
            "kind": "modified",
            "base": cmap.params,
            "M_r": M_r,
            "shift": shift,
            "cstar": cstar,
            "fresh": fill if fresh else None,
        },
    )
