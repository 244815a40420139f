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

# Nothing here uses sunmao, but perfbench's tracer needs it loaded with
# braid1d until ROADMAP direction 1 step 1 lands.
from . import sunmao  # noqa: F401
from .core import BlockSpec, ColorMap, GridSpec, PaletteEntry, record
from .generators import GeneratorCode, find_generator, min_colors
from .params import BraidParams1D, _class_colors, params_of, validate  # noqa: F401  re-exported


class InfeasibleError(ValueError):
    """No valid braid parameterization exists for the request."""


def construct(params: BraidParams1D, gens: list[GeneratorCode] | None = None) -> ColorMap:
    """Build the braid code map from validated params and generators.

    Generator i must be an m_i-distinguishable code on G^c_{ell_i}; ids
    are shifted so sub-grid palettes are disjoint, sub-grid 0 first.
    When ``gens`` is None, generators are chosen automatically.  Each
    residue class is written by ``_class_colors``, the rule the decoder
    proves maps against; ``sunmao.synthesize`` is its reference.  The
    params it stores are read back by ``params_of`` alone.
    """
    errs = validate(params)
    if errs:
        raise InfeasibleError("; ".join(errs))
    ells = params.ells
    if gens is None:
        gens = [find_generator(ell, m_i) for ell, m_i in zip(ells, params.parts)]
    if len(gens) != params.I:
        raise ValueError(f"expected {params.I} generators")
    for i, (gen, ell, m_i) in enumerate(zip(gens, ells, params.parts)):
        if gen.ell != ell or gen.m != m_i:
            raise ValueError(f"generator {i} is ({gen.ell},{gen.m}), need ({ell},{m_i})")
        if not gen.is_distinguishable():
            raise ValueError(f"generator {i} is not {m_i}-distinguishable")

    gen_colors, palette = [], []
    offset = 0
    for i, gen in enumerate(gens):
        period = gen.to_colormap(id_offset=offset, subgrid=(i,))  # one period, ids shifted
        gen_colors.append(period.colors)
        palette += period.palette
        offset += max(gen.colors) + 1
    colors = [0] * params.M
    for x0, want in _class_colors(params, gen_colors, 0, params.M):
        colors[x0::params.m] = want
    return ColorMap(
        grid=GridSpec((params.M,)),
        block=BlockSpec((params.m,)),
        colors=tuple(colors),
        palette=tuple(palette),
        params={
            "kind": "braid1d",
            "g": params.g,
            "parts": list(params.parts),
            "c": list(params.c),
            "q": list(params.q),
            "gens": [{"ell": gen.ell, "m": gen.m, "colors": list(ids)}
                     for gen, ids in zip(gens, gen_colors)],
        },
    )


# ---------------------------------------------------------------------------
# Optimizer


@record
class OptimizeResult:
    params: BraidParams1D
    cost: int
    costs: tuple[int, ...]
    exact: bool


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def enumerate_params(M: int, parts: tuple[int, ...], klass: str = "auto"):
    """All valid (g, c, q) for the given grid size and parts.

    ``klass`` restricts to class-1 (c_i = m_i) or class-2 (c_i = 1) codes.
    """
    if not parts or any(m_i < 1 for m_i in parts):
        raise ValueError(f"parts must be positive, got {parts}")
    m = sum(parts)
    if M % m != 0:
        raise InfeasibleError(f"block size {m} must divide M={M}")
    N = M // m
    for g in _divisors(N):
        if g < 2:
            continue
        Q = N // g
        qdivs = _divisors(Q)
        c_opts = {(m_i, q_i): _c_options(m_i, g, q_i, klass, len(parts) == 1)
                  for m_i in set(parts) for q_i in qdivs}
        for q in itertools.product(qdivs, repeat=len(parts)):
            if math.lcm(*q) != Q:
                continue
            c_choices = [c_opts[m_i, q_i] for m_i, q_i in zip(parts, q)]
            for c in itertools.product(*c_choices):
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
    result is exact when every part is at most 3.
    """
    parts = tuple(parts)
    fewest = functools.cache(min_colors)  # few distinct (m_i, ell) pairs recur
    best = None
    for params in enumerate_params(M, parts, klass):
        mcs = [fewest(m_i, ell) for m_i, ell in zip(params.parts, params.ells)]
        cost = sum(mc.k for mc in mcs)
        exact = all(mc.exact for mc in mcs)
        key = (cost, params.ells, params.g)
        if best is None or key < best[0]:
            best = (key, params, tuple(mc.k for mc in mcs), exact)
    if best is None:
        raise InfeasibleError(f"no valid braid parameterization for M={M}, parts={parts}")
    _, params, costs, exact = best
    return OptimizeResult(params=params, cost=sum(costs), costs=costs, exact=exact)


# ---------------------------------------------------------------------------
# Non-standard sizes: restriction and modification


def restrict(cmap: ColorMap, M_r: int) -> ColorMap:
    """Restrict a 1D map to the first M_r points of its grid, kept cyclic.

    Distinguishability is guaranteed for unitary braid maps, and for
    restrictions of one, when the block size does not divide M_r;
    otherwise the result may collide and should be checked with the oracle.
    """
    (M,) = cmap.grid.dims
    m = cmap.block.dims[0]
    if not m < M_r < M:
        raise ValueError(f"need m < M_r < M, got M_r={M_r}")
    base = root = cmap.params
    while isinstance(root, dict) and root.get("kind") == "restricted":
        root = root.get("base")  # a restriction of a restriction is one of the root
    guaranteed = (
        isinstance(root, dict)
        and root.get("kind") == "braid1d"
        and all(p == 1 for p in root["parts"])
        and M_r % m != 0
    )
    return ColorMap(
        grid=GridSpec((M_r,)),
        block=cmap.block,
        colors=cmap.colors[:M_r],
        palette=cmap.palette,
        params={"kind": "restricted", "base": base, "M_r": M_r, "guaranteed": guaranteed},
    )


def modify_general_size(cmap: ColorMap, M_r: int, fresh: bool = False) -> ColorMap:
    """Shrink a unitary braid map to M_r = J*m points via shift + recolor.

    Rotates the map so the first and last aligned blocks differ at offset
    0, restricts to M_r, then overwrites the last m-1 points with the
    color of the last aligned point (or a globally fresh color when
    ``fresh``).  Only the blocks from M_r - 2m + 2 on wrap or cover
    the overwritten run; the decoder reads them into its seam table.
    """
    params, _, *window = params_of(cmap)  # window: (shift, tail), (0, 0) on a standard map
    if cmap.grid.dims != (params.M,) or window != [0, 0] or not params.unitary:
        raise ValueError("modification requires a standard unitary braid map")
    M, m = params.M, params.m
    if M_r % m != 0 or not 2 * m <= M_r < M:
        raise ValueError(f"need M_r = J*m with 2 <= J and M_r < M, got {M_r}")
    J = M_r // m
    shift = None
    for j in range(m):
        if cmap.colors[j] != cmap.colors[(J - 1) * m + j]:
            shift = j
            break
    if shift is None:
        raise InfeasibleError("aligned blocks 0 and J-1 share all colors; cannot anchor shift")
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
