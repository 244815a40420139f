"""Distinguishable generator codes on small cyclic grids.

A generator is an m-distinguishable color map Gamma on G^c_ell: every
m-block has a distinct color multiset.  Tiling a generator around a
larger cyclic grid whose size it divides gives a repetitive code, the raw
material for braid constructions.

Closed forms for the largest cyclic grid admitting an m-distinguishable
code with k colors are known for m <= 3; beyond that we fall back to
bounded exhaustive search.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from typing import NamedTuple

from .core import BlockSpec, ColorMap, GridSpec, PaletteEntry, canonical, record


class UnsupportedGeneratorError(ValueError):
    """No builtin or cheaply searchable generator for the requested size."""


# Search nodes ``find_generator`` may spend on one fewest-color search
# before it falls back to the identity generator.
FIND_GENERATOR_BUDGET = 2_000_000


def max_cyclic_length(m: int, k: int) -> int:
    """Largest ell admitting an m-distinguishable code on G^c_ell with k colors.

    Exact closed forms for m <= 3.  The formulas describe the asymptotic
    regime; for degenerate lengths ell <= m+1 a cyclic code additionally
    needs injectivity, which the forms ignore.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if m == 1:
        return k
    if m == 2:
        v = math.comb(k + 1, 2)
        return v - k // 2 if k % 2 == 0 else v
    if m == 3:
        v = math.comb(k + 2, 3)
        return v - k // 3 if k % 3 == 0 else v
    raise ValueError(f"no closed form for m={m}")


class MinColors(NamedTuple):
    k: int
    exact: bool


def min_colors(m: int, ell: int) -> MinColors:
    """Fewest colors of an m-distinguishable code on G^c_ell.

    Exact (by inverting the closed forms) for m <= 3; for larger m a
    search-based upper bound is returned with ``exact=False``.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if m <= 3:
        # max_cyclic_length(m, .) is increasing and reaches ell by k = ell
        k = bisect.bisect_left(range(1, ell + 1), ell, key=lambda k: max_cyclic_length(m, k)) + 1
        return MinColors(k, True)
    # crude search for an upper bound: try growing k until a code is found
    for k in range(1, ell + 1):
        res = search_distinguishable(ell, m, k, budget=200_000)
        if res.status is SearchStatus.FOUND:
            return MinColors(k, False)
        if res.status is SearchStatus.INCONCLUSIVE:
            break
    return MinColors(ell, False)  # identity coloring always works


@record
class GeneratorCode:
    """An m-distinguishable coloring of G^c_ell."""

    ell: int
    m: int
    colors: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.colors) != self.ell:
            raise ValueError("generator length mismatch")

    @property
    def k(self) -> int:
        return len(set(self.colors))

    def codeword(self, x: int):
        return canonical(self.colors[(x + t) % self.ell] for t in range(self.m))

    def is_distinguishable(self) -> bool:
        seen = set()
        for x in range(self.ell):
            w = self.codeword(x)
            if w in seen:
                return False
            seen.add(w)
        return True

    def to_colormap(self, id_offset: int = 0, subgrid: tuple[int, ...] | None = None) -> ColorMap:
        """Dense ColorMap view with ids shifted by ``id_offset``."""
        k = max(self.colors) + 1
        palette = tuple(
            PaletteEntry(id=c + id_offset, subgrid=subgrid, factors=None, label=self.labels[c])
            for c in range(k)
        )
        return ColorMap(
            grid=GridSpec((self.ell,)),
            block=BlockSpec((self.m,)),
            colors=tuple(map(id_offset.__add__, self.colors)),
            palette=palette,
            params={"kind": "generator", "ell": self.ell, "m": self.m},
        )


def identity_generator(ell: int, m: int) -> GeneratorCode:
    """Injective coloring: m-distinguishable for every m < ell, at k = ell."""
    if not 1 <= m < ell:
        raise ValueError(f"need 1 <= m < ell, got m={m}, ell={ell}")
    return GeneratorCode(ell, m, tuple(range(ell)), tuple(f"c_{i}" for i in range(ell)))


class SearchStatus(enum.Enum):
    FOUND = "found"
    NOT_FOUND = "not-found"
    INCONCLUSIVE = "inconclusive"


@record
class SearchResult:
    status: SearchStatus
    code: GeneratorCode | None = None
    nodes: int = 0


def search_distinguishable(ell: int, m: int, k: int, budget: int = 10_000_000) -> SearchResult:
    """Depth-first search for an m-distinguishable k-coloring of G^c_ell.

    Deterministic lexicographic order with canonical labeling (color c may
    appear only after colors < c).  NOT_FOUND is exhaustive; INCONCLUSIVE
    means the node budget ran out first.
    """
    if ell <= m:
        return SearchResult(SearchStatus.NOT_FOUND)
    colors = [0] * ell
    seen: dict[tuple, int] = {}
    nodes = 0
    exhausted = True

    def word(x: int) -> tuple:
        return tuple(sorted(colors[(x + t) % ell] for t in range(m)))

    def rec(pos: int, maxc: int) -> GeneratorCode | None:
        nonlocal nodes, exhausted
        if pos == ell:
            extra = []
            ok = True
            for x in range(ell - m + 1, ell):
                w = word(x)
                if w in seen:
                    ok = False
                    break
                seen[w] = x
                extra.append(w)
            for w in extra:
                del seen[w]
            if ok:
                return GeneratorCode(ell, m, tuple(colors), tuple(f"c_{i}" for i in range(k)))
            return None
        for c in range(min(maxc + 1, k)):
            nodes += 1
            if nodes > budget:
                exhausted = False
                return None
            colors[pos] = c
            w = None
            if pos >= m - 1:  # the codeword at pos-m+1 is fully fixed once pos is set
                x = pos - m + 1
                w = word(x)
                if w in seen:
                    continue
                seen[w] = x
            got = rec(pos + 1, max(maxc, c + 1) if c == maxc else maxc)
            if w is not None:
                del seen[w]
            if got is not None:
                return got
            if not exhausted:
                return None
        return None

    # canonical labeling: position 0 is color 0
    found = rec(0, 0)
    if found is not None:  # every window was checked against the others on the way
        return SearchResult(SearchStatus.FOUND, found, nodes)
    if exhausted:
        return SearchResult(SearchStatus.NOT_FOUND, None, nodes)
    return SearchResult(SearchStatus.INCONCLUSIVE, None, nodes)


def repetitive_extend(gen: GeneratorCode, M: int) -> GeneratorCode:
    """Tile a generator around G^c_M (requires ell | M)."""
    if M % gen.ell != 0:
        raise ValueError(f"generator length {gen.ell} must divide {M}")
    return GeneratorCode(M, gen.m, gen.colors * (M // gen.ell), gen.labels)


# ---------------------------------------------------------------------------
# Builtin catalog of small hand-verified generators


def _seq(labels: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Parse 'a1 a1 a2 ...' into dense ids (subscript-1) plus label table."""
    toks = labels.split()
    ids = tuple(int(t[1:]) - 1 for t in toks)
    k = max(ids) + 1
    names = tuple(f"{toks[0][0]}_{i + 1}" for i in range(k))
    return ids, names


_CATALOG_RAW = {
    # 2-distinguishable, 3 colors, length 6
    "pair-6": ("a1 a1 a2 a2 a3 a3", 2),
    # 2-distinguishable, 3 colors, length 3
    "pair-3": ("a1 a2 a3", 2),
    # 2-distinguishable, 5 colors, length 15
    "pair-15": ("a1 a1 a2 a2 a3 a3 a4 a4 a5 a5 a1 a3 a5 a2 a4", 2),
    # 3-distinguishable, 3 colors, length 5
    "triple-5": ("b1 b1 b2 b2 b3", 3),
    # 3-distinguishable, 6 colors, length 45
    "triple-45": (
        "b1 b1 b1 b2 b2 b2 b3 b3 b3 "
        "b1 b1 b6 b6 b3 b1 b5 b5 b2 "
        "b2 b4 b5 b3 b5 b3 b2 b4 b4 "
        "b3 b3 b6 b2 b1 b4 b1 b4 b6 "
        "b2 b6 b2 b5 b1 b4 b3 b6 b5",
        3,
    ),
}


@functools.cache
def builtin(name: str) -> GeneratorCode:
    """Fetch a catalog generator, verified distinguishable on first load.

    Generators are frozen and hold tuples, so each name is parsed and
    verified once and the same object is returned after that.
    """
    if name not in _CATALOG_RAW:
        raise UnsupportedGeneratorError(f"no builtin generator {name!r}; have {sorted(_CATALOG_RAW)}")
    text, m = _CATALOG_RAW[name]
    ids, names = _seq(text)
    gen = GeneratorCode(len(ids), m, ids, names)
    if not gen.is_distinguishable():
        raise ValueError(f"catalog generator {name} is not {m}-distinguishable")
    return gen


def catalog_names() -> list[str]:
    return sorted(_CATALOG_RAW)


def find_generator(ell: int, m: int) -> GeneratorCode:
    """Best-effort generator for (ell, m): catalog, then search, then identity."""
    for name in catalog_names():
        g = builtin(name)
        if g.m == m and g.ell == ell:
            return g
    if m == 1:
        return identity_generator(ell, m) if ell > 1 else GeneratorCode(1, 1, (0,), ("c_0",))
    if m <= 3:
        k = min_colors(m, ell).k
        res = search_distinguishable(ell, m, k, budget=FIND_GENERATOR_BUDGET)
        if res.status is SearchStatus.FOUND:
            return res.code
    if ell > m:
        return identity_generator(ell, m)
    raise UnsupportedGeneratorError(f"no generator available for ell={ell}, m={m}")
