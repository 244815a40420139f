"""Interlocking decomposition of one- and n-dimensional cyclic grids.

A 1D decomposition splits G^c_M with block size m (m | M) into sub-grids
S_0, ..., S_{I-1} given by parts (m_0, ..., m_{I-1}) summing to m: S_i
collects the points whose residue mod m falls in the i-th offset window,
and is isomorphic to the cyclic grid of size M_i = m_i * M / m.

The unitary (all-ones) decomposition generalizes to n dimensions: points
are classed by their componentwise residue J mod m.
"""

from __future__ import annotations

import bisect
import itertools
import operator

from .core import (
    BlockSpec,
    ColorMap,
    GridSpec,
    PaletteEntry,
    Point,
    PaletteError,
    int_tuple,
    record,
)


@record
class Decomposition1D:
    """1D decomposition of G^c_M into I interlocked sub-grids.

    Derived state, built once per decomposition and no field: the block
    ``m`` = sum(parts), the sub-grid count ``I``, the ``offsets``
    d_i = m_0 + ... + m_{i-1} and the ``subgrid_sizes`` M_i = m_i * M / m.
    """

    M: int
    parts: tuple[int, ...]

    def __post_init__(self):
        M, *parts = int_tuple((self.M, *self.parts), "decomposition sizes")
        parts, m = tuple(parts), sum(parts)
        object.__setattr__(self, "parts", parts)
        if M < 1 or not parts or any(p < 1 for p in parts):
            raise ValueError(f"size M={M} and parts must be positive: {parts}")
        if self.M % m != 0:
            raise ValueError(f"block size {m} must divide M={self.M}")
        vars(self).update(m=m, I=len(parts),
                          offsets=tuple(itertools.accumulate(parts, initial=0))[:-1],
                          subgrid_sizes=tuple(p * self.M // m for p in parts))

    def subgrid_of(self, x: int) -> int:
        """Index i with x in S_i: the last offset d_i <= x mod m.

        The windows [d_i, d_i + m_i) tile [0, m), so every integer point
        lies in exactly one; a point that is not an integer lies in none.
        """
        try:
            r = operator.index(x) % self.m
        except TypeError:
            raise ValueError(f"point {x!r} is not an integer") from None
        return bisect.bisect_right(self.offsets, r) - 1

    def split(self, x: int) -> tuple[int, int, int]:
        """Decompose x = j*m + d_i + x_r with 0 <= x_r < m_i; returns (i, j, x_r)."""
        i = self.subgrid_of(x % self.M)
        x = x % self.M
        j, r = divmod(x, self.m)
        return i, j, r - self.offsets[i]


def theta(dec: Decomposition1D, i: int, x: int) -> int:
    """Isomorphism S_i -> Z_{M_i}: j*m + d_i + x_r maps to j*m_i + x_r."""
    sub, j, x_r = dec.split(x)
    if sub != i:
        raise ValueError(f"point {x} not in sub-grid {i}")
    return j * dec.parts[i] + x_r


def theta_inv(dec: Decomposition1D, i: int, y: int) -> int:
    """Inverse of ``theta``: j*m_i + x_r maps back to j*m + d_i + x_r."""
    if not 0 <= y < dec.subgrid_sizes[i]:
        raise ValueError(f"{y} outside sub-grid {i} of size {dec.subgrid_sizes[i]}")
    j, x_r = divmod(y, dec.parts[i])
    return j * dec.m + dec.offsets[i] + x_r


def classify_block(dec: Decomposition1D, x: int) -> list[tuple[int, int, bool]]:
    """Sub-block structure of the m-block at x.

    Returns, per sub-grid l, a triple (l, start, aligned): the block's
    points in S_l form one m_l-block of Z_{M_l} beginning at ``start``
    (in sub-grid coordinates); ``aligned`` marks starts that are
    multiples of m_l.  Exactly one sub-block may be non-aligned.
    """
    i, j, x_r = dec.split(x)
    out = []
    for l, (m_l, M_l) in enumerate(zip(dec.parts, dec.subgrid_sizes)):
        if l == i and x_r != 0:
            start = (j * m_l + x_r) % M_l
            out.append((l, start, False))
        elif l >= i:
            out.append((l, (j * m_l) % M_l, True))
        else:
            out.append((l, ((j + 1) * m_l) % M_l, True))
    return out


def synthesize(dec: Decomposition1D, submaps: list[ColorMap]) -> ColorMap:
    """Assemble a map on G^c_M from per-sub-grid maps via the theta isomorphisms.

    Sub-map i must live on the cyclic grid of size M_i with block m_i, and
    palettes must be pairwise disjoint.
    """
    if len(submaps) != dec.I:
        raise ValueError(f"expected {dec.I} sub-maps, got {len(submaps)}")
    seen: set[int] = set()
    for i, sm in enumerate(submaps):
        if sm.grid.dims != (dec.subgrid_sizes[i],) or not sm.grid.cyclic:
            raise ValueError(f"sub-map {i} grid {sm.grid.dims} != cyclic {dec.subgrid_sizes[i]}")
        if sm.block.dims != (dec.parts[i],):
            raise ValueError(f"sub-map {i} block {sm.block.dims} != {dec.parts[i]}")
        ids = {e.id for e in sm.palette}
        if ids & seen:
            raise PaletteError(f"sub-map {i} palette overlaps earlier sub-maps")
        seen |= ids

    # Sub-grid i holds the residue classes d_i + r (mod m), r < m_i, and
    # theta sends the class in order onto r (mod m_i) of the sub-map.
    m = dec.m
    colors = [0] * dec.M
    for d, m_i, sm in zip(dec.offsets, dec.parts, submaps):
        for r in range(m_i):
            colors[d + r::m] = sm.colors[r::m_i]
    palette = []
    for i, sm in enumerate(submaps):
        for e in sm.palette:
            palette.append(PaletteEntry(id=e.id, subgrid=(i,), factors=e.factors, label=e.label))
    return ColorMap(
        grid=GridSpec((dec.M,)),
        block=BlockSpec((dec.m,)),
        colors=tuple(colors),
        palette=tuple(palette),
        params=None,
    )


# ---------------------------------------------------------------------------
# Unitary decomposition in n dimensions


@record
class UnitaryDecompositionND:
    """All-ones decomposition of an n-dim cyclic grid by residues mod m."""

    dims: tuple[int, ...]
    block: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", int_tuple(self.dims, "decomposition dims"))
        object.__setattr__(self, "block", int_tuple(self.block, "decomposition block"))
        if len(self.dims) != len(self.block):
            raise ValueError("dims and block dimension mismatch")
        if any(M < 1 or m < 1 or M % m != 0 for M, m in zip(self.dims, self.block)):
            raise ValueError(f"block {self.block} must divide dims {self.dims} componentwise, "
                             "all positive")

    def subgrid_of(self, x: Point) -> tuple[int, ...]:
        return tuple(c % m for c, m in zip(x, self.block))

    def split(self, x: Point) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """x = J + l*m componentwise; returns (J, l)."""
        J, l = [], []
        for c, m in zip(x, self.block):
            J.append(c % m)
            l.append(c // m)
        return tuple(J), tuple(l)

    def unsplit(self, J: tuple[int, ...], l: tuple[int, ...]) -> Point:
        return tuple(j + li * m for j, li, m in zip(J, l, self.block))


def unitary_block_membership(dec: UnitaryDecompositionND, x: Point) -> dict[tuple[int, ...], Point]:
    """Map sub-grid index J to the unique block point of B(x) in S_J.

    The block offsets run over every residue vector mod m once, and m
    divides the dims, so wrapping keeps the residues: each J is hit once.
    """
    grid = GridSpec(dec.dims)
    out = {}
    for off in GridSpec(dec.block).points():
        p = grid.wrap(tuple(c + o for c, o in zip(x, off)))
        out[dec.subgrid_of(p)] = p
    return out
