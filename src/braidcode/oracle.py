"""Independent brute-force verification of distinguishability and structure.

The oracle shares no logic with the constructions: it encodes every tag
in the coding area and looks for colliding codewords.  It is the ground
truth for tests and for the ``verify`` CLI command.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .core import ColorMap, canonical, coding_area, coding_area_size, encode

DEFAULT_LIMIT = 100_000


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    checked: int
    counterexample: tuple | None = None  # (tag_a, tag_b, codeword)


def verify_limit() -> int:
    return int(os.environ.get("BRAIDCODE_VERIFY_LIMIT", DEFAULT_LIMIT))


def is_distinguishable(cmap: ColorMap, limit: int | None = None) -> VerifyReport:
    """Exhaustively check that all block codewords are pairwise distinct.

    The first collision (lexicographically smallest tag pair) is
    reported.  Refuses coding areas beyond the limit.
    """
    if limit is None:
        limit = verify_limit()
    size = coding_area_size(cmap.grid, cmap.block)
    if size > limit:
        raise ValueError(f"coding area {size} exceeds verification limit {limit}")
    seen: dict[tuple, tuple] = {}
    checked = 0
    for tag in coding_area(cmap.grid, cmap.block):
        w = encode(cmap, tag)
        checked += 1
        if w in seen:
            return VerifyReport(False, checked, (seen[w], tag, w))
        seen[w] = tag
    return VerifyReport(True, checked, None)


def count_colors(cmap: ColorMap) -> int:
    """Number of distinct colors actually used on the grid."""
    return len(set(cmap.colors))


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    problems: tuple[str, ...]


def check_structure(cmap: ColorMap) -> StructureReport:
    """Structural checks for unitary 1D braid maps.

    Verifies multiplicity-1 codewords (each sub-grid contributes one
    color per block) and the periodicity law: two points of sub-grid i
    share a color iff their distance is a multiple of ell_i.
    """
    problems = []
    params = cmap.params or {}
    if params.get("kind") != "braid1d":
        return StructureReport(False, ("not a standard 1D braid map",))
    parts = params["parts"]
    g = params["g"]
    (M,) = cmap.grid.dims
    m = sum(parts)
    unitary = all(p == 1 for p in parts)
    if unitary:
        for x in range(M):
            w = encode(cmap, (x,))
            if len(set(w)) != m:
                problems.append(f"block {x} repeats a color: {w}")
                break
    # repetitive law: sub-grid i tiles its generator with period ell_i
    for i, gen in enumerate(params["gens"]):
        ell = gen["ell"]
        sub_positions = [x for x in range(M) if _subgrid_of(x, parts) == i]
        for rank, x in enumerate(sub_positions):
            if cmap.colors[x] != gen["colors"][rank % ell]:
                problems.append(f"sub-grid {i}: point {x} breaks period ell={ell}")
                break
        if unitary and len(set(gen["colors"])) != ell:
            problems.append(f"sub-grid {i}: generator not injective on its period")
    return StructureReport(not problems, tuple(problems))


def _subgrid_of(x: int, parts) -> int:
    r = x % sum(parts)
    acc = 0
    for i, p in enumerate(parts):
        if acc <= r < acc + p:
            return i
        acc += p
    raise AssertionError


# ---------------------------------------------------------------------------
# Scaling bench over prime-window grid families


@dataclass(frozen=True)
class BenchRow:
    s: int
    L: int
    K: int
    ratio: float


def prime_window(start_index: int, count: int) -> list[int]:
    """``count`` consecutive primes beginning with the start_index-th (1-based)."""
    import sympy  # deferred: costs more to import than the rest of the package

    return [sympy.prime(start_index + i) for i in range(count)]


def order_bench(m: int, n: int, s_values) -> list[BenchRow]:
    """Color counts over the prime-window grid family, one row per window.

    Family s uses the window of 2m consecutive primes starting at the
    s-th prime as braid q-parameters with g = 2: grid size
    L_s = 2m * prod(window) and color count K = 2 * sum(window)
    (K = L for m = 1, where every point needs its own color).  The
    ratio compares K against the family's own growth order L^(1/l),
    where l is the number of independent prime parameters: l = 1 for
    m = 1 (K = L exactly) and l = 2m otherwise.  It stays within
    [1, 4m], with equality to 1 only at m = 1.
    """
    if n != 1:
        raise ValueError("the bench is implemented for n=1 families")
    rows = []
    for s in s_values:
        window = prime_window(s, 2 * m)
        L = 2 * m * math.prod(window)
        K = L if m == 1 else 2 * sum(window)
        l = 1 if m == 1 else 2 * m
        rows.append(BenchRow(s=s, L=L, K=K, ratio=K / L ** (1 / l)))
    return rows


def bench_tsv(rows) -> str:
    lines = ["L\tK\tratio"]
    for row in rows:
        lines.append(f"{row.L}\t{row.K}\t{row.ratio:.6f}")
    return "\n".join(lines)
