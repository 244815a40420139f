"""Independent brute-force verification of distinguishability and structure.

The oracle shares no logic with the constructions: it reads every block
of the coding area straight from the color array and looks for colliding
codewords.  It is the ground truth for tests and for the ``verify`` CLI
command.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from .core import Codeword, ColorMap, coding_area_shape, coding_area_size

DEFAULT_LIMIT = 100_000


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a distinguishability check.

    ``elapsed_s`` and ``blocks_per_s`` report the cost of the walk; they
    take no part in ``==``.
    """

    ok: bool
    checked: int
    counterexample: tuple | None = None  # (tag_a, tag_b, codeword)
    elapsed_s: float = field(default=0.0, compare=False)
    blocks_per_s: float = field(default=0.0, compare=False)


def _wrap_pad(colors, dims: tuple[int, ...], block: tuple[int, ...]):
    """The row-major color array extended cyclically along every axis by
    its first m_i - 1 slices, and the extended dims, so that every block
    of a cyclic grid is a box of the result."""
    arr = list(colors)
    inner = 1
    padded = list(dims)
    for i in reversed(range(len(dims))):
        slab = padded[i] * inner  # axis i and the (already padded) later axes
        extra = (block[i] - 1) * inner
        out = []
        for s in range(0, len(arr), slab):
            out += arr[s:s + slab]
            out += arr[s:s + extra]
        arr = out
        padded[i] += block[i] - 1
        inner *= padded[i]
    return arr, tuple(padded)


def _codewords(cmap: ColorMap) -> Iterator[Codeword]:
    """Canonical codeword of every tag of the coding area, in coding-area
    (row-major) order.

    Blocks are read from the color array, padded first on a cyclic grid;
    along the last axis the colors at each block offset form one slice,
    and zipping the slices gives the blocks of a whole row of tags.
    """
    grid, block = cmap.grid, cmap.block
    if grid.cyclic:
        arr, dims = _wrap_pad(cmap.colors, grid.dims, block.dims)
    else:
        arr, dims = cmap.colors, grid.dims
    strides = [1] * len(dims)
    for i in reversed(range(len(dims) - 1)):
        strides[i] = strides[i + 1] * dims[i + 1]
    offsets = [
        sum(o * s for o, s in zip(off, strides))
        for off in itertools.product(*(range(m) for m in block.dims))
    ]
    *outer, width = coding_area_shape(grid, block).dims
    for row in itertools.product(*(range(a) for a in outer)):
        base = sum(t * s for t, s in zip(row, strides))
        columns = [arr[base + o:base + o + width] for o in offsets]
        yield from map(tuple, map(sorted, zip(*columns)))


def is_distinguishable(cmap: ColorMap, limit: int = DEFAULT_LIMIT) -> VerifyReport:
    """Exhaustively check that all block codewords are pairwise distinct.

    The first collision (lexicographically smallest tag pair) is
    reported.  Refuses coding areas beyond the limit.
    """
    size = coding_area_size(cmap.grid, cmap.block)
    if size > limit:
        raise ValueError(f"coding area {size} exceeds verification limit {limit}")
    t0 = time.perf_counter()
    seen: dict[Codeword, int] = {}
    counterexample = None
    for k, w in enumerate(_codewords(cmap)):
        first = seen.setdefault(w, k)
        if first != k:
            area = coding_area_shape(cmap.grid, cmap.block)
            counterexample = (area.point(first), area.point(k), w)
            break
    checked = len(seen) + (counterexample is not None)
    elapsed = time.perf_counter() - t0
    return VerifyReport(
        counterexample is None, checked, counterexample,
        elapsed_s=elapsed, blocks_per_s=checked / elapsed if elapsed > 0 else 0.0,
    )


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
    if params.get("kind") != "braid1d" or not cmap.grid.cyclic:
        return StructureReport(False, ("not a standard 1D braid map",))
    parts = params["parts"]
    (M,) = cmap.grid.dims
    m = sum(parts)
    unitary = all(p == 1 for p in parts)
    if unitary:
        for x, w in enumerate(_codewords(cmap)):
            if len(set(w)) != m:
                problems.append(f"block {x} repeats a color: {w}")
                break
    # repetitive law: sub-grid i tiles its generator with period ell_i
    owner = [i for i, p in enumerate(parts) for _ in range(p)]
    positions: dict[int, list[int]] = defaultdict(list)
    for x in range(M):
        positions[owner[x % m]].append(x)
    for i, gen in enumerate(params["gens"]):
        ell, gen_colors = gen["ell"], gen["colors"]
        for rank, x in enumerate(positions[i]):
            if cmap.colors[x] != gen_colors[rank % ell]:
                problems.append(f"sub-grid {i}: point {x} breaks period ell={ell}")
                break
        if unitary and len(set(gen_colors)) != ell:
            problems.append(f"sub-grid {i}: generator not injective on its period")
    return StructureReport(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# Scaling bench over prime-window grid families


@dataclass(frozen=True)
class BenchRow:
    s: int
    L: int
    K: int
    ratio: float


def prime_window(start_index: int, count: int) -> list[int]:
    """``count`` consecutive primes beginning with the start_index-th (1-based).

    A sieve of Eratosthenes runs up to Rosser's bound on the last prime
    wanted, p_n < n (ln n + ln ln n) for n >= 6 (and p_5 = 11 < 13).
    """
    if start_index < 1:
        raise ValueError(f"prime index must be at least 1, got {start_index}")
    n = start_index + count - 1
    limit = 13 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    primes = itertools.compress(range(limit + 1), sieve)
    return list(itertools.islice(primes, start_index - 1, n))


def order_bench(m: int, s_values) -> list[BenchRow]:
    """Color counts over the prime-window grid family, one row per window.

    Family s uses the window of 2m consecutive primes starting at the
    s-th prime as braid q-parameters with g = 2: grid size
    L_s = 2m * prod(window) and color count K = 2 * sum(window)
    (K = L for m = 1, where every point needs its own color).  The
    ratio compares K against the family's own growth order L^(1/l),
    where l is the number of independent prime parameters: l = 1 for
    m = 1 (K = L exactly) and l = 2m otherwise.  It stays within
    [1, 4m], with equality to 1 only at m = 1.  The families are
    one-dimensional.
    """
    if m < 1:
        raise ValueError(f"block size m must be at least 1, got {m}")
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
