"""Independent brute-force verification of distinguishability and structure.

The oracle shares no logic with the constructions: it reads every block
of the coding area straight from the color array and looks for colliding
codewords.  It is the ground truth for tests and for the ``verify`` CLI
command.
"""

from __future__ import annotations

import itertools
import math
import operator
import time

from .core import (
    ColorMap, coding_area_shape, coding_area_size, int_tuple, record, take, uncompared,
)

DEFAULT_LIMIT = 100_000


@record
class VerifyReport:
    """Outcome of a distinguishability check.

    ``elapsed_s`` and ``blocks_per_s`` report the cost of the walk; they
    take no part in ``==``.
    """

    ok: bool
    checked: int
    counterexample: tuple | None = None  # (tag_a, tag_b, codeword)
    elapsed_s: float = uncompared(0.0)
    blocks_per_s: float = uncompared(0.0)


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


def _first_true(flags) -> int | None:
    """Index of the first true item, or None; the scan runs in C."""
    return next(itertools.compress(itertools.count(), flags), None)


def _products(seq, m: int, s: int):
    """The products seq[x] * seq[x + s] * ... * seq[x + (m - 1)*s] at every x
    whose last factor ``seq`` holds, as an iterator (``seq`` itself when
    m = 1): the shifted windows are read with ``islice``, not copied."""
    n = len(seq) - (m - 1) * s
    out = seq
    for a in range(s, m * s, s):  # map stops at the window's end: n products
        out = map(operator.mul, out, itertools.islice(seq, a, a + n))
    return out


def is_distinguishable(cmap: ColorMap, limit: int = DEFAULT_LIMIT) -> VerifyReport:
    """Exhaustively check that all block codewords are pairwise distinct.

    Each color id gets its own prime, and each tag the product of the
    primes of its block: by unique factorization two tags share a key
    exactly when their blocks hold the same color multiset.  The ids are
    the set the map keeps from its palette check.  The prime array is
    looked up in one C call (``take``) and, on a cyclic grid, padded by its
    first m_i - 1 slices along each axis (on one axis, one concatenation).
    The products are built one block axis at a time: the row of products
    so far is multiplied by m_i - 1 shifted windows of itself, read with
    ``islice`` rather than copied.  The keys go straight into a set: on one
    axis the products themselves, on more the slice of each row of tags.
    Only a collision lists them, to report the first one in coding-area
    order (lexicographically smallest tag pair).  Refuses coding areas
    beyond the limit.
    """
    size = coding_area_size(cmap.grid, cmap.block)
    if size > limit:
        raise ValueError(f"coding area {size} exceeds verification limit {limit}")
    t0 = time.perf_counter()
    grid, block = cmap.grid, cmap.block
    ids = sorted(cmap._color_ids)
    prime_of = dict(zip(ids, prime_window(1, len(ids))))
    arr, dims = take(prime_of, cmap.colors), grid.dims
    if grid.cyclic and len(dims) == 1:
        arr += arr[:block.dims[0] - 1]
    elif grid.cyclic:
        arr, dims = _wrap_pad(arr, dims, block.dims)
    strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
    area = coding_area_shape(grid, block)
    *outer, width = area.dims
    if outer:
        prods = arr
        for m, s in zip(block.dims, strides):
            if m > 1:
                prods = list(_products(prods, m, s))
        # the first tag of each row of tags; the row's keys are the next width products
        starts = list(map(sum, itertools.product(*(range(0, a * s, s) for a, s in zip(outer, strides)))))

        def keys():
            rows = map(slice, starts, map(width.__add__, starts))
            return itertools.chain.from_iterable(map(prods.__getitem__, rows))
    else:
        def keys():  # on one axis every product is a key
            return _products(arr, block.dims[0], 1)

    counterexample = None
    checked = size
    if len(set(keys())) != size:
        found = list(keys())
        seen: dict[int, int] = {}
        k = next(k for k, key in enumerate(found) if seen.setdefault(key, k) != k)
        checked = k + 1
        tag = area.point(k)
        base = sum(t * s for t, s in zip(tag, strides))
        id_of = dict(zip(prime_of.values(), prime_of))
        w = tuple(sorted(
            id_of[arr[base + sum(o * s for o, s in zip(off, strides))]]
            for off in itertools.product(*map(range, block.dims))
        ))
        counterexample = (area.point(seen[found[k]]), tag, w)
    elapsed = time.perf_counter() - t0
    return VerifyReport(
        counterexample is None, checked, counterexample,
        elapsed_s=elapsed, blocks_per_s=checked / elapsed if elapsed > 0 else 0.0,
    )


def count_colors(cmap: ColorMap) -> int:
    """Number of distinct colors actually used on the grid: the size of the
    id set the map's palette check keeps."""
    return len(cmap._color_ids)


@record
class StructureReport:
    ok: bool
    problems: tuple[str, ...]


def check_structure(cmap: ColorMap) -> StructureReport:
    """Structural checks for unitary 1D braid maps.

    Verifies one generator per sub-grid and blocks of sum(parts) points,
    multiplicity-1 codewords (each sub-grid contributes one color per
    block) and the periodicity law: two points of sub-grid i share a
    color iff their distance is a multiple of ell_i.  Braid params of the
    wrong shape (they may come from a map file) are reported as a problem.
    """
    params = cmap.params
    if not isinstance(params, dict) or params.get("kind") != "braid1d" or not cmap.grid.cyclic:
        return StructureReport(False, ("not a standard 1D braid map",))
    problems = []
    try:
        parts, gens = int_tuple(params["parts"], "parts"), params["gens"]
        colors = cmap.colors
        (M,) = cmap.grid.dims
        (b,) = cmap.block.dims
        m = sum(parts)
        unitary = all(p == 1 for p in parts)
        if len(gens) != len(parts):
            problems.append(f"map lists {len(gens)} generators for {len(parts)} sub-grids")
        if b != m:
            problems.append(f"block size {b} differs from sum(parts) {m}")
        elif unitary:
            padded = colors + colors[:m - 1]
            # a pair of equal colors at distance d < m, the first at y, lies in
            # the blocks y - (m - 1 - d) .. y; any() skips the search when none
            x = min((
                max(0, _first_true(map(operator.eq, padded, padded[d:])) - (m - 1 - d))
                for d in range(1, m) if any(map(operator.eq, padded, padded[d:]))
            ), default=None)
            if x is not None:
                problems.append(f"block {x} repeats a color: {tuple(sorted(padded[x:x + m]))}")
        # repetitive law: sub-grid i tiles its generator with period ell_i; its
        # residue r < m_i holds the points d_i + r + k*m, of rank r + k*m_i
        for i, (gen, d, p) in enumerate(zip(gens, itertools.accumulate(parts, initial=0), parts)):
            ell, gen_colors = gen["ell"], gen["colors"]
            if ell < 1:  # no period to tile: reported as malformed, as a bad field is
                raise ValueError(f"generator {i} has period ell={ell}, not a positive int")
            count = len(range(d, M, m)) * p
            # indexing, not gen_colors[:ell]: a generator shorter than ell is malformed
            tiled = tuple(gen_colors[k] for k in range(ell)) * -(-count // ell)
            x = None
            for r in range(p):
                got = colors[d + r::m]
                want = tiled[r::p][:len(got)]
                if got != want:  # one C-level comparison in the common case
                    y = d + r + m * _first_true(map(operator.ne, got, want))
                    x = y if x is None else min(x, y)
            if x is not None:
                problems.append(f"sub-grid {i}: point {x} breaks period ell={ell}")
            if unitary and len(set(gen_colors)) != ell:
                problems.append(f"sub-grid {i}: generator not injective on its period")
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return StructureReport(False, (f"malformed map params: {e!r}",))
    return StructureReport(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# Scaling bench over prime-window grid families


@record
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
    (K = L for m = 1, where every point needs its own color).

    For m >= 2, ``m`` is half the block size.  A row describes the
    unitary braid map with b = 2m parts of size 1 (blocks of b points),
    g = 2 and q = window, whose standard grid size is
    M = b * g * lcm(q) = 2 * L_s: L_s is half of it.  For m = 2, s = 1
    that map has M = 1680 and K = 34 colors, and its first 840 points,
    taken as a cyclic map, are distinguishable too.  At block size m
    itself a row cannot be met: K colors give only C(K + m - 1, m) < L_s
    multisets of size m (m = 2, s = 1: C(35, 2) = 595 < 840).  The rows
    are closed forms; no map is built.

    The ratio compares K against the family's own growth order L^(1/l),
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
