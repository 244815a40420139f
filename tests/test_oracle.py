"""Brute-force verification, structure checks, and the scaling bench."""

import copy
import functools
import math
import os
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from braidcode import braid1d, braidnd
from braidcode.braid1d import BraidParams1D, construct
from braidcode.core import (
    BlockSpec, ColorMap, GridSpec, PaletteEntry, coding_area, encode, replace,
)
from braidcode.generators import identity_generator
from braidcode.oracle import (
    StructureReport,
    VerifyReport,
    bench_tsv,
    check_structure,
    count_colors,
    is_distinguishable,
    order_bench,
    prime_window,
)


def reference_is_distinguishable(cmap):
    """The encode-based verifier: the reference the block walk must match."""
    seen = {}
    checked = 0
    for tag in coding_area(cmap.grid, cmap.block):
        w = encode(cmap, tag)
        checked += 1
        if w in seen:
            return VerifyReport(False, checked, (seen[w], tag, w))
        seen[w] = tag
    return VerifyReport(True, checked, None)


@st.composite
def small_maps(draw):
    """Random color arrays on 1-3 dim grids, cyclic or flat, blocks of at
    most 3 per axis and only 2-4 colors, so that collisions are common."""
    n = draw(st.integers(1, 3))
    block = tuple(draw(st.integers(1, 3)) for _ in range(n))
    dims = tuple(m + draw(st.integers(0, 3)) for m in block)
    k = draw(st.integers(2, 4))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=math.prod(dims),
                           max_size=math.prod(dims)))
    return ColorMap(
        grid=GridSpec(dims, cyclic=draw(st.booleans())),
        block=BlockSpec(block),
        colors=tuple(colors),
        palette=tuple(PaletteEntry(c) for c in range(k)),
    )


@st.composite
def sparse_maps(draw):
    """Hand-made maps with sparse, large color ids and blocks of volume up to
    9.  The grid opens with ``low`` points of distinct small ids and goes on
    with a sequence of larger ids repeated with some period, so that blocks
    collide.  With ``low`` past 50, a block of 9 in the repeats multiplies
    primes beyond 2**64."""
    n = draw(st.integers(1, 3))
    block = []
    for _ in range(n):
        block.append(draw(st.integers(1, 9 // math.prod(block))))
    dims = [m + draw(st.integers(0, 3)) for m in block]
    low = draw(st.one_of(st.integers(0, 3), st.integers(51, 60)))
    dims[0] += -(-(low + draw(st.integers(0, 30))) // math.prod(dims[1:]))
    volume = math.prod(dims)
    ids = sorted(draw(st.lists(st.integers(0, 2**40), min_size=low + 2, max_size=low + 40,
                               unique=True)))
    period = draw(st.integers(1, volume - low))
    seq = draw(st.lists(st.sampled_from(ids[low:]), min_size=period, max_size=period))
    return ColorMap(
        grid=GridSpec(tuple(dims), cyclic=draw(st.booleans())),
        block=BlockSpec(tuple(block)),
        colors=tuple(ids[:low] + [seq[i % period] for i in range(volume - low)]),
        palette=tuple(PaletteEntry(c) for c in ids),
    )


@given(st.one_of(small_maps(), sparse_maps()))
def test_block_walk_matches_the_reference_verifier(cmap):
    fast = is_distinguishable(cmap)
    ref = reference_is_distinguishable(cmap)
    assert (fast.ok, fast.checked, fast.counterexample) == (ref.ok, ref.checked, ref.counterexample)


def test_block_keys_beyond_64_bits_stay_exact():
    # ids ranked 52nd to 60th get the primes 239..281, and 239**9 > 2**64
    assert prime_window(52, 9)[0] == 239 and 239**9 > 2**64
    ids = [10**12 + 7 * i for i in range(60)]
    colors = ids + ids[:50:-1]  # the 9 largest colors, once more in reverse
    cmap = ColorMap(
        grid=GridSpec((len(colors),), cyclic=False), block=BlockSpec((9,)),
        colors=tuple(colors), palette=tuple(PaletteEntry(c) for c in ids),
    )
    rep = is_distinguishable(cmap)
    assert rep == reference_is_distinguishable(cmap)
    assert not rep.ok and min(rep.counterexample[2]) >= ids[51]


def test_block_walk_matches_the_reference_on_fixture_maps(m24, fig_map, example_sets):
    maps = [m24, fig_map] + [construct(p) for p in example_sets]
    for cmap in maps:
        assert is_distinguishable(cmap) == reference_is_distinguishable(cmap)


def test_block_walk_matches_the_reference_on_edge_maps(edge_maps):
    # a one-point map looks up one key; a block of 1 on an axis multiplies no window there
    reports = {name: is_distinguishable(cmap) for name, cmap in edge_maps.items()}
    for name, cmap in edge_maps.items():
        assert reports[name] == reference_is_distinguishable(cmap), name
    assert reports["one-point"] == VerifyReport(True, 1, None)
    assert {name for name, rep in reports.items() if rep.ok} == {
        "one-point", "one-point-flat", "2d-distinct-1x2", "2d-distinct-2x1-flat"}


def test_block_walk_finds_the_140_map_recut_counterexample():
    qtable = {(0, 0): (5, 7), (0, 1): (7, 5), (1, 0): (1, 5), (1, 1): (7, 1)}
    base = braidnd.construct_unitary_nd(braidnd.UnitaryBraidParamsND(m=(2, 2), g=2, qtable=qtable))
    recut = braidnd.extend_arbitrary_size(base, (137, 137))
    rep = is_distinguishable(recut)
    assert rep == reference_is_distinguishable(recut)
    assert not rep.ok and rep.counterexample[:2] == ((0, 136), (20, 136))


def test_verify_report_carries_its_cost(m24):
    rep = is_distinguishable(m24)
    assert rep.elapsed_s > 0 and rep.blocks_per_s == pytest.approx(rep.checked / rep.elapsed_s)
    assert rep == VerifyReport(True, 24, None)  # cost fields take no part in ==


def test_is_distinguishable_reports_counterexample():
    bad = identity_generator(6, 1).to_colormap()
    # force a collision by reusing a color
    from braidcode.core import ColorMap

    collided = ColorMap(
        grid=bad.grid,
        block=bad.block,
        colors=(0, 1, 2, 0, 4, 5),
        palette=bad.palette,
        params=None,
    )
    rep = is_distinguishable(collided)
    assert not rep.ok
    assert rep.counterexample[0] == (0,) and rep.counterexample[1] == (3,)


def test_is_distinguishable_respects_limit(m24):
    with pytest.raises(ValueError):
        is_distinguishable(m24, limit=10)


def test_count_colors(m24):
    assert count_colors(m24) == 10  # 4 + 6 color identity generators


@given(st.lists(st.integers(0, 9), min_size=1, max_size=30), st.integers(1, 6))
def test_count_colors_counts_the_ids_the_points_use_not_the_palette(colors, unused):
    # a hand-made map whose palette also lists ids 10.. that no point uses
    palette = tuple(PaletteEntry(id=cid) for cid in range(10 + unused))
    cmap = ColorMap(GridSpec((len(colors),)), BlockSpec((1,)), tuple(colors), palette)
    assert count_colors(cmap) == len(set(colors))


def reference_check_structure(cmap):
    """The per-point structure check the slice-based one must match."""
    problems = []
    params = cmap.params or {}
    if params.get("kind") != "braid1d" or not cmap.grid.cyclic:
        return StructureReport(False, ("not a standard 1D braid map",))
    parts, gens = params["parts"], params["gens"]
    (M,) = cmap.grid.dims
    (b,) = cmap.block.dims
    m = sum(parts)
    unitary = all(p == 1 for p in parts)
    if len(gens) != len(parts):
        problems.append(f"map lists {len(gens)} generators for {len(parts)} sub-grids")
    if b != m:
        problems.append(f"block size {b} differs from sum(parts) {m}")
    elif unitary:
        for x in range(M):
            w = encode(cmap, (x,))
            if len(set(w)) != m:
                problems.append(f"block {x} repeats a color: {w}")
                break
    owner = [i for i, p in enumerate(parts) for _ in range(p)]
    positions = defaultdict(list)
    for x in range(M):
        positions[owner[x % m]].append(x)
    for i, gen in enumerate(gens[:len(parts)]):
        ell, gen_colors = gen["ell"], gen["colors"]
        for rank, x in enumerate(positions[i]):
            if cmap.colors[x] != gen_colors[rank % ell]:
                problems.append(f"sub-grid {i}: point {x} breaks period ell={ell}")
                break
        if unitary and len(set(gen_colors)) != ell:
            problems.append(f"sub-grid {i}: generator not injective on its period")
    return StructureReport(not problems, tuple(problems))


# standard 1D maps with parts of at most 3 and periods of at most 12
STANDARD_1D = [
    p
    for parts in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (2, 3), (3, 3),
                  (1, 1, 1), (1, 2, 3)]
    for n in range(2, 25)
    for p in braid1d.enumerate_params(sum(parts) * n, parts)
    if max(p.ells) <= 12
]
_standard_map = functools.lru_cache(maxsize=None)(construct)


@st.composite
def mutated_standard_maps(draw):
    """A standard 1D map, possibly with two colors swapped, one color
    replaced by another palette id, one generator color changed, a
    generator dropped or repeated, or a block size that differs from the
    parts."""
    cmap = _standard_map(draw(st.sampled_from(STANDARD_1D)))
    colors, params, block = list(cmap.colors), cmap.params, cmap.block
    index = st.integers(0, len(colors) - 1)
    ids = [e.id for e in cmap.palette]
    kind = draw(st.sampled_from(["none", "swap", "replace", "generator", "gens", "block"]))
    if kind == "swap":
        a, b = draw(index), draw(index)
        colors[a], colors[b] = colors[b], colors[a]
    elif kind == "replace":
        colors[draw(index)] = draw(st.sampled_from(ids))
    elif kind == "generator":
        params = copy.deepcopy(params)
        gen = draw(st.sampled_from(params["gens"]))
        gen["colors"][draw(st.integers(0, gen["ell"] - 1))] = draw(st.sampled_from(ids))
    elif kind == "gens":
        params = copy.deepcopy(params)
        k = draw(st.integers(0, len(params["gens"]) - 1))
        if draw(st.booleans()):
            del params["gens"][k]
        else:
            params["gens"].append(params["gens"][k])
    elif kind == "block":
        block = BlockSpec((draw(st.integers(1, len(colors))),))
    return ColorMap(grid=cmap.grid, block=block, colors=tuple(colors),
                    palette=cmap.palette, params=params)


@given(mutated_standard_maps())
def test_check_structure_matches_the_reference(cmap):
    assert check_structure(cmap) == reference_check_structure(cmap)


def test_check_structure_passes_braid_map(m24):
    rep = check_structure(m24)
    assert rep.ok, rep


def test_check_structure_flags_broken_tiling(m24):
    from braidcode.core import ColorMap

    colors = list(m24.colors)
    colors[5], colors[7] = colors[7], colors[5]
    broken = ColorMap(
        grid=m24.grid, block=m24.block, colors=tuple(colors),
        palette=m24.palette, params=m24.params,
    )
    assert not check_structure(broken).ok


def test_check_structure_flags_a_block_with_a_repeated_color(m24):
    colors = list(m24.colors)
    colors[1] = colors[0]
    broken = ColorMap(
        grid=m24.grid, block=m24.block, colors=tuple(colors),
        palette=m24.palette, params=m24.params,
    )
    rep = check_structure(broken)
    assert not rep.ok
    assert rep.problems[0] == f"block 0 repeats a color: {(colors[0], colors[0])}"


def test_check_structure_flags_a_generator_that_repeats_a_color():
    # sub-grid 0 tiles the period (0, 0) and sub-grid 1 the period (1, 2, 3, 4):
    # the colors follow both periods and no block of 2 repeats a color
    params = {"kind": "braid1d", "g": 2, "parts": [1, 1], "c": [1, 1], "q": [1, 2],
              "gens": [{"ell": 2, "m": 1, "colors": [0, 0]},
                       {"ell": 4, "m": 1, "colors": [1, 2, 3, 4]}]}
    cmap = ColorMap(GridSpec((8,)), BlockSpec((2,)), (0, 1, 0, 2, 0, 3, 0, 4),
                    tuple(PaletteEntry(c) for c in range(5)), params)
    want = StructureReport(False, ("sub-grid 0: generator not injective on its period",))
    assert check_structure(cmap) == want
    assert reference_check_structure(cmap) == want


def test_check_structure_counts_the_generators(m24):
    colors = list(m24.colors)
    colors[1], colors[3] = colors[3], colors[1]  # two sub-grid-1 colors
    params = copy.deepcopy(m24.params)
    del params["gens"][1:]
    cut = ColorMap(grid=m24.grid, block=m24.block, colors=tuple(colors),
                   palette=m24.palette, params=params)
    assert not is_distinguishable(cut).ok
    assert check_structure(cut).problems == ("map lists 1 generators for 2 sub-grids",)
    params = copy.deepcopy(m24.params)
    params["gens"].append(params["gens"][0])
    extra = ColorMap(grid=m24.grid, block=m24.block, colors=m24.colors,
                     palette=m24.palette, params=params)
    assert check_structure(extra).problems == ("map lists 3 generators for 2 sub-grids",)


def test_check_structure_reports_a_block_size_off_the_parts(m24):
    small = ColorMap(grid=m24.grid, block=BlockSpec((1,)), colors=m24.colors,
                     palette=m24.palette, params=m24.params)
    assert check_structure(small).problems == ("block size 1 differs from sum(parts) 2",)


@pytest.mark.parametrize("edit, problem", [
    (lambda params: [1], "not a standard 1D braid map"),
    (lambda params: {k: v for k, v in params.items() if k != "gens"},
     "malformed map params: KeyError('gens')"),
    (lambda params: {**params, "parts": "ab"},
     "malformed map params: ValueError('parts must be integers, got \"a\"')"),
    (lambda params: {**params, "gens": [{**params["gens"][0], "ell": 0}, params["gens"][1]]},
     "malformed map params: ValueError('generator 0 has period ell=0, not a positive int')"),
], ids=["not-a-dict", "no-gens", "parts-ab", "ell-0"])
def test_check_structure_reports_malformed_params(m24, edit, problem):
    # each raised AttributeError, KeyError, TypeError or, ell-0, ZeroDivisionError
    assert check_structure(replace(m24, params=edit(m24.params))) == StructureReport(
        False, (problem,))


def test_check_structure_rejects_a_flat_grid(m24):
    flat = ColorMap(
        grid=GridSpec(m24.grid.dims, cyclic=False), block=m24.block, colors=m24.colors,
        palette=m24.palette, params=m24.params,
    )
    assert check_structure(flat).problems == ("not a standard 1D braid map",)


def test_prime_window():
    assert prime_window(1, 4) == [2, 3, 5, 7]
    assert prime_window(3, 2) == [5, 7]


def trial_division_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def test_prime_window_sieve_matches_trial_division():
    ref = trial_division_primes(2000)
    assert prime_window(1, 2000) == ref
    # each window ends at its own index n, so the sieve bound is checked at every n
    for n in range(1, 2001):
        assert prime_window(n, 1) == [ref[n - 1]], n
    assert prime_window(1990, 6) == ref[1989:1995]
    with pytest.raises(ValueError):
        prime_window(0, 2)


def test_order_bench_reference_point():
    rows = order_bench(2, [1])
    (row,) = rows
    assert row.L == 840 and row.K == 34


def test_order_bench_ratio_band():
    for m in (1, 2):
        for row in order_bench(m, [1, 2, 3]):
            ratio = row.ratio
            if m == 1:
                assert ratio == 1.0
            else:
                assert 1 < ratio <= 4 * m


def test_bench_tsv_shape():
    rows = order_bench(2, [1, 2])
    text = bench_tsv(rows)
    lines = text.strip().splitlines()
    assert lines[0].split("\t")[:2] == ["L", "K"]
    assert len(lines) == 3
