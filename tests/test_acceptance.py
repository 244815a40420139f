"""End-to-end acceptance gate: one test per release criterion.

Each test is self-contained (no fixtures from conftest) so that a single
``pytest -v tests/test_acceptance.py`` line per criterion tells the whole
story.  Frozen reference values were independently recomputed before
being pinned here.
"""

import itertools
import math
import random

from braidcode import canonical, coding_area, encode
from braidcode.braid1d import (
    BraidParams1D,
    construct,
    modify_general_size,
    optimize_generators,
    restrict,
)
from braidcode.braidnd import (
    UnitaryBraidParamsND,
    construct_unitary_nd,
    extend_arbitrary_size,
    is_fresh_factor,
    params_of_nd,
    product,
    project,
)
from braidcode.codec import (
    associated_matrix,
    b_matrix,
    decode_1d,
    decode_1d_general,
    decode_nd,
    erasure_decode,
    generalized_crt,
    qhat,
)
from braidcode.generators import (
    SearchStatus,
    identity_generator,
    max_cyclic_length,
    min_colors,
    search_distinguishable,
)
from braidcode.oracle import count_colors, is_distinguishable, order_bench
from braidcode.sunmao import Decomposition1D, classify_block


# ---------------------------------------------------------------------------
# shared reference constructions

EX75_PARAMS = {
    "set1": BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5)),
    "set2": BraidParams1D(M=75, parts=(2, 3), g=3, c=(1, 3), q=(1, 5)),
    "set3": BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1)),
}

EX75_SEQUENCES = {
    "set1": (
        "a1a1b1b1b1 a2a2b2b2b2 a3a3b3b3b3 a1a1b1b1b6 a2a2b6b3b1 "
        "a3a3b5b5b2 a1a1b2b4b5 a2a2b3b5b3 a3a3b2b4b4 a1a1b3b3b6 "
        "a2a2b2b1b4 a3a3b1b4b6 a1a1b2b6b2 a2a2b5b1b4 a3a3b3b6b5"
    ),
    "set2": (
        "a1a2b1b1b1 a3a1b2b2b2 a2a3b3b3b3 a1a2b1b1b6 a3a1b6b3b1 "
        "a2a3b5b5b2 a1a2b2b4b5 a3a1b3b5b3 a2a3b2b4b4 a1a2b3b3b6 "
        "a3a1b2b1b4 a2a3b1b4b6 a1a2b2b6b2 a3a1b5b1b4 a2a3b3b6b5"
    ),
    "set3": (
        "a1a1b1b1b2 a2a2b2b3b1 a3a3b1b2b2 a4a4b3b1b1 a5a5b2b2b3 "
        "a1a3b1b1b2 a5a2b2b3b1 a4a1b1b2b2 a1a2b3b1b1 a2a3b2b2b3 "
        "a3a4b1b1b2 a4a5b2b3b1 a5a1b1b2b2 a3a5b3b1b1 a2a4b2b2b3"
    ),
}

EX75_COLOR_COUNTS = {"set1": 9, "set2": 9, "set3": 8}

FIG_QTABLE = {(0, 0): (1, 3), (0, 1): (2, 1), (1, 0): (1, 2), (1, 1): (3, 1)}


def _m24():
    return construct(BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3)))


def _fig_map():
    return construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=FIG_QTABLE))


def _round_trips(cmap, decode):
    for x in coding_area(cmap.grid, cmap.block):
        if decode(cmap, encode(cmap, x)).tag != (x if len(x) > 1 else x[0]):
            return False
    return True


def _round_trips_nd(cmap):
    return all(
        decode_nd(cmap, encode(cmap, x)).tag == x for x in coding_area(cmap.grid, cmap.block)
    )


def test_criterion_01_reference_75_point_sequences():
    for key, params in EX75_PARAMS.items():
        cmap = construct(params)
        labels = {e.id: e.label.replace("_", "") for e in cmap.palette}
        rendered = "".join(labels[c] for c in cmap.colors)
        assert rendered == EX75_SEQUENCES[key].replace(" ", ""), key
        assert count_colors(cmap) == EX75_COLOR_COUNTS[key], key
        report = is_distinguishable(cmap)
        assert report.ok and report.checked == 75, key


def test_criterion_02_reference_24x24_grid():
    cmap = _fig_map()
    assert cmap.grid.dims == (24, 24)
    sizes = {}
    for e in cmap.palette:
        sizes[e.subgrid] = sizes.get(e.subgrid, 0) + 1
    assert sizes == {(0, 0): 12, (0, 1): 8, (1, 0): 8, (1, 1): 12}
    assert count_colors(cmap) == 40

    letters = {(0, 0): "a", (1, 0): "b", (0, 1): "c", (1, 1): "d"}
    by_id = {e.id: e for e in cmap.palette}

    def label(row, col):
        e = by_id[cmap.colors[cmap.grid.index((col, row))]]
        period = 2 * FIG_QTABLE[e.subgrid][0]
        return f"{letters[e.subgrid]}{e.factors[0] + e.factors[1] * period}"

    corner = [[label(r, c) for c in range(4)] for r in range(4)]
    assert corner == [
        ["a0", "b0", "a1", "b1"],
        ["c0", "d0", "c1", "d1"],
        ["a2", "b2", "a3", "b3"],
        ["c4", "d6", "c5", "d7"],
    ]
    assert [label(0, c) for c in range(24)] == ["a0", "b0", "a1", "b1"] * 6

    report = is_distinguishable(cmap)
    assert report.ok and report.checked == 576


def test_criterion_03_reference_matrices_and_routing():
    cmap = _m24()
    A = associated_matrix(cmap)
    assert A.rows == ((0, 1, 2, 3) * 3, (0, 1, 2, 3, 4, 5) * 2)
    assert A.periods == (4, 6)
    B = b_matrix(A)
    assert B.rows == ((0, 1, 0, 1, 0, 1), (0, 1, 2, 0, 1, 2))
    for w, tag in [((2, 6), 4), ((3, 6), 5), ((3, 7), 6), ((0, 7), 7)]:
        res = decode_1d(cmap, w)
        assert res.tag == tag and res.a_vec == (1, 1), w


def test_criterion_04_round_trip_sweep():
    standard = [
        BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3)),
        EX75_PARAMS["set1"],
        EX75_PARAMS["set2"],
        EX75_PARAMS["set3"],
        BraidParams1D(M=12, parts=(1, 1), g=2, c=(1, 1), q=(1, 3)),
        BraidParams1D(M=36, parts=(1, 1, 1), g=2, c=(1, 1, 1), q=(2, 3, 1)),
        BraidParams1D(M=36, parts=(1, 1), g=3, c=(1, 1), q=(2, 3)),
        BraidParams1D(M=20, parts=(2,), g=2, c=(2,), q=(5,)),
        BraidParams1D(M=24, parts=(3,), g=2, c=(3,), q=(4,)),
        BraidParams1D(M=50, parts=(2, 3), g=5, c=(2, 1), q=(2, 1)),
    ]
    maps = []
    for params in standard:
        cmap = construct(params)
        assert _round_trips(cmap, decode_1d), params
        maps.append(cmap)

    m24, m12, m36 = maps[0], maps[4], maps[5]
    resized = [
        restrict(m24, 19),
        restrict(m24, 23),
        restrict(m12, 7),
        modify_general_size(m24, 20),
        modify_general_size(m24, 20, fresh=True),
        modify_general_size(m24, 16),
        modify_general_size(m36, 30),
    ]
    for cmap in resized:
        assert _round_trips(cmap, decode_1d_general), cmap.params
        maps.append(cmap)

    fig = _fig_map()
    small = construct_unitary_nd(
        UnitaryBraidParamsND(m=(2, 2), g=2, qtable={J: (1, 1) for J in FIG_QTABLE})
    )
    nd_maps = [fig, small] + [
        extend_arbitrary_size(fig, L)
        for L in [(12, 24), (12, 20), (9, 12), (5, 7), (21, 10)]
    ]
    for cmap in nd_maps:
        assert _round_trips_nd(cmap), cmap.params
        maps.append(cmap)

    assert len(maps) >= 20
    for cmap in maps:
        assert math.prod(cmap.grid.dims) <= 10_000
        assert is_distinguishable(cmap).ok, cmap.params


def test_criterion_05_restriction_counterexamples_and_unitary_safety():
    # non-unitary restrictions can collide; the oracle must exhibit pairs
    for key, M_r in [("set1", 19), ("set3", 30)]:
        shrunk = restrict(construct(EX75_PARAMS[key]), M_r)
        report = is_distinguishable(shrunk)
        assert not report.ok, key
        a, b, w = report.counterexample
        assert canonical(encode(shrunk, a)) == canonical(encode(shrunk, b)) == w

    # unitary maps restricted to lengths not divisible by m stay safe
    m24 = _m24()
    targets = [M_r for M_r in range(3, 24, 2)]
    assert len(targets) >= 10
    for M_r in targets:
        assert M_r % 2 != 0
        assert is_distinguishable(restrict(m24, M_r)).ok, M_r


def test_criterion_06_generator_length_formulas():
    checked = 0
    for m in (1, 2, 3):
        for k in range(1, 10):
            value = max_cyclic_length(m, k)
            if value > 12 or value < m + 2:
                continue
            hit = search_distinguishable(value, m, k)
            assert hit.status is SearchStatus.FOUND, (m, k)
            assert hit.code.is_distinguishable() and hit.code.k <= k
            miss = search_distinguishable(value + 1, m, k)
            assert miss.status is SearchStatus.NOT_FOUND, (m, k)
            checked += 1
    assert checked >= 5
    assert min_colors(2, 6) == (3, True)
    assert min_colors(3, 45) == (6, True)
    assert min_colors(2, 3) == (3, True)


def test_criterion_07_generalized_crt():
    rng = random.Random(0x5EED)
    done = 0
    while done < 1000:
        n = rng.randint(1, 4)
        moduli = [rng.randint(1, 30) for _ in range(n)]
        L = math.lcm(*moduli)
        if L > 10_000:
            continue
        residues = [rng.randint(0, 100) for _ in range(n)]
        expect = next(
            (x for x in range(L) if all(x % m == r % m for r, m in zip(residues, moduli))),
            None,
        )
        assert generalized_crt(residues, moduli) == expect, (residues, moduli)
        done += 1


def test_criterion_08_erasure_location():
    def worst_spread(cmap, m, e):
        worst = 0
        (M_r,) = cmap.grid.dims
        for t in range(M_r):
            w = encode(cmap, (t,))
            for sub in itertools.combinations(w, m - e):
                res = erasure_decode(cmap, sub)
                assert t in res.candidates
                worst = max(worst, res.resolution)
        return worst

    cases = [
        (2, 2, (9, 12), 36, 1),
        (2, 3, (2, 5), 12, 1),
        (3, 2, (2, 3, 5), 36, 1),
        (3, 2, (2, 3, 5), 12, 2),
        (3, 2, (1, 3, 5), 6, 2),
    ]
    for m, g, q, M_r, e in cases:
        assert M_r <= g * m * qhat(q, m - e), (m, g, q)
        M = m * g * math.lcm(*q)
        cmap = construct(BraidParams1D(M=M, parts=(1,) * m, g=g, c=(1,) * m, q=q))
        sized = restrict(cmap, M_r) if M_r < M else cmap
        assert worst_spread(sized, m, e) <= e, (m, g, q, M_r, e)

    # beyond the size bound the surviving colors stop pinning the block down
    oversized = construct(BraidParams1D(M=144, parts=(1, 1), g=2, c=(1, 1), q=(9, 12)))
    assert worst_spread(oversized, 2, 1) == 72


def test_criterion_09_color_order_bench():
    rows = {(m, row.s): row for m in (1, 2) for row in order_bench(m, [1, 2, 3])}
    pinned = rows[(2, 1)]
    assert pinned.L == 840 and pinned.K == 34
    for (m, _), row in rows.items():
        if m == 1:
            assert row.K == row.L and row.ratio == 1.0
        else:
            assert 1 < row.ratio <= 4 * m, row


def test_criterion_10_structural_invariants():
    m24 = _m24()
    fig = _fig_map()
    set1 = construct(EX75_PARAMS["set1"])
    p1 = EX75_PARAMS["set1"]

    # every block of a unitary map uses one color per sub-grid (no repeats)
    by_id = {e.id: e.subgrid for e in m24.palette}
    for x in range(24):
        w = encode(m24, (x,))
        assert len(set(w)) == 2 and {by_id[c] for c in w} == {(0,), (1,)}

    # two points of sub-grid i share a color iff ell_i divides their distance
    dec = Decomposition1D(M=24, parts=(1, 1))
    for i, ell in enumerate((4, 6)):
        pts = [x for x in range(24) if dec.subgrid_of(x) == i]
        for a, b in itertools.combinations(range(len(pts)), 2):
            same = m24.colors[pts[a]] == m24.colors[pts[b]]
            assert same == ((b - a) % ell == 0)

    # block classification: one sub-block per sub-grid, aligned except at
    # the split sub-grid, with the j/j+1 row law on either side
    dec75 = Decomposition1D(M=75, parts=(2, 3))
    for x in range(75):
        entries = classify_block(dec75, x)
        assert sorted(l for l, _, _ in entries) == [0, 1]
        i, j, x_r = dec75.split(x)
        for l, start, aligned in entries:
            if l == i and x_r > 0:
                assert not aligned
            else:
                assert aligned and start % dec75.parts[l] == 0
                expect_j = j if l >= i else j + 1
                assert start == (expect_j * dec75.parts[l]) % dec75.subgrid_sizes[l]

    # equal sub-grid codewords sit a multiple of ell_i apart
    gens = set1.params["gens"]
    for i, gen in enumerate(gens):
        M_i = dec75.subgrid_sizes[i]
        m_i, ell_i = p1.parts[i], p1.ells[i]
        seen = {}
        for x in range(M_i):
            w = tuple(sorted(gen["colors"][(x + t) % M_i % ell_i] for t in range(m_i)))
            if w in seen:
                assert (x - seen[w]) % ell_i == 0
            else:
                seen[w] = x

    # block-codeword matrix rows: first-appearance labels with minimum
    # period g*q_i, and aligned columns divisible by g
    A = associated_matrix(set1)
    B = b_matrix(A)
    for i, row in enumerate(A.rows):
        period = p1.g * p1.q[i]
        assert row == row[period:] + row[:period]
        for smaller in range(1, period):
            if period % smaller == 0:
                assert row != row[smaller:] + row[:smaller]
        assert all(row[a * p1.g] == B.rows[i][a] * p1.g for a in range(len(B.rows[i])))

    # a product map is block-distinguishable iff every factor is
    good_a = identity_generator(4, 2).to_colormap()
    good_b = identity_generator(6, 2).to_colormap()
    assert is_distinguishable(product([good_a, good_b])).ok
    from braidcode.core import BlockSpec, ColorMap, GridSpec, PaletteEntry

    bad = ColorMap(
        grid=GridSpec((4,)),
        block=BlockSpec((2,)),
        colors=(0, 1, 0, 1),
        palette=(PaletteEntry(0, None, None, "x"), PaletteEntry(1, None, None, "y")),
        params=None,
    )
    assert not is_distinguishable(product([bad, good_b])).ok

    # axis projections of unitary nD codewords determine the coordinate
    for axis in range(2):
        seen_proj: dict = {}
        for x in coding_area(fig.grid, fig.block):
            key = tuple(sorted(project(fig, encode(fig, x), axis)))
            assert seen_proj.setdefault(key, x[axis]) == x[axis]

    # shortened multiple axes carry fresh-factor colors exactly on the
    # exceptional band (R-2)*m + 1 <= x < L
    L = (12, 20)
    ext = extend_arbitrary_size(fig, L)
    params = params_of_nd(ext)
    palette = {e.id: e for e in ext.palette}
    for x in coding_area(ext.grid, ext.block):
        w = encode(ext, x)
        for axis in range(2):
            R = L[axis] // params.m[axis]
            lo = (R - 2) * params.m[axis] + 1
            fresh = any(
                is_fresh_factor(params, palette[c].subgrid, axis, palette[c].factors[axis])
                for c in w
            )
            assert fresh == (lo <= x[axis] < L[axis]), (x, axis)
