"""n-dimensional unitary maps: products, construction, arbitrary sizes."""

import hashlib
import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from braidcode import GridSpec, canonical, coding_area, encode, to_json
from braidcode.braid1d import BraidParams1D, construct, modify_general_size, restrict
from braidcode.braidnd import (
    FRESH,
    UnitaryBraidParamsND,
    _base_colors,
    _base_palette,
    _params_dict,
    construct_unitary_nd,
    extend_arbitrary_size,
    is_fresh_factor,
    params_of_nd,
    parse_qtable,
    product,
    project,
)
from braidcode.codec import compile_decoder
from braidcode.core import BlockSpec, ColorMap, PaletteEntry
from braidcode.generators import identity_generator
from braidcode.oracle import count_colors, is_distinguishable


def test_product_of_distinguishable_factors_is_distinguishable():
    a = identity_generator(4, 2).to_colormap()
    b = identity_generator(6, 2).to_colormap()
    prod = product([a, b])
    assert prod.grid.dims == (4, 6)
    assert is_distinguishable(prod).ok


def test_product_fails_iff_some_factor_fails():
    bad = ColorMap(
        grid=GridSpec((4,)),
        block=BlockSpec((2,)),
        colors=(0, 1, 0, 1),
        palette=(PaletteEntry(0, None, None, "x"), PaletteEntry(1, None, None, "y")),
        params=None,
    )
    good = identity_generator(6, 2).to_colormap()
    assert not is_distinguishable(bad).ok
    assert not is_distinguishable(product([bad, good])).ok


def per_point_product(maps):
    """``product`` as it was before it folded the factors in mixed radix:
    every grid point's factor tuple indexed alone, and the factor palette's
    id dict built anew for every factor of every entry."""
    ranges = tuple(max(e.id for e in mp.palette) + 1 for mp in maps)
    shape, grid = GridSpec(ranges), GridSpec(tuple(mp.grid.dims[0] for mp in maps))
    colors = [shape.index(tuple(mp.colors[c] for mp, c in zip(maps, x))) for x in grid.points()]
    palette = tuple(
        PaletteEntry(shape.index(f), None, f,
                     "*".join({e.id: e for e in mp.palette}[c].label for mp, c in zip(maps, f)))
        for f in shape.points()
    )
    return ColorMap(grid, BlockSpec(tuple(mp.block.dims[0] for mp in maps)), tuple(colors), palette,
                    {"kind": "product", "factors": [mp.params for mp in maps]})


def assert_same_product(maps):
    got, want = product(maps), per_point_product(maps)
    assert got == want
    assert to_json(got) == to_json(want)


def test_the_mixed_radix_product_matches_the_per_point_product(m24):
    m60 = construct(BraidParams1D(M=60, parts=(1, 1), g=2, c=(1, 1), q=(3, 5)))
    fresh = modify_general_size(m24, 20, fresh=True)
    assert fresh.palette[-1].label == "fresh"
    for maps in ([m24, m24], [m24, m60, m24], [m24], [restrict(m24, 19), m24], [fresh, m60]):
        assert_same_product(maps)


@st.composite
def hand_made_1d_maps(draw):
    """A cyclic 1D map with palette ids 0..k-1, listed in any order."""
    k = draw(st.integers(1, 4))
    M = draw(st.integers(1, 6))
    colors = tuple(draw(st.lists(st.integers(0, k - 1), min_size=M, max_size=M)))
    order = draw(st.permutations(range(k)))
    palette = tuple(PaletteEntry(c, None, None, draw(st.text("ab*", max_size=2))) for c in order)
    return ColorMap(GridSpec((M,)), BlockSpec((draw(st.integers(1, M)),)), colors, palette)


@settings(deadline=None, max_examples=200)
@given(st.lists(hand_made_1d_maps(), min_size=1, max_size=3))
def test_the_mixed_radix_product_matches_the_per_point_product_on_random_factors(maps):
    assert_same_product(maps)


def test_product_refuses_a_factor_on_more_than_one_axis(fig_map, m24):
    with pytest.raises(ValueError, match="^factor 0 lies on 2 axes, not one$"):
        product([fig_map, m24])


def _flat(colors, cyclic=False):
    palette = tuple(PaletteEntry(c, None, None, str(c)) for c in sorted(set(colors)))
    return ColorMap(GridSpec((len(colors),), cyclic), BlockSpec((2,)), tuple(colors), palette)


def test_a_product_of_flat_factors_is_flat():
    # (0, 0, 1, 1) is distinguishable flat; its wrapped block {1, 0} repeats {0, 1}
    flat, wrapped = _flat((0, 0, 1, 1)), _flat((0, 0, 1, 1), cyclic=True)
    assert is_distinguishable(flat).ok and not is_distinguishable(wrapped).ok
    prod = product([flat, flat])
    assert prod.grid == GridSpec((4, 4), cyclic=False)
    assert is_distinguishable(prod).ok
    assert not is_distinguishable(product([wrapped, wrapped])).ok


def test_product_refuses_cyclic_and_flat_factors_together(m24):
    for maps in ([_flat((0, 0, 1, 1)), m24], [m24, m24, _flat((0, 0, 1, 1))]):
        with pytest.raises(ValueError, match="^factors mix cyclic and flat grids$"):
            product(maps)


@pytest.mark.parametrize("ids", [(0, 2), (-1, 0), (1, 2)])
def test_product_refuses_a_factor_whose_palette_ids_are_not_0_to_k(m24, ids):
    palette = tuple(PaletteEntry(c, None, None, "x") for c in ids)
    gappy = ColorMap(GridSpec((4,)), BlockSpec((2,)), (ids[0],) * 2 + (ids[1],) * 2, palette)
    with pytest.raises(ValueError, match=r"^factor 1 has palette ids other than 0\.\.1$"):
        product([m24, gappy])


def test_nd_params_derived_quantities(fig_map):
    params = params_of_nd(fig_map)
    assert params.dims == (24, 24)
    assert params.Q == (6, 6)
    assert params.ells((0, 0)) == (2, 6)
    assert params.color_count() == 40


def test_fig_map_palette_partition(fig_map):
    sizes = {}
    for e in fig_map.palette:
        sizes[e.subgrid] = sizes.get(e.subgrid, 0) + 1
    assert sizes == {(0, 0): 12, (0, 1): 8, (1, 0): 8, (1, 1): 12}


def test_fig_map_is_distinguishable(fig_map):
    rep = is_distinguishable(fig_map)
    assert rep.ok and rep.checked == 576


def test_codewords_have_one_color_per_subgrid(fig_map):
    """Unitary maps produce multiplicity-1 codewords with one color per block offset."""
    by_id = {e.id: e.subgrid for e in fig_map.palette}
    for x in itertools.product(range(0, 24, 5), repeat=2):
        w = encode(fig_map, x)
        assert len(set(w)) == 4
        assert sorted(by_id[c] for c in w) == sorted(itertools.product((0, 1), (0, 1)))


def test_product_of_no_maps_is_refused():
    with pytest.raises(ValueError, match="^need at least one factor map$"):
        product([])


def test_project_refuses_a_color_without_factors(m24):
    a = identity_generator(4, 2).to_colormap()
    prod = product([a, a])  # factor tuples, but no sub-grid
    for cmap in (m24, prod):
        w = encode(cmap, (1,) * cmap.grid.n)
        with pytest.raises(ValueError, match=f"^color {w[0]} has no factor structure$"):
            project(cmap, w, 0)


def test_project_refuses_a_color_the_palette_lacks(fig_map):
    w = encode(fig_map, (1, 1))
    with pytest.raises(ValueError, match="^color 9999 is not in the palette$"):
        project(fig_map, (*w[:-1], 9999), 0)


@pytest.mark.parametrize("axis", [-1, 2, 3, 0.5])
def test_project_refuses_an_axis_outside_the_grid(fig_map, axis):
    w = encode(fig_map, (1, 1))
    with pytest.raises(ValueError, match=f"^axis {axis} is not in 0..1$"):
        project(fig_map, w, axis)


def test_projection_determines_each_axis(fig_map):
    """Axis projections of codewords are in bijection with the axis coordinate."""
    for axis in range(2):
        seen: dict[int, set] = {}
        for x in coding_area(fig_map.grid, fig_map.block):
            key = tuple(sorted(project(fig_map, encode(fig_map, x), axis)))
            seen.setdefault(x[axis], set()).add(key)
        # same axis coordinate -> same projection; distinct -> distinct
        by_proj: dict = {}
        for coord, keys in seen.items():
            assert len(keys) == 1
            (key,) = keys
            assert by_proj.setdefault(key, coord) == coord


def test_extend_multiple_axes_adds_fresh_colors(fig_map):
    ext = extend_arbitrary_size(fig_map, (12, 24))
    assert ext.grid.dims == (12, 24)
    assert is_distinguishable(ext).ok
    assert count_colors(ext) > 0
    params = params_of_nd(ext)
    fresh = [e for e in ext.palette if any(
        is_fresh_factor(params, e.subgrid, axis, e.factors[axis]) for axis in range(2)
    )]
    assert fresh, "shortened multiple axis must introduce fresh-factor colors"
    base_ids = {e.id for e in fig_map.palette}
    assert all(e.id not in base_ids for e in fresh)


def test_extension_exceptional_band(fig_map):
    """Fresh-factor colors appear in a block iff the tag lies in the
    exceptional band (R_i-2)*m_i + 1 <= x_i < L_i of a shortened multiple axis."""
    L = (12, 20)
    ext = extend_arbitrary_size(fig_map, L)
    params = params_of_nd(ext)
    by_id = {e.id: e for e in ext.palette}

    def has_fresh(w, axis):
        return any(
            is_fresh_factor(params, by_id[c].subgrid, axis, by_id[c].factors[axis]) for c in w
        )

    for x in coding_area(ext.grid, ext.block):
        w = encode(ext, x)
        for axis in range(2):
            R = L[axis] // params.m[axis]
            lo = (R - 2) * params.m[axis] + 1
            expect = lo <= x[axis] < L[axis]
            assert has_fresh(w, axis) == expect, (x, axis)


def test_pure_restriction_axis_can_collide(fig_map):
    """A shortened axis whose length is not a multiple of the block size
    is a pure restriction and is not guaranteed distinguishable."""
    ext = extend_arbitrary_size(fig_map, (19, 24))
    rep = is_distinguishable(ext)
    assert not rep.ok
    a, b, w = rep.counterexample
    assert canonical(encode(ext, a)) == canonical(encode(ext, b)) == w


def test_extend_rejects_bad_targets(fig_map):
    with pytest.raises(ValueError):
        extend_arbitrary_size(fig_map, (3, 24))  # below 2*m_i
    with pytest.raises(ValueError):
        extend_arbitrary_size(fig_map, (25, 24))  # beyond the base grid
    with pytest.raises(ValueError):
        extend_arbitrary_size(fig_map, (22,))  # wrong number of axes


def test_extend_refuses_a_target_that_is_not_an_int(fig_map):
    # int() truncated 12.9, and the result was a 12x24 map
    with pytest.raises(ValueError, match="target dims must be integers, got 12.9"):
        extend_arbitrary_size(fig_map, (12.9, 24))


def test_an_extension_to_the_full_period_extends_like_the_standard_map(fig_map):
    full = extend_arbitrary_size(fig_map, fig_map.grid.dims)
    assert (full.colors, full.palette) == (fig_map.colors, fig_map.palette)
    assert extend_arbitrary_size(full, (12, 20)) == extend_arbitrary_size(fig_map, (12, 20))
    with pytest.raises(ValueError, match="extension starts from a standard unitary braid map"):
        extend_arbitrary_size(extend_arbitrary_size(fig_map, (22, 24)), (12, 20))


def test_extend_refuses_a_1d_map(m24):
    with pytest.raises(ValueError, match="not an n-dim unitary braid map"):
        extend_arbitrary_size(m24, (12,))


@pytest.mark.parametrize("key", ["0_0,0", "+0,0", " 0,0", "0,00", "0, 0", "0,0,", ""])
def test_parse_qtable_refuses_a_key_it_does_not_write(key):
    # int() read the first five as "0,0", whose entry the later key replaced
    raw = {"0,0": [5, 7], "0,1": [7, 5], "1,0": [1, 5], "1,1": [7, 1], key: [1, 1]}
    with pytest.raises(ValueError, match=re.escape(f"q-table key {key!r} is not")):
        parse_qtable(raw)


def test_parse_qtable_reads_the_keys_it_writes(fig_map):
    assert parse_qtable(fig_map.params["q"]) == params_of_nd(fig_map).qtable


QTABLE_140 = {(0, 0): (5, 7), (0, 1): (7, 5), (1, 0): (1, 5), (1, 1): (7, 1)}
QTABLE_3D = {
    (0, 0, 0): (1, 3, 1), (0, 0, 1): (2, 1, 1), (0, 1, 0): (1, 1, 1), (0, 1, 1): (1, 3, 1),
    (1, 0, 0): (2, 1, 1), (1, 0, 1): (1, 1, 1), (1, 1, 0): (1, 3, 1), (1, 1, 1): (2, 1, 1),
}

# sha256 of to_json of each map, as built by the per-point construction
# these maps were first made with; the n-D builders must keep every byte.
PINNED_SHA256 = {
    "fig": "929ee6f5018001ba4b0896c1a5cfd2e99c83a442c7504e8ea49beaa9cf3c0f08",
    (22, 22): "080f6d8ba2d60a61b8149c2eee668416de5ee95459db8e6e1033787853f101f3",
    (21, 24): "b202f1ab0ce701edfc7338b9af6ba1ce8d8ae670096d3d592a9f0ac008beb8d0",
    (23, 22): "4d047f640e7110c442e5e105127dc585104fa279ad8dcfb5aade3cc857a5d5fb",
    (20, 17): "61f82719181eefe3b7401c0ae9cf182ee76bf4bef8df8f8c47d1b6ea62faab30",
    "3d": "4f38884bc143556a36578cdce0aeef197e452e4a466c298ce1cacfd2682d2138",
    "3d-ext": "604763df25c49df3c371b987e543979d9924406a59ec49ad287e29242a249b60",
    "140": "9c64487b48f2a7effa25f161f3e6dcbdd558c384d9deccb0c64b08c3eba9452e",
    (138, 138): "32d85fa4b5d35dd93ea764ad2948244ff6e8d9a0399664476abd49a81804f49e",
}


def test_builders_reproduce_pinned_maps_byte_for_byte(fig_map):
    cube = construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2, 2), g=2, qtable=QTABLE_3D))
    assert cube.grid.dims == (8, 12, 4)
    maps = {"fig": fig_map, "3d": cube, "3d-ext": extend_arbitrary_size(cube, (6, 10, 4))}
    for L in [(22, 22), (21, 24), (23, 22), (20, 17)]:
        maps[L] = extend_arbitrary_size(fig_map, L)
    maps["140"] = construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=QTABLE_140))
    maps[138, 138] = extend_arbitrary_size(maps["140"], (138, 138))
    got = {k: hashlib.sha256(to_json(cmap).encode()).hexdigest() for k, cmap in maps.items()}
    assert got == PINNED_SHA256


@st.composite
def unitary_params_and_dims(draw):
    """Random unitary q-tables in 1-3 dimensions, and target dims L <= M."""
    n = draw(st.integers(1, 3))
    m = tuple(draw(st.integers(1, 3 if n == 1 else 2)) for _ in range(n))
    qs = st.tuples(*[st.integers(1, 4)] * n)
    qtable = {J: draw(qs) for J in itertools.product(*map(range, m))}
    params = UnitaryBraidParamsND(m=m, g=draw(st.integers(2, 3)), qtable=qtable)
    cap = (60, 30, 12)[n - 1]
    dims = tuple(draw(st.integers(1, min(M, cap))) for M in params.dims)
    return params, dims


@settings(deadline=None, max_examples=200)
@given(unitary_params_and_dims())
def test_base_colors_follow_the_factor_formula_point_by_point(case):
    """Point x carries offset_J + sum_i (l_i mod ell_J,i) * stride_J,i,
    with J = x mod m and l = x div m."""
    params, dims = case
    layout = params.layout
    want = []
    for x in itertools.product(*map(range, dims)):
        offset, ells, strides = layout[tuple(c % m_i for c, m_i in zip(x, params.m))]
        want.append(offset + sum(c // m_i % e * s
                                 for c, m_i, e, s in zip(x, params.m, ells, strides)))
    assert _base_colors(params, dims) == want


def row_by_row_base_colors(params, layout, dims):
    """``_base_colors`` as it was before it reused each row segment's
    tiled list: every segment's ids tiled anew on every row."""
    m = params.m
    *outer, width = dims
    colors = []
    for prefix in itertools.product(*(range(d) for d in outer)):
        J_outer = tuple(x % m_i for x, m_i in zip(prefix, m))
        l_outer = [x // m_i for x, m_i in zip(prefix, m)]
        row = [0] * width
        for j in range(m[-1]):
            offset, ells, strides = layout[J_outer + (j,)]
            start = offset + sum(l % e * s for l, e, s in zip(l_outer, ells, strides))
            count = len(range(j, width, m[-1]))
            row[j::m[-1]] = (list(range(start, start + ells[-1])) * (count // ells[-1] + 1))[:count]
        colors += row
    return colors


QTABLE_24 = {(0, 0): (1, 3), (0, 1): (2, 1), (1, 0): (1, 2), (1, 1): (3, 1)}  # the figure's


QTABLE_2X3 = {(0, 0): (1, 2), (0, 1): (2, 1), (0, 2): (1, 1),
              (1, 0): (2, 2), (1, 1): (1, 1), (1, 2): (1, 2)}


@pytest.mark.parametrize("m, g, qtable", [
    ((2,), 2, {(0,): (2,), (1,): (3,)}),
    ((2, 2), 2, QTABLE_24),
    ((2, 2), 2, QTABLE_140),
    ((2, 3), 3, QTABLE_2X3),
    ((2, 2, 2), 2, QTABLE_3D),
], ids=["1-axis", "24", "140", "2x3-g3", "3d"])
def test_the_layout_is_the_one_its_definition_gives(m, g, qtable):
    # J in row-major order; each offset the running sum of prod(ell_J) before it;
    # stride i the flat step of a unit step on axis i of the factor grid of shape ell_J
    params = UnitaryBraidParamsND(m=m, g=g, qtable=qtable)
    Js = list(GridSpec(m).points())
    ells = [tuple(g * q for q in qtable[J]) for J in Js]
    offsets = itertools.accumulate(map(math.prod, ells), initial=0)
    strides = [tuple(GridSpec(e).index(tuple(int(k == i) for k in range(len(e))))
                     for i in range(len(e))) for e in ells]
    assert list(params.layout.items()) == list(zip(Js, zip(offsets, ells, strides)))
    assert params.color_count() == sum(map(math.prod, ells))


def test_a_constructed_map_carries_one_layout_through_its_extension_and_decoders(monkeypatch):
    # the layout is built in __post_init__, once per params object: here the
    # source params' alone, as the extension keeps them (it recolors only the
    # tails, which the proof skips); the parent read and proved a second copy
    builds = []
    post_init = UnitaryBraidParamsND.__post_init__

    def counted(self):
        post_init(self)
        builds.append(self.layout)

    monkeypatch.setattr(UnitaryBraidParamsND, "__post_init__", counted)
    cmap = construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=QTABLE_140))
    ext = extend_arbitrary_size(cmap, (138, 138))
    compile_decoder(cmap)
    compile_decoder(ext)
    assert len(builds) == 1
    assert params_of_nd(cmap).layout is builds[0] and params_of_nd(ext).layout is builds[0]


@pytest.mark.parametrize("m, g, qtable, dims", [
    ((2, 2), 2, QTABLE_24, (24, 24)),
    ((2, 2), 2, QTABLE_24, (22, 22)),
    ((2, 2), 2, QTABLE_24, (21, 24)),
    ((2, 2), 2, QTABLE_140, (140, 140)),
    ((2, 2), 2, QTABLE_140, (138, 138)),
    ((2, 2), 2, QTABLE_140, (137, 140)),
    ((2, 2, 2), 2, QTABLE_3D, (8, 12, 4)),
    ((2, 2, 2), 2, QTABLE_3D, (6, 10, 3)),
    ((2, 3), 3, QTABLE_2X3, (12, 18)),
    ((2, 3), 3, QTABLE_2X3, (11, 16)),
], ids=["24", "24-cut-22", "24-cut-21x24", "140", "140-cut-138", "140-cut-137x140",
        "3d", "3d-cut", "2x3-g3", "2x3-g3-cut"])
def test_base_colors_match_the_row_by_row_tiling(m, g, qtable, dims):
    params = UnitaryBraidParamsND(m=m, g=g, qtable=qtable)
    assert _base_colors(params, dims) == row_by_row_base_colors(params, params.layout, dims)


def per_point_extension(cmap, L):
    """``extend_arbitrary_size`` as it was before it built the fresh band by
    rows: each band point's sub-grid, factors and index worked out alone."""
    params = params_of_nd(cmap)
    dims, m, n = params.dims, params.m, params.n
    layout = params.layout
    grid = GridSpec(L)
    colors = [cmap.colors[cmap.grid.index(x)] for x in itertools.product(*map(range, L))]
    fresh_axes = [i for i in range(n) if L[i] != dims[i] and L[i] % m[i] == 0]
    band = {}
    for i in fresh_axes:
        ranges = [range(0, L_k, m_k) for L_k, m_k in zip(L, m)]
        ranges[i] = range(L[i] - m[i], L[i])
        for x in itertools.product(*ranges):
            J = tuple(c % m_k for c, m_k in zip(x, m))
            ells = layout[J][1]
            f = [c // m_k % e for c, m_k, e in zip(x, m, ells)]
            for a in fresh_axes:
                if x[a] >= L[a] - m[a] and all(J[k] == 0 for k in range(n) if k != a):
                    f[a] = FRESH
            band[grid.index(x)] = (J, tuple(f))
    base_total = params.color_count()
    fresh_ids = {key: base_total + c for c, key in enumerate(sorted(set(band.values())))}
    for idx, key in band.items():
        colors[idx] = fresh_ids[key]
    palette = _base_palette(layout)
    for (J, f), cid in fresh_ids.items():
        shown = tuple(e if fi == FRESH else fi for fi, e in zip(f, layout[J][1]))
        label = "s" + "".join(map(str, J)) + "_d" + ",".join(map(str, shown))
        palette.append(PaletteEntry(cid, J, shown, label))
    return ColorMap(grid, cmap.block, tuple(colors), tuple(palette), _params_dict(params, L))


def _every_target(cmap):
    m = cmap.block.dims
    return itertools.product(*(range(2 * m_i, M + 1) for m_i, M in zip(m, cmap.grid.dims)))


def test_the_band_by_rows_matches_the_per_point_band_on_every_target(fig_map):
    cube = construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2, 2), g=2, qtable=QTABLE_3D))
    for cmap in (fig_map, cube):
        for L in _every_target(cmap):
            assert extend_arbitrary_size(cmap, L) == per_point_extension(cmap, L), L


@settings(deadline=None, max_examples=200)
@given(unitary_params_and_dims())
def test_the_band_by_rows_matches_the_per_point_band_on_random_maps(case):
    params, dims = case
    cmap = construct_unitary_nd(params)
    L = tuple(max(d, 2 * m_i) for d, m_i in zip(dims, params.m))  # M_i >= g*m_i >= 2*m_i
    assert extend_arbitrary_size(cmap, L) == per_point_extension(cmap, L)
