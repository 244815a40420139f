"""Grid decomposition: offsets, theta bijections, block classification."""

import pytest
from hypothesis import given, strategies as st

from braidcode import BlockSpec, ColorMap, GridSpec, PaletteEntry
from braidcode.generators import identity_generator
from braidcode.sunmao import (
    Decomposition1D,
    UnitaryDecompositionND,
    classify_block,
    synthesize,
    theta,
    theta_inv,
    unitary_block_membership,
)

parts_strategy = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


@st.composite
def decomps(draw):
    parts = draw(parts_strategy)
    m = sum(parts)
    factor = draw(st.integers(2, 6))
    return Decomposition1D(M=m * factor, parts=parts)


@given(decomps())
def test_offsets_are_part_prefix_sums(dec):
    assert dec.offsets[0] == 0
    for i in range(1, dec.I):
        assert dec.offsets[i] == dec.offsets[i - 1] + dec.parts[i - 1]
    assert sum(dec.parts) == dec.m
    assert all(sz == p * dec.M // dec.m for p, sz in zip(dec.parts, dec.subgrid_sizes))


@given(decomps(), st.data())
def test_theta_round_trip(dec, data):
    x = data.draw(st.integers(0, dec.M - 1))
    i = dec.subgrid_of(x)
    y = theta(dec, i, x)
    assert 0 <= y < dec.subgrid_sizes[i]
    assert theta_inv(dec, i, y) == x


@given(decomps(), st.integers(-1000, 1000))
def test_subgrid_of_is_the_window_holding_x_mod_m(dec, x):
    i = dec.subgrid_of(x)
    assert dec.offsets[i] <= x % dec.m < dec.offsets[i] + dec.parts[i]


@pytest.mark.parametrize("x", [0.5, float("nan"), -1e-20, "3"])
def test_subgrid_of_a_point_that_is_not_an_integer_raises_value_error(x):
    # nan and -1e-20 (whose float x % m is m) fell through every window
    with pytest.raises(ValueError, match="is not an integer"):
        Decomposition1D(M=12, parts=(1, 2)).subgrid_of(x)


@pytest.mark.parametrize("build", [
    lambda: Decomposition1D(24, (1.9, 1)),
    lambda: Decomposition1D(24.0, (1, 1)),
    lambda: UnitaryDecompositionND((24.5, 24), (2, 2)),
    lambda: UnitaryDecompositionND((24, 24), (True, 2)),
], ids=["part-1.9", "M-24.0", "dim-24.5", "block-true"])
def test_decompositions_refuse_sizes_that_are_not_ints(build):
    # int() truncated 1.9 and 24.5, and 24.0 and true passed for 24 and 1
    with pytest.raises(ValueError, match="must be integers, got "):
        build()


@given(decomps(), st.data())
def test_split_is_consistent(dec, data):
    x = data.draw(st.integers(0, dec.M - 1))
    i, j, x_r = dec.split(x)
    assert x == (j * dec.m + dec.offsets[i] + x_r) % dec.M
    assert 0 <= x_r < dec.parts[i]


@given(decomps(), st.data())
def test_classification_covers_each_subgrid_once(dec, data):
    """Every block decomposes into exactly one sub-block per sub-grid."""
    x = data.draw(st.integers(0, dec.M - 1))
    entries = classify_block(dec, x)
    assert sorted(l for l, _, _ in entries) == list(range(dec.I))
    i, j, x_r = dec.split(x)
    for l, start, aligned in entries:
        if l == i and x_r > 0:
            assert not aligned
            assert start == (j * dec.parts[l] + x_r) % dec.subgrid_sizes[l]
        else:
            assert aligned and start % dec.parts[l] == 0
            expect_j = j if l >= i else j + 1
            assert start == (expect_j * dec.parts[l]) % dec.subgrid_sizes[l]


DEC_12 = Decomposition1D(M=12, parts=(1, 2))  # sub-grids of 4 and 8 points


@pytest.mark.parametrize("call, message", [
    (lambda: Decomposition1D(12, (0, 1)), r"parts must be positive: \(0, 1\)"),
    (lambda: Decomposition1D(10, (1, 2)), "block size 3 must divide M=10"),
    (lambda: theta(DEC_12, 0, 1), "point 1 not in sub-grid 0"),
    (lambda: theta_inv(DEC_12, 0, 4), "4 outside sub-grid 0 of size 4"),
    (lambda: synthesize(DEC_12, []), "expected 2 sub-maps, got 0"),
    (lambda: synthesize(DEC_12, [identity_generator(4, 1).to_colormap(),
                                 identity_generator(6, 1).to_colormap(id_offset=4)]),
     r"sub-map 1 grid \(6,\) != cyclic 8"),
    (lambda: synthesize(DEC_12, [identity_generator(4, 1).to_colormap(),
                                 identity_generator(8, 1).to_colormap(id_offset=4)]),
     r"sub-map 1 block \(1,\) != 2"),
    (lambda: UnitaryDecompositionND((4, 4), (2,)), "dims and block dimension mismatch"),
    (lambda: UnitaryDecompositionND((4, 5), (2, 2)),
     r"block \(2, 2\) must divide dims \(4, 5\) componentwise"),
    # split raised ZeroDivisionError on M = 0, and split(3) gave (0, -1, 1) on M = -4
    (lambda: Decomposition1D(0, (2,)), r"^size M=0 and parts must be positive: \(2,\)$"),
    (lambda: Decomposition1D(-4, (2,)), r"^size M=-4 and parts must be positive: \(2,\)$"),
    # block 0 raised ZeroDivisionError, dims 0 and -2 were accepted
    (lambda: UnitaryDecompositionND((2, 4), (0, 2)),
     r"^block \(0, 2\) must divide dims \(2, 4\) componentwise, all positive$"),
    (lambda: UnitaryDecompositionND((0, 4), (2, 2)),
     r"^block \(2, 2\) must divide dims \(0, 4\) componentwise, all positive$"),
    (lambda: UnitaryDecompositionND((-2, 4), (2, 2)),
     r"^block \(2, 2\) must divide dims \(-2, 4\) componentwise, all positive$"),
], ids=["part-0", "block-off-M", "theta-other-subgrid", "theta-inv-outside", "submap-count",
        "submap-grid", "submap-block", "nd-arity", "nd-block-off-dims", "M-0", "M-negative",
        "nd-block-0", "nd-dims-0", "nd-dims-negative"])
def test_decompositions_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_synthesize_requires_disjoint_palettes():
    dec = Decomposition1D(M=12, parts=(1, 1))
    a = identity_generator(6, 1).to_colormap(id_offset=0, subgrid=(0,))
    clash = identity_generator(6, 1).to_colormap(id_offset=0, subgrid=(1,))
    with pytest.raises(ValueError):
        synthesize(dec, [a, clash])


def test_synthesize_interleaves_subgrid_colors():
    dec = Decomposition1D(M=12, parts=(1, 1))
    a = identity_generator(6, 1).to_colormap(id_offset=0, subgrid=(0,))
    b = identity_generator(6, 1).to_colormap(id_offset=6, subgrid=(1,))
    cmap = synthesize(dec, [a, b])
    for x in range(12):
        i = dec.subgrid_of(x)
        assert (cmap.colors[x] >= 6) == (i == 1)


@given(decomps(), st.data())
def test_synthesize_places_colors_by_theta(dec, data):
    """Point x of sub-grid i takes sub-map i's color at theta(x)."""
    submaps, offset = [], 0
    for i, (M_i, m_i) in enumerate(zip(dec.subgrid_sizes, dec.parts)):
        k = data.draw(st.integers(1, 4))
        colors = data.draw(st.lists(st.integers(offset, offset + k - 1), min_size=M_i, max_size=M_i))
        palette = tuple(PaletteEntry(id=c, subgrid=(i,)) for c in range(offset, offset + k))
        submaps.append(ColorMap(GridSpec((M_i,)), BlockSpec((m_i,)), tuple(colors), palette))
        offset += k
    cmap = synthesize(dec, submaps)
    assert cmap.grid.dims == (dec.M,) and cmap.block.dims == (dec.m,)
    for x in range(dec.M):
        i = dec.subgrid_of(x)
        assert cmap.colors[x] == submaps[i].colors[theta(dec, i, x)]


def test_nd_membership_one_point_per_subgrid():
    dec = UnitaryDecompositionND(dims=(8, 6), block=(2, 2))
    grid = GridSpec((8, 6))
    for x in grid.points():
        members = unitary_block_membership(dec, x)
        assert len(members) == 4
        for J, pt in members.items():
            assert dec.subgrid_of(pt) == J


def test_nd_split_round_trip():
    dec = UnitaryDecompositionND(dims=(8, 6), block=(2, 2))
    grid = GridSpec((8, 6))
    for x in grid.points():
        J, l = dec.split(x)
        assert dec.unsplit(J, l) == x
