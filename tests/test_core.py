"""Grid primitives: indexing, blocks, canonical codewords, JSON round trip."""

import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from braidcode import (
    BlockSpec,
    GridSpec,
    OutOfCodingAreaError,
    block_points,
    canonical,
    coding_area,
    coding_area_size,
    decode,
    encode,
    from_json,
    to_json,
)
from braidcode.core import PaletteEntry, asdict, replace
from braidcode.oracle import VerifyReport


@given(st.lists(st.integers(0, 50), min_size=1, max_size=8))
def test_canonical_is_sorted_and_idempotent(colors):
    w = canonical(colors)
    assert list(w) == sorted(colors)
    assert canonical(w) == w


dims_strategy = st.lists(st.integers(2, 9), min_size=1, max_size=3).map(tuple)


@given(dims_strategy, st.data())
def test_index_point_round_trip(dims, data):
    grid = GridSpec(dims)
    idx = data.draw(st.integers(0, grid.volume - 1))
    assert grid.index(grid.point(idx)) == idx


@given(dims_strategy, st.data())
def test_wrap_reduces_coordinates(dims, data):
    grid = GridSpec(dims)
    raw = tuple(data.draw(st.integers(-20, 40)) for _ in dims)
    wrapped = grid.wrap(raw)
    assert all(0 <= w < d for w, d in zip(wrapped, dims))
    assert all((r - w) % d == 0 for r, w, d in zip(raw, wrapped, dims))


def test_block_points_wraps_cyclic_grid():
    grid = GridSpec((6,))
    block = BlockSpec((3,))
    assert block_points(grid, block, (5,)) == [(5,), (0,), (1,)]


def test_block_points_flat_grid_bound():
    grid = GridSpec((6,), cyclic=False)
    block = BlockSpec((3,))
    assert block_points(grid, block, (3,)) == [(3,), (4,), (5,)]
    with pytest.raises(OutOfCodingAreaError):
        block_points(grid, block, (4,))


def test_coding_area_cyclic_vs_flat():
    block = BlockSpec((3,))
    assert coding_area_size(GridSpec((6,)), block) == 6
    assert coding_area_size(GridSpec((6,), cyclic=False), block) == 4
    assert len(list(coding_area(GridSpec((6,), cyclic=False), block))) == 4


def test_block_points_2d():
    grid = GridSpec((4, 4))
    block = BlockSpec((2, 2))
    pts = block_points(grid, block, (3, 3))
    assert set(pts) == {(3, 3), (3, 0), (0, 3), (0, 0)}


def test_tags_of_the_wrong_arity_are_rejected(m24, fig_map):
    with pytest.raises(ValueError, match="coordinates"):
        block_points(GridSpec((6,)), BlockSpec((3,)), (1, 2))
    with pytest.raises(ValueError, match="coordinates"):
        encode(m24, (1, 2))
    with pytest.raises(ValueError, match="coordinates"):
        encode(fig_map, (5,))


def test_points_of_the_wrong_arity_are_rejected(m24):
    with pytest.raises(ValueError, match="coordinates"):
        m24.color_at((1, 5))  # used to read the color of point 1
    with pytest.raises(ValueError, match="coordinates"):
        m24.grid.wrap((25, 3))  # used to give (1,)
    with pytest.raises(ValueError, match="coordinates"):
        GridSpec((4, 4)).index((1,))


def test_encode_sorts_block_colors(m24):
    w = encode(m24, (0,))
    assert w == canonical(w) and len(w) == 2


def test_json_round_trip(m24, fig_map):
    for cmap in (m24, fig_map):
        doc = json.loads(to_json(cmap))
        assert doc["version"] == 1
        back = from_json(to_json(cmap))
        assert back.grid == cmap.grid
        assert back.block == cmap.block
        assert back.colors == cmap.colors
        assert back.palette == cmap.palette
        assert back.params == cmap.params


NOT_INTS = [4.0, True, False, 1e300, math.inf, -math.inf, math.nan, "4", None]


@pytest.mark.parametrize("value", NOT_INTS, ids=map(json.dumps, NOT_INTS))
def test_from_json_refuses_ids_that_are_not_ints(m24, value):
    doc = json.loads(to_json(m24))
    colors, palette = doc["colors"], doc["palette"]
    assert palette[4]["id"] == 4
    for what, bad in [
        ("color", dict(doc, colors=colors[:-1] + [value])),
        ("palette", dict(doc, palette=palette[:-1] + [dict(palette[-1], id=value)])),
        # every 4, in the colors and in the palette: the ids still all match
        ("color", dict(doc, colors=[value if c == 4 else c for c in colors],
                       palette=[dict(e, id=value) if e["id"] == 4 else e for e in palette])),
    ]:
        message = f"{what} ids must be integers, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(json.dumps(bad))


def test_palette_ids_match_colors(m24):
    ids = {e.id for e in m24.palette}
    assert set(m24.colors) <= ids


# ---------------------------------------------------------------------------
# Frozen records


def test_a_record_field_cannot_be_assigned_or_deleted(m24):
    grid = GridSpec((24,))
    with pytest.raises(AttributeError, match="^cannot assign to field 'dims'$"):
        grid.dims = (12,)
    with pytest.raises(AttributeError, match="^cannot delete field 'cyclic'$"):
        del grid.cyclic
    with pytest.raises(AttributeError):
        m24.params = None
    assert grid == GridSpec((24,), True)


def test_uncompared_fields_take_no_part_in_eq_or_hash():
    a = VerifyReport(True, 24, None, elapsed_s=0.5, blocks_per_s=48.0)
    b = VerifyReport(True, 24, None, elapsed_s=0.25, blocks_per_s=96.0)
    assert a == b and hash(a) == hash(b)
    assert a != VerifyReport(True, 23, None, elapsed_s=0.5, blocks_per_s=48.0)
    assert VerifyReport(False, 24).elapsed_s == 0.0


def test_equal_records_hash_equal_and_other_classes_differ():
    assert GridSpec((24,)) == GridSpec([24], cyclic=True)
    assert hash(GridSpec((24,))) == hash(GridSpec([24], cyclic=True))
    assert GridSpec((24,)) != GridSpec((24,), cyclic=False)
    assert GridSpec((24,)) != BlockSpec((24,))  # same field values, another class
    assert len({GridSpec((24,)), GridSpec((24,)), GridSpec((12,))}) == 2


def test_record_repr_names_every_field_in_order():
    assert repr(GridSpec((24,))) == "GridSpec(dims=(24,), cyclic=True)"
    assert repr(VerifyReport(True, 24)) == (
        "VerifyReport(ok=True, checked=24, counterexample=None, elapsed_s=0.0, blocks_per_s=0.0)"
    )
    assert repr(PaletteEntry(3, label="a_1")) == (
        "PaletteEntry(id=3, subgrid=None, factors=None, label='a_1')"
    )


def test_post_init_checks_every_new_record():
    with pytest.raises(ValueError, match=re.escape("grid dims must be positive: (0,)")):
        GridSpec((0,))
    with pytest.raises(ValueError, match=re.escape("grid dims must be positive: (0,)")):
        replace(GridSpec((24,)), dims=(0,))
    with pytest.raises(TypeError):
        replace(GridSpec((24,)), M=(12,))


def test_a_map_with_dict_params_is_unhashable(m24):
    assert isinstance(m24.params, dict)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(m24)
    assert m24 == replace(m24, params=dict(m24.params))


def test_replace_and_asdict(m24, fig_map):
    flat = replace(m24.grid, cyclic=False)
    assert (flat.dims, flat.cyclic, m24.grid.cyclic) == ((24,), False, True)
    res = decode(fig_map, encode(fig_map, (5, 5)))
    doc = asdict(res)
    assert list(doc) == ["tag", "per_axis", "path"]
    assert doc["per_axis"] == tuple(asdict(d) for d in res.per_axis)
    assert list(doc["per_axis"][0]) == [
        "tag", "j_star", "i_star", "r_star", "a_star", "b_star", "a_vec", "path",
    ]
    assert asdict(VerifyReport(True, 24, None, 0.5, 48.0)) == {
        "ok": True, "checked": 24, "counterexample": None, "elapsed_s": 0.5, "blocks_per_s": 48.0,
    }
