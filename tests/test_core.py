"""Grid primitives: indexing, blocks, canonical codewords, JSON round trip."""

import copy
import json
import math
import operator
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from braidcode import (
    BlockSpec,
    ColorMap,
    GridSpec,
    OutOfCodingAreaError,
    block_points,
    braid1d,
    canonical,
    coding_area,
    coding_area_size,
    decode,
    encode,
    extend_arbitrary_size,
    from_json,
    modify_general_size,
    product,
    restrict,
    to_json,
)
from braidcode.codec import DecodeResult, DecodeResultND, ErasureResult
from braidcode.core import PaletteEntry, asdict, parse_codeword, parse_int, record, replace
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


def test_index_refuses_a_point_outside_the_grid():
    grid = GridSpec((3, 4))
    assert grid.index((2, 3)) == 11
    for point in [(3, 0), (0, 4), (-1, 0)]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'point {point} outside grid (3, 4)')}$"):
            grid.index(point)


@pytest.mark.parametrize("text,value", [("7", 7), (" 7 ", 7), ("+7", 7), ("-3", -3), ("007", 7)])
def test_parse_int_reads_a_sign_digits_and_surrounding_spaces(text, value):
    assert parse_int(text) == value


# int() reads the first three as 10, 7 and 1 ("\uff11" is a fullwidth 1)
@pytest.mark.parametrize("text", ["1_0", "\u0667", "\uff11", "\u00b2", "", "+", "-+1", "1 0", "1.0"])
def test_parse_int_refuses_any_other_spelling(text):
    with pytest.raises(ValueError, match=re.escape(f"invalid literal for int() with base 10: {text!r}")):
        parse_int(text)
    with pytest.raises(ValueError, match=re.escape("not a codeword (parse)")):
        parse_codeword(f"2,{text}" if text else "2,x")


@pytest.mark.parametrize("text", ["0,,4", ",0,4,", "0, ,4", "0,4,", ""])
def test_parse_codeword_refuses_an_empty_token(text):
    # these were read as the codeword 0,4 (the empty text as no color at all)
    with pytest.raises(ValueError, match=re.escape("not a codeword (parse): invalid literal")):
        parse_codeword(text)
    assert parse_codeword(" 4, 0 ") == (0, 4)


def test_encode_takes_an_int_tag_on_a_1d_map(m24):
    assert encode(m24, 23) == encode(m24, (23,)) == canonical((m24.colors[23], m24.colors[0]))


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


def test_json_round_trip_of_edge_maps(edge_maps):
    # a one-point map joins one color id, of two digits
    for name, cmap in edge_maps.items():
        text = to_json(cmap)
        assert text == reference_to_json(cmap), name
        assert from_json(text) == cmap, name
    assert json.loads(to_json(edge_maps["one-point"]))["colors"] == [42]


def reference_to_json(cmap):
    """``to_json`` as it was before it joined the colors from a table:
    ``json.dumps`` of the whole document."""
    return json.dumps({
        "version": 1,
        "grid": {"M": list(cmap.grid.dims), "cyclic": cmap.grid.cyclic},
        "block": {"m": list(cmap.block.dims)},
        "colors": list(cmap.colors),
        "palette": [{"id": e.id,
                     "subgrid": list(e.subgrid) if e.subgrid is not None else None,
                     "factors": list(e.factors) if e.factors is not None else None,
                     "label": e.label} for e in cmap.palette],
        "params": cmap.params,
    })


def test_to_json_writes_what_json_dumps_writes_on_every_kind(m24, fig_map, example_sets):
    m4620 = braid1d.construct(braid1d.BraidParams1D(M=4620, parts=(1, 1), g=2, c=(1, 1), q=(15, 77)))
    maps = [m24, braid1d.construct(example_sets[1]), m4620, restrict(m24, 19),
            restrict(m4620, 4001), modify_general_size(m24, 20, fresh=True),
            modify_general_size(m4620, 4000), fig_map, extend_arbitrary_size(fig_map, (22, 23)),
            product([m24, m24]), replace(m24, params=None)]
    kinds = {(cmap.params or {}).get("kind") for cmap in maps}
    assert kinds == {"braid1d", "restricted", "modified", "unitary-braid-nd", "extended-nd",
                     "product", None}
    for cmap in maps:
        assert to_json(cmap) == reference_to_json(cmap)


_ID = st.integers(-2**70, 2**70) | st.integers(2**63, 2**64 + 5)


@settings(max_examples=200)
@given(st.data())
def test_to_json_of_hand_made_maps_is_what_json_dumps_writes(data):
    ids = data.draw(st.lists(_ID, min_size=1, max_size=8, unique=True), label="ids")
    M = data.draw(st.integers(1, 40), label="M")
    m = data.draw(st.integers(1, M), label="m")
    colors = data.draw(st.lists(st.sampled_from(ids), min_size=M, max_size=M), label="colors")
    palette = tuple(PaletteEntry(id=i, label=data.draw(st.text(max_size=6), label="label"))
                    for i in ids)
    params = data.draw(st.none() | st.fixed_dictionaries({"note": st.text(max_size=6)}))
    cmap = ColorMap(GridSpec((M,)), BlockSpec((m,)), tuple(colors), palette, params)
    text = to_json(cmap)
    assert text == reference_to_json(cmap)
    assert from_json(text) == cmap


NOT_INTS = [4.0, True, False, 1e300, math.inf, -math.inf, math.nan, "4", None]


@pytest.mark.parametrize("value", [*NOT_INTS, 4.5], ids=map(json.dumps, [*NOT_INTS, 4.5]))
def test_to_json_refuses_ids_that_are_not_ints(value):
    # the id from_json would refuse, in the text from_json gives, not a file it refuses
    cmap = ColorMap(GridSpec((3,)), BlockSpec((1,)), (2, value, 2),
                    (PaletteEntry(id=2), PaletteEntry(id=value)))
    message = f"color ids must be integers, got {json.dumps(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        to_json(cmap)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_json(reference_to_json(cmap))
    # one equal to an int id met before it is written as that int, and reads back equal
    same = ColorMap(GridSpec((2,)), BlockSpec((1,)), (1, True), (PaletteEntry(id=1),))
    assert json.loads(to_json(same))["colors"] == [1, 1] and from_json(to_json(same)) == same


@pytest.mark.parametrize("value", [*NOT_INTS, 4.5], ids=map(json.dumps, [*NOT_INTS, 4.5]))
def test_to_json_refuses_palette_ids_that_are_not_ints(value):
    # a palette id no color uses: written as it is, it made a file from_json refuses
    cmap = ColorMap(GridSpec((2,)), BlockSpec((1,)), (2, 2),
                    (PaletteEntry(id=2), PaletteEntry(id=value)))
    message = f"palette ids must be integers, got {json.dumps(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        to_json(cmap)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_json(reference_to_json(cmap))
    # a palette id equal to the int color ids, unlike such a color id, is refused too
    same = ColorMap(GridSpec((2,)), BlockSpec((1,)), (1, 1), (PaletteEntry(id=True),))
    with pytest.raises(ValueError, match="^palette ids must be integers, got true$"):
        to_json(same)


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


def test_from_json_refuses_another_version(m24):
    doc = json.loads(to_json(m24))
    for version in (2, 0, None, "1"):
        with pytest.raises(ValueError, match=f"^unsupported version {version}$"):
            from_json(json.dumps(dict(doc, version=version)))


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


# ---------------------------------------------------------------------------
# Palette entries: tuples of their four fields, with the contract of a record


@record
class _FourFields:
    id: int
    subgrid: tuple | None = None
    factors: tuple | None = None
    label: str = ""


ENTRY = PaletteEntry(3, (0,), None, "a")


def test_a_palette_entry_equals_only_an_entry():
    fields = (3, (0,), None, "a")
    for other in (fields, _FourFields(*fields)):
        assert ENTRY != other and other != ENTRY, other
        assert not (ENTRY == other or other == ENTRY), other
    assert ENTRY == PaletteEntry(id=3, subgrid=(0,), label="a") == PaletteEntry._make(fields)
    assert ENTRY != PaletteEntry(3, (0,), None, "b")
    assert ENTRY != 3 and ENTRY is not None


def test_equal_palette_entries_hash_equal_and_key_only_entries():
    twin = PaletteEntry._make([3, (0,), None, "a"])
    assert twin == ENTRY and twin is not ENTRY and hash(twin) == hash(ENTRY)
    by_entry = {ENTRY: "entry"}
    assert by_entry[twin] == "entry"
    assert by_entry.get((3, (0,), None, "a")) is None
    assert len({ENTRY, twin, (3, (0,), None, "a")}) == 2


def test_palette_entries_do_not_order(m24):
    """Entries order against nothing, as no record does: tuple's order
    would rank them, and rank an entry against a plain tuple either way."""
    fields = (3, (0,), None, "a")
    for left, right in [(ENTRY, PaletteEntry(4)), (ENTRY, fields), (fields, ENTRY), (ENTRY, ENTRY)]:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="^palette entries do not order$"):
                op(left, right)
    with pytest.raises(TypeError, match="^palette entries do not order$"):
        sorted(m24.palette)


def test_a_palette_entry_field_cannot_be_set_or_deleted():
    entry = PaletteEntry(3, (0,), None, "a")
    with pytest.raises(AttributeError, match="^cannot assign to field 'id'$"):
        entry.id = 4
    with pytest.raises(AttributeError, match="^cannot delete field 'label'$"):
        del entry.label
    with pytest.raises(AttributeError, match="^cannot assign to field 'note'$"):
        entry.note = "x"  # no per-instance dict to hold it
    with pytest.raises(TypeError):
        vars(entry)
    assert entry == ENTRY


def test_palette_entry_repr_asdict_and_replace():
    assert repr(ENTRY) == "PaletteEntry(id=3, subgrid=(0,), factors=None, label='a')"
    assert repr(PaletteEntry._make((5, None, (1, 2), ""))) == (
        "PaletteEntry(id=5, subgrid=None, factors=(1, 2), label='')"
    )
    assert asdict(ENTRY) == {"id": 3, "subgrid": (0,), "factors": None, "label": "a"}
    cmap = ColorMap(GridSpec((2,)), BlockSpec((1,)), (3, 3), (ENTRY,))
    assert asdict(cmap)["palette"] == (asdict(ENTRY),)
    renamed = replace(ENTRY, label="b")
    assert type(renamed) is PaletteEntry and renamed == PaletteEntry(3, (0,), None, "b")
    assert renamed != (3, (0,), None, "b")
    assert replace(ENTRY) == ENTRY
    with pytest.raises(TypeError):
        replace(ENTRY, colour="b")


def _copies(obj):
    yield "copy", copy.copy(obj)
    yield "deepcopy", copy.deepcopy(obj)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle {protocol}", pickle.loads(pickle.dumps(obj, protocol))


def test_palette_entries_copy_and_pickle_to_equal_entries():
    for entry in (ENTRY, PaletteEntry(7), PaletteEntry(1, (0, 1), (2, 3), "s01_2,3")):
        for how, back in _copies(entry):
            assert type(back) is PaletteEntry, how
            assert repr(back) == repr(entry) and back == entry, how


def test_maps_copy_and_pickle_to_equal_maps(m24, fig_map, edge_maps):
    # a copy keeps the map's color id set, derived state that to_json reads
    # and that is neither a field nor in the JSON document
    for name, cmap in {"m24": m24, "fig": fig_map, **edge_maps}.items():
        assert cmap._color_ids == set(cmap.colors), name
        for how, back in _copies(cmap):
            assert back == cmap, (name, how)
            assert all(type(e) is PaletteEntry for e in back.palette), (name, how)
            assert back._color_ids == cmap._color_ids, (name, how)
            assert to_json(back) == to_json(cmap), (name, how)
    assert list(asdict(m24)) == ["grid", "block", "colors", "palette", "params"]
    assert "_color_ids" not in to_json(m24)
    again = from_json(to_json(m24))
    object.__setattr__(again, "_color_ids", set())
    assert again == m24


# ---------------------------------------------------------------------------
# Tuple records: palette entries and decode results share one helper


_ROUTED = DecodeResult(7, 3, 1, 0, 1, 1, (1, 1), "routing")
_AXIS_0 = DecodeResult(37, 18, 2, 0, 9, 0, (4, 2, 0, 2), "routing")

# record -> its repr, as each class gave it when it was a ``record``
TUPLE_RECORDS = {
    ENTRY: "PaletteEntry(id=3, subgrid=(0,), factors=None, label='a')",
    _ROUTED: ("DecodeResult(tag=7, j_star=3, i_star=1, r_star=0, a_star=1, b_star=1, "
              "a_vec=(1, 1), path='routing')"),
    DecodeResult(9, 4, 0, 1, 0, 0, (), "seam"): (
        "DecodeResult(tag=9, j_star=4, i_star=0, r_star=1, a_star=0, b_star=0, a_vec=(), "
        "path='seam')"),
    DecodeResultND((37, 7), (_AXIS_0, _ROUTED), "routing"): (
        "DecodeResultND(tag=(37, 7), per_axis=(DecodeResult(tag=37, j_star=18, i_star=2, "
        "r_star=0, a_star=9, b_star=0, a_vec=(4, 2, 0, 2), path='routing'), DecodeResult(tag=7, "
        "j_star=3, i_star=1, r_star=0, a_star=1, b_star=1, a_vec=(1, 1), path='routing')), "
        "path='routing')"),
    DecodeResultND((0, 136), (None, None), "seam"): (
        "DecodeResultND(tag=(0, 136), per_axis=(None, None), path='seam')"),
    ErasureResult((17, 18), 1): "ErasureResult(candidates=(17, 18), resolution=1)",
}
_RECORDS = list(TUPLE_RECORDS)


def _fields(rec) -> tuple:
    return tuple(getattr(rec, name) for name in rec.__record_fields__)


def _record_twin(rec):
    """The ``record``-made class of the same name and fields, and its instance."""
    cls = type(rec)
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(cls.__record_fields__)}))
    return twin(*_fields(rec))


@pytest.mark.parametrize("rec", _RECORDS, ids=repr)
def test_a_tuple_record_equals_only_a_record_of_its_class(rec):
    fields = _fields(rec)
    assert fields == tuple(rec)  # a tuple of its fields, in order
    for other in (fields, _record_twin(rec)):
        assert rec != other and other != rec, other
        assert not (rec == other or other == rec), other
    same = type(rec)._make(fields)
    assert same == rec and same is not rec and type(same) is type(rec)
    assert not (same != rec)
    name = rec.__record_fields__[-1]
    assert rec != replace(rec, **{name: "other"}) != rec
    assert rec != 3 and rec is not None
    assert _RECORDS.count(rec) == 1  # no record of another class or fields equals it


@pytest.mark.parametrize("rec", _RECORDS, ids=repr)
def test_a_tuple_record_hashes_and_prints_as_the_record_did(rec):
    # as a ``record`` of the same fields: the hash of the tuple of its compared
    # fields, and Name(field=value, ...)
    twin = _record_twin(rec)
    assert hash(rec) == hash(twin) == hash(_fields(rec))
    assert repr(rec) == TUPLE_RECORDS[rec] == repr(twin)
    assert {rec: 1}[type(rec)._make(_fields(rec))] == 1
    assert len({rec, _fields(rec)}) == 2


@pytest.mark.parametrize("rec", _RECORDS, ids=repr)
def test_a_tuple_record_builds_by_keyword_replaces_and_converts_to_a_dict(rec):
    cls, names = type(rec), rec.__record_fields__
    by_name = dict(zip(names, _fields(rec)))
    assert cls(**by_name) == rec == cls(*_fields(rec))
    assert replace(rec) == rec and type(replace(rec)) is cls
    changed = replace(rec, **{names[0]: "x"})
    assert (type(changed), changed[0], changed[1:]) == (cls, "x", rec[1:])
    want = dict(by_name)
    if "per_axis" in want:  # the one field that holds records
        want["per_axis"] = tuple(None if d is None else asdict(d) for d in want["per_axis"])
    assert asdict(rec) == want and list(asdict(rec)) == list(names)
    assert asdict(_ROUTED)["a_vec"] == (1, 1)
    with pytest.raises(TypeError):
        cls(**by_name, extra=1)
    with pytest.raises(TypeError):
        replace(rec, extra=1)


@pytest.mark.parametrize("rec", _RECORDS, ids=repr)
def test_a_tuple_record_field_cannot_be_set_or_deleted_and_records_do_not_order(rec):
    name = rec.__record_fields__[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(rec, name, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(rec, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'note'$"):
        rec.note = 1  # no per-instance dict to hold it
    with pytest.raises(TypeError):
        vars(rec)
    fields = _fields(rec)
    for left, right in [(rec, rec), (rec, fields), (fields, rec)]:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="do not order$"):
                op(left, right)
    assert _fields(rec) == fields


@pytest.mark.parametrize("rec", _RECORDS, ids=repr)
def test_tuple_records_copy_and_pickle_to_equal_records(rec):
    for how, back in _copies(rec):
        assert type(back) is type(rec), how
        assert back == rec and repr(back) == repr(rec) and hash(back) == hash(rec), how
        for name in rec.__record_fields__:
            assert type(getattr(back, name)) is type(getattr(rec, name)), (how, name)
