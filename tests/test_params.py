"""The params value a map keeps: the constructions keep what the reader
would give their maps, and every other map is still proved on its first
read."""

import functools
import itertools
import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidcode import codec, params
from braidcode.braid1d import (
    BraidParams1D, construct, enumerate_params, modify_general_size, restrict,
)
from braidcode.braidnd import UnitaryBraidParamsND, construct_unitary_nd, extend_arbitrary_size
from braidcode.core import asdict, encode, from_json, replace, to_json
from braidcode.generators import GeneratorCode, find_generator, identity_generator
from braidcode.sunmao import Decomposition1D

from conftest import FIG1_QTABLE, with_generators

QTABLE_140 = {(0, 0): (5, 7), (0, 1): (7, 5), (1, 0): (1, 5), (1, 1): (7, 1)}
QTABLE_LINE = {(0,): (2,), (1,): (3,)}


def _loaded(cmap):
    return from_json(to_json(cmap))


@functools.cache
def _generator(ell, m_i):
    # searched generators repeat colors; past ell = 24 a search can take seconds
    return find_generator(ell, m_i) if ell <= 24 else identity_generator(ell, m_i)


@functools.cache
def _params_of_parts(parts, M):
    return list(enumerate_params(M, parts))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_a_constructed_map_keeps_what_its_json_copy_reads(data):
    parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="parts"))
    M = sum(parts) * data.draw(st.integers(2, 300 // sum(parts)), label="M / m")
    options = _params_of_parts(parts, M)
    assume(options)
    p = data.draw(st.sampled_from(options), label="params")
    cmap = construct(p, [_generator(ell, m_i) for ell, m_i in zip(p.ells, p.parts)])
    kept = cmap._checked_params
    assert type(kept) is params.Window1D and kept.params == p and (kept.shift, kept.tail) == (0, 0)
    assert all(type(gen) is tuple and {type(c) for c in gen} == {int} for gen in kept.gens)
    assert kept == params.read(_loaded(cmap))
    assert params.read(cmap) is kept


def test_the_fixture_maps_keep_what_their_json_copies_read(m24, example_sets):
    for cmap in (m24, *map(construct, example_sets)):
        assert cmap._checked_params == params.read(_loaded(cmap))
    for qtable in (FIG1_QTABLE, QTABLE_140, QTABLE_LINE):
        p = UnitaryBraidParamsND(m=(2,) * len(next(iter(qtable))), g=2, qtable=qtable)
        cmap = construct_unitary_nd(p)
        assert cmap._checked_params is p
        assert p == params.read(_loaded(cmap))


@pytest.mark.parametrize("qtable, L", [
    (QTABLE_140, (138, 138)), (QTABLE_140, (137, 138)), (QTABLE_140, (140, 138)),
    (FIG1_QTABLE, (12, 20)), (QTABLE_LINE, (10,)),
], ids=["138x138", "137x138", "140x138", "12x20", "line-10"])
def test_an_extension_keeps_what_its_json_copy_reads(qtable, L):
    p = UnitaryBraidParamsND(m=(2,) * len(L), g=2, qtable=qtable)
    ext = extend_arbitrary_size(construct_unitary_nd(p), L)
    assert ext._checked_params is p
    assert p == params.read(_loaded(ext))  # the loaded copy is proved


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_the_1d_writer_gives_the_stored_params_and_a_read_of_them_the_kept_value(data):
    # identity generators: no generator search runs
    parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="parts"))
    M = sum(parts) * data.draw(st.integers(2, 300 // sum(parts)), label="M / m")
    options = _params_of_parts(parts, M)
    assume(options)
    p = data.draw(st.sampled_from(options), label="params")
    cmap = construct(p, [identity_generator(ell, m_i) for ell, m_i in zip(p.ells, p.parts)])
    assert params._params_dict_1d(cmap._checked_params) == cmap.params
    loaded = _loaded(cmap)
    assert params.read(loaded) == cmap._checked_params
    assert params._params_dict_1d(params.read(loaded)) == loaded.params


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_the_nd_writer_gives_the_stored_params_and_a_read_of_them_the_kept_value(data):
    n = data.draw(st.integers(1, 3), label="n")
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    q = st.lists(st.integers(1, 3 if n < 3 else 2), min_size=n, max_size=n)
    qtable = {J: tuple(data.draw(q, label=f"q {J}")) for J in itertools.product(*map(range, m))}
    p = UnitaryBraidParamsND(m=m, g=data.draw(st.integers(2, 3), label="g"), qtable=qtable)
    cmap, L = construct_unitary_nd(p), None
    if data.draw(st.booleans(), label="extend"):
        L = tuple(data.draw(st.integers(2 * m_i, M_i), label=f"L {i}")
                  for i, (m_i, M_i) in enumerate(zip(m, p.dims)))
        cmap = extend_arbitrary_size(cmap, L)
    assert params._params_dict(p, L) == cmap.params
    assert cmap._checked_params is p
    loaded = _loaded(cmap)
    assert params.read(loaded) == p
    assert params._params_dict(params.read(loaded), L) == loaded.params


def _spoiled(gen, how):
    """``gen`` with one field or color as a map file may hold it, or not at all."""
    colors = list(gen.colors)
    if how == "float ell":
        return GeneratorCode(float(gen.ell), gen.m, gen.colors, gen.labels)
    if how == "float m":
        return GeneratorCode(gen.ell, float(gen.m), gen.colors, gen.labels)
    if how == "bool m":
        return GeneratorCode(gen.ell, gen.m == 1 or gen.m, gen.colors, gen.labels)
    if how == "float color":
        colors[-1] = float(colors[-1])
    elif how == "bool color":
        colors = [bool(c) if c < 2 else c for c in colors]
    elif how == "repeated color":
        colors[-1] = colors[0]
    elif how == "negative color":
        colors[-1] = -1
    return GeneratorCode(gen.ell, gen.m, tuple(colors), gen.labels)


SPOILS = ["none", "float ell", "float m", "bool m", "float color", "bool color",
          "repeated color", "negative color"]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_construct_refuses_every_map_the_reader_would_refuse(data):
    # Either construct refuses the input, or the value its map keeps is what a
    # read of the map's JSON copy gives: no map keeps a value read would refuse.
    parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2), label="parts"))
    M = sum(parts) * data.draw(st.integers(2, 60 // sum(parts)), label="M / m")
    options = _params_of_parts(parts, M)
    assume(options)
    p = data.draw(st.sampled_from(options), label="params")
    gens = [_spoiled(_generator(ell, m_i), data.draw(st.sampled_from(SPOILS), label=f"gen {i}"))
            for i, (ell, m_i) in enumerate(zip(p.ells, p.parts))]
    try:
        cmap = construct(p, gens)
    except ValueError:
        return
    assert cmap._checked_params == params.read(_loaded(cmap))


def _recolored(cmap, k, like):
    colors = list(cmap.colors)
    colors[k] = colors[like]
    return replace(cmap, colors=tuple(colors))


def test_a_replace_with_a_contradicting_color_is_proved_and_refused(m24):
    bad = _recolored(m24, 5, 7)
    message = "^map contradicts its generators: point 5 has color 7, they give 6$"
    for refuse in (params.read, params.params_of, lambda cmap: modify_general_size(cmap, 20),
                   lambda cmap: codec.decode(cmap, encode(m24, (3,)))):
        with pytest.raises(ValueError, match=message):
            refuse(bad)
    # restrict cuts any 1D map, but guarantees only a proven one
    assert restrict(m24, 19).params["guaranteed"] is True
    assert restrict(bad, 19).params["guaranteed"] is False


def test_an_nd_replace_with_a_contradicting_color_is_proved_and_refused(fig_map):
    bad = _recolored(fig_map, 5, 7)
    message = r"^map contradicts its params: point \(0, 5\) has color 13, they give 12$"
    for refuse in (params.read, params.params_of_nd,
                   lambda cmap: extend_arbitrary_size(cmap, (12, 20)),
                   lambda cmap: codec.decode(cmap, encode(fig_map, (3, 3)))):
        with pytest.raises(ValueError, match=message):
            refuse(bad)


def test_the_family_check_runs_before_the_kept_value_is_read(m24, fig_map):
    params.read(m24), params.read(fig_map)  # both keep their values
    with pytest.raises(ValueError, match="^not a 1D braid map, nor a restriction or "
                                         "modification of one$"):
        params.params_of(fig_map)
    with pytest.raises(ValueError, match="^not an n-dim unitary braid map$"):
        params.params_of_nd(m24)


P24 = BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))


@pytest.fixture
def proofs(monkeypatch):
    """The list of maps ``params._prove`` is called on."""
    calls = []
    prove = params._prove

    def counted(cmap, *args):
        calls.append(cmap)
        return prove(cmap, *args)

    monkeypatch.setattr(params, "_prove", counted)
    return calls


def test_a_loaded_map_is_proved_once_and_a_constructed_one_never(proofs):
    built = construct(P24)
    codec.compile_decoder(built)
    restrict(built, 19), modify_general_size(built, 20)
    assert proofs == []
    loaded = _loaded(built)
    codec.compile_decoder(loaded)
    restrict(loaded, 19)
    assert proofs == [loaded]


def test_a_cut_map_is_proved_on_its_first_read_and_an_extension_never(proofs):
    # an extension keeps its source's params: it recolors only the tails the proof skips
    cut = restrict(construct(P24), 19)
    std = construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=FIG1_QTABLE))
    ext = extend_arbitrary_size(std, (12, 20))
    assert proofs == []
    for cmap in (cut, ext):
        codec.compile_decoder(cmap), params.read(cmap)
    assert proofs == [cut]
    loaded = _loaded(ext)
    codec.compile_decoder(loaded)
    assert proofs == [cut, loaded]


# ---------------------------------------------------------------------------
# Derived state the params records and the 1D decomposition hold


def _defined_1d(p):
    return {"m": sum(p.parts), "I": len(p.parts),
            "offsets": tuple(sum(p.parts[:i]) for i in range(len(p.parts))),
            "ells": tuple(p.g * c_i * q_i for c_i, q_i in zip(p.c, p.q)),
            "Q": math.lcm(*p.q), "unitary": all(m_i == 1 for m_i in p.parts)}


def _defined_nd(p):
    n = len(p.m)
    Q = tuple(math.lcm(*(qs[i] for qs in p.qtable.values())) for i in range(n))
    return {"n": n, "Q": Q, "dims": tuple(p.g * m_i * Q_i for m_i, Q_i in zip(p.m, Q)),
            "_color_count": sum(math.prod(p.g * q for q in qs) for qs in p.qtable.values())}


def _defined_decomposition(dec):
    m = sum(dec.parts)
    return {"m": m, "I": len(dec.parts),
            "offsets": tuple(sum(dec.parts[:i]) for i in range(len(dec.parts))),
            "subgrid_sizes": tuple(m_i * dec.M // m for m_i in dec.parts)}


def _holds_its_definitions(obj, define, **changes):
    """Each held value equals its definition, on ``obj`` and on a
    ``replace`` copy with ``changes``; none shows in ``==``, ``repr`` or
    ``asdict``; and none can be assigned."""
    want = define(obj)
    assert {name: getattr(obj, name) for name in want} == want
    changed = replace(obj, **changes)
    assert {name: getattr(changed, name) for name in want} == define(changed)
    twin = replace(obj)
    for name in want:  # every held value spoiled, the fields kept
        object.__setattr__(twin, name, object())
    assert twin == obj and repr(twin) == repr(obj) and asdict(twin) == asdict(obj)
    assert tuple(asdict(obj)) == obj.__record_fields__
    for name, value in want.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_1d_params_hold_their_derived_values(data):
    def valid_params(label):
        parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="parts"))
        M = sum(parts) * data.draw(st.integers(2, 300 // sum(parts)), label="M / m")
        options = _params_of_parts(parts, M)
        assume(options)
        return data.draw(st.sampled_from(options), label=label)

    p, other = valid_params("params"), valid_params("other params")
    _holds_its_definitions(p, _defined_1d, parts=other.parts, g=other.g, c=other.c, q=other.q)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_nd_params_hold_their_derived_values(data):
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3), label="m"))

    def qtable(label):
        return {J: tuple(data.draw(st.lists(st.integers(1, 5), min_size=len(m), max_size=len(m)),
                                   label=f"{label} {J}"))
                for J in itertools.product(*map(range, m))}

    p = UnitaryBraidParamsND(m=m, g=data.draw(st.integers(2, 4), label="g"), qtable=qtable("q"))
    assert p.color_count() == _defined_nd(p)["_color_count"]
    _holds_its_definitions(p, _defined_nd, g=data.draw(st.integers(2, 4), label="other g"),
                           qtable=qtable("other q"))


def _defined_window(w):
    """Per generator, its window at each x (the m_i colors from x on, cyclically,
    sorted) -> x; per color id, its generator."""
    tables = tuple({tuple(sorted(gen[(x + t) % len(gen)] for t in range(m_i))): x
                    for x in range(len(gen))} for gen, m_i in zip(w.gens, w.params.parts))
    return {"tables": tables, "sub_of": {cid: i for i, gen in enumerate(w.gens) for cid in gen}}


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_a_1d_window_holds_its_decode_tables(data):
    def window(label):
        parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                                label=f"{label} parts"))
        M = sum(parts) * data.draw(st.integers(2, 300 // sum(parts)), label=f"{label} M / m")
        options = _params_of_parts(parts, M)
        assume(options)
        p = data.draw(st.sampled_from(options), label=f"{label} params")
        return construct(p, [_generator(ell, m_i) for ell, m_i in zip(p.ells, p.parts)])

    cmap, other = window("window"), window("other")
    w = params.read(cmap)
    _holds_its_definitions(w, _defined_window, params=other._checked_params.params,
                           gens=other._checked_params.gens, shift=1)
    # in position order, as associated_matrix lists them
    assert [list(table.values()) for table in w.tables] == [list(range(len(g))) for g in w.gens]
    assert w.tables == params.read(_loaded(cmap)).tables


NOT_DISTINGUISHABLE = ("^generator 0 is not 1-distinguishable: two of its 4 windows share a "
                       "sub-codeword$")
SHARED_ID = "^generators 0 and 1 share color id 0$"


def test_a_window_construct_and_the_reader_refuse_bad_generators_in_one_text(m24):
    # construct said only "generator 0 is not 1-distinguishable"; a Window1D checked nothing
    with pytest.raises(ValueError, match=NOT_DISTINGUISHABLE):
        params.Window1D(P24, ((0, 1, 0, 1), (4, 5, 6, 7, 8, 9)))
    with pytest.raises(ValueError, match=NOT_DISTINGUISHABLE):
        construct(P24, [GeneratorCode(4, 1, (0, 1, 0, 1), ("a", "b")), identity_generator(6, 1)])
    bad = with_generators(m24, [[0, 1, 0, 1], [4, 5, 6, 7, 8, 9]])
    with pytest.raises(ValueError, match=NOT_DISTINGUISHABLE):
        params.params_of(bad)
    with pytest.raises(ValueError, match=SHARED_ID):
        params.Window1D(P24, ((0, 1, 2, 3), (0, 1, 2, 3, 4, 5)))
    bad = with_generators(m24, [[0, 1, 2, 3], [0, 1, 2, 3, 4, 5]])
    with pytest.raises(ValueError, match=SHARED_ID):
        params.params_of(bad)


def test_a_window_refuses_the_generator_count_and_lengths_the_reader_refuses(m24):
    # a Window1D took both; with ell = 6, _colors_1d then read gens[1][3] and raised IndexError
    count = "^map lists 1 generators for 2 sub-grids$"
    length = "^generator 1 does not have period ell=6 and block m=1$"
    with pytest.raises(ValueError, match=count):
        params.Window1D(P24, ((0, 1, 2, 3),))
    with pytest.raises(ValueError, match=count):
        params.params_of(replace(m24, params=dict(m24.params, gens=m24.params["gens"][:1])))
    with pytest.raises(ValueError, match=length):
        params.Window1D(P24, ((0, 1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError, match=length):
        params.params_of(with_generators(m24, [[0, 1, 2, 3], [4, 5, 6]]))


def _storing(cmap, gens, shift=True):
    """The JSON copy of standard 1D map ``cmap`` storing the fields of the
    generators ``gens``, their ids shifted as ``construct`` shifts them
    unless not ``shift``.  Its colors are left as they are: the reader
    refuses each fault below before it proves them."""
    stored, offset = [], 0
    for gen in gens:
        stored.append({"ell": gen.ell, "m": gen.m, "colors": [offset + c for c in gen.colors]})
        offset += (max(gen.colors) + 1) * shift
    return _loaded(replace(cmap, params=dict(cmap.params, gens=stored)))


GEN4, GEN6 = identity_generator(4, 1), identity_generator(6, 1)


@pytest.mark.parametrize("gens, message", [
    ([GEN4], "^map lists 1 generators for 2 sub-grids$"),
    ([GEN4, GEN6, GEN6], "^map lists 3 generators for 2 sub-grids$"),
    ([GEN6, GEN4], "^generator 0 does not have period ell=4 and block m=1$"),
    ([GEN4, GeneratorCode(6, 2, tuple(range(6)), tuple("abcdef"))],
     "^generator 1 does not have period ell=6 and block m=1$"),
    ([GeneratorCode(4.0, 1, (0, 1, 2, 3), tuple("abcd")), GEN6],
     "^generator fields must be integers, got 4.0$"),
    ([GEN4, GeneratorCode(6, True, tuple(range(6)), tuple("abcdef"))],
     "^generator fields must be integers, got true$"),
    ([GeneratorCode(4, 1, (0, 1, 0, 1), ("a", "b")), GEN6], NOT_DISTINGUISHABLE),
    # a field is refused before the count, by both; a generator past the parts is not read
    ([GeneratorCode(4.0, 1, (0, 1, 2, 3), tuple("abcd"))],
     "^generator fields must be integers, got 4.0$"),
    ([GEN4, GEN6, GeneratorCode(4, 1, (0, 1, 2, 3.5), tuple("abcd"))],
     "^map lists 3 generators for 2 sub-grids$"),
], ids=["too-few", "too-many", "wrong-ell", "wrong-m", "float-ell", "bool-m", "not-distinguishable",
        "too-few-and-float", "too-many-and-float"])
def test_construct_and_the_reader_refuse_the_same_generators_in_one_text(m24, gens, message):
    # construct said "expected 2 generators" and "generator 0 is (6,1), need (4,1)"
    with pytest.raises(ValueError, match=message):
        construct(P24, gens)
    with pytest.raises(ValueError, match=message):
        params.params_of(_storing(m24, gens))


def test_construct_shifts_apart_the_ids_a_stored_map_may_share(m24):
    # construct cannot be given generators that share an id: it shifts each past the ones before
    assert construct(P24, [GEN4, GEN6])._checked_params.gens == (tuple(range(4)), tuple(range(4, 10)))
    with pytest.raises(ValueError, match=SHARED_ID):
        params.params_of(_storing(m24, [GEN4, GEN6], shift=False))


@pytest.fixture
def window_calls(monkeypatch):
    """The block sizes of the ``params.windows`` calls, wherever a braidcode module binds it."""
    calls = []
    windows = params.windows

    def counted(colors, m):
        calls.append(m)
        return windows(colors, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("braidcode") and getattr(module, "windows", None) is windows:
            monkeypatch.setattr(module, "windows", counted)
    return calls


@pytest.mark.parametrize("p", [P24, BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1))],
                         ids=["m24", "c75"])
def test_the_generator_windows_are_built_once_per_read(window_calls, p):
    built = construct(p)
    window_calls.clear()  # construct's window tabled each generator once
    codec.compile_decoder(built)
    assert window_calls == []
    loaded = _loaded(built)
    params.read(loaded), codec.compile_decoder(loaded), codec.associated_matrix(loaded)
    assert window_calls == list(p.parts)  # the parent made 2 a generator on m24


@given(st.data())
def test_decompositions_hold_their_derived_values(data):
    def decomposition_fields(label):
        parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                                label=f"{label} parts"))
        return {"M": sum(parts) * data.draw(st.integers(1, 6), label=f"{label} M / m"),
                "parts": parts}

    dec = Decomposition1D(**decomposition_fields("decomposition"))
    _holds_its_definitions(dec, _defined_decomposition, **decomposition_fields("other"))
