"""Decoding: CRT, matrices, 1D/nD decoders, erasure location."""

import functools
import itertools
import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from braidcode import (
    braid1d, canonical, codec, coding_area, encode, from_json, is_distinguishable, to_json,
)
from braidcode.braid1d import (
    BraidParams1D, InfeasibleError, construct, enumerate_params, modify_general_size, params_of,
    restrict,
)
from braidcode.core import ColorMap, GridSpec, PaletteEntry, replace
from braidcode.params import read
from braidcode.braidnd import (
    UnitaryBraidParamsND, construct_unitary_nd, extend_arbitrary_size, params_of_nd,
)
from braidcode.codec import (
    AmbiguousDecode,
    AssociatedMatrix,
    DecodeResult,
    DecodeResultND,
    NotACodeword,
    _Router,
    associated_matrix,
    b_matrix,
    compile_decoder,
    decode,
    decode_1d,
    decode_1d_general,
    decode_nd,
    dump_matrices,
    erasure_decode,
    format_codeword,
    generalized_crt,
    parse_codeword,
    qhat,
)

from conftest import with_generators


# ---------------------------------------------------------------------------
# generalized CRT


def brute_crt(residues, moduli):
    L = math.lcm(*moduli)
    for x in range(L):
        if all(x % m == r % m for r, m in zip(residues, moduli)):
            return x
    return None


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_generalized_crt_matches_brute_force(data):
    # 1 to 5 moduli in 1..30, 1s and shared factors among them, with an lcm
    # of at most 10,000; residues consistent or random, so often None.
    moduli = []
    for _ in range(data.draw(st.integers(1, 5), label="count")):
        fits = [n for n in range(1, 31) if math.lcm(n, *moduli) <= 10_000]
        moduli.append(data.draw(st.sampled_from(fits), label="modulus"))
    if data.draw(st.booleans(), label="consistent"):
        x = data.draw(st.integers(0, math.lcm(*moduli) - 1), label="x")
        residues = [x % n + n * data.draw(st.integers(0, 3), label="lift") for n in moduli]
    else:
        residues = data.draw(st.lists(st.integers(0, 100), min_size=len(moduli),
                                      max_size=len(moduli)), label="residues")
    assert generalized_crt(residues, moduli) == brute_crt(residues, moduli)


def test_crt_detects_inconsistency():
    assert generalized_crt([0, 1], [4, 2]) is None
    assert generalized_crt([1, 3], [6, 4]) == 7
    assert generalized_crt([2, 2], [4, 6]) == 2
    with pytest.raises(ValueError, match="moduli must be positive"):
        generalized_crt([0, 0], [3, 0])
    # a congruence with no partner is refused, not dropped (17 and 1 before)
    with pytest.raises(ValueError, match="^3 residues for 2 moduli$"):
        generalized_crt([1, 2, 3], [4, 5])
    with pytest.raises(ValueError, match="^1 residues for 2 moduli$"):
        generalized_crt([1], [4, 5])


def test_qhat_minimum_subset_product():
    assert qhat((2, 3, 5), 1) == 2
    assert qhat((2, 3, 5), 2) == 6
    assert qhat((2, 3, 4), 2) == 6


@pytest.mark.parametrize("i", [0, 4])
def test_qhat_refuses_a_subset_size_out_of_range(i):
    with pytest.raises(ValueError, match="subset size out of range"):
        qhat((2, 3, 5), i)


# ---------------------------------------------------------------------------
# matrices


def test_matrices_reference_24(m24):
    A = associated_matrix(m24)
    assert A.rows == ((0, 1, 2, 3) * 3, (0, 1, 2, 3, 4, 5) * 2)
    assert A.periods == (4, 6)
    B = b_matrix(A)
    assert B.rows == ((0, 1, 0, 1, 0, 1), (0, 1, 2, 0, 1, 2))
    dump = dump_matrices(m24).splitlines()
    assert dump[0].split() == [str(v) for v in A.rows[0]]
    # a restricted or modified map, or a cut of one, reports the matrices of the map it was cut from
    base = dump_matrices(m24)
    assert dump_matrices(restrict(m24, 19)) == dump_matrices(modify_general_size(m24, 20)) == base
    assert dump_matrices(restrict(restrict(m24, 19), 15)) == base
    assert dump_matrices(restrict(modify_general_size(m24, 20), 15)) == base


def test_b_matrix_refuses_a_label_that_g_does_not_divide():
    # column a = 1 reads the label at a*g = 2, which is 1 and not a multiple of g = 2
    A = AssociatedMatrix(rows=((0, 1, 1, 0),), g=2, q=(2,))
    with pytest.raises(ValueError, match="row 0, column 1: label 1 not divisible by g=2"):
        b_matrix(A)


def test_matrix_rows_have_minimum_period_gq():
    params = BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))
    cmap = construct(params)
    A = associated_matrix(cmap)
    for i, row in enumerate(A.rows):
        p = params.g * params.q[i]
        assert len(row) % p == 0
        assert row == row[p:] + row[:p]
        for smaller in range(1, p):
            if p % smaller == 0:
                assert row != row[smaller:] + row[:smaller]


def test_codeword_formatting_round_trip():
    w = canonical((5, 1, 3, 1))
    assert parse_codeword(format_codeword(w)) == w
    with pytest.raises(ValueError):
        parse_codeword("1,two,3")


# ---------------------------------------------------------------------------
# routing


def reference_route(self, alphas):
    """The candidate search the closed-form routing replaced, kept verbatim as its
    reference: every (i*, x_r) pair gets its own residues, CRT and
    arithmetic check."""
    g, parts, c, q, gq = self.g, self.parts, self.c, self.q, self.gq
    I = len(parts)
    js, rs = [], []
    for alpha, c_i, u_i, gq_i in zip(alphas, c, self.inv, gq):
        r_i = alpha % c_i
        js.append(((alpha - r_i) // c_i * u_i) % gq_i)
        rs.append(r_i)

    nonzero = [i for i, r in enumerate(rs) if r != 0]
    if len(nonzero) > 1:
        raise NotACodeword("split-offset", "more than one non-aligned sub-block")
    if nonzero:
        i = nonzero[0]
        candidates = [(i, x_r) for x_r in range(rs[i], parts[i], c[i]) if x_r > 0]
    else:
        candidates = [(i, 0) for i in range(I)]
        for i in range(I):
            candidates += [(i, x_r) for x_r in range(c[i], parts[i], c[i])]

    results = []
    for i_star, x_r in candidates:
        res = []
        for i in range(I):
            if i == i_star:
                res.append((js[i] - x_r // c[i] * self.inv[i]) % gq[i])
            elif i < i_star:
                res.append((js[i] - 1) % gq[i])
            else:
                res.append(js[i])
        b_star = res[-1] % g
        if any(r % g != b_star for r in res):
            continue
        a_vec = tuple(((r - b_star) // g) % q_i for r, q_i in zip(res, q))
        a_star = generalized_crt(a_vec, q)
        if a_star is None:
            continue
        j_star = a_star * g + b_star
        # verify: recompute every sub-grid position from the tag
        ok = True
        for i in range(I):
            if i == i_star:
                pos = j_star * parts[i] + x_r
            elif i < i_star:
                pos = (j_star + 1) * parts[i]
            else:
                pos = j_star * parts[i]
            if pos % (gq[i] * c[i]) != alphas[i]:  # mod ell_i
                ok = False
                break
        if ok:
            tag = j_star * self.m + self.offsets[i_star] + x_r
            results.append(
                DecodeResult(tag, j_star, i_star, x_r, a_star, b_star, a_vec, "routing"))
    return results


def braid_param_sets(I_max, part_max, g_max, q_max, volume):
    """Every parameter set passing ``validate`` with I <= I_max, m_i <= part_max,
    g <= g_max, q_i <= q_max and prod(ell_i) <= volume."""
    for I in range(1, I_max + 1):
        for parts in itertools.product(range(1, part_max + 1), repeat=I):
            divisors = [[d for d in range(1, m + 1) if m % d == 0] for m in parts]
            for c, g, q in itertools.product(itertools.product(*divisors), range(1, g_max + 1),
                                             itertools.product(range(1, q_max + 1), repeat=I)):
                p = BraidParams1D(M=sum(parts) * g * math.lcm(*q), parts=parts, g=g, c=c, q=q)
                if not braid1d.validate(p) and math.prod(p.ells) <= volume:
                    yield p


def _windows(p, tag):
    """Generator position of each sub-grid's piece in the block at ``tag``,
    read from the grid: the piece starts at the sub-grid's first point y at
    or after ``tag``, whose position is (y div m)*m_i + (y mod m) - d_i."""
    owner = [i for i, m_i in enumerate(p.parts) for _ in range(m_i)]
    starts = {}
    for y in range(tag, tag + p.m):
        j, d = divmod(y, p.m)
        i = owner[d]
        starts.setdefault(i, (j * p.parts[i] + d - p.offsets[i]) % p.ells[i])
    return tuple(starts[i] for i in range(len(p.parts)))


def _unitary_rows(g, q):
    """The 1D params of one unitary row per q_s, as an n-D axis routes them."""
    return BraidParams1D(M=len(q) * g * math.lcm(*q), parts=(1,) * len(q), g=g,
                         c=(1,) * len(q), q=q)


def router_route(router, alphas):
    """The routing step's tuple as a result, as the 1D decoder builds it, or None."""
    found = router.solve(alphas)
    return None if found is None else DecodeResult(*found, "routing")


def reference_hit(router, alphas):
    """The candidate search's one result, or None; it never finds two."""
    found = reference_route(router, alphas)
    assert len(found) <= 1, (router.parts, alphas, found)
    return found[0] if found else None


def _routed(route, router, alphas):
    try:
        return route(router, alphas)
    except NotACodeword as e:
        return e.step


@pytest.fixture()
def crt_calls(monkeypatch):
    """The results of every CRT solve the router makes."""
    calls = []
    solve = codec._crt_solve

    def counted(plan, residues):
        calls.append(solve(plan, residues))
        return calls[-1]

    monkeypatch.setattr(codec, "_crt_solve", counted)
    return calls


def test_route_reads_the_split_from_the_residues_as_the_candidate_search_finds_it(crt_calls):
    # Every generator-position vector of every small braid parameter set,
    # also the ones no codeword produces: the candidate search finds at most
    # one tag, and the closed form routes to that tag with the same result,
    # or to none, or fails at the same NotACodeword step; at most two CRTs,
    # one on unitary rows.  The search's arithmetic check never drops a result
    # the closed form keeps, and every routed tag's block holds the pieces it
    # was routed from.
    sets = list(braid_param_sets(I_max=3, part_max=3, g_max=4, q_max=3, volume=400))
    vectors = crts = routed = 0
    for p in sets:
        router = _Router(p)
        for alphas in itertools.product(*map(range, p.ells)):
            crt_calls.clear()
            got = _routed(router_route, router, alphas)
            # counted before the reference runs: its generalized_crt solves the same way
            assert len(crt_calls) <= (1 if p.unitary else 2), (p, alphas)
            crts += len(crt_calls)
            assert got == _routed(reference_hit, router, alphas), (p, alphas)
            if isinstance(got, DecodeResult):
                assert _windows(p, got.tag) == alphas, (p, alphas)
                routed += 1
            vectors += 1
    assert (len(sets), vectors) == (1404, 256_197)
    assert crts >= routed > 0  # every routed tag took a CRT, so the count saw them


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_route_finds_the_candidate_searchs_one_hit_beyond_the_exhaustive_bounds(data):
    # Params validate accepts with I <= 4, m_i <= 5, g <= 9 and q_i <= 5, past the
    # exhaustive test's bounds: for the windows of a random tag the closed form
    # routes to that tag, and for those and for random position vectors it gives
    # the candidate search's one hit, or none, or fails at the same step.
    parts = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="parts"))
    g = data.draw(st.integers(2, 9), label="g")
    q = tuple(data.draw(st.lists(st.integers(1, 5), min_size=len(parts), max_size=len(parts)),
                        label="q"))
    # the c_i validate takes for each part: c_i = m_i always is one
    c = tuple(data.draw(st.sampled_from([d for d in range(1, m_i + 1) if m_i % d == 0
                                         and g * d > m_i and math.gcd(m_i, g * d * q_i) == d
                                         and (len(parts) > 1 or d == m_i)]), label=f"c{i}")
              for i, (m_i, q_i) in enumerate(zip(parts, q)))
    p = BraidParams1D(M=sum(parts) * g * math.lcm(*q), parts=parts, g=g, c=c, q=q)
    assume(not braid1d.validate(p))  # two parts whose split blocks clash
    router = _Router(p)
    for _ in range(20):
        if data.draw(st.booleans(), label="block"):
            tag = data.draw(st.integers(0, p.M - 1), label="tag")
            alphas = _windows(p, tag)
            assert router_route(router, alphas).tag == tag, (p, tag)
        else:
            alphas = tuple(data.draw(st.integers(0, ell - 1), label="alpha") for ell in p.ells)
        got = _routed(router_route, router, alphas)
        event("routed" if isinstance(got, DecodeResult) else "refused")
        assert got == _routed(reference_hit, router, alphas), (p, alphas)


def _mixed(cmap, pieces):
    """The codeword whose sub-grid i piece is ``pieces[i]``: a tag, for
    that sub-grid's piece of the block there, or the piece's colors."""
    sub_of = compile_decoder(cmap).sub_of
    return canonical(cid for i, p in enumerate(pieces)
                     for cid in ([c for c in encode(cmap, (p,)) if sub_of[c] == i]
                                 if isinstance(p, int) else p))


@pytest.mark.parametrize("params, pieces, step, crts", [
    # class 1: both pieces are non-aligned, r_i = 1, and only one sub-grid can be split
    (BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5)), (1, 38), "split-offset", []),
    # the same map: no window of generator 1 holds the colors 3, 4, 5
    (BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5)), (0, (3, 4, 5)),
     "generator-decode", []),
    # j_i mod g reads (0, 1, 0): no split has b*+1 before it and b* after it
    (BraidParams1D(M=36, parts=(1, 1, 1), g=2, c=(1, 1, 1), q=(2, 3, 1)), (0, 2, 0), "crt", []),
    # j_i mod g reads (0, 1): either split needs k = 2, past m_i/c_i = 1
    (BraidParams1D(M=12, parts=(1, 1), g=3, c=(1, 1), q=(1, 2)), (0, 2), "crt", []),
    # the a-residues (0, 1) disagree mod gcd(2, 4)
    (BraidParams1D(M=16, parts=(1, 1), g=2, c=(1, 1), q=(2, 4)), (0, 2), "crt", [None]),
], ids=["split-offset", "generator-decode", "no-split", "offset-out-of-range", "crt-inconsistent"])
def test_every_routing_failure_is_reached_from_decode(crt_calls, params, pieces, step, crts):
    cmap = construct(params)
    w = _mixed(cmap, pieces)
    with pytest.raises(NotACodeword) as info:
        decode(cmap, w)
    assert (info.value.step, crt_calls) == (step, crts)


def test_params_that_are_not_braid_params_are_rejected(m24):
    # g = 1, q = (4, 6) keeps the generators' ells and M = 24, so the grid fits
    # and the colors agree; but every j_i mod 1 reads 0, so the residues cannot
    # place the split sub-grid.
    doc = json.loads(to_json(m24))
    doc["params"].update(g=1, q=[4, 6])
    with pytest.raises(ValueError, match="not braid params: g must exceed 1, got 1; "):
        decode(from_json(json.dumps(doc)), encode(m24, (5,)))


def test_nd_maps_on_a_grid_other_than_their_period_are_rejected(fig_map):
    # The 24x24 params on a 48x24 grid: axis 0 repeats after 24 points, so tags
    # (0, 0) and (24, 0) share a codeword, which decoded to (0, 0) alone.
    long = ColorMap(GridSpec((48, 24)), fig_map.block, fig_map.colors * 2, fig_map.palette,
                    params={**fig_map.params, "kind": "extended-nd", "L": [48, 24]})
    assert encode(long, (0, 0)) == encode(long, (24, 0))
    with pytest.raises(ValueError, match=r"grid \(48, 24\) does not fit the params' period "
                                         r"M=\(24, 24\)"):
        decode(long, encode(long, (0, 0)))
    # A standard map lies on its period exactly.
    short = ColorMap(GridSpec((24, 12)), fig_map.block,
                     tuple(c for k, c in enumerate(fig_map.colors) if k % 24 < 12),
                     fig_map.palette, params=fig_map.params)
    with pytest.raises(ValueError, match=r"grid \(24, 12\) does not fit"):
        decode(short, encode(short, (0, 0)))


# ---------------------------------------------------------------------------
# decoding


def test_decode_standard_1d(m24):
    for t in range(24):
        res = decode_1d(m24, encode(m24, (t,)))
        assert res.tag == t


def test_decode_rejects_non_codeword(m24):
    with pytest.raises(NotACodeword):
        decode_1d(m24, (0, 1))  # two colors from the same sub-grid
    with pytest.raises(NotACodeword):
        decode_1d(m24, (0, 99))


def test_decode_mixed_class():
    params = BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1))
    cmap = construct(params)
    for t in range(75):
        assert decode_1d(cmap, encode(cmap, (t,))).tag == t


def test_decode_restricted(m24):
    r = restrict(m24, 19)
    for t in range(19):
        assert decode_1d_general(r, encode(r, (t,))).tag == t


def test_decode_modified(m24):
    for fresh in (False, True):
        shrunk = modify_general_size(m24, 20, fresh=fresh)
        for t in range(20):
            assert decode_1d_general(shrunk, encode(shrunk, (t,))).tag == t


def test_decode_nd_standard(fig_map):
    for x in coding_area(fig_map.grid, fig_map.block):
        res = decode_nd(fig_map, encode(fig_map, x))
        assert res.tag == x


@pytest.mark.parametrize("L", [(12, 24), (12, 20), (9, 12), (5, 7), (21, 10)])
def test_decode_nd_extended(fig_map, L):
    ext = extend_arbitrary_size(fig_map, L)
    for x in coding_area(ext.grid, ext.block):
        assert decode_nd(ext, encode(ext, x)).tag == x


def test_extension_to_the_full_size_decodes_like_the_standard_map(fig_map):
    ext = extend_arbitrary_size(fig_map, fig_map.grid.dims)
    assert ext.params["kind"] == "extended-nd" and ext.colors == fig_map.colors
    for x in coding_area(ext.grid, ext.block):
        assert decode_nd(ext, encode(ext, x)) == decode_nd(fig_map, encode(fig_map, x))


_MODIFY = functools.partial(modify_general_size, M_r=20)
_EXTEND = functools.partial(extend_arbitrary_size, L=(12, 20))


@pytest.mark.parametrize("call, base, edit", [
    (_MODIFY, "m24", lambda params: {"kind": "braid1d"}),
    (_MODIFY, "m24", lambda params: {"kind": "restricted", "base": [1], "M_r": 24}),
    (_MODIFY, "m24", lambda params: {**params, "gens": [{"ell": 6}] * 2}),
    (_EXTEND, "fig", lambda params: {"kind": "unitary-braid-nd"}),
    (_EXTEND, "fig", lambda params: {**params, "q": [1]}),
    (_EXTEND, "fig", lambda params: {**params, "m": 3}),
    (associated_matrix, "m24", lambda params: {**params, "gens": 3}),
], ids=["modify-no-fields", "modify-base-list", "modify-gens-no-m", "extend-no-fields",
        "extend-q-list", "extend-m-int", "associated-matrix-gens-int"])
def test_library_calls_refuse_malformed_params_as_a_decode_does(m24, fig_map, call, base, edit):
    # each raised KeyError, AttributeError or TypeError
    cmap = {"m24": m24, "fig": fig_map}[base]
    with pytest.raises(ValueError, match="malformed map params"):
        call(replace(cmap, params=edit(cmap.params)))


def test_malformed_params_raise_value_error(m24):
    bad = ColorMap(m24.grid, m24.block, m24.colors, m24.palette, params={**m24.params, "q": "ab"})
    with pytest.raises(ValueError, match="malformed map params") as info:
        compile_decoder(bad)
    assert isinstance(info.value.__cause__, TypeError)


@pytest.mark.parametrize("cut", [
    lambda m24, fig: m24,
    lambda m24, fig: restrict(m24, 19),
    lambda m24, fig: fig,
    lambda m24, fig: extend_arbitrary_size(fig, (12, 20)),
], ids=["braid1d", "restricted", "unitary-nd", "extended"])
def test_decoders_refuse_a_flat_grid(m24, fig_map, cut):
    # The decoders assume a cyclic grid: on a flat one, the 1D ones returned
    # tags whose block wraps past the end, and the n-D confirming encode raised.
    cmap = cut(m24, fig_map)
    flat = replace(cmap, grid=GridSpec(cmap.grid.dims, cyclic=False))
    with pytest.raises(ValueError, match="decoding requires a cyclic grid"):
        decode(flat, encode(flat, (0,) * flat.grid.n))
    if flat.grid.n == 1:
        with pytest.raises(ValueError, match="decoding requires a cyclic grid"):
            erasure_decode(flat, encode(flat, (0,))[:1])


def test_a_compiled_decoder_computes_no_gcd_or_inverse(m24, fig_map, monkeypatch):
    # The CRT plan is compiled with the decoder, so a decode only solves.
    maps = [m24, fig_map, extend_arbitrary_size(fig_map, (12, 20)),
            construct(BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5)))]
    words = [(cmap, encode(cmap, x)) for cmap in maps for x in coding_area(cmap.grid, cmap.block)]
    for cmap in maps:
        compile_decoder(cmap)

    def refused(*args):
        raise AssertionError(f"decode computed {args}")

    monkeypatch.setattr(codec, "pow", refused, raising=False)
    monkeypatch.setattr(codec.math, "gcd", refused)
    for cmap, w in words:
        decode(cmap, w)


def reference_axis_decode(self, proj) -> DecodeResult:
    """``_Axis.decode`` as it was before the routing step returned tuples,
    kept as its reference (the router's ``route`` is now ``router_route``,
    which gives one result or None, and the generic router on the axis's
    unitary rows is built here, as the axis routes in closed form): the
    routed result, then the axis's own."""
    axis = self.axis
    alphas = [None] * self.nu
    for J, f in proj:
        s = self.row[J]
        if alphas[s] is not None:
            raise NotACodeword("projection", f"axis {axis}: sub-grid {J} appears twice")
        alphas[s] = f
    if any(a is None for a in alphas):
        raise NotACodeword("projection", f"axis {axis}: missing sub-grid contribution")
    res = router_route(_Router(_unitary_rows(self.g, self.q)), alphas)
    if res is not None:
        j, off = divmod(res.tag, self.nu)
        r, rem = divmod(off, self.w_band)
        if rem == 0:
            return DecodeResult(j * self.m_axis + r, res.j_star, res.i_star, res.r_star,
                                res.a_star, res.b_star, res.a_vec, res.path)
    raise NotACodeword("crt", f"axis {axis}: no consistent routing")


def reference_factors_of(params):
    """Each color id's sub-grid J and factor tuple, from the palette layout."""
    return {offset + k: (J, f)
            for J, (offset, ells, _) in params.layout.items()
            for k, f in enumerate(itertools.product(*map(range, ells)))}


def reference_nd_route(self, factors_of, w):
    """``_UnitaryND.route`` as it was then, with a (J, factor) list per axis: one result."""
    try:
        facts = [factors_of[cid] for cid in w]
    except KeyError as e:
        raise NotACodeword("projection", f"color {e.args[0]} has no factor structure") from None
    diags = tuple(reference_axis_decode(ax, [(J, f[ax.axis]) for J, f in facts])
                  for ax in self.axes)
    return DecodeResultND(tuple(d.tag for d in diags), diags, "routing")


def _outcome(decode_fn, w):
    try:
        return decode_fn(w)
    except (NotACodeword, AmbiguousDecode) as e:
        return type(e), str(e)


def _reference_decider(cmap):
    """``codec._decide``'s view of the map's decoder, routing through ``reference_nd_route``."""
    dec = compile_decoder(cmap)
    return SimpleNamespace(table=dec.table, seams=dec.seams, cut=dec.cut,
                           seam_result=dec.seam_result,
                           route=functools.partial(reference_nd_route, dec,
                                                   reference_factors_of(read(cmap))))


@pytest.mark.parametrize("L", [(24, 24), (12, 24)])
def test_nd_decode_builds_the_results_of_the_per_axis_reference(fig_map, L):
    # Every tag's codeword decodes to a result equal field by field, per_axis
    # included; the codeword with one color moved to the next id fails the
    # same way or decodes the same.
    cmap = fig_map if L == fig_map.grid.dims else extend_arbitrary_size(fig_map, L)
    ref = _reference_decider(cmap)
    colors = max(cmap.colors) + 1
    for x in coding_area(cmap.grid, cmap.block):
        w = encode(cmap, x)
        got = decode(cmap, w)
        assert (got, got.tag) == (codec._decide(ref, w), x)
        assert all(isinstance(d, DecodeResult) for d in got.per_axis) or got.path == "seam"
        moved = canonical(w[1:] + ((w[0] + 1) % colors,))
        assert (_outcome(functools.partial(decode, cmap), moved)
                == _outcome(functools.partial(codec._decide, ref), moved)), (x, moved)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_nd_decode_of_random_params_builds_the_results_of_the_per_axis_reference(data):
    # Random unitary n-D params of at most 6,000 points, and one extension of
    # them: every tag's codeword, the codeword with one color moved to the
    # next id, and random multisets decode as the reference does, to results
    # equal field by field or to the same refusal type and text.
    n = data.draw(st.integers(1, 3), label="n")
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="m"))
    g = data.draw(st.integers(2, 4), label="g")
    # Q_i, the lcm of axis i's q column, is drawn first so the volume stays in bounds
    volume, divisors = 1, []
    for i in range(n):
        rest = math.prod(g * m_k for m_k in m[i + 1:])
        Q = data.draw(st.sampled_from([Q for Q in (1, 2, 3, 4, 6, 12)
                                       if volume * g * m[i] * Q * rest <= 6000]), label=f"Q{i}")
        volume *= g * m[i] * Q
        divisors.append([q for q in (1, 2, 3, 4) if Q % q == 0])
    qtable = {J: tuple(data.draw(st.sampled_from(divisors[i]), label=f"q{J}_{i}")
                       for i in range(n)) for J in GridSpec(m).points()}
    cmap = construct_unitary_nd(UnitaryBraidParamsND(m=m, g=g, qtable=qtable))
    L = tuple(data.draw(st.integers(2 * m_i, M_i), label=f"L{i}")
              for i, (m_i, M_i) in enumerate(zip(m, cmap.grid.dims)))
    for cut in (cmap, extend_arbitrary_size(cmap, L)):
        ref = _reference_decider(cut)
        colors = max(cut.colors) + 1
        ids = st.integers(0, colors)  # one unknown id
        words = []
        for x in coding_area(cut.grid, cut.block):
            w = encode(cut, x)
            words += [w, canonical(w[1:] + ((w[0] + 1) % colors,))]
        words += [canonical(data.draw(st.lists(ids, min_size=size, max_size=size), label="w"))
                  for size in [cut.block.volume] * 20 + [cut.block.volume + 1]]
        for w in words:
            assert (_outcome(functools.partial(decode, cut), w)
                    == _outcome(functools.partial(codec._decide, ref), w)), (cut.grid.dims, w)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_an_axis_routes_in_closed_form_as_the_generic_router_does(data):
    # Each axis routes its unitary rows without the generic router, and gives
    # what that router gives there: the same result tuple or the same refusal,
    # for the positions of a block of the band (valid, or split off a band
    # start) and for random positions; and the same refusal text when one
    # cell is duplicated over another, dropped or added (nu - 1 or nu + 1
    # cells, where no row but the count shows the fault).
    n = data.draw(st.integers(2, 3), label="n")
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="m"))
    q = st.lists(st.integers(1, 4), min_size=n, max_size=n).map(tuple)
    qtable = {J: data.draw(q, label=f"q{J}") for J in GridSpec(m).points()}
    params = UnitaryBraidParamsND(m=m, g=data.draw(st.integers(2, 4), label="g"), qtable=qtable)
    for axis in range(n):
        ax = codec._Axis(params, axis)
        rows = _unitary_rows(ax.g, ax.q)
        router = _Router(rows)
        assert not hasattr(ax, "router")
        J_of = {s: J for J, s in ax.row.items()}
        for _ in range(20):
            if data.draw(st.booleans(), label="block"):
                tag = data.draw(st.integers(0, rows.M - 1))
                alphas = _windows(rows, tag)
            else:
                alphas = tuple(data.draw(st.integers(0, ell - 1)) for ell in rows.ells)
            facts = [(J_of[s], (alpha,) * n) for s, alpha in enumerate(alphas)]
            faults = ["none", "duplicate", "drop", "add"] if ax.nu > 1 else ["none", "drop", "add"]
            fault = data.draw(st.sampled_from(faults))
            i, k = data.draw(st.lists(st.integers(0, ax.nu - 1), min_size=2, max_size=2,
                                      unique=ax.nu > 1))
            if fault == "duplicate":
                facts[i] = facts[k]
            elif fault == "drop":
                del facts[i]
            elif fault == "add":
                extra = data.draw(st.integers(0, rows.ells[ax.row[facts[k][0]]] - 1))
                facts.insert(i, (facts[k][0], (extra,) * n))
            proj = [(J, f[axis]) for J, f in facts]
            got = _outcome(ax.decode, [(ax.row[J], f[axis], f[axis] % ax.g) for J, f in facts])
            event("routed" if isinstance(got, DecodeResult) else f"refused, fault {fault}")
            assert got == _outcome(functools.partial(reference_axis_decode, ax), proj), alphas


def test_decode_nd_rejects_wrong_size(fig_map):
    with pytest.raises(NotACodeword):
        decode_nd(fig_map, (0, 1, 2))


def _unitary_1d(M, q):
    return construct(BraidParams1D(M=M, parts=(1,) * len(q), g=2, c=(1,) * len(q), q=q))


FIG_QTABLE = {(0, 0): (1, 3), (0, 1): (2, 1), (1, 0): (1, 2), (1, 1): (3, 1)}


def _fig():
    return construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=FIG_QTABLE))


# Fresh maps, one per kind and shape, so the first decode of each compiles.
ROUND_TRIP_MAPS = {
    "braid1d-24": (lambda: _unitary_1d(24, (2, 3)), decode_1d),
    "braid1d-36": (lambda: _unitary_1d(36, (2, 3, 1)), decode_1d),
    "braid1d-75-mixed": (
        lambda: construct(BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1))), decode_1d),
    "braid1d-75-class1": (
        lambda: construct(BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))), decode_1d),
    "restricted-19": (lambda: restrict(_unitary_1d(24, (2, 3)), 19), decode_1d_general),
    "restricted-7": (lambda: restrict(_unitary_1d(12, (1, 3)), 7), decode_1d_general),
    "modified-20": (lambda: modify_general_size(_unitary_1d(24, (2, 3)), 20), decode_1d_general),
    "modified-20-fresh": (
        lambda: modify_general_size(_unitary_1d(24, (2, 3)), 20, fresh=True), decode_1d_general),
    "modified-30": (lambda: modify_general_size(_unitary_1d(36, (2, 3, 1)), 30), decode_1d_general),
    "unitary-nd-24x24": (_fig, decode_nd),
    "extended-12x20": (lambda: extend_arbitrary_size(_fig(), (12, 20)), decode_nd),
    "extended-21x10": (lambda: extend_arbitrary_size(_fig(), (21, 10)), decode_nd),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_MAPS))
def test_round_trip_every_tag_compiles_once(name):
    build, decoder = ROUND_TRIP_MAPS[name]
    cmap = build()
    text = to_json(cmap)
    assert "_decoder" not in vars(cmap)
    for x in coding_area(cmap.grid, cmap.block):
        expect = x if len(x) > 1 else x[0]
        w = encode(cmap, x)
        assert decoder(cmap, w).tag == expect  # the first call compiles
        assert decode(cmap, w).tag == expect  # later calls use the kept decoder
    assert compile_decoder(cmap) is compile_decoder(cmap)
    # the kept decoder is invisible to equality and serialization
    assert to_json(cmap) == text
    assert from_json(text) == cmap == build()


def test_non_standard_decode_never_rebuilds_the_base_map(m24, monkeypatch):
    maps = [restrict(m24, 19), modify_general_size(m24, 20),
            modify_general_size(m24, 20, fresh=True)]

    def no_construct(*args, **kwargs):
        raise AssertionError("decode rebuilt the base map")

    monkeypatch.setattr(braid1d, "construct", no_construct)
    for cmap in maps:
        for t in range(cmap.grid.dims[0]):
            assert decode_1d_general(cmap, encode(cmap, (t,))).tag == t


def test_decoders_reject_other_map_kinds(m24, fig_map):
    with pytest.raises(ValueError, match="not a 1D braid map"):
        decode_1d(restrict(m24, 19), encode(m24, (0,)))
    with pytest.raises(ValueError, match="not an n-dim"):
        decode_nd(m24, encode(m24, (0,)))
    with pytest.raises(ValueError, match="not a 1D braid map"):
        decode_1d_general(fig_map, encode(fig_map, (0, 0)))


def test_decoders_ignore_the_palette(m24, fig_map):
    # Decoders read the params and the colors: a palette entry that lies
    # about a color's sub-grid or factors changes no decode.
    for cmap, lie in [(m24, {"subgrid": (1,)}), (fig_map, {"factors": (1, 1)})]:
        palette = tuple(replace(e, **lie) if e.id == 0 else e for e in cmap.palette)
        lying = ColorMap(grid=cmap.grid, block=cmap.block, colors=cmap.colors,
                         palette=palette, params=cmap.params)
        assert lying.palette != cmap.palette
        for x in coding_area(cmap.grid, cmap.block):
            w = encode(cmap, x)
            assert decode(lying, w) == decode(cmap, w)


@functools.lru_cache(maxsize=None)
def _fig_recut(L):
    return _fig() if L == (24, 24) else extend_arbitrary_size(_fig(), L)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_decode_of_any_multiset_is_a_tag_that_encodes_to_it(data):
    # No decode calls encode, so this checks the n-D decoder's answers:
    # whatever the multiset, it names only tags whose block holds exactly it.
    # 12x20 has a fresh band on both axes, 21x10 on one, 13x11 on neither.
    cmap = _fig_recut(data.draw(st.sampled_from([(24, 24), (12, 20), (21, 10), (13, 11)]),
                                label="dims"))
    dims, m = cmap.grid.dims, cmap.block.dims
    tag = st.tuples(*(st.integers(0, L - 1) for L in dims))
    x = data.draw(tag, label="tag")
    ids = st.integers(0, max(cmap.colors) + 1)  # one unknown id
    w = list(encode(cmap, x))
    kind = data.draw(st.sampled_from(["substitute", "other sub-grid", "random", "size"]),
                     label="kind")
    if kind == "substitute":
        w[data.draw(st.integers(0, len(w) - 1), label="at")] = data.draw(ids, label="id")
    elif kind == "other sub-grid":
        # the color sub-grid J has in the block of another tag y
        y = data.draw(tag, label="y")
        J = data.draw(st.tuples(*(st.integers(0, m_i - 1) for m_i in m)), label="J")
        def at(t):
            p = tuple((t_i + (J_i - t_i) % m_i) % L for t_i, J_i, m_i, L in zip(t, J, m, dims))
            return cmap.color_at(p)
        w.remove(at(x))
        w.append(at(y))
    elif kind == "random":
        w = data.draw(st.lists(ids, min_size=len(w), max_size=len(w)), label="multiset")
    else:
        w = w[:-1] if data.draw(st.booleans(), label="drop") else w + [data.draw(ids, label="id")]
    w = canonical(w)
    try:
        assert encode(cmap, decode(cmap, w).tag) == w
    except NotACodeword:
        pass
    except AmbiguousDecode as err:
        assert all(encode(cmap, t) == w for t in err.tags)


def test_ambiguous_decode_names_the_clashing_tags(fig_map):
    # The smallest re-cut of the 24x24 map the oracle finds not distinguishable:
    # 7x5 is a plain restriction along both axes, and tags (0,4), (4,4) collide.
    cut = extend_arbitrary_size(fig_map, (7, 5))
    report = is_distinguishable(cut)
    assert not report.ok and report.counterexample[:2] == ((0, 4), (4, 4))
    w = report.counterexample[2]
    with pytest.raises(AmbiguousDecode) as err:
        decode_nd(cut, w)
    assert set(err.value.tags) == {(0, 4), (4, 4)}


def codeword_tags(cmap):
    """Codeword -> every tag carrying it, by encoding each tag."""
    tags = {}
    for x in coding_area(cmap.grid, cmap.block):
        tags.setdefault(encode(cmap, x), []).append(x if len(x) > 1 else x[0])
    return tags


def assert_decodes_like_encode(cmap):
    """One tag: decode returns it.  Several: AmbiguousDecode names them all."""
    for w, tags in codeword_tags(cmap).items():
        if len(tags) == 1:
            assert decode(cmap, w).tag == tags[0], (cmap.params["kind"], cmap.grid.dims, w)
        else:
            with pytest.raises(AmbiguousDecode) as err:
                decode(cmap, w)
            assert err.value.tags == tuple(sorted(tags)), (cmap.grid.dims, w)


def cuts_1d(M, q):
    """Every restriction and every feasible modification, plain and fresh,
    and every restriction of those modifications and of one restriction."""
    base = _unitary_1d(M, q)
    m = len(q)
    yield from (restrict(base, M_r) for M_r in range(m + 1, M))
    longest = restrict(base, M - 1)
    yield from (restrict(longest, M_r) for M_r in range(m + 1, M - 1))
    for M_r in range(2 * m, M, m):
        for fresh in (False, True):
            try:
                cut = modify_general_size(base, M_r, fresh=fresh)
            except InfeasibleError:
                continue
            yield cut
            yield from (restrict(cut, L) for L in range(m + 1, M_r))


@pytest.mark.parametrize("M,q", [(12, (1, 3)), (24, (2, 3)), (36, (2, 3, 1)), (60, (3, 5)),
                                 (84, (3, 7))])
def test_every_cut_of_a_unitary_map_decodes_like_encode(M, q):
    # covers modified maps with shift 1 and restrictions that are not distinguishable
    for cmap in cuts_1d(M, q):
        assert_decodes_like_encode(cmap)


@pytest.mark.parametrize("axis", [0, 1])
def test_every_one_axis_recut_of_the_fixture_map_decodes_like_encode(fig_map, axis):
    # the re-cuts with L odd are plain restrictions, and some share codewords
    for L in range(4, 25):
        dims = [24, 24]
        dims[axis] = L
        assert_decodes_like_encode(extend_arbitrary_size(fig_map, tuple(dims)))


@pytest.mark.parametrize("cut, seam_tags, seams", [
    (lambda m24, fig: restrict(m24, 19), [(18,)], (18,)),
    (lambda m24, fig: modify_general_size(m24, 20), [(18,), (19,)], (18,)),
    (lambda m24, fig: extend_arbitrary_size(fig, (12, 21)), None, (9, 18)),
    # the modification's tail is cut off: 15 proven points, seam 15 - 2 + 1
    (lambda m24, fig: restrict(modify_general_size(m24, 20), 15), [(14,)], (14,)),
], ids=["restricted", "modified", "extended", "restricted-modified"])
def test_seam_table_holds_the_encoded_blocks_past_the_seam(m24, fig_map, cut, seam_tags, seams):
    cmap = cut(m24, fig_map)
    table = compile_decoder(cmap).table
    assert compile_decoder(cmap).seams == seams
    if seam_tags is None:  # the tags with x_0 >= 12 - 4 + 1 or x_1 >= 21 - 4 + 1
        seam_tags = [x for x in coding_area(cmap.grid, cmap.block) if x[0] >= 9 or x[1] >= 18]
        assert len(seam_tags) == 3 * 21 + 12 * 3 - 3 * 3
    expect = {}
    for x in seam_tags:
        expect.setdefault(encode(cmap, x), []).append(x)
    assert {w: sorted(tags) for w, tags in table.items()} == expect
    for std, none in [(m24, (None,)), (fig_map, (None, None))]:  # a standard map has no seam
        assert (compile_decoder(std).seams, compile_decoder(std).table) == (none, {})


@functools.lru_cache(maxsize=None)
def _built_1d(params):
    return construct(params)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_a_decoder_compiled_from_params_alone_routes_every_tag_home(data):
    # the decoder classes take the params reader's value and no map; the map only encodes.
    # A codeword routes to the one tag that carries it: validate refuses the params whose
    # map is not distinguishable (M=12, parts (2, 2), g=3, c=(1, 1): tags 1 and 7 collide).
    if data.draw(st.booleans(), label="1D"):
        parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="parts"))
        choices = list(enumerate_params(sum(parts) * data.draw(st.integers(2, 12), label="N"), parts))
        assume(choices)
        cmap = _built_1d(data.draw(st.sampled_from(choices), label="params"))
        dec = codec._Braid(params_of(cmap))
    else:
        m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2), label="m"))
        q = st.lists(st.integers(1, 3), min_size=len(m), max_size=len(m)).map(tuple)
        qtable = {J: data.draw(q, label=f"q{J}") for J in GridSpec(m).points()}
        params = UnitaryBraidParamsND(m=m, g=data.draw(st.integers(2, 3), label="g"), qtable=qtable)
        cmap = construct_unitary_nd(params)
        dec = codec._UnitaryND(params_of_nd(cmap))
    event(type(dec).__name__)
    carriers = {}
    for x in coding_area(cmap.grid, cmap.block):  # an n-D tag is a tuple on one axis too
        carriers.setdefault(encode(cmap, x), []).append(x[0] if isinstance(dec, codec._Braid) else x)
    for w, tags in carriers.items():
        assert [dec.route(w).tag] == tags


def test_decode_reports_its_path(m24, fig_map):
    r = restrict(m24, 19)
    assert decode(m24, encode(m24, (18,))).path == "routing"
    assert decode(r, encode(r, (3,))).path == "routing"
    seam = decode(r, encode(r, (18,)))
    assert (seam.tag, seam.path) == (18, "seam")
    assert decode(fig_map, encode(fig_map, (23, 23))).path == "routing"
    ext = extend_arbitrary_size(fig_map, (12, 20))
    res = decode(ext, encode(ext, (2, 3)))
    assert (res.path, [d.tag for d in res.per_axis]) == ("routing", [2, 3])
    res = decode(ext, encode(ext, (11, 3)))
    assert (res.tag, res.path, res.per_axis) == ((11, 3), "seam", (None, None))


# ---------------------------------------------------------------------------
# erasure location


def spread_sweep(cmap, m, e):
    worst = 0
    (Mr,) = cmap.grid.dims
    for t in range(Mr):
        w = encode(cmap, (t,))
        for sub in itertools.combinations(w, m - e):
            res = erasure_decode(cmap, sub)
            assert t in res.candidates
            worst = max(worst, res.resolution)
    return worst


@pytest.mark.parametrize(
    "m,g,q,M_r,e",
    [
        (2, 2, (9, 12), 36, 1),
        (2, 3, (2, 5), 12, 1),
        (3, 2, (2, 3, 5), 36, 1),
        (3, 2, (2, 3, 5), 12, 2),
    ],
)
def test_erasure_resolution_within_bound(m, g, q, M_r, e):
    assert M_r <= g * m * qhat(q, m - e)
    M = m * g * math.lcm(*q)
    cmap = construct(BraidParams1D(M=M, parts=(1,) * m, g=g, c=(1,) * m, q=q))
    sized = restrict(cmap, M_r) if M_r < M else cmap
    assert spread_sweep(sized, m, e) <= e


def test_erasure_oversized_grid_loses_resolution():
    cmap = construct(BraidParams1D(M=144, parts=(1, 1), g=2, c=(1, 1), q=(9, 12)))
    assert spread_sweep(cmap, 2, 1) == 72


def test_erasure_non_coprime_q_known_gap():
    """Regression pin: with q=(2,3,4) the size bound g*m*qhat is met but two
    survivors can still fit tags half a grid apart (lcm < product)."""
    cmap = construct(BraidParams1D(M=72, parts=(1, 1, 1), g=2, c=(1, 1, 1), q=(2, 3, 4)))
    sized = restrict(cmap, 36)
    res = erasure_decode(sized, (0, 10))
    assert res.candidates == (0, 24)
    assert res.resolution == 12


def reference_erasure(cmap, partial):
    """Every tag whose codeword holds the multiset ``partial``, by brute force."""
    need = Counter(partial)
    return tuple(t for t in range(cmap.grid.dims[0]) if not need - Counter(encode(cmap, (t,))))


def erasure_or_nothing(cmap, partial):
    try:
        return erasure_decode(cmap, partial).candidates
    except NotACodeword:
        return ()


def test_erasure_matches_brute_force_on_every_restriction_of_the_fixture_map(m24):
    ids = [e.id for e in m24.palette] + [len(m24.palette)]  # one unknown id
    multisets = [w for k in (1, 2) for w in itertools.combinations_with_replacement(ids, k)]
    for M_r in range(3, 25):
        cuts = [m24] if M_r == 24 else [restrict(m24, M_r)]
        # and of restrictions of it, through a middle length of each parity
        cuts += [restrict(restrict(m24, L), M_r) for L in (22, 23) if M_r < L]
        for cmap in cuts:
            for w in multisets:
                assert erasure_or_nothing(cmap, w) == reference_erasure(cmap, w), (M_r, w)


@functools.lru_cache(maxsize=None)
def unitary_map(g, q):
    m = len(q)
    return construct(BraidParams1D(M=m * g * math.lcm(*q), parts=(1,) * m, g=g, c=(1,) * m, q=q))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_erasure_matches_brute_force(data):
    m = data.draw(st.integers(2, 3), label="m")
    g = data.draw(st.integers(2, 3), label="g")
    q = tuple(data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m), label="q"))
    base = unitary_map(g, q)
    (M,) = base.grid.dims
    M_r = data.draw(st.integers(m + 1, M), label="M_r")  # M: the map itself
    cmap = base if M_r == M else restrict(base, M_r)
    if data.draw(st.booleans(), label="survivors of a block"):
        w = encode(cmap, (data.draw(st.integers(0, M_r - 1), label="tag"),))
        partial = data.draw(st.lists(st.sampled_from(range(m)), min_size=1, max_size=m,
                                     unique=True), label="kept")
        partial = [w[k] for k in partial]
    else:
        ids = [e.id for e in cmap.palette] + [len(cmap.palette)]  # one unknown id
        partial = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=m),
                            label="multiset")
    assert erasure_or_nothing(cmap, partial) == reference_erasure(cmap, partial)


def test_erasure_of_a_palette_color_no_point_carries(m24):
    unused = PaletteEntry(id=10, subgrid=(0,), factors=None, label="c_10")
    cmap = ColorMap(grid=m24.grid, block=m24.block, colors=m24.colors,
                    palette=m24.palette + (unused,), params=m24.params)
    # no generator uses the color, so the decoder does not know it
    with pytest.raises(NotACodeword, match="palette-split"):
        erasure_decode(cmap, (10,))


@pytest.mark.parametrize("build, partial, error", [
    (lambda m24: construct(BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1))), (0,),
     "requires a unitary map"),
    (lambda m24: modify_general_size(m24, 20), (0,), "requires a unitary braid map or restriction"),
    # m = 2 on the 24-point map: no survivor, or more colors than a block holds
    (lambda m24: m24, (), "size out of range"),
    (lambda m24: m24, (0, 2, 3), "size out of range"),
], ids=["mixed-class", "modified", "no-survivor", "more-than-m"])
def test_erasure_decode_refuses(m24, build, partial, error):
    with pytest.raises(ValueError, match=error):
        erasure_decode(build(m24), partial)


def _with_colors(cmap, colors):
    return ColorMap(grid=cmap.grid, block=cmap.block, colors=tuple(colors),
                    palette=cmap.palette, params=cmap.params)


def test_maps_whose_generators_contradict_their_colors_are_rejected(m24, fig_map):
    doc = json.loads(to_json(m24))
    doc["params"]["gens"][0]["colors"].reverse()
    reversed_gen = from_json(json.dumps(doc))
    w = encode(m24, (3,))
    assert decode_1d(m24, w).tag == 3
    with pytest.raises(ValueError, match="contradicts its generators: point 0 "):
        decode_1d(reversed_gen, w)  # used to decode to tag 2
    cut = restrict(m24, 19)
    colors = list(cut.colors)
    colors[5] = colors[7]
    with pytest.raises(ValueError, match="point 5 "):
        decode_1d_general(_with_colors(cut, colors), encode(cut, (0,)))
    # A modified map may differ from its base only in its last m-1 points.
    mod = modify_general_size(m24, 20)
    colors = list(mod.colors)
    colors[18] = colors[16]
    with pytest.raises(ValueError, match="point 18 "):
        decode_1d_general(_with_colors(mod, colors), encode(mod, (0,)))
    # An n-D map is checked against its params, but for the last m_i points
    # of each shortened axis, where an extension's fresh band lies.
    colors = list(fig_map.colors)
    colors[0] = 12
    with pytest.raises(ValueError, match=r"contradicts its params: point \(0, 0\) has color 12, "
                                         r"they give 0"):
        decode_nd(_with_colors(fig_map, colors), encode(fig_map, (5, 5)))
    ext = extend_arbitrary_size(fig_map, (12, 20))
    before, inside = ext.grid.index((9, 17)), ext.grid.index((10, 3))
    colors = list(ext.colors)
    colors[before] = colors[before + 1]
    with pytest.raises(ValueError, match=r"point \(9, 17\) "):
        decode_nd(_with_colors(ext, colors), encode(ext, (0, 0)))
    colors = list(ext.colors)
    colors[inside] = colors[inside + 2]
    assert_decodes_like_encode(_with_colors(ext, colors))  # the seam table reads the tail



def reference_check_colors(cmap, window):
    """The 1D proof ``params_of`` makes, as it was before it tiled one
    generator period per residue class: every point compared in a Python
    loop, against the params and window read from the map before it was
    recolored."""
    params, gens, shift, tail = window.params, window.gens, window.shift, window.tail
    m = params.m
    if len(gens) != params.I:
        raise ValueError(f"map lists {len(gens)} generators for {params.I} sub-grids")
    if cmap.block.dims != (m,):
        raise ValueError(f"block {cmap.block.dims} does not match the generators' {(m,)}")
    n = len(cmap.colors) - tail
    bad = []
    for i, (colors, d, m_i, ell) in enumerate(
        zip(gens, itertools.accumulate(params.parts, initial=0), params.parts, params.ells)
    ):
        if len(colors) != ell:
            raise ValueError(f"generator {i} does not have period ell={ell} and block m={m_i}")
        for r in range(m_i):
            x0 = (d + r - shift) % m
            j0 = (x0 + shift) // m
            want = [colors[((j0 + k) * m_i + r) % ell] for k in range(len(range(x0, n, m)))]
            got = itertools.islice(cmap.colors, x0, n, m)
            k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
            if k is not None:
                bad.append((x0 + k * m, want[k]))
    if bad:
        x, expected = min(bad)
        raise ValueError(
            f"map contradicts its generators: point {x} has color {cmap.colors[x]}, "
            f"they give {expected}"
        )


def _check_outcome(check, *args):
    """The message ``check(*args)`` raises, or None when it passes."""
    try:
        check(*args)
    except ValueError as e:
        return str(e)
    return None


def _both_outcomes(cmap, base):
    """What ``params_of`` raises on ``cmap``, and what the reference loop
    raises on it with the params of ``base``, the map before it was
    recolored: ``params_of`` of ``cmap`` would raise before any check ran."""
    return (_check_outcome(params_of, cmap),
            _check_outcome(reference_check_colors, cmap, params_of(base)))


_MIXED_36 = BraidParams1D(M=36, parts=(2, 2), g=3, c=(2, 1), q=(1, 3))  # c_0 = m_0, c_1 = 1

# 1D maps of at most 84 points: standard maps of each class, restrictions,
# modifications (shift 0 and 1, fresh or not) and cuts of cuts.
CHECK_MAPS = {
    "u24": lambda: _unitary_1d(24, (2, 3)),
    "u84": lambda: _unitary_1d(84, (3, 7)),
    "u36-three": lambda: _unitary_1d(36, (2, 3, 1)),
    "mixed-36": lambda: construct(_MIXED_36),
    "class1-75": lambda: construct(BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))),
    "class2-75": lambda: construct(BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1))),
    "r-u24-19": lambda: restrict(_unitary_1d(24, (2, 3)), 19),
    "r-mixed-29": lambda: restrict(construct(_MIXED_36), 29),
    "r-class2-71": lambda: restrict(construct(
        BraidParams1D(M=75, parts=(2, 3), g=5, c=(1, 1), q=(3, 1))), 71),
    "mod-u24-20": lambda: modify_general_size(_unitary_1d(24, (2, 3)), 20),
    "mod-u84-80-fresh": lambda: modify_general_size(_unitary_1d(84, (3, 7)), 80, fresh=True),
    "mod-u36-30": lambda: modify_general_size(_unitary_1d(36, (2, 3, 1)), 30),
    "mod-u24-18-shift": lambda: modify_general_size(_unitary_1d(24, (2, 3)), 18),
    "mod-u36-27-shift": lambda: modify_general_size(_unitary_1d(36, (2, 3, 1)), 27),
    "r-mod-u84-62-shift-51": lambda: restrict(modify_general_size(_unitary_1d(84, (3, 7)), 62), 51),
    "r-mod-u24-15": lambda: restrict(modify_general_size(_unitary_1d(24, (2, 3)), 20), 15),
    "r-r-u24-17": lambda: restrict(restrict(_unitary_1d(24, (2, 3)), 23), 17),
    "r-mod-u36-25": lambda: restrict(modify_general_size(_unitary_1d(36, (2, 3, 1)), 30), 25),
}


@functools.lru_cache(maxsize=None)
def _check_map(name):
    return CHECK_MAPS[name]()


def _recolored(data, cmap, points):
    ids = sorted(e.id for e in cmap.palette)
    colors = list(cmap.colors)
    for _ in range(points):
        colors[data.draw(st.integers(0, len(colors) - 1))] = data.draw(st.sampled_from(ids))
    return _with_colors(cmap, colors)


def test_check_maps_pass_both_checks_unchanged():
    for name in CHECK_MAPS:
        cmap = _check_map(name)
        assert _both_outcomes(cmap, cmap) == (None, None), name
    assert _check_map("mixed-36").params["c"] == [2, 1]
    window = params_of(_check_map("mod-u36-27-shift"))
    assert (window.shift, window.tail) == (1, 2)  # shift 1, tail m - 1
    assert params_of(_check_map("r-mod-u84-62-shift-51")).shift == 1


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_check_colors_names_the_point_the_per_point_loop_names(data):
    base = _check_map(data.draw(st.sampled_from(sorted(CHECK_MAPS))))
    proof, reference = _both_outcomes(_recolored(data, base, 1), base)
    event("contradicts" if proof else "agrees")
    assert proof == reference


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_check_colors_with_two_recolored_points_names_the_first(data):
    base = _check_map("mod-u36-27-shift")
    proof, reference = _both_outcomes(_recolored(data, base, 2), base)
    event("contradicts" if proof else "agrees")
    assert proof == reference


def reference_check_nd(cmap, params):
    """The n-D proof ``params_of_nd`` makes, point by point: every point but
    those in the last m_i of a shortened axis must carry the color of the
    same point of the standard map, built in full."""
    if cmap.block.dims != params.m:
        raise ValueError(f"block {cmap.block.dims} does not match the generators' {params.m}")
    std = construct_unitary_nd(params)
    for k, x in enumerate(cmap.grid.points()):
        if all(x_i < L - m_i or L == M for x_i, L, M, m_i
               in zip(x, cmap.grid.dims, params.dims, params.m)):
            if cmap.colors[k] != std.color_at(x):
                raise ValueError(f"map contradicts its params: point {x} has color "
                                 f"{cmap.colors[k]}, they give {std.color_at(x)}")


_QTABLE_12 = {(0, 0): (1, 3), (0, 1): (3, 1), (1, 0): (3, 1), (1, 1): (1, 3)}  # a 12x12 map

# n-D maps: standard, an extension with fresh bands on both axes, and cuts
# of one axis, with and without a fresh band.
CHECK_MAPS_ND = {
    "fig-24": _fig,
    "std-12": lambda: construct_unitary_nd(UnitaryBraidParamsND(m=(2, 2), g=2, qtable=_QTABLE_12)),
    "ext-12-20": lambda: extend_arbitrary_size(_fig(), (12, 20)),
    "ext-13-24": lambda: extend_arbitrary_size(_fig(), (13, 24)),
    "ext-24-10": lambda: extend_arbitrary_size(_fig(), (24, 10)),
    "ext-12-24": lambda: extend_arbitrary_size(_fig(), (12, 24)),
    "line-24-19": lambda: extend_arbitrary_size(construct_unitary_nd(
        UnitaryBraidParamsND(m=(2,), g=2, qtable={(0,): (2,), (1,): (3,)})), (19,)),
}


@functools.lru_cache(maxsize=None)
def _check_map_nd(name):
    return CHECK_MAPS_ND[name]()


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_nd_proof_names_the_point_the_per_point_loop_names(data):
    base = _check_map_nd(data.draw(st.sampled_from(sorted(CHECK_MAPS_ND))))
    cmap = _recolored(data, base, data.draw(st.integers(0, 2)))
    proof = _check_outcome(params_of_nd, cmap)
    event("contradicts" if proof else "agrees")
    assert proof == _check_outcome(reference_check_nd, cmap, params_of_nd(base))


def _m24_with_colors_4_5_of_0_1(m24):
    colors = list(m24.colors)
    colors[4:6] = colors[0:2]
    return _with_colors(m24, colors)


def test_restrict_guarantees_nothing_of_a_map_that_contradicts_its_generators(m24):
    # the parent wrote "guaranteed": true, and tags (0,) and (4,) share (0, 4)
    bad = _m24_with_colors_4_5_of_0_1(m24)
    cut = restrict(bad, 19)
    assert cut.params["guaranteed"] is False
    assert is_distinguishable(cut).counterexample == ((0,), (4,), (0, 4))
    assert restrict(m24, 19).params["guaranteed"] is True


def test_associated_matrix_refuses_a_map_that_contradicts_its_generators(m24):
    with pytest.raises(ValueError, match="^map contradicts its generators: point 4 has color 0, "
                                         "they give 2$"):
        associated_matrix(_m24_with_colors_4_5_of_0_1(m24))


def _m24_with_generator(m24, i, colors):
    """m24 with generator i's colors replaced, and the map's colors rebuilt to match."""
    return with_generators(m24, [list(colors) if k == i else gen["colors"]
                                 for k, gen in enumerate(m24.params["gens"])])


NOT_DISTINGUISHABLE = ("^generator 0 is not 1-distinguishable: two of its 4 windows share a "
                       "sub-codeword$")


@pytest.mark.parametrize("call", [
    params_of,
    lambda cmap: modify_general_size(cmap, 20),
    associated_matrix,
    lambda cmap: decode(cmap, (0, 4)),
], ids=["params_of", "modify", "associated-matrix", "decode"])
def test_every_reader_refuses_a_generator_that_is_not_distinguishable(m24, call):
    # the map obeys its generators, so only the generator check refuses it; without
    # it, the map was cut into a 20-point map that no decode reads, and given a matrix
    bad = _m24_with_generator(m24, 0, [0, 1, 0, 1])
    with pytest.raises(ValueError, match=NOT_DISTINGUISHABLE):
        call(bad)


def test_restrict_guarantees_nothing_of_a_map_whose_generator_is_not_distinguishable(m24):
    # without the generator check the cut said "guaranteed": true, yet it collides
    cut = restrict(_m24_with_generator(m24, 0, [0, 1, 0, 1]), 19)
    assert cut.params["guaranteed"] is False
    assert not is_distinguishable(cut).ok


def _m24_sharing_ids(m24):
    """m24 with generator 1 on generator 0's ids 0..5: each generator is distinguishable
    and the map obeys them, but tags 7 and 13 share the codeword 0,3."""
    bad = _m24_with_generator(m24, 1, range(6))
    assert encode(bad, (7,)) == encode(bad, (13,)) == (0, 3)
    return bad


@pytest.mark.parametrize("call", [
    params_of,
    lambda cmap: modify_general_size(cmap, 20),
    associated_matrix,
    lambda cmap: decode(cmap, encode(cmap, (3,))),
    lambda cmap: erasure_decode(cmap, (0,)),
], ids=["params_of", "modify", "associated-matrix", "decode", "erasure-decode"])
def test_every_reader_refuses_generators_that_share_a_color_id(m24, call):
    # without the check every decode failed on the palette split, the erasure decode
    # named 4 of the 9 tags holding color 0, and the map was cut into a colliding one
    bad = _m24_sharing_ids(m24)
    with pytest.raises(ValueError, match="^generators 0 and 1 share color id 0$"):
        call(bad)


def test_restrict_guarantees_nothing_of_generators_that_share_a_color_id(m24):
    cut = restrict(_m24_sharing_ids(m24), 19)
    assert cut.params["guaranteed"] is False
    assert not is_distinguishable(cut).ok


def test_extension_refuses_a_map_that_contradicts_its_params():
    # the parent rebuilt the map from the params: color 12 at (0, 5), where the source has 13
    std = _check_map_nd("std-12")
    colors = list(std.colors)
    colors[5] = colors[7]
    bad = _with_colors(std, colors)
    message = "^map contradicts its params: point \\(0, 5\\) has color 13, they give 12$"
    with pytest.raises(ValueError, match=message):
        decode(bad, encode(bad, (0, 0)))
    with pytest.raises(ValueError, match=message):
        extend_arbitrary_size(bad, (8, 10))
