"""1D braid maps: parameter validity, construction, optimization, resizing."""

import functools
import hashlib
import itertools
import math

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from braidcode import encode, to_json
from braidcode.braid1d import (
    BraidParams1D,
    InfeasibleError,
    construct,
    enumerate_params,
    modify_general_size,
    optimize_generators,
    params_of,
    restrict,
    validate,
)
from braidcode.core import ColorMap, GridSpec, replace
from braidcode.generators import find_generator, identity_generator
from braidcode.oracle import count_colors, is_distinguishable
from braidcode.sunmao import Decomposition1D, synthesize


def test_params_derived_quantities():
    p = BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))
    assert p.m == 2 and p.I == 2
    assert p.ells == (4, 6)
    assert p.Q == 6
    assert p.klass == "1" and p.unitary


def test_params_classes():
    p1 = BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))
    assert p1.klass == "1" and not p1.unitary
    p2 = BraidParams1D(M=75, parts=(2, 3), g=3, c=(1, 3), q=(1, 5))
    assert p2.klass == "mixed"


def test_validate_flags_bad_params():
    assert validate(BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))) == []
    # g*c_i must exceed m_i
    assert validate(BraidParams1D(M=24, parts=(2, 2), g=1, c=(2, 2), q=(2, 3)))
    # M must equal m*g*lcm(q)
    assert validate(BraidParams1D(M=30, parts=(1, 1), g=2, c=(1, 1), q=(2, 3)))
    # gcd(m_i/c_i, g*q_i) must be 1
    assert validate(BraidParams1D(M=48, parts=(2, 2), g=2, c=(1, 1), q=(2, 3)))


def test_validate_names_a_missing_or_non_positive_part():
    empty = BraidParams1D(M=24, parts=(), g=2, c=(), q=())
    assert validate(empty) == ["at least one part required"]
    assert validate(BraidParams1D(M=24, parts=(0, 1), g=2, c=(1, 1), q=(2, 3))) == [
        "part 0: all of m_i, c_i, q_i must be positive"
    ]


def test_enumerate_params_satisfy_validate():
    for params in enumerate_params(75, (2, 3)):
        assert validate(params) == []
        assert params.M == params.m * params.g * params.Q


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("klass", ["1", "2", "auto"])
@pytest.mark.parametrize("parts", [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 2)])
def test_enumerate_params_yields_exactly_the_valid_params(parts, klass):
    # Brute force over M < 200: M = m*g*lcm(q) needs g | M/m and q_i | M/(m*g),
    # and c_i runs over 1..m_i; keep what validate and the class filter accept.
    m = sum(parts)
    wanted_c = {"1": lambda c: c == parts, "2": lambda c: set(c) == {1}, "auto": lambda c: True}
    for M in range(1, 200):
        if M % m:
            with pytest.raises(InfeasibleError):
                list(enumerate_params(M, parts, klass))
            continue
        N = M // m
        want = set()
        for g in _divisors(N)[1:]:
            for q in itertools.product(_divisors(N // g), repeat=len(parts)):
                for c in itertools.product(*(range(1, m_i + 1) for m_i in parts)):
                    params = BraidParams1D(M=M, parts=parts, g=g, c=c, q=q)
                    if not validate(params) and wanted_c[klass](c):
                        want.add((g, c, q))
        got = [(p.g, p.c, p.q) for p in enumerate_params(M, parts, klass)]
        assert len(got) == len(set(got)) and set(got) == want, M


@pytest.mark.parametrize("M", [12, 24, 36, 60])
@pytest.mark.parametrize("parts", [(1, 1), (2,), (1, 2), (2, 3)])
def test_every_enumerated_parameterization_constructs_distinguishable(M, parts):
    """The construction theorem: every valid (g, c, q) yields a distinguishable map.

    Identity generators keep the sweep fast; any distinguishable seed works.
    """
    if M % sum(parts):
        pytest.skip("block size must divide M")
    from braidcode.generators import identity_generator

    for params in enumerate_params(M, parts):
        gens = [identity_generator(ell, m_i) for ell, m_i in zip(params.ells, params.parts)]
        cmap = construct(params, gens=gens)
        assert is_distinguishable(cmap).ok, params


def reference_construct(params, gens):
    """The sunmao step itself: each generator tiled around its sub-grid as a
    sub-map, pieced together by ``synthesize`` through the theta isomorphisms."""
    dec = Decomposition1D(params.M, params.parts)
    submaps, offset = [], 0
    for i, (gen, M_i) in enumerate(zip(gens, dec.subgrid_sizes)):
        period = gen.to_colormap(id_offset=offset, subgrid=(i,))
        submaps.append(ColorMap(GridSpec((M_i,)), period.block,
                                period.colors * (M_i // gen.ell), period.palette))
        offset += max(gen.colors) + 1
    return synthesize(dec, submaps)


@functools.cache
def _generator(ell, m_i):
    # searched generators repeat colors; past ell = 24 a search can take seconds
    return find_generator(ell, m_i) if ell <= 24 else identity_generator(ell, m_i)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_construct_matches_the_sunmao_reference(data):
    klass = data.draw(st.sampled_from(["1", "2", "mixed"]), label="class")
    parts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="parts"))
    m = sum(parts)
    M = m * data.draw(st.integers(2, 300 // m), label="M / m")
    options = [p for p in enumerate_params(M, parts) if p.klass == klass]
    assume(options)
    params = data.draw(st.sampled_from(options), label="params")
    event(f"class {klass}")
    gens = [_generator(ell, m_i) for ell, m_i in zip(params.ells, params.parts)]
    cmap, ref = construct(params, gens), reference_construct(params, gens)
    assert (cmap.grid, cmap.block, cmap.colors, cmap.palette) == (
        ref.grid, ref.block, ref.colors, ref.palette)


def test_construct_round_trips_params(m24):
    assert params_of(m24)[0] == BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))


def test_params_of_cut_maps_give_the_base_params(m24, fig_map):
    base = params_of(m24)
    assert base[1:] == (m24.params["gens"], 0, 0)
    m36 = construct(BraidParams1D(M=36, parts=(1, 1, 1), g=2, c=(1, 1, 1), q=(2, 3, 1)))
    mod24, mod36 = modify_general_size(m24, 20), modify_general_size(m36, 30)
    s24, s36 = mod24.params["shift"], mod36.params["shift"]
    # every cut, nested or not: the base params and gens, plus its (shift, tail)
    for std, cut, window in [
        (m24, restrict(m24, 21), (0, 0)),
        (m24, mod24, (s24, 1)),
        (m24, modify_general_size(m24, 20, fresh=True), (s24, 1)),
        (m24, restrict(restrict(m24, 19), 15), (0, 0)),
        (m24, restrict(mod24, 19), (s24, 0)),
        (m24, restrict(mod24, 15), (s24, 0)),
        (m36, mod36, (s36, 2)),
        (m36, restrict(mod36, 29), (s36, 1)),
        (m36, restrict(restrict(mod36, 29), 28), (s36, 0)),
    ]:
        params, gens, shift, tail = params_of(cut)
        assert (params, gens) == params_of(std)[:2] and (shift, tail) == window
        # the window: every point but the last tail carries the standard color at x + shift
        (L,), (M,) = cut.grid.dims, std.grid.dims
        assert all(cut.colors[x] == std.colors[(x + shift) % M] for x in range(L - tail))
    for other in (fig_map, replace(m24, params=None), replace(m24, params={"kind": "generator"})):
        with pytest.raises(ValueError):
            params_of(other)


# sha256 of to_json of each map, as built by the per-point synthesis and
# the linear min_colors count these maps were first made with.
PINNED_SHA256 = {
    "m24": "a654d67c94490e9e06b5390a1940ff4e3811f755324f6751ed0e41875cb9b36d",
    "4620": "137019eebab38f5192878e51e5a137d7178055f327f991ca9e8e5360a575496b",
    "41612": "aa79f4335d6cfba593a15123fd89e0b30a85abee4d83447c387544ce9e59c0a2",
    "opt-4620": "a4aae3ab8748e6a095a27ea96227ea7f5e5583d398049c4f5486c080ce136041",
    "75-mixed": "43f42aeb5923b632a768959c911da6f979a2632a5754bdc32d4d0a3883a01abe",
    "r-4001": "d3ecd86947b42a8028d0f22e7b26427357208241278d10d569d35083172a128d",
    "mod-4000": "0d8c46d3a72580b58fea646ff6c438ed692f4846eaccf8a991ba167e84250751",
}


def test_builders_reproduce_pinned_maps_byte_for_byte(m24):
    m4620 = construct(BraidParams1D(M=4620, parts=(1, 1), g=2, c=(1, 1), q=(15, 77)))
    maps = {
        "m24": m24,
        "4620": m4620,
        "41612": construct(BraidParams1D(M=41612, parts=(1, 1), g=2, c=(1, 1), q=(101, 103))),
        "opt-4620": construct(optimize_generators(4620, (1, 1)).params),
        "75-mixed": construct(BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))),
        "r-4001": restrict(m4620, 4001),
        "mod-4000": modify_general_size(m4620, 4000),
    }
    got = {k: hashlib.sha256(to_json(cmap).encode()).hexdigest() for k, cmap in maps.items()}
    assert got == PINNED_SHA256


def test_optimizer_prefers_mixed_over_class1():
    best = optimize_generators(75, (2, 3))
    assert best.cost == 8
    assert best.params.ells == (15, 5) and best.params.g == 5
    class1 = optimize_generators(75, (2, 3), klass="1")
    assert class1.cost == 9
    assert class1.params.ells == (6, 45)


def test_optimizer_class_restriction_never_beats_unrestricted():
    for M in (50, 75, 125):
        best = optimize_generators(M, (2, 3))
        c1 = optimize_generators(M, (2, 3), klass="1")
        assert best.cost <= c1.cost
    # class 1 is not always optimal: the prime-squared grid prefers class 2
    best125 = optimize_generators(125, (2, 3))
    assert best125.params.klass in ("2", "mixed")
    assert best125.cost < optimize_generators(125, (2, 3), klass="1").cost


def test_optimize_infeasible():
    with pytest.raises(InfeasibleError):
        optimize_generators(12, (2, 3))  # block size 5 does not divide 12


def test_constructed_color_count_matches_optimizer():
    best = optimize_generators(75, (2, 3))
    cmap = construct(best.params)
    assert count_colors(cmap) == best.cost == 8


def test_restrict_unitary_non_multiple_lengths(m24):
    for M_r in range(3, 24, 2):
        r = restrict(m24, M_r)
        assert r.grid.dims == (M_r,)
        assert is_distinguishable(r).ok
        assert r.colors == m24.colors[:M_r]
        assert r.params["guaranteed"]
        # a restriction of a restriction is one of the root map, whatever the middle length
        nested = restrict(restrict(m24, 20), M_r) if M_r < 20 else r
        assert nested.colors == r.colors and nested.params["guaranteed"]
    assert not restrict(modify_general_size(m24, 20), 15).params["guaranteed"]


def test_restrict_multiple_length_can_collide(m24):
    r = restrict(m24, 20)
    assert not is_distinguishable(r).ok


def test_modify_reuses_or_adds_color(m24):
    shrunk = modify_general_size(m24, 20)
    assert shrunk.grid.dims == (20,)
    assert is_distinguishable(shrunk).ok
    assert count_colors(shrunk) == count_colors(m24)

    fresh = modify_general_size(m24, 20, fresh=True)
    assert is_distinguishable(fresh).ok
    assert count_colors(fresh) == count_colors(m24) + 1


def test_modify_requires_multiple_of_block(m24):
    with pytest.raises(ValueError):
        modify_general_size(m24, 19)


def test_modify_requires_a_standard_unitary_braid_map(m24, fig_map, example_sets):
    for cmap in (restrict(m24, 23), modify_general_size(m24, 22), construct(example_sets[2])):
        with pytest.raises(ValueError, match="modification requires a standard unitary braid map"):
            modify_general_size(cmap, 20)
    for cmap in (fig_map, replace(m24, params=None)):
        with pytest.raises(ValueError, match="not a 1D braid map"):
            modify_general_size(cmap, 20)


def test_restrict_of_a_map_with_malformed_params_is_not_guaranteed(m24):
    # a base that is not a dict raised AttributeError
    for params in ({"kind": "restricted", "base": [1], "M_r": 24, "guaranteed": True}, [1]):
        r = restrict(replace(m24, params=params), 19)
        assert r.params["guaranteed"] is False and r.params["base"] == params


def test_modified_map_keeps_prefix_codewords(m24):
    shrunk = modify_general_size(m24, 20)
    shift = shrunk.params["shift"]
    for t in range(0, 10):
        assert encode(shrunk, (t,)) == encode(m24, ((t + shift) % 24,))


def test_lemma_distance_divisibility():
    """Equal sub-grid codewords force tag distance divisible by ell_i
    (and by g*m_i*q_i for aligned blocks)."""
    params = BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))
    cmap = construct(params)
    dec = params.decomposition
    gens = cmap.params["gens"]
    for i, gen in enumerate(gens):
        M_i = dec.subgrid_sizes[i]
        m_i = params.parts[i]
        ell_i = params.ells[i]
        seen = {}
        for x in range(M_i):
            w = tuple(sorted(gen["colors"][(x + t) % M_i % ell_i] for t in range(m_i)))
            if w in seen:
                d = (x - seen[w]) % M_i
                assert d % ell_i == 0
                if x % m_i == 0 and seen[w] % m_i == 0:
                    assert d % (params.g * m_i * params.q[i]) == 0
            else:
                seen[w] = x


def test_lemma_subgrid_row_period():
    """Aligned sub-block codewords repeat with minimum period g*q_i."""
    params = BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))
    cmap = construct(params)
    dec = params.decomposition
    J = params.M // params.m
    for i, gen in enumerate(cmap.params["gens"]):
        M_i = dec.subgrid_sizes[i]
        m_i = params.parts[i]
        ell_i = params.ells[i]
        row = []
        for j in range(J):
            start = (j * m_i) % M_i
            row.append(tuple(sorted(gen["colors"][(start + t) % M_i % ell_i] for t in range(m_i))))
        period = params.g * params.q[i]
        assert J % period == 0
        for j in range(J):
            assert row[j] == row[(j + period) % J]
        assert all(
            any(row[j] != row[(j + p) % J] for j in range(J))
            for p in range(1, period)
            if period % p == 0
        )
