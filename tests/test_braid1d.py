"""1D braid maps: parameter validity, construction, optimization, resizing."""

import functools
import hashlib
import itertools
import math

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from braidcode import encode, from_json, to_json
from braidcode.braid1d import (
    BraidParams1D,
    InfeasibleError,
    _divisors as trial_divisors,
    construct,
    enumerate_params,
    modify_general_size,
    optimize_generators,
    params_of,
    restrict,
    validate,
)
from braidcode.braidnd import UnitaryBraidParamsND, construct_unitary_nd, extend_arbitrary_size
from braidcode.core import ColorMap, GridSpec, replace
from braidcode.generators import GeneratorCode, find_generator, identity_generator, min_colors
from braidcode.params import Window1D, _split_clash
from braidcode.oracle import count_colors, is_distinguishable
from braidcode.sunmao import Decomposition1D, synthesize

from conftest import with_generators


def test_params_derived_quantities():
    p = BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))
    assert p.m == 2 and p.I == 2
    assert p.ells == (4, 6)
    assert p.Q == 6
    assert p.c == p.parts and p.unitary  # class 1: every c_i = m_i


def code_class(params):
    """The code class of params: "1" when every c_i = m_i, "2" when every
    c_i = 1, else "mixed"."""
    if params.c == params.parts:
        return "1"
    return "2" if set(params.c) == {1} else "mixed"


def test_params_classes():
    # enumerate_params's klass keeps class 1 (every c_i = m_i) or class 2 (every c_i = 1)
    p1 = BraidParams1D(M=75, parts=(2, 3), g=3, c=(2, 3), q=(1, 5))
    assert p1 in list(enumerate_params(75, (2, 3), klass="1")) and not p1.unitary
    p2 = BraidParams1D(M=75, parts=(2, 3), g=3, c=(1, 3), q=(1, 5))
    assert p2 in list(enumerate_params(75, (2, 3)))
    assert all(p2 not in list(enumerate_params(75, (2, 3), klass=k)) for k in ("1", "2"))
    assert (code_class(p1), code_class(p2)) == ("1", "mixed")


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
@pytest.mark.parametrize("parts", [(1, 1), (2,), (1, 2), (2, 3), (2, 2), (3, 3), (2, 2, 2), (2, 4)])
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


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 6)])
def test_validate_refuses_exactly_the_two_part_params_whose_blocks_clash(parts):
    # Built without validate, every candidate of the per-part conditions with
    # M up to 16m: the oracle finds two blocks with one codeword exactly when
    # validate refuses the params, and two blocks split at the k_0, k_1 it
    # names, at k_0*c_0 and m_0 + k_1*c_1 within a block, are two such.
    m = sum(parts)
    refused = 0
    for M in range(m, 16 * m + 1, m):
        for params in braid_candidates(M, parts):
            gens = [identity_generator(ell, m_i) for ell, m_i in zip(params.ells, params.parts)]
            cmap = reference_construct(params, gens)
            errs = validate(params)
            assert is_distinguishable(cmap).ok == (not errs), (params, errs)
            if errs:
                k0, k1 = _split_clash(params.parts, params.g, params.c, params.q)
                assert len(errs) == 1 and errs[0].startswith(
                    f"two parts: blocks split in sub-grid 0 at k_0={k0} and in sub-grid 1 at k_1={k1} ")
                offsets = {}
                for x in range(M):
                    offsets.setdefault(encode(cmap, (x,)), set()).add(x % m)
                assert {k0 * params.c[0], parts[0] + k1 * params.c[1]} in offsets.values(), params
                refused += 1
    assert refused or parts in {(1, 2), (2, 3)}


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
    options = [p for p in enumerate_params(M, parts) if code_class(p) == klass]
    assume(options)
    params = data.draw(st.sampled_from(options), label="params")
    event(f"class {klass}")
    gens = [_generator(ell, m_i) for ell, m_i in zip(params.ells, params.parts)]
    cmap, ref = construct(params, gens), reference_construct(params, gens)
    assert (cmap.grid, cmap.block, cmap.colors, cmap.palette) == (
        ref.grid, ref.block, ref.colors, ref.palette)


def test_construct_round_trips_params(m24):
    assert params_of(m24).params == BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))


def test_params_of_cut_maps_give_the_base_params(m24, fig_map):
    base = params_of(m24)
    assert (base.gens, base.shift, base.tail) == (
        tuple(tuple(gen["colors"]) for gen in m24.params["gens"]), 0, 0)
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
        read, std_read = params_of(cut), params_of(std)
        shift, tail = read.shift, read.tail
        assert type(read) is Window1D and type(read.gens) is tuple
        assert all(type(gen) is tuple and {type(c) for c in gen} == {int} for gen in read.gens)
        assert read == Window1D(std_read.params, std_read.gens, *window)
        # each copy read from its JSON gives the same value: a standard map's kept
        # one, a cut's proved on its first read
        assert (read, std_read) == (params_of(from_json(to_json(cut))),
                                    params_of(from_json(to_json(std))))
        # the window: every point but the last tail carries the standard color at x + shift
        (L,), (M,) = cut.grid.dims, std.grid.dims
        assert all(cut.colors[x] == std.colors[(x + shift) % M] for x in range(L - tail))
    for other in (fig_map, replace(m24, params=None), replace(m24, params={"kind": "generator"}),
                  replace(m24, params={"kind": "restricted", "base": fig_map.params, "M_r": 24})):
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
    assert code_class(best125.params) in ("2", "mixed")
    assert best125.cost < optimize_generators(125, (2, 3), klass="1").cost


def reference_enumerate(M, parts, klass="auto"):
    """``enumerate_params`` as it was before the optimizer scored tuples:
    each divisor list scanned anew, one params record per candidate, and
    only the candidates ``validate`` accepts (it refuses two-part params
    whose blocks split in both sub-grids share a codeword)."""
    return (params for params in braid_candidates(M, parts, klass) if not validate(params))


def braid_candidates(M, parts, klass="auto"):
    """Every (g, c, q) meeting each braid condition on its own part and M."""
    if not parts or any(m_i < 1 for m_i in parts):
        raise ValueError(f"parts must be positive, got {parts}")
    m = sum(parts)
    if M % m != 0:
        raise InfeasibleError(f"block size {m} must divide M={M}")
    N = M // m
    for g in _divisors(N)[1:]:
        Q = N // g
        for q in itertools.product(_divisors(Q), repeat=len(parts)):
            if math.lcm(*q) != Q:
                continue
            c_choices = [[c_i for c_i in _divisors(m_i)
                          if (klass != "1" or c_i == m_i) and (klass != "2" or c_i == 1)
                          and (len(parts) > 1 or c_i == m_i) and g * c_i > m_i
                          and math.gcd(m_i, g * c_i * q_i) == c_i]
                         for m_i, q_i in zip(parts, q)]
            for c in itertools.product(*c_choices):
                yield BraidParams1D(M=M, parts=parts, g=g, c=c, q=q)


_fewest = functools.cache(min_colors)


def reference_optimize(M, parts, klass="auto"):
    """``optimize_generators`` as it was before it scored tuples: every
    candidate a params record, keyed by (cost, ells, g), the first kept."""
    parts = tuple(parts)
    best = None
    for params in reference_enumerate(M, parts, klass):
        mcs = [_fewest(m_i, ell) for m_i, ell in zip(params.parts, params.ells)]
        key = (sum(mc.k for mc in mcs), params.ells, params.g)
        if best is None or key < best[0]:
            best = (key, params, tuple(mc.k for mc in mcs), all(mc.exact for mc in mcs))
    if best is None:
        raise InfeasibleError(f"no valid braid parameterization for M={M}, parts={parts}")
    _, params, costs, exact = best
    return params, sum(costs), costs, exact


def _outcome(run, *args):
    """What a call gives: its result, or its error's class and text."""
    try:
        return run(*args)
    except ValueError as e:
        return type(e), str(e)


def _optimized(M, parts, klass):
    res = optimize_generators(M, parts, klass)
    return res.params, res.cost, res.costs, res.exact


def _enumerated(enumerate_, M, parts, klass):
    return [(p.g, p.c, p.q) for p in enumerate_(M, parts, klass)]


def test_divisors_match_the_scan():
    for n in range(-2, 5001):
        assert trial_divisors(n) == _divisors(n), n


@pytest.mark.parametrize("klass", ["auto", "1", "2"])
@pytest.mark.parametrize("parts", [(1,), (1, 1), (2, 3), (1, 2), (1, 1, 1), (2, 2), (3, 3),
                                   (1, 1, 1, 1)])
def test_optimizer_and_enumeration_match_the_record_scoring(parts, klass):
    for M in range(2, 301):
        assert _outcome(_optimized, M, parts, klass) == _outcome(reference_optimize, M, parts, klass), M
        assert (_outcome(_enumerated, enumerate_params, M, parts, klass)
                == _outcome(_enumerated, reference_enumerate, M, parts, klass)), M


@pytest.mark.parametrize("M, parts", [(4620, (1, 1)), (4620, (2, 3)), (6006, (1, 1, 1)),
                                      (41612, (1, 1)), (41612, (2, 2)), (4088468, (1, 1))])
def test_optimizer_matches_the_record_scoring_on_large_grids(M, parts):
    for klass in ("auto", "1", "2"):
        assert _outcome(_optimized, M, parts, klass) == _outcome(reference_optimize, M, parts, klass)
        assert (_enumerated(enumerate_params, M, parts, klass)
                == _enumerated(reference_enumerate, M, parts, klass))


@pytest.mark.parametrize("M, parts, g, q, costs", [
    (720720, (1, 1, 1), 2, (39, 55, 56), (78, 110, 112)),
    (55440, (1, 1, 1, 1), 2, (7, 9, 10, 11), (14, 18, 20, 22)),
    (1441440, (1, 1), 2, (585, 616), (1170, 1232)),
])
def test_optimizer_gives_what_scoring_every_candidate_gave_on_highly_composite_grids(
        M, parts, g, q, costs):
    # what reference_optimize gave; running it here takes minutes
    c = (1,) * len(parts)
    assert _optimized(M, parts, "auto") == (BraidParams1D(M=M, parts=parts, g=g, c=c, q=q),
                                            sum(costs), costs, True)


def test_optimizer_keeps_a_larger_g_that_ties_on_cost():
    # g = 2 (ells (12, 2)) and g = 4 (ells (4, 4)) both cost 6; the smaller ells win
    assert _optimized(16, (3, 1), "auto") == reference_optimize(16, (3, 1), "auto")
    assert optimize_generators(16, (3, 1)).params.g == 4


@pytest.mark.parametrize("M, parts, message", [
    (24.0, (1, 1), "grid size M and parts must be integers, got 24.0"),
    (24, (1.0, 1), "grid size M and parts must be integers, got 1.0"),
    (True, (1, 1), "grid size M and parts must be integers, got true"),
    (0, (1, 1), "grid size M must be positive, got 0"),
    (-24, (1, 1), "grid size M must be positive, got -24"),
])
def test_optimizer_refuses_a_size_or_part_that_is_not_a_positive_int(M, parts, message):
    # 24.0 and 1.0 ended in a TypeError, and M < 1 in InfeasibleError
    for call in (optimize_generators, lambda M, parts: list(enumerate_params(M, parts))):
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            call(M, parts)
        assert type(info.value) is ValueError


def test_optimize_infeasible():
    with pytest.raises(InfeasibleError):
        optimize_generators(12, (2, 3))  # block size 5 does not divide 12
    with pytest.raises(InfeasibleError, match="no valid braid parameterization for M=2"):
        optimize_generators(2, (1, 1))  # M / m = 1 leaves no g >= 2


def test_two_part_params_whose_split_blocks_clash_are_skipped_and_refused():
    # M=12, parts (2, 2): with g=3 and c=(1, 1), tags 1 and 7 carry one codeword
    clash = BraidParams1D(M=12, parts=(2, 2), g=3, c=(1, 1), q=(1, 1))
    assert clash not in list(enumerate_params(12, (2, 2)))
    with pytest.raises(InfeasibleError, match="blocks split in sub-grid 0 at k_0=1 and in sub-grid 1 at k_1=1"):
        construct(clash)
    picked = optimize_generators(12, (2, 2)).params
    assert picked == BraidParams1D(M=12, parts=(2, 2), g=3, c=(1, 2), q=(1, 1))
    assert is_distinguishable(construct(picked)).ok
    # class 2 on two equal parts: n_0 = n_1 = 2 always clash
    with pytest.raises(InfeasibleError, match=r"no valid braid parameterization for M=41612, parts=\(2, 2\)"):
        optimize_generators(41612, (2, 2), "2")


P24 = BraidParams1D(M=24, parts=(1, 1), g=2, c=(1, 1), q=(2, 3))


@pytest.mark.parametrize("params, gens, error, message", [
    (BraidParams1D(M=30, parts=(1, 1), g=2, c=(1, 1), q=(2, 3)), None, InfeasibleError,
     r"M=30 != m\*g\*lcm\(q\) = 24"),
    (P24, [identity_generator(4, 1)], ValueError, "expected 2 generators"),
    (P24, [identity_generator(6, 1), identity_generator(4, 1)], ValueError,
     r"generator 0 is \(6,1\), need \(4,1\)"),
    (P24, [GeneratorCode(4, 1, (0, 0, 1, 2), ("a", "b", "c")), identity_generator(6, 1)],
     ValueError, "generator 0 is not 1-distinguishable"),
    (P24, [identity_generator(4, 1), GeneratorCode(6, 1, (0, 1, 2, 3, 4, -1), tuple("abcde"))],
     ValueError, "generator 1 has a negative color id"),
    # fields a map file may not hold, refused as params_of refuses them there
    (P24, [GeneratorCode(4.0, 1, (0, 1, 2, 3), tuple("abcd")), identity_generator(6, 1)],
     ValueError, "^generator fields must be integers, got 4.0$"),
    (P24, [GeneratorCode(4, True, (0, 1, 2, 3), tuple("abcd")), identity_generator(6, 1)],
     ValueError, "^generator fields must be integers, got true$"),
    (P24, [GeneratorCode(4, 1, (0, 1, 2, 3.0), tuple("abcd")), identity_generator(6, 1)],
     ValueError, "^generator fields must be integers, got 3.0$"),
    (P24, [GeneratorCode(4, 1, (False, True, 2, 3), tuple("abcd")), identity_generator(6, 1)],
     ValueError, "^generator fields must be integers, got false$"),
    # raised IndexError from the palette's label lookup
    (P24, [GeneratorCode(4, 1, (0, 1, 2, 3), ("a",)), identity_generator(6, 1)],
     ValueError, r"^generator has 1 labels for color ids 0\.\.3$"),
], ids=["invalid-params", "generator-count", "generator-size", "not-distinguishable",
        "negative-id", "float-ell", "bool-m", "float-color", "bool-color", "too-few-labels"])
def test_construct_refuses_params_and_generators_that_do_not_fit(params, gens, error, message):
    with pytest.raises(error, match=message):
        construct(params, gens)


def test_constructed_color_count_matches_optimizer():
    best = optimize_generators(75, (2, 3))
    cmap = construct(best.params)
    assert count_colors(cmap) == best.cost == 8


@pytest.mark.parametrize("M, parts, built", [
    (40, (4, 1), 16), (120, (1, 4), 30), (60, (2, 4), 12), (80, (4,), 80),
])
def test_optimizer_cost_is_what_construct_builds_for_parts_of_four(M, parts, built):
    # a part of 4 or more gets the identity generator: ell_i colors, not a searched count
    best = optimize_generators(M, parts)
    cmap = construct(best.params)
    assert count_colors(cmap) == best.cost == built and not best.exact
    assert is_distinguishable(cmap).ok


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


def test_modify_refuses_a_map_whose_colors_leave_no_shift(m24):
    # colors that contradict the params are refused before any shift is sought
    colors = list(m24.colors)
    colors[18:20] = colors[0:2]
    with pytest.raises(ValueError, match="^map contradicts its generators: point 18 has color 0, "
                                         "they give 1$"):
        modify_general_size(replace(m24, colors=tuple(colors)), 20)
    # colors that agree with generators that are not 1-distinguishable, under which
    # aligned blocks 0 and 9 carry gen 0 at 0 and 9 % 4 and gen 1 at 0 and 9 % 6, all
    # equal: the reader refuses the generators, so no shift is sought
    cmap = with_generators(m24, [[0, 0, 1, 2], [4, 5, 6, 4, 7, 8]])
    with pytest.raises(ValueError, match="^generator 0 is not 1-distinguishable: two of its 4 "
                                         "windows share a sub-codeword$"):
        modify_general_size(cmap, 20)


@pytest.mark.parametrize("M_r", [20.0, True, "20"])
def test_modify_refuses_a_size_that_is_not_an_int(m24, M_r):
    # 20.0 would raise "tuple indices must be integers or slices, not float"
    with pytest.raises(ValueError, match="^modification size M_r must be integers, got "):
        modify_general_size(m24, M_r)


@pytest.mark.parametrize("M_r", [19.5, True, "20", None])
def test_restrict_refuses_a_size_that_is_not_an_int(m24, M_r):
    # "20" and None raised TypeError from the range check, 19.5 was blamed on
    # the grid dims, and True was read as 1
    with pytest.raises(ValueError, match="^restriction size M_r must be integers, got "):
        restrict(m24, M_r)


def test_modify_refuses_a_map_that_contradicts_its_generators(m24):
    colors = list(m24.colors)
    colors[5] = colors[7]
    with pytest.raises(ValueError, match="^map contradicts its generators: point 5 has color 7, "
                                         "they give 6$"):
        modify_general_size(replace(m24, colors=tuple(colors)), 20)


def test_restrict_refuses_an_n_dim_braid_map(fig_map):
    line = construct_unitary_nd(UnitaryBraidParamsND(m=(2,), g=2, qtable={(0,): (2,), (1,): (3,)}))
    assert line.grid.dims == (24,)
    # whatever its colors: with point 5 given point 7's color the one-axis map was
    # cut into a restricted map no decoder reads, and a hand-made 2D map raised
    # "too many values to unpack"
    bad = [replace(cmap, colors=cmap.colors[:5] + cmap.colors[7:8] + cmap.colors[6:])
           for cmap in (line, fig_map)]
    cut = extend_arbitrary_size(line, (22,))  # a one-axis extension, of kind "extended-nd"
    assert cut.params["kind"] == "extended-nd" and cut.grid.dims == (22,)
    for cmap in (line, fig_map, *bad, cut, replace(fig_map, params=None)):
        with pytest.raises(ValueError, match="^restrict cuts 1D braid maps; cut an n-dim braid "
                                             "map with extend_arbitrary_size$"):
            restrict(cmap, 19)
    # a hand-made map of the same colors still restricts, with no guarantee
    assert restrict(replace(line, params=None), 19).params["guaranteed"] is False


def test_restrict_of_a_map_with_malformed_params_is_not_guaranteed(m24):
    # a base that is not a dict raised AttributeError; the last two KeyError and TypeError
    # a kind that is not hashable (a list) is no n-dim kind either
    for params in ({"kind": "restricted", "base": [1], "M_r": 24, "guaranteed": True}, [1],
                   {"kind": "braid1d"}, {**m24.params, "parts": 5}, {"kind": ["extended-nd"]}):
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
    dec = Decomposition1D(params.M, params.parts)
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
    dec = Decomposition1D(params.M, params.parts)
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
