"""Seed codes: closed forms, minimum colors, catalog, search, tiling."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from braidcode.generators import (
    GeneratorCode,
    SearchResult,
    SearchStatus,
    UnsupportedGeneratorError,
    builtin,
    catalog_names,
    find_generator,
    identity_generator,
    max_cyclic_length,
    min_colors,
    repetitive_extend,
    search_distinguishable,
)
from braidcode.core import canonical
from braidcode.params import distinguishable, windows


def test_max_cyclic_length_closed_forms():
    assert max_cyclic_length(1, 7) == 7
    # C(k+1,2) minus k/2 for even k
    assert max_cyclic_length(2, 3) == 6
    assert max_cyclic_length(2, 4) == 8
    assert max_cyclic_length(2, 5) == 15
    # C(k+2,3) minus k/3 when 3 | k
    assert max_cyclic_length(3, 3) == 9
    assert max_cyclic_length(3, 6) == 54


@pytest.mark.parametrize(
    "m,k",
    [(m, k) for m in (1, 2, 3) for k in range(1, 9) if max_cyclic_length(m, k) <= 12],
)
def test_closed_form_matches_exhaustive_search(m, k):
    """The formula value is achievable and the next length is not.

    Only lengths >= m+2 are claimed by the formulas; shorter grids are
    degenerate (a block covers all or all-but-one point).
    """
    val = max_cyclic_length(m, k)
    if val < m + 2:
        pytest.skip("formula not claimed below m+2")
    hit = search_distinguishable(val, m, k)
    assert hit.status is SearchStatus.FOUND
    assert hit.code.is_distinguishable() and hit.code.k <= k
    miss = search_distinguishable(val + 1, m, k)
    assert miss.status is SearchStatus.NOT_FOUND


def linear_min_colors(m, ell):
    """Count k up from 1: the reference the bisection in min_colors must match."""
    k = 1
    while max_cyclic_length(m, k) < ell:
        k += 1
    return k


@pytest.mark.parametrize("m", [1, 2, 3])
def test_min_colors_matches_the_linear_count(m):
    for ell in range(2, 5001):
        assert min_colors(m, ell) == (linear_min_colors(m, ell), True), ell


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ell", [10**6, 10**9])
def test_min_colors_is_the_first_k_reaching_ell(m, ell):
    k = min_colors(m, ell).k
    assert max_cyclic_length(m, k) >= ell > max_cyclic_length(m, k - 1)


def test_min_colors_reference_points():
    assert min_colors(2, 6) == (3, True)
    assert min_colors(3, 45) == (6, True)
    assert min_colors(2, 3) == (3, True)


@given(st.integers(1, 3), st.integers(1, 8))
def test_min_colors_inverts_max_length(m, k):
    ell = max_cyclic_length(m, k)
    if ell < m + 2:
        return
    assert min_colors(m, ell).k == k


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_min_colors_never_decreases_as_ell_grows(m):
    # the optimizer's bounds rest on this: a part costs at least min_colors(m_i, g*q_i)
    ks = [min_colors(m, ell).k for ell in range(2, 3001)]
    assert ks == sorted(ks)


@pytest.mark.parametrize("call, message", [
    (lambda: max_cyclic_length(0, 3), "m and k must be positive"),
    (lambda: max_cyclic_length(2, 0), "m and k must be positive"),
    (lambda: max_cyclic_length(4, 3), "no closed form for m=4"),
    (lambda: min_colors(2, 1), "ell must be at least 2"),
    (lambda: GeneratorCode(3, 1, (0, 1), ("a", "b")), "generator length mismatch"),
    (lambda: identity_generator(3, 3), r"need 1 <= m < ell, got m=3, ell=3"),
    (lambda: identity_generator(3, 0), r"need 1 <= m < ell, got m=0, ell=3"),
    (lambda: builtin("no-such-code"), "no builtin generator 'no-such-code'"),
], ids=["max-length-m-0", "max-length-k-0", "max-length-m-4", "min-colors-ell-1",
        "generator-length", "identity-m-ell", "identity-m-0", "builtin-name"])
def test_generator_helpers_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, want", [
    (lambda: search_distinguishable(3, 3, 2), SearchResult(SearchStatus.NOT_FOUND)),
    (lambda: search_distinguishable(2, 5, 2), SearchResult(SearchStatus.NOT_FOUND)),
    (lambda: search_distinguishable(20, 2, 5, budget=10),
     SearchResult(SearchStatus.INCONCLUSIVE, None, 11)),
    (lambda: search_distinguishable(20, 2, 5, budget=100),
     SearchResult(SearchStatus.INCONCLUSIVE, None, 101)),
], ids=["ell-equals-m", "ell-below-m", "budget-10", "budget-100"])
def test_search_gives_up_on_a_period_no_longer_than_the_block_or_past_its_budget(call, want):
    # ell <= m has no m-window apart from the whole period; the budget stops
    # the walk one node past it, at any depth
    assert call() == want


@pytest.mark.parametrize("ell, m", [(4, 4), (3, 5)])
def test_find_generator_refuses_a_period_no_longer_than_a_block_of_4_or_more(ell, m):
    with pytest.raises(UnsupportedGeneratorError,
                       match=f"no generator available for ell={ell}, m={m}"):
        find_generator(ell, m)


def reference_generator_distinguishable(gen):
    """The per-window check ``is_distinguishable`` replaced: each window
    sorted on its own and looked up in the windows seen so far."""
    seen = set()
    for x in range(gen.ell):
        w = gen.codeword(x)
        if w in seen:
            return False
        seen.add(w)
    return True


@settings(max_examples=300)
@given(st.data())
def test_is_distinguishable_matches_the_per_window_reference(data):
    ell = data.draw(st.integers(1, 40), label="ell")
    m = data.draw(st.integers(1, 6), label="m")  # m may reach and pass ell
    k = data.draw(st.integers(1, 6), label="k")
    colors = data.draw(st.lists(st.integers(0, k - 1), min_size=ell, max_size=ell), label="colors")
    gen = GeneratorCode(ell, m, tuple(colors), ())
    assert gen.is_distinguishable() == reference_generator_distinguishable(gen)


def reference_windows(colors, m):
    """The per-start rule ``params.windows`` replaced in the codec's tables
    and ``associated_matrix``: each window sorted on its own."""
    ell = len(colors)
    return [canonical(colors[(x + t) % ell] for t in range(m)) for x in range(ell)]


@settings(max_examples=300)
@given(st.data())
def test_windows_match_the_per_start_reference(data):
    ell = data.draw(st.integers(1, 30), label="ell")
    m = data.draw(st.integers(1, ell + 2), label="m")  # m may reach and pass ell
    k = data.draw(st.integers(1, 6), label="k")
    colors = data.draw(st.lists(st.integers(0, k - 1), min_size=ell, max_size=ell), label="colors")
    assert windows(colors, m) == windows(tuple(colors), m) == reference_windows(colors, m)
    assert distinguishable(colors, m) == (len(set(reference_windows(colors, m))) == ell)


def test_is_distinguishable_matches_the_reference_on_every_short_period():
    # every coloring with 3 colors of a period up to 5, blocks up to 6: the
    # windows of m >= ell + 2 rotate by t mod ell, past a whole turn
    answers = set()
    for ell in range(1, 6):
        for colors in itertools.product(range(3), repeat=ell):
            for m in range(1, 7):
                gen = GeneratorCode(ell, m, colors, ())
                answer = gen.is_distinguishable()
                assert answer == reference_generator_distinguishable(gen), gen
                answers.add(answer)
    assert answers == {True, False}


def test_catalog_codes_are_distinguishable():
    for name in catalog_names():
        gen = builtin(name)
        assert gen.is_distinguishable(), name


def test_identity_generator_any_block():
    for ell in range(3, 10):
        for m in range(1, ell):
            assert identity_generator(ell, m).is_distinguishable()


def test_repetitive_extend_tiles_colors():
    gen = builtin("pair-6")
    big = repetitive_extend(gen, 30)
    assert big.ell == 30
    assert big.colors == gen.colors * 5


def test_repetitive_extend_rejects_non_multiple():
    # M = 0 gave an empty generator, M = -6 "generator length mismatch"
    for M, message in [
        (27, "^generator length 6 must divide 27$"),
        (0, "^extension length M must be positive, got 0$"),
        (-6, "^extension length M must be positive, got -6$"),
        (-4, "^extension length M must be positive, got -4$"),
        (12.0, "^extension length M must be integers, got 12.0$"),
        (True, "^extension length M must be integers, got true$"),
    ]:
        with pytest.raises(ValueError, match=message):
            repetitive_extend(builtin("pair-6"), M)


def test_builtin_parses_and_verifies_each_name_once():
    assert builtin("triple-45") is builtin("triple-45")


def test_a_catalog_entry_that_is_not_distinguishable_raises_value_error(monkeypatch):
    from braidcode import generators

    monkeypatch.setitem(generators._CATALOG_RAW, "bad-4", ("a1 a1 a2 a2", 2))  # {a1,a2} twice
    with pytest.raises(ValueError, match="catalog generator bad-4 is not 2-distinguishable"):
        builtin("bad-4")


def test_find_generator_prefers_catalog():
    gen = find_generator(6, 2)
    assert gen.k == 3 and gen.is_distinguishable()
    gen45 = find_generator(45, 3)
    assert gen45.k == 6


@settings(deadline=None, max_examples=20)
@given(st.integers(4, 10), st.integers(1, 3))
def test_search_results_verify(ell, m):
    if m >= ell:
        return
    k = min_colors(m, ell).k
    res = search_distinguishable(ell, m, k)
    if res.status is SearchStatus.FOUND:
        assert res.code.is_distinguishable()
        assert res.code.k <= k


def test_generator_codeword_wraps():
    gen = GeneratorCode(4, 2, (0, 1, 0, 2), ("u", "v", "w"))
    assert gen.codeword(3) == (0, 2)


def test_to_colormap_refuses_a_generator_with_too_few_labels():
    # raised IndexError from the palette's label lookup
    gen = GeneratorCode(4, 2, (0, 1, 0, 2), ("u", "v"))
    with pytest.raises(ValueError, match=r"^generator has 2 labels for color ids 0\.\.2$"):
        gen.to_colormap()
    assert GeneratorCode(4, 2, (0, 1, 0, 2), ("u", "v", "w")).to_colormap(5).palette[-1].label == "w"
