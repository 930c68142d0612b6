"""Forms in degrees 0, 1, 2: differential, chain space, closedness."""

import gc
import operator
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (patterned_digraph, random_digraph, random_rational,
                      random_zero_form)

from pathint import (Digraph, DigraphMap, FormError, OneForm, PairingError,
                     TwoChain, ZeroForm, box_product, closed_one_forms,
                     d0, directed_cycle, double_edge, forms,
                     from_forms, homotopic_loops, invariance_verify,
                     is_closed, line_digraph, make_path, omega2_basis,
                     pi1_candidates, pullback_one_form,
                     standard_square, standard_triangle, wedge_of_cycles,
                     word_element)
from pathint.forms import (_boundary, _omega2_boundaries, allowed_two_paths,
                           closed_arrows)
from pathint.linalg import kernel


def test_zero_form_unknown_vertex():
    T = standard_triangle()
    with pytest.raises(FormError):
        ZeroForm(T, {"zz": Fraction(1)})


def test_one_form_arithmetic():
    T = standard_triangle()
    a1 = OneForm.basis(T, ("v0", "v1"))
    a2 = OneForm.basis(T, ("v1", "v2"))
    combo = 2 * a1 - a2
    assert combo(("v0", "v1")) == 2
    assert combo(("v1", "v2")) == -1
    assert (-combo)(("v0", "v1")) == -2
    assert (combo - combo).is_zero()


def test_d0_formula(rng):
    for _ in range(10):
        g = random_digraph(rng)
        f = random_zero_form(rng, g)
        df = d0(f)
        for (u, v) in g.arrows:
            assert df((u, v)) == f(v) - f(u)


def test_d0_image_is_closed(rng):
    for _ in range(10):
        g = random_digraph(rng)
        assert is_closed(d0(random_zero_form(rng, g)))


def test_omega2_dimensions():
    assert len(omega2_basis(standard_triangle())) == 1
    assert len(omega2_basis(standard_square())) == 1
    assert len(omega2_basis(double_edge())) == 2
    assert len(omega2_basis(directed_cycle(4))) == 0


def test_omega2_boundaries_live_on_arrows():
    for g in (standard_triangle(), standard_square(), double_edge()):
        for chain in omega2_basis(g):
            assert isinstance(chain, TwoChain)
            for key in chain.boundary():
                assert key in g.arrow_set


def test_closed_dimension_fixtures():
    assert len(closed_one_forms(standard_triangle())) == 2
    assert len(closed_one_forms(standard_square())) == 3
    assert len(closed_one_forms(double_edge())) == 1
    assert len(closed_one_forms(directed_cycle(4))) == 4


def test_closed_kernel_basis_from_a_fresh_omega2_basis(rng):
    graphs = [standard_triangle(), standard_square(), double_edge(),
              directed_cycle(4), wedge_of_cycles(),
              box_product(line_digraph("ff"), line_digraph("ff"))]
    graphs += [random_digraph(rng) for _ in range(10)]
    for g in graphs:
        rows = []
        for chain in omega2_basis(g):
            row = [Fraction(0)] * len(g.arrows)
            for pair, c in chain.boundary().items():
                row[g.arrow_index[pair]] = c
            rows.append(row)
        expected = kernel(rows, len(g.arrows))
        assert [f.vector() for f in closed_one_forms(g, "kernel")] == expected


def test_closedness_data_is_freed_with_its_graph():
    g = wedge_of_cycles()
    closed_one_forms(g, "kernel")
    closed_one_forms(g, "patterns")
    is_closed(OneForm.basis(g, g.arrows[0]))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def _freed_by_reference_counting(make, query):
    """True iff the graph make() gives is freed, with the cyclic collector
    off, once query(graph) has run and its result is dropped."""
    gc.disable()
    try:
        g = make()
        query(g)
        ref = weakref.ref(g)
        del g
        return ref() is None
    finally:
        gc.enable()


def _invariance_status(elem, status):
    assert invariance_verify(elem, "v0").status == status


def test_cell_loops_are_freed_with_their_graph():
    loop = ["v0", "v1", "v2", "v3", "v0"]
    queries = [
        lambda g: pi1_candidates(g, "v0", 1),
        closed_one_forms,
        lambda g: closed_one_forms(g, "patterns"),
        lambda g: homotopic_loops(make_path(g, loop, "ffff"),
                                  make_path(g, loop[::-1], "bbbb"), 6, 2),
        lambda g: _invariance_status(from_forms(g, closed_one_forms(g)[:1]),
                                     "invariant"),
    ]
    for query in queries:
        assert _freed_by_reference_counting(wedge_of_cycles, query)
    # a counterexample is built from a raw test pair
    assert _freed_by_reference_counting(standard_triangle, lambda g: _invariance_status(
        word_element(g, (g.arrows[0],)), "counterexample"))


def test_closed_methods_validate():
    T = standard_triangle()
    with pytest.raises(FormError):
        closed_one_forms(T, "nonsense")


def test_closed_methods_validate_without_arrows():
    with pytest.raises(FormError):
        closed_one_forms(Digraph(["x"], []), "nonsense")
    assert closed_one_forms(Digraph(["x"], [])) == []


def test_is_closed_examples():
    T = standard_triangle()
    a1 = OneForm.basis(T, ("v0", "v1"))
    a2 = OneForm.basis(T, ("v1", "v2"))
    assert not is_closed(a1)
    assert not is_closed(a1 + a2)
    # the triangle condition: value on the long side equals the two-step sum
    assert is_closed(OneForm(T, {("v0", "v1"): Fraction(1),
                                 ("v1", "v2"): Fraction(2),
                                 ("v0", "v2"): Fraction(3)}))


def test_double_edge_closed_condition():
    D = double_edge()
    assert is_closed(OneForm(D, {("v0", "v1"): Fraction(5),
                                 ("v1", "v0"): Fraction(-5)}))
    assert not is_closed(OneForm(D, {("v0", "v1"): Fraction(5)}))


def test_pullback_one_form_collapsing_triangle_map():
    T = standard_triangle()
    f = DigraphMap(T, T, {"v0": "v0", "v1": "v1", "v2": "v1"})
    e1 = OneForm.basis(T, ("v0", "v1"))
    back = pullback_one_form(f, e1)
    # a3 = (v0, v2) also lands on (v0, v1), so it picks up the value too
    assert back(("v0", "v1")) == 1
    assert back(("v0", "v2")) == 1
    assert back(("v1", "v2")) == 0


def test_pullback_respects_closedness(rng):
    T = standard_triangle()
    f = DigraphMap(T, T, {"v0": "v0", "v1": "v1", "v2": "v1"})
    for omega in closed_one_forms(T):
        assert is_closed(pullback_one_form(f, omega))


def test_form_host_mismatch():
    T = standard_triangle()
    with pytest.raises(FormError):
        OneForm(T, {("v9", "v1"): Fraction(1)})


def _omega2_basis_by_elimination(g):
    """Reference for `omega2_basis`: one condition row per non-arrow vertex
    pair, then the reduced row echelon kernel."""
    paths = allowed_two_paths(g)
    if not paths:
        return []
    index = {p: i for i, p in enumerate(paths)}
    rows_by_pair = {}
    for (u, v, w), i in index.items():
        if u != w and not g.has_arrow(u, w):
            row = rows_by_pair.setdefault((u, w), [Fraction(0)] * len(paths))
            row[i] += 1
    rows = [rows_by_pair[k]
            for k in sorted(rows_by_pair, key=lambda p: (str(p[0]), str(p[1])))]
    return [TwoChain(g, {p: vec[i] for p, i in index.items() if vec[i] != 0})
            for vec in kernel(rows, len(paths))]


def _assert_omega2_matches_the_elimination(g):
    reference = _omega2_basis_by_elimination(g)
    basis = omega2_basis(g)
    assert basis == reference
    assert [list(c.coeffs.items()) for c in basis] == \
        [list(c.coeffs.items()) for c in reference]
    boundaries = tuple(tuple(c.boundary().items()) for c in reference)
    assert _omega2_boundaries(g) == boundaries
    rows = []
    for boundary in boundaries:
        row = [Fraction(0)] * len(g.arrows)
        for pair, c in boundary:
            row[g.arrow_index[pair]] = c
        rows.append(row)
    closed = kernel(rows, len(g.arrows)) if g.arrows else []
    for method in ("kernel", "patterns"):
        assert [f.vector() for f in closed_one_forms(g, method)] == closed
    assert closed_arrows(g) == tuple(
        a for a in g.arrows if is_closed(OneForm.basis(g, a)))


def test_omega2_basis_matches_the_elimination_on_the_fixtures():
    for g in (standard_triangle(), standard_square(), double_edge(),
              directed_cycle(4), wedge_of_cycles(),
              box_product(line_digraph("ff"), line_digraph("ff")),
              box_product(line_digraph("fbf"), line_digraph("bfb"))):
        _assert_omega2_matches_the_elimination(g)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_omega2_basis_matches_the_elimination_on_random_digraphs(seed):
    _assert_omega2_matches_the_elimination(patterned_digraph(random.Random(seed)))


def test_closed_arrows_avoid_triangle_and_square_sides():
    S = standard_square()
    assert closed_arrows(S) == ()
    assert closed_arrows(standard_triangle()) == ()
    assert closed_arrows(double_edge()) == ()
    assert closed_arrows(directed_cycle(4)) == directed_cycle(4).arrows
    # a tail hanging off the square is closed, its sides are not
    g = Digraph(S.vertices + ("t",), S.arrows + (("v3", "t"),))
    assert closed_arrows(g) == (("v3", "t"),)


# ------------------------------------------- forms on the combination type

@pytest.mark.parametrize("cls, good, bad", [
    (ZeroForm, "v2", "v9"),
    (OneForm, ("v0", "v2"), ("v2", "v0")),
    (TwoChain, ("v0", "v1", "v2"), ("v0", "v2", "v1")),
])
def test_an_unknown_key_raises_form_error(cls, good, bad):
    T = standard_triangle()
    assert cls(T, {good: 2})(good) == 2
    with pytest.raises(FormError):
        cls(T, {good: 1, bad: 1})


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_combinations_on_two_hosts_do_not_mix(op):
    # every key below is a key of both hosts
    T = standard_triangle()
    T2 = Digraph(T.vertices + ("spare",), T.arrows)
    for cls, key in ((ZeroForm, "v1"), (OneForm, ("v0", "v1")),
                     (TwoChain, ("v0", "v1", "v2"))):
        with pytest.raises(FormError):
            op(cls(T, {key: 1}), cls(T2, {key: 1}))
    with pytest.raises(PairingError):
        op(word_element(T, (("v0", "v1"),)), word_element(T2, (("v0", "v1"),)))


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_a_form_and_an_element_do_not_mix(op):
    T = standard_triangle()
    omega, u = OneForm.basis(T, ("v0", "v1")), word_element(T, (("v0", "v1"),))
    for x, y in ((omega, u), (u, omega)):
        with pytest.raises(TypeError):
            op(x, y)
    assert omega != u


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_one_form_arithmetic_matches_a_dense_reference_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = random_digraph(rng)
    raw = [{a: random_rational(rng) for a in g.arrows if rng.random() < 0.6}
           for _ in range(2)]
    # the second form repeats some values of the first with a flipped sign,
    # so that sums cancel
    raw[1].update({a: rng.choice((-c, c)) for a, c in raw[0].items()
                   if rng.random() < 0.5})
    dense = [[r.get(a, Fraction(0)) for a in g.arrows] for r in raw]
    f1, f2 = (OneForm(g, r) for r in raw)
    s = rng.choice((0, 1, -1, Fraction(2, 3), 3))
    cases = [
        (f1, dense[0]), (f2, dense[1]),
        (f1 + f2, [x + y for x, y in zip(*dense)]),
        (f1 - f2, [x - y for x, y in zip(*dense)]),
        (-f1, [-x for x in dense[0]]), (s * f2, [s * y for y in dense[1]]),
        (OneForm.from_vector(g, dense[0]), dense[0]),
    ]
    for form, ref in cases:
        assert form.vector() == tuple(ref)
        assert [form(a) for a in g.arrows] == ref
        assert form.coeffs == {a: x for a, x in zip(g.arrows, ref) if x}
        assert all(type(c) is Fraction for c in form.coeffs.values())
        assert form.is_zero() == (not any(ref))
        assert (form == f1) == (ref == dense[0])


def _parent_boundary(coeffs):
    """The boundary accumulated term by term, dropping a pair whose sum
    reaches 0."""
    out = {}

    def add(pair, c):
        new = out.get(pair, 0) + c
        if new == 0:
            out.pop(pair, None)
        else:
            out[pair] = new

    for (u, v, w), c in coeffs.items():
        add((v, w), c)
        add((u, v), c)
        if u != w:
            add((u, w), -c)
    return out


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_two_chain_boundary_matches_the_accumulating_formula(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    paths = allowed_two_paths(g)
    chain = TwoChain(g, {p: random_rational(rng)
                         for p in rng.sample(paths, rng.randint(0, len(paths)))})
    assert chain.boundary() == _parent_boundary(chain.coeffs)
    assert all(type(c) is Fraction for c in chain.boundary().values())
    ints = {p: rng.randint(-2, 2) for p in paths}
    assert _boundary(ints) == _parent_boundary(ints)
    assert all(type(c) is int for c in _boundary(ints).values())


def test_two_chains_read_the_allowed_set_once_per_graph(monkeypatch):
    calls = []

    def counted(g):
        calls.append(None)  # the graph itself is not kept
        return allowed_two_paths(g)

    monkeypatch.setattr(forms, "allowed_two_paths", counted)
    g = wedge_of_cycles()
    paths = allowed_two_paths(g)
    for i in range(50):
        TwoChain(g, {paths[i % len(paths)]: i + 1})
    assert len(calls) == 1
    assert _freed_by_reference_counting(
        wedge_of_cycles, lambda g: TwoChain(g, {allowed_two_paths(g)[0]: 1}))
