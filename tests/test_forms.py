"""Forms in degrees 0, 1, 2: differential, chain space, closedness."""

import gc
import weakref
from fractions import Fraction

import pytest

from conftest import random_digraph, random_form, random_zero_form

from pathint import (DigraphMap, FormError, OneForm, TwoChain, ZeroForm,
                     box_product, closed_one_forms, d0, directed_cycle,
                     double_edge, is_closed, line_digraph, omega2_basis,
                     pullback_one_form, standard_square, standard_triangle,
                     wedge_of_cycles)
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


def test_closed_methods_validate():
    T = standard_triangle()
    with pytest.raises(FormError):
        closed_one_forms(T, "nonsense")


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
