"""Shuffle algebra, Hopf structure, functionals, pullback."""

import random
from fractions import Fraction

import pytest

from conftest import random_digraph, random_rational

from pathint import (AlgebraElement, BasedFunctional, DigraphMap,
                     PairingError, all_words, antipode, coproduct, counit,
                     double_edge, enumerate_paths, from_forms,
                     functional_equal, hopf_axiom_report,
                     make_path, pair, pullback_element, shuffle,
                     shuffle_words, standard_triangle, TensorPair, unit,
                     word_element, zero, OneForm)


def a1(g):
    return g.arrows[0]


def test_element_drops_zero_coefficients():
    D = double_edge()
    u = AlgebraElement(D, {(a1(D),): Fraction(0), (): Fraction(2)})
    assert (a1(D),) not in u.coeffs
    assert u.coeffs[()] == 2


def test_element_rejects_foreign_arrows():
    D = double_edge()
    with pytest.raises(Exception):
        AlgebraElement(D, {(("x", "y"),): Fraction(1)})


def test_unknown_arrow_mid_word_is_named_in_the_error():
    T = standard_triangle()
    a, b, _ = T.arrows
    with pytest.raises(PairingError) as info:
        AlgebraElement(T, {(a,): 1,
                           (a, ("v2", "v0"), ("v9", "v1"), b): Fraction(1, 2)})
    assert str(info.value) == "word uses unknown arrow ('v2', 'v0')"


class _Spelled:
    """A key that spells a word without being equal to its tuple."""

    def __init__(self, *letters):
        self.letters = letters

    def __iter__(self):
        return iter(self.letters)


def test_keys_spelling_one_word_are_summed():
    T = standard_triangle()
    a, b, _ = T.arrows
    u = AlgebraElement(T, {(a,): 1, (b,): 2, _Spelled(a): -1,
                           _Spelled(b): Fraction(1, 2), _Spelled(b, a): 3})
    assert u.coeffs == {(b,): Fraction(5, 2), (b, a): 3}
    assert all(type(c) is Fraction for c in u.coeffs.values())


def test_degree_and_components():
    D = double_edge()
    u = word_element(D, (a1(D),)) + word_element(D, (a1(D), a1(D)), Fraction(3))
    assert u.degree == 2
    assert u.homogeneous_component(1) == word_element(D, (a1(D),))
    assert u.homogeneous_component(0).is_zero()


def test_shuffle_words_basic():
    letters = ("a", "b")
    out = shuffle_words(("a",), ("b",))
    assert out == {("a", "b"): 1, ("b", "a"): 1}
    doubled = shuffle_words(("a",), ("a",))
    assert doubled == {("a", "a"): 2}


def test_shuffle_unit_and_commutativity(rng):
    for _ in range(10):
        g = random_digraph(rng, max_vertices=4)
        words = [tuple(rng.choices(g.arrows, k=rng.randint(0, 2)))
                 for _ in range(2)]
        u = AlgebraElement(g, {words[0]: random_rational(rng)})
        v = AlgebraElement(g, {words[1]: random_rational(rng)})
        assert shuffle(u, unit(g)) == u
        assert shuffle(u, v) == shuffle(v, u)
        assert u * v == shuffle(u, v)


def test_coproduct_deconcatenation():
    D = double_edge()
    w = (a1(D), D.arrows[1])
    t = coproduct(word_element(D, w))
    assert t.coeffs == {((), w): Fraction(1),
                        ((a1(D),), (D.arrows[1],)): Fraction(1),
                        (w, ()): Fraction(1)}


def test_counit_projects_to_constants():
    D = double_edge()
    u = unit(D) + word_element(D, (a1(D),), Fraction(7))
    assert counit(u) == 1
    assert counit(word_element(D, (a1(D),))) == 0


def test_antipode_signed_reversal_and_involution():
    D = double_edge()
    w = (a1(D), D.arrows[1])
    j = antipode(word_element(D, w))
    assert j.coeffs == {w[::-1]: Fraction(1)}  # even degree: sign +1
    odd = antipode(word_element(D, (a1(D),)))
    assert odd.coeffs == {(a1(D),): Fraction(-1)}
    u = word_element(D, w) - 3 * word_element(D, (a1(D),))
    assert antipode(antipode(u)) == u


def test_zero_element():
    D = double_edge()
    assert zero(D).is_zero()
    assert (zero(D) + unit(D)) == unit(D)


def test_from_forms_expands_multilinearly():
    T = standard_triangle()
    omega = OneForm(T, {("v0", "v1"): Fraction(2), ("v0", "v2"): Fraction(-1)})
    u = from_forms(T, [omega])
    assert u.coeffs == {(("v0", "v1"),): Fraction(2),
                        (("v0", "v2"),): Fraction(-1)}
    uu = from_forms(T, [omega, omega])
    assert uu.coeffs[(("v0", "v1"), ("v0", "v2"))] == Fraction(-2)


def test_pullback_element_fibers():
    T = standard_triangle()
    f = DigraphMap(T, T, {"v0": "v0", "v1": "v1", "v2": "v1"})
    u = word_element(T, (("v0", "v1"),))
    back = pullback_element(f, u)
    assert back.coeffs == {(("v0", "v1"),): Fraction(1),
                           (("v0", "v2"),): Fraction(1)}
    # fiber of the collapsed arrow is empty
    dead = pullback_element(f, word_element(T, (("v1", "v2"),)))
    assert dead.is_zero()


def test_functional_equal_finds_witness():
    D = double_edge()
    e1 = word_element(D, (("v0", "v1"),))
    verdict = functional_equal(e1, zero(D), "v0", flavor="loop",
                               length_bound=4)
    assert verdict.separated
    assert verdict.witness is not None
    assert verdict.witness.vertices == ("v0", "v1", "v0")
    assert verdict.values[0] != verdict.values[1]


def test_functional_equal_agrees_on_equal_elements():
    D = double_edge()
    e1 = word_element(D, (("v0", "v1"),))
    verdict = functional_equal(e1, e1, "v0", length_bound=4)
    assert not verdict.separated


def _first_differing_path(u, v, base, flavor, length_bound):
    """Reference for `functional_equal`: every path (or loop) in
    enumeration order, none skipped."""
    for p in enumerate_paths(u.graph, base, length_bound,
                             loops_only=flavor == "loop"):
        a, b = pair(u, p), pair(v, p)
        if a != b:
            return p, (a, b)
    return None, None


@pytest.mark.parametrize("flavor", ["loop", "path"])
def test_functional_equal_matches_the_full_scan(flavor):
    rng = random.Random(7)
    for _ in range(12):
        g = random_digraph(rng, max_vertices=4, p=0.5)
        base = rng.choice(g.vertices)
        words = all_words(g.arrows, 2, min_degree=1)
        u, v = (AlgebraElement(g, {w: random_rational(rng)
                                   for w in rng.sample(words, min(3, len(words)))})
                for _ in range(2))
        for a, b in ((u, v), (u, u + v - v), (u, zero(g))):
            verdict = functional_equal(a, b, base, flavor=flavor, length_bound=4)
            assert (verdict.witness, verdict.values) == _first_differing_path(
                a, b, base, flavor, 4)
            assert verdict.separated == (verdict.witness is not None)


def test_based_functional_call():
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    j = BasedFunctional(word_element(D, (("v0", "v1"),)), "v0", "loop")
    assert j(loop) == 1
    with pytest.raises(PairingError):
        j(make_path(D, ["v1", "v0"], ["f"]))


# the arrows of double_edge() and its loops at v0, which alternate v0, v1
A, B = ("v0", "v1"), ("v1", "v0")


def _d_loop(flags):
    return make_path(double_edge(), ["v0", "v1"] * (len(flags) // 2) + ["v0"],
                     list(flags))


def _failed(report):
    """The failure lists of the laws that failed, by name."""
    return {name: entry["failures"] for name, entry in report["axioms"].items()
            if not entry["passed"]}


def test_hopf_report_negative_control():
    D = double_edge()
    broken = lambda u: u  # identity is not an antipode
    report = hopf_axiom_report(D, 2, antipode_fn=broken)
    assert not report["axioms"]["antipode"]["passed"]
    assert not report["all_passed"]
    assert _failed(hopf_axiom_report(D, 2, antipode_fn=broken, max_failures=1)) == {
        "antipode": [{"word": (A,)}],
        "dual_antipode": [{"loop": _d_loop("ff"), "word": (A,)}],
    }
    assert _failed(report) == {
        "antipode": [{"word": w} for w in ((A,), (B,), (A, A), (A, B), (B, A))],
        "dual_antipode": [{"loop": _d_loop(f), "word": (A,)}
                          for f in ("ff", "bb", "ffff", "fffb", "ffbf")],
    }


def _early_cuts(u):
    # deconcatenation that keeps only the cuts before the second letter
    out = {}
    for w, c in u.coeffs.items():
        for i in range(min(len(w), 1) + 1):
            out[(w[:i], w[i:])] = out.get((w[:i], w[i:]), 0) + c
    return TensorPair(u.graph, out)


def test_hopf_report_coassociativity_negative_control():
    D = double_edge()
    assert hopf_axiom_report(D, 2)["axioms"]["coassociativity"]["passed"]
    report = hopf_axiom_report(D, 2, coproduct_fn=_early_cuts)
    assert not report["axioms"]["coassociativity"]["passed"]
    assert report["axioms"]["commutativity"]["passed"]
    assert not report["all_passed"]
    first = [{"word": (A, A)}]
    assert _failed(hopf_axiom_report(D, 2, coproduct_fn=_early_cuts,
                                     max_failures=1)) == {
        "coassociativity": first, "counit": first,
        "bialgebra": [{"words": ((A,), (A,))}], "antipode": first,
    }
    long_words = [{"word": w} for w in ((A, A), (A, B), (B, A), (B, B))]
    assert _failed(report) == {
        "coassociativity": long_words, "counit": long_words,
        "bialgebra": [{"words": ((A,), w)} for w in ((A,), (B,), (A, A), (A, B), (B, A))],
        "antipode": long_words,
    }


def test_hopf_report_fails_a_law_even_when_no_failure_is_listed():
    T = standard_triangle()

    def unsigned_reversal(u):
        return AlgebraElement(u.graph, {w[::-1]: c for w, c in u.coeffs.items()})

    listed = hopf_axiom_report(T, 1, antipode_fn=unsigned_reversal, max_failures=1)
    silent = hopf_axiom_report(T, 1, antipode_fn=unsigned_reversal, max_failures=0)
    assert not silent["axioms"]["dual_antipode"]["passed"]
    assert not silent["axioms"]["antipode"]["passed"]
    assert all(entry["failures"] == [] for entry in silent["axioms"].values())
    assert ({name: entry["passed"] for name, entry in silent["axioms"].items()}
            == {name: entry["passed"] for name, entry in listed["axioms"].items()})
    assert not silent["all_passed"]


def test_hopf_report_without_base_skips_dual_laws():
    from pathint import Digraph
    unbased = Digraph(["a", "b"], [("a", "b"), ("b", "a")])
    report = hopf_axiom_report(unbased, 2)
    assert report["all_passed"]
    assert "dual_shuffle" not in report["axioms"]
    assert report["dual_laws"].startswith("skipped")

    based = hopf_axiom_report(standard_triangle(), 2)
    assert based["base"] == "v0"  # fixture base picked up automatically
    assert "dual_shuffle" in based["axioms"]


def test_element_host_mismatch():
    T, D = standard_triangle(), double_edge()
    with pytest.raises(PairingError):
        word_element(T, (("v0", "v1"),)) + word_element(D, (("v0", "v1"),))
