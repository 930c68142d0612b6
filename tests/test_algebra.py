"""Shuffle algebra, Hopf structure, functionals, pullback."""

import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (patterned_digraph, random_digraph, random_form,
                      random_path, random_rational, random_zero_form)

from pathint import (AlgebraElement, BasedFunctional, Digraph, DigraphMap,
                     PairingError, PathError, all_words, antipode, box_product, concat,
                     coproduct, counit, directed_cycle, double_edge,
                     enumerate_paths, from_forms,
                     functional_equal, hopf_axiom_report, inverse,
                     make_path, pair, pullback_element, shuffle,
                     shuffle_words, standard_square, standard_triangle,
                     TensorPair, unit, wedge_of_cycles, word_element,
                     word_pairings_all, zero, OneForm)
from pathint import algebra, paths
from pathint.forms import d0
from pathint.homotopy import change_base_point
from pathint.integrals import signature
from pathint.linalg import _sum_terms
from pathint.paths import _loop_generators, _product, _tree_paths


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
    verdict = functional_equal(e1, zero(D), "v0", flavor="loop")
    assert verdict.separated
    assert verdict.witness is not None
    assert verdict.witness.vertices == ("v0", "v1", "v0")
    assert verdict.values[0] != verdict.values[1]


def test_functional_equal_agrees_on_equal_elements():
    D = double_edge()
    e1 = word_element(D, (("v0", "v1"),))
    verdict = functional_equal(e1, e1, "v0")
    assert verdict.status == "equal"


def _differs_within(u, v, base, flavor, length_bound):
    """Reference for `functional_equal`: whether some path (or loop) up to
    the length bound, none skipped, pairs differently with u and v."""
    return any(pair(u - v, p) for p in enumerate_paths(
        u.graph, base, length_bound, loops_only=flavor == "loop"))


def _assert_witness(verdict, a, b):
    """An unequal verdict's witness is a path from the base on which the
    two elements pair to its recorded, different values."""
    w = verdict.witness
    assert w.start == verdict.base and (verdict.flavor == "path" or w.is_loop)
    assert verdict.values == (pair(a, w), pair(b, w))
    assert verdict.values[0] != verdict.values[1]


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
            verdict = functional_equal(a, b, base, flavor=flavor)
            differs = _differs_within(a, b, base, flavor, 6)
            assert verdict.status in ("equal", "certified-unequal")
            if verdict.status == "equal":
                assert not differs and verdict.witness is None
            else:
                _assert_witness(verdict, a, b)
            if differs:
                assert verdict.separated


def _lollipop():
    """Base x, the path x -> p -> q -> r, and the 4-cycle r s t u r."""
    return Digraph(list("xpqrstu"), [("x", "p"), ("p", "q"), ("q", "r"), ("r", "s"),
                                     ("s", "t"), ("t", "u"), ("u", "r")])


def test_functional_equal_sees_a_loop_longer_than_any_fixed_bound():
    # the one generator loop runs the stick out and back: 10 steps
    g = _lollipop()
    verdict = functional_equal(word_element(g, [("r", "s")]), zero(g), "x")
    assert verdict.status == "certified-unequal"
    assert verdict.witness.vertices == tuple("xpqrsturqpx")
    assert verdict.values == (1, 0)


def test_functional_equal_misses_an_inequality_without_every_generator(monkeypatch):
    # negative control: dropping a generator loop, here the lollipop's only
    # one, leaves only the trivial loop, and the inequality is missed
    g = _lollipop()
    real = paths._loop_generators
    monkeypatch.setattr(paths, "_loop_generators", lambda g, base: real(g, base)[:-1])
    verdict = functional_equal(word_element(g, [("r", "s")]), zero(g), "x")
    assert verdict.status == "equal"


def _null_on_loops(rng, g, degree):
    """df shuffled with a random element of degree < degree: df pairs to 0
    on every loop, and pairing is multiplicative under the shuffle."""
    df = from_forms(g, [d0(random_zero_form(rng, g))])
    rest = AlgebraElement(g, {w: random_rational(rng)
                              for w in all_words(g.arrows, degree - 1)
                              if rng.random() < 0.5})
    return shuffle(df, rest + unit(g))


def test_functional_equal_proves_a_null_element_on_a_torus_grid():
    g = box_product(directed_cycle(4), directed_cycle(4))
    base = g.vertices[0]
    null = _null_on_loops(random.Random(1), g, 2)
    assert len(null.coeffs) > 50 and null.degree == 2
    assert functional_equal(null, zero(g), base).status == "equal"
    on_paths = functional_equal(null, zero(g), base, "path")
    assert on_paths.status == "certified-unequal"
    _assert_witness(on_paths, null, zero(g))


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(["loop", "path"]),
       st.integers(min_value=1, max_value=2))
def test_functional_equal_is_the_scan_that_covers_every_test_loop(seed, flavor, d):
    # where the scan's bound reaches every product of up to d generator
    # loops (each followed by a tree path, for paths), the exact test and
    # the scan agree on every pair of elements of degree at most d
    rng = random.Random(seed)
    g = random_digraph(rng, max_vertices=4, p=0.4)
    base = rng.choice(g.vertices)
    gens, tree = _loop_generators(g, base), _tree_paths(g, base)
    bound = d * max((len(os) for _, os in gens), default=0)
    if flavor == "path":
        bound += max(len(os) for _, os in tree.values())
    assume(bound <= 6)
    u = AlgebraElement(g, {w: random_rational(rng)
                           for w in all_words(g.arrows, d) if rng.random() < 0.3})
    v = u + _null_on_loops(rng, g, d) if rng.random() < 0.7 else zero(g)
    verdict = functional_equal(u, v, base, flavor)
    differs = _differs_within(u, v, base, flavor, bound)
    assert verdict.separated == differs
    if differs:
        _assert_witness(verdict, u, v)


def test_based_functional_call():
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    j = BasedFunctional(word_element(D, (("v0", "v1"),)), "v0", "loop")
    assert j(loop) == 1
    with pytest.raises(PairingError):
        j(make_path(D, ["v1", "v0"], ["f"]))


def test_based_functional_equal_compares_on_loops_or_on_paths():
    # on a loop at v0, each step v0 -> v1 is A forward or B backward and each
    # step back the other way round, so A and B have one net count on loops;
    # on paths they differ, first on the one step v0 -> v1
    D = double_edge()
    a, b = word_element(D, (("v0", "v1"),)), word_element(D, (("v1", "v0"),))
    on_loops = BasedFunctional(a, "v0").equal(BasedFunctional(b, "v0"))
    assert (on_loops.status, on_loops.witness) == ("equal", None)
    on_paths = BasedFunctional(a, "v0", "path").equal(BasedFunctional(b, "v0", "path"))
    step = make_path(D, ["v0", "v1"], ["f"])
    assert (on_paths.status, on_paths.witness, on_paths.values) == (
        "certified-unequal", step, (1, 0))
    with pytest.raises(PairingError):
        BasedFunctional(a, "v0").equal(BasedFunctional(b, "v0", "path"))
    with pytest.raises(PairingError):
        BasedFunctional(a, "v0").equal(BasedFunctional(b, "v1"))


# the arrows of double_edge() and its loops at v0, which alternate v0, v1
A, B = ("v0", "v1"), ("v1", "v0")


def _d_loop(flags):
    return make_path(double_edge(), ["v0", "v1"] * (len(flags) // 2) + ["v0"],
                     list(flags))


def _failed(report):
    """The failure lists of the laws that failed, by name."""
    return {name: entry["failures"] for name, entry in report["axioms"].items()
            if not entry["passed"]}


def test_hopf_report_negative_control(monkeypatch):
    D = double_edge()
    monkeypatch.setattr(algebra, "antipode", lambda u: u)  # not an antipode
    report = hopf_axiom_report(D, 2)
    assert not report["axioms"]["antipode"]["passed"]
    assert not report["all_passed"]
    assert _failed(hopf_axiom_report(D, 2, max_failures=1)) == {
        "antipode": [{"word": (A,)}],
        "dual_antipode": [{"loop": _d_loop("ff"), "word": (A,)}],
    }
    assert _failed(report) == {
        "antipode": [{"word": w} for w in ((A,), (B,), (A, A), (A, B), (B, A))],
        "dual_antipode": [{"loop": _d_loop(f), "word": (A,)} for f in ("ff", "ffff")],
    }


def _early_cuts(u):
    # deconcatenation that keeps only the cuts before the second letter
    out = {}
    for w, c in u.coeffs.items():
        for i in range(min(len(w), 1) + 1):
            out[(w[:i], w[i:])] = out.get((w[:i], w[i:]), 0) + c
    return TensorPair(u.graph, out)


def test_hopf_report_coassociativity_negative_control(monkeypatch):
    D = double_edge()
    assert hopf_axiom_report(D, 2)["axioms"]["coassociativity"]["passed"]
    monkeypatch.setattr(algebra, "coproduct", _early_cuts)
    report = hopf_axiom_report(D, 2)
    assert not report["axioms"]["coassociativity"]["passed"]
    assert report["axioms"]["commutativity"]["passed"]
    assert not report["all_passed"]
    first = [{"word": (A, A)}]
    assert _failed(hopf_axiom_report(D, 2, max_failures=1)) == {
        "coassociativity": first, "counit": first,
        "bialgebra": [{"words": ((A,), (A,))}], "antipode": first,
    }
    long_words = [{"word": w} for w in ((A, A), (A, B), (B, A), (B, B))]
    assert _failed(report) == {
        "coassociativity": long_words, "counit": long_words,
        "bialgebra": [{"words": ((A,), w)} for w in ((A,), (B,), (A, A), (A, B), (B, A))],
        "antipode": long_words,
    }


def test_hopf_report_dual_shuffle_negative_control(monkeypatch):
    # concatenation in place of the basis shuffle of two words: every law
    # that multiplies words sees it, the dual shuffle law by pairing loops
    D = double_edge()
    monkeypatch.setattr(algebra, "shuffle_words", lambda u, v: {u + v: 1})
    report = hopf_axiom_report(D, 2, max_failures=3)
    assert set(_failed(report)) == {"commutativity", "bialgebra", "antipode",
                                    "dual_shuffle"}
    words = all_words(D.arrows, 2)
    split_pairs = [(u, v) for u, v in combinations_with_replacement(words, 2)
                   if len(u) + len(v) <= 2]

    def first_split(loop):
        return next(({"loop": loop, "words": (u, v)} for u, v in split_pairs
                     if pair(word_element(D, u + v), loop)
                     != pair(word_element(D, u), loop) * pair(word_element(D, v), loop)),
                    None)

    expected = [f for f in map(first_split, _generator_products(D, "v0", 2).values())
                if f is not None][:3]
    assert _failed(report)["dual_shuffle"] == expected
    assert expected[0] == {"loop": _d_loop("ff"), "words": ((A,), (A,))}


def test_hopf_report_fails_a_law_even_when_no_failure_is_listed(monkeypatch):
    T = standard_triangle()

    def unsigned_reversal(u):
        return AlgebraElement(u.graph, {w[::-1]: c for w, c in u.coeffs.items()})

    monkeypatch.setattr(algebra, "antipode", unsigned_reversal)
    listed = hopf_axiom_report(T, 1, max_failures=1)
    silent = hopf_axiom_report(T, 1, max_failures=0)
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


def _generator_products(g, base, d):
    """The products of k <= d generator loops, by k, each k in `product`
    order, keyed by their tuple of generators: the loops the dual laws of
    `hopf_axiom_report` run on."""
    gens = _loop_generators(g, base)
    return {word: make_path(g, *_product(base, word))
            for k in range(d + 1) for word in product(gens, repeat=k)}


_DUAL_LAWS = ("dual_shuffle", "dual_concat", "dual_antipode")


def _fraction_dual_laws(graph, d, loops, loop_pairs, max_failures=5):
    """The dual laws of `hopf_axiom_report` on the given loops and on pairs
    of them, recomputed on the `Fraction` pairings of `word_pairings_all`, as
    the laws are stated, through the maps of `pathint.algebra` as they are
    when it runs."""
    words = all_words(graph.arrows, d)
    sig = {l: word_pairings_all(l, d) for l in loops}

    def dual_shuffle():
        for l in loops:
            s = sig[l]
            for u, v in combinations_with_replacement(words, 2):
                if len(u) + len(v) <= d and (
                        sum(m * s[w] for w, m in algebra.shuffle_words(u, v).items())
                        != s[u] * s[v]):
                    yield {"loop": l, "words": (u, v)}
                    break

    def dual_concat():
        for la, lb in loop_pairs:
            cat = word_pairings_all(algebra.concat(la, lb), d)
            for w in words:
                if cat[w] != sum(sig[la][w[:i]] * sig[lb][w[i:]] for i in range(len(w) + 1)):
                    yield {"loops": (la, lb), "word": w}
                    break

    def dual_antipode():
        for l in loops:
            s_inv = word_pairings_all(inverse(l), d)
            for w in words:
                ju = algebra.antipode(word_element(graph, w))
                if sum(c * sig[l][x] for x, c in ju.coeffs.items()) != s_inv[w]:
                    yield {"loop": l, "word": w}
                    break

    laws = {}
    for name, failures in zip(_DUAL_LAWS, (dual_shuffle(), dual_concat(), dual_antipode())):
        found = list(islice(failures, max(max_failures, 1)))
        laws[name] = {"passed": not found, "failures": found[:max_failures]}
    return laws


def _with_fraction_dual_laws(report, graph, max_failures=5):
    """Reference for the dual laws of `hopf_axiom_report`: the report with
    each dual law recomputed by `_fraction_dual_laws` on the products of at
    most d generator loops, and the concatenation law on each ordered pair
    of products of k_a and k_b generator loops with k_a + k_b <= d."""
    d, base = report["degree_bound"], report["base"]
    products = _generator_products(graph, base, d)
    loop_pairs = [(la, lb) for (wa, la), (wb, lb) in product(products.items(), repeat=2)
                  if len(wa) + len(wb) <= d]
    axioms = {**report["axioms"], **_fraction_dual_laws(
        graph, d, list(products.values()), loop_pairs, max_failures)}
    return {**report, "axioms": axioms,
            "all_passed": all(a["passed"] for a in axioms.values())}


def _scanned_verdicts(graph, d, base, bound):
    """Whether each dual law holds on every loop up to the length bound, and
    the concatenation law on every loop pair of total length up to it."""
    loops = list(enumerate_paths(graph, base, bound, loops_only=True))
    loop_pairs = [(la, lb) for la, lb in product(loops, repeat=2)
                  if la.length + lb.length <= bound]
    laws = _fraction_dual_laws(graph, d, loops, loop_pairs, max_failures=0)
    return {name: law["passed"] for name, law in laws.items()}


def _dual_verdicts(report):
    return {name: report["axioms"][name]["passed"] for name in _DUAL_LAWS}


def _unsigned_reversal(u):
    return AlgebraElement(u.graph, {w[::-1]: c for w, c in u.coeffs.items()})


@pytest.mark.parametrize("fixture, degree, bound", [
    (standard_triangle, 2, 6), (standard_square, 2, 8), (double_edge, 3, 6),
    (wedge_of_cycles, 2, 6), (lambda: directed_cycle(3), 2, 6)])
def test_dual_laws_match_their_fraction_reference(monkeypatch, fixture, degree, bound):
    # on these fixtures a scan of the loops up to the bound already meets a
    # failure of the unsigned reversal, so it gives the report's verdicts
    g = fixture()
    for antipode_fn, max_failures in ((antipode, 5), (_unsigned_reversal, 3)):
        monkeypatch.setattr(algebra, "antipode", antipode_fn)
        report = hopf_axiom_report(g, degree, max_failures=max_failures)
        assert report == _with_fraction_dual_laws(report, g, max_failures)
        assert _dual_verdicts(report) == _scanned_verdicts(g, degree, report["base"], bound)
    assert report["all_passed"] is False  # the unsigned reversal fails


def test_dual_laws_match_their_fraction_reference_on_random_digraphs():
    rng = random.Random(21)
    for _ in range(10):
        g = random_digraph(rng, max_vertices=4, p=0.5)
        base = rng.choice(g.vertices)
        report = hopf_axiom_report(g, 2, base=base)
        assert report == _with_fraction_dual_laws(report, g)


def test_the_dual_antipode_law_sees_a_cycle_far_from_the_base(monkeypatch):
    # every loop of 8 steps or fewer at x is a backtrack along the stick, so
    # a scan of those passes the unsigned reversal; the generator loop runs
    # round the 4-cycle, and the products fail it
    g = _lollipop()
    assert hopf_axiom_report(g, 2, base="x")["all_passed"]
    monkeypatch.setattr(algebra, "antipode", _unsigned_reversal)
    report = hopf_axiom_report(g, 2, base="x")
    assert _dual_verdicts(report) == {
        "dual_shuffle": True, "dual_concat": True, "dual_antipode": False}
    assert _scanned_verdicts(g, 2, "x", 8)["dual_antipode"]
    (gen,) = _loop_generators(g, "x")
    assert report["axioms"]["dual_antipode"]["failures"][0] == {
        "loop": make_path(g, *gen), "word": (("r", "s"),)}


def _perturbed_at_one_word(rng, g, d):
    """A random element of degree <= d to add to a map's value on one word:
    a random word or, as often, an element null on every loop."""
    if rng.random() < 0.5:
        return word_element(g, rng.choice(all_words(g.arrows, d, min_degree=1)),
                            rng.choice((1, -2)))
    return _null_on_loops(rng, g, d)


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(["antipode", "shuffle"]),
       st.integers(min_value=1, max_value=2))
def test_dual_laws_are_the_scan_that_covers_every_product(seed, broken, d):
    # antipode or shuffle_words is changed on one word (or word pair); where
    # the scan's bound reaches every product of up to d generator loops, and
    # so every pair of k_a + k_b <= d, each dual law's verdict is the scan's
    rng = random.Random(seed)
    g = random_digraph(rng, max_vertices=3, p=0.5)
    base = rng.choice(g.vertices)
    bound = d * max((len(os) for _, os in _loop_generators(g, base)), default=0)
    assume(bound <= 6)
    if broken == "antipode":
        w = rng.choice(all_words(g.arrows, d, min_degree=1))
        extra, real = _perturbed_at_one_word(rng, g, len(w)), algebra.antipode

        def patched(u):
            return real(u) + extra if set(u.coeffs) == {w} else real(u)
        name = "antipode"
    else:
        # the pairs of the dual shuffle law, in the order it passes them
        u0, v0 = rng.choice([(u, v) for u, v in combinations_with_replacement(
            all_words(g.arrows, d), 2) if 1 <= len(u) + len(v) <= d])
        extra = _perturbed_at_one_word(rng, g, len(u0) + len(v0)).coeffs
        real = algebra.shuffle_words

        def patched(u, v):
            out = real(u, v)
            return _sum_terms([*out.items(), *extra.items()]) if (u, v) == (u0, v0) else out
        name = "shuffle_words"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, name, patched)
        report = hopf_axiom_report(g, d, base=base)
        assert _dual_verdicts(report) == _scanned_verdicts(g, d, base, bound)


def test_dual_concat_negative_control(monkeypatch):
    # concatenating in the wrong order breaks Chen's identity on loops that
    # go round different cycles; the kernel's own signature of the product
    # is what catches it
    monkeypatch.setattr(algebra, "concat", lambda la, lb: concat(lb, la))
    assert _failed(hopf_axiom_report(wedge_of_cycles(), 2)).keys() == {"dual_concat"}


def test_hopf_report_rejects_a_negative_degree_bound():
    with pytest.raises(PathError, match="degree_bound must be non-negative"):
        hopf_axiom_report(wedge_of_cycles(), -1)


def test_functional_equal_checks_the_base_before_comparing():
    g = wedge_of_cycles()
    with pytest.raises(PairingError, match="unknown base vertex 'nope'"):
        functional_equal(zero(g), zero(g), "nope")


def _both_concatenations(w1, w2):
    """Concatenation in both orders, with multiplicity: a product that
    reads positions only and is not associative (a, b, c fails, a, b, a
    holds)."""
    out = {}
    for w in (tuple(w1) + tuple(w2), tuple(w2) + tuple(w1)):
        out[w] = out.get(w, 0) + 1
    return out


def _extend(product_fn, d1, d2):
    out = {}
    for w1, c1 in d1.items():
        for w2, c2 in d2.items():
            for w, m in product_fn(w1, w2).items():
                out[w] = out.get(w, 0) + c1 * c2 * m
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("fixture, degree", [(standard_triangle, 2), (double_edge, 3)])
def test_associativity_lists_every_failing_triple_of_a_full_scan(
        monkeypatch, fixture, degree):
    g = fixture()
    g = Digraph(g.vertices, g.arrows)  # unbased: no dual laws
    words = all_words(g.arrows, degree)
    expected = [{"words": (u, v, w)}
                for u, v, w in combinations_with_replacement(words, 3)
                if _extend(_both_concatenations, _extend(_both_concatenations,
                                                         {u: 1}, {v: 1}), {w: 1})
                != _extend(_both_concatenations, {u: 1},
                           _extend(_both_concatenations, {v: 1}, {w: 1}))]
    assert expected and len(expected) < len(words) ** 3
    monkeypatch.setattr(algebra, "shuffle_words", _both_concatenations)
    law = hopf_axiom_report(g, degree, max_failures=10 ** 6)["axioms"]["associativity"]
    assert law == {"passed": False, "failures": expected}
    monkeypatch.undo()
    assert hopf_axiom_report(g, degree)["axioms"]["associativity"]["passed"]


def test_element_host_mismatch():
    T, D = standard_triangle(), double_edge()
    with pytest.raises(PairingError):
        word_element(T, (("v0", "v1"),)) + word_element(D, (("v0", "v1"),))


def test_tensor_rejects_unknown_arrows_in_either_word():
    T = standard_triangle()
    a = T.arrows[0]
    for key in (((("x", "y"),), ()), ((a,), (a, ("v2", "v0")))):
        with pytest.raises(PairingError):
            TensorPair(T, {key: 1})


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_tensor_arithmetic_checks_the_host(op):
    # both tensors spell their words with the arrow v0->v1 of both hosts
    T, S = standard_triangle(), standard_square()
    t = coproduct(word_element(T, (("v0", "v1"),)))
    s = coproduct(word_element(S, (("v0", "v1"),)))
    with pytest.raises(PairingError):
        op(t, s)


def test_from_forms_checks_every_host_before_expanding():
    # the zero form empties the expansion before the foreign form is met
    T, S = standard_triangle(), standard_square()
    with pytest.raises(PairingError):
        from_forms(T, [OneForm(T), OneForm.basis(S, ("v0", "v1"))])


# ------------------------------------- accumulate-then-construct references
# Each linear map as it was before the maps built their results once: the
# terms are added up by hand and the sum goes through the checked
# constructor.  The host checks are left to the maps under test.

def _ref_add(u, v):
    out = dict(u.coeffs)
    for w, c in v.coeffs.items():
        out[w] = out.get(w, Fraction(0)) + c
    return type(u)(u.graph, out)


def _ref_scale(scalar, u):
    s = Fraction(scalar)
    return type(u)(u.graph, {w: s * c for w, c in u.coeffs.items()})


def _ref_shuffle(u, v):
    out = {}
    for w1, c1 in u.coeffs.items():
        for w2, c2 in v.coeffs.items():
            c = c1 * c2
            for w, m in shuffle_words(w1, w2).items():
                out[w] = out.get(w, 0) + c * m
    return AlgebraElement(u.graph, out)


def _ref_coproduct(u):
    out = {}
    for w, c in u.coeffs.items():
        for i in range(len(w) + 1):
            key = (w[:i], w[i:])
            out[key] = out.get(key, Fraction(0)) + c
    return TensorPair(u.graph, out)


def _ref_tensor_shuffle(t1, t2):
    out = {}
    for (u1, u2), c1 in t1.coeffs.items():
        for (v1, v2), c2 in t2.coeffs.items():
            c = c1 * c2
            left = shuffle_words(u1, v1)
            right = shuffle_words(u2, v2)
            for wl, ml in left.items():
                for wr, mr in right.items():
                    key = (wl, wr)
                    out[key] = out.get(key, Fraction(0)) + c * ml * mr
    return TensorPair(t1.graph, out)


def _ref_antipode(u):
    out = {}
    for w, c in u.coeffs.items():
        key = tuple(reversed(w))
        sign = -1 if len(w) % 2 else 1
        out[key] = out.get(key, Fraction(0)) + sign * c
    return AlgebraElement(u.graph, out)


def _ref_pullback(f, u):
    fiber = {a: [] for a in f.target.arrows}
    for b in f.source.arrows:
        image = (f(b[0]), f(b[1]))
        if image in fiber:
            fiber[image].append(b)
    out = {}
    for w, c in u.coeffs.items():
        pools = [fiber[a] for a in w]
        if any(not pool for pool in pools):
            continue
        for choice in product(*pools):
            out[choice] = out.get(choice, Fraction(0)) + c
    return AlgebraElement(f.source, out)


def _ref_from_forms(graph, forms):
    terms = {(): Fraction(1)}
    for omega in forms:
        new = {}
        for w, c in terms.items():
            for a in graph.arrows:
                v = omega(a)
                if v != 0:
                    key = w + (a,)
                    new[key] = new.get(key, Fraction(0)) + c * v
        terms = new
    return AlgebraElement(graph, terms)


def _ref_change_base_point(gamma, u):
    words = list(u.coeffs)
    heads = signature(inverse(gamma),
                      (w[:i] for w in words for i in range(len(w) + 1)))
    tails = signature(gamma, (w[j:k] for w in words for j in range(len(w) + 1)
                              for k in range(j, len(w) + 1)))
    terms = {}
    for w, c in u.coeffs.items():
        r = len(w)
        for i in range(r + 1):
            head = heads[w[:i]]
            if head == 0:
                continue
            for j in range(i, r + 1):
                tail = tails[w[j:]]
                if tail == 0:
                    continue
                terms[w[i:j]] = terms.get(w[i:j], 0) + c * head * tail
    return AlgebraElement(u.graph, terms)


def _random_words(rng, g, k):
    return [tuple(rng.choice(g.arrows) for _ in range(rng.randint(0, 3)))
            for _ in range(k)]


def _random_map_into(rng, g):
    """A digraph map onto g's vertices from a random source whose arrows
    all map to arrows of g or collapse, so fibres of several arrows and
    empty fibres both occur."""
    names = [f"s{i}" for i in range(rng.randint(2, 7))]
    mapping = {s: rng.choice(g.vertices) for s in names}
    arrows = [(s, t) for s in names for t in names if s != t
              and (mapping[s] == mapping[t] or g.has_arrow(mapping[s], mapping[t]))
              and rng.random() < 0.6]
    return DigraphMap(Digraph(names, arrows), g, mapping)


def _assert_built_alike(new, old):
    assert type(new) is type(old) and new.graph == old.graph
    assert list(new.coeffs.items()) == list(old.coeffs.items())
    assert all(type(c) is Fraction for c in new.coeffs.values())


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_linear_maps_match_their_accumulating_references(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    u = AlgebraElement(g, {w: random_rational(rng)
                           for w in _random_words(rng, g, rng.randint(0, 6))})
    # v repeats some of u's words with a flipped sign, so that u + v and
    # the cross terms of u * v cancel
    flipped = {w: rng.choice((-c, c)) for w, c in u.coeffs.items()
               if rng.random() < 0.7}
    v = AlgebraElement(g, {**{w: random_rational(rng)
                              for w in _random_words(rng, g, rng.randint(0, 3))},
                           **flipped})
    s = rng.choice((0, 1, -1, Fraction(2, 3), 3))
    tu, tv = coproduct(u), coproduct(v)
    cases = [
        (u + v, _ref_add(u, v)), (u - u, _ref_add(u, _ref_scale(-1, u))),
        (s * u, _ref_scale(s, u)), (u * s, _ref_scale(s, u)),
        (shuffle(u, v), _ref_shuffle(u, v)), (u * v, _ref_shuffle(u, v)),
        (coproduct(v), _ref_coproduct(v)), (antipode(u), _ref_antipode(u)),
        (tu + tv, _ref_add(tu, tv)), (s * tv, _ref_scale(s, tv)),
        (tu * tv, _ref_tensor_shuffle(tu, tv)),
    ]
    f = _random_map_into(rng, g)
    cases.append((pullback_element(f, u), _ref_pullback(f, u)))
    forms = [random_form(rng, g, zero_p=rng.choice((0.3, 0.7, 1.0)))
             for _ in range(rng.randint(0, 3))]
    cases.append((from_forms(g, forms), _ref_from_forms(g, forms)))
    gamma = random_path(rng, g, max_len=4)
    cases.append((change_base_point(gamma, v), _ref_change_base_point(gamma, v)))
    for new, old in cases:
        _assert_built_alike(new, old)
