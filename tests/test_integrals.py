"""The iterated-integral engine: volume numbers, evaluators, pairings."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_digraph, random_path, random_rational, random_word

from pathint import (AlgebraElement, OneForm, PairingError, all_words,
                     commutator, concat, double_edge, insert_trivial, inverse,
                     iterated_integral, iterated_integral_direct, make_path,
                     order, pair, standard_triangle, step_pairing, trivial_path,
                     volume_number, wedge_of_cycles, word_element,
                     word_pairing, word_pairings_all, zero)
from pathint.integrals import signature
from pathint.paths import steps


def test_volume_number_values():
    assert volume_number([]) == 1
    assert volume_number([2]) == 1
    assert volume_number([1, 1, 1]) == 6
    assert volume_number([1, 2, 2, 5, 5, 5]) == 12


def test_volume_number_rejects_decreasing():
    with pytest.raises(PairingError):
        volume_number([2, 1])


@pytest.mark.parametrize("seq", [[0], [0, 0], [-3, -3], [1, 2, 0]])
def test_volume_number_rejects_indices_below_one(seq):
    with pytest.raises(PairingError) as info:
        volume_number(seq)
    assert str(info.value) == f"index sequence {tuple(seq)!r} has an entry below 1"


@pytest.mark.parametrize("seq", [[1.5, 2], "12", [1, True], [2, "3"], 5, None])
def test_volume_number_rejects_entries_that_are_not_ints(seq):
    with pytest.raises(PairingError) as info:
        volume_number(seq)
    # a sequence that is not iterable has no entries to read
    assert str(info.value) == (
        f"index sequence {seq!r} is not iterable" if seq in (5, None)
        else f"index sequence {tuple(seq)!r} has an entry that is not an int")


def test_step_pairing_signs():
    T = standard_triangle()
    omega = OneForm(T, {("v0", "v1"): Fraction(3, 2)})
    p = make_path(T, ["v0", "v1", "v1", "v0"], ["f", "f", "b"])
    fwd, triv, back = steps(p)
    assert step_pairing(omega, fwd) == Fraction(3, 2)
    assert step_pairing(omega, triv) == 0
    assert step_pairing(omega, back) == Fraction(-3, 2)


def test_empty_word_integrates_to_one(rng):
    g = random_digraph(rng)
    p = random_path(rng, g)
    assert iterated_integral(p, []) == 1


def test_trivial_path_kills_positive_degree(rng):
    g = random_digraph(rng)
    w = random_word(rng, g)
    assert iterated_integral(trivial_path(g, g.vertices[0]), w) == 0


def test_dp_matches_direct_evaluator(rng):
    for _ in range(200):
        g = random_digraph(rng)
        p = random_path(rng, g, max_len=6)
        w = random_word(rng, g, max_degree=3)
        assert iterated_integral(p, w) == iterated_integral_direct(p, w)


def test_graph_mismatch_raises():
    T = standard_triangle()
    D = double_edge()
    p = make_path(T, ["v0", "v1"], ["f"])
    with pytest.raises(PairingError):
        iterated_integral(p, [OneForm.basis(D, ("v0", "v1"))])


def test_word_pairing_matches_integral(rng):
    for _ in range(50):
        g = random_digraph(rng)
        p = random_path(rng, g, max_len=6)
        for r in (1, 2):
            for w in list(all_words(g.arrows, r, min_degree=r))[:10]:
                word = [OneForm.basis(g, a) for a in w]
                assert word_pairing(p, w) == iterated_integral(p, word)


def test_word_pairings_all_consistency(rng):
    # the signature kernel against the direct sum over basis forms; degree 3
    # puts runs of one repeated arrow inside words
    for _ in range(15):
        g = random_digraph(rng, max_vertices=3, p=0.6)
        p = random_path(rng, g, max_len=6)
        sig = word_pairings_all(p, 3)
        for w, value in sig.items():
            word = [OneForm.basis(g, a) for a in w]
            assert value == iterated_integral_direct(p, word)


def test_pair_matches_direct_sum(rng):
    for _ in range(20):
        g = random_digraph(rng, max_vertices=4)
        p = random_path(rng, g, max_len=6)
        words = all_words(g.arrows, 3, min_degree=1)
        coeffs = {rng.choice(words): random_rational(rng) for _ in range(4)}
        elem = AlgebraElement(g, coeffs)
        expected = sum((c * iterated_integral_direct(
            p, [OneForm.basis(g, a) for a in w]) for w, c in elem.coeffs.items()),
            Fraction(0))
        assert pair(elem, p) == expected


def _random_case(seed: int):
    rng = random.Random(seed)
    g = random_digraph(rng, max_vertices=4, p=0.5)
    return rng, g, random_path(rng, g)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_chen_identity_on_concatenation(seed):
    rng, g, p = _random_case(seed)
    q = random_path(rng, g, max_len=8, start=p.end)
    sp, sq = word_pairings_all(p, 3), word_pairings_all(q, 3)
    for w, value in word_pairings_all(concat(p, q), 3).items():
        assert value == sum(sp[w[:i]] * sq[w[i:]] for i in range(len(w) + 1))


def _detour(rng, p, i):
    """p with a backtrack along a random arrow at vertex i, or None when no
    arrow meets that vertex."""
    g, v = p.graph, p.vertices[i]
    exits = [(a[1], "f", "b") for a in g.out_arrows(v)]
    exits += [(a[0], "b", "f") for a in g.in_arrows(v)]
    if not exits:
        return None
    u, there, back = rng.choice(exits)
    return make_path(g, p.vertices[:i + 1] + (u,) + p.vertices[i:],
                     p.orientations[:i] + (there, back) + p.orientations[i:])


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_signature_ignores_backtracks_and_trivial_steps(seed):
    rng, g, p = _random_case(seed)
    sig = word_pairings_all(p, 3)
    i = rng.randint(0, p.length)
    assert word_pairings_all(insert_trivial(p, i), 3) == sig
    detour = _detour(rng, p, i)
    if detour is not None:
        assert word_pairings_all(detour, 3) == sig


def test_signature_reads_a_word_set_that_is_not_prefix_closed():
    # the kernel updates a word from its prefixes, so signature adds the
    # prefixes a word set lacks, after its own words
    D = double_edge()
    a, b = D.arrows
    p = make_path(D, ["v0", "v1", "v0"], "ff")
    assert signature(p, [(a, b)]) == {(a, b): 1, (): 1, (a,): 1}
    full = word_pairings_all(p, 2)
    sig = signature(p, [(a, b), (b, a)])
    assert list(sig) == [(a, b), (b, a), (), (a,), (b,)]
    assert sig == {w: full[w] for w in sig}
    assert sig[(a, b)] == 1 and sig[(b, a)] == 0


# form values whose denominators are coprime, so that every common
# denominator of a word is a product of several of them
COPRIME_VALUES = (Fraction(1, 7), Fraction(-5, 9), Fraction(11, 4), Fraction(0))


def _coprime_word(rng, g, degree):
    return [OneForm(g, {a: rng.choice(COPRIME_VALUES) for a in g.arrows})
            for _ in range(degree)]


@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=5))
def test_integral_matches_direct_sum_with_planted_detours(seed, degree):
    rng = random.Random(seed)
    g = random_digraph(rng, max_vertices=4, p=0.5)
    p = random_path(rng, g, max_len=5)
    for _ in range(2):  # each pass plants a backtrack and a trivial step
        i = rng.randint(0, p.length)
        p = insert_trivial(_detour(rng, p, i) or p, rng.randint(0, p.length))
    word = _coprime_word(rng, g, degree)
    assert iterated_integral(p, word) == iterated_integral_direct(p, word)


@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=5))
def test_integral_ignores_backtracks_and_trivial_steps(seed, degree):
    rng, g, p = _random_case(seed)
    word = _coprime_word(rng, g, degree)
    value = iterated_integral(p, word)
    i = rng.randint(0, p.length)
    assert iterated_integral(insert_trivial(p, i), word) == value
    detour = _detour(rng, p, i)
    if detour is not None:
        assert iterated_integral(detour, word) == value


@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=3))
def test_word_pairings_all_keys_follow_all_words(seed, degree):
    _, g, p = _random_case(seed)
    assert list(word_pairings_all(p, degree)) == all_words(g.arrows, degree)


def test_all_words_order_and_count():
    T = standard_triangle()
    words = list(all_words(T.arrows, 2))
    assert words[0] == ()
    assert len(words) == 1 + 3 + 9
    index = {a: i for i, a in enumerate(T.arrows)}
    key = lambda w: (len(w), tuple(index[a] for a in w))
    assert words == sorted(words, key=key)


def test_pair_is_bilinear(rng):
    g = random_digraph(rng)
    p = random_path(rng, g, max_len=5)
    u = word_element(g, (g.arrows[0],))
    v = word_element(g, (g.arrows[0], g.arrows[0]))
    combo = 2 * u - 3 * v
    assert pair(combo, p) == 2 * pair(u, p) - 3 * pair(v, p)


def test_pair_of_a_combination_is_the_combination_of_pairings(rng):
    W = wedge_of_cycles()
    paths = [random_path(rng, W, max_len=10, start="v0") for _ in range(3)]
    coeffs = [Fraction(2, 3), Fraction(-5, 7), Fraction(11)]
    elem = AlgebraElement(W, {w: Fraction(1, 1 + i) for i, w in
                              enumerate(all_words(W.arrows, 2, min_degree=1))})
    combo = list(zip(coeffs, paths))
    assert pair(elem, combo) == sum(c * pair(elem, p) for c, p in combo)


def test_pair_with_the_empty_word_and_mixed_denominators(rng):
    # degrees 0-4 in one element, so the common denominator spans several
    # factorials and coefficient denominators
    D = double_edge()
    a, b = D.arrows
    coeffs = {(): Fraction(5, 7), (a,): Fraction(-1, 9), (b, a): Fraction(11, 4),
              (a, a, b): Fraction(3, 25), (a, b, a, b): Fraction(-13, 6),
              (b, b, b, b): Fraction(1, 11)}
    elem = AlgebraElement(D, coeffs)
    for _ in range(10):
        p = random_path(rng, D, max_len=7, start="v0")
        expected = sum((c * iterated_integral_direct(p, [OneForm.basis(D, x) for x in w])
                        for w, c in coeffs.items()), Fraction(0))
        assert pair(elem, p) == expected


def test_pair_of_the_zero_element():
    D = double_edge()
    a = make_path(D, ["v0", "v1"], ["f"])
    b = make_path(D, ["v1", "v0"], ["f"])
    assert pair(zero(D), a) == 0
    assert pair(zero(D), [(Fraction(1, 3), a), (Fraction(2), a)]) == 0
    with pytest.raises(PairingError):
        pair(zero(D), [(Fraction(1), a), (Fraction(1), b)])
    with pytest.raises(PairingError):
        pair(zero(standard_triangle()), a)


def test_high_degree_on_the_double_edge():
    # <a^k, exp(a) exp(b) exp(a)> = sum over i + j = k of 1/(i! j!) = 2^k/k!
    D = double_edge()
    a = D.arrows[0]
    p = make_path(D, ["v0", "v1", "v0", "v1"], ["f", "f", "f"])
    for k in range(81):
        expected = Fraction(2 ** k, math.factorial(k))
        assert word_pairing(p, (a,) * k) == expected
        assert pair(word_element(D, (a,) * k), p) == expected
    assert iterated_integral(p, [OneForm.basis(D, a)] * 80) == expected
    assert order(p, 80) == 1


def test_pair_rejects_mixed_starts():
    D = double_edge()
    u = word_element(D, (("v0", "v1"),))
    a = make_path(D, ["v0", "v1"], ["f"])
    b = make_path(D, ["v1", "v0"], ["f"])
    with pytest.raises(PairingError):
        pair(u, [(Fraction(1), a), (Fraction(1), b)])


def test_order_examples():
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    assert order(loop, 3) == 1
    assert order(trivial_path(D, "v0"), 3) is None
    with pytest.raises(PairingError):
        order(loop, 0)


def _order_by_full_scan(path, max_degree):
    """Reference for `order`: every word up to max_degree paired at once,
    the shortest nonzero one read off."""
    sig = word_pairings_all(path, max_degree)  # keyed by degree
    return next((len(w) for w, v in sig.items() if w and v != 0), None)


def test_order_matches_the_full_scan():
    W = wedge_of_cycles()
    alpha = make_path(W, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    beta = make_path(W, ["v0", "v4", "v5", "v6", "v0"], ["f"] * 4)
    walk = make_path(W, ["v0", "v1", "v2", "v1", "v0", "v4"], "ffbbf")
    cases = {
        alpha: 1,
        commutator(alpha, beta): 2,  # net arrow counts all 0
        commutator(alpha, commutator(alpha, beta)): 3,
        concat(walk, inverse(walk)): None,  # the runs cancel
        insert_trivial(insert_trivial(trivial_path(W, "v2"), 0), 0): None,
        insert_trivial(concat(alpha, inverse(alpha)), 4): None,
    }
    for path, expected in cases.items():
        for max_degree in (1, 2, 3):
            got = order(path, max_degree)
            assert got == _order_by_full_scan(path, max_degree)
            assert got == (expected if expected is not None
                           and expected <= max_degree else None)
    rng = random.Random(5)
    for _ in range(40):
        g = random_digraph(rng)
        path = random_path(rng, g, max_len=6)
        for max_degree in (1, 2, 3):
            assert order(path, max_degree) == _order_by_full_scan(path, max_degree)


def test_filtration_additivity():
    # pairings of degree < r + s vanish on a product of high-order loops
    W = wedge_of_cycles()
    alpha = make_path(W, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    beta = make_path(W, ["v0", "v4", "v5", "v6", "v0"], ["f"] * 4)
    c = commutator(alpha, beta)
    assert order(alpha, 2) == 1 and order(c, 2) == 2
    for a in W.arrows:
        assert (word_pairing(concat(alpha, beta), (a,))
                == word_pairing(alpha, (a,)) + word_pairing(beta, (a,)))


def test_commutator_requires_shared_base():
    W = wedge_of_cycles()
    alpha = make_path(W, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    shifted = make_path(W, ["v1", "v2", "v3", "v0", "v1"], ["f"] * 4)
    with pytest.raises(Exception):
        commutator(alpha, shifted)


@given(st.integers(min_value=1, max_value=4))
def test_inverse_identity_on_basis_words(r):
    D = double_edge()
    p = make_path(D, ["v0", "v1", "v0", "v1"], ["f", "f", "f"])
    for w in all_words(D.arrows, r, min_degree=r):
        word = [OneForm.basis(D, a) for a in w]
        assert (iterated_integral(inverse(p), word)
                == (-1) ** r * iterated_integral(p, word[::-1]))
