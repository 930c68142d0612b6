"""The iterated-integral engine: volume numbers, evaluators, pairings."""

import math
import random
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from conftest import random_digraph, random_path, random_rational, random_word

from pathint import (AlgebraElement, OneForm, PairingError, all_words,
                     commutator, concat, directed_cycle, double_edge,
                     functional_equal, insert_trivial, invariance_verify,
                     inverse, iterated_integral, iterated_integral_direct,
                     make_path, order, pair, pi1_candidates, standard_square,
                     shuffle, standard_triangle, step_pairing, trivial_path,
                     validate_digraph, volume_number, wedge_of_cycles, word_element,
                     word_pairing, word_pairings_all, zero)
from pathint.integrals import (_all_words_plan, _evaluate, _pairing, _plan, _prefix_closure,
                               _spelled, _support, signature)
from pathint.paths import _generator_words, _product, _runs, runs, steps


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


def _embeds(word, rs):
    """Whether the letters of word's maximal blocks of equal letters appear
    in order among the arrows of the runs rs."""
    arrows = iter(a for a, _ in rs)
    blocks = [a for i, a in enumerate(word) if i == 0 or word[i - 1] != a]
    return all(any(a == b for b in arrows) for a in blocks)


def _direct_pair(elem, p):
    return sum((c * iterated_integral_direct(p, [OneForm.basis(elem.graph, a) for a in w])
                for w, c in elem.coeffs.items()), Fraction(0))


def _assert_pair_is_the_sum_over_words(elem, p):
    """pair against the weighted sum of `word_pairings_all` and against the
    direct sum; and every word that does not embed in the runs pairs to 0
    (the support lemma of `_pairing`)."""
    sig = word_pairings_all(p, elem.degree)
    value = pair(elem, p)
    assert type(value) is Fraction
    assert value == sum((c * sig[w] for w, c in elem.coeffs.items()), Fraction(0))
    assert value == _direct_pair(elem, p)
    rs = runs(p)
    assert all(sig[w] == 0 for w in elem.coeffs if not _embeds(w, rs))


def _chen_support_case(seed, max_len, max_degree):
    """A random element and a walk with planted backtracks and stationary
    steps, sometimes followed by its inverse so that its runs cancel; about
    half the element's words are spelled by blocks on an ordered sample of
    the runs, the rest are random words of degree 0..max_degree."""
    rng = random.Random(seed)
    g = random_digraph(rng, max_vertices=4, p=0.5)
    p = random_path(rng, g, max_len=max_len)
    for _ in range(2):  # each pass plants a backtrack and a trivial step
        i = rng.randint(0, p.length)
        p = insert_trivial(_detour(rng, p, i) or p, rng.randint(0, p.length))
    if rng.random() < 0.2:
        p = concat(p, inverse(p))
    rs = runs(p)
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        if rs and rng.random() < 0.5:
            picks = sorted(rng.sample(range(len(rs)), rng.randint(1, min(3, len(rs)))))
            w = tuple(a for i in picks for a in [rs[i][0]] * rng.randint(1, 2))
        else:
            w = tuple(rng.choice(g.arrows) for _ in range(rng.randint(0, max_degree)))
        coeffs[w[:max_degree]] = random_rational(rng, zero_ok=False)
    return AlgebraElement(g, coeffs), p


def _chen_support_property(max_len, max_degree):
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def prop(seed):
        _assert_pair_is_the_sum_over_words(*_chen_support_case(seed, max_len, max_degree))
    return prop


def test_pair_sums_only_the_words_the_runs_spell():
    _chen_support_property(max_len=5, max_degree=4)()


@pytest.mark.wide
def test_pair_sums_only_the_words_the_runs_spell_on_longer_walks():
    _chen_support_property(max_len=7, max_degree=4)()


def _chen_support_examples():
    D = double_edge()
    a, b = D.arrows
    T = standard_triangle()
    x, y, z = T.arrows
    there_and_back = make_path(D, ["v0", "v1", "v0"], "fb")
    around = make_path(T, ["v0", "v1", "v2", "v0", "v1"], "ffbf")
    return {
        # a^3 and b^2 a^2: each block spelled by one run
        "block in one run": (AlgebraElement(D, {(a, a, a): Fraction(2, 3),
                                                (b, b, a, a): Fraction(-1, 5)}),
                             make_path(D, ["v0", "v1", "v0", "v1"], "fff")),
        # x in the first and the last of the runs x y z^-1 x, with y between
        "one arrow in two runs": (AlgebraElement(T, {(x, y, x): Fraction(3),
                                                     (x, x): Fraction(1, 2),
                                                     (z, x, x): Fraction(-7, 4)}), around),
        "runs that cancel": (AlgebraElement(D, {(a,): Fraction(5), (a, a): Fraction(1, 3),
                                                (): Fraction(-2)}), there_and_back),
        "empty word": (AlgebraElement(T, {(): Fraction(4, 9), (y, z): Fraction(2)}), around),
        "no word embeds": (AlgebraElement(T, {(z, y): Fraction(5), (y, y, x): Fraction(-1)}),
                           make_path(T, ["v0", "v1", "v2"], "ff")),
    }


@pytest.mark.parametrize("name", sorted(_chen_support_examples()))
def test_pair_on_the_cases_of_the_support_rule(name):
    elem, p = _chen_support_examples()[name]
    _assert_pair_is_the_sum_over_words(elem, p)
    if name == "runs that cancel":
        assert runs(p) == [] and pair(elem, p) == -2
    if name == "no word embeds":
        assert pair(elem, p) == Fraction(0)
        assert not any(_embeds(w, runs(p)) for w in elem.coeffs)


# runs of a, b and c in either direction, repeats allowed so that one arrow
# runs more than once; words of a..d, so that d never runs, with blocks of
# repeated letters
_RUNS = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=8)
_WORDS = st.lists(st.lists(st.sampled_from("abcd"), max_size=6).map(tuple), max_size=8)


@given(_RUNS, _WORDS)
@example([("a", 1), ("b", -1), ("a", 1)],
         [("a", "a", "b", "a"), ("b", "a", "a"), ("a", "b", "b", "a", "b"), ("d",), ()])
def test_support_keeps_the_words_whose_blocks_embed(rs, words):
    # like `runs`, no two runs in a row share an arrow
    rs = [next(group) for _, group in groupby(rs, key=lambda r: r[0])]
    assert _support(words, rs) == [i for i, w in enumerate(words) if _embeds(w, rs)]


def _spelled_property(kernel):
    """kernel(rs, d) is the nonzero part of the all-words plan's kernel
    values, on walks of `_chen_support_case` (planted backtracks and
    stationary steps; one in five followed by its inverse, so that its runs
    cancel) and degrees 1-4."""
    @given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=4))
    def prop(seed, d):
        _, p = _chen_support_case(seed, max_len=5, max_degree=4)
        rs = runs(p)
        sig = _evaluate(rs, _all_words_plan(p.graph, d))
        assert kernel(rs, d) == {w: v for w, v in sig.items() if v}
    return prop


def test_spelled_is_the_nonzero_part_of_the_all_words_plan():
    _spelled_property(_spelled)()
    D = double_edge()
    a, b = D.arrows
    assert _spelled(runs(make_path(D, ["v0", "v1", "v0"], "fb")), 4) == {(): 1}
    # S = exp(a) exp(b) exp(a) on the runs a b a (the stationary step drops
    # out): <a a, S> = 1/2 + 1 + 1/2, <b b, S> = 1/2, <a b, S> = <b a, S> = 1
    rs = runs(make_path(D, ["v0", "v1", "v1", "v0", "v1"], "fbff"))
    assert _spelled(rs, 2) == {(): 1, (a,): 2, (a, a): 4, (b,): 1, (a, b): 2, (b, a): 2,
                               (b, b): 1}


def _spelled_by(binomial, top):
    """`_spelled` with C(L + k, k) read as binomial(L, k), and w a^k added
    for k up to top(d - L) only: a broken kernel for the negative controls,
    the right one with binomial C(L + k, k) and top the identity."""
    def kernel(rs, d):
        sig = {(): 1}
        for a, c in rs:
            for w, v in list(sig.items()):
                for k in range(1, top(d - len(w)) + 1):
                    x = w + (a,) * k
                    sig[x] = sig.get(x, 0) + binomial(len(w), k) * c ** k * v
        return {w: v for w, v in sig.items() if v}
    return kernel


@pytest.mark.parametrize("binomial, top", [
    (lambda t, k: 1, lambda room: room),
    (lambda t, k: math.comb(t + k, k), lambda room: min(room, 1))],
    ids=["without the binomial", "k at most 1"])
def test_spelled_property_fails_on_a_broken_update(binomial, top):
    _spelled_property(_spelled_by(lambda t, k: math.comb(t + k, k), lambda room: room))()
    prop = settings(report_multiple_bugs=False, phases=[Phase.generate])(
        _spelled_property(_spelled_by(binomial, top)))
    with pytest.raises(AssertionError):
        prop()


def _letters_embed(word, rs):
    """Whether the letters of word, each in a run of its own, appear in
    order among the arrows of the runs rs."""
    arrows = iter(a for a, _ in rs)
    return all(any(a == b for b in arrows) for a in word)


def _support_needing_a_run_per_letter(support):
    """`_support` less the words that need two runs of one arrow for one
    block: the support rule with a run per letter."""
    def wrong(words, rs):
        return [i for i in support(words, rs) if _letters_embed(words[i], rs)]
    return wrong


def test_pair_property_fails_when_each_letter_needs_its_own_run(monkeypatch):
    monkeypatch.setattr("pathint.integrals._support",
                        _support_needing_a_run_per_letter(_support))
    D = double_edge()
    a = D.arrows[0]
    once = make_path(D, ["v0", "v1"], "f")
    assert pair(word_element(D, (a, a)), once) == 0  # it is 1/2
    prop = settings(report_multiple_bugs=False, phases=[Phase.generate])(
        _chen_support_property(max_len=5, max_degree=4))
    with pytest.raises(AssertionError):
        prop()


def _pairing_without_support(coeffs):
    """The pairing of every word of the element, on one plan over their
    prefix closure: `_pairing` with no support rule."""
    plan = _plan(_prefix_closure(coeffs))

    def value(rs):
        sig = _evaluate(rs, plan)
        return sum((c * Fraction(sig[w], math.factorial(len(w))) for w, c in coeffs.items()),
                   Fraction(0))
    return value


def _long_walk_case(seed):
    """Two elements, each with one word of degree 1, 2 and 3, and a walk
    of 30-60 steps with stationary steps and immediate backtracks, on a
    connected digraph of 6-8 vertices and about 1.7 arrows per vertex.
    Each element's words are drawn from every arrow, some of which the
    walk may miss, or spelled by blocks on an ordered sample of the walk's
    runs."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(rng.randint(6, 8))]
    arrows = {(vs[i], rng.choice(vs[:i]))[::rng.choice((1, -1))] for i in range(1, len(vs))}
    while len(arrows) < 1.7 * len(vs):
        arrows.add(tuple(rng.sample(vs, 2)))
    g = validate_digraph(vs, sorted(arrows))
    verts, flags, back = [vs[0]], [], None
    for _ in range(rng.randint(30, 60)):
        v, x = verts[-1], rng.random()
        if x < 0.1:  # a stationary step
            w, o = v, "f"
        else:
            w, o = back if x < 0.25 and back else rng.choice(
                [(a[1], "f") for a in g.out_arrows(v)] + [(a[0], "b") for a in g.in_arrows(v)])
            back = (v, "b" if o == "f" else "f")
        verts.append(w)
        flags.append(o)
    p = make_path(g, verts, flags)
    rs = runs(p)

    def element():
        spelled = len(rs) >= 3 and rng.random() < 0.5
        coeffs = {}
        for d in (1, 2, 3):
            if spelled:
                picks = sorted(rng.sample(range(len(rs)), d))
                w = tuple(a for i in picks for a in [rs[i][0]] * rng.randint(1, 2))[:d]
            else:
                w = tuple(rng.choice(g.arrows) for _ in range(d))
            coeffs[w] = random_rational(rng, zero_ok=False)
        return AlgebraElement(g, coeffs)
    return element(), element(), p


def test_pair_of_shuffle_products_on_long_walks(monkeypatch):
    # the benchmark's shape: pair of a shuffle product of degree <= 6 with a
    # 30-60 step walk; the cases reach both a plan over the support and the
    # plan of every word
    sizes, plans = [], set()

    def counted(words):
        words = list(words)
        sizes.append(len(words))
        return _plan(words)
    monkeypatch.setattr("pathint.integrals._plan", counted)
    for seed in range(12):
        a, b, p = _long_walk_case(seed)
        u, rs = shuffle(a, b), runs(p)
        assert 30 <= p.length <= 60 and u.degree <= 6
        sizes.clear()
        value = pair(u, p)
        every = len(_prefix_closure(u.coeffs))
        plans.update("every" if n == every else "support" for n in sizes)
        assert value == _pairing_without_support(u.coeffs)(rs)
        assert value == pair(a, p) * pair(b, p)
    assert plans == {"support", "every"}


def _multi_path_elements(g, rng):
    """Random elements of degree 1..3, one with only the words of the
    base's first out-arrow (it misses the letters of most generator-loop
    products), the zero element and the pi1 candidates of degree 2."""
    words = all_words(g.arrows, 3, min_degree=1)
    out = [AlgebraElement(g, {rng.choice(words): random_rational(rng) for _ in range(5)})
           for _ in range(3)]
    a = g.out_arrows("v0")[0]
    out.append(AlgebraElement(g, {(a,): Fraction(1), (a, a): Fraction(-1, 2),
                                  (a, a, a): Fraction(1, 6)}))
    out.append(zero(g))
    out.extend(pi1_candidates(g, "v0", 2).candidates)
    return out


MULTI_PATH_FIXTURES = [standard_triangle, standard_square, double_edge,
                       lambda: directed_cycle(4), wedge_of_cycles]


def _wedge_null_pair():
    """Two elements on the wedge that differ by a null loop functional: a
    loop at v0 crosses the arrows of each cycle equally often, and the
    words of one cycle miss the letters of the other cycle's loops."""
    W = wedge_of_cycles()
    a, b, c, d = ("v0", "v1"), ("v1", "v2"), ("v0", "v4"), ("v4", "v5")
    return tuple(AlgebraElement(W, {(x,): Fraction(1), (y,): Fraction(1),
                                    (x, x): Fraction(1), (y, y): Fraction(1, 3)})
                 for x, y in ((a, c), (b, d)))


def test_multi_path_callers_answer_as_without_the_support_rule(rng, monkeypatch):
    cases = [_multi_path_elements(f(), rng) for f in MULTI_PATH_FIXTURES]
    cases.append(list(_wedge_null_pair()))

    def answers():
        out = []
        for elements in cases:
            for u in elements:
                out.append(invariance_verify(u, "v0"))
                for v in elements:
                    for flavor in ("loop", "path"):
                        out.append(functional_equal(u, v, "v0", flavor))
        return out
    pruned = answers()
    assert {verdict.status for verdict in pruned} == {
        "invariant", "counterexample", "equal", "certified-unequal"}
    monkeypatch.setattr("pathint.algebra._pairing", _pairing_without_support)
    monkeypatch.setattr("pathint.homotopy._pairing", _pairing_without_support)
    assert answers() == pruned


def test_later_paths_share_one_plan_of_every_word(monkeypatch):
    # the first nontrivial product of the wedge's generator loops goes around
    # one cycle, so its support misses the other cycle's words and gets a
    # smaller plan; every later path is evaluated on one plan of every word,
    # made once.  A first path whose support holds more than half the words
    # gets that plan at once: a loop around both cycles spells every word,
    # and a path around the first cycle and on to v4 spells 6 of the 8.
    # Every value is the one with no support rule.
    plans = []

    def counted(words):
        words = list(words)
        plans.append(len(words))
        return _plan(words)
    monkeypatch.setattr("pathint.integrals._plan", counted)
    u, v = _wedge_null_pair()
    coeffs = (u + 2 * v).coeffs
    every = len(_prefix_closure(coeffs))
    loops = [_runs(*_product("v0", w)) for w in _generator_words(u.graph, "v0", 2)][1:]
    both = next(rs for rs in loops if len({a for a, _ in rs}) == len(u.graph.arrows))

    def planned(first):
        plans.clear()
        order = [first] + [rs for rs in loops if rs != first]
        value = _pairing(coeffs)
        assert [value(rs) for rs in order] == list(map(_pairing_without_support(coeffs), order))
        return list(plans)
    assert len(loops) > 2
    first = planned(loops[0])
    assert len(first) == 2 and first[0] < first[1] == every
    assert planned(both) == [every]
    on = runs(make_path(u.graph, ["v0", "v1", "v2", "v3", "v0", "v4"], "fffff"))
    assert planned(on) == [every]


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
