"""Acceptance suite: one test per gate criterion, exact arithmetic
throughout (zero tolerance).  The terminal summary hook in conftest prints
one pass/fail line per criterion."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial

from conftest import (SEED, random_digraph, random_form, random_path,
                      random_rational, random_word, random_zero_form)

from pathint import (AlgebraElement, DigraphMap, OneForm, ZeroForm,
                     closed_one_forms, commutator, compose_maps, concat,
                     cut, directed_cycle, double_edge, elem_equivalent,
                     from_forms, functional_equal, homotopic_loops,
                     hopf_axiom_report, insert_trivial, invariance_verify,
                     invariant_sufficient, inverse, iterated_integral,
                     make_path, move_neighbors, order, pair,
                     pullback_element, push_forward, reduce, standard_square,
                     standard_triangle, steps, trivial_path,
                     validate_digraph, volume_number, wedge_of_cycles,
                     word_element, word_pairing, word_pairings_all, zero)
from pathint.homotopy import change_base_point
from pathint.linalg import span_equal
from pathint.paths import ForwardArrow, InverseArrow

ONE = Fraction(1)


def all_fixtures():
    return [("T", standard_triangle()), ("S", standard_square()),
            ("D", double_edge()), ("C4", directed_cycle(4)),
            ("W", wedge_of_cycles())]


def witness_word(path) -> list[OneForm]:
    """The signed step word of a reduced path: basis form per forward step,
    negated basis form per backward step."""
    word = []
    for s in steps(path):
        if isinstance(s, ForwardArrow):
            word.append(OneForm.basis(path.graph, s.arrow))
        elif isinstance(s, InverseArrow):
            word.append(-OneForm.basis(path.graph, s.arrow))
        else:
            raise AssertionError("witness word is only defined on reduced paths")
    return word


def shuffle_merges(w1: list, w2: list):
    """All (r, s)-interleavings of two form words, as lists."""
    r, s = len(w1), len(w2)
    for positions in combinations(range(r + s), r):
        merged, i, j = [], 0, 0
        pos = set(positions)
        for k in range(r + s):
            if k in pos:
                merged.append(w1[i])
                i += 1
            else:
                merged.append(w2[j])
                j += 1
        yield merged


def test_criterion_01_volume_numbers():
    assert volume_number([3, 4]) == 1
    assert volume_number([5, 5]) == 2

    from itertools import groupby
    checked = 0
    for r in range(6):
        for seq in combinations_with_replacement(range(1, 7), r):
            by_runs = 1
            for _, run in groupby(seq):
                by_runs *= factorial(len(list(run)))
            assert volume_number(seq) == by_runs, seq
            checked += 1
    assert checked == 462


def test_criterion_02_closed_form_special_cases():
    rng = random.Random(SEED)
    for _ in range(100):
        g = random_digraph(rng)
        a = rng.choice(g.arrows)
        word = random_word(rng, g, max_degree=4)
        r = len(word)

        single = make_path(g, [a[0], a[1]], ["f"])
        expected = ONE
        for w in word:
            expected *= w(a)
        assert iterated_integral(single, word) == expected / factorial(r)

        out = g.out_arrows(a[1])
        if not out:
            continue
        b = rng.choice(out)
        two = make_path(g, [a[0], a[1], b[1]], ["f", "f"])
        total = Fraction(0)
        for k in range(r + 1):
            left = right = ONE
            for w in word[:k]:
                left *= w(a)
            for w in word[k:]:
                right *= w(b)
            total += left * right / (factorial(k) * factorial(r - k))
        assert iterated_integral(two, word) == total


def test_criterion_03_identity_suite():
    rng = random.Random(SEED + 3)

    for _ in range(200):  # concatenation
        g = random_digraph(rng)
        a = random_path(rng, g, max_len=4)
        b = random_path(rng, g, max_len=4, start=a.end)
        w = random_word(rng, g)
        lhs = iterated_integral(concat(a, b), w)
        rhs = sum((iterated_integral(a, w[:k]) * iterated_integral(b, w[k:])
                   for k in range(len(w) + 1)), Fraction(0))
        assert lhs == rhs

    for _ in range(200):  # inverse
        g = random_digraph(rng)
        a = random_path(rng, g)
        w = random_word(rng, g)
        assert (iterated_integral(inverse(a), w)
                == (-1) ** len(w) * iterated_integral(a, w[::-1]))

    for _ in range(200):  # shuffle multiplicativity
        g = random_digraph(rng)
        a = random_path(rng, g)
        w1 = random_word(rng, g, max_degree=2)
        w2 = random_word(rng, g, max_degree=2)
        lhs = iterated_integral(a, w1) * iterated_integral(a, w2)
        rhs = sum((iterated_integral(a, m) for m in shuffle_merges(w1, w2)),
                  Fraction(0))
        assert lhs == rhs

    for _ in range(200):  # exact integral of a function differential
        g = random_digraph(rng)
        f = random_zero_form(rng, g)
        from pathint import d0
        a = random_path(rng, g)
        assert iterated_integral(a, [d0(f)]) == f(a.end) - f(a.start)
        loop = concat(a, inverse(a))
        assert iterated_integral(loop, [d0(f)]) == 0

    for _ in range(200):  # trivial-arrow invariance
        g = random_digraph(rng)
        a = random_path(rng, g, max_len=5)
        w = random_word(rng, g)
        base_value = iterated_integral(a, w)
        for i in range(a.length + 1):
            assert iterated_integral(insert_trivial(a, i), w) == base_value

    for _ in range(200):  # backtrack vanishing
        g = random_digraph(rng)
        b = random_path(rng, g, max_len=3)
        a = random_path(rng, g, max_len=3, start=b.end)
        c = random_path(rng, g, max_len=3, start=b.end)
        w = random_word(rng, g)
        spiked = concat(concat(b, concat(a, inverse(a))), c)
        assert iterated_integral(spiked, w) == iterated_integral(concat(b, c), w)

    for _ in range(200):  # constant scaling of the last letter
        g = random_digraph(rng)
        a = random_path(rng, g)
        w = random_word(rng, g)
        c = random_rational(rng, zero_ok=False)
        scaled = w[:-1] + [c * w[-1]]
        assert iterated_integral(a, scaled) == c * iterated_integral(a, w)


def test_criterion_04_equivalence_theorem():
    rng = random.Random(SEED + 4)

    def perturb(path):
        out = path
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                out = insert_trivial(out, rng.randint(0, out.length))
            else:
                i = rng.randint(0, out.length)
                head, tail = cut(out, 0, i), cut(out, i, out.length)
                v = head.end
                spikes = ([make_path(out.graph, [v, a[1]], ["f"])
                           for a in out.graph.out_arrows(v)]
                          + [make_path(out.graph, [v, a[0]], ["b"])
                             for a in out.graph.in_arrows(v)])
                if not spikes:
                    continue
                s = rng.choice(spikes)
                out = concat(concat(head, concat(s, inverse(s))), tail)
        return out

    pairs_checked = 0
    witnesses_checked = 0
    while pairs_checked < 200:
        g = random_digraph(rng)
        a = random_path(rng, g, max_len=6)
        if pairs_checked % 2 == 0:
            b = perturb(a)
        else:
            b = random_path(rng, g, max_len=6, start=a.start)
        pairs_checked += 1

        ra, rb = reduce(a), reduce(b)
        bound = ra.length + rb.length
        equivalent = elem_equivalent(a, b)

        if equivalent:
            depth = min(bound, 3)
            sig_a = word_pairings_all(a, depth)
            sig_b = word_pairings_all(b, depth)
            assert ({w: c for w, c in sig_a.items() if c}
                    == {w: c for w, c in sig_b.items() if c})
        elif a.end == b.end:
            rho = reduce(concat(a, inverse(b)))
            assert rho.length > 0
            word = witness_word(rho)
            assert len(word) <= bound
            separated = any(
                iterated_integral(a, word[:k]) != iterated_integral(b, word[:k])
                for k in range(1, len(word) + 1))
            assert separated, "no separating witness prefix found"
        else:
            assert any(word_pairing(a, (arrow,)) != word_pairing(b, (arrow,))
                       for arrow in g.arrows)

        if ra.length > 0:
            assert iterated_integral(ra, witness_word(ra)) == 1
            witnesses_checked += 1
    assert witnesses_checked >= 50


def test_criterion_05_hopf_axioms():
    for g, degree in ((double_edge(), 3), (standard_triangle(), 2)):
        report = hopf_axiom_report(g, degree, base="v0")
        assert report["all_passed"], report
        for law in ("antipode_involution", "dual_shuffle", "dual_concat",
                    "dual_antipode"):
            assert report["axioms"][law]["passed"], law


def test_criterion_06_closedness_methods_agree():
    expected = {"T": 2, "S": 3, "D": 1, "C4": 4}
    for name, g in all_fixtures():
        kernel_basis = closed_one_forms(g, "kernel")
        pattern_basis = closed_one_forms(g, "patterns")
        assert span_equal([f.vector() for f in kernel_basis],
                          [f.vector() for f in pattern_basis],
                          len(g.arrows))
        if name in expected:
            assert len(kernel_basis) == expected[name] == len(pattern_basis)

    rng = random.Random(SEED + 6)
    for _ in range(50):
        g = random_digraph(rng)
        kb = closed_one_forms(g, "kernel")
        pb = closed_one_forms(g, "patterns")
        assert span_equal([f.vector() for f in kb],
                          [f.vector() for f in pb], len(g.arrows))


def test_criterion_07_invariance():
    for _, g in all_fixtures():
        for f in closed_one_forms(g, "kernel"):
            verdict = invariance_verify(from_forms(g, [f]), "v0")
            assert verdict.status == "invariant"

    T = standard_triangle()
    e1 = from_forms(T, [OneForm.basis(T, ("v0", "v1"))])
    verdict = invariance_verify(e1, "v0")
    assert verdict.status == "counterexample"
    assert verdict.values[0] != verdict.values[1]

    # the explicit pair: the triangle loop versus its contraction
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    contraction = make_path(T, ["v0", "v2", "v0"], ["f", "b"])
    assert any(nb == contraction for nb, _ in move_neighbors(loop))
    assert pair(e1, loop) == 1
    assert pair(e1, contraction) == 0

    for _, g in [("T", standard_triangle()), ("S", standard_square()),
                 ("D", double_edge()), ("C4", directed_cycle(4))]:
        letters = closed_one_forms(g, "kernel")
        qualifying = 0
        for r in range(1, 4):
            for combo in product(letters, repeat=r):
                word = list(combo)
                if not invariant_sufficient(word, g):
                    continue
                qualifying += 1
                elem = from_forms(g, word)
                verdict = invariance_verify(elem, "v0")
                assert verdict.status == "invariant", (word, verdict)
        assert qualifying > 0


def test_criterion_08_pi1_desk_computations():
    expected = {"C4": 1, "T": 0, "S": 0, "D": 0}
    graphs = {"T": standard_triangle(), "S": standard_square(),
              "D": double_edge(), "C4": directed_cycle(4)}
    for name, dim in expected.items():
        result = pi1_candidates_cached(graphs[name], 1)
        assert len(result.candidates) == dim, (name, result.candidates)

    # non-vacuous: on C4 at degree 2 both candidates are proved invariant
    # and each pairs nonzero with the generator loop
    C4 = graphs["C4"]
    around = make_path(C4, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    result = pi1_candidates_cached(C4, 2)
    assert len(result.candidates) == 2
    for candidate in result.candidates:
        assert invariance_verify(candidate, "v0").status == "invariant"
        assert pair(candidate, around) != 0

    D = graphs["D"]
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    result = pi1_candidates_cached(D, 2)
    assert result.invariant_kernel, "trivial kernel would make this vacuous"
    for candidate in result.candidates:
        assert pair(candidate, loop) == 0
    for elem in result.invariant_kernel:
        assert pair(elem, loop) == 0

    e1 = word_element(D, (("v0", "v1"),))
    assert pair(e1, loop) == 1
    verdict = functional_equal(e1, zero(D), "v0", flavor="loop")
    assert verdict.separated


def pi1_candidates_cached(g, degree):
    from pathint import pi1_candidates
    return pi1_candidates(g, "v0", degree)


def test_criterion_09_commutator_lemma():
    W = wedge_of_cycles()
    alpha = make_path(W, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    beta = make_path(W, ["v0", "v4", "v5", "v6", "v0"], ["f"] * 4)
    c = commutator(alpha, beta)

    for a in W.arrows:
        assert word_pairing(c, (a,)) == 0

    for u in W.arrows:
        for v in W.arrows:
            lhs = word_pairing(c, (u, v))
            rhs = (word_pairing(alpha, (u,)) * word_pairing(beta, (v,))
                   - word_pairing(beta, (u,)) * word_pairing(alpha, (v,)))
            assert lhs == rhs, (u, v)

    assert order(c, 2) == 2


def test_criterion_10_functoriality_and_base_points():
    rng = random.Random(SEED + 10)

    def complete_digraph(n, tag):
        vs = [f"{tag}{i}" for i in range(n)]
        return validate_digraph(vs, [(u, v) for u in vs for v in vs if u != v])

    for _ in range(30):
        G = random_digraph(rng, max_vertices=4)
        H = complete_digraph(rng.randint(2, 4), "h")
        K = complete_digraph(rng.randint(2, 4), "k")
        f = DigraphMap(G, H, {v: rng.choice(H.vertices) for v in G.vertices})
        gmap = DigraphMap(H, K, {v: rng.choice(K.vertices) for v in H.vertices})
        u = AlgebraElement(K, {w: random_rational(rng)
                               for w in [tuple()]
                               + [tuple(rng.choices(K.arrows, k=r))
                                  for r in (1, 2, 3)]})
        composed = pullback_element(compose_maps(gmap, f), u)
        assert pullback_element(f, pullback_element(gmap, u)) == composed

        alpha = random_path(rng, G, max_len=5)
        v = AlgebraElement(H, {tuple(rng.choices(H.arrows, k=r)):
                               random_rational(rng) for r in (1, 2)})
        assert pair(pullback_element(f, v), alpha) == pair(v, push_forward(f, alpha))

    T = standard_triangle()
    for _ in range(30):
        gamma = random_path(rng, T, max_len=4)
        x, y = gamma.start, gamma.end
        u = AlgebraElement(T, {tuple(rng.choices(T.arrows, k=r)):
                               random_rational(rng) for r in (1, 2)})
        moved = change_base_point(gamma, u)
        for _ in range(5):
            walk = random_path(rng, T, max_len=4, start=x)
            alpha = concat(walk, inverse(walk))
            conjugated = concat(concat(inverse(gamma), alpha), gamma)
            assert pair(moved, alpha) == pair(u, conjugated)

    gamma = make_path(T, ["v0", "v1"], ["f"])
    u = AlgebraElement(T, {(("v0", "v1"), ("v1", "v2")): ONE,
                           (("v0", "v2"),): Fraction(-2)})
    round_trip = change_base_point(inverse(gamma), change_base_point(gamma, u))
    verdict = functional_equal(round_trip, u, "v1", flavor="loop")
    assert verdict.status == "equal"


def test_criterion_11_homotopy_search():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    verdict = homotopic_loops(loop, trivial_path(T, "v0"))
    assert verdict.status == "yes"
    stages = verdict.certificate.replay()
    assert stages[0] == loop
    assert stages[-1] == trivial_path(T, "v0")

    C = directed_cycle(4)
    generator = make_path(C, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    verdict = homotopic_loops(generator, trivial_path(C, "v0"),
                              length_bound=10, depth_bound=6)
    assert verdict.status == "certified-no"
    all_ones = AlgebraElement(C, {(a,): ONE for a in C.arrows})
    assert verdict.invariant == all_ones
    assert verdict.values == (Fraction(4), Fraction(0))
