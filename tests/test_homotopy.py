"""Homotopy moves, search, invariance checking, and base-point transport."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (pi1_by_test_pairs, pi1_rows_by_test_pairs, patterned_digraph,
                      random_digraph, random_form, random_path, same_loop_functionals,
                      walked_square_walks, walked_triangle_sets)

from pathint import (AlgebraElement, BasedFunctional, Digraph, DigraphMap,
                     Move, MoveCertificate, OneForm, PathError, all_words,
                     apply_move, box_product, change_base_point,
                     closed_one_forms, concat, directed_cycle, double_edge,
                     enumerate_paths, from_forms, homotopic_loops,
                     identity_map, insert_trivial,
                     invariance_verify, invariant_sufficient, inverse,
                     invert_move, is_closed, is_isosceles, line_digraph,
                     make_path, move_neighbors, one_step_map_homotopy, pair,
                     pi1_candidates, standard_square, standard_triangle,
                     trivial_path, wedge_of_cycles, word_element,
                     word_pairing, word_pairings_all)
from pathint import homotopy, paths
from pathint.forms import closed_arrows
from pathint.graphs import enumerate_patterns
from pathint.homotopy import (MOVE_KINDS, _cell_loops, _less_one, _lists, _moves,
                              _separating_invariant, _test_pairs)
from pathint.integrals import _all_words_plan
from pathint.linalg import Echelon, complement_basis, kernel, span_equal
from pathint.paths import _loop_generators, _non_tree_arrows, _product, runs


def _fixtures():
    return [standard_triangle(), standard_square(), double_edge(),
            directed_cycle(4), wedge_of_cycles(),
            box_product(line_digraph("ff"), line_digraph("ff"))]


def _step_flags(g, u, v):
    """Valid orientation flags for one step from u to v."""
    if u == v:
        return ["f"]
    flags = []
    if g.has_arrow(u, v):
        flags.append("f")
    if g.has_arrow(v, u):
        flags.append("b")
    return flags


def _segment_fills(g, vertices):
    """All orientation tuples realizing the given vertex sequence."""
    choices = [_step_flags(g, vertices[i], vertices[i + 1])
               for i in range(len(vertices) - 1)]
    if any(not c for c in choices):
        return []
    return [tuple(combo) for combo in product(*choices)]


@lru_cache(maxsize=8)
def _candidate_tables(g):
    """The candidate vertices of each move, keyed by the vertices it keeps,
    in vertex input order (fills are left to `_segment_fills`)."""
    rank = {v: i for i, v in enumerate(g.vertices)}

    def ranked(tuples):
        return sorted(tuples, key=lambda t: [rank[v] for v in t])

    squares = walked_square_walks(g)
    triangles = {p for tri in walked_triangle_sets(g) for p in permutations(tri)}
    tables = SimpleNamespace(squares=squares, triangles=triangles, square_corner={},
                             square_sides={}, triangle_apex={})
    # a square walk w0 w1 w2 w3 goes back to w0, so w0 w1 w2 and w0 w3 w2
    # are the two sides of the square from w0 to w2
    for w in ranked(squares):
        tables.square_corner.setdefault(w[:3], []).append(w[3])
        tables.square_sides.setdefault((w[0], w[3]), []).append((w[1], w[2]))
    for x, y, z in ranked(triangles):
        tables.triangle_apex.setdefault((x, z), []).append(y)
    tables.star = {v: sorted({v, *(a[1] for a in g.out_arrows(v)),
                              *(a[0] for a in g.in_arrows(v))}, key=rank.__getitem__)
                   for v in g.vertices}
    return tables


def _moves_by_candidates(loop):
    """Reference for `_moves`: each window's candidate vertices are looked
    up, its orientation fills computed and its `Move` made on the spot."""
    g = loop.graph
    tables = _candidate_tables(g)
    V, O, n = loop.vertices, loop.orientations, loop.length
    for p in range(n - 1):
        window = (V[p], V[p + 1], V[p + 2])
        before = (window, O[p:p + 2])
        if window in tables.triangles:
            for fill in _segment_fills(g, (V[p], V[p + 2])):
                yield Move("triangle-contract", "apply", p, before,
                           ((V[p], V[p + 2]), fill))
        for v2 in tables.square_corner.get(window, ()):
            for fill in _segment_fills(g, (V[p], v2, V[p + 2])):
                yield Move("square-replace", "apply", p, before,
                           ((V[p], v2, V[p + 2]), fill))
        if V[p] == V[p + 2]:
            yield Move("backtrack", "apply", p, before, ((V[p], V[p]), ("f",)))
    for p in range(n - 2):
        if V[p:p + 4] in tables.squares:
            before = (V[p:p + 4], O[p:p + 3])
            for fill in _segment_fills(g, (V[p], V[p + 3])):
                yield Move("square-contract", "apply", p, before,
                           ((V[p], V[p + 3]), fill))
    for p in range(n):
        if V[p] == V[p + 1]:
            yield Move("trivial-drop", "apply", p,
                       ((V[p], V[p]), (O[p],)), ((V[p],), ()))
    for p in range(n):
        ends = (V[p], V[p + 1])
        before = (ends, O[p:p + 1])
        for v1 in tables.triangle_apex.get(ends, ()):
            for fill in _segment_fills(g, (V[p], v1, V[p + 1])):
                yield Move("triangle-contract", "unapply", p, before,
                           ((V[p], v1, V[p + 1]), fill))
        for v1, v3 in tables.square_sides.get(ends, ()):
            for fill in _segment_fills(g, (V[p], v1, v3, V[p + 1])):
                yield Move("square-contract", "unapply", p, before,
                           ((V[p], v1, v3, V[p + 1]), fill))
        if V[p] == V[p + 1]:
            for v1 in tables.star[V[p]]:
                for fill in _segment_fills(g, (V[p], v1, V[p])):
                    yield Move("backtrack", "unapply", p, before,
                               ((V[p], v1, V[p]), fill))
    for p in range(n + 1):
        yield Move("trivial-drop", "unapply", p,
                   ((V[p],), ()), ((V[p], V[p]), ("f",)))


def _assert_raw_moves_match_the_reference(path):
    raw = list(_moves(path.graph, path.vertices, path.orientations))
    assert all(type(t) is tuple and len(t) == 5 for t in raw)
    assert [Move(*t) for t in raw] == list(_moves_by_candidates(path))


@pytest.mark.wide
def test_raw_moves_match_the_move_enumeration_on_fixtures():
    # the fixtures include the double edge and a 3x3 grid
    for g in _fixtures():
        for base in g.vertices:
            for path in enumerate_paths(g, base, 3):
                _assert_raw_moves_match_the_reference(path)
                for i in (0, path.length // 2, path.length):
                    stationary = insert_trivial(path, i)
                    _assert_raw_moves_match_the_reference(stationary)
                    # two stationary steps in a row: a backtrack window x x x
                    _assert_raw_moves_match_the_reference(insert_trivial(stationary, i))


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_raw_moves_match_the_move_enumeration_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    base = rng.choice(g.vertices)
    paths = list(islice(enumerate_paths(g, base, 4), 400))
    for path in rng.sample(paths, min(len(paths), 12)):
        for _ in range(rng.choice((0, 0, 1, 2))):
            path = insert_trivial(path, rng.randint(0, path.length))
        _assert_raw_moves_match_the_reference(path)


def _scan_move_neighbors(loop):
    """Reference for `move_neighbors`: every candidate vertex (and vertex
    pair) of the host is tried at every position against the pattern
    predicates."""
    g = loop.graph
    V, O, n = loop.vertices, loop.orientations, loop.length
    out = []

    def emit(kind, direction, p, before, after):
        move = Move(kind, direction, p, before, after)
        out.append((apply_move(loop, move), move))

    for p in range(n - 1):
        window = (V[p], V[p + 1], V[p + 2])
        before = (window, O[p:p + 2])
        if g.is_triangle_set(*window):
            for fill in _segment_fills(g, (V[p], V[p + 2])):
                emit("triangle-contract", "apply", p, before, ((V[p], V[p + 2]), fill))
        for v2 in g.vertices:
            if g.is_square_tuple((V[p], V[p + 1], V[p + 2], v2)):
                for fill in _segment_fills(g, (V[p], v2, V[p + 2])):
                    emit("square-replace", "apply", p, before, ((V[p], v2, V[p + 2]), fill))
        if V[p] == V[p + 2]:
            emit("backtrack", "apply", p, before, ((V[p], V[p]), ("f",)))
    for p in range(n - 2):
        if g.is_square_tuple(V[p:p + 4]):
            before = (V[p:p + 4], O[p:p + 3])
            for fill in _segment_fills(g, (V[p], V[p + 3])):
                emit("square-contract", "apply", p, before, ((V[p], V[p + 3]), fill))
    for p in range(n):
        if V[p] == V[p + 1]:
            emit("trivial-drop", "apply", p, ((V[p], V[p]), (O[p],)), ((V[p],), ()))
    for p in range(n):
        before = (V[p:p + 2], O[p:p + 1])
        for v1 in g.vertices:
            if g.is_triangle_set(V[p], v1, V[p + 1]):
                for fill in _segment_fills(g, (V[p], v1, V[p + 1])):
                    emit("triangle-contract", "unapply", p, before,
                         ((V[p], v1, V[p + 1]), fill))
        for v1, v3 in product(g.vertices, repeat=2):
            if g.is_square_tuple((V[p], v1, v3, V[p + 1])):
                for fill in _segment_fills(g, (V[p], v1, v3, V[p + 1])):
                    emit("square-contract", "unapply", p, before,
                         ((V[p], v1, v3, V[p + 1]), fill))
        if V[p] == V[p + 1]:
            for v1 in g.vertices:
                if v1 == V[p] or g.has_arrow(V[p], v1) or g.has_arrow(v1, V[p]):
                    for fill in _segment_fills(g, (V[p], v1, V[p])):
                        emit("backtrack", "unapply", p, before, ((V[p], v1, V[p]), fill))
    for p in range(n + 1):
        emit("trivial-drop", "unapply", p, ((V[p],), ()), ((V[p], V[p]), ("f",)))
    return out


def _apply_move_by_make_path(path, move):
    """Reference for `apply_move`: the window is spliced in and the whole
    path is validated again."""
    bv, bo = move.before
    av, ao = move.after
    p, k = move.position, len(bv)
    assert path.vertices[p:p + k] == bv and path.orientations[p:p + k - 1] == bo
    return make_path(path.graph, path.vertices[:p] + av + path.vertices[p + k:],
                     path.orientations[:p] + ao + path.orientations[p + k - 1:])


def test_apply_move_matches_the_whole_path_splice():
    for g in _fixtures():
        for base in g.vertices:
            for loop in enumerate_paths(g, base, 4, loops_only=True):
                got = move_neighbors(loop)
                expected = [(_apply_move_by_make_path(loop, m), m) for _, m in got]
                assert got == expected
                assert [type(nb) for nb, _ in got] == [type(nb) for nb, _ in expected]


def test_apply_move_rejects_a_bad_orientation_or_a_moved_endpoint():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    before = (("v0", "v1", "v2"), ("f", "f"))
    backwards = Move("triangle-contract", "apply", 0, before,
                     (("v0", "v2"), ("b",)))  # the arrow is v0 -> v2
    with pytest.raises(PathError):
        apply_move(loop, backwards)
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    moved = Move("trivial-drop", "unapply", 2, (("v0",), ()),
                 (("v1", "v0"), ("f",)))
    # spliced in, the window still gives a path, v0 v1 v1 v0
    assert _apply_move_by_make_path(loop, moved).vertices == ("v0", "v1", "v1", "v0")
    with pytest.raises(PathError):
        apply_move(loop, moved)


def test_move_neighbors_match_the_vertex_scan_on_fixtures():
    for g in _fixtures():
        for path in enumerate_paths(g, g.vertices[0], 3):
            for p in (path, insert_trivial(path, path.length // 2)):
                assert move_neighbors(p) == _scan_move_neighbors(p)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_move_neighbors_match_the_vertex_scan_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    base = rng.choice(g.vertices)
    loops = list(islice(enumerate_paths(g, base, 4, loops_only=True), 400))
    for loop in rng.sample(loops, min(len(loops), 8)):
        if loop.length < 5 and rng.random() < 0.5:
            loop = insert_trivial(loop, rng.randint(0, loop.length))
        assert move_neighbors(loop) == _scan_move_neighbors(loop)


@lru_cache(maxsize=8)
def _exhaustive_invariants(g):
    """The theorem-backed invariants by the exhaustive scan: the all-ones
    form when closed, the closed basis, then every degree-2 arrow word that
    passes `invariant_sufficient`."""
    out = [from_forms(g, [f]) for f in closed_one_forms(g)]
    ones = OneForm(g, {a: Fraction(1) for a in g.arrows})
    if is_closed(ones):
        out.insert(0, from_forms(g, [ones]))
    out += [word_element(g, w) for w in all_words(g.arrows, 2, min_degree=2)
            if invariant_sufficient([OneForm.basis(g, a) for a in w], g)]
    return tuple(out)


def _refutation_by_pairing(a, b):
    """Reference for the refutation stage of `homotopic_loops`: each
    invariant of the exhaustive scan paired with both loops by `pair`."""
    for elem in _exhaustive_invariants(a.graph):
        va, vb = pair(elem, a), pair(elem, b)
        if va != vb:
            return elem, (va, vb)
    return None


def _assert_refutes_like_the_pairing(a, b):
    verdict = homotopic_loops(a, b, length_bound=6, depth_bound=0)
    expected = _refutation_by_pairing(a, b)
    if expected is None:
        assert verdict.status != "certified-no"
    else:
        assert verdict.status == "certified-no"
        assert (verdict.invariant, verdict.values) == expected
        assert all(type(v) is Fraction for v in verdict.values)
    return verdict.status


def test_homotopic_loops_refutes_like_the_exhaustive_pairing():
    rng = random.Random(11)
    graphs = _fixtures() + [box_product(line_digraph("fb"), line_digraph("bf"))]
    statuses = set()
    for g in graphs:
        base = g.vertices[0]
        loops = list(islice(enumerate_paths(g, base, 4, loops_only=True), 60))
        for _ in range(25):
            statuses.add(_assert_refutes_like_the_pairing(*rng.sample(loops, 2)))
    assert statuses == {"certified-no", "unknown"}


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_homotopic_loops_refutes_like_the_pairing_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    base = rng.choice(g.vertices)
    loops = list(islice(enumerate_paths(g, base, 4, loops_only=True), 100))
    for _ in range(3):
        _assert_refutes_like_the_pairing(rng.choice(loops), rng.choice(loops))
    # a triangle or square move changes the net counts by a boundary, so
    # the pair's difference is nonzero and inside the boundary span
    for loop in rng.sample(loops, min(3, len(loops))):
        moved = [nb for nb, move in move_neighbors(loop)
                 if move.kind in ("triangle-contract", "square-replace",
                                  "square-contract")]
        if moved:
            _assert_refutes_like_the_pairing(loop, rng.choice(moved))


def test_equal_winding_is_separated_at_degree_two():
    # ab against ba on the wedge: every degree-1 invariant agrees, so only
    # the degree-2 stage can refute
    W = wedge_of_cycles()
    a = make_path(W, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    b = make_path(W, ["v0", "v4", "v5", "v6", "v0"], ["f"] * 4)
    ab = make_path(W, a.vertices + b.vertices[1:], ["f"] * 8)
    ba = make_path(W, b.vertices + a.vertices[1:], ["f"] * 8)
    verdict = homotopic_loops(ab, ba, length_bound=8, depth_bound=0)
    assert verdict.status == "certified-no"
    assert verdict.invariant == word_element(W, [("v0", "v1"), ("v0", "v4")])
    assert verdict.values == (1, 0)
    assert (verdict.invariant, verdict.values) == _refutation_by_pairing(ab, ba)
    for elem in _exhaustive_invariants(W):
        if elem.degree == 1:
            assert pair(elem, ab) == pair(elem, ba)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel_of = Echelon.kernel

    def counted(self):
        calls.append(self)
        return kernel_of(self)

    monkeypatch.setattr(Echelon, "kernel", counted)
    return calls


def test_homotopic_pair_skips_the_closed_basis(monkeypatch):
    # a square replacement changes the net counts by the square's boundary:
    # the difference is nonzero but in the boundary span, so no degree-1
    # invariant is tried and the closed basis is never formed
    g = box_product(line_digraph("ff"), line_digraph("ff"))
    a = make_path(g, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)], "ffbb")
    b = make_path(g, [(0, 0), (0, 1), (1, 1), (0, 1), (0, 0)], "ffbb")
    assert dict(runs(a)) != dict(runs(b))
    calls = _count_kernel_calls(monkeypatch)
    assert homotopic_loops(a, b, length_bound=6, depth_bound=2).status == "yes"
    assert calls == []


def test_a_separation_by_the_closed_basis_forms_it_once(monkeypatch):
    # the two generating cycles of the torus have equal length, so the
    # total winding agrees and only a closed basis vector separates them
    g = box_product(directed_cycle(4), directed_cycle(4))
    ring = ["v0", "v1", "v2", "v3", "v0"]
    a = make_path(g, [(v, "v0") for v in ring], "ffff")
    b = make_path(g, [("v0", v) for v in ring], "ffff")
    calls = _count_kernel_calls(monkeypatch)
    verdict = homotopic_loops(a, b, length_bound=8, depth_bound=0)
    assert len(calls) == 1
    assert verdict.status == "certified-no"
    assert (verdict.invariant, verdict.values) == _refutation_by_pairing(a, b)
    assert verdict.invariant.degree == 1
    ones = AlgebraElement(g, {(x,): 1 for x in g.arrows})
    assert pair(ones, a) == pair(ones, b)


def test_words_over_closed_arrows_pass_the_sufficiency_test():
    rng = random.Random(3)
    graphs = _fixtures() + [patterned_digraph(rng) for _ in range(6)]
    graphs.append(Digraph(["x", "y", "z", "w", "t"],
                          [("x", "y"), ("y", "z"), ("x", "z"), ("z", "w"),
                           ("w", "t"), ("t", "z")]))
    for g in graphs:
        closed = closed_arrows(g)
        basis = {a: OneForm.basis(g, a) for a in g.arrows}
        for w in all_words(closed, 3, min_degree=2):
            assert invariant_sufficient([basis[a] for a in w], g)
        for a in set(g.arrows) - set(closed):
            assert not invariant_sufficient([basis[a]], g)
            for b in g.arrows:
                assert not invariant_sufficient([basis[a], basis[b]], g)
                assert not invariant_sufficient([basis[b], basis[a]], g)


def test_move_neighbors_triangle_contraction():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    contraction = make_path(T, ["v0", "v2", "v0"], ["f", "b"])
    neighbors = [p for p, _ in move_neighbors(loop)]
    assert contraction in neighbors


def test_move_neighbors_backtrack_window():
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    neighbors = [p for p, _ in move_neighbors(loop)]
    assert make_path(D, ["v0", "v0"], ["f"]) in neighbors


def test_move_neighbors_trivial_drop_everywhere():
    D = double_edge()
    p = make_path(D, ["v0", "v1", "v1"], ["f", "f"])
    neighbors = [q for q, _ in move_neighbors(p)]
    assert make_path(D, ["v0", "v1"], ["f"]) in neighbors
    stationary = make_path(D, ["v0", "v0"], ["f"])
    assert trivial_path(D, "v0") in [q for q, _ in move_neighbors(stationary)]


def test_square_replacement_neighbors():
    S = standard_square()
    top = make_path(S, ["v0", "v1", "v3"], ["f", "f"])
    bottom = make_path(S, ["v0", "v2", "v3"], ["f", "f"])
    assert bottom in [p for p, _ in move_neighbors(top)]


def _square_with_chords():
    """`standard_square()` (v0->v1, v1->v3, v0->v2, v2->v3) plus the
    arrows v1->v2 and v3->v0: one square and the triangles v0 v1 v2 and
    v1 v2 v3."""
    S = standard_square()
    return Digraph(S.vertices, S.arrows + (("v1", "v2"), ("v3", "v0")))


def test_square_moves_follow_the_walks_around_the_square():
    g = _square_with_chords()
    loop = make_path(g, ["v1", "v2", "v0", "v1"], "fbf")
    # v1 v2 v0 is no walk along the square, so it has no square replacement
    replaced = [t for t in _moves(g, loop.vertices, loop.orientations)
                if t[0] == "square-replace"]
    assert all(t[3][0] + t[4][0][1:2] in walked_square_walks(g) for t in replaced)
    forged = Move("square-replace", "apply", 0, (("v1", "v2", "v0"), ("f", "b")),
                  (("v1", "v3", "v0"), ("f", "f")))
    assert (forged.before, forged.after) not in [t[3:] for t in replaced]
    other = apply_move(loop, forged)
    with pytest.raises(PathError):
        MoveCertificate(loop, (forged,), other).replay()
    assert homotopic_loops(loop, other).status == "certified-no"


def test_pi1_count_of_the_square_with_chords_is_its_first_betti_number():
    g = _square_with_chords()
    # dim H^1 = dim closed 1-forms - (|V| - 1) = 4 - 3
    assert len(closed_one_forms(g)) - (len(g.vertices) - 1) == 1
    assert len(pi1_candidates(g, "v0", 1).candidates) == 1


def test_a_square_walk_is_reached_from_either_end():
    S = standard_square()
    there_and_back = make_path(S, ["v0", "v1", "v0", "v2", "v0"], "fbfb")
    around = make_path(S, ["v0", "v1", "v3", "v2", "v0"], "ffbb")
    for a, b in ((there_and_back, around), (around, there_and_back)):
        verdict = homotopic_loops(a, b, 12, 1)
        assert verdict.status == "yes"
        verdict.certificate.replay()


def test_apply_move_verifies_window():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    _, move = next((pm for pm in move_neighbors(loop)
                    if pm[0].vertices == ("v0", "v2", "v0")))
    assert apply_move(loop, move).vertices == ("v0", "v2", "v0")
    other = make_path(T, ["v0", "v2", "v0"], ["f", "b"])
    with pytest.raises(PathError):
        apply_move(other, move)


def test_invert_move_roundtrip():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    for neighbor, move in move_neighbors(loop):
        assert apply_move(neighbor, invert_move(move)) == loop


def test_replay_accepts_every_standard_move_both_ways():
    T = standard_triangle()
    S = standard_square()
    loops = [make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"]),
             make_path(S, ["v0", "v1", "v3", "v2", "v0"], ["f", "f", "b", "b"]),
             make_path(S, ["v0", "v2", "v2", "v0"], ["f", "f", "b"])]
    kinds = set()
    for loop in loops:
        for neighbor, move in move_neighbors(loop):
            kinds.add(move.kind)
            MoveCertificate(loop, (move,), neighbor).replay()
            MoveCertificate(neighbor, (invert_move(move),), loop).replay()
    assert kinds == {"triangle-contract", "square-replace", "square-contract",
                     "backtrack", "trivial-drop"}


def test_replay_rejects_a_forged_square_contraction():
    # one "square-contract" taking the generator of the directed 4-cycle to
    # the trivial loop: the window is in the path and the result is a path,
    # but no square of the graph contracts it
    C = directed_cycle(4)
    generator = make_path(C, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    forged = Move("square-contract", "apply", 0,
                  (generator.vertices, generator.orientations), (("v0",), ()))
    assert apply_move(generator, forged) == trivial_path(C, "v0")
    with pytest.raises(PathError):
        MoveCertificate(generator, (forged,), trivial_path(C, "v0")).replay()


def test_replay_rejects_a_move_with_the_wrong_kind_or_direction():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    neighbor, move = next(pm for pm in move_neighbors(loop)
                          if pm[1].kind == "triangle-contract")
    for kind, direction in (("square-contract", "apply"),
                            ("triangle-contract", "unapply")):
        wrong = Move(kind, direction, move.position, move.before, move.after)
        with pytest.raises(PathError):
            MoveCertificate(loop, (wrong,), neighbor).replay()


def _is_stated_move(g, move):
    """Reference for the replay rule: the move's two windows are related by
    its kind in its direction; read as a contraction, the longer window must
    shrink to the shorter one through the stated pattern of g."""
    if move.direction == "apply":
        (lv, _), (sv, _) = move.before, move.after
    elif move.direction == "unapply":
        (lv, _), (sv, _) = move.after, move.before
    else:
        return False
    kind = move.kind
    if kind == "triangle-contract":
        return len(lv) == 3 and sv == (lv[0], lv[2]) and g.is_triangle_set(*lv)
    if kind == "square-replace":
        return (len(lv) == len(sv) == 3 and (sv[0], sv[2]) == (lv[0], lv[2])
                and g.is_square_tuple((*lv, sv[1])))
    if kind == "square-contract":
        return (len(lv) == 4 and sv == (lv[0], lv[3])
                and g.is_square_tuple(lv))
    if kind == "backtrack":
        return len(lv) == 3 and lv[0] == lv[2] and sv == (lv[0], lv[0])
    if kind == "trivial-drop":
        return len(lv) == 2 and lv[0] == lv[1] and sv == (lv[0],)
    return False


def _replays_by_stated_move(path, move):
    try:
        apply_move(path, move)
    except PathError:
        return False
    return _is_stated_move(path.graph, move)


def _replays(path, move):
    try:
        MoveCertificate(path, (move,), apply_move(path, move)).replay()
    except PathError:
        return False
    return True


def _altered_copies(move):
    """The move, and copies with its kind, direction or position changed."""
    yield move
    for kind in MOVE_KINDS:
        if kind != move.kind:
            yield replace(move, kind=kind)
    yield replace(move, direction="unapply" if move.direction == "apply" else "apply")
    for shift in (-1, 1):
        yield replace(move, position=move.position + shift)


def test_replay_accepts_what_the_stated_move_reference_accepts():
    accepted = rejected = 0
    for g in _fixtures():
        for base in g.vertices:
            for loop in enumerate_paths(g, base, 4, loops_only=True):
                for neighbor, move in move_neighbors(loop):
                    for path, m in ((loop, move), (neighbor, invert_move(move))):
                        for copy in _altered_copies(m):
                            verdict = _replays(path, copy)
                            assert verdict == _replays_by_stated_move(path, copy)
                            accepted += verdict
                            rejected += not verdict
    assert accepted and rejected


def test_homotopic_loops_syntactic_equality():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    verdict = homotopic_loops(loop, loop)
    assert verdict.status == "yes" and verdict.certificate.moves == ()


def test_homotopic_loops_requires_shared_base():
    T = standard_triangle()
    a = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    b = make_path(T, ["v1", "v2"], ["f"])
    with pytest.raises(PathError):
        homotopic_loops(a, b)


def test_homotopy_backtrack_loop_is_trivial():
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "b"])
    verdict = homotopic_loops(loop, trivial_path(D, "v0"))
    assert verdict.status == "yes"
    assert verdict.certificate.replay()[-1] == trivial_path(D, "v0")


def test_homotopy_unknown_when_bounds_exhausted():
    T = standard_triangle()
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    verdict = homotopic_loops(loop, trivial_path(T, "v0"), depth_bound=0)
    assert verdict.status == "unknown"


def test_homotopy_separates_cycle_powers():
    C = directed_cycle(4)
    gen = make_path(C, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    double = make_path(C, ["v0", "v1", "v2", "v3", "v0",
                           "v1", "v2", "v3", "v0"], ["f"] * 8)
    verdict = homotopic_loops(gen, double, length_bound=10, depth_bound=4)
    assert verdict.status == "certified-no"


def test_one_step_map_homotopy():
    T = standard_triangle()
    f = identity_map(T)
    g = DigraphMap(T, T, {"v0": "v0", "v1": "v2", "v2": "v2"})
    assert one_step_map_homotopy(f, g)
    point = DigraphMap(T, T, {"v0": "v2", "v1": "v2", "v2": "v2"})
    assert one_step_map_homotopy(g, point)


def test_is_isosceles_on_triangle():
    T = standard_triangle()
    a1 = OneForm.basis(T, ("v0", "v1"))
    a2 = OneForm.basis(T, ("v1", "v2"))
    assert is_isosceles([a1 + a2], T)  # symmetric on the designated pair
    assert not is_isosceles([a1, a2], T)
    assert is_isosceles([], T) and is_isosceles([a1], T)


def _products_are_symmetric(values):
    """Oracle for `is_isosceles` on one side pair: the product of one value
    per letter depends only on how many letters take their second value."""
    by_count = {}
    for picks in product((0, 1), repeat=len(values)):
        prod = Fraction(1)
        for pair_values, pick in zip(values, picks):
            prod *= pair_values[pick]
        if by_count.setdefault(sum(picks), prod) != prod:
            return False
    return True


_LETTER = st.one_of(st.integers(-3, 3),
                    st.tuples(st.integers(-2, 2), st.integers(-2, 2)))


@settings(max_examples=200)
@given(st.tuples(st.integers(-2, 2), st.integers(1, 2)),
       st.lists(_LETTER, min_size=1, max_size=8))
@example((1, 2), [1, 2, -1, 3, 1, 2, 1])  # proportional, seven letters
@example((1, 2), [1, 2, -1, 3, 1, 2, 1, (1, 1)])  # one pair off the line
@example((1, 2), [1, 2, -1, 3, 1, 2, 1, 0])  # a letter vanishing on both
@example((0, 1), [(1, 0), 2, (0, 0)])
@example((1, 1), [(1, 0), (0, 1)])
def test_is_isosceles_matches_the_product_symmetry_oracle(direction, letters):
    # an int letter is that multiple of the direction, a pair is its values
    values = [(k * direction[0], k * direction[1]) if isinstance(k, int) else k
              for k in letters]
    T = standard_triangle()
    p, q, _ = enumerate_patterns(T, "triangle")[0].arrows
    word = [OneForm(T, {p: vp, q: vq}) for vp, vq in values]
    assert is_isosceles(word, T) == _products_are_symmetric(values)


def test_invariant_sufficient_requires_closed_letters():
    T = standard_triangle()
    a1 = OneForm.basis(T, ("v0", "v1"))
    assert not invariant_sufficient([a1], T)
    closed = closed_one_forms(T)[0]
    assert invariant_sufficient([closed], T)


def _isosceles_by_pattern(word, g):
    """Reference for `is_isosceles`: the product symmetry oracle on the two
    composable sides of each triangle and on both side pairs of each
    square, read off the embeddings."""
    if len(word) <= 1:
        return True
    pairs = [emb.arrows[:2] for emb in enumerate_patterns(g, "triangle")]
    for emb in enumerate_patterns(g, "square"):
        a1, a2, a3, a4 = emb.arrows
        pairs += [(a1, a2), (a3, a4)]
    return all(_products_are_symmetric([(f(p), f(q)) for f in word])
               for p, q in pairs)


def _sufficient_by_subwords(word, g):
    """Reference for `invariant_sufficient`: every letter closed and every
    contiguous subword isosceles by `_isosceles_by_pattern`."""
    r = len(word)
    return (all(is_closed(f) for f in word)
            and all(_isosceles_by_pattern(word[i:j], g)
                    for i in range(r) for j in range(i + 1, r + 1)))


def _random_letter(rng, g, closed, previous):
    """A multiple of the previous letter, a small combination of closed
    basis forms, or an arbitrary form."""
    roll = rng.random()
    if previous is not None and roll < 0.3:
        return rng.choice((-2, -1, 1, 2)) * previous
    if closed and roll < 0.7:
        letter = OneForm(g)
        for f in rng.sample(closed, min(len(closed), rng.randint(1, 2))):
            letter = letter + rng.randint(-2, 2) * f
        return letter
    return random_form(rng, g)


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_sufficiency_test_matches_the_all_subwords_reference_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng) if rng.random() < 0.5 else random_digraph(rng)
    closed = closed_one_forms(g)
    for _ in range(20):
        word = []
        for _ in range(rng.randint(0, 5)):
            word.append(_random_letter(rng, g, closed, word[-1] if word else None))
        assert is_isosceles(word, g) == _isosceles_by_pattern(word, g)
        assert invariant_sufficient(word, g) == _sufficient_by_subwords(word, g)


def test_sufficiency_test_checks_every_host_first():
    T = standard_triangle()
    foreign = closed_one_forms(standard_square())[0]
    for word in ([OneForm.basis(T, ("v0", "v1")), foreign], [foreign]):
        with pytest.raises(PathError):  # the first letter is not closed
            invariant_sufficient(word, T)


def _assert_replays(verdict, elem):
    """The counterexample's move is one of `_moves` from its loop, gives its
    neighbor, and the element pairs differently with the two."""
    assert verdict.status == "counterexample"
    assert apply_move(verdict.loop, verdict.move) == verdict.neighbor
    assert _lists(verdict.loop, verdict.move)
    assert verdict.values == (pair(elem, verdict.loop), pair(elem, verdict.neighbor))
    assert verdict.values[0] != verdict.values[1]


def test_invariance_verify_counterexample_carries_move():
    T = standard_triangle()
    e1 = from_forms(T, [OneForm.basis(T, ("v0", "v1"))])
    verdict = invariance_verify(e1, "v0")
    _assert_replays(verdict, e1)
    assert verdict.move.kind == "triangle-contract"


def _first_differing_pair(elem, base, length_bound):
    """Reference for `invariance_verify`: every (loop, neighbor) pair in
    enumeration order, none skipped."""
    for loop in enumerate_paths(elem.graph, base, length_bound, loops_only=True):
        for nb, move in move_neighbors(loop):
            va, vb = pair(elem, loop), pair(elem, nb)
            if va != vb:
                return loop, nb, move, (va, vb)
    return None, None, None, None


def test_invariance_verify_matches_the_full_pair_list():
    # a pair list up to a bound can only miss a counterexample: where it
    # finds one, the exact check finds one too, and that one replays
    statuses = set()
    for g in _fixtures():
        elems = [from_forms(g, [f]) for f in closed_one_forms(g)]
        elems += [word_element(g, (a,)) for a in g.arrows]
        elems += [word_element(g, w) for w in all_words(g.arrows, 2, min_degree=2)[:4]]
        for elem in elems:
            verdict = invariance_verify(elem, g.vertices[0])
            expected = _first_differing_pair(elem, g.vertices[0], 5)
            statuses.add((verdict.status, expected[0] is None))
            if verdict.status == "counterexample":
                _assert_replays(verdict, elem)
            else:
                assert verdict.status == "invariant" and expected[0] is None
    assert statuses == {("invariant", True), ("counterexample", False),
                        ("counterexample", True)}


def _sample_by_move_neighbors(g, base, length_bound):
    """The full neighbor list: every (loop, neighbor, move) of every loop
    at base up to the bound, each neighbor built by `move_neighbors`, the
    first one kept of each pair of run sequences."""
    out, seen = [], set()
    for loop in enumerate_paths(g, base, length_bound, loops_only=True):
        loop_key = tuple(map(tuple, runs(loop)))
        for nb, move in move_neighbors(loop):
            key = (loop_key, tuple(map(tuple, runs(nb))))
            if key not in seen:
                seen.add(key)
                out.append((loop, nb, move))
    return out


def _rows_by_move_neighbors(g, base, degree, length_bound):
    """Reference rows of `pi1_rows_by_test_pairs` over the full neighbor list up to the
    bound: the words, then the nonzero differences of each (loop, neighbor)
    pair and the nonzero rows of each loop, each path paired through
    `word_pairings_all` and every pairing times degree!."""
    words = all_words(g.arrows, degree, min_degree=1)
    top = math.factorial(degree)

    @lru_cache(maxsize=None)
    def by_runs(key, path):
        sig = word_pairings_all(path, degree)
        scaled = [top * sig[w] for w in words]
        assert all(x.denominator == 1 for x in scaled)
        return tuple(x.numerator for x in scaled)

    def row(path):  # paths with equal runs pair equally
        return by_runs(tuple(runs(path)), path)
    move_rows, loop_rows = set(), set()
    for loop, nb, _ in _sample_by_move_neighbors(g, base, length_bound):
        diff = tuple(a - b for a, b in zip(row(loop), row(nb)))
        if any(diff):
            move_rows.add(diff)
        if any(row(loop)):
            loop_rows.add(row(loop))
    return words, move_rows, loop_rows


def _in_span(rows, vectors, ncols):
    """True iff every vector lies in the span of the rows."""
    echelon = Echelon(ncols, sorted(rows))
    return all(not echelon.residue({j: x for j, x in enumerate(v) if x}) for v in vectors)


def _assert_exact_rows_span_the_neighbor_rows(g, base, degree, length_bound):
    """Soundness: every move row of the full neighbor list lies in the span
    of the exact move rows, and every loop row in that of the exact loop
    rows, at any bound."""
    words, move_rows, loop_rows = _rows_by_move_neighbors(g, base, degree, length_bound)
    exact_moves, exact_loops = pi1_rows_by_test_pairs(g, base, degree, words)
    assert _in_span(exact_moves, move_rows, len(words))
    assert _in_span(exact_loops, loop_rows, len(words))


def _test_loop_length(g, base, degree):
    """The length of the longest loop the exact rows read: a test pair's
    loop, or a product of at most degree generator loops."""
    gens = _loop_generators(g, base)
    products = [_product(base, w) for k in range(degree + 1)
                for w in product(gens, repeat=k)]
    loops = products + [loop for loop, _, _ in _test_pairs(g, base, degree)]
    return max(len(os) for _, os in loops)


def _assert_pi1_is_the_full_neighbor_list_reference(g, base, degree, length_bound):
    """Completeness: where the bound reaches every test loop, the invariant
    kernel is that of the full neighbor list's move rows, and the
    candidates are as many as the complement of its null kernel (move and
    loop rows) in that kernel, each by a separate elimination, and give the
    same loop functionals."""
    assert _test_loop_length(g, base, degree) <= length_bound
    words, move_rows, loop_rows = _rows_by_move_neighbors(g, base, degree, length_bound)
    invariant = kernel(sorted(move_rows), len(words))
    null = kernel(sorted(move_rows | loop_rows), len(words))
    reps = complement_basis(null, invariant, len(words))
    result = pi1_candidates(g, base, degree)
    assert [tuple(u.coeffs.get(w, 0) for w in words)
            for u in result.invariant_kernel] == invariant
    assert len(result.candidates) == len(reps)
    assert same_loop_functionals(g, base, degree, [c.coeffs for c in result.candidates],
                                 [dict(zip(words, r)) for r in reps])


@pytest.mark.wide
def test_exact_move_rows_span_the_full_neighbor_list_on_fixtures():
    # the fixtures include the double edge and a 3x3 grid
    for g in _fixtures():
        for base in g.vertices:
            for degree, bound in ((1, 5), (2, 4)) if base == g.vertices[0] else ((2, 4),):
                _assert_exact_rows_span_the_neighbor_rows(g, base, degree, bound)


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
def test_exact_move_rows_span_the_full_neighbor_list_on_random_digraphs(
        seed, degree, bound):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    _assert_exact_rows_span_the_neighbor_rows(g, rng.choice(g.vertices), degree, bound)


def test_a_backtrack_through_two_arrows_changes_the_runs():
    D = double_edge()
    # out along v0->v1 and back along v1->v0: two arrows, not one
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    back = Move("backtrack", "apply", 0, (("v0", "v1", "v0"), ("f", "f")),
                (("v0", "v0"), ("f",)))
    assert runs(apply_move(loop, back)) != runs(loop)
    # so the double edge is a cell: its loop is this one, with this move
    assert _cell_loops(D, "v0") == ((loop.vertices, loop.orientations, (
        back.kind, back.direction, back.position, back.before, back.after)),)
    # along one arrow the backtrack cancels
    there_and_back = make_path(D, ["v0", "v1", "v0"], ["f", "b"])
    assert runs(there_and_back) == []


def test_a_two_arrow_backtrack_is_scanned_whole():
    D = double_edge()
    # v0 v1 v0 out along one arrow and back along the other cancels nothing,
    # so the loop scan yields it and its square with every step kept
    loops = {(p.vertices, p.orientations): p
             for p in enumerate_paths(D, "v0", 4, loops_only=True)}
    for key in [(("v0", "v1", "v0"), ("f", "f")),
                (("v0", "v1", "v0", "v1", "v0"), ("f", "f", "f", "f"))]:
        assert len(runs(loops[key])) == len(key[1])
    # out and back along one arrow cancels whole
    assert runs(loops[("v0", "v1", "v0"), ("f", "b")]) == []


def _torus():
    return box_product(directed_cycle(4), directed_cycle(4))


def _random_patterned(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    return g, rng.choice(g.vertices)


# loops with backtracks one and two steps apart, chains of them, a
# backtrack through the two arrows of a double edge (which must not count
# as cancelling), and squares, triangles and double edges met from every
# corner, either way round
@pytest.mark.wide
@pytest.mark.parametrize("make, bound", [
    (lambda: (wedge_of_cycles(), "v0"), 8),
    (lambda: (_torus(), ("v0", "v0")), 6),
    (lambda: (double_edge(), "v0"), 6),
    (lambda: _random_patterned(12), 6),
    (lambda: _random_patterned(25), 6),
    (lambda: _random_patterned(30), 6),
    (lambda: _random_patterned(38), 6),
], ids=["wedge", "torus", "double-edge", "patterned-12", "patterned-25",
        "patterned-30", "patterned-38"])
def test_exact_move_rows_span_the_full_neighbor_list(make, bound):
    g, base = make()
    _assert_exact_rows_span_the_neighbor_rows(g, base, 1, bound)


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=2))
def test_pi1_candidates_match_the_full_neighbor_list_on_random_digraphs(seed, degree):
    # on 2-4 vertices and at most 6 arrows every test loop has at most 6
    # steps at degree 1, and mostly at degree 2, from the base whose test
    # loops are shortest
    rng = random.Random(seed)
    g = random_digraph(rng, 4)
    g = Digraph(g.vertices, g.arrows[:6])
    if min(_test_loop_length(g, b, degree) for b in g.vertices) > 6:
        degree = 1
    base = min(g.vertices, key=lambda b: _test_loop_length(g, b, degree))
    _assert_pi1_is_the_full_neighbor_list_reference(
        g, base, degree, _test_loop_length(g, base, degree))


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_moves_in_reach_are_the_windows_that_start_and_end_there(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    path = random_path(rng, g, max_len=7)
    V, O = path.vertices, path.orientations
    a, b = rng.randint(-1, len(O) + 1), rng.randint(-1, len(O) + 1)
    full = list(_moves(g, V, O))
    assert list(_moves(g, V, O, (a, b))) == [
        t for t in full if t[2] <= a and t[2] + len(t[3][1]) - 1 >= b]


def _growth(t):
    """The steps the move with fields t adds to a path."""
    return len(t[4][1]) - len(t[3][1])


def _assert_bounded_listing_is_the_full_listing_cut_by_growth(path):
    g, V, O = path.graph, path.vertices, path.orientations
    full = list(_moves(g, V, O))
    for room in (-1, 0, 1, 2, 3):
        assert list(_moves(g, V, O, room=room)) == [
            t for t in full if _growth(t) <= room]


@pytest.mark.wide
def test_bounded_listing_is_the_full_listing_cut_by_growth_on_fixtures():
    for g in _fixtures():
        for base in g.vertices:
            for path in enumerate_paths(g, base, 3):
                _assert_bounded_listing_is_the_full_listing_cut_by_growth(path)
                stationary = insert_trivial(path, path.length // 2)
                _assert_bounded_listing_is_the_full_listing_cut_by_growth(stationary)


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_bounded_listing_is_the_full_listing_cut_by_growth_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    for _ in range(6):
        path = random_path(rng, g, max_len=7)  # with trivial steps
        _assert_bounded_listing_is_the_full_listing_cut_by_growth(path)


def test_the_search_lists_only_the_moves_under_its_bound(monkeypatch):
    # a grid pair 3 moves apart: every move the search lists is spliced,
    # so none of them is listed only to be dropped by the length bound
    g = box_product(line_digraph("fff"), line_digraph("fff"))
    o = (0, 0)
    a = make_path(g, [o, (1, 0), (1, 1), (0, 1), o], "ffbb")
    b = make_path(g, [o, (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), o],
                  "ffffbbbb")
    listed, spliced = [], []
    moves, splice = homotopy._moves, homotopy._splice

    def listing(g, V, O, reach=None, **room):
        for t in moves(g, V, O, reach, **room):
            if reach is None:  # the search's own listing, not replay's
                listed.append(len(O) + _growth(t))
            yield t

    def splicing(*args):
        spliced.append(args)
        return splice(*args)

    monkeypatch.setattr(homotopy, "_moves", listing)
    monkeypatch.setattr(homotopy, "_splice", splicing)
    verdict = homotopic_loops(a, b, 9, 4)
    assert verdict.status == "yes" and len(verdict.certificate.moves) == 3
    assert max(listed) <= 9
    # replay splices each move of the certificate once more
    assert len(listed) == len(spliced) - len(verdict.certificate.moves)


def test_a_start_loop_over_the_bound_searches_like_the_path_map_search():
    g = box_product(line_digraph("fff"), line_digraph("fff"))
    o = (0, 0)
    six = make_path(g, [o, (1, 0), (2, 0), (2, 1), (1, 1), (0, 1), o], "fffbbb")
    four = make_path(g, [o, (1, 0), (1, 1), (0, 1), o], "ffbb")
    stationary = insert_trivial(insert_trivial(four, 2), 0)
    back = make_path(g, [o, (1, 0), o], "fb")
    cases = [(six, four, 4, 2), (six, four, 5, 2), (stationary, four, 4, 2),
             (four, stationary, 5, 3), (six, back, 4, 3), (six, back, 3, 4)]
    statuses = set()
    for a, b, length_bound, depth_bound in cases:
        assert max(a.length, b.length) > length_bound
        statuses.add(_assert_searches_like_the_reference(
            a, b, length_bound, depth_bound).status)
    assert statuses == {"yes", "unknown"}


@pytest.mark.parametrize("call", [
    lambda g, loop: homotopic_loops(loop, loop, length_bound=-1),
    lambda g, loop: homotopic_loops(loop, loop, depth_bound=-2),
], ids=["homotopic_loops-length", "homotopic_loops-depth"])
def test_negative_bounds_are_rejected(call):
    g = wedge_of_cycles()
    loop = make_path(g, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    with pytest.raises(PathError, match="must be non-negative"):
        call(g, loop)


def test_pi1_candidates_checks_the_base_of_a_graph_without_arrows():
    with pytest.raises(PathError, match="unknown base vertex 'zz'"):
        pi1_candidates(Digraph(["a"], []), "zz", 1)
    assert pi1_candidates(Digraph(["a"], []), "a", 1).invariant_kernel == ()


def _homotopic_loops_by_path_maps(a, b, length_bound, depth_bound):
    """Reference for `homotopic_loops`: the search keys its states by
    `PathMap` and builds every neighbor with `move_neighbors`.  Gives the
    status and the certificate's moves."""
    if a == b:
        return "yes", ()
    if _separating_invariant(a, b) is not None:
        return "certified-no", None
    parents_a, parents_b = {a: None}, {b: None}
    frontier_a, frontier_b = [a], [b]
    depth_used = 0
    meet = None
    while meet is None and depth_used < depth_bound and frontier_a and frontier_b:
        side_a = len(frontier_a) <= len(frontier_b)
        frontier, parents, other = ((frontier_a, parents_a, parents_b) if side_a
                                    else (frontier_b, parents_b, parents_a))
        new_frontier = []
        for state in frontier:
            for nb, move in move_neighbors(state):
                if nb.length > length_bound or nb in parents:
                    continue
                parents[nb] = (state, move)
                new_frontier.append(nb)
                if nb in other:
                    meet = nb
                    break
            if meet is not None:
                break
        if side_a:
            frontier_a = new_frontier
        else:
            frontier_b = new_frontier
        depth_used += 1
    if meet is None:
        return "unknown", None
    moves = []
    node = meet
    while parents_a[node] is not None:
        node, move = parents_a[node]
        moves.append(move)
    moves.reverse()
    node = meet
    while parents_b[node] is not None:
        node, move = parents_b[node]
        moves.append(invert_move(move))
    return "yes", tuple(moves)


def _cone(n=4):
    """An apex joined to every vertex of a directed n-cycle: contractible."""
    C = directed_cycle(n)
    return Digraph(C.vertices + ("c",),
                   C.arrows + tuple(("c", v) for v in C.vertices))


def _assert_searches_like_the_reference(a, b, length_bound, depth_bound):
    verdict = homotopic_loops(a, b, length_bound, depth_bound)
    status, moves = _homotopic_loops_by_path_maps(a, b, length_bound, depth_bound)
    assert verdict.status == status
    if status == "yes":
        assert verdict.certificate.moves == moves
    return verdict


def test_homotopic_loops_searches_like_the_path_map_search():
    rng = random.Random(808)
    graphs = [box_product(line_digraph("ff"), line_digraph("ff")),
              box_product(line_digraph("fb"), line_digraph("f")),
              box_product(directed_cycle(3), directed_cycle(3)), _cone()]
    statuses = set()
    for g in graphs:
        base = g.vertices[0]
        loops = list(enumerate_paths(g, base, 4, loops_only=True))
        for _ in range(6):
            a = rng.choice(loops)
            walk = [a]
            for _ in range(rng.randint(1, 3)):
                walk.append(rng.choice(move_neighbors(walk[-1]))[0])
            b = walk[-1]
            k = len(walk) - 1
            ends = max(a.length, b.length)
            for length_bound, depth_bound in ((ends + 2, k), (ends + 2, k - 1),
                                              (ends, k), (ends, k + 1)):
                statuses.add(_assert_searches_like_the_reference(
                    a, b, length_bound, depth_bound).status)
        # loops of different winding on the torus are refuted
        other = rng.choice(loops)
        statuses.add(_assert_searches_like_the_reference(
            loops[0], other, other.length + 2, 2).status)
    # refutations drawn by hand: a cycle of the torus against the trivial
    # loop, against the other cycle and against its own inverse
    torus, o = graphs[2], ("v0", "v0")
    first = make_path(torus, [o, ("v1", "v0"), ("v2", "v0"), o], "fff")
    second = make_path(torus, [o, ("v0", "v1"), ("v0", "v2"), o], "fff")
    for a, b in ((first, make_path(torus, [o], "")), (first, second),
                 (second, inverse(second))):
        statuses.add(_assert_searches_like_the_reference(a, b, 5, 2).status)
    assert statuses == {"yes", "unknown", "certified-no"}


def test_a_route_through_a_longer_loop_is_closed_at_a_tight_bound():
    cone = _cone()
    pairs = [
        # v2 v3 v0 becomes v2 c v0 only through v2 c v3 v0, one step longer
        (make_path(cone, ["v0", "v1", "v2", "v3", "v0"], "ffff"),
         make_path(cone, ["v0", "v1", "v2", "c", "v0"], "ffbf")),
        # v0 v1 v2 becomes v0 c v2 only through v0 c v1 v2, one step longer
        (make_path(cone, ["v0", "v1", "v2", "v3", "v0"], "ffff"),
         make_path(cone, ["v0", "c", "v2", "v3", "v0"], "bfff")),
    ]
    for a, b in pairs:
        loose = _assert_searches_like_the_reference(a, b, 6, 3)
        assert loose.status == "yes"
        assert max(p.length for p in loose.certificate.replay()) > 4
        tight = _assert_searches_like_the_reference(a, b, 4, 3)
        assert tight.status == "unknown"


def test_pi1_on_double_edge_is_empty_but_kernel_is_not():
    D = double_edge()
    result = pi1_candidates(D, "v0", 1)
    assert result.candidates == ()
    assert result.invariant_kernel


def test_pi1_cycle_representative_is_certified():
    # every candidate is proved invariant, and pairs with a loop
    C = directed_cycle(4)
    result = pi1_candidates(C, "v0", 1)
    assert len(result.candidates) == 1
    assert invariance_verify(result.candidates[0], "v0").status == "invariant"
    gen = make_path(C, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    assert pair(result.candidates[0], gen) != 0


def test_pi1_degree_three_on_the_directed_triangle():
    C = directed_cycle(3)
    result = pi1_candidates(C, "v0", 3)
    # on an n-cycle, one candidate per degree
    assert len(result.candidates) == 3
    sample = [(loop, nb) for loop in enumerate_paths(C, "v0", 6, loops_only=True)
              for nb, _ in move_neighbors(loop)]
    for c in result.candidates:
        assert invariance_verify(c, "v0").status == "invariant"
        values = {}
        for loop, nb in sample:
            for p in (loop, nb):
                if p not in values:
                    values[p] = pair(c, p)
            assert values[loop] == values[nb]
    # the directed triangle has no cell, so no move changes a signature; the
    # loop rows are ints, every pairing times 3!, and span those of every
    # loop up to 6 steps
    words, move_rows, loop_rows = _rows_by_move_neighbors(C, "v0", 3, 6)
    got = pi1_rows_by_test_pairs(C, "v0", 3, words)
    assert move_rows == got[0] == set()
    assert span_equal(sorted(loop_rows), sorted(got[1]), len(words))
    assert all(type(x) is int for rows_ in got for r in rows_ for x in r)


def _assert_pi1_agrees_with_the_all_words_route(g, base, degree):
    """The invariant kernel of the all-words route of `conftest`, vector for
    vector, and as many candidates, giving the same loop functionals at
    base."""
    result = pi1_candidates(g, base, degree)
    words, invariant, reference = pi1_by_test_pairs(g, base, degree)
    assert [u.coeffs for u in result.invariant_kernel] == [
        {words[k]: c for k, c in u.items()} for u in invariant]
    assert len(result.candidates) == len(reference)
    assert same_loop_functionals(
        g, base, degree, [c.coeffs for c in result.candidates],
        [{words[k]: x for k, x in u.items()} for u in reference])


def _triangle_and_double_edge():
    """v0->v1, v0->v2, v1->v0, v1->v2: a triangle sharing the side v0 v1
    with a double edge."""
    return Digraph(["v0", "v1", "v2"],
                   [("v0", "v1"), ("v0", "v2"), ("v1", "v0"), ("v1", "v2")])


def test_pi1_kernels_match_two_separate_eliminations():
    # the reference eliminates the move rows, then adds the loop rows, over
    # every arrow word
    C3 = directed_cycle(3)
    cases = [(g, degree) for g in _fixtures() for degree in (1, 2)]
    cases += [(C3, 3), (wedge_of_cycles(), 3), (box_product(C3, C3), 2),
              (_triangle_and_double_edge(), 3)]
    for g, degree in cases:
        _assert_pi1_agrees_with_the_all_words_route(g, g.vertices[0], degree)
    result = pi1_candidates(_triangle_and_double_edge(), "v0", 3)
    assert (len(result.candidates), len(result.invariant_kernel)) == (0, 70)


def _kept_relator_rows(g, base, d, shifts):
    """The (w, d! (S(r) - 1), w') that `pi1_candidates` keeps when it
    inserts the shifted relators w R_r w' shift by shift in the order
    shifts."""
    letters = _non_tree_arrows(g, base)
    column = {w: k for k, w in enumerate(all_words(letters, d, min_degree=1))}
    plan = _all_words_plan(g, d)
    cells = [_less_one(vs, os, plan, d) for vs, os, _ in _cell_loops(g, base)]
    echelon, kept = Echelon(len(column)), []
    for k in shifts:
        for cell in cells:
            for i in range(k + 1):
                for w, w2 in product(product(letters, repeat=i),
                                     product(letters, repeat=k - i)):
                    row = {column[w + u + w2]: c for u, c in cell.items()
                           if u in column and len(u) <= d - k}
                    if echelon.add_sparse(row):
                        kept.append((w, cell, w2))
    return tuple(kept)


def test_pi1_kernel_lift_needs_the_longest_shifts_first():
    # negative control: the same relator rows inserted shortest shift first
    # keep other rows, whose lifts by S(g) - 1 miss some move rows, so their
    # kernel is larger than the all-words route's
    g, d = _triangle_and_double_edge(), 3
    result = pi1_candidates(g, "v0", d)
    assert _kept_relator_rows(g, "v0", d, reversed(range(d))) == result._relations
    shortest_first = replace(result, _relations=_kept_relator_rows(g, "v0", d, range(d)))
    _, invariant, _ = pi1_by_test_pairs(g, "v0", d)
    assert len(shortest_first.invariant_kernel) > len(invariant)


def test_pi1_agrees_with_the_all_words_route_on_every_three_vertex_digraph():
    # all 64 arrow sets on v0, v1, v2, base v0, degrees 1-3
    vs = ["v0", "v1", "v2"]
    pairs = list(permutations(vs, 2))
    for mask in range(2 ** len(pairs)):
        g = Digraph(vs, [a for i, a in enumerate(pairs) if mask >> i & 1])
        for degree in (1, 2, 3):
            _assert_pi1_agrees_with_the_all_words_route(g, "v0", degree)


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=3))
def test_pi1_candidates_agree_with_the_all_words_route_on_random_digraphs(seed, degree):
    # 2-5 vertices; at degree 3 at most 7 arrows, so that the all-words
    # route stays small
    rng = random.Random(seed)
    g = random_digraph(rng, 5)
    if degree == 3:
        g = Digraph(g.vertices, g.arrows[:7])
    _assert_pi1_agrees_with_the_all_words_route(g, rng.choice(g.vertices), degree)


def _lollipop():
    """Base x, the path x->p->q->r, and the 4-cycle r->s->t->u->r: its one
    generator loop has 10 steps."""
    return Digraph(["x", "p", "q", "r", "s", "t", "u"],
                   [("x", "p"), ("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"),
                    ("t", "u"), ("u", "r")])


def _grid(m, n):
    return box_product(line_digraph("f" * m), line_digraph("f" * n))


# the closed forms at degrees 1-4: the wedge of two circles, 2 + 4 + ... +
# 2^d = 2^(d+1) - 2; an n-cycle, d; grids, cones and the triangle are
# contractible
_PI1_CLOSED_FORMS = {
    "wedge": (wedge_of_cycles, lambda d: 2 ** (d + 1) - 2),
    "C3": (lambda: directed_cycle(3), lambda d: d),
    "C5": (lambda: directed_cycle(5), lambda d: d),
    "triangle": (standard_triangle, lambda d: 0),
    "cone": (lambda: _cone(4), lambda d: 0),
    "cone5": (lambda: _cone(5), lambda d: 0),
    "grid-1x1": (lambda: _grid(1, 1), lambda d: 0),
    "grid-2x3": (lambda: _grid(2, 3), lambda d: 0),
}
# and single cases: the tori C4 x C4 at degree 2, 2 + 3 (the symmetric
# words in its two winding forms), and C3 x C3 at degree 3, 2 + 3 + 4
_PI1_COUNTS = {f"{name}-{d}": (make, d, count(d))
               for name, (make, count) in _PI1_CLOSED_FORMS.items() for d in range(1, 5)}
_PI1_COUNTS.update({
    "C6-1": (lambda: directed_cycle(6), 1, 1), "torus-2": (_torus, 2, 5),
    "lollipop-1": (_lollipop, 1, 1), "lollipop-2": (_lollipop, 2, 2),
    "C3xC3-3": (lambda: box_product(directed_cycle(3), directed_cycle(3)), 3, 9),
})


@pytest.mark.parametrize("make, degree, count", _PI1_COUNTS.values(), ids=_PI1_COUNTS)
def test_pi1_counts_have_their_closed_forms(make, degree, count):
    g = make()
    assert len(pi1_candidates(g, g.vertices[0], degree).candidates) == count


def test_pi1_misses_no_candidate_behind_a_long_generator_loop():
    # the 10-step generator loop of the lollipop lies beyond any small
    # length bound; its winding form is a candidate
    g = _lollipop()
    (candidate,) = pi1_candidates(g, "x", 1).candidates
    gen = make_path(g, ["x", "p", "q", "r", "s", "t", "u", "r", "q", "p", "x"],
                    "fffffffbbb")
    assert pair(candidate, gen) != 0


@pytest.mark.parametrize("make", [
    standard_triangle, standard_square, double_edge, wedge_of_cycles, _torus,
    _square_with_chords, _lollipop, lambda: _grid(2, 3), lambda: _cone(4),
    lambda: _random_patterned(12)[0], lambda: _random_patterned(25)[0]])
def test_pi1_count_at_degree_one_is_the_first_betti_number(make):
    # dim H^1 = dim closed 1-forms - (|V| - 1) on a connected digraph
    g = make()
    assert len(pi1_candidates(g, g.vertices[0], 1).candidates) == (
        len(closed_one_forms(g)) - (len(g.vertices) - 1))


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_pi1_count_at_degree_one_is_the_first_betti_number_on_random_digraphs(seed):
    # each vertex after the first joined to an earlier one, so the digraph
    # is connected: dim H^1 = dim closed 1-forms - (|V| - 1)
    rng = random.Random(seed)
    g = random_digraph(rng, 5)
    arrows = set(g.arrows)
    for i, v in enumerate(g.vertices[1:], 1):
        u = rng.choice(g.vertices[:i])
        arrows.add((u, v) if rng.random() < 0.5 else (v, u))
    g = Digraph(g.vertices, sorted(arrows))
    assert len(pi1_candidates(g, rng.choice(g.vertices), 1).candidates) == (
        len(closed_one_forms(g)) - (len(g.vertices) - 1))


def test_every_cell_loop_moves_to_the_runs_of_the_trivial_loop():
    for g in _fixtures() + [_square_with_chords(), _lollipop(), _random_patterned(30)[0]]:
        base = g.vertices[0]
        cells = _cell_loops(g, base)
        kinds = {"triangle": "triangle-contract", "square": "square-replace",
                 "double-edge": "backtrack"}
        assert [t[2][0] for t in cells] == [kinds[k] for k in kinds
                                            for _ in enumerate_patterns(g, k)]
        for vs, os, fields in cells:
            loop, move = make_path(g, vs, os), Move(*fields)
            assert loop.is_loop and loop.start == base and _lists(loop, move)
            assert runs(apply_move(loop, move)) == []


def test_dropping_a_cell_lets_a_candidate_through(monkeypatch):
    # the one square of a 1x1 grid is its only cell: without it nothing
    # binds the winding around it.  C4 x C4 less one of its 16 squares is a
    # punctured torus: H^1 keeps rank 2, since the square's boundary is
    # that of the other 15, but pi1 becomes free, and degree 2 gains the
    # commutator's functional
    assert len(pi1_candidates(_grid(1, 1), (0, 0), 1).candidates) == 0
    base = _torus().vertices[0]
    assert [len(pi1_candidates(_torus(), base, d).candidates) for d in (1, 2)] == [2, 5]
    exact = homotopy._cell_loops
    monkeypatch.setattr(homotopy, "_cell_loops", lambda g, base: exact(g, base)[:-1])
    assert len(pi1_candidates(_grid(1, 1), (0, 0), 1).candidates) == 1
    assert [len(pi1_candidates(_torus(), base, d).candidates) for d in (1, 2)] == [2, 6]


def _square_and_cycle():
    """A square b p q s at the base b, and a 3-cycle b -> x -> y -> b."""
    return Digraph(["b", "p", "q", "s", "x", "y"],
                   [("b", "p"), ("p", "s"), ("b", "q"), ("q", "s"),
                    ("b", "x"), ("x", "y"), ("y", "b")])


def test_dropping_the_generator_products_misses_a_counterexample(monkeypatch):
    # e_c e_a, with c on the cycle and a on the square, pairs to 0 with the
    # square's loop alone but not once the cycle's generator goes first
    g = _square_and_cycle()
    elem = word_element(g, (("y", "b"), ("b", "p")))
    verdict = invariance_verify(elem, "b")
    _assert_replays(verdict, elem)
    monkeypatch.setattr(paths, "_loop_generators", lambda g, base: ())
    assert invariance_verify(word_element(_square_and_cycle(), (("y", "b"), ("b", "p"))),
                             "b").status == "invariant"


def test_pi1_rejects_bad_degree():
    D = double_edge()
    with pytest.raises(PathError):
        pi1_candidates(D, "v0", 0)


def test_change_base_point_unit_and_degree_one():
    T = standard_triangle()
    gamma = make_path(T, ["v0", "v1"], ["f"])
    u = word_element(T, (("v1", "v2"),))
    moved = change_base_point(gamma, u)
    # degree-1 letters survive with boundary corrections of lower degree
    assert moved.homogeneous_component(1) == u
    loop = make_path(T, ["v0", "v1", "v2", "v0"], ["f", "f", "b"])
    conj = make_path(T, ["v1", "v0", "v1", "v2", "v0", "v1"],
                     ["b", "f", "f", "b", "f"])
    assert pair(moved, loop) == pair(u, conj)


def test_change_base_point_endpoint_check():
    T = standard_triangle()
    gamma = make_path(T, ["v0", "v1"], ["f"])
    u = word_element(T, (("v0", "v1"),))
    from pathint import BasedFunctional
    wrapped = BasedFunctional(u, "v0", "loop")
    with pytest.raises(PathError):
        change_base_point(gamma, wrapped)  # functional based at the start


def test_change_base_point_transports_a_based_functional():
    # the transported functional on a loop at v0 is the functional on that
    # loop conjugated by gamma, a loop at v1
    T = standard_triangle()
    gamma = make_path(T, ["v0", "v1"], ["f"])
    u = AlgebraElement(T, {(("v1", "v2"),): 1, (("v0", "v2"), ("v1", "v2")): -2,
                           (("v0", "v1"), ("v0", "v1")): 3})
    moved = change_base_point(gamma, BasedFunctional(u, "v1", "loop"))
    assert (type(moved), moved.base, moved.flavor) == (BasedFunctional, "v0", "loop")
    assert moved.elem == change_base_point(gamma, u)
    values = set()
    for loop in enumerate_paths(T, "v0", 4, loops_only=True):
        conj = concat(concat(inverse(gamma), loop), gamma)
        assert moved(loop) == pair(u, conj)
        values.add(moved(loop))
    assert len(values) > 1  # not constant on the loops


def _change_base_point_by_word_pairings(gamma, u):
    """Reference: one `word_pairing` per (word, i, j) split, summed term by
    term."""
    out = AlgebraElement(u.graph)
    back = inverse(gamma)
    for w, c in u.coeffs.items():
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                out = out + AlgebraElement(u.graph, {w[i:j]: c * word_pairing(
                    back, w[:i]) * word_pairing(gamma, w[j:])})
    return out


def test_change_base_point_matches_the_termwise_sum():
    rng = random.Random(5)
    W = wedge_of_cycles()
    words = all_words(W.arrows, 3, min_degree=1)
    big = AlgebraElement(W, {w: rng.randint(1, 3) for w in rng.sample(words, 134)})
    gamma = make_path(W, ["v0", "v1", "v2", "v1", "v0", "v4"],
                      ["f", "f", "b", "b", "f"])
    assert change_base_point(gamma, big) == _change_base_point_by_word_pairings(gamma, big)
    for g in _fixtures()[:5]:
        u = AlgebraElement(g, {w: rng.randint(-2, 2)
                               for w in all_words(g.arrows, 2)})
        for gamma in islice(enumerate_paths(g, g.vertices[0], 3), 0, None, 7):
            assert change_base_point(gamma, u) == _change_base_point_by_word_pairings(gamma, u)
