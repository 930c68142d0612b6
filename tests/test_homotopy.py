"""Homotopy moves, search, invariance checking, and base-point transport."""

from fractions import Fraction

import pytest

from pathint import (AlgebraElement, DigraphMap, Move, MoveCertificate,
                     OneForm, PathError,
                     apply_move, change_base_point, closed_one_forms,
                     directed_cycle, double_edge, from_forms,
                     homotopic_loops, identity_map, invariance_verify,
                     invariant_sufficient, inverse, invert_move,
                     is_isosceles, make_path, move_neighbors,
                     one_step_map_homotopy, pair, pi1_candidates,
                     standard_square, standard_triangle, trivial_path,
                     word_element)


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


def test_invariant_sufficient_requires_closed_letters():
    T = standard_triangle()
    a1 = OneForm.basis(T, ("v0", "v1"))
    assert not invariant_sufficient([a1], T)
    closed = closed_one_forms(T)[0]
    assert invariant_sufficient([closed], T)


def test_invariance_verify_counterexample_carries_move():
    T = standard_triangle()
    e1 = from_forms(T, [OneForm.basis(T, ("v0", "v1"))])
    verdict = invariance_verify(e1, "v0", length_bound=6)
    assert verdict.status == "counterexample"
    assert apply_move(verdict.loop, verdict.move) == verdict.neighbor
    assert pair(e1, verdict.loop) != pair(e1, verdict.neighbor)


def test_pi1_on_double_edge_is_empty_but_kernel_is_not():
    D = double_edge()
    result = pi1_candidates(D, "v0", 1, length_bound=6)
    assert result.candidates == ()
    assert result.invariant_kernel


def test_pi1_cycle_representative_is_certified():
    C = directed_cycle(4)
    result = pi1_candidates(C, "v0", 1, length_bound=6)
    assert len(result.candidates) == 1
    assert result.candidates[0].certified
    gen = make_path(C, ["v0", "v1", "v2", "v3", "v0"], ["f"] * 4)
    assert pair(result.candidates[0].element, gen) != 0


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
