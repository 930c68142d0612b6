"""Negative controls for the refusals of the public calls: each row makes
one call that must refuse, and checks the error class and the message."""

import pytest

from pathint import (AlgebraElement, BasedDigraph, BasedFunctional, DigraphMap,
                     FormError, GraphError, LoopMap, MapError, Move,
                     MoveCertificate, OneForm, PairingError, PathError, all_words,
                     change_base_point, concat, cut, cylinder, double_edge,
                     elem_equivalent, enumerate_patterns, functional_equal,
                     homotopic_loops, hopf_axiom_report, identity_map,
                     invariance_verify, is_isosceles, make_path,
                     one_step_map_homotopy, order, pi1_candidates, pullback_element,
                     pullback_one_form,
                     push_forward, standard_square, standard_triangle,
                     step_pairing, trivial_path, word_element, word_pairing,
                     word_pairings_all)
from pathint.serialization import parse_dot, path_from_dict

T, S, D = standard_triangle(), standard_square(), double_edge()
ELEM_T = AlgebraElement(T, {(("v0", "v1"),): 1})
ELEM_D = AlgebraElement(D, {(("v0", "v1"),): 1})
FORM_T = OneForm.basis(T, ("v0", "v1"))
STEP_T = make_path(T, ["v0", "v1"], "f")
STEP_S = make_path(S, ["v0", "v1"], "f")
BACKTRACK = make_path(T, ["v0", "v1", "v0"], "fb")
# removing the backtrack v0 v1 v0 leaves the trivial step v0 v0, not v0
LANDS_ELSEWHERE = MoveCertificate(BACKTRACK, (Move(
    "backtrack", "apply", 0, (("v0", "v1", "v0"), ("f", "b")),
    (("v0", "v0"), ("f",))),), trivial_path(T, "v0"))


def _square_on_triangle(mapping):
    return lambda: DigraphMap(S, T, mapping)


REFUSALS = {
    # algebra
    "pullback of an element off the map's target": (
        lambda: pullback_element(identity_map(S), ELEM_T),
        PairingError, "element does not live on the map's target"),
    "functional_equal with an unknown flavor": (
        lambda: functional_equal(ELEM_T, ELEM_T, "v0", "cycle"),
        PairingError, "unknown flavor 'cycle'"),
    "BasedFunctional with an unknown flavor": (
        lambda: BasedFunctional(ELEM_T, "v0", "cycle"),
        PairingError, "unknown flavor 'cycle'"),
    "functional_equal with an unknown base": (
        lambda: functional_equal(ELEM_T, ELEM_T, "zz"),
        PairingError, "unknown base vertex 'zz'"),
    "BasedFunctional with an unknown base": (
        lambda: BasedFunctional(ELEM_T, "zz"),
        PairingError, "unknown base vertex 'zz'"),
    "functional_equal with an unhashable base": (
        lambda: functional_equal(ELEM_D, ELEM_D, ["v0"]),
        PairingError, "base vertex ['v0'] is not hashable (unhashable type: 'list')"),
    "BasedFunctional with an unhashable base": (
        lambda: BasedFunctional(ELEM_D, ["v0"]),
        PairingError, "base vertex ['v0'] is not hashable (unhashable type: 'list')"),
    "loop functional on a path that is not a loop": (
        lambda: BasedFunctional(ELEM_T, "v0", "loop")(STEP_T),
        PairingError, "loop functional applied to a non-loop"),
    "Hopf report with a fractional degree bound": (
        lambda: hopf_axiom_report(T, 1.5),
        PathError, "degree_bound must be an int, got 1.5"),
    "Hopf report with an unhashable base": (
        lambda: hopf_axiom_report(T, 1, base=["a"]),
        PathError, "base vertex ['a'] is not hashable (unhashable type: 'list')"),
    "Hopf report with a fractional failure cap": (
        lambda: hopf_axiom_report(T, 1, max_failures=1.5),
        PathError, "max_failures must be an int, got 1.5"),
    # forms
    "1-form from a vector of the wrong length": (
        lambda: OneForm.from_vector(T, [1]),
        FormError, "vector length differs from arrow count"),
    "pullback of a form off the map's target": (
        lambda: pullback_one_form(identity_map(S), FORM_T),
        FormError, "form does not live on the map's target digraph"),
    # graphs
    "map to a vertex the target lacks": (
        _square_on_triangle({"v0": "v0", "v1": "v1", "v2": "v2", "v3": "zz"}),
        MapError, "image 'zz' of 'v3' is not a target vertex"),
    "map sending an arrow to a non-arrow": (
        _square_on_triangle({"v0": "v1", "v1": "v0", "v2": "v1", "v3": "v2"}),
        MapError, "arrow ('v0', 'v1') maps to ('v1', 'v0'), "
                  "which is neither an arrow nor diagonal"),
    "cylinder with an unknown direction": (
        lambda: cylinder(identity_map(T), "sideways"),
        GraphError, "unknown cylinder direction 'sideways'"),
    "unknown pattern kind": (
        lambda: enumerate_patterns(T, "pentagon"),
        GraphError, "unknown pattern kind 'pentagon'"),
    "based digraph with an unhashable base": (
        lambda: BasedDigraph(["a"], [], ["a"]),
        GraphError, "base vertex ['a'] is not hashable (unhashable type: 'list')"),
    # homotopy
    "certificate that does not land on its end loop": (
        LANDS_ELSEWHERE.replay,
        PathError, "certificate does not land on its end loop"),
    "one-step homotopy of maps with different targets": (
        lambda: one_step_map_homotopy(identity_map(T), identity_map(S)),
        MapError, "maps must share source and target"),
    "isosceles test of a form from another digraph": (
        lambda: is_isosceles([FORM_T], S),
        PathError, "form lives on a different digraph"),
    "base change along a path of another digraph": (
        lambda: change_base_point(STEP_S, ELEM_T),
        PathError, "element and path live on different digraphs"),
    "base change of a path functional": (
        lambda: change_base_point(STEP_T, BasedFunctional(ELEM_T, "v1", "path")),
        PathError, "base-point change transports loop functionals"),
    "pi1 candidates with a fractional degree bound": (
        lambda: pi1_candidates(T, "v0", 1.5),
        PathError, "degree_bound must be an int, got 1.5"),
    "pi1 candidates with a string degree bound": (
        lambda: pi1_candidates(T, "v0", "2"),
        PathError, "degree_bound must be an int, got '2'"),
    "pi1 candidates with a bool degree bound": (
        lambda: pi1_candidates(T, "v0", True),
        PathError, "degree_bound must be an int, got True"),
    "pi1 candidates with an unhashable base": (
        lambda: pi1_candidates(D, ["v0"], 1),
        PathError, "base vertex ['v0'] is not hashable (unhashable type: 'list')"),
    "invariance check with an unhashable base": (
        lambda: invariance_verify(ELEM_D, ["v0"]),
        PathError, "base vertex ['v0'] is not hashable (unhashable type: 'list')"),
    # integrals
    "step pairing with a non-step": (
        lambda: step_pairing(FORM_T, "v0->v1"),
        PairingError, "not a step: 'v0->v1'"),
    "all words up to a fractional degree": (
        lambda: all_words(T.arrows, 2.5),
        PairingError, "max_degree must be an int, got 2.5"),
    "all pairings up to a fractional degree": (
        lambda: word_pairings_all(STEP_T, 1.5),
        PairingError, "max_degree must be an int, got 1.5"),
    "order up to a fractional degree": (
        lambda: order(STEP_T, 1.5),
        PairingError, "max_degree must be an int, got 1.5"),
    "order up to a string degree": (
        lambda: order(STEP_T, "3"),
        PairingError, "max_degree must be an int, got '3'"),
    "word pairing with an arrow the path's digraph lacks": (
        lambda: word_pairing(STEP_T, [("v9", "v8")]),
        PairingError, "word uses unknown arrow ('v9', 'v8')"),
    "word pairing with a string for a word": (
        lambda: word_pairing(STEP_T, "ab"),
        PairingError, "word uses unknown arrow 'a'"),
    "word pairing with an unhashable letter": (
        lambda: word_pairing(STEP_T, [["v0", "v1"]]),
        PairingError, "word [['v0', 'v1']] is not a sequence of hashable letters "
                      "(unhashable type: 'list')"),
    "word pairing with an int for a word": (
        lambda: word_pairing(STEP_T, 5),
        PairingError, "word 5 is not a sequence of hashable letters "
                      "('int' object is not iterable)"),
    "word element with an unhashable letter": (
        lambda: word_element(T, [["v0", "v1"]]),
        PairingError, "word [['v0', 'v1']] is not a sequence of hashable letters "
                      "(unhashable type: 'list')"),
    # paths
    "LoopMap whose endpoints differ": (
        lambda: LoopMap(T, ("v0", "v1"), ("f",)),
        PathError, "loop endpoints differ"),
    "path without vertices": (
        lambda: make_path(T, [], []),
        PathError, "a path needs at least one vertex"),
    "path through an unknown vertex": (
        lambda: make_path(T, ["zz"], []),
        PathError, "unknown vertex 'zz'"),
    "concatenation across digraphs": (
        lambda: concat(STEP_T, STEP_S),
        PathError, "cannot concatenate paths on different digraphs"),
    "cut beyond the path": (
        lambda: cut(STEP_T, 0, 5),
        PathError, "cut interval [0, 5] out of range for length 1"),
    "equivalence across digraphs": (
        lambda: elem_equivalent(STEP_T, STEP_S),
        PathError, "paths live on different digraphs"),
    "push-forward of a path off the map's source": (
        lambda: push_forward(identity_map(S), STEP_T),
        PathError, "path does not live on the map's source digraph"),
    "homotopy of loops on two digraphs": (
        lambda: homotopic_loops(trivial_path(T, "v0"), trivial_path(S, "v0")),
        PathError, "loops live on different digraphs"),
    # serialization
    "undirected DOT graph": (
        lambda: parse_dot("graph { a -> b }"),
        GraphError, "only directed DOT graphs are supported"),
    "DOT statement that is not an edge chain": (
        lambda: parse_dot("digraph { a b }"),
        GraphError, "unsupported DOT statement: 'a b'"),
    "path document stepping between non-adjacent vertices": (
        lambda: path_from_dict(S, {"vertices": ["v0", "v3"]}),
        PathError, "no arrow between 'v0' and 'v3'"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_public_call_refuses(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_the_refused_calls_succeed_once_repaired():
    # the valid twin of a few rows above, so that each row fails for the
    # one fault it names
    assert MoveCertificate(BACKTRACK, LANDS_ELSEWHERE.moves,
                           make_path(T, ["v0", "v0"], "f")).replay()[-1].length == 1
    assert functional_equal(ELEM_T, 2 * ELEM_T, "v0", "loop").separated
    assert functional_equal(ELEM_D, ELEM_D, "v0").status == "equal"
    assert invariance_verify(ELEM_D, "v0").status == "counterexample"
    assert order(STEP_T, 3) == 1 and len(word_pairings_all(STEP_T, 1)) == 4
    assert word_pairing(STEP_T, [("v0", "v1")]) == 1
    assert word_element(T, [("v0", "v1")]) == ELEM_T
    assert change_base_point(STEP_T, BasedFunctional(ELEM_T, "v1", "loop")).base == "v0"
    assert BasedDigraph(["a"], [], "a").base == "a"
    assert hopf_axiom_report(T, 1, base="v0")["all_passed"]
    assert pi1_candidates(T, "v0", 1).degree_bound == 1
    assert DigraphMap(S, T, {"v0": "v0", "v1": "v1", "v2": "v0", "v3": "v2"})
