"""Path maps: construction, calculus, reduction, equivalence, push-forward."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import patterned_digraph, random_digraph, random_path

from pathint import (DigraphMap, LoopMap, PathError, box_product, concat, cut,
                     directed_cycle, double_edge, elem_equivalent,
                     enumerate_paths, insert_trivial, inverse, is_reduced,
                     line_digraph, make_path, push_forward, reduce,
                     standard_square, standard_triangle, steps, trivial_path,
                     wedge_of_cycles)
from pathint.graphs import BACKWARD, FORWARD
from pathint.paths import ForwardArrow, InverseArrow, Trivial, _build, _runs


def test_make_path_validates_steps():
    T = standard_triangle()
    with pytest.raises(PathError) as err:
        make_path(T, ["v0", "v2", "v1"], ["f", "f"])
    assert "1" in str(err.value)  # the offending step index is named


def test_make_path_orientation_normalization():
    T = standard_triangle()
    p = make_path(T, ["v0", "v0", "v1"], ["b", "f"])
    assert isinstance(steps(p)[0], Trivial)
    q = make_path(T, ["v0", "v0", "v1"], ["f", "f"])
    assert p == q


def test_loop_detection():
    D = double_edge()
    loop = make_path(D, ["v0", "v1", "v0"], ["f", "f"])
    assert isinstance(loop, LoopMap) and loop.is_loop
    path = make_path(D, ["v0", "v1"], ["f"])
    assert not isinstance(path, LoopMap)


def test_concat_endpoint_mismatch():
    T = standard_triangle()
    a = make_path(T, ["v0", "v1"], ["f"])
    with pytest.raises(PathError):
        concat(a, make_path(T, ["v0", "v2"], ["f"]))


def test_concat_and_cut_roundtrip(rng):
    for _ in range(20):
        g = random_digraph(rng)
        p = random_path(rng, g, max_len=6)
        for i in range(p.length + 1):
            assert concat(cut(p, 0, i), cut(p, i, p.length)) == p


def test_inverse_involution(rng):
    for _ in range(20):
        g = random_digraph(rng)
        p = random_path(rng, g)
        assert inverse(inverse(p)) == p
        assert inverse(p).start == p.end


def test_insert_trivial_positions():
    T = standard_triangle()
    p = make_path(T, ["v0", "v1", "v2"], ["f", "f"])
    q = insert_trivial(p, 1)
    assert q.vertices == ("v0", "v1", "v1", "v2")
    with pytest.raises(PathError):
        insert_trivial(p, 5)


def test_reduce_removes_trivial_and_backtracks():
    D = double_edge()
    p = make_path(D, ["v0", "v0", "v1", "v0", "v1"], ["f", "f", "b", "f"])
    r = reduce(p)
    assert is_reduced(r)
    assert r.vertices == ("v0", "v1")


def test_reduce_whole_block_cancellation(rng):
    for _ in range(20):
        g = random_digraph(rng)
        gamma = random_path(rng, g, max_len=5)
        spike = concat(gamma, inverse(gamma))
        assert reduce(spike) == trivial_path(g, gamma.start)


def test_reduce_idempotent(rng):
    for _ in range(30):
        g = random_digraph(rng)
        p = random_path(rng, g)
        assert reduce(reduce(p)) == reduce(p)


def _cancels(s, t):
    if isinstance(s, ForwardArrow) and isinstance(t, InverseArrow):
        return s.arrow == t.arrow
    if isinstance(s, InverseArrow) and isinstance(t, ForwardArrow):
        return s.arrow == t.arrow
    return False


def _stack_reduce(a):
    """Reference reduction on the step classes: drop trivial steps and
    cancel each step against an inverse step on top of the stack, then
    walk the steps left from the start vertex."""
    stack = []
    for s in steps(a):
        if isinstance(s, Trivial):
            continue
        if stack and _cancels(stack[-1], s):
            stack.pop()
        else:
            stack.append(s)
    vs, os_ = [a.start], []
    for s in stack:
        forward = isinstance(s, ForwardArrow)
        vs.append(s.arrow[1] if forward else s.arrow[0])
        os_.append(FORWARD if forward else BACKWARD)
    return _build(a.graph, tuple(vs), tuple(os_))


def _stack_is_reduced(a):
    ss = steps(a)
    if any(isinstance(s, Trivial) for s in ss):
        return False
    return not any(_cancels(ss[i], ss[i + 1]) for i in range(len(ss) - 1))


def _assert_reduction_matches_the_stack(p):
    r = reduce(p)
    expected = _stack_reduce(p)
    assert r == expected and type(r) is type(expected), p
    assert is_reduced(p) == _stack_is_reduced(p), p


def test_reduce_matches_the_step_stack_on_every_short_path():
    grid = box_product(line_digraph("ff"), line_digraph("ff"))
    graphs = [standard_triangle(), standard_square(), double_edge(),
              directed_cycle(4), wedge_of_cycles(), grid]
    checked = 0
    for g in graphs:
        for base in g.vertices:
            for p in enumerate_paths(g, base, 5):
                _assert_reduction_matches_the_stack(p)
                if p.length:  # two trivial steps, at positions set by the length
                    q = insert_trivial(p, p.length // 2)
                    _assert_reduction_matches_the_stack(
                        insert_trivial(q, (3 * p.length) % (q.length + 1)))
                checked += 1
    assert checked > 4000


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_reduce_matches_the_step_stack_on_random_digraphs(seed):
    rng = random.Random(seed)
    g = patterned_digraph(rng)
    for _ in range(20):
        _assert_reduction_matches_the_stack(random_path(rng, g, max_len=12))


def _merged_runs(vertices, orientations):
    """Runs with consecutive steps on one arrow merged into a net exponent,
    a factor of net exponent 0 removed."""
    out = []
    for u, w, o in zip(vertices, vertices[1:], orientations):
        if u == w:
            continue
        arrow, sign = ((u, w), 1) if o == FORWARD else ((w, u), -1)
        if out and out[-1][0] == arrow:
            net = out[-1][1] + sign
            if net:
                out[-1] = (arrow, net)
            else:
                out.pop()
        else:
            out.append((arrow, sign))
    return out


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("fb")),
                min_size=1, max_size=30))
def test_a_run_never_merges_two_steps_of_one_sign(chain):
    # the vertex chain forces two consecutive steps on one arrow to have
    # opposite signs, so merging runs only ever cancels them
    vertices = tuple(v for v, _ in chain)
    orientations = tuple(o for _, o in chain[1:])
    merged = _merged_runs(vertices, orientations)
    assert all(net in (1, -1) for _, net in merged)
    assert _runs(vertices, orientations) == merged


def test_elem_equivalent_axioms(rng):
    for _ in range(15):
        g = random_digraph(rng)
        a = random_path(rng, g)
        assert elem_equivalent(a, a)
        b = insert_trivial(a, 0)
        assert elem_equivalent(a, b) and elem_equivalent(b, a)


def test_elem_equivalent_distinguishes():
    T = standard_triangle()
    a = make_path(T, ["v0", "v1", "v2"], ["f", "f"])
    b = make_path(T, ["v0", "v2"], ["f"])
    assert not elem_equivalent(a, b)


def test_push_forward():
    T = standard_triangle()
    point_image = {v: "v0" for v in T.vertices}
    D = double_edge()
    f = DigraphMap(T, D, {"v0": "v0", "v1": "v1", "v2": "v0"})
    p = make_path(T, ["v0", "v1", "v2"], ["f", "f"])
    q = push_forward(f, p)
    assert q.vertices == ("v0", "v1", "v0")
    collapse = DigraphMap(T, T, {k: "v0" for k in point_image})
    r = push_forward(collapse, p)
    assert r.vertices == ("v0", "v0", "v0")


def test_enumerate_paths_counts():
    D = double_edge()
    loops = list(enumerate_paths(D, "v0", 2, loops_only=True))
    # trivial, and four two-step out-and-back loops
    assert len([l for l in loops if l.length == 0]) == 1
    assert len([l for l in loops if l.length == 2]) == 4


def test_enumerate_paths_rejects_a_negative_bound():
    with pytest.raises(PathError, match="must be non-negative"):
        list(enumerate_paths(standard_triangle(), "v0", -2))


def _loops_by_filter(g, base, max_length):
    """Reference for the loop enumeration: every path, unpruned, kept when
    it returns to base."""
    return [p for p in enumerate_paths(g, base, max_length) if p.is_loop]


@pytest.mark.wide
def test_loop_enumeration_matches_a_filter_over_every_path():
    fixtures = [standard_triangle(), standard_square(), double_edge(),
                directed_cycle(4), wedge_of_cycles(),
                box_product(line_digraph("ff"), line_digraph("fb"))]
    for g in fixtures:
        for base in g.vertices:
            for bound in range(6):
                assert list(enumerate_paths(g, base, bound, loops_only=True)) == \
                    _loops_by_filter(g, base, bound)


@pytest.mark.wide
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=5))
def test_loop_enumeration_matches_a_filter_on_random_digraphs(seed, bound):
    rng = random.Random(seed)
    g = patterned_digraph(rng) if seed % 2 else random_digraph(rng, 5, 0.3)
    base = rng.choice(g.vertices)
    assert list(enumerate_paths(g, base, bound, loops_only=True)) == \
        _loops_by_filter(g, base, bound)


@given(st.integers(min_value=0, max_value=3))
def test_trivial_path_properties(n):
    T = standard_triangle()
    p = trivial_path(T, T.vertices[n % 3])
    assert p.length == 0 and p.is_loop and reduce(p) == p


def test_steps_classification():
    T = standard_triangle()
    p = make_path(T, ["v0", "v1", "v1", "v0"], ["f", "f", "b"])
    kinds = [type(s) for s in steps(p)]
    assert kinds == [ForwardArrow, Trivial, InverseArrow]


def test_reimport_leaves_no_module_copies_alive():
    # module-level typing subscriptions such as Union[PathMap, ...] sit in
    # typing's cache and would keep every re-imported copy of the modules
    script = """
import gc, importlib, sys
for _ in range(5):
    for name in [n for n in sys.modules if n.split(".")[0] == "pathint"]:
        del sys.modules[name]
    importlib.import_module("pathint.cli")
gc.collect()
alive = sum(isinstance(o, dict) and "__file__" in o
            and str(o.get("__name__")).split(".")[0] == "pathint"
            for o in gc.get_objects())
print(alive - sum(n.split(".")[0] == "pathint" for n in sys.modules))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) == 0  # globals dicts beyond the modules now imported
