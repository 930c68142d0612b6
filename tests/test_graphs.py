"""Digraph construction, pattern detection, products, and maps."""

from itertools import permutations

import pytest

from conftest import (patterned_digraph, random_digraph, walked_square_walks,
                      walked_triangle_sets)

from pathint import (BasedDigraph, Digraph, DigraphMap, GraphError, MapError,
                     box_product, compose_maps, cylinder, directed_cycle,
                     double_edge, enumerate_patterns, identity_map,
                     is_digraph_map, line_digraph, standard_square,
                     standard_triangle, validate_digraph, wedge_of_cycles)
from pathint.graphs import PATTERN_KINDS, PatternEmbedding


def test_rejects_self_loops():
    with pytest.raises(GraphError):
        Digraph(["a", "b"], [("a", "a")])


def test_rejects_duplicate_arrows():
    with pytest.raises(GraphError):
        Digraph(["a", "b"], [("a", "b"), ("a", "b")])


def test_rejects_unknown_endpoints():
    with pytest.raises(GraphError):
        Digraph(["a", "b"], [("a", "c")])


def test_rejects_duplicate_vertices():
    with pytest.raises(GraphError):
        Digraph(["a", "a"], [])


@pytest.mark.parametrize("vertices, arrow", [
    (["a", "b", "c"], ("a", "b", "c")),  # once read as the arrow ("a", "b")
    (["a", "b"], "ab"),                  # once read as the arrow ("a", "b")
    (["a"], ("a",)),                     # once an IndexError
])
def test_rejects_an_arrow_that_is_not_a_pair(vertices, arrow):
    with pytest.raises(GraphError) as info:
        Digraph(vertices, [arrow])
    assert str(info.value) == f"arrow {arrow!r} is not a [source, target] pair"


@pytest.mark.parametrize("vertices, arrows, message", [
    (["a", ["b"]], [], "a vertex is not hashable (unhashable type: 'list')"),
    (["a"], [("a", ["b"])], "arrow ('a', ['b']) has an endpoint that is not "
                            "hashable (unhashable type: 'list')"),
])
def test_rejects_an_unhashable_vertex_or_endpoint(vertices, arrows, message):
    with pytest.raises(GraphError) as info:
        Digraph(vertices, arrows)
    assert str(info.value) == message


def test_based_digraph_requires_member_base():
    with pytest.raises(GraphError):
        BasedDigraph(["a", "b"], [("a", "b")], "z")


def test_validate_digraph_returns_based_when_base_given():
    g = validate_digraph(["a", "b"], [("a", "b")], "a")
    assert isinstance(g, BasedDigraph) and g.base == "a"
    plain = validate_digraph(["a", "b"], [("a", "b")])
    assert not isinstance(plain, BasedDigraph)


def test_triangle_detection():
    T = standard_triangle()
    assert T.is_triangle_set("v0", "v1", "v2")
    assert T.is_triangle_set("v2", "v0", "v1")  # unordered
    assert not T.is_triangle_set("v0", "v1", "v1")
    embeddings = enumerate_patterns(T, "triangle")
    assert len(embeddings) == 1
    assert all(e.validate(T) for e in embeddings)


def test_square_detection():
    S = standard_square()  # v0->v1, v1->v3, v0->v2, v2->v3
    assert S.is_square_tuple(("v0", "v1", "v3", "v2"))  # a walk around it
    assert S.is_square_tuple(("v3", "v2", "v0", "v1"))  # from another corner
    assert S.is_square_tuple(("v1", "v0", "v2", "v3"))  # the other way round
    assert not S.is_square_tuple(("v0", "v1", "v2", "v3"))  # v1 v2: no arrow
    assert not S.is_square_tuple(("v1", "v2", "v3", "v0"))
    assert len(enumerate_patterns(S, "square")) == 1
    assert len(enumerate_patterns(S, "triangle")) == 0


def _tables_by_sorted_walks(g):
    """Reference for the keyed lists of `MoveTables`: every square walk and
    triangle ordering of the arrow walks, sorted by its list of vertex
    ranks, entered in that order; the step flags of each ordered vertex
    pair, forward before backward."""
    rank = {v: i for i, v in enumerate(g.vertices)}

    def ranked(tuples):
        return sorted(tuples, key=lambda t: [rank[v] for v in t])

    corner, sides, apex = {}, {}, {}
    for w in ranked(walked_square_walks(g)):
        corner.setdefault(w[:3], []).append(w[3])
        sides.setdefault((w[0], w[3]), []).append(w[1:3])
    for x, y, z in ranked(p for tri in walked_triangle_sets(g) for p in permutations(tri)):
        apex.setdefault((x, z), []).append(y)
    star = {v: [u for u in g.vertices if u == v or g.has_arrow(u, v)
                or g.has_arrow(v, u)] for v in g.vertices}
    flags = {}
    for u in g.vertices:
        for v in g.vertices:
            got = ("f",) if u == v else (("f",) * g.has_arrow(u, v)
                                         + ("b",) * g.has_arrow(v, u))
            if got:
                flags[u, v] = got
    return corner, sides, apex, star, flags


def test_pattern_sets_match_the_arrow_walks(rng):
    graphs = [standard_triangle(), standard_square(), double_edge(),
              directed_cycle(4), wedge_of_cycles(),
              box_product(line_digraph("ff"), line_digraph("ff"))]
    graphs += [random_digraph(rng, p=0.5) for _ in range(30)]
    for g in graphs:
        tables = g.move_tables()
        # values and list order
        assert (tables.square_corner, tables.square_sides, tables.triangle_apex,
                tables.star, tables.flags) == _tables_by_sorted_walks(g)
        triangle_sets = walked_triangle_sets(g)
        assert tables.triangles == {p for tri in triangle_sets
                                    for p in permutations(tri)}
        walks = walked_square_walks(g)
        assert tables.squares == walks
        for w in walks:  # each closes up along arrows of g
            assert all(g.has_arrow(x, y) or g.has_arrow(y, x)
                       for x, y in zip(w, w[1:] + w[:1]))
        for triple in permutations(g.vertices[:6], 3):
            assert g.is_triangle_set(*triple) == (frozenset(triple) in triangle_sets)
        for quad in permutations(g.vertices[:6], 4):
            assert g.is_square_tuple(quad) == (quad in walks)


def _patterns_by_seen_arrow_sets(g, kind):
    """Reference for `enumerate_patterns`: every meeting of the pattern
    along the arrows, in scan order, the first one per arrow set kept."""
    meetings = []
    for v0, v1 in g.arrows:
        if kind == "double-edge":
            if g.has_arrow(v1, v0):
                meetings.append(((v0, v1), ((v0, v1), (v1, v0))))
            continue
        for a in g.out_arrows(v1):
            v3 = a[1]
            if kind == "triangle":
                if v3 != v0 and g.has_arrow(v0, v3):
                    meetings.append(((v0, v1, v3), ((v0, v1), (v1, v3), (v0, v3))))
                continue
            for b in g.in_arrows(v3):
                v2 = b[0]
                if v3 != v0 and v2 not in (v0, v1, v3) and g.has_arrow(v0, v2):
                    meetings.append(((v0, v1, v2, v3),
                                     ((v0, v1), (v1, v3), (v0, v2), (v2, v3))))
    seen, out = set(), []
    for vertices, arrows in meetings:
        if frozenset(arrows) not in seen:
            seen.add(frozenset(arrows))
            out.append(PatternEmbedding(kind, vertices, arrows))
    return out


def test_patterns_are_the_first_meeting_per_arrow_set(rng):
    graphs = [standard_triangle(), standard_square(), double_edge(),
              directed_cycle(4), wedge_of_cycles(),
              box_product(directed_cycle(3), directed_cycle(4)),
              box_product(line_digraph("fbf"), line_digraph("ff"))]
    graphs += [random_digraph(rng, p=0.5) for _ in range(30)]
    graphs += [patterned_digraph(rng) for _ in range(30)]  # arrows shuffled
    for g in graphs:
        for kind in PATTERN_KINDS:
            assert enumerate_patterns(g, kind) == _patterns_by_seen_arrow_sets(g, kind)


def test_plain_fixtures_have_no_patterns():
    for g in (double_edge(), directed_cycle(4), wedge_of_cycles()):
        assert not enumerate_patterns(g, "triangle")
        assert not enumerate_patterns(g, "square")


def test_directed_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        directed_cycle(2)


def test_line_digraph_shape():
    I3 = line_digraph(["f", "b", "f"])
    assert len(I3.vertices) == 4
    assert I3.has_arrow(0, 1) and I3.has_arrow(2, 1) and I3.has_arrow(2, 3)
    assert I3.base == 0


def test_box_product_counts(rng):
    g = random_digraph(rng, max_vertices=4)
    h = random_digraph(rng, max_vertices=4)
    prod = box_product(g, h)
    assert len(prod.vertices) == len(g.vertices) * len(h.vertices)
    assert len(prod.arrows) == (len(g.arrows) * len(h.vertices)
                                + len(g.vertices) * len(h.arrows))


def test_cylinder_contains_both_ends():
    T = standard_triangle()
    point = Digraph(["p"], [])
    collapse = DigraphMap(T, point, {v: "p" for v in T.vertices})
    cyl = cylinder(collapse)
    assert len(cyl.vertices) == len(T.vertices) + 1
    # every source vertex connects to its image through the cylinder arrow
    for v in T.vertices:
        assert cyl.has_arrow(("src", v), ("dst", "p"))


def test_inverse_cylinder_reverses_every_rung():
    T = standard_triangle()
    f = DigraphMap(T, double_edge(), {"v0": "v0", "v1": "v1", "v2": "v0"})
    direct, inverse = cylinder(f), cylinder(f, "inverse")
    assert inverse.vertices == direct.vertices
    # a rung joins the two ends; the arrows within one end stay as they are
    assert inverse.arrows == tuple((a, b) if a[0] == b[0] else (b, a)
                                   for a, b in direct.arrows)
    assert all(inverse.has_arrow(("dst", f(v)), ("src", v)) for v in T.vertices)


def test_digraph_map_validation():
    T = standard_triangle()
    D = double_edge()
    with pytest.raises(MapError):
        DigraphMap(T, D, {"v0": "v0", "v1": "v1"})  # not total
    ok = {"v0": "v0", "v1": "v1", "v2": "v0"}
    assert is_digraph_map(ok, T, D)
    f = DigraphMap(T, D, ok)
    assert f("v2") == "v0"


def test_compose_maps_is_g_after_f():
    T = standard_triangle()
    f = identity_map(T)
    g = DigraphMap(T, T, {"v0": "v0", "v1": "v1", "v2": "v2"})
    assert compose_maps(g, f) == g
    with pytest.raises(MapError):
        compose_maps(DigraphMap(double_edge(), double_edge(),
                                {"v0": "v0", "v1": "v1"}), f)


def test_pattern_embeddings_revalidate(rng):
    for _ in range(10):
        g = random_digraph(rng)
        for kind in ("triangle", "square"):
            for e in enumerate_patterns(g, kind):
                assert e.validate(g)


def test_graph_equality_and_hash():
    a = standard_triangle()
    b = standard_triangle()
    assert a == b and hash(a) == hash(b)
    assert a != double_edge()
