"""Digraphs, digraph maps, and the standard constructions on them.

A digraph is a finite set of vertices plus a set of arrows (ordered vertex
pairs).  Self-loops are forbidden, duplicate arrows are forbidden, and every
enumeration below iterates in input order so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import GraphError, MapError

Vertex = Hashable
Arrow = tuple  # (source, target)

FORWARD = "f"
BACKWARD = "b"

_ORIENT_ALIASES = {
    "f": FORWARD,
    "forward": FORWARD,
    "b": BACKWARD,
    "backward": BACKWARD,
}


def normalize_orientation(flag: str) -> str:
    try:
        return _ORIENT_ALIASES[flag]
    except (KeyError, TypeError):
        raise GraphError(f"unknown orientation flag {flag!r}") from None


class Digraph:
    """Immutable digraph with ordered vertex and arrow lists."""

    def __init__(self, vertices: Iterable[Vertex], arrows: Iterable[Sequence[Vertex]]):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        try:
            self.vertex_set = frozenset(self.vertices)
        except TypeError as exc:
            raise GraphError(f"a vertex is not hashable ({exc})") from None
        if len(self.vertex_set) != len(self.vertices):
            raise GraphError("duplicate vertex in vertex list")
        arr: list[Arrow] = []
        seen: set[Arrow] = set()
        for raw in arrows:
            if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
                raise GraphError(f"arrow {raw!r} is not a [source, target] pair")
            a = tuple(raw)
            if a[0] == a[1]:
                raise GraphError(f"self-loop at vertex {a[0]!r}")
            try:
                duplicate = a in seen
            except TypeError as exc:
                raise GraphError(f"arrow {a!r} has an endpoint that is not hashable "
                                 f"({exc})") from None
            if duplicate:
                raise GraphError(f"duplicate arrow {a!r}")
            for end in a:
                if end not in self.vertex_set:
                    raise GraphError(f"unknown endpoint {end!r} in arrow {a!r}")
            seen.add(a)
            arr.append(a)
        self.arrows: tuple[Arrow, ...] = tuple(arr)
        self.arrow_set = frozenset(self.arrows)
        self.arrow_index: dict[Arrow, int] = {a: i for i, a in enumerate(self.arrows)}
        self._out: dict[Vertex, tuple[Arrow, ...]] = {v: () for v in self.vertices}
        self._in: dict[Vertex, tuple[Arrow, ...]] = {v: () for v in self.vertices}
        for a in self.arrows:
            self._out[a[0]] += (a,)
            self._in[a[1]] += (a,)
        # data derived from the graph alone, by key, filled by `derived`
        self._derived: dict = {}

    def derived(self, key: Hashable, build: Callable[[], object]):
        """The value build() returned at the first call with this key.  The
        move tables, the 2-path data and one closedness elimination per
        method of `forms`, the all-words signature plans of `integrals` (one
        per degree), the spanning-tree paths, non-tree arrows and generator
        loops of `paths` (one per base), the cell loops and the isosceles
        side pairs of `homotopy`, and the arrow-label table of
        `serialization` live here.
        A value holds no object that refers back to the graph, so the graph
        is freed by reference counting alone."""
        try:
            return self._derived[key]
        except KeyError:
            got = self._derived[key] = build()
            return got

    def has_arrow(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self.arrow_set

    def out_arrows(self, v: Vertex) -> tuple[Arrow, ...]:
        return self._out[v]

    def in_arrows(self, v: Vertex) -> tuple[Arrow, ...]:
        return self._in[v]

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Digraph({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    # -- pattern predicates ------------------------------------------------

    def move_tables(self) -> "MoveTables":
        """Candidate vertices of the local homotopy moves, built on demand."""
        return self.derived("move tables", lambda: MoveTables(self))

    def is_triangle_set(self, x: Vertex, y: Vertex, z: Vertex) -> bool:
        """True if {x, y, z} admits an ordering with x->y, y->z, x->z."""
        return (x, y, z) in self.move_tables().triangles

    def is_square_tuple(self, quad: Sequence[Vertex]) -> bool:
        """True if the tuple is a walk once around an embedded square: for
        the square v0->v1, v1->v3, v0->v2, v2->v3, a cyclic shift of
        (v0, v1, v3, v2) or of its reverse (v0, v2, v3, v1)."""
        return tuple(quad) in self.move_tables().squares


class MoveTables:
    """The vertices a local move can bring into a path, keyed by the path
    vertices that the move keeps; every list is in vertex input order.

    squares        the 8 walks once around each embedded square v0->v1,
                   v1->v3, v0->v2, v2->v3, as they appear in a path: every
                   cyclic shift of (v0, v1, v3, v2) and of (v0, v2, v3, v1)
    triangles      every ordering of the vertices of an embedded triangle
    flags          (u, v) -> the orientation flags of a step from u to v,
                   forward before backward
    square_corner  (w0, w1, w2) -> [w3] over the walks w
    square_sides   (w0, w3) -> [(w1, w2)] over the walks w
    triangle_apex  (x, z) -> [y] with {x, y, z} a triangle set
    star           v -> [v and every vertex sharing an arrow with v]

    The squares and triangles are those of `enumerate_patterns`, which
    meets each square once.  One pass over them fills the sets and the
    keyed lists, each walk or ordering entered at its first meeting (two
    embeddings with different arrows can share a vertex walk); then each
    list of more than one entry is sorted by vertex rank."""

    def __init__(self, g: Digraph):
        rank = {v: i for i, v in enumerate(g.vertices)}
        self.squares: set[tuple] = set()
        self.square_corner: dict[tuple, list] = {}
        self.square_sides: dict[tuple, list] = {}
        for e in enumerate_patterns(g, "square"):
            v0, v1, v2, v3 = e.vertices
            for cycle in ((v0, v1, v3, v2), (v0, v2, v3, v1)):
                for i in range(4):
                    w = cycle[i:] + cycle[:i]
                    if w not in self.squares:
                        self.squares.add(w)
                        self.square_corner.setdefault(w[:3], []).append(w[3])
                        self.square_sides.setdefault((w[0], w[3]), []).append(w[1:3])
        self.triangles: set[tuple] = set()
        self.triangle_apex: dict[tuple, list] = {}
        for e in enumerate_patterns(g, "triangle"):
            for p in permutations(e.vertices):
                if p not in self.triangles:
                    self.triangles.add(p)
                    self.triangle_apex.setdefault((p[0], p[2]), []).append(p[1])
        by_rank = rank.__getitem__
        for table, key in ((self.square_corner, by_rank), (self.triangle_apex, by_rank),
                           (self.square_sides, lambda s: (rank[s[0]], rank[s[1]]))):
            for got in table.values():
                if len(got) > 1:
                    got.sort(key=key)
        self.star = {v: sorted({v, *(a[1] for a in g.out_arrows(v)),
                                *(a[0] for a in g.in_arrows(v))}, key=by_rank)
                     for v in g.vertices}
        self.flags = {(v, v): (FORWARD,) for v in g.vertices}
        self.flags.update(((u, v), (FORWARD,)) for u, v in g.arrows)
        for u, v in g.arrows:  # after every forward flag
            self.flags[v, u] = self.flags.get((v, u), ()) + (BACKWARD,)


class BasedDigraph(Digraph):
    """Digraph with a distinguished base vertex."""

    def __init__(self, vertices, arrows, base: Vertex):
        super().__init__(vertices, arrows)
        try:
            listed = base in self.vertex_set
        except TypeError as exc:
            raise GraphError(f"base vertex {base!r} is not hashable ({exc})") from None
        if not listed:
            raise GraphError(f"base vertex {base!r} is not a listed vertex")
        self.base = base

    def __eq__(self, other):
        return (
            isinstance(other, BasedDigraph)
            and super().__eq__(other)
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.base))

    def __repr__(self):
        return (
            f"BasedDigraph({len(self.vertices)} vertices, "
            f"{len(self.arrows)} arrows, base={self.base!r})"
        )


def validate_digraph(vertices: Iterable[Vertex], arrows: Iterable[Sequence[Vertex]],
                     base: Vertex | None = None) -> Digraph:
    """Build a digraph from raw lists, raising GraphError with a distinct
    diagnostic for self-loops, duplicate arrows, and unknown endpoints."""
    if base is None:
        return Digraph(vertices, arrows)
    return BasedDigraph(vertices, arrows, base)


def is_digraph_map(mapping: Mapping[Vertex, Vertex], g: Digraph, h: Digraph) -> bool:
    """True iff `DigraphMap(g, h, mapping)` constructs: every g-arrow maps
    to an h-arrow or to a diagonal pair."""
    try:
        DigraphMap(g, h, mapping)
    except MapError:
        return False
    return True


class DigraphMap:
    """A validated digraph map f: source -> target."""

    def __init__(self, source: Digraph, target: Digraph, mapping: Mapping[Vertex, Vertex]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        for v in source.vertices:
            if v not in self.mapping:
                raise MapError(f"mapping is not total: vertex {v!r} has no image")
            if self.mapping[v] not in target.vertex_set:
                raise MapError(f"image {self.mapping[v]!r} of {v!r} is not a target vertex")
        for u, v in source.arrows:
            fu, fv = self.mapping[u], self.mapping[v]
            if fu != fv and not target.has_arrow(fu, fv):
                raise MapError(
                    f"arrow {(u, v)!r} maps to {(fu, fv)!r}, "
                    "which is neither an arrow nor diagonal"
                )

    def __call__(self, v: Vertex) -> Vertex:
        return self.mapping[v]

    def __eq__(self, other):
        return (
            isinstance(other, DigraphMap)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"DigraphMap({self.source!r} -> {self.target!r})"


def identity_map(g: Digraph) -> DigraphMap:
    return DigraphMap(g, g, {v: v for v in g.vertices})


def compose_maps(g: DigraphMap, f: DigraphMap) -> DigraphMap:
    """The composite g after f (first apply f, then g)."""
    if f.target != g.source:
        raise MapError("maps are not composable: target of f differs from source of g")
    return DigraphMap(f.source, g.target, {v: g(f(v)) for v in f.source.vertices})


def line_digraph(orientations: Sequence[str]) -> BasedDigraph:
    """The line digraph I_n: vertices 0..n, one arrow per step as oriented,
    based at 0.  The empty sequence gives the single-vertex I_0."""
    flags = [normalize_orientation(o) for o in orientations]
    n = len(flags)
    vertices = list(range(n + 1))
    arrows = []
    for i, o in enumerate(flags):
        if o == FORWARD:
            arrows.append((i, i + 1))
        else:
            arrows.append((i + 1, i))
    return BasedDigraph(vertices, arrows, 0)


def box_product(g: Digraph, h: Digraph) -> Digraph:
    """The box product: vertices are pairs, an arrow moves exactly one
    coordinate along an arrow of its factor."""
    vertices = [(x, y) for x in g.vertices for y in h.vertices]
    arrows = []
    for x, xp in g.arrows:
        for y in h.vertices:
            arrows.append(((x, y), (xp, y)))
    for x in g.vertices:
        for y, yp in h.arrows:
            arrows.append(((x, y), (x, yp)))
    return Digraph(vertices, arrows)


def cylinder(f: DigraphMap, direction: str = "direct") -> Digraph:
    """Mapping cylinder of f: disjoint union of source and target plus one
    rung per source vertex, v -> f(v) for direction "direct" and
    f(v) -> v for "inverse"."""
    if direction not in ("direct", "inverse"):
        raise GraphError(f"unknown cylinder direction {direction!r}")
    src, dst = f.source, f.target
    vertices = [("src", v) for v in src.vertices] + [("dst", w) for w in dst.vertices]
    arrows = [(("src", u), ("src", v)) for u, v in src.arrows]
    arrows += [(("dst", u), ("dst", v)) for u, v in dst.arrows]
    for v in src.vertices:
        rung_tail, rung_head = ("src", v), ("dst", f(v))
        if direction == "inverse":
            rung_tail, rung_head = rung_head, rung_tail
        arrows.append((rung_tail, rung_head))
    return Digraph(vertices, arrows)


PATTERN_KINDS = ("triangle", "square", "double-edge")


@dataclass(frozen=True)
class PatternEmbedding:
    """An embedded standard pattern.

    kind      one of PATTERN_KINDS
    vertices  the host vertices in role order (v0, v1, v2[, v3])
    arrows    the bound arrows in role order (a1, a2, a3[, a4])
    """

    kind: str
    vertices: tuple
    arrows: tuple

    def boundary_walk(self) -> tuple[tuple, tuple]:
        """The walk once round the pattern from v0 as unbuilt (vertices,
        orientations): its first two arrows forward, then the others
        backward, last first (triangle v0 v1 v2 v0, square v0 v1 v3 v2 v0,
        double edge v0 v1 v0), whose net arrow counts are its closedness."""
        (v0, v1), (_, v), *rest = self.arrows
        return ((v0, v1, v, *(u for u, _ in reversed(rest))),
                (FORWARD, FORWARD) + (BACKWARD,) * len(rest))

    def validate(self, g: Digraph) -> bool:
        """Re-check the standard-pattern incidence table in the host."""
        if any(a not in g.arrow_set for a in self.arrows):
            return False
        v = self.vertices
        if self.kind == "triangle":
            return len(set(v)) == 3 and self.arrows == (
                (v[0], v[1]), (v[1], v[2]), (v[0], v[2]))
        if self.kind == "square":
            return len(set(v)) == 4 and self.arrows == (
                (v[0], v[1]), (v[1], v[3]), (v[0], v[2]), (v[2], v[3]))
        if self.kind == "double-edge":
            return len(set(v)) == 2 and self.arrows == (
                (v[0], v[1]), (v[1], v[0]))
        return False


def enumerate_patterns(g: Digraph, kind: str) -> list[PatternEmbedding]:
    """All injective embeddings of the standard pattern as a subdigraph, one
    per bound arrow set, in deterministic input order.

    The scan meets a pattern from each of its arrows out of v0 in turn, in
    g.arrows order.  A triangle has one (v0 -> v1 then v1 -> v2); a square
    has two, v0 -> v1 and v0 -> v2, whose meetings differ by the swap of
    v1 and v2, and a double edge is met from both of its arrows.  Only the
    meeting from the arrow that comes first in g.arrows is kept, which is
    the first one met."""
    if kind not in PATTERN_KINDS:
        raise GraphError(f"unknown pattern kind {kind!r}")
    index = g.arrow_index
    out: list[PatternEmbedding] = []
    for i, (v0, v1) in enumerate(g.arrows):
        if kind == "triangle":
            for a in g.out_arrows(v1):
                v2 = a[1]
                if v2 != v0 and (v0, v2) in index:
                    out.append(PatternEmbedding(
                        "triangle", (v0, v1, v2), ((v0, v1), (v1, v2), (v0, v2))))
        elif kind == "square":
            for a in g.out_arrows(v1):
                v3 = a[1]
                if v3 == v0:
                    continue
                for b in g.in_arrows(v3):
                    v2 = b[0]
                    # v2 = v1 is arrow i itself, and v2 = v0 no arrow
                    if index.get((v0, v2), -1) > i:
                        out.append(PatternEmbedding(
                            "square", (v0, v1, v2, v3),
                            ((v0, v1), (v1, v3), (v0, v2), (v2, v3))))
        elif index.get((v1, v0), -1) > i:
            out.append(PatternEmbedding("double-edge", (v0, v1), ((v0, v1), (v1, v0))))
    return out
