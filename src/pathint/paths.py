"""Path maps on a digraph: construction, step calculus, and reduction.

A path map is a vertex sequence v0..vn together with one orientation flag
per step.  A step with equal endpoints is trivial (normalized to forward);
otherwise the flag says whether the step traverses an arrow forwards or
backwards.  Equality is syntactic on (host, vertices, orientations), which
makes reduced paths canonical representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import PathError
from .graphs import BACKWARD, FORWARD, Arrow, Digraph, DigraphMap, Vertex, normalize_orientation


@dataclass(frozen=True)
class ForwardArrow:
    arrow: Arrow


@dataclass(frozen=True)
class InverseArrow:
    arrow: Arrow


@dataclass(frozen=True)
class Trivial:
    vertex: Vertex


Step = ForwardArrow | InverseArrow | Trivial


class PathMap:
    """A digraph map from a line digraph, stored as its vertex sequence."""

    def __init__(self, graph: Digraph, vertices: tuple, orientations: tuple):
        self.graph = graph
        self.vertices = vertices
        self.orientations = orientations

    @property
    def length(self) -> int:
        return len(self.orientations)

    @property
    def start(self) -> Vertex:
        return self.vertices[0]

    @property
    def end(self) -> Vertex:
        return self.vertices[-1]

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def __eq__(self, other):
        return (
            isinstance(other, PathMap)
            and self.graph == other.graph
            and self.vertices == other.vertices
            and self.orientations == other.orientations
        )

    def __hash__(self):
        return hash((self.vertices, self.orientations))

    def __repr__(self):
        walk = "".join(
            f"{v!r}" + (f" -{o}- " if o else "")
            for v, o in zip(self.vertices, self.orientations + ("",))
        )
        return f"PathMap({walk})"


class LoopMap(PathMap):
    """A path map whose endpoints coincide."""

    def __init__(self, graph, vertices, orientations):
        super().__init__(graph, vertices, orientations)
        if vertices[0] != vertices[-1]:
            raise PathError("loop endpoints differ")

    @property
    def base(self) -> Vertex:
        return self.vertices[0]


def _build(graph: Digraph, vertices: tuple, orientations: tuple) -> PathMap:
    cls = LoopMap if vertices[0] == vertices[-1] else PathMap
    return cls(graph, vertices, orientations)


def make_path(graph: Digraph, vertices: Sequence[Vertex],
              orientations: Sequence[str]) -> PathMap:
    """Validate and normalize a path map; trivial steps become forward.

    Raises PathError naming the first offending step index.
    """
    vs = tuple(vertices)
    if not vs:
        raise PathError("a path needs at least one vertex")
    os = tuple(normalize_orientation(o) for o in orientations)
    if len(os) != len(vs) - 1:
        raise PathError(
            f"expected {len(vs) - 1} orientation flags, got {len(os)}")
    for v in vs:
        if v not in graph.vertex_set:
            raise PathError(f"unknown vertex {v!r}")
    norm = []
    for i, o in enumerate(os):
        u, w = vs[i], vs[i + 1]
        arrow = (u, w) if o == FORWARD else (w, u)
        if u == w:
            o = FORWARD
        elif arrow not in graph.arrow_set:
            side = "forward" if o == FORWARD else "backward"
            raise PathError(f"step {i + 1}: {arrow!r} is not an arrow "
                            f"and the step is oriented {side}")
        norm.append(o)
    return _build(graph, vs, tuple(norm))


def trivial_path(graph: Digraph, v: Vertex) -> PathMap:
    return make_path(graph, (v,), ())


def steps(path: PathMap) -> tuple[Step, ...]:
    """Classify each step as a forward arrow, an inverse arrow, or trivial."""
    out: list[Step] = []
    for i, o in enumerate(path.orientations):
        u, w = path.vertices[i], path.vertices[i + 1]
        if u == w:
            out.append(Trivial(u))
        elif o == FORWARD:
            out.append(ForwardArrow((u, w)))
        else:
            out.append(InverseArrow((w, u)))
    return tuple(out)


def concat(a: PathMap, b: PathMap) -> PathMap:
    """Concatenation a then b.  Mismatched hosts or endpoints are errors."""
    if a.graph != b.graph:
        raise PathError("cannot concatenate paths on different digraphs")
    if a.end != b.start:
        raise PathError(
            f"cannot concatenate: first path ends at {a.end!r}, "
            f"second starts at {b.start!r}")
    return _build(a.graph, a.vertices + b.vertices[1:],
                  a.orientations + b.orientations)


def inverse(a: PathMap) -> PathMap:
    """Reversed vertex sequence with orientation flags reversed and flipped."""
    flipped = tuple(
        FORWARD if a.vertices[i] == a.vertices[i + 1]
        else (BACKWARD if o == FORWARD else FORWARD)
        for i, o in enumerate(a.orientations)
    )
    return _build(a.graph, a.vertices[::-1], flipped[::-1])


def cut(a: PathMap, i: int, j: int) -> PathMap:
    """The sub-path on step interval [i, j] (vertex indices, 0 <= i <= j <= n)."""
    if not (0 <= i <= j <= a.length):
        raise PathError(f"cut interval [{i}, {j}] out of range for length {a.length}")
    return _build(a.graph, a.vertices[i:j + 1], a.orientations[i:j])


def insert_trivial(a: PathMap, i: int) -> PathMap:
    """Splice a trivial step at vertex position i (0 <= i <= n)."""
    if not (0 <= i <= a.length):
        raise PathError(f"insertion position {i} out of range for length {a.length}")
    vs = a.vertices[:i + 1] + (a.vertices[i],) + a.vertices[i + 1:]
    os = a.orientations[:i] + (FORWARD,) + a.orientations[i:]
    return _build(a.graph, vs, os)


def runs(path: PathMap) -> list[tuple]:
    """The path's free reduction as signed arrows (arrow, +1 forward or -1
    backward): trivial steps dropped and each step that undoes the one
    before cancelled with it, so backtracks cost nothing."""
    return _runs(path.vertices, path.orientations)


def _runs(vertices: tuple, orientations: tuple) -> list[tuple]:
    """`runs` of an unchecked (vertices, orientations) pair."""
    out: list[tuple] = []
    for u, w, o in zip(vertices, vertices[1:], orientations):
        if u == w:
            continue
        arrow, sign = ((u, w), 1) if o == FORWARD else ((w, u), -1)
        if out and out[-1] == (arrow, -sign):
            out.pop()
        else:
            out.append((arrow, sign))
    return out


def reduce(a: PathMap) -> PathMap:
    """The canonical reduced representative of a's elementary equivalence
    class: the path its runs spell, each arrow forward for +1 and backward
    for -1."""
    vs, os = [a.start], []
    for (u, w), sign in runs(a):
        vs.append(w if sign > 0 else u)
        os.append(FORWARD if sign > 0 else BACKWARD)
    return _build(a.graph, tuple(vs), tuple(os))


def is_reduced(a: PathMap) -> bool:
    return reduce(a) == a


def elem_equivalent(a: PathMap, b: PathMap) -> bool:
    """True iff the reductions coincide verbatim."""
    if a.graph != b.graph:
        raise PathError("paths live on different digraphs")
    return reduce(a) == reduce(b)


def push_forward(f: DigraphMap, a: PathMap) -> PathMap:
    """The image path f o a; steps collapsing to a diagonal become trivial."""
    if a.graph != f.source:
        raise PathError("path does not live on the map's source digraph")
    vs = tuple(f(v) for v in a.vertices)
    os = tuple(
        FORWARD if vs[i] == vs[i + 1] else o
        for i, o in enumerate(a.orientations)
    )
    return make_path(f.target, vs, os)


def _extensions(g: Digraph, v: Vertex) -> list[tuple[Vertex, str]]:
    out = [(a[1], FORWARD) for a in g.out_arrows(v)]
    out += [(a[0], BACKWARD) for a in g.in_arrows(v)]
    return out


def _check_bound(name: str, value: int, least: int = 0, error=PathError) -> None:
    """Raise error unless value is an int, not a bool, of at least least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an int, got {value!r}")
    if value < least:
        bound = f"at least {least}" if least else "non-negative"
        raise error(f"{name} must be {bound}, got {value}")


def _check_base(g: Digraph, base: Vertex, error=PathError) -> None:
    """Raise error unless base is a vertex of g, before anything hashes it."""
    try:
        known = base in g.vertex_set
    except TypeError as exc:
        raise error(f"base vertex {base!r} is not hashable ({exc})") from None
    if not known:
        raise error(f"unknown base vertex {base!r}")


def _check_loop_pair(a: PathMap, b: PathMap, not_loops: str) -> None:
    """Raise PathError unless a and b are loops at one base on one digraph;
    not_loops is the message for a path that is not a loop."""
    if a.graph != b.graph:
        raise PathError("loops live on different digraphs")
    if not (a.is_loop and b.is_loop):
        raise PathError(not_loops)
    if a.start != b.start:
        raise PathError(
            f"loops are based at different vertices: {a.start!r} and {b.start!r}")


def _tree_paths(g: Digraph, base: Vertex) -> dict[Vertex, tuple[tuple, tuple]]:
    """The path from base to each vertex it reaches along one breadth-first
    spanning tree, arrows taken either way, each a shortest one, as unbuilt
    (vertices, orientations) pairs in breadth-first order; kept on the graph."""
    def build():
        tree = {base: ((base,), ())}
        queue = [base]
        for v in queue:
            vs, os = tree[v]
            for w, o in _extensions(g, v):
                if w not in tree:
                    tree[w] = (vs + (w,), os + (o,))
                    queue.append(w)
        return tree
    return g.derived(("tree paths", base), build)


def _through(tree: dict, vertices: tuple, orientations: tuple) -> tuple[tuple, tuple]:
    """The loop t(v) w t(u)^-1 at the base, unbuilt, for a walk w from v to
    u given as unbuilt (vertices, orientations) and t the tree paths of
    `_tree_paths`."""
    (sv, so), (ev, eo) = tree[vertices[0]], tree[vertices[-1]]
    flip = {FORWARD: BACKWARD, BACKWARD: FORWARD}
    return (sv + vertices[1:] + ev[-2::-1],
            so + orientations + tuple(flip[o] for o in eo[::-1]))


def _product(base: Vertex, loops) -> tuple[tuple, tuple]:
    """The concatenation of unbuilt loops at base, unbuilt; the trivial
    loop for none."""
    return ((base,) + tuple(v for vs, _ in loops for v in vs[1:]),
            tuple(o for _, os in loops for o in os))


def _non_tree_arrows(g: Digraph, base: Vertex) -> tuple[Arrow, ...]:
    """The arrows of the base's component off the tree of `_tree_paths`, in
    arrow order; kept on the graph.  This is the one definition of "on the
    tree": the generator loops and the letters of `homotopy.pi1_candidates`
    both read it."""
    _check_base(g, base)

    def build():
        tree = _tree_paths(g, base)
        on_tree = {(vs[-2], vs[-1]) if os[-1] == FORWARD else (vs[-1], vs[-2])
                   for vs, os in tree.values() if os}
        return tuple(a for a in g.arrows if a[0] in tree and a not in on_tree)
    return g.derived(("non-tree arrows", base), build)


def _loop_generators(g: Digraph, base: Vertex) -> tuple[tuple[tuple, tuple], ...]:
    """The loop t(s) a t(r)^-1 of each arrow a = (s, r) of
    `_non_tree_arrows`, t(v) the tree path to v, in its order, as unbuilt
    (vertices, orientations) pairs; kept on the graph.  Every loop at base
    reduces to a product of these and inverses."""
    arrows = _non_tree_arrows(g, base)
    return g.derived(("loop generators", base), lambda: tuple(
        _through(_tree_paths(g, base), a, (FORWARD,)) for a in arrows))


def _generator_words(g: Digraph, base: Vertex, d: int) -> Iterator[tuple[tuple[tuple, tuple], ...]]:
    """The tuples of k <= d loops of `_loop_generators`, by k, each k in
    `itertools.product` order; none for d < 0.

    Lemma: a functional of degree <= d linear in the signature S vanishes
    on every loop at base iff it does on the products (`_product`) of these.
    A loop reduces to a product of generators c and their inverses, and S
    is multiplicative (Chen's identity).  With S(c) = 1 + X_c, S(c)^-1 is
    the sum of the (-X_c)^j, a product of more than d X's has no part of
    degree <= d, and by inclusion-exclusion a product of at most d X's is a
    signed sum of the S of products of at most d generators.  So a
    functional bilinear in (S(a), S(b)) of degree <= d is decided on the
    pairs of products of k_a + k_b <= d generators.  K.-T. Chen, Bull. AMS
    83 (1977); W. Magnus, Math. Ann. 111 (1935)."""
    gens = _loop_generators(g, base)
    for k in range(d + 1):
        yield from product(gens, repeat=k)


def enumerate_paths(g: Digraph, base: Vertex, max_length: int,
                    loops_only: bool = False) -> Iterator[PathMap]:
    """All path maps from base with non-trivial steps, by increasing length.

    Within one length, paths come in step-choice order: forward arrows in
    input order, then backward arrows in input order.  With loops_only only
    paths returning to base are yielded (the trivial loop first), and a
    path is not extended once it ends farther from base than it has steps
    left (the distances read off the tree paths).
    """
    _check_base(g, base)
    _check_bound("max_length", max_length)
    dist = {v: len(os) for v, (_, os) in _tree_paths(g, base).items()} if loops_only else None
    steps: dict[Vertex, list[tuple[Vertex, str]]] = {}
    frontier: list[tuple] = [((base,), ())]
    for length in range(max_length + 1):
        left = max_length - length - 1  # steps left after one more
        next_frontier = []
        for vs, os in frontier:
            if not loops_only or vs[-1] == base:
                yield _build(g, vs, os)
            if length == max_length:
                continue
            ext = steps.get(vs[-1])
            if ext is None:
                ext = steps[vs[-1]] = _extensions(g, vs[-1])
            for w, o in ext:
                if not loops_only or dist[w] <= left:
                    next_frontier.append((vs + (w,), os + (o,)))
        frontier = next_frontier
