"""Combinatorial homotopy of loops and the homotopy-invariant subalgebra.

The five local moves on vertex sequences (triangle contraction, square
replacement, square contraction, backtrack removal, trivial-step removal)
and their inverses generate the homotopy relation on path maps.  This module
enumerates one-move neighbors with replayable certificates, searches for
bounded homotopies, decides exactly the invariance of integration
functionals, on test pairs of loops made from the spanning-tree generator
loops and the 2-cells, and the degree-bounded homotopy-invariant candidate
space, on the non-tree letters from the relators of the 2-cells, and
transports loop functionals along a connecting path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from typing import Iterator, Sequence

from .algebra import AlgebraElement, BasedFunctional
from .errors import MapError, PathError
from .forms import OneForm, _closedness, _omega2_boundaries, closed_arrows, is_closed
from .graphs import Arrow, Digraph, DigraphMap, Vertex, enumerate_patterns
from .integrals import _pairing, _spelled, all_words, signature
from .linalg import _ONE, _ZERO, Echelon, _sum_terms
from .paths import (FORWARD, PathMap, _build, _check_base, _check_bound, _check_loop_pair,
                    _generator_words, _loop_generators, _non_tree_arrows, _product, _runs,
                    _through, _tree_paths, inverse, make_path, runs)

MOVE_KINDS = ("triangle-contract", "square-replace", "square-contract",
              "backtrack", "trivial-drop")

Window = tuple[tuple, tuple]  # (vertices, orientations) of a path segment


@dataclass(frozen=True)
class Move:
    """One local rewrite of a path: the window starting at vertex index
    `position` is removed and replaced; both windows share endpoints."""
    kind: str
    direction: str  # "apply" | "unapply"
    position: int
    before: Window
    after: Window


def invert_move(move: Move) -> Move:
    flipped = "unapply" if move.direction == "apply" else "apply"
    return Move(move.kind, flipped, move.position, move.after, move.before)


def apply_move(path: PathMap, move: Move) -> PathMap:
    """Replay a move on a path, checking the recorded window verbatim.
    Only the new window is validated: it must be a path with the old
    window's endpoints, so both junction steps stay those of `path`."""
    bv, bo = move.before
    p = move.position
    k = len(bv)
    if k == 0 or p < 0 or p + k > len(path.vertices):
        raise PathError(f"move window out of range at position {p}")
    if path.vertices[p:p + k] != bv or path.orientations[p:p + k - 1] != bo:
        raise PathError("move window does not match the path")
    window = make_path(path.graph, *move.after)
    if (window.start, window.end) != (bv[0], bv[-1]):
        raise PathError("move windows do not share their endpoints")
    return _build(path.graph, *_splice(path.vertices, path.orientations, p,
                                       move.before,
                                       (window.vertices, window.orientations)))


def _splice(vertices: tuple, orientations: tuple, position: int,
            before: Window, after: Window) -> Window:
    """(vertices, orientations) with the window `before` at `position`
    replaced by `after`, unchecked; `before` is read for its length only."""
    k = len(before[0])
    return (vertices[:position] + after[0] + vertices[position + k:],
            orientations[:position] + after[1] + orientations[position + k - 1:])


@dataclass(frozen=True)
class MoveCertificate:
    """A replayable chain of moves connecting two loops."""
    start: PathMap
    moves: tuple[Move, ...]
    end: PathMap

    def replay(self) -> list[PathMap]:
        """All intermediate paths, including both endpoints; raises if any
        move fails to apply, is not a move of `_moves` from its path or the
        inverse of one from the next path, or the chain does not land on
        `end`."""
        states = [self.start]
        for i, move in enumerate(self.moves):
            here = states[-1]
            there = apply_move(here, move)
            if not (_lists(here, move) or _lists(there, invert_move(move))):
                raise PathError(
                    f"move {i + 1} is not a {move.kind} ({move.direction})")
            states.append(there)
        if states[-1] != self.end:
            raise PathError("certificate does not land on its end loop")
        return states


def _moves(g: Digraph, V: tuple, O: tuple, reach: tuple[int, int] | None = None,
           room: int | None = None) -> Iterator[tuple]:
    """All one-move rewrites of the path with vertices V and orientations O
    on g, both directions, every position, as the field tuples
    (kind, direction, position, before, after) of `Move`.  Vertex-sequence
    moves come with every orientation realization the host's arrows allow,
    read off the host's step flags.  Candidate vertices come from the
    host's move tables, in vertex input order.  With reach = (a, b) only
    the windows that start at step a or before and end at step b or after
    are listed, in the same order (a window of s steps at position p ends
    at step p + s - 1, so a trivial insertion at p ends at p - 1).

    With a room r, the steps a rewrite may add to the path (for a search,
    its length bound less the path's length), only the moves that add at
    most r steps are listed, in the same order.  A move's growth is fixed
    by its kind and direction: a square expansion adds 2 steps; a
    triangle expansion, a backtrack insertion and a trivial insertion add
    1; a square replacement adds 0; the other apply-direction moves remove
    1 or 2.  So r < 1 skips the inverse directions and the trivial
    insertions, and r < 2 skips the square expansions.  A path already
    longer than a search's bound (r < 0) is rare: its moves are filtered
    one by one."""
    if room is not None and room < 0:
        yield from (m for m in _moves(g, V, O, reach)
                    if len(m[4][1]) - len(m[3][1]) <= room)
        return
    t = g.move_tables()
    f = t.flags
    n = len(O)
    a, b = (n, -1) if reach is None else reach
    # the positions of the windows of s = 0, 1, 2, 3 steps
    starts = [range(max(0, b - s + 1), min(n - s, a) + 1) for s in range(4)]

    for p in starts[2]:
        w = V[p:p + 3]
        x, _, z = w
        triangle = w in t.triangles
        corners = t.square_corner.get(w, ())
        if not (triangle or corners or x == z):
            continue
        before = (w, O[p:p + 2])
        # (i) triangle contraction: v0 v1 v2 -> v0 v2
        if triangle:
            for o in f.get((x, z), ()):
                yield ("triangle-contract", "apply", p, before, ((x, z), (o,)))
        # (ii) square replacement: v0 v1 v3 -> v0 v2 v3
        for u in corners:
            for o in product(f.get((x, u), ()), f.get((u, z), ())):
                yield ("square-replace", "apply", p, before, ((x, u, z), o))
        # (iv) backtrack removal: v0 v1 v0 -> v0 v0
        if x == z:
            yield ("backtrack", "apply", p, before, ((x, x), (FORWARD,)))

    # (iii) square contraction: v0 v1 v3 v2 -> v0 v2
    for p in starts[3]:
        if V[p:p + 4] in t.squares:
            before = (V[p:p + 4], O[p:p + 3])
            for o in f.get((V[p], V[p + 3]), ()):
                yield ("square-contract", "apply", p, before, ((V[p], V[p + 3]), (o,)))

    # (v) trivial-step removal, any position (a stationary step is dropped)
    for p in starts[1]:
        if V[p] == V[p + 1]:
            yield ("trivial-drop", "apply", p, ((V[p], V[p]), (O[p],)), ((V[p],), ()))

    if room is not None and room < 1:
        return
    wide = room is None or room >= 2

    # inverse directions
    for p in starts[1]:
        x, z = ends = V[p:p + 2]
        apexes = t.triangle_apex.get(ends, ())
        sides = t.square_sides.get(ends, ()) if wide else ()
        if not (apexes or sides or x == z):
            continue
        before = (ends, O[p:p + 1])
        # (i) expansion: v0 v2 -> v0 v1 v2 through a triangle
        for y in apexes:
            for o in product(f.get((x, y), ()), f.get((y, z), ())):
                yield ("triangle-contract", "unapply", p, before, ((x, y, z), o))
        # (iii) expansion: v0 v2 -> v0 v1 v3 v2 through a square
        for u, v in sides:
            for o in product(f.get((x, u), ()), f.get((u, v), ()), f.get((v, z), ())):
                yield ("square-contract", "unapply", p, before, ((x, u, v, z), o))
        # (iv) expansion: a trivial step opens into a backtrack v0 v1 v0
        if x == z:
            for u in t.star[x]:
                for o in product(f.get((x, u), ()), f.get((u, x), ())):
                    yield ("backtrack", "unapply", p, before, ((x, u, x), o))

    # (v) expansion: insert a trivial step at any vertex
    for p in starts[0]:
        yield ("trivial-drop", "unapply", p, ((V[p],), ()), ((V[p], V[p]), (FORWARD,)))


def _lists(path: PathMap, move: Move) -> bool:
    """True iff `_moves` lists the move from the path; only the windows that
    cover the move's window are listed."""
    p = move.position
    fields = (move.kind, move.direction, p, move.before, move.after)
    reach = (p, p + len(move.before[1]) - 1)
    return any(t == fields for t in _moves(path.graph, path.vertices,
                                           path.orientations, reach))


def move_neighbors(loop: PathMap) -> list[tuple[PathMap, Move]]:
    """Every (neighbor, move) pair of `_moves`, in its order, each neighbor
    built by `apply_move`."""
    moves = [Move(*t) for t in _moves(loop.graph, loop.vertices, loop.orientations)]
    return [(apply_move(loop, m), m) for m in moves]


@dataclass(frozen=True)
class HomotopyVerdict:
    """Outcome of a bounded homotopy decision."""
    status: str  # "yes" | "certified-no" | "unknown"
    certificate: MoveCertificate | None = None
    invariant: AlgebraElement | None = None
    values: tuple[Fraction, Fraction] | None = None
    length_bound: int = 0
    depth_bound: int = 0


def _winding_is_closed(g: Digraph) -> bool:
    """True iff the all-ones 1-form (total winding) is closed."""
    return all(sum(c for _, c in row) == 0 for row in _omega2_boundaries(g))


def _net_counts(path: PathMap) -> dict[int, int]:
    """The path's degree-1 signature: the net traversals of each arrow,
    keyed by its index."""
    idx = path.graph.arrow_index
    counts: dict[int, int] = {}
    for arrow, sign in runs(path):
        j = idx[arrow]
        counts[j] = counts.get(j, 0) + sign
    return counts


def _separating_invariant(a: PathMap, b: PathMap):
    """The first theorem-backed invariant that differs on the two loops,
    with its two values, or None.  The invariants, in order: the all-ones
    1-form (total winding) when it is closed, then the vectors of the
    closed basis, the kernel of `forms._closedness(g)`, then the degree-2
    words over `closed_arrows(g)`, in `product` order.  Such a word passes
    `invariant_sufficient`, because no closed arrow is a side of a triangle
    or a square; a word with a letter that is not closed fails it.

    Separation lemma.  A closed form pairs with a loop through the loop's
    net arrow counts, and the closed forms are exactly the forms that
    vanish on the Omega_2 boundaries (H_1 = Z_1 / d Omega_2).  So some closed
    form separates two loops exactly when the difference of their net
    counts lies outside the boundary span, and then a vector of any basis
    of the closed forms does.

    The degree-1 stage is therefore decided in ints: the difference d of
    the loops' net arrow counts is reduced against `forms._closedness(g)`,
    the one elimination of the boundaries per graph that the closed basis
    is read from.  Nothing left (d = 0 or d in the span) means that no
    closed form separates the loops, and every degree-1 invariant is
    skipped with the closed basis unformed.  Otherwise the reduction left
    r = lambda d - s, with lambda > 0, s in the span and r zero on the
    span's pivots.  The closed basis vector k_f of a free column f is e_f
    on the free columns and orthogonal to the span, so <k_f, d> =
    r[f] / lambda: the first basis vector that separates is that of the
    least column of r.  The all-ones form, tried first when closed,
    separates when d sums to nonzero.  The separator's two values are
    paired from each loop's net counts.  The degree-2 words over closed
    arrows pair through one `signature` per loop."""
    g = a.graph
    nets = (_net_counts(a), _net_counts(b))
    diff = {j: d for j in {**nets[0], **nets[1]}
            if (d := nets[0].get(j, 0) - nets[1].get(j, 0))}
    rest = diff and _closedness(g).residue(diff)
    if rest:
        if sum(diff.values()) and _winding_is_closed(g):
            vec = dict.fromkeys(range(len(g.arrows)), _ONE)
        else:
            f = min(rest)
            vec = next(v for v in _closedness(g).kernel() if f in v)
        values = tuple(sum((vec.get(j, _ZERO) * k for j, k in net.items()), _ZERO)
                       for net in nets)
        return AlgebraElement._unchecked(
            g, {(g.arrows[j],): c for j, c in vec.items()}), values
    words = list(product(closed_arrows(g), repeat=2))
    if not words:
        return None
    sig_a, sig_b = signature(a, words), signature(b, words)
    for w in words:
        if sig_a[w] != sig_b[w]:
            return AlgebraElement._unchecked(g, {w: _ONE}), (sig_a[w], sig_b[w])
    return None


def homotopic_loops(a: PathMap, b: PathMap, length_bound: int = 12,
                    depth_bound: int = 8) -> HomotopyVerdict:
    """Decide move-equivalence of two loops at a common base, within bounds.

    Certified separations are attempted first with theorem-backed invariant
    functionals; otherwise a bidirectional search over the move graph looks
    for a certificate.  Exhausting the bounds yields an honest "unknown".
    """
    _check_bound("length_bound", length_bound)
    _check_bound("depth_bound", depth_bound)
    _check_loop_pair(a, b, "homotopy search requires loops")
    verdict = partial(HomotopyVerdict, length_bound=length_bound, depth_bound=depth_bound)

    if a == b:
        return verdict("yes", certificate=MoveCertificate(a, (), b))

    found = _separating_invariant(a, b)
    if found is not None:
        elem, values = found
        return verdict("certified-no", invariant=elem, values=values)

    # Bidirectional breadth-first search over raw (vertices, orientations)
    # states; parents[side] maps each state of side 0 (from a) or 1 (from b)
    # to its (previous state, move fields of `_moves` from it) pair.  A
    # `Move` is made only for the certificate, and no state is built as a
    # path: `cert.replay()` validates the chain found.  `_moves` is given the
    # room left under the length bound, so it lists only the moves whose
    # result fits.
    g = a.graph
    starts = ((a.vertices, a.orientations), (b.vertices, b.orientations))
    parents: tuple[dict[Window, tuple | None], ...] = tuple({s: None} for s in starts)
    frontiers = [[s] for s in starts]
    depth_used = 0
    meet: Window | None = None

    while meet is None and depth_used < depth_bound and all(frontiers):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = parents[side], parents[1 - side]
        new_frontier: list[Window] = []
        for here in frontiers[side]:
            V, O = here
            for t in _moves(g, V, O, room=length_bound - len(O)):
                nb = _splice(V, O, *t[2:])
                if nb in mine:
                    continue
                mine[nb] = (here, t)
                new_frontier.append(nb)
                if nb in other:
                    meet = nb
                    break
            if meet is not None:
                break
        frontiers[side] = new_frontier
        depth_used += 1

    if meet is None:
        return verdict("unknown")

    # Walking each side back from the meet lists a's moves last first and
    # b's moves from the meet towards b, which the chain takes inverted.
    halves: tuple[list[Move], list[Move]] = ([], [])
    for side, half in enumerate(halves):
        node = meet
        while parents[side][node] is not None:
            node, t = parents[side][node]
            half.append(invert_move(Move(*t)) if side else Move(*t))
    cert = MoveCertificate(a, tuple(halves[0][::-1] + halves[1]), b)
    cert.replay()
    return verdict("yes", certificate=cert)


def one_step_map_homotopy(f: DigraphMap, g: DigraphMap) -> bool:
    """True iff the box product of the source with a single arrow extends
    f, g to a digraph map, i.e. every rung (f(v), g(v)) is an arrow or
    diagonal; both rung directions are tried."""
    if f.source != g.source or f.target != g.target:
        raise MapError("maps must share source and target")
    h = f.target

    def rungs_ok(p: DigraphMap, q: DigraphMap) -> bool:
        return all(p(v) == q(v) or h.has_arrow(p(v), q(v))
                   for v in f.source.vertices)

    return rungs_ok(f, g) or rungs_ok(g, f)


def _isosceles_on_pair(word: Sequence[OneForm], p: Arrow, q: Arrow) -> bool:
    """Tuple products over {p, q} are permutation-symmetric: some letter
    vanishes on both arrows (every product is 0), or the letters' value
    pairs are pairwise proportional (the products are lambda a^(r-k) b^k).
    Otherwise swapping two positions whose pairs are not proportional, the
    other letters taking nonzero values, changes the product."""
    values = [(omega(p), omega(q)) for omega in word]
    if any(vp == 0 and vq == 0 for vp, vq in values):
        return True
    return all(vp * wq == wp * vq
               for i, (vp, vq) in enumerate(values) for wp, wq in values[i + 1:])


def _side_pairs(g: Digraph) -> tuple[tuple[Arrow, Arrow], ...]:
    """The composable side arrows of every embedded triangle, then the two
    side pairs of every embedded square, in `enumerate_patterns` order."""
    return g.derived("isosceles side pairs", lambda: tuple(
        [emb.arrows[:2] for emb in enumerate_patterns(g, "triangle")]
        + [pair for emb in enumerate_patterns(g, "square")
           for pair in (emb.arrows[:2], emb.arrows[2:])]))


def is_isosceles(word: Sequence[OneForm], g: Digraph) -> bool:
    """Permutation symmetry of the word's products over every side pair of
    `_side_pairs`, by the pairwise proportionality criterion of
    `_isosceles_on_pair`."""
    if any(omega.graph != g for omega in word):
        raise PathError("form lives on a different digraph")
    return len(word) <= 1 or all(_isosceles_on_pair(word, p, q)
                                 for p, q in _side_pairs(g))


def invariant_sufficient(word: Sequence[OneForm], g: Digraph) -> bool:
    """Sufficient condition for homotopy invariance of the word's iterated
    integral: every letter closed and every contiguous subword isosceles.

    Lemma.  Every contiguous subword is isosceles exactly when every two
    adjacent letters are.  On one side pair, a subword is isosceles when
    some letter vanishes on both arrows, or when its letters' value pairs
    are all proportional; proportionality of nonzero pairs is an
    equivalence relation, so a subword without a vanishing letter whose
    adjacent letters are proportional has all its letters proportional.
    Hence the r - 1 adjacent pairs are tested, not the r(r+1)/2 subwords."""
    if any(omega.graph != g for omega in word):
        raise PathError("form lives on a different digraph")
    return (all(is_closed(omega) for omega in word)
            and all(is_isosceles(word[i:i + 2], g) for i in range(len(word) - 1)))


# per pattern kind: the move that takes its cell loop (the pattern's
# boundary walk) to the runs of the trivial loop, and the roles of the
# move's new window (forward)
_CELLS = {"triangle": ("triangle-contract", (0, 2)),
          "square": ("square-replace", (0, 2, 3)),
          "double-edge": ("backtrack", (0, 0))}


def _cell_loops(g: Digraph, base: Vertex) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """One loop at base per 2-cell of the base's component, by `_CELLS`, in
    `enumerate_patterns` order: the pattern's boundary walk conjugated by
    the tree path t(v0) of `paths._tree_paths`, as unbuilt (vertices,
    orientations, fields of the move of `_moves` at the walk's first step);
    kept on the graph."""
    _check_base(g, base)

    def build():
        tree, f = _tree_paths(g, base), FORWARD
        out = []
        for kind, (move, roles) in _CELLS.items():
            for emb in enumerate_patterns(g, kind):
                (vs, os), new = emb.boundary_walk(), tuple(emb.vertices[i] for i in roles)
                if vs[0] in tree:
                    out.append((*_through(tree, vs, os),
                                (move, "apply", len(tree[vs[0]][1]), (vs[:3], os[:2]),
                                 (new, (f,) * (len(new) - 1)))))
        return tuple(out)
    return g.derived(("cell loops", base), build)


def _test_pairs(g: Digraph, base: Vertex, degree: int) -> Iterator[tuple[Window, Window, tuple]]:
    """The test pairs of degree d at base as unbuilt (loop, neighbor, move
    fields): for each word w of `paths._generator_words` up to d - 1, in
    its order, each split w = X Y (X of its first i = 0..k loops) and each
    cell loop r of `_cell_loops`, the loop X r Y, the loop X Y, and r's move
    in X r Y, which gives a loop with the runs of X Y.

    Lemma: x of degree d pairs equally with every two loops at base one move
    apart iff it does with each test pair.  The signature S is
    multiplicative (Chen's identity): S(X r Y) - S(X Y) = S(X)(S(r) - 1)S(Y).
    A move rewrites P W Q to P W' Q, and W W'^-1 bounds a triangle or a
    square, or is a backtrack through both arrows of a double edge (a
    same-arrow backtrack or a trivial step keeps the runs); another
    orientation of a step adds a double-edge cell.  Conjugated to base, the
    difference is S(A)(S(r)^+-1 - 1)S(B) for a cell loop r and loops A, B,
    and S(r)^-1 - 1 = -S(r)^-1 (S(r) - 1).  S(r) - 1 has no part of degree 0,
    so this is bilinear in (S(A), S(B)) of degree <= d - 1, decided on the
    pairs of the lemma of `paths._generator_words`.  Grigor'yan, Lin,
    Muranov, Yau, Pure Appl. Math. Q. 10 (2014)."""
    cells = _cell_loops(g, base)
    for word in _generator_words(g, base, degree - 1):
        neighbor = _product(base, word)
        for i in range(len(word) + 1):
            at = sum(len(os) for _, os in word[:i])
            for vs, os, (kind, direction, p, before, after) in cells:
                yield (_product(base, word[:i] + ((vs, os),) + word[i:]), neighbor,
                       (kind, direction, at + p, before, after))


def _by_runs(f):
    """f of an unbuilt loop's runs, once per run sequence."""
    memo: dict[tuple, object] = {}

    def value(loop: Window):
        rs = tuple(_runs(*loop))
        if rs not in memo:
            memo[rs] = f(rs)
        return memo[rs]
    return value


@dataclass(frozen=True)
class InvarianceVerdict:
    """Outcome of an exact invariance check."""
    status: str  # "invariant" | "counterexample"
    base: Vertex
    loop: PathMap | None = None
    neighbor: PathMap | None = None
    move: Move | None = None
    values: tuple[Fraction, Fraction] | None = None


def invariance_verify(elem: AlgebraElement, base: Vertex) -> InvarianceVerdict:
    """Decide whether the element pairs equally with every two loops at
    base that are one move apart, on the test pairs of `_test_pairs` (by
    its lemma).  The first test pair that pairs differently gives the
    counterexample: its loop, the cell's move and the neighbor it makes;
    if none does, the element is invariant.  The pairing is set up at the
    first test pair, so a base without one sets up none."""
    g = elem.graph
    value = None
    for loop, neighbor, fields in _test_pairs(g, base, elem.degree):
        if value is None:
            value = _by_runs(_pairing(elem.coeffs))
        va, vb = value(loop), value(neighbor)
        if va != vb:
            path, move = _build(g, *loop), Move(*fields)
            return InvarianceVerdict("counterexample", base, loop=path,
                                     neighbor=apply_move(path, move), move=move,
                                     values=(va, vb))
    return InvarianceVerdict("invariant", base)


@dataclass(frozen=True)
class Pi1Result:
    """The candidate space of `pi1_candidates`: a basis of the loop
    functionals of degree <= degree_bound at base that every homotopy move
    keeps, one element on the non-tree words of `paths._non_tree_arrows`
    per functional (its unique representative there).  `invariant_kernel`
    holds every element over the arrow words that every move keeps, from
    the relator rows kept, each lifted by the generator loops' S(g) - 1."""
    graph: Digraph
    base: Vertex
    degree_bound: int
    candidates: tuple[AlgebraElement, ...]
    _relations: tuple[tuple[tuple, dict, tuple], ...] = field(repr=False, compare=False)

    @cached_property
    def invariant_kernel(self) -> tuple[AlgebraElement, ...]:
        """A basis of every element over the arrow words of degree 1..d
        that pairs equally with every two loops one move apart, as the
        kernel of the relator rows lifted to every arrow word; built at the
        first read.

        Lemma.  Let X_a = d! (S(g_a) - 1) for the generator loop g_a of
        letter a, read off `_spelled` on the words g_a's runs spell, and
        X_w the product of X_a over the letters of w.  Each row that
        elimination kept, `_relations` as (w, d! (S(r) - 1), w'), lifts to
        X_w (S(r) - 1) X_w'.  phi X_a = d! (exp(e_a) - 1) is
        d! e_a plus longer words, so phi of a lift is w R_r w' plus relator
        rows of longer shifts, up to a positive factor.  `pi1_candidates`
        inserts the longest shifts first, so the rows it kept of shift >= k
        span every relator row of shift >= k: the lifts are independent,
        and their phi-images span the relator rows.  phi is one to one on
        the span of the loops' signatures, where the lifts lie, so the lifts
        span the rows X (S(r) - 1) Y, X and Y products of d! (S(g) - 1)
        over generator loops g, and these span the rows of `_test_pairs` by
        the lemma of `paths._generator_words`: the kernel is that of every
        move row over every arrow word, in its reduced basis."""
        g, base, d = self.graph, self.base, self.degree_bound
        x = {}  # X_w in ints

        def lift(w):
            if w not in x:
                if len(w) > 1:
                    x[w] = _times(lift(w[:1]), lift(w[1:]), d)
                else:
                    i = _non_tree_arrows(g, base).index(w[0])
                    x[w] = _less_one(*_loop_generators(g, base)[i], d)
            return x[w]
        words = all_words(g.arrows, d, min_degree=1)
        column = {w: k for k, w in enumerate(words)}
        echelon = Echelon(len(words))
        for w, row, w2 in self._relations:
            if w:
                row = _times(lift(w), row, d)
            if w2:
                row = _times(row, lift(w2), d)
            echelon.add_sparse({column[u]: c for u, c in row.items()})
        return tuple(AlgebraElement._unchecked(g, {words[k]: c for k, c in vec.items()})
                     for vec in echelon.kernel())

    @property
    def invariant_kernel_dimension(self) -> int:
        """len(invariant_kernel) without building it: the number of arrow
        words of degree 1..d less the number of relator rows kept, whose
        lifts are independent by the lemma of `invariant_kernel`."""
        n = len(self.graph.arrows)
        return sum(n ** k for k in range(1, self.degree_bound + 1)) - len(self._relations)


def _less_one(vs: tuple, os: tuple, d: int) -> dict:
    """d! (S - 1) of the unbuilt path (vs, os) truncated at degree d, in
    ints, on the words its runs spell with a nonzero value: `_spelled`
    gives L! <w, S>."""
    top = math.factorial(d)
    return {w: top // math.factorial(len(w)) * v
            for w, v in _spelled(_runs(vs, os), d).items() if w}


def _times(a: dict, b: dict, d: int) -> dict:
    """The product of two elements of the tensor algebra, word ->
    coefficient, truncated at degree d."""
    return _sum_terms((u + v, x * y) for u, x in a.items() for v, y in b.items()
                      if len(u) + len(v) <= d)


def pi1_candidates(g: Digraph, base: Vertex, degree_bound: int) -> Pi1Result:
    """The loop functionals of degree 1..d at base, d = degree_bound, that
    pair equally with every two loops one move apart: exact, with no length
    bound, as the kernel of one elimination over the words of degree 1..d
    in the n letters of `paths._non_tree_arrows` (the base is checked there,
    before any cache key holds it).

    Lemma.  Setting every tree letter to 0 is an algebra map phi, and an
    element x on non-tree words pairs with a loop l through phi S(l), the
    signature of l's runs with the tree arrows dropped.  phi S of the
    generator loop of a letter a is exp(e_a), so phi S of the products of
    at most d generator loops spans every monomial of degree <= d (the
    lemma of `paths._generator_words`; the Magnus isomorphism
    Q[F]/I^(d+1) = T<=d, W. Magnus, Math. Ann. 111, 1935): each loop
    functional of degree <= d has exactly one such representative, and
    only x = 0 vanishes on every loop.  By the lemma of `_test_pairs` and
    Chen's identity, x is kept by every move iff it annihilates
    phi S(X) (phi S(r) - 1) phi S(Y) for each cell loop r of `_cell_loops`
    (Grigor'yan, Lin, Muranov, Yau, Pure Appl. Math. Q. 10, 2014) and
    generator products X, Y, that is, iff it annihilates the shifted
    relators w R_r w' truncated at degree d, R_r = phi S(r) - 1 and w, w'
    monomials with |w| + |w'| <= d - 1.  So the candidates are the kernel
    of those rows: d! R_r is d! (S(r) - 1), read off `_spelled` on the
    words r's runs spell (Chen's identity; every other word pairs to 0),
    on the non-tree words, and each row is inserted sparse, the longest
    shifts first.  No loop rows are needed; the rows kept independent are
    what `Pi1Result.invariant_kernel` lifts at its first read, and its
    lemma needs that order."""
    _check_bound("degree_bound", degree_bound, 1)
    d = degree_bound
    letters = _non_tree_arrows(g, base)
    words = all_words(letters, d, min_degree=1)
    column = {w: k for k, w in enumerate(words)}
    cells = [_less_one(vs, os, d) for vs, os, _ in _cell_loops(g, base)]
    relators = [[(w, cell[w]) for w in words if w in cell] for cell in cells]
    echelon, relations = Echelon(len(words)), []
    for k in reversed(range(d)):  # the shifts w, w' with |w| + |w'| = k
        for cell, relator in zip(cells, relators):
            terms = [(u, c) for u, c in relator if len(u) <= d - k]
            for i in range(k + 1):
                for w, w2 in product(product(letters, repeat=i),
                                     product(letters, repeat=k - i)):
                    if echelon.add_sparse({column[w + u + w2]: c for u, c in terms}):
                        relations.append((w, cell, w2))
    candidates = tuple(AlgebraElement._unchecked(g, {words[k]: c for k, c in vec.items()})
                       for vec in echelon.kernel())
    return Pi1Result(g, base, degree_bound, candidates, tuple(relations))


def change_base_point(gamma: PathMap, elem):
    """Transport a loop functional along gamma from x to y back to x: each
    word splits in two, the outer parts integrating over gamma's inverse
    and gamma itself.  Adjoint to conjugating loops by gamma."""
    wrapped = isinstance(elem, BasedFunctional)
    inner = elem.elem if wrapped else elem
    if inner.graph != gamma.graph:
        raise PathError("element and path live on different digraphs")
    if wrapped:
        if elem.flavor != "loop":
            raise PathError("base-point change transports loop functionals")
        if elem.base != gamma.end:
            raise PathError(
                f"functional based at {elem.base!r}, path ends at {gamma.end!r}")
    words = list(inner.coeffs)
    heads = signature(inverse(gamma), words)
    tails = signature(gamma, (w[j:] for w in words for j in range(len(w) + 1)))
    out = AlgebraElement._unchecked(inner.graph, _sum_terms(
        (w[i:j], c * head * tail)
        for w, c in inner.coeffs.items() for i in range(len(w) + 1)
        if (head := heads[w[:i]])
        for j in range(i, len(w) + 1) if (tail := tails[w[j:]])))
    if wrapped:
        return BasedFunctional(out, gamma.start, "loop")
    return out
