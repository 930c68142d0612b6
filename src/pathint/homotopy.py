"""Combinatorial homotopy of loops and the homotopy-invariant subalgebra.

The five local moves on vertex sequences (triangle contraction, square
replacement, square contraction, backtrack removal, trivial-step removal)
and their inverses generate the homotopy relation on path maps.  This module
enumerates one-move neighbors with replayable certificates, searches for
bounded homotopies, checks invariance of integration functionals against
move pairs, computes the degree-bounded homotopy-invariant candidate space,
and transports loop functionals along a connecting path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import product
from typing import Iterator, Sequence

from .algebra import AlgebraElement, BasedFunctional
from .errors import MapError, PathError
from .forms import OneForm, _closedness, _omega2_boundaries, closed_arrows, is_closed
from .graphs import Arrow, Digraph, DigraphMap, Vertex, enumerate_patterns
from .integrals import (Word, _all_words_plan, _evaluate, _pairing, all_words,
                        signature)
from .linalg import _ONE, _ZERO, Echelon, _sum_terms
from .paths import (FORWARD, PathMap, _build, _check_base, _check_bound, _check_loop_pair,
                    _runs, _walk, inverse, make_path, runs)

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


def _keeps_runs(kind: str, direction: str, _position: int, before: Window,
                after: Window) -> bool:
    """True iff the move with these fields leaves the runs of any path as
    they are: it drops or inserts a trivial step, or a backtrack whose two
    steps use one arrow (their orientations differ)."""
    if kind == "trivial-drop":
        return True
    if kind == "backtrack":
        o = (before if direction == "apply" else after)[1]
        return o[0] != o[1]
    return False


def _numbered_sample(g: Digraph, base: Vertex, length_bound: int) -> tuple[
        tuple[tuple, ...], tuple[tuple[int, int], ...], tuple[tuple, ...]]:
    """(seqs, pairs, witnesses): the sample of (loop, one-move neighbor)
    pairs over every loop at base up to the length bound, as plain data.
    seqs are the run sequences met, numbered in order of first appearance;
    pairs are the distinct pairs (number of the loop's runs, number of the
    neighbor's), in enumeration order; and witnesses holds, for each pair,
    the first (loop vertices, loop orientations, move fields of `_moves`)
    that gives it.  A pairing depends on a path only through its runs
    (Chen's identity), so the pairs give the same pairing values, and the
    same first differing pair, as the full list of (loop, neighbor)
    pairs.  No path or `Move` is built; the sample is kept on the graph.

    Lemma.  Let a loop have a same-arrow backtrack b, vertices v u v with
    opposite orientations.  A move whose window shares no step with b
    gives the same pair of run sequences as the same move on the loop with
    b removed: a move reads only its window, and free reduction is a
    homomorphism, so removing b changes neither run sequence.  The shorter
    loop is enumerated earlier, so its pair was kept or seen first.  Hence
    a loop scans only the windows that touch every such backtrack, and a
    loop whose backtracks no one window touches gives nothing new.  A
    window has at most 3 steps, so two backtracks that start more than 3
    steps apart are never touched by one window.  Two that start exactly 3
    apart, v u v x y x, are touched together only by the square
    contraction of u v x y; its neighbor v u y x has the runs of the
    square replacement u v x -> u y x on the shorter loop v u v x, which
    is listed there because both moves look up the walk u v x y in the
    move tables, with every orientation of u y and of y x.  So the walk
    does not extend a prefix once two backtracks start more than 2 steps
    apart: every extension keeps both.  The moves that keep the
    runs all give the pair (here, here).  `_moves` lists the trivial
    insertions last, and an enumerated loop has no trivial step, so the
    first trivial-drop listed is an insertion and the moves after it give
    that pair again: the scan stops there.  On a loop without such a
    backtrack the pair is new at its insertion at position 0; on a loop
    with one, it was kept on the shorter loop.  Every run sequence a
    skipped move would number was numbered first on a shorter loop, so
    the numbers agree with those of the full scan as well."""
    def build():
        witnesses: dict[tuple[int, int], tuple] = {}  # by kept pair, in order
        ids: dict[tuple, int] = {}  # run sequence -> its number
        for V, O, backtracks in _walk(g, base, length_bound, loops_only=True, span=2):
            # the windows that start at or before the first backtrack's
            # second step and end at or after the last one's first step
            reach = None if backtracks is None else (backtracks[0] + 1, backtracks[1])
            here = ids.setdefault(tuple(_runs(V, O)), len(ids))
            for t in _moves(g, V, O, reach):
                there = here if _keeps_runs(*t) else ids.setdefault(
                    tuple(_runs(*_splice(V, O, *t[2:]))), len(ids))
                witnesses.setdefault((here, there), (V, O, t))
                if t[0] == "trivial-drop":
                    break
        return tuple(ids), tuple(witnesses), tuple(witnesses.values())
    _check_base(g, base)
    return g.derived(("move-pair sample", base, length_bound), build)


@dataclass(frozen=True)
class InvarianceVerdict:
    """Outcome of checking a functional against sampled move pairs."""
    status: str  # "invariant-on-sample" | "counterexample"
    base: Vertex
    length_bound: int
    loop: PathMap | None = None
    neighbor: PathMap | None = None
    move: Move | None = None
    values: tuple[Fraction, Fraction] | None = None


def invariance_verify(elem: AlgebraElement, base: Vertex,
                      length_bound: int = 10) -> InvarianceVerdict:
    """Compare the element's pairing across every loop at base up to the
    length bound and each of its one-move neighbors; the first differing
    pair is a counterexample, otherwise the sample certifies nothing beyond
    itself and says so."""
    _check_bound("length_bound", length_bound)
    g = elem.graph
    seqs, pairs, witnesses = _numbered_sample(g, base, length_bound)
    pairing = _pairing(elem.coeffs)
    value = cache(lambda k: pairing(seqs[k]))  # by the number of the run sequence
    for (i, j), (V, O, t) in zip(pairs, witnesses):
        va, vb = value(i), value(j)
        if va != vb:
            loop, move = _build(g, V, O), Move(*t)
            return InvarianceVerdict("counterexample", base, length_bound,
                                     loop=loop, neighbor=apply_move(loop, move),
                                     move=move, values=(va, vb))
    return InvarianceVerdict("invariant-on-sample", base, length_bound)


@dataclass(frozen=True)
class Pi1Candidate:
    element: AlgebraElement
    certified: bool


@dataclass(frozen=True)
class Pi1Result:
    graph: Digraph
    base: Vertex
    degree_bound: int
    length_bound: int
    candidates: tuple[Pi1Candidate, ...]
    invariant_kernel: tuple[AlgebraElement, ...]


def _certify(elem: AlgebraElement, closed: frozenset[Arrow]) -> bool:
    """Theorem-backed certification per homogeneous component: the degree-1
    part must assemble to a closed form, and every supported word of higher
    degree must pass the sufficiency test letterwise, that is, be a word
    over the closed arrows.  These are the invariants `_separating_invariant`
    tries: closed 1-forms (the all-ones form when closed, then the closed
    basis), then words over the closed arrows."""
    g = elem.graph
    deg1 = {w[0]: c for w, c in elem.coeffs.items() if len(w) == 1}
    if deg1 and not is_closed(OneForm(g, deg1)):
        return False
    return all(closed.issuperset(w) for w in elem.coeffs if len(w) >= 2)


def _pi1_rows(g: Digraph, base: Vertex, degree_bound: int, length_bound: int,
              words: Sequence[Word]) -> tuple[set[tuple], set[tuple]]:
    """The nonzero rows of pairings over words, each times degree_bound!:
    one per sampled (loop, neighbor) pair of different signature, the
    difference of the two, and one per sampled loop, its own.  Paths with
    equal `runs` have equal signatures (Chen's identity), so the row of
    each run sequence of the sample is built once.  The signature
    kernel gives len(w)! <w, S>, so word w is scaled by degree_bound! /
    len(w)! and every entry is an int: scaling all rows by one positive
    constant keeps their spans, their duplicates and their sorted order."""
    plan = _all_words_plan(g, degree_bound)
    top = math.factorial(degree_bound)
    scale = [top // math.factorial(len(w)) for w in words]
    seqs, pairs, _ = _numbered_sample(g, base, length_bound)
    rows = []
    for rs in seqs:
        sig = _evaluate(rs, plan)
        rows.append(tuple(s * sig[w] for w, s in zip(words, scale)))
    zero = (0,) * len(words)
    move_rows = {tuple(a - b for a, b in zip(rows[i], rows[j]))
                 for i, j in pairs if i != j} - {zero}
    loop_rows = {rows[i] for i, _ in pairs} - {zero}
    return move_rows, loop_rows


def pi1_candidates(g: Digraph, base: Vertex, degree_bound: int,
                   length_bound: int = 6) -> Pi1Result:
    """Kernel of the single-move pairing-difference system over word
    coefficients of degree 1..degree_bound, quotiented by the functionals
    that vanish on every sampled loop; each representative is flagged
    certified when the sufficiency theorem covers it, sample-only
    otherwise."""
    _check_bound("degree_bound", degree_bound, 1)
    _check_bound("length_bound", length_bound)
    words = all_words(g.arrows, degree_bound, min_degree=1)
    ncols = len(words)
    move_rows, loop_rows = _pi1_rows(g, base, degree_bound, length_bound, words)
    echelon = Echelon(ncols, sorted(move_rows))
    free = sorted(set(range(ncols)).difference(echelon.pivots()))
    invariant_kernel = [
        AlgebraElement._unchecked(g, {words[k]: c for k, c in vec.items()})
        for vec in echelon.kernel()]
    # The representatives extend a basis of the null kernel (move and loop
    # rows) to the invariant kernel, scanning the invariant basis in order.
    # An invariant vector is fixed by its entries at the free columns: the
    # vector of j is e_j there, and the null vector of a column k still free
    # with the loop rows added is e_k plus entries at columns left of k that
    # the loop rows made pivots.  So the scan keeps the vector of j exactly
    # when the loop rows make j a pivot, and the null kernel is not needed.
    for r in sorted(loop_rows):
        echelon.add(r)
    pivots = set(echelon.pivots())
    closed = frozenset(closed_arrows(g))
    candidates = tuple(Pi1Candidate(u, _certify(u, closed))
                       for j, u in zip(free, invariant_kernel) if j in pivots)
    return Pi1Result(g, base, degree_bound, length_bound, candidates,
                     tuple(invariant_kernel))


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
