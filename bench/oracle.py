"""Answers computed apart from pathint, used to check what its CLI prints.

Nothing here imports pathint.  Graphs are plain vertex lists and arrow
sets, paths are (vertices, orientations) tuples with "f"/"b" flags, and
elements are {word: Fraction} dicts whose words are tuples of arrows.

* Signatures come from Chen's identity: the signature of a path is the
  product of the step exponentials exp(+-e_a), so every pairing is read off
  a product of small unipotent matrices (balanced, not left to right as the
  program's prefix scan does) or off a truncated tensor series.
* Homotopy certificates are checked move by move against the definitions
  of the five moves, not by replaying the recorded windows.
* Winding numbers are pairings with closed integer cochains that
  workloads.py attaches to each complex it makes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

FORWARD, BACKWARD = "f", "b"


class CheckFailed(Exception):
    """An output of the program disagrees with the independent answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ graphs

class Host:
    """Adjacency facts of one digraph, straight from the definitions."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        self.arrow_set = set(self.arrows)
        self.nbrs = {v: [] for v in self.vertices}
        for u, w in self.arrows:
            self.nbrs[u].append((w, FORWARD))
            self.nbrs[w].append((u, BACKWARD))
        self.triangles = set()
        for x, y, z in permutations(self.vertices, 3):
            if {(x, y), (y, z), (x, z)} <= self.arrow_set:
                self.triangles.add(frozenset((x, y, z)))
        # roles (v0, v1, v2, v3): v0->v1, v1->v3, v0->v2, v2->v3, all distinct
        self.square_roles = []
        for v0, v1 in self.arrows:
            for v3, o in self.nbrs[v1]:
                if o != FORWARD or v3 == v0:
                    continue
                for v2, o2 in self.nbrs[v0]:
                    if (o2 == FORWARD and v2 not in (v1, v3)
                            and (v2, v3) in self.arrow_set):
                        self.square_roles.append((v0, v1, v2, v3))
        # every walk once around a square, from any corner, either way
        self.square_walks = set()
        for v0, v1, v2, v3 in self.square_roles:
            ring = (v0, v1, v3, v2)
            for k in range(4):
                turned = ring[k:] + ring[:k]
                self.square_walks.add(turned)
                self.square_walks.add(turned[::-1])

    def step_ok(self, u, w, o) -> bool:
        if u == w:
            return o == FORWARD
        if o == FORWARD:
            return (u, w) in self.arrow_set
        return o == BACKWARD and (w, u) in self.arrow_set

    def flags(self, u, w) -> list:
        """Every orientation flag that makes (u, w) a step."""
        if u == w:
            return [FORWARD]
        return [o for o in (FORWARD, BACKWARD) if self.step_ok(u, w, o)]


def signed_steps(path) -> list:
    """(arrow, +-1) per non-stationary step; stationary steps pair to 0."""
    vertices, orientations = path
    out = []
    for u, w, o in zip(vertices, vertices[1:], orientations):
        if u != w:
            out.append(((u, w), 1) if o == FORWARD else ((w, u), -1))
    return out


def free_reduce(steps) -> list:
    """Cancel adjacent inverse steps: exp(x) exp(-x) = 1."""
    stack = []
    for arrow, sign in steps:
        if stack and stack[-1] == (arrow, -sign):
            stack.pop()
        else:
            stack.append((arrow, sign))
    return stack


# -------------------------------------------------- signatures (Chen's identity)

def _mat_mul(a: dict, b: dict, r: int) -> dict:
    """Product of unipotent upper-triangular matrices stored as their
    strictly upper entries {(i, j): value}."""
    c = dict(a)
    for key, y in b.items():
        c[key] = c.get(key, 0) + y
    for (i, k), x in a.items():
        for j in range(k + 1, r + 1):
            y = b.get((k, j))
            if y:
                c[i, j] = c.get((i, j), 0) + x * y
    return c


def word_value(steps, letters) -> Fraction:
    """<w_1 ... w_r, S(path)> for letters given as {arrow: value} dicts.

    Step i contributes the matrix M_i[j][k] = <w_j+1 ... w_k, exp(s e_a)>
    = prod(s * w(a)) / (k - j)!, and Chen's identity S(pq) = S(p) S(q)
    turns the path's pairing into entry (0, r) of the matrix product."""
    r = len(letters)
    if r == 0:
        return Fraction(1)
    mats = []
    for arrow, sign in steps:
        vals = [sign * letter.get(arrow, 0) for letter in letters]
        if not any(vals):
            continue
        m = {}
        for i in range(r):
            prod = Fraction(1)
            for j in range(i, r):
                prod *= vals[j]
                if not prod:
                    break
                m[i, j + 1] = prod / factorial(j + 1 - i)
        mats.append(m)
    if not mats:
        return Fraction(0)
    while len(mats) > 1:
        mats = [_mat_mul(mats[i], mats[i + 1], r) if i + 1 < len(mats) else mats[i]
                for i in range(0, len(mats), 2)]
    return Fraction(mats[0].get((0, r), 0))


def pair_element(elem: dict, steps) -> Fraction:
    """<elem, S(path)> for an element over arrow words."""
    return sum((c * word_value(steps, [{a: 1} for a in w]) for w, c in elem.items()),
               Fraction(0))


def signature(steps, depth: int) -> dict:
    """Truncated signature {word: coefficient}: the running series is
    multiplied on the right by each step's exponential."""
    sig = {(): Fraction(1)}
    for arrow, sign in free_reduce(steps):
        powers = [((arrow,) * k, Fraction(sign ** k, factorial(k)))
                  for k in range(1, depth + 1)]
        new = dict(sig)
        for w, c in sig.items():
            for tail, t in powers:
                if len(w) + len(tail) > depth:
                    break
                key = w + tail
                new[key] = new.get(key, 0) + c * t
        sig = {w: c for w, c in new.items() if c}
    return sig


def path_order(steps, max_degree: int):
    """Lowest degree with a nonzero signature coefficient, or None."""
    for depth in range(1, max_degree + 1):
        if any(len(w) == depth for w in signature(steps, depth)):
            return depth
    return None


# ------------------------------------------------------------ shuffle algebra

def shuffle_words(u: tuple, v: tuple) -> dict:
    """Shuffle of two words by the recursion ua.vb = (u.vb)a + (ua.v)b."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, m in shuffle_words(u[:-1], v).items():
        out[w + u[-1:]] = out.get(w + u[-1:], 0) + m
    for w, m in shuffle_words(u, v[:-1]).items():
        out[w + v[-1:]] = out.get(w + v[-1:], 0) + m
    return out


def shuffle(a: dict, b: dict) -> dict:
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, m in shuffle_words(u, v).items():
                out[w] = out.get(w, 0) + cu * cv * m
    return {w: Fraction(c) for w, c in out.items() if c}


def shuffle_mass(a: dict, b: dict) -> Fraction:
    """Sum of the coefficients of a shuffled with b: each pair of words
    (u, v) contributes binomial(|u| + |v|, |u|) interleavings."""
    return sum((cu * cv * comb(len(u) + len(v), len(u))
                for u, cu in a.items() for v, cv in b.items()), Fraction(0))


# ------------------------------------------------------------------- moves

def contraction_legal(host: Host, kind: str, longer: tuple, shorter: tuple) -> bool:
    """Is longer -> shorter (vertex windows) one of the five moves?"""
    if kind == "triangle-contract":
        return (len(longer) == 3 and shorter == (longer[0], longer[2])
                and frozenset(longer) in host.triangles and len(set(longer)) == 3)
    if kind == "square-replace":
        return (len(longer) == 3 and len(shorter) == 3
                and shorter[0] == longer[0] and shorter[2] == longer[2]
                and longer + (shorter[1],) in host.square_walks)
    if kind == "square-contract":
        return (len(longer) == 4 and shorter == (longer[0], longer[3])
                and longer in host.square_walks)
    if kind == "backtrack":
        return (len(longer) == 3 and longer[0] == longer[2]
                and shorter == (longer[0], longer[0]))
    if kind == "trivial-drop":
        return longer == (shorter[0], shorter[0]) and len(shorter) == 1
    return False


def check_certificate(host: Host, start: tuple, moves: list, end: tuple) -> None:
    """Replay a certificate, checking each move against the definitions:
    the recorded window must be in the path, the replacement must be made
    of valid steps, and the rewrite must be one of the five moves in the
    stated direction."""
    vertices, orientations = tuple(start[0]), tuple(start[1])
    for n, move in enumerate(moves):
        kind, direction, p = move["kind"], move["direction"], move["position"]
        bv = tuple(move["before"]["vertices"])
        bo = tuple(move["before"]["orientations"])
        av = tuple(move["after"]["vertices"])
        ao = tuple(move["after"]["orientations"])
        k = len(bv)
        require(isinstance(p, int) and 0 <= p and p + k <= len(vertices) and k >= 1,
                f"move {n}: window out of range")
        require(vertices[p:p + k] == bv and orientations[p:p + k - 1] == bo,
                f"move {n}: window is not in the path")
        require(len(ao) == len(av) - 1 and len(av) >= 1
                and all(host.step_ok(av[i], av[i + 1], ao[i]) for i in range(len(ao))),
                f"move {n}: replacement is not a walk in the digraph")
        require(av[0] == bv[0] and av[-1] == bv[-1],
                f"move {n}: replacement has other endpoints")
        if direction == "apply":
            legal = contraction_legal(host, kind, bv, av)
        elif direction == "unapply":
            legal = contraction_legal(host, kind, av, bv)
        else:
            legal = False
        require(legal, f"move {n}: {kind}/{direction} {bv} -> {av} is not a move")
        vertices = vertices[:p] + av + vertices[p + k:]
        orientations = orientations[:p] + ao + orientations[p + k - 1:]
    require((vertices, orientations) == (tuple(end[0]), tuple(end[1])),
            "certificate does not end at the second loop")


def standard_moves(host: Host, path) -> list:
    """One-move neighbours by the five moves in the standard role order of
    each pattern (v0 v1 v3 -> v0 v2 v3, v0 v1 v3 v2 <-> v0 v2 and its
    reverse walk, triangle sets, backtracks at stationary steps, trivial
    steps anywhere).  Every result passes check_certificate; the role order
    keeps them among the moves that the homotopy search itself makes.
    Returns (kind, direction, position, before, after, new_path) tuples."""
    V, O = path
    n = len(O)
    out = []

    def emit(kind, direction, p, k, new_vertices):
        new_vertices = tuple(new_vertices)
        fills = [()]
        for u, w in zip(new_vertices, new_vertices[1:]):
            fills = [f + (o,) for f in fills for o in host.flags(u, w)]
        before = (V[p:p + k], O[p:p + k - 1])
        for fill in fills:
            after = (new_vertices, fill)
            new_path = (V[:p] + new_vertices + V[p + k:], O[:p] + fill + O[p + k - 1:])
            out.append((kind, direction, p, before, after, new_path))

    roles = host.square_roles
    for p in range(n - 1):
        x, y, z = V[p:p + 3]
        if len({x, y, z}) == 3 and frozenset((x, y, z)) in host.triangles:
            emit("triangle-contract", "apply", p, 3, (x, z))
        for v0, v1, v2, v3 in roles:
            if (x, y, z) == (v0, v1, v3):
                emit("square-replace", "apply", p, 3, (v0, v2, v3))
        if x == z:
            emit("backtrack", "apply", p, 3, (x, x))
    for p in range(n - 2):
        for v0, v1, v2, v3 in roles:
            if V[p:p + 4] in ((v0, v1, v3, v2), (v2, v3, v1, v0)):
                emit("square-contract", "apply", p, 4, (V[p], V[p + 3]))
    for p in range(n):
        x, y = V[p:p + 2]
        if x == y:
            emit("trivial-drop", "apply", p, 2, (x,))
            for w, _ in host.nbrs[x]:
                emit("backtrack", "unapply", p, 2, (x, w, x))
            continue
        for t in host.vertices:
            if len({x, t, y}) == 3 and frozenset((x, t, y)) in host.triangles:
                emit("triangle-contract", "unapply", p, 2, (x, t, y))
        for v0, v1, v2, v3 in roles:
            if (x, y) == (v0, v2):
                emit("square-contract", "unapply", p, 2, (v0, v1, v3, v2))
            elif (x, y) == (v2, v0):
                emit("square-contract", "unapply", p, 2, (v2, v3, v1, v0))
    for p in range(n + 1):
        emit("trivial-drop", "unapply", p, 1, (V[p], V[p]))
    return out


def winding(cochain: dict, path) -> int:
    """Pairing of a path with an integer 1-cochain {arrow: weight}."""
    return sum(sign * cochain.get(arrow, 0) for arrow, sign in signed_steps(path))
