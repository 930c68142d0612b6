"""0-forms, 1-forms, the differential d, the two-chain space, closedness.

A 0-form assigns a rational to every vertex, a 1-form to every arrow, and a
2-chain to every allowed 2-path u->v->w (consecutive arrows).  All three
are subclasses of the one sparse combination type, `linalg._Combination`,
which the shuffle elements and tensors of `algebra` share: `coeffs` holds
the nonzero values only, a form reads 0 off its support, and an unknown
key or a host mismatch raises `FormError`.  The boundary of a 2-chain
drops the middle term e_{uw} exactly when u = w, and a chain belongs to
the two-chain space when every boundary component over a non-arrow vertex
pair vanishes.  A 1-form is closed when it pairs to zero with every
boundary, equivalently when it satisfies the triangle, square, and
double-edge linear conditions over all pattern embeddings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import FormError
from .graphs import PATTERN_KINDS, Arrow, Digraph, DigraphMap, Vertex, enumerate_patterns
from .linalg import _ZERO, Echelon, Vector, _Combination, _sum_terms
from .paths import _runs


class _Form(_Combination):
    """A combination of vertices, arrows or allowed 2-paths, read as a
    function that is 0 off its support."""

    _error = FormError

    def __call__(self, key) -> Fraction:
        return self.coeffs.get(key, _ZERO)

    def __repr__(self):
        values = {k: str(c) for k, c in self.coeffs.items()}
        return f"{type(self).__name__}({values!r})"


class ZeroForm(_Form):
    """A rational-valued function on vertices."""

    @staticmethod
    def _key(graph: Digraph, v: Vertex) -> Vertex:
        if v not in graph.vertex_set:
            raise FormError(f"unknown vertex {v!r}")
        return v


class OneForm(_Form):
    """A rational-valued function on arrows."""

    @staticmethod
    def _key(graph: Digraph, a: Arrow) -> Arrow:
        if a not in graph.arrow_set:
            raise FormError(f"unknown arrow {a!r}")
        return a

    @classmethod
    def basis(cls, graph: Digraph, arrow: Arrow) -> "OneForm":
        return cls(graph, {arrow: 1})

    @classmethod
    def from_vector(cls, graph: Digraph, vec: Sequence[Fraction]) -> "OneForm":
        if len(vec) != len(graph.arrows):
            raise FormError("vector length differs from arrow count")
        return cls(graph, dict(zip(graph.arrows, vec)))

    def vector(self) -> Vector:
        return tuple(self(a) for a in self.graph.arrows)


TwoPath = tuple  # (u, v, w) with (u,v) and (v,w) arrows


class TwoChain(_Form):
    """A finitely supported rational combination of allowed 2-paths."""

    @staticmethod
    def _key(graph: Digraph, p) -> TwoPath:
        key = tuple(p)
        if key not in graph.derived("allowed two paths",
                                    lambda: frozenset(allowed_two_paths(graph))):
            raise FormError(f"{key!r} is not an allowed 2-path")
        return key

    def boundary(self) -> dict[tuple, Fraction]:
        """Boundary as a combination of vertex pairs; the middle term is
        dropped when the 2-path closes up (u = w)."""
        return _boundary(self.coeffs)


def _boundary(coeffs: dict[TwoPath, Fraction]) -> dict[tuple, Fraction]:
    """The boundary of the chain with these coefficients, in their own
    number type: int coefficients give an int boundary."""
    def terms():
        for (u, v, w), c in coeffs.items():
            yield (v, w), c
            yield (u, v), c
            if u != w:
                yield (u, w), -c
    return _sum_terms(terms())


def d0(f: ZeroForm) -> OneForm:
    """df = sum over arrows of (f(head) - f(tail)) e^a."""
    g = f.graph
    return OneForm(g, {a: f(a[1]) - f(a[0]) for a in g.arrows})


def allowed_two_paths(g: Digraph) -> list[TwoPath]:
    """Consecutive arrow pairs u->v->w, in arrow input order."""
    out = []
    for u, v in g.arrows:
        for a in g.out_arrows(v):
            out.append((u, v, a[1]))
    return out


def omega2_basis(g: Digraph) -> list[TwoChain]:
    """Basis of the chains whose boundary is supported on arrows only.

    Variables are the allowed 2-paths; there is one linear condition per
    vertex pair (u, w) with u != w that is not an arrow: the total
    coefficient of e_{uw} in the boundary must vanish.  A 2-path u->v->w
    enters only the condition of its own pair (u, w), so the conditions
    have disjoint supports and the kernel is read off in one pass: a free
    2-path is a basis chain, and in a constrained group each later 2-path
    minus the group's first is one.  This is the reduced row echelon
    kernel basis, in its order (by free column).
    """
    return [TwoChain._unchecked(g, {p: Fraction(c) for p, c in chain.items()})
            for chain in _omega2_chains(g)]


def _omega2_chains(g: Digraph) -> list[dict[TwoPath, int]]:
    """The coefficients of the `omega2_basis` chains, in its order, as the
    ints +-1."""
    first: dict[tuple, TwoPath] = {}
    chains = []
    for p in allowed_two_paths(g):
        u, _, w = p
        if u != w and not g.has_arrow(u, w):
            lead = first.get((u, w))
            if lead is None:
                first[(u, w)] = p
                continue
            chains.append({lead: -1, p: 1})
        else:
            chains.append({p: 1})
    return chains


def _closed_condition_rows(g: Digraph, method: str) -> list[list[int]]:
    """Int rows over the arrows, one per closedness condition: the
    boundary of each Omega_2 basis chain, whose coefficients are +-1, or
    the net arrow counts of each pattern's boundary walk."""
    if method == "kernel":
        conditions = _omega2_boundaries(g)
    elif method == "patterns":
        conditions = [_runs(*emb.boundary_walk())
                      for kind in PATTERN_KINDS for emb in enumerate_patterns(g, kind)]
    else:
        raise FormError(f"unknown closedness method {method!r}")
    rows = []
    for counts in conditions:
        row = [0] * len(g.arrows)
        for a, c in counts:
            row[g.arrow_index[a]] += c
        rows.append(row)
    return rows


def _closedness(g: Digraph, method: str = "kernel") -> Echelon:
    """The closedness conditions of `method` as int rows over the arrows,
    eliminated once per graph and method: its kernel is the closed 1-forms.
    The "kernel" rows are the Omega_2 boundaries, so a vector of net arrow
    counts in their span pairs to 0 with every closed form."""
    return g.derived(("closedness", method), lambda: Echelon(
        len(g.arrows), _closed_condition_rows(g, method)))


def closed_one_forms(g: Digraph, method: str = "kernel") -> list[OneForm]:
    """Basis of the closed 1-forms, by boundary pairing ("kernel") or by the
    triangle/square/double-edge linear conditions ("patterns")."""
    return [OneForm._unchecked(g, {g.arrows[j]: c for j, c in vec.items()})
            for vec in _closedness(g, method).kernel()]


def _omega2_boundaries(g: Digraph) -> tuple:
    """The boundary of each `omega2_basis` chain as (arrow, int) pairs."""
    return g.derived("omega2 boundaries", lambda: tuple(
        tuple(_boundary(chain).items()) for chain in _omega2_chains(g)))


def closed_arrows(g: Digraph) -> tuple[Arrow, ...]:
    """The arrows whose basis 1-form is closed, in arrow order: those on no
    boundary of the two-chain basis, since a boundary's entry at an arrow is
    its pairing with that arrow's basis form.  None of them is a side of a
    triangle or a square: each such pattern's 2-chain lies in the two-chain
    space, and its boundary touches every side."""
    touched = {pair for row in _omega2_boundaries(g) for pair, _ in row}
    return tuple(a for a in g.arrows if a not in touched)


def is_closed(omega: OneForm) -> bool:
    """True iff omega pairs to zero with every two-chain boundary."""
    for row in _omega2_boundaries(omega.graph):
        total = Fraction(0)
        for pair, c in row:
            total += c * omega(pair)
        if total != 0:
            return False
    return True


def pullback_one_form(f: DigraphMap, omega: OneForm) -> OneForm:
    """(f* omega)(u -> v) = omega(f(u) -> f(v)), zero on collapsed arrows."""
    if omega.graph != f.target:
        raise FormError("form does not live on the map's target digraph")
    return OneForm(f.source, {(u, v): omega((f(u), f(v)))
                              for u, v in f.source.arrows if f(u) != f(v)})
