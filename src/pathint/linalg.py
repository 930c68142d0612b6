"""Exact rational linear algebra: reduced row echelon form, kernels, spans.

No floating point anywhere.  One elimination, `Echelon`, holds a row space
in reduced row echelon form and grows it one vector at a time; `rref`,
`rank`, `kernel`, `span_equal` and `complement_basis` are views of it, and
`Echelon.residue` reduces a vector against it, empty exactly when the
vector lies in the span; `Echelon.add_sparse` inserts a sparse int row.

The elimination is fraction-free: it stores each reduced row as its least
positive integer multiple, a primitive int vector (gcd 1) whose pivot entry
is the row's denominator, and a row operation is int multiplies and one gcd
to divide out the new content, where `Fraction` arithmetic would pay a gcd
per entry.  A row of `Fraction`s is scaled once by the lcm of its
denominators, an int row goes in as it is, and only the views make
`Fraction`s, one per nonzero entry they return.  The reduced row echelon
form of a row space is unique, so every basis and pivot list depends only on
the span of the input, never on its row order or on how the elimination
scales its rows: the views return exactly the `Fraction`s of a Gauss-Jordan
elimination over the rationals.

The same layer holds the one sparse combination type, `_Combination`: a
finite rational combination of basis pieces of a host digraph, `coeffs`
mapping each piece to a nonzero `Fraction`.  Forms (vertices, arrows,
allowed 2-paths) and shuffle elements and tensors (arrow words, pairs of
them) are its subclasses, each with its own key check and error type;
`_sum_terms` is the one accumulator of their linear maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _eliminate(a: dict[int, int], b: dict[int, int], col: int) -> None:
    """a := b[col] a - a[col] b in place, clearing a at col; b[col] > 0."""
    den, c = b[col], a[col]
    if den != 1:
        for j in a:
            a[j] *= den
    for j, x in b.items():
        y = a.get(j, 0) - c * x
        if y:
            a[j] = y
        else:
            del a[j]


def _make_primitive(a: dict[int, int], lead: int) -> None:
    """Divide a by the gcd of its entries, signed to make a[lead] > 0."""
    g = math.gcd(*a.values())
    if a[lead] < 0:
        g = -g
    if g != 1:
        for j in a:
            a[j] //= g


class Echelon:
    """The span of the vectors added so far, kept in reduced row echelon
    form: one row per pivot column, nonzero there and 0 on every other
    pivot column.  Row p is stored sparsely as ints, column -> nonzero
    entry, and stands for itself divided by den = row[p]; den > 0 and the
    entries have gcd 1, so the stored row is the reduced row's least
    positive integer multiple."""

    def __init__(self, ncols: int, rows: Iterable[Sequence] = ()):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row
        for r in rows:
            self.add(r)

    def add(self, vec: Sequence) -> bool:
        """Insert vec, a dense row of ints or rationals, through
        `add_sparse`; True iff it was independent of the rows already held.
        A row of rationals is scaled by the lcm of its denominators."""
        if len(vec) != self.ncols:
            raise ValueError(f"row of length {len(vec)}, expected {self.ncols}")
        v = {j: x for j, x in enumerate(vec) if x}
        if any(type(x) is not int for x in v.values()):
            fr = [(j, _fraction(x)) for j, x in v.items()]
            d = math.lcm(*(x.denominator for _, x in fr))
            v = {j: x.numerator * (d // x.denominator) for j, x in fr if x}
        return self.add_sparse(v)

    def add_sparse(self, vec: Mapping[int, int]) -> bool:
        """Insert the sparse int vector vec (column -> nonzero entry, each
        column below ncols); True iff it was independent of the rows
        already held.

        vec is reduced to its `residue`, then, if anything is left, made
        primitive with a positive lead and eliminated from the stored rows,
        O(rank * ncols) row operations in all."""
        v = self.residue(vec)
        if not v:
            return False
        rows = self._rows
        lead = min(v)
        _make_primitive(v, lead)
        for p, row in rows.items():
            if lead in row:
                _eliminate(row, v, lead)
                _make_primitive(row, p)
        rows[lead] = v
        return True

    def residue(self, vec: Mapping[int, int]) -> dict[int, int]:
        """The part of the sparse int vector vec (column -> entry) outside
        the span, as a membership query: vec reduced against each stored
        row whose pivot it touches.  Stored rows vanish on each other's
        pivots, so the entries of vec on pivot columns stay nonzero until
        their own row is subtracted.  The result is lambda vec - s for an
        int lambda > 0 and an s in the span, and is 0 on every pivot column,
        so it is empty exactly when vec lies in the span.  The stored rows
        do not change."""
        v = dict(vec)
        rows = self._rows
        for p in [p for p in v if p in rows]:
            _eliminate(v, rows[p], p)
        return v

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def rows(self) -> list[list[Fraction]]:
        """The dense reduced rows in pivot order."""
        out = []
        for p in self.pivots():
            row = self._rows[p]
            den = row[p]
            dense = [_ZERO] * self.ncols
            for j, x in row.items():
                dense[j] = Fraction(x, den)
            out.append(dense)
        return out

    def kernel(self) -> list[dict[int, Fraction]]:
        """Basis of the null space {v : M v = 0}, one sparse vector per free
        column (column -> nonzero entry, in column order): the standard RREF
        parametrization, 1 at free column j and -row_p[j] / den_p at each
        pivot p whose row touches j, all left of j (a reduced row vanishes
        left of its pivot)."""
        basis: dict[int, dict[int, Fraction]] = {
            j: {} for j in range(self.ncols) if j not in self._rows}
        for p in self.pivots():
            row = self._rows[p]
            for j, x in row.items():
                if j != p:
                    basis[j][p] = Fraction(-x, row[p])
        for j, v in basis.items():
            v[j] = _ONE
        return list(basis.values())


def rref(rows: Iterable[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    e = Echelon(ncols, rows)
    return e.rows(), e.pivots()


def rank(rows: Iterable[Sequence], ncols: int) -> int:
    return Echelon(ncols, rows).rank


def kernel(rows: Iterable[Sequence], ncols: int) -> list[Vector]:
    """Basis of the null space of the rows: `Echelon.kernel`, made dense."""
    return [tuple(v.get(j, _ZERO) for j in range(ncols))
            for v in Echelon(ncols, rows).kernel()]


def span_equal(b1: Sequence[Sequence], b2: Sequence[Sequence], ncols: int) -> bool:
    """True iff the two families span the same subspace."""
    e = Echelon(ncols, b1)
    r1 = e.rank
    for v in b2:
        e.add(v)
    return r1 == e.rank == Echelon(ncols, b2).rank


def complement_basis(sub: Sequence[Sequence], full: Sequence[Sequence], ncols: int) -> list[Vector]:
    """Vectors from full that extend a basis of span(sub) to span(sub+full).

    Deterministic: full is scanned in order and a vector is kept exactly when
    it is independent of sub plus the vectors already kept.  The kept
    vectors are returned as `Fraction`s.
    """
    e = Echelon(ncols, sub)
    return [tuple(map(_fraction, v)) for v in full if e.add(v)]


def _sum_terms(terms: Iterable[tuple]) -> dict:
    """The nonzero sums of (key, coefficient) terms, keyed in first-seen
    order."""
    out: dict = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


class _Combination:
    """Rational combination of keys on a fixed host digraph: `coeffs` maps
    each key to a nonzero `Fraction`.  The checked constructor reads each
    key through the class's `_key(graph, key)` and sums keys that spell one
    key; a map that builds its terms from keys already checked takes
    `_unchecked`.  An operand on another host raises the class's `_error`;
    an operand of another class is `NotImplemented`."""

    _error: type[Exception]

    def __init__(self, graph, coeffs: Mapping | None = None):
        self.graph = graph
        self.coeffs = _sum_terms((self._key(graph, k), _fraction(c))
                                 for k, c in (coeffs or {}).items())

    @classmethod
    def _unchecked(cls, graph, coeffs: dict):
        """A combination from nonzero `Fraction` coefficients keyed by
        distinct checked keys, taken as they are."""
        elem = cls.__new__(cls)
        elem.graph, elem.coeffs = graph, coeffs
        return elem

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_host(other)
        return self._unchecked(self.graph, _sum_terms(
            chain(self.coeffs.items(), other.coeffs.items())))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._unchecked(self.graph, {k: -c for k, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return self._unchecked(
            self.graph, {k: s * c for k, c in self.coeffs.items()} if s else {})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.graph == other.graph and self.coeffs == other.coeffs

    def _check_host(self, other: "_Combination") -> None:
        if self.graph != other.graph:
            raise self._error(f"{type(self).__name__}s live on different digraphs")
