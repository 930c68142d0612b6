"""Exact rational linear algebra: reduced row echelon form, kernels, spans.

Everything runs over fractions.Fraction; no floating point anywhere.  One
elimination, `Echelon`, holds a row space in reduced row echelon form and
grows it one vector at a time; `rref`, `rank`, `kernel`, `span_equal` and
`complement_basis` are views of it.  The reduced row echelon form of a row
space is unique, so every basis and pivot list depends only on the span of
the input, never on its row order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class Echelon:
    """The span of the vectors added so far, kept in reduced row echelon
    form: one row per pivot column, with entry 1 there and 0 on every other
    pivot column.  Rows are stored sparsely, column -> nonzero entry."""

    def __init__(self, ncols: int, rows: Iterable[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self._rows: dict[int, dict[int, Fraction]] = {}  # pivot -> row
        for r in rows:
            self.add(r)

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert vec; True iff it was independent of the rows already held.

        vec is reduced against each stored row whose pivot it touches, then,
        if anything is left, normalised and eliminated from the stored rows,
        O(rank * ncols) in all."""
        if len(vec) != self.ncols:
            raise ValueError(f"row of length {len(vec)}, expected {self.ncols}")
        v = {j: _fraction(x) for j, x in enumerate(vec) if x}
        # stored rows vanish on each other's pivots, so the entries of v on
        # pivot columns are final until their own row is subtracted
        for p in [p for p in v if p in self._rows]:
            c = v[p]
            for j, b in self._rows[p].items():
                x = v.get(j, _ZERO) - c * b
                if x:
                    v[j] = x
                else:
                    del v[j]
        if not v:
            return False
        lead = min(v)
        inv = 1 / v[lead]
        new = {j: x * inv for j, x in v.items()}
        for row in self._rows.values():
            c = row.get(lead)
            if c:
                for j, b in new.items():
                    x = row.get(j, _ZERO) - c * b
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        self._rows[lead] = new
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def rows(self) -> list[list[Fraction]]:
        """The dense reduced rows in pivot order."""
        return [[row.get(j, _ZERO) for j in range(self.ncols)]
                for row in map(self._rows.get, self.pivots())]

    def kernel(self) -> list[Vector]:
        """Basis of the null space {v : M v = 0}, one vector per free column.

        Each basis vector has entry 1 at its free column and is supported on
        that column plus pivot columns, the standard RREF parametrization.
        """
        basis: list[Vector] = []
        for free in range(self.ncols):
            if free in self._rows:
                continue
            v = [_ZERO] * self.ncols
            v[free] = Fraction(1)
            for p, row in self._rows.items():
                v[p] = -row.get(free, _ZERO)
            basis.append(tuple(v))
        return basis


def rref(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    e = Echelon(ncols, rows)
    return e.rows(), e.pivots()


def rank(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    return Echelon(ncols, rows).rank


def kernel(rows: Iterable[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of the null space of the rows; see `Echelon.kernel`."""
    return Echelon(ncols, rows).kernel()


def span_equal(b1: Sequence[Vector], b2: Sequence[Vector], ncols: int) -> bool:
    """True iff the two families span the same subspace."""
    e = Echelon(ncols, b1)
    r1 = e.rank
    for v in b2:
        e.add(v)
    return r1 == e.rank == Echelon(ncols, b2).rank


def complement_basis(sub: Sequence[Vector], full: Sequence[Vector], ncols: int) -> list[Vector]:
    """Vectors from full that extend a basis of span(sub) to span(sub+full).

    Deterministic: full is scanned in order and a vector is kept exactly when
    it is independent of sub plus the vectors already kept.
    """
    e = Echelon(ncols, sub)
    return [tuple(map(_fraction, v)) for v in full if e.add(v)]
