"""Exact rational linear algebra: reduced row echelon form, kernels, spans.

Everything runs over fractions.Fraction with a deterministic pivot order
(columns left to right, first row with a nonzero entry), so identical inputs
always produce identical bases.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _to_rows(rows: Iterable[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    out = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError(f"row of length {len(r)}, expected {ncols}")
        out.append([Fraction(x) for x in r])
    return out


def rref(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m = _to_rows(rows, ncols)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def rank(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def kernel(rows: Iterable[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of the null space {v : M v = 0}, one vector per free column.

    Each basis vector has entry 1 at its free column and is supported on
    that column plus pivot columns, the standard RREF parametrization.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in zip(reduced, pivots):
            v[p] = -r[free]
        basis.append(tuple(v))
    return basis


def span_equal(b1: Sequence[Vector], b2: Sequence[Vector], ncols: int) -> bool:
    """True iff the two families span the same subspace."""
    r1 = rank(list(b1), ncols)
    r2 = rank(list(b2), ncols)
    both = rank(list(b1) + list(b2), ncols)
    return r1 == r2 == both


def complement_basis(sub: Sequence[Vector], full: Sequence[Vector], ncols: int) -> list[Vector]:
    """Vectors from full that extend a basis of span(sub) to span(sub+full).

    Deterministic: full is scanned in order and a vector is kept exactly when
    it is independent of sub plus the vectors already kept.
    """
    kept: list[Vector] = []
    current = rank(list(sub), ncols)
    rows = [list(v) for v in sub]
    for v in full:
        cand = rows + [list(v)]
        r = rank(cand, ncols)
        if r > current:
            kept.append(tuple(Fraction(x) for x in v))
            rows = cand
            current = r
    return kept
