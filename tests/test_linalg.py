"""Exact elimination: the incremental echelon views against reference
implementations, and against sympy's RREF when sympy is installed."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathint.linalg import (Echelon, complement_basis, kernel, rank, rref,
                            span_equal)


def _ref_rref(rows, ncols):
    """Reference: Gauss-Jordan sweep over the columns, left to right, taking
    the first remaining row with a nonzero entry as the pivot row."""
    m = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError(f"row of length {len(r)}, expected {ncols}")
        m.append([Fraction(x) for x in r])
    pivots = []
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


def _ref_rank(rows, ncols):
    return len(_ref_rref(rows, ncols)[1])


def _ref_kernel(rows, ncols):
    reduced, pivots = _ref_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in zip(reduced, pivots):
            v[p] = -r[free]
        basis.append(tuple(v))
    return basis


def _ref_span_equal(b1, b2, ncols):
    both = _ref_rank(list(b1) + list(b2), ncols)
    return _ref_rank(b1, ncols) == _ref_rank(b2, ncols) == both


def _ref_complement_basis(sub, full, ncols):
    """Reference: a full rank computation per candidate vector."""
    kept = []
    rows = [list(v) for v in sub]
    current = _ref_rank(rows, ncols)
    for v in full:
        cand = rows + [list(v)]
        r = _ref_rank(cand, ncols)
        if r > current:
            kept.append(tuple(Fraction(x) for x in v))
            rows, current = cand, r
    return kept


@st.composite
def low_rank_rows(draw):
    """(ncols, rows): combinations of at most three random rational
    vectors, mixed with zero rows and duplicates of earlier rows."""
    ncols = draw(st.integers(0, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    spanning = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             max_size=3))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["combo", "zero", "dup"]),
                              max_size=8)):
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "dup" and rows:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            coeffs = [draw(st.integers(-2, 2)) for _ in spanning]
            rows.append([sum((c * v[j] for c, v in zip(coeffs, spanning)),
                             Fraction(0)) for j in range(ncols)])
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(low_rank_rows())
def test_views_equal_the_references(case):
    ncols, rows = case
    assert rref(rows, ncols) == _ref_rref(rows, ncols)
    assert rref(rows[::-1], ncols) == _ref_rref(rows, ncols)
    assert rank(rows, ncols) == _ref_rank(rows, ncols)
    assert kernel(rows, ncols) == _ref_kernel(rows, ncols)
    vecs = [tuple(r) for r in rows]
    half = len(vecs) // 2
    for b1, b2 in ((vecs[:half], vecs[half:]), (vecs, vecs[::-1]),
                   (vecs[1:], vecs)):
        assert span_equal(b1, b2, ncols) == _ref_span_equal(b1, b2, ncols)
        assert complement_basis(b1, b2, ncols) == \
            _ref_complement_basis(b1, b2, ncols)


@st.composite
def large_mixed_rows(draw):
    """(ncols, rows): combinations of at most four vectors whose entries have
    numerators up to 10**9 and denominators up to 10**6, mixed with zero rows
    and duplicates; each integral entry is an int or a Fraction at random,
    so rows mix the two."""
    ncols = draw(st.integers(0, 7))
    big = st.integers(-10**9, 10**9)
    entry = st.one_of(big, st.builds(Fraction, big, st.integers(1, 10**6)))
    spanning = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             max_size=4))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["combo", "zero", "dup"]),
                              max_size=8)):
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "dup" and rows:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            coeffs = [draw(st.integers(-3, 3)) for _ in spanning]
            combo = [Fraction(sum(c * v[j] for c, v in zip(coeffs, spanning)))
                     for j in range(ncols)]
            rows.append([int(x) if x.denominator == 1 and draw(st.booleans())
                         else x for x in combo])
    return ncols, rows


def _fractions_only(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def _dense_kernel(e):
    """The sparse `Echelon.kernel` vectors as dense tuples."""
    return [tuple(v.get(j, Fraction(0)) for j in range(e.ncols)) for v in e.kernel()]


@settings(max_examples=200, deadline=None)
@given(large_mixed_rows())
def test_views_equal_the_references_on_large_mixed_entries(case):
    ncols, rows = case
    reduced = rref(rows, ncols)
    assert reduced == rref(rows[::-1], ncols) == _ref_rref(rows, ncols)
    assert _fractions_only(reduced[0])
    basis = kernel(rows, ncols)
    assert basis == _ref_kernel(rows, ncols) and _fractions_only(basis)
    vecs = [tuple(r) for r in rows]
    half = len(vecs) // 2
    for b1, b2 in ((vecs[:half], vecs[half:]), (vecs[half:], vecs)):
        kept = complement_basis(b1, b2, ncols)
        assert kept == _ref_complement_basis(b1, b2, ncols)
        assert _fractions_only(kept)


def test_large_mixed_rref_equals_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=60, deadline=None)
    @given(large_mixed_rows())
    def check(case):
        ncols, rows = case
        m = sympy.Matrix(len(rows), ncols,
                         [sympy.Rational(x.numerator, x.denominator)
                          if isinstance(x, Fraction) else x
                          for r in rows for x in r])
        reduced, pivots = m.rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
                    for i in range(len(pivots))]
        assert rref(rows, ncols) == (expected, list(pivots))

    check()


def test_stored_rows_stay_primitive_with_positive_denominator():
    # each stored row is the reduced row's least positive integer multiple:
    # int entries of gcd 1, positive at its pivot and 0 on the other pivots
    rng = random.Random(12)
    m = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(9)]
    for _ in range(3):
        coeffs = [rng.randint(-2, 2) for _ in m]
        m.append([sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(12)])
    rng.shuffle(m)
    e = Echelon(12)
    for r in m:
        e.add(r)
        for p, row in e._rows.items():
            assert all(type(x) is int and x for x in row.values())
            assert row[p] > 0 and math.gcd(*row.values()) == 1
            assert not any(q in row for q in e._rows if q != p)
    assert e.rank == 9
    assert e.rows() == _ref_rref(m, 12)[0] and _fractions_only(e.rows())
    assert _dense_kernel(e) == _ref_kernel(m, 12) and _fractions_only(_dense_kernel(e))


@settings(max_examples=200, deadline=None)
@given(low_rank_rows())
def test_echelon_kernel_is_sparse_in_column_order(case):
    # one vector per free column, keyed in column order with no zero entry,
    # ending at its free column with entry 1; made dense, it is `kernel`'s
    ncols, rows = case
    e = Echelon(ncols, rows)
    basis = e.kernel()
    free = [j for j in range(ncols) if j not in e.pivots()]
    assert [list(v)[-1] for v in basis] == free
    for v in basis:
        assert list(v) == sorted(v) and v[list(v)[-1]] == 1
        assert all(type(x) is Fraction and x for x in v.values())
    assert _dense_kernel(e) == kernel(rows, ncols) == _ref_kernel(rows, ncols)


def test_rref_equals_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=100, deadline=None)
    @given(low_rank_rows())
    def check(case):
        ncols, rows = case
        m = sympy.Matrix(len(rows), ncols, [x for r in rows for x in r])
        reduced, pivots = m.rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
                    for i in range(len(pivots))]
        assert rref(rows, ncols) == (expected, list(pivots))

    check()


@st.composite
def rows_and_a_query(draw):
    """(ncols, rows, vec): int rows of low rank and a sparse int vector that
    is a combination of the rows or is drawn freely."""
    ncols = draw(st.integers(1, 7))
    dense = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)

    def combination(vectors):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(vectors),
                               max_size=len(vectors)))
        return [sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(ncols)]

    spanning = draw(st.lists(dense, max_size=4))
    rows = [combination(spanning) for _ in range(draw(st.integers(0, 5)))]
    vec = combination(rows) if draw(st.booleans()) else draw(dense)
    return ncols, rows, {j: x for j, x in enumerate(vec) if x}


@settings(max_examples=300, deadline=None)
@given(rows_and_a_query())
def test_residue_decides_membership_like_the_rank(case):
    ncols, rows, vec = case
    e = Echelon(ncols, rows)
    stored = {p: dict(row) for p, row in e._rows.items()}
    rest = e.residue(vec)
    assert e._rows == stored
    dense = [vec.get(j, 0) for j in range(ncols)]
    assert (not rest) == (_ref_rank(rows + [dense], ncols) == _ref_rank(rows, ncols))
    assert all(type(x) is int and x for x in rest.values())
    assert not set(rest) & set(e.pivots())
    # the kernel vector of free column f pairs with vec to rest[f] / lambda,
    # one lambda > 0 for every f
    free = [j for j in range(ncols) if j not in stored]
    pairings = [sum(k[j] * x for j, x in vec.items()) for k in _dense_kernel(e)]
    ratios = {Fraction(rest[f]) / p for f, p in zip(free, pairings) if p}
    assert all((f in rest) == (p != 0) for f, p in zip(free, pairings))
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_residue_of_a_vector_outside_the_span_is_not_empty():
    e = Echelon(3, [[1, 1, 0], [0, 2, 2]])
    assert e.residue({0: 1, 2: -1}) == {}
    assert e.residue({0: 1}) == {2: 1}
    assert e.residue({1: 3, 2: 2}) == {2: -1}
    assert e.rows() == [[1, 0, -1], [0, 1, 1]]


def test_echelon_grows_one_vector_at_a_time():
    e = Echelon(3)
    assert e.add([0, 2, 4]) and e.rank == 1
    assert not e.add([0, -1, -2]) and not e.add([0, 0, 0])
    assert e.add([1, 1, 1]) and e.rank == 2
    assert e.pivots() == [0, 1]
    assert e.rows() == [[1, 0, -1], [0, 1, 2]]
    assert _dense_kernel(e) == [(1, -2, 1)]
    assert _fractions_only(e.rows()) and _fractions_only(_dense_kernel(e))
    assert _fractions_only(complement_basis([(0, 1, 2)], [(0, 2, 4), (1, 0, 0)], 3))


def test_wrong_row_length_is_a_value_error():
    with pytest.raises(ValueError, match="row of length 1, expected 2"):
        rref([[1, 2], [1]], 2)
    with pytest.raises(ValueError):
        kernel([[1, 2, 3]], 2)
    with pytest.raises(ValueError):
        complement_basis([(1, 0)], [(1, 0, 0)], 2)
