"""Iterated integrals of words of 1-forms over path maps.

The integral of omega_1..omega_r over a path of n steps is the sum over all
non-decreasing index sequences 1 <= t_1 <= .. <= t_r <= n of the product of
step pairings divided by the volume number of the sequence.  Arrow words
have one evaluator, the signature kernel `signature` (Chen's identity), and
`word_pairing`, `word_pairings_all` and `pair` are views of it.  Words of
general 1-forms go through `iterated_integral`, a dynamic program over the
forms, with the direct sum `iterated_integral_direct` as its test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterable, Sequence

from .errors import PairingError, PathError
from .forms import OneForm
from .graphs import Arrow
from .paths import (ForwardArrow, InverseArrow, PathMap, Step, Trivial, concat,
                    inverse, runs, steps)

Word = tuple[Arrow, ...]


def volume_number(seq: Sequence[int]) -> int:
    """Product of factorials of the value multiplicities of a non-decreasing
    sequence of positive integers."""
    total = 1
    run = 0
    prev = None
    for t in seq:
        if prev is not None and t < prev:
            raise PairingError(f"index sequence {tuple(seq)!r} is not non-decreasing")
        if t == prev:
            run += 1
        else:
            run = 1
        prev = t
        total *= run
    return total


def step_pairing(omega: OneForm, s: Step) -> Fraction:
    """<omega, step>: omega(a) forward, -omega(a) backward, 0 trivial."""
    if isinstance(s, ForwardArrow):
        return omega(s.arrow)
    if isinstance(s, InverseArrow):
        return -omega(s.arrow)
    if isinstance(s, Trivial):
        return Fraction(0)
    raise PairingError(f"not a step: {s!r}")


def iterated_integral(path: PathMap, word: Sequence[OneForm]) -> Fraction:
    """Dynamic-programming evaluation, O(steps * degree^2) exact."""
    r = len(word)
    for w in word:
        if w.graph != path.graph:
            raise PairingError("form and path live on different digraphs")
    prefix = [Fraction(1)] + [Fraction(0)] * r
    factorial = [math.factorial(k) for k in range(r + 1)]
    for s in steps(path):
        pairings = [step_pairing(w, s) for w in word]
        new = list(prefix)
        for j in range(1, r + 1):
            acc = prefix[j]
            prod = Fraction(1)
            for i in range(j - 1, -1, -1):
                prod *= pairings[i]
                if prod == 0:
                    break
                acc += prefix[i] * prod / factorial[j - i]
            new[j] = acc
        prefix = new
    return prefix[r]


def iterated_integral_direct(path: PathMap, word: Sequence[OneForm]) -> Fraction:
    """Reference evaluation straight from the definition: sum over
    non-decreasing index sequences of pairing products over volume numbers."""
    r = len(word)
    if r == 0:
        return Fraction(1)
    ss = steps(path)
    n = len(ss)
    total = Fraction(0)
    for seq in combinations_with_replacement(range(1, n + 1), r):
        prod = Fraction(1)
        for w, t in zip(word, seq):
            prod *= step_pairing(w, ss[t - 1])
            if prod == 0:
                break
        if prod != 0:
            total += prod / volume_number(seq)
    return total


def all_words(arrows: Sequence[Arrow], max_degree: int,
              min_degree: int = 0) -> list[Word]:
    """All arrow words with min_degree <= length <= max_degree, by degree
    then lexicographic in arrow input order."""
    out: list[Word] = []
    for d in range(min_degree, max_degree + 1):
        out.extend(product(arrows, repeat=d))
    return out


def signature(path: PathMap, words: Iterable[Word]) -> dict[Word, Fraction]:
    """Pairings of a prefix-closed set of arrow words with path, keyed in
    first-seen order (the empty word is always present).

    The dict, first the signature of the trivial path, is multiplied in
    place by exp(c e_a) for each signed arrow (a, c) of the path's `runs`,
    c = +1 or -1: <w, S exp(c e_a)> is the sum over k of
    <w[:-k], S> c^k / k! while the last k letters of w are a, so only words
    ending in a change.  Updating them longest first makes every read of a
    shorter prefix see its value from before the factor."""
    return _evaluate(path, _plan(words))


def _plan(words: Iterable[Word]) -> tuple:
    """What `signature` needs of a word set apart from the path: the keys,
    the longest word's length, and for each arrow a the words ending in a,
    longest first, each with its prefixes less its last 1, 2, .. a's."""
    keys = dict.fromkeys(words)
    keys[()] = None
    updates: dict[Arrow, list] = {}
    for w in sorted(keys, key=len, reverse=True)[:-1]:  # () sorts last
        t, k = len(w), 1
        while k < t and w[t - k - 1] == w[-1]:
            k += 1
        updates.setdefault(w[-1], []).append((w, [w[:t - j] for j in range(1, k + 1)]))
    return tuple(keys), max(map(len, keys)), updates


@lru_cache(maxsize=1)  # callers go through one word set at a time
def _all_words_plan(arrows: tuple[Arrow, ...], max_degree: int) -> tuple:
    return _plan(all_words(arrows, max_degree))


def _evaluate(path: PathMap, plan: tuple) -> dict[Word, Fraction]:
    keys, top, updates = plan
    sig = dict.fromkeys(keys, Fraction(0))
    sig[()] = Fraction(1)
    for arrow, sign in runs(path):
        if arrow not in updates:
            continue
        powers = [Fraction(sign ** k, math.factorial(k)) for k in range(1, top + 1)]
        for w, prefixes in updates[arrow]:
            acc = sig[w]
            for p, c in zip(prefixes, powers):
                v = sig[p]
                if v:
                    acc += v * c
            sig[w] = acc
    return sig


def word_pairing(path: PathMap, word: Word) -> Fraction:
    """Iterated integral of the arrow basis word e^{a_1}..e^{a_r}."""
    word = tuple(word)
    return signature(path, (word[:i] for i in range(len(word) + 1)))[word]


def word_pairings_all(path: PathMap, max_degree: int) -> dict[Word, Fraction]:
    """Pairings of every arrow word up to max_degree against path, keyed in
    `all_words` order (the degree-truncated signature of the path)."""
    return _evaluate(path, _all_words_plan(path.graph.arrows, max_degree))


def pair(elem, paths: PathMap | Iterable[tuple[Fraction, PathMap]]) -> Fraction:
    """Bilinear pairing of an algebra element with a path or a rational
    combination of paths sharing host and start vertex."""
    if isinstance(paths, PathMap):
        combo: list[tuple[Fraction, PathMap]] = [(Fraction(1), paths)]
    else:
        combo = [(Fraction(c), p) for c, p in paths]
    base = None
    for _, p in combo:
        if p.graph != elem.graph:
            raise PairingError("element and path live on different digraphs")
        if base is None:
            base = p.start
        elif p.start != base:
            raise PairingError(
                f"paths start at different vertices: {base!r} and {p.start!r}")
    total = Fraction(0)
    for c, p in combo:
        sig = signature(p, (w[:i] for w in elem.coeffs for i in range(len(w) + 1)))
        for w, coeff in elem.coeffs.items():
            total += c * coeff * sig[w]
    return total


def order(path: PathMap, max_degree: int) -> int | None:
    """Smallest r <= max_degree with a nonzero degree-r arrow-word pairing;
    None means every such pairing vanishes up to max_degree (order is at
    least max_degree + 1).  Exact by finite enumeration, one degree at a
    time, stopping at the first nonzero one; a path whose runs cancel to
    nothing pairs to 0 with every nonempty word."""
    if max_degree < 1:
        raise PairingError("max_degree must be at least 1")
    if not runs(path):  # the signature of the trivial path
        return None
    # the pairings of words up to degree d do not depend on longer words,
    # and those of degree below d were all 0 at the degrees before
    for d in range(1, max_degree + 1):
        if any(v for w, v in word_pairings_all(path, d).items() if w):
            return d
    return None


def commutator(a: PathMap, b: PathMap) -> PathMap:
    """[a, b] = a * b * a^{-1} * b^{-1} for loops at a common base."""
    if a.graph != b.graph:
        raise PathError("loops live on different digraphs")
    if not (a.is_loop and b.is_loop):
        raise PathError("commutator arguments must be loops")
    if a.start != b.start:
        raise PathError(
            f"loops are based at different vertices: {a.start!r} and {b.start!r}")
    return concat(concat(concat(a, b), inverse(a)), inverse(b))
