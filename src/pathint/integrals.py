"""Iterated integrals of words of 1-forms over path maps.

The integral of omega_1..omega_r over a path of n steps is the sum over all
non-decreasing index sequences 1 <= t_1 <= .. <= t_r <= n of the product of
step pairings divided by the volume number of the sequence.  Arrow words
have one evaluator, the signature kernel `signature` (Chen's identity), and
`word_pairing`, `word_pairings_all`, `pair` and `order` are views of it.
Words of general 1-forms go through `iterated_integral`, a dynamic program
over the forms, with the direct sum `iterated_integral_direct` as its test
oracle.

Both dynamic programs run on Python ints, scaled so that every value they
hold is an integer, and divide once per result: the signature kernel holds
L! <w, S> for a word w of length L, and `iterated_integral` holds
j! D_0..D_{j-1} times its j-th prefix integral, D_i the least common
denominator of form i's values on the path.  Each keeps the exact value;
only the gcd of every intermediate `Fraction` is saved.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Sequence

from .errors import PairingError
from .forms import OneForm
from .graphs import Arrow, Digraph
from .linalg import _ZERO
from .paths import (ForwardArrow, InverseArrow, PathMap, Step, Trivial, _check_bound,
                    _check_loop_pair, concat, inverse, runs, steps)

Word = tuple[Arrow, ...]


def volume_number(seq: Sequence[int]) -> int:
    """Product of factorials of the value multiplicities of a non-decreasing
    sequence of positive integers."""
    try:
        seq = tuple(seq)
    except TypeError:
        raise PairingError(f"index sequence {seq!r} is not iterable") from None
    total = 1
    run = 0
    prev = None
    for t in seq:
        if not isinstance(t, int) or isinstance(t, bool):
            raise PairingError(f"index sequence {seq!r} has an entry that is not an int")
        if t < 1:
            raise PairingError(f"index sequence {seq!r} has an entry below 1")
        if prev is not None and t < prev:
            raise PairingError(f"index sequence {seq!r} is not non-decreasing")
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
    """Dynamic-programming evaluation over the path's `runs`, O(runs * r^2)
    exact for a word of r forms.

    A step whose form values are x_0..x_{r-1} multiplies the prefix
    integrals by exp(x), so backtracks (exp(x) exp(-x) = 1) and trivial
    steps (x = 0) drop out.  With D_i the least common denominator of form
    i's values on the path's arrows, X_k = D_k x_k is an integer, and so is
    P_j = j! D_0..D_{j-1} times the j-th prefix integral: P_0 = 1, and the
    factor turns P_j into P_j + sum over i < j of C(j, i) P_i X_i..X_{j-1},
    a sum of integers.  Updating the longest prefix first leaves every P_i
    it reads unchanged."""
    r = len(word)
    for w in word:
        if w.graph != path.graph:
            raise PairingError("form and path live on different digraphs")
    rs = runs(path)
    dens = [math.lcm(*(omega(a).denominator for a, _ in rs)) for omega in word]
    forward = {a: [omega(a).numerator * (d // omega(a).denominator)
                   for omega, d in zip(word, dens)] for a, _ in rs}
    binom = [[math.comb(j, i) for i in range(j)] for j in range(r + 1)]
    scaled = [1] + [0] * r
    for arrow, sign in rs:
        xs = forward[arrow] if sign > 0 else [-x for x in forward[arrow]]
        for j in range(r, 0, -1):
            acc, prod, row = scaled[j], 1, binom[j]
            for i in range(j - 1, -1, -1):
                prod *= xs[i]
                if not prod:
                    break
                acc += row[i] * scaled[i] * prod
            scaled[j] = acc
    return Fraction(scaled[r], math.factorial(r) * math.prod(dens))


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
    _check_bound("max_degree", max_degree, error=PairingError)
    _check_bound("min_degree", min_degree, error=PairingError)
    out: list[Word] = []
    for d in range(min_degree, max_degree + 1):
        out.extend(product(arrows, repeat=d))
    return out


def signature(path: PathMap, words: Iterable[Word]) -> dict[Word, Fraction]:
    """Pairings of arrow words with path, keyed by their `_prefix_closure`
    (the empty word is always present).

    The signature S, first that of the trivial path, is multiplied in place
    by exp(c e_a) for each signed arrow (a, c) of the path's `runs`,
    c = +1 or -1: <w, S exp(c e_a)> is the sum over k of
    <w[:-k], S> c^k / k! while the last k letters of w are a, so only words
    ending in a change.  The kernel `_evaluate` holds L! <w, S> for a word
    of length L, an integer: it is a sum of products of c^k L! / (k_1!
    k_2! ..) over blocks of equal letters with k_1 + k_2 + .. = L, and the
    product of the k_i! divides L!.  In these terms the update is
    L! <w, S> += C(L, k) c^k (L - k)! <w[:-k], S>, all in ints, and one
    `Fraction` is made per word at the end."""
    return _as_fractions(_evaluate(runs(path), _plan(_prefix_closure(words))))


def _prefix_closure(words: Iterable[Word]) -> dict[Word, None]:
    """The words in first-seen order, then the prefixes they lack."""
    keys = dict.fromkeys(words)
    keys.update(dict.fromkeys(w[:i] for w in list(keys) for i in range(len(w))))
    return keys


def _as_fractions(sig: dict[Word, int]) -> dict[Word, Fraction]:
    """The pairings behind the kernel's scaled ints, one `Fraction` each
    (the one `_ZERO` for all that vanish)."""
    return {w: Fraction(v, math.factorial(len(w))) if v else _ZERO
            for w, v in sig.items()}


def _plan(words: Iterable[Word]) -> tuple:
    """What `signature` needs of a word set apart from the path: the keys,
    and for each signed arrow (a, c) the words ending in a, longest first,
    each with its prefixes less its last 1, 2, .. a's and its binomial row
    C(L, 1) c, C(L, 2) c^2, .., L = len(w).  Updating longest first makes
    every read of a shorter prefix see its value from before the factor."""
    keys = dict.fromkeys(words)
    keys[()] = None
    plus = [[math.comb(t, j) for j in range(1, t + 1)]
            for t in range(max(map(len, keys)) + 1)]
    rows = {1: plus, -1: [[-b if j % 2 else b for j, b in enumerate(row, 1)]
                          for row in plus]}
    ends: dict[Arrow, list] = {}
    for w in sorted(keys, key=len, reverse=True)[:-1]:  # () sorts last
        t, k = len(w), 1
        while k < t and w[t - k - 1] == w[-1]:
            k += 1
        ends.setdefault(w[-1], []).append((w, [w[:t - j] for j in range(1, k + 1)]))
    updates = {(a, c): [(w, prefixes, rows[c][len(w)]) for w, prefixes in group]
               for a, group in ends.items() for c in (1, -1)}
    return tuple(keys), updates


def _all_words_plan(g: Digraph, max_degree: int) -> tuple:
    """The plan of every arrow word of g up to max_degree, kept on g."""
    return g.derived(("all words plan", max_degree),
                     lambda: _plan(all_words(g.arrows, max_degree)))


def _evaluate(rs: Sequence[tuple], plan: tuple) -> dict[Word, int]:
    """L! <w, S> for every key w of the plan, L = len(w), on a path whose
    `runs` are rs: see `signature`."""
    keys, updates = plan
    sig = dict.fromkeys(keys, 0)
    sig[()] = 1
    for run in rs:
        for w, prefixes, row in updates.get(run, ()):
            acc = sig[w]
            for p, c in zip(prefixes, row):
                v = sig[p]
                if v:
                    acc += c * v
            sig[w] = acc
    return sig


def _spelled(rs: Sequence[tuple], d: int) -> dict[Word, int]:
    """L! <w, S> for every word w of degree <= d with a nonzero value, on a
    path whose `runs` are rs: `_evaluate`'s update made forward from the
    words already held, so no plan is needed.  By Chen's identity S is the
    product of exp(c e_a) over the runs (a, c), so the words held are those
    the runs spell, and the factor adds C(L + k, k) c^k L! <w, S> to
    (L + k)! <w a^k, S> for each word w held before it, L = len(w)."""
    binom = [[math.comb(t + k, k) for k in range(d - t + 1)] for t in range(d + 1)]
    sig = {(): 1}
    for a, c in rs:
        for w, v in list(sig.items()):
            if v:
                row = binom[len(w)]
                for k in range(1, len(row)):
                    w, v = w + (a,), v * c
                    sig[w] = sig.get(w, 0) + row[k] * v
    return {w: v for w, v in sig.items() if v}


def _word(graph: Digraph, w: Iterable[Arrow]) -> Word:
    """w as a word of graph's arrows; a letter that is not one is refused."""
    try:
        word = tuple(w)
        if graph.arrow_set.issuperset(word):
            return word
    except TypeError as exc:
        raise PairingError(f"word {w!r} is not a sequence of hashable letters ({exc})") from None
    raise PairingError(f"word uses unknown arrow "
                       f"{next(a for a in word if a not in graph.arrow_set)!r}")


def word_pairing(path: PathMap, word: Iterable[Arrow]) -> Fraction:
    """Iterated integral of the arrow basis word e^{a_1}..e^{a_r}."""
    word = _word(path.graph, word)
    return signature(path, (word,))[word]


def word_pairings_all(path: PathMap, max_degree: int) -> dict[Word, Fraction]:
    """Pairings of every arrow word up to max_degree against path, keyed in
    `all_words` order (the degree-truncated signature of the path)."""
    _check_bound("max_degree", max_degree, error=PairingError)
    return _as_fractions(_evaluate(runs(path), _all_words_plan(path.graph, max_degree)))


def pair(elem, paths: PathMap | Iterable[tuple[Fraction, PathMap]]) -> Fraction:
    """Bilinear pairing of an algebra element with a path or a rational
    combination of paths sharing host and start vertex, each path paired
    through `_pairing`.  A word pairs to 0 with a path unless the letters
    of its maximal blocks of equal letters appear in order among the arrows
    of the path's `runs` (Chen's identity; the lemma is in `_pairing`), so
    only the words that embed so are evaluated."""
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
    value = _pairing(elem.coeffs)
    return sum((c * value(runs(p)) for c, p in combo), Fraction(0))


def _pairing(coeffs: dict[Word, Fraction]) -> Callable[[Sequence[tuple]], Fraction]:
    """value(rs): the pairing of the element with these coefficients with a
    path whose `runs` are rs.  With M the element's degree and q the least
    common denominator of its coefficients n_w / q_w, it is the one
    fraction sum of n_w (q / q_w) (M! / L!) L! <w, S> over q M!, read off
    the signature kernel's scaled ints (L = len(w)); q and M are those of
    the whole element.  Words and runs are spelled in small int letters,
    one per arrow of the words planned, so that the kernel hashes ints and
    not arrows; a run on any other arrow updates no word planned.

    Support lemma.  By Chen's identity S = exp(c_1 e_a_1)..exp(c_m e_a_m)
    for runs (a_1, c_1)..(a_m, c_m), so <w, S> is the sum, over the ways
    to split w as a_1^k_1..a_m^k_m, of c_1^k_1/k_1!..c_m^k_m/k_m!.  A block
    b^k of equal letters can always be spelled by one run of b (two runs
    in a row never share an arrow, `runs` being a free reduction), so w
    pairs to 0 unless the letters of its maximal blocks appear in order
    among the run arrows; a path whose runs cancel pairs with the empty
    word alone.  So the first path's sum runs over the words that embed
    so, its support (`_support`, one block test per word), on a plan over
    the support's prefix closure only (a prefix of an embedding word
    embeds), when the support holds at most half the words.  Otherwise,
    and for every later path, one plan of every word is made once and
    shared: callers that pair many paths, as `invariance_verify` and
    `BasedFunctional.equal` do, rarely meet one support twice, and on the
    short loops they pair, finding and planning each support cost more
    than evaluating every word."""
    words, ratios = list(coeffs), [c.as_integer_ratio() for c in coeffs.values()]
    degree = max(map(len, words), default=0)
    m_fact = math.factorial(degree)
    scale = [m_fact // math.factorial(t) for t in range(degree + 1)]
    q = math.lcm(*(den for _, den in ratios))
    code: dict[Arrow, int] = {}  # grown as plans spell their words
    whole = None  # the plan and terms of every word, made at most once
    first = True

    def made(kept: Iterable[int]) -> tuple:
        terms = [(tuple([code.setdefault(a, len(code)) for a in words[i]]),
                  ratios[i][0] * (q // ratios[i][1]) * scale[len(words[i])]) for i in kept]
        return _plan(_prefix_closure(w for w, _ in terms)), terms

    def total(rs: Sequence[tuple], plan: tuple, terms: list) -> Fraction:
        sig = _evaluate([(code[a], c) for a, c in rs if a in code], plan)
        return Fraction(sum(k * sig[w] for w, k in terms), q * m_fact)

    def value(rs: Sequence[tuple]) -> Fraction:
        nonlocal whole, first
        if not rs:  # S = 1: only the empty word pairs
            return coeffs.get((), _ZERO)
        if first:
            first = False
            kept = _support(words, rs)
            if not kept:
                return Fraction(0)
            if 2 * len(kept) <= len(words):
                return total(rs, *made(kept))
        if whole is None:
            whole = made(range(len(words)))
        return total(rs, *whole)
    return value


def _support(words: Sequence[Word], rs: Sequence[tuple]) -> list[int]:
    """The indices of the words that embed in the runs rs: the letters of
    each word's maximal blocks of equal letters appear in order among the
    run arrows.  Each block takes the first run of its letter after the
    previous block's run, by bisection in that letter's run positions."""
    at: dict[Arrow, list[int]] = {}
    for i, (a, _) in enumerate(rs):
        at.setdefault(a, []).append(i)
    kept = []
    for i, w in enumerate(words):
        e, last = -1, None
        for a in w:
            if a != last:
                later = at.get(a, ())
                j = bisect_right(later, e)
                if j == len(later):
                    break
                e, last = later[j], a
        else:
            kept.append(i)
    return kept


def order(path: PathMap, max_degree: int) -> int | None:
    """Smallest r <= max_degree with a nonzero degree-r arrow-word pairing;
    None means every such pairing vanishes up to max_degree (order is at
    least max_degree + 1).  Exact by finite enumeration, one degree at a
    time, stopping at the first nonzero one; a path whose runs cancel to
    nothing pairs to 0 with every nonempty word.  Only whether a pairing is
    0 matters, so the kernel's scaled ints are read as they are."""
    _check_bound("max_degree", max_degree, 1, PairingError)
    rs = runs(path)
    if not rs:  # the signature of the trivial path
        return None
    # the pairings of words up to degree d do not depend on longer words,
    # and those of degree below d were all 0 at the degrees before
    for d in range(1, max_degree + 1):
        sig = _evaluate(rs, _all_words_plan(path.graph, d))
        if any(v for w, v in sig.items() if w):
            return d
    return None


def commutator(a: PathMap, b: PathMap) -> PathMap:
    """[a, b] = a * b * a^{-1} * b^{-1} for loops at a common base."""
    _check_loop_pair(a, b, "commutator arguments must be loops")
    return concat(concat(concat(a, b), inverse(a)), inverse(b))
