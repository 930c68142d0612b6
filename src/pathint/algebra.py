"""Shuffle algebra of arrow words with its Hopf structure.

Elements are finitely supported rational combinations of arrow words, and
tensors of ordered pairs of them.  Both are subclasses of the one sparse
combination type, `linalg._Combination`, which the forms of `forms` share:
they differ only in how a key is checked, and an unknown arrow or a host
mismatch raises `PairingError`.  The product is the shuffle, the coproduct
is deconcatenation, the counit picks the empty-word coefficient, and the
antipode is signed reversal.  Each linear map builds its result once: the
maps injective on keys (deconcatenation, reversal, extending by a letter,
pullback) build it directly, the others sum their terms through the one
accumulator `linalg._sum_terms`, and no map checks again a key it built
from checked ones.  Functional equality of elements (as integration
functionals on based paths or loops) is decided exactly, on finitely many
products of generator loops, and an inequality comes with a witness path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, combinations_with_replacement, islice, product
from typing import Callable, Iterable, Sequence

from .errors import PairingError
from .forms import OneForm
from .graphs import Arrow, BasedDigraph, Digraph, DigraphMap
from .integrals import Word, _all_words_plan, _evaluate, _pairing, _word, all_words, pair
from .linalg import _Combination, _sum_terms
from .paths import (PathMap, _build, _check_base, _check_bound, _generator_words, _product,
                    _runs, _tree_paths, concat, inverse, runs)


class AlgebraElement(_Combination):
    """Rational combination of arrow words on a fixed host digraph."""

    _key, _error = staticmethod(_word), PairingError

    @property
    def degree(self) -> int:
        """Largest supported word length (0 for the zero element)."""
        return max((len(w) for w in self.coeffs), default=0)

    def homogeneous_component(self, r: int) -> "AlgebraElement":
        return self._unchecked(
            self.graph, {w: c for w, c in self.coeffs.items() if len(w) == r})

    def support(self) -> list[Word]:
        idx = self.graph.arrow_index
        return sorted(self.coeffs, key=lambda w: (len(w), tuple(idx[a] for a in w)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return shuffle(self, other)
        return self.__rmul__(other)

    def __hash__(self):
        return hash((self.graph, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "AlgebraElement(0)"
        bits = []
        for w in self.support():
            label = ".".join(f"{a[0]}->{a[1]}" for a in w) if w else "1"
            bits.append(f"{self.coeffs[w]}*{label}")
        return f"AlgebraElement({' + '.join(bits)})"


def zero(graph: Digraph) -> AlgebraElement:
    return AlgebraElement(graph, {})


def unit(graph: Digraph) -> AlgebraElement:
    return AlgebraElement(graph, {(): Fraction(1)})


def word_element(graph: Digraph, word: Iterable[Arrow],
                 coeff=1) -> AlgebraElement:
    return AlgebraElement(graph, {_word(graph, word): Fraction(coeff)})


def from_forms(graph: Digraph, forms: Sequence[OneForm]) -> AlgebraElement:
    """Expand a word of 1-forms into the arrow-word basis multilinearly.
    Each step extends every word by one arrow, so no two terms meet; every
    form's host is checked, also after a zero form has emptied the sum."""
    terms: dict[Word, Fraction] = {(): Fraction(1)}
    for omega in forms:
        if omega.graph != graph:
            raise PairingError("form lives on a different digraph")
        values = [(a, v) for a in graph.arrows if (v := omega(a))]
        terms = {w + (a,): c * v for w, c in terms.items() for a, v in values}
    return AlgebraElement._unchecked(graph, terms)


@lru_cache(maxsize=None)
def _interleavings(r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """All 0/1 source patterns of length r+s with exactly r zeros, i.e. the
    (r, s)-shuffles read as which word each slot draws from."""
    out = []
    for left in combinations(range(r + s), r):
        pattern = [1] * (r + s)
        for i in left:
            pattern[i] = 0
        out.append(tuple(pattern))
    return tuple(out)


def shuffle_words(w1: Word, w2: Word) -> dict[Word, int]:
    """Shuffle of two basis words, with integer multiplicities."""
    if not w1:
        return {tuple(w2): 1}
    if not w2:
        return {tuple(w1): 1}
    out: dict[Word, int] = {}
    for pattern in _interleavings(len(w1), len(w2)):
        i = j = 0
        merged = []
        for flag in pattern:
            if flag == 0:
                merged.append(w1[i])
                i += 1
            else:
                merged.append(w2[j])
                j += 1
        key = tuple(merged)
        out[key] = out.get(key, 0) + 1
    return out


def _shuffle_coeffs(d1: dict[Word, Fraction], d2: dict[Word, Fraction]) -> dict:
    """The bilinear extension of the basis shuffle to two coefficient dicts
    (rational or integer), zero coefficients dropped."""
    return _sum_terms((w, c * m) for w1, c1 in d1.items()
                      for w2, c2 in d2.items() for c in (c1 * c2,)
                      for w, m in shuffle_words(w1, w2).items())


def shuffle(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Shuffle product, the bilinear extension of the basis shuffle."""
    u._check_host(v)
    return AlgebraElement._unchecked(u.graph, _shuffle_coeffs(u.coeffs, v.coeffs))


class TensorPair(_Combination):
    """Rational combination of ordered pairs of arrow words."""

    _error = PairingError

    @staticmethod
    def _key(graph: Digraph, k) -> tuple[Word, Word]:
        return _word(graph, k[0]), _word(graph, k[1])

    def __mul__(self, other: "TensorPair") -> "TensorPair":
        """Componentwise shuffle on tensor factors."""
        if not isinstance(other, TensorPair):
            return NotImplemented
        self._check_host(other)

        def terms():
            for (u1, u2), c1 in self.coeffs.items():
                for (v1, v2), c2 in other.coeffs.items():
                    c, right = c1 * c2, shuffle_words(u2, v2)
                    for wl, ml in shuffle_words(u1, v1).items():
                        for wr, mr in right.items():
                            yield (wl, wr), c * ml * mr
        return self._unchecked(self.graph, _sum_terms(terms()))

    def __repr__(self) -> str:
        return f"TensorPair({len(self.coeffs)} terms)"


def coproduct(u: AlgebraElement) -> TensorPair:
    """Deconcatenation: each word splits into all prefix/suffix pairs, and a
    pair spells back its word, so no two terms meet."""
    return TensorPair._unchecked(u.graph, {
        (w[:i], w[i:]): c for w, c in u.coeffs.items() for i in range(len(w) + 1)})


def counit(u: AlgebraElement) -> Fraction:
    return u.coeffs.get((), Fraction(0))


def antipode(u: AlgebraElement) -> AlgebraElement:
    """Signed reversal: a word of length r maps to (-1)^r times its reverse."""
    return AlgebraElement._unchecked(u.graph, {
        w[::-1]: -c if len(w) % 2 else c for w, c in u.coeffs.items()})


def pullback_element(f: DigraphMap, u: AlgebraElement) -> AlgebraElement:
    """Pull a shuffle element on the target back to the source, letter by
    letter: the basis form of an arrow pulls back to the sum of the basis
    forms of its non-degenerate preimage arrows.  A source word maps to one
    target word, so no two terms meet."""
    if u.graph != f.target:
        raise PairingError("element does not live on the map's target")
    fiber: dict[Arrow, list[Arrow]] = {a: [] for a in f.target.arrows}
    for b in f.source.arrows:
        image = (f(b[0]), f(b[1]))
        if image in fiber:
            fiber[image].append(b)
    return AlgebraElement._unchecked(f.source, {
        choice: c for w, c in u.coeffs.items()
        for choice in product(*(fiber[a] for a in w))})


@dataclass(frozen=True)
class FunctionalVerdict:
    """Outcome of an exact functional-equality test."""
    status: str  # "equal" | "certified-unequal"
    base: object
    flavor: str  # "path" | "loop"
    witness: PathMap | None = None
    values: tuple[Fraction, Fraction] | None = None

    @property
    def separated(self) -> bool:
        return self.status == "certified-unequal"


def functional_equal(u: AlgebraElement, v: AlgebraElement, base,
                     flavor: str = "loop") -> FunctionalVerdict:
    """Compare two elements as integration functionals on paths (or loops)
    from base: `BasedFunctional.equal` of the two functionals."""
    return BasedFunctional(u, base, flavor).equal(BasedFunctional(v, base, flavor))


class BasedFunctional:
    """A shuffle element read as an integration functional on based paths or
    loops; equality is decided on every path or loop, never syntactically."""

    def __init__(self, elem: AlgebraElement, base, flavor: str = "loop"):
        if flavor not in ("path", "loop"):
            raise PairingError(f"unknown flavor {flavor!r}")
        _check_base(elem.graph, base, PairingError)
        self.elem = elem
        self.base = base
        self.flavor = flavor

    def __call__(self, path: PathMap) -> Fraction:
        if path.start != self.base:
            raise PairingError(f"path does not start at {self.base!r}")
        if self.flavor == "loop" and not path.is_loop:
            raise PairingError("loop functional applied to a non-loop")
        return pair(self.elem, path)

    def equal(self, other: "BasedFunctional") -> FunctionalVerdict:
        """Decide equality on every loop (or path) from the base.  With d
        the degree of the difference x, the test loops are the products of
        the words of `paths._generator_words` up to d, in its order, each
        followed for paths by the tree path to each vertex of the base's
        component, in breadth-first order.  The first test path that pairs
        differently is the witness; if none does, they are equal.  By the
        lemma of `paths._generator_words`, x vanishes on every loop iff it
        does on these, and a path to w is a loop times the tree path t(w)."""
        if (self.base, self.flavor) != (other.base, other.flavor):
            raise PairingError("functionals have different base or flavor")
        u, v = self.elem, other.elem
        x = u - v  # refuses elements on different hosts
        g, base, flavor = u.graph, self.base, self.flavor
        tails = _tree_paths(g, base).values() if flavor == "path" else [((base,), ())]
        pair_x = _pairing(x.coeffs)
        for word in _generator_words(g, base, x.degree):
            for tail in tails:
                vs, os = _product(base, word + (tail,))
                if pair_x(_runs(vs, os)):
                    w = _build(g, vs, os)
                    return FunctionalVerdict("certified-unequal", base, flavor, witness=w,
                                             values=(pair(u, w), pair(v, w)))
        return FunctionalVerdict("equal", base, flavor)


def hopf_axiom_report(graph: Digraph, degree_bound: int, base=None,
                      max_failures: int = 5) -> dict:
    """Exhaustively verify the Hopf axioms on all arrow words up to
    degree_bound, plus the dual pairing laws on every loop at base when a
    base vertex is available.  A report maps axiom names to pass flags and
    the first max_failures offending instances (a law with one fails even
    when none is listed).  Each algebraic law is a predicate on one
    instance, a word or a pair or triple of words; the report reads this
    module's `antipode`, `coproduct`, `shuffle_words` and `concat` when it
    runs, so patching one in breaks the laws that use it (negative
    controls).  The dual laws run on the product l of each word of
    `paths._generator_words` up to degree_bound, and the concatenation law
    on each pair of them of k_a + k_b <= degree_bound loops: as the
    kernel's signatures are group-like, a law's sides differ by a
    functional of degree <= degree_bound linear in S(l), or bilinear in
    (S(la), S(lb)) for a `concat` that multiplies its loops in either
    order, which that lemma decides on every loop at base."""
    _check_bound("degree_bound", degree_bound)
    _check_bound("max_failures", max_failures)
    words = all_words(graph.arrows, degree_bound)

    # each word's antipode and coproduct, taken once for every law
    antipode_of = cache(lambda w: antipode(word_element(graph, w)))
    coproduct_of = cache(lambda w: coproduct(word_element(graph, w)))

    def failing(key: str, instances: Iterable, holds: Callable) -> Iterable[dict]:
        """The instances where a law's predicate is false, lazily, in order."""
        return ({key: x} for x in instances if not holds(x))

    verdicts: dict[tuple, bool] = {}

    def associative(uvw: tuple) -> bool:
        # The basis shuffle reads positions only, and renaming letters
        # one-to-one renames both sides alike, so a triple's verdict depends
        # only on its word lengths and on which of its letters are equal:
        # one verdict per such pattern, each letter read as its first place
        u, v, w = uvw
        letters = u + v + w
        pattern = (len(u), len(v), tuple(map(letters.index, letters)))
        holds = verdicts.get(pattern)
        if holds is None:
            bu, bv, bw = {u: 1}, {v: 1}, {w: 1}
            holds = verdicts[pattern] = (_shuffle_coeffs(_shuffle_coeffs(bu, bv), bw)
                                         == _shuffle_coeffs(bu, _shuffle_coeffs(bv, bw)))
        return holds

    def coassociative(w: Word) -> bool:
        # (delta x id) delta = (id x delta) delta
        d = coproduct_of(w).coeffs.items()
        return (_sum_terms(((x1, x2, w2), c * c1) for (w1, w2), c in d
                           for (x1, x2), c1 in coproduct_of(w1).coeffs.items())
                == _sum_terms(((w1, y1, y2), c * c2) for (w1, w2), c in d
                              for (y1, y2), c2 in coproduct_of(w2).coeffs.items()))

    def counital(w: Word) -> bool:
        d = coproduct_of(w).coeffs.items()
        return (_sum_terms((w2, c) for (w1, w2), c in d if not w1) == {w: 1}
                == _sum_terms((w1, c) for (w1, w2), c in d if not w2))

    def bialgebraic(uv: tuple) -> bool:
        # delta(u . v) = delta(u) delta(v)
        u, v = (word_element(graph, x) for x in uv)
        return coproduct(shuffle(u, v)) == coproduct_of(uv[0]) * coproduct_of(uv[1])

    def antipodal(w: Word) -> bool:
        # m (S x id) delta = m (id x S) delta = unit . counit
        d = coproduct_of(w).coeffs.items()
        return (_sum_terms(t for (w1, w2), c in d
                           for t in _shuffle_coeffs(antipode_of(w1).coeffs, {w2: c}).items())
                == ({} if w else {(): 1})
                == _sum_terms(t for (w1, w2), c in d
                              for t in _shuffle_coeffs({w1: c}, antipode_of(w2).coeffs).items()))

    # unordered pairs and triples: shuffle is checked commutative, so
    # ordered ones add nothing to the other laws
    laws = {
        "associativity": failing("words", combinations_with_replacement(words, 3),
                                 associative),
        "commutativity": failing("words", combinations(words, 2),
                                 lambda uv: shuffle_words(*uv) == shuffle_words(*uv[::-1])),
        "coassociativity": failing("word", words, coassociative),
        "counit": failing("word", words, counital),
        "bialgebra": failing("words", combinations_with_replacement(words, 2), bialgebraic),
        "antipode": failing("word", words, antipodal),
        "antipode_involution": failing(
            "word", words, lambda w: antipode(antipode_of(w)) == word_element(graph, w)),
    }

    if base is None and isinstance(graph, BasedDigraph):
        base = graph.base
    if base is not None:
        # The dual laws read the signature kernel's ints, len(w)! <w, S> for
        # a word w, so each law is stated times the factorials of its words.
        gen_words = list(_generator_words(graph, base, degree_bound))
        loops = [_build(graph, *_product(base, word)) for word in gen_words]
        plan = _all_words_plan(graph, degree_bound)
        sig = [_evaluate(runs(l), plan) for l in loops]
        binom = [[math.comb(n, i) for i in range(n + 1)] for n in range(degree_bound + 1)]
        top = math.factorial(degree_bound)
        weight = {w: top // math.factorial(len(w)) for w in words}

        def dual_shuffle():
            # pair(u . v, l) = pair(u, l) * pair(v, l)
            split_pairs = [(u, v) for u, v in combinations_with_replacement(words, 2)
                           if len(u) + len(v) <= degree_bound]
            for l, s in zip(loops, sig):
                for u, v in split_pairs:
                    if (sum(m * s[w] for w, m in shuffle_words(u, v).items())
                            != binom[len(u) + len(v)][len(u)] * s[u] * s[v]):
                        yield {"loop": l, "words": (u, v)}
                        break

        def dual_concat():
            # pair(u, a * b) = sum over deconcatenations of pair products;
            # the partners of a product of k_a generator loops are those of
            # at most degree_bound - k_a, a prefix of the products
            for wa, la, sa in zip(gen_words, loops, sig):
                fit = sum(len(wa) + len(wb) <= degree_bound for wb in gen_words)
                for lb, sb in zip(loops[:fit], sig[:fit]):
                    cat = _evaluate(runs(concat(la, lb)), plan)
                    for w in words:
                        if cat[w] != sum(c * sa[w[:i]] * sb[w[i:]]
                                         for i, c in enumerate(binom[len(w)])):
                            yield {"loops": (la, lb), "word": w}
                            break

        def dual_antipode():
            # pair(j(u), l) = pair(u, l^{-1}); the products are not closed
            # under inversion, so the kernel reads l^{-1} itself
            for l, s in zip(loops, sig):
                s_inv = _evaluate(runs(inverse(l)), plan)
                for w in words:
                    if (sum(c * weight[x] * s[x]
                            for x, c in antipode_of(w).coeffs.items())
                            != weight[w] * s_inv[w]):
                        yield {"loop": l, "word": w}
                        break

        laws.update(dual_shuffle=dual_shuffle(), dual_concat=dual_concat(),
                    dual_antipode=dual_antipode())

    axioms: dict[str, dict] = {}
    for name, failures in laws.items():
        found = list(islice(failures, max(max_failures, 1)))
        axioms[name] = {"passed": not found, "failures": found[:max_failures]}
    report = {"degree_bound": degree_bound, "base": base, "axioms": axioms}
    if base is None:
        report["dual_laws"] = "skipped: no base vertex"
    report["all_passed"] = all(a["passed"] for a in axioms.values())
    return report
