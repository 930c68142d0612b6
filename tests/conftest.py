"""Shared fixtures, seeded random generators, and the acceptance-summary
terminal hook (one pass/fail line per criterion at the end of a run)."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from pathint import Digraph, OneForm, ZeroForm, all_words, make_path, validate_digraph
from pathint.homotopy import _by_runs, _test_pairs
from pathint.integrals import _all_words_plan, _evaluate, _pairing
from pathint.linalg import Echelon, span_equal
from pathint.paths import _generator_words, _product, _runs

SEED = int(os.environ.get("PATHINT_SEED", "20260819"))

# "suite" repeats exactly; "wide" draws fresh examples on every run
# (PATHINT_HYPOTHESIS_PROFILE=wide), for the scheduled equivalence job
settings.register_profile("suite", max_examples=25, deadline=None,
                          derandomize=True)
settings.register_profile("wide", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("PATHINT_HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def random_digraph(rng: random.Random, max_vertices: int = 6, p: float = 0.4):
    n = rng.randint(2, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    arrows = [(u, v) for u in vs for v in vs if u != v and rng.random() < p]
    if not arrows:
        arrows = [(vs[0], vs[1])]
    return validate_digraph(vs, arrows)


def patterned_digraph(rng: random.Random):
    """A random digraph on 5-6 vertices with a triangle, a square and a
    double edge planted on random vertices, arrows in random order."""
    vs = [f"v{i}" for i in range(rng.randint(5, 6))]
    arrows = {(u, v) for u in vs for v in vs if u != v and rng.random() < 0.25}
    x, y, z = rng.sample(vs, 3)
    arrows |= {(x, y), (y, z), (x, z)}
    a, b, c, d = rng.sample(vs, 4)
    arrows |= {(a, b), (b, d), (a, c), (c, d)}
    u, v = rng.sample(vs, 2)
    arrows |= {(u, v), (v, u)}
    arrows = sorted(arrows)
    rng.shuffle(arrows)
    return Digraph(vs, arrows)


def walked_triangle_sets(g):
    """The vertex sets {x, y, z} of the arrow walks x->y->z with x->z."""
    return {frozenset((x, y, a[1])) for x, y in g.arrows for a in g.out_arrows(y)
            if a[1] != x and g.has_arrow(x, a[1])}


def walked_square_role_tuples(g):
    """The tuples (v0, v1, v2, v3) of distinct vertices of the arrow walks
    v0->v1->v3 with v0->v2->v3."""
    found = set()
    for v0, v1 in g.arrows:
        for a in g.out_arrows(v1):
            v3 = a[1]
            for b in g.in_arrows(v3):
                v2 = b[0]
                if v3 != v0 and v2 not in (v0, v1, v3) and g.has_arrow(v0, v2):
                    found.add((v0, v1, v2, v3))
    return found


def walked_square_walks(g):
    """The walks once around a square of `walked_square_role_tuples`, as a
    path meets them: the cycle v0 v1 v3 v2 from any corner, either way."""
    walks = set()
    for v0, v1, v2, v3 in walked_square_role_tuples(g):
        cycle = (v0, v1, v3, v2)
        for i in range(4):
            turned = cycle[i:] + cycle[:i]
            walks |= {turned, turned[::-1]}
    return walks


def random_path(rng: random.Random, g, max_len: int = 8, start=None,
                length=None, allow_trivial: bool = True):
    v = start if start is not None else rng.choice(g.vertices)
    steps = length if length is not None else rng.randint(0, max_len)
    verts, flags = [v], []
    for _ in range(steps):
        moves = [(a[1], "f") for a in g.out_arrows(v)]
        moves += [(a[0], "b") for a in g.in_arrows(v)]
        if allow_trivial or not moves:
            moves.append((v, "f"))
        nxt, flag = rng.choice(moves)
        verts.append(nxt)
        flags.append(flag)
        v = nxt
    return make_path(g, verts, flags)


def random_rational(rng: random.Random, zero_ok: bool = True) -> Fraction:
    num = rng.randint(-3, 3)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 3))


def random_form(rng: random.Random, g, zero_p: float = 0.3) -> OneForm:
    vals = {}
    for a in g.arrows:
        if rng.random() >= zero_p:
            c = random_rational(rng)
            if c:
                vals[a] = c
    return OneForm(g, vals)


def random_word(rng: random.Random, g, max_degree: int = 4,
                min_degree: int = 1) -> list[OneForm]:
    return [random_form(rng, g)
            for _ in range(rng.randint(min_degree, max_degree))]


def random_zero_form(rng: random.Random, g) -> ZeroForm:
    return ZeroForm(g, {v: random_rational(rng) for v in g.vertices})


# ------------------------------------ the all-words pi1 route, as reference

def pi1_rows_by_test_pairs(g, base, degree_bound, words):
    """The nonzero rows of pairings over words, each times degree_bound!:
    one per test pair of `homotopy._test_pairs`, the difference of the two
    loops', and one per product of at most degree_bound generator loops,
    its own.  The signature kernel gives len(w)! <w, S>, so word w is
    scaled by degree_bound! / len(w)! and every entry is an int."""
    plan = _all_words_plan(g, degree_bound)
    top = math.factorial(degree_bound)
    scale = [top // math.factorial(len(w)) for w in words]

    def signed(rs):
        sig = _evaluate(rs, plan)
        return tuple(s * sig[w] for w, s in zip(words, scale))
    row = _by_runs(signed)
    zero = (0,) * len(words)
    move_rows = {tuple(a - b for a, b in zip(row(loop), row(nb)))
                 for loop, nb, _ in _test_pairs(g, base, degree_bound)} - {zero}
    loop_rows = {row(_product(base, word))
                 for word in _generator_words(g, base, degree_bound)} - {zero}
    return move_rows, loop_rows


def pi1_by_test_pairs(g, base, degree_bound):
    """Reference for `pi1_candidates` over every arrow word of degree
    1..degree_bound: the words, the invariant kernel (the kernel of the
    move rows of `pi1_rows_by_test_pairs`) and the candidates, the
    invariant vectors of the free columns that the loop rows then make
    pivots, a basis of the invariant kernel modulo the functionals that
    vanish on every loop; vectors sparse, column -> `Fraction`."""
    words = all_words(g.arrows, degree_bound, min_degree=1)
    move_rows, loop_rows = pi1_rows_by_test_pairs(g, base, degree_bound, words)
    echelon = Echelon(len(words), sorted(move_rows))
    free = sorted(set(range(len(words))).difference(echelon.pivots()))
    invariant = echelon.kernel()
    for r in sorted(loop_rows):
        echelon.add(r)
    pivots = set(echelon.pivots())
    return words, invariant, [u for j, u in zip(free, invariant) if j in pivots]


def same_loop_functionals(g, base, degree, a, b):
    """True iff the elements given as coefficient dicts (word -> `Fraction`)
    in a and in b, of degree <= degree, span the same loop functionals at
    base: their pairings with the products of at most degree generator
    loops of `paths._generator_words` span the same rows."""
    loops = [_runs(*_product(base, w)) for w in _generator_words(g, base, degree)]

    def rows(elements):
        return [list(map(_pairing(coeffs), loops)) for coeffs in elements]
    return span_equal(rows(a), rows(b), len(loops))


# ------------------------------------------------- acceptance summary lines

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        if report.when == "call":
            _ACCEPTANCE[name] = report.outcome
        elif report.when == "setup" and report.outcome != "passed":
            _ACCEPTANCE[name] = report.outcome


def _criterion_key(name: str) -> int:
    # test_criterion_07_invariance -> 7
    try:
        return int(name.split("_")[2])
    except (IndexError, ValueError):
        return 99


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE, key=_criterion_key):
        n = _criterion_key(name)
        label = " ".join(name.split("_")[3:])
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(
            _ACCEPTANCE[name], _ACCEPTANCE[name].upper())
        terminalreporter.write_line(f"criterion {n:2d} [{verdict}] {label}")
