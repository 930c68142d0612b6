"""Inputs of the three workloads, made from a seed, and the checks that
their outputs must pass.

A round is a fixed schedule of operations.  The schedule fixes each
operation's kind and size (graph family and order, base vertex, path
length, degree, bounds); the seed picks the rest (arrows, orientations,
walks, moves, coefficients).  Keeping sizes out of the seed's hands keeps the work of a
round close across seeds, so seeds move the figures little.

Each operation owns its graph: when a round's documents are written, every
vertex name gets a prefix unique to the round and the operation, so no
memo inside pathint can carry work from one operation to the next, as none
could between two invocations of the pathint command.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import BACKWARD, FORWARD, CheckFailed, Host, require

WORKLOADS = ("signature", "pi1", "homotopy")


@dataclass
class Graph:
    vertices: list
    arrows: list
    base: str
    family: str = ""
    cochain: dict = field(default_factory=dict)  # closed integer 1-cochain

    @property
    def host(self) -> Host:
        if not hasattr(self, "_host"):
            self._host = Host(self.vertices, self.arrows)
        return self._host


@dataclass
class Op:
    """One pathint invocation: subcommand, input documents, extra flags and
    whatever the check needs to know about how the inputs were built."""
    kind: str
    graph: Graph
    docs: list            # [(flag, doc kind, payload)]
    flags: list
    expect: dict


# ----------------------------------------------------------- graph families

def _line(n, rng):
    """Arrows of a line digraph on 0..n with random orientations."""
    return [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(n)]


def grid(a, b, rng) -> Graph:
    """Box product of two line digraphs: every cell is a square, so the
    graph is contractible."""
    name = lambda i, j: f"g{i}_{j}"
    rows, cols = _line(a - 1, rng), _line(b - 1, rng)
    vertices = [name(i, j) for i in range(a) for j in range(b)]
    arrows = [(name(x, j), name(y, j)) for x, y in rows for j in range(b)]
    arrows += [(name(i, x), name(i, y)) for i in range(a) for x, y in cols]
    return Graph(vertices, arrows, vertices[0], "grid")


def cycle(n, rng) -> Graph:
    """Directed n-cycle: pi1 = Z, winding counted on one arrow."""
    vertices = [f"c{i}" for i in range(n)]
    arrows = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    return Graph(vertices, arrows, vertices[0], "cycle", {arrows[0]: 1})


def cone(n, rng) -> Graph:
    """Apex joined to every vertex of an n-cycle, all arrows out of the apex
    or all into it: every cycle arrow spans a triangle, so contractible."""
    ring = [f"r{i}" for i in range(n)]
    arrows = [(ring[i], ring[(i + 1) % n]) if rng.random() < 0.5
              else (ring[(i + 1) % n], ring[i]) for i in range(n)]
    out = rng.random() < 0.5
    arrows += [("apex", v) if out else (v, "apex") for v in ring]
    return Graph(["apex"] + ring, arrows, ring[0], "cone")


def wedge(m, n, rng) -> Graph:
    """Two directed cycles glued at the base: pi1 free of rank 2; the
    cochain winds around the first cycle."""
    first = ["w0"] + [f"a{i}" for i in range(1, m)]
    second = ["w0"] + [f"b{i}" for i in range(1, n)]
    arrows = []
    for ring in (first, second):
        walk = ring + ["w0"]
        edges = list(zip(walk, walk[1:]))
        if rng.random() < 0.5:
            edges = [(w, u) for u, w in edges]
        arrows += edges
    return Graph(first + second[1:], arrows, "w0", "wedge", {arrows[0]: 1})


def theta(k, rng) -> Graph:
    """Two vertices joined by three directed paths of length k >= 3 (no
    squares, no triangles): pi1 free of rank 2."""
    vertices, arrows = ["u", "w"], []
    for br in range(3):
        mids = [f"t{br}_{i}" for i in range(1, k)]
        vertices += mids
        walk = ["u"] + mids + ["w"]
        edges = list(zip(walk, walk[1:]))
        if rng.random() < 0.5:
            edges = [(y, x) for x, y in edges]
        arrows += edges
    return Graph(vertices, arrows, "u", "theta", {arrows[0]: 1})


def torus(m, n, rng) -> Graph:
    """Box product of directed cycles C_m and C_n: squares on every cell,
    pi1 = Z^2; the cochain counts crossings of one cut."""
    name = lambda i, j: f"z{i}_{j}"
    vertices = [name(i, j) for i in range(m) for j in range(n)]
    arrows = [(name(i, j), name((i + 1) % m, j)) for i in range(m) for j in range(n)]
    arrows += [(name(i, j), name(i, (j + 1) % n)) for i in range(m) for j in range(n)]
    cut = {(name(0, j), name(1, j)): 1 for j in range(n)}
    return Graph(vertices, arrows, vertices[0], "torus", cut)


def cylinder(m, k, rng) -> Graph:
    """Box product of a directed m-cycle with a line of k steps: squares on
    every cell, pi1 = Z."""
    name = lambda i, j: f"y{i}_{j}"
    vertices = [name(i, j) for i in range(m) for j in range(k + 1)]
    arrows = [(name(i, j), name((i + 1) % m, j)) for i in range(m) for j in range(k + 1)]
    arrows += [(name(i, x), name(i, y)) for i in range(m) for x, y in _line(k, rng)]
    cut = {(name(0, j), name(1, j)): 1 for j in range(k + 1)}
    return Graph(vertices, arrows, vertices[0], "cylinder", cut)


def triangle(rng) -> Graph:
    """The standard triangle with its roles dealt at random: contractible."""
    x, y, z = rng.sample(["t0", "t1", "t2"], 3)
    return Graph(["t0", "t1", "t2"], [(x, y), (y, z), (x, z)], rng.choice(["t0", "t1", "t2"]),
                 "triangle")


FAMILIES = {"triangle": triangle, "grid": grid, "cone": cone, "cycle": cycle,
            "wedge": wedge, "theta": theta, "torus": torus, "cylinder": cylinder}


def family(name, size, rng) -> Graph:
    """Graph of the named family; `size` is its argument tuple."""
    return FAMILIES[name](*size, rng)


def random_digraph(n, rng) -> Graph:
    """Connected random digraph on n vertices with about 1.7 n arrows."""
    vertices = [f"v{i}" for i in range(n)]
    arrows = set()
    for i in range(1, n):
        u, w = vertices[i], rng.choice(vertices[:i])
        arrows.add((u, w) if rng.random() < 0.5 else (w, u))
    target = int(1.7 * n)
    while len(arrows) < target:
        u, w = rng.sample(vertices, 2)
        arrows.add((u, w))
    return Graph(vertices, sorted(arrows), vertices[0], "random")


# ------------------------------------------------------------------ walks

def random_walk(g: Graph, start, length, rng, stationary=0.1, backtrack=0.15):
    """Walk with stationary steps and immediate backtracks."""
    host = g.host
    V, O = [start], []
    last = None
    for _ in range(length):
        v = V[-1]
        x = rng.random()
        if x < stationary:
            V.append(v)
            O.append(FORWARD)
            continue
        if x < stationary + backtrack and last is not None:
            w, o = last
        else:
            w, o = rng.choice(host.nbrs[v])
        V.append(w)
        O.append(o)
        last = (v, BACKWARD if o == FORWARD else FORWARD)
    return tuple(V), tuple(O)


def _route(g: Graph, source, target, avoid=()):
    """Shortest walk source -> target as (vertices, orientations), using
    no arrow in `avoid`."""
    prev = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w, o in g.host.nbrs[v]:
            if ((v, w) if o == FORWARD else (w, v)) in avoid:
                continue
            if w not in prev:
                prev[w] = (v, o)
                queue.append(w)
    V, O = [target], []
    while prev[V[-1]] is not None:
        v, o = prev[V[-1]]
        V.append(v)
        O.append(o)
    return tuple(V[::-1]), tuple(O[::-1])


def concat(p, q):
    require(p[0][-1] == q[0][0], "walks do not meet")
    return p[0] + q[0][1:], p[1] + q[1]


def inverse(p):
    V, O = p
    flip = tuple(FORWARD if V[i] == V[i + 1] else (BACKWARD if o == FORWARD else FORWARD)
                 for i, o in enumerate(O))
    return V[::-1], flip[::-1]


def random_loop(g: Graph, length, rng, stationary, backtrack):
    """Walk out from the base, then the shortest way back."""
    out = random_walk(g, g.base, length, rng, stationary, backtrack)
    return concat(out, _route(g, out[0][-1], g.base))


def random_moves(g: Graph, start, k, rng):
    """Apply k standard moves, never back to a loop already visited, kind
    first so that pattern moves are not drowned by the many trivial-step
    insertions; a walk that runs out of new loops starts again.  Returns
    the end loop and the longest loop on the way."""
    while True:
        loop, longest, seen = start, len(start[1]), {start}
        for _ in range(k):
            options = [m for m in oracle.standard_moves(g.host, loop) if m[5] not in seen]
            if not options:
                break
            kind = rng.choice(sorted({m[0] for m in options}))
            loop = rng.choice([m for m in options if m[0] == kind])[5]
            seen.add(loop)
            longest = max(longest, len(loop[1]))
        else:
            return loop, longest


def _loop_of_length(g: Graph, steps, rng):
    """A loop at the base with `steps` or `steps + 1` steps and none of them
    stationary: a walk out, the shortest way back, then backtracks at the
    base to make up the length."""
    loop = random_loop(g, steps // 2, rng, 0.0, 0.0)
    while len(loop[1]) < steps:
        w, o = rng.choice(g.host.nbrs[g.base])
        loop = (loop[0] + (w, g.base), loop[1] + (o, BACKWARD if o == FORWARD else FORWARD))
    return loop


def _with_stationary(path, count, rng):
    """The path with `count` stationary steps inserted at random vertices."""
    V, O = path
    for _ in range(count):
        i = rng.randrange(len(V))
        V, O = V[:i + 1] + V[i:], O[:i] + (FORWARD,) + O[i:]
    return V, O


# --------------------------------------------------------------- elements

def random_element(g: Graph, rng, degrees) -> dict:
    """One random word of each given degree, with small rational
    coefficients; fixed degrees keep the size of products fixed."""
    out = {}
    for d in degrees:
        w = tuple(rng.choice(g.arrows) for _ in range(d))
        out[w] = out.get(w, 0) + Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return {w: c for w, c in out.items() if c}


def random_form(g: Graph, rng) -> dict:
    """Small rationals on about half the arrows."""
    return {a: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for a in g.arrows if rng.random() < 0.5}


# ------------------------------------------------------------- schedules

def _signature_round(rng, smoke):
    """Per random digraph (6-10 vertices), one operation of each kind.
    Paths are 30-60 steps long with stationary steps and backtracks; pair
    and coproduct take shuffle products of low-degree elements."""
    ops = []
    cases = 3 if smoke else 10
    for c in range(cases):
        n = 6 + c % 5
        length = 30 + (30 * c) // max(1, cases - 1)
        g = random_digraph(n, rng)
        path = random_walk(g, rng.choice(g.vertices), length, rng)
        a, b = random_element(g, rng, (1, 2, 3)), random_element(g, rng, (1, 2, 3))
        product = oracle.shuffle(a, b)
        ops.append(Op("pair", g, [("--element", "element", product), ("--path", "path", path)],
                      [], {"element": product, "path": path}))
        word = [random_form(g, rng) for _ in range(4 + c % 3)]
        ops.append(Op("integrate", g, [("--path", "path", path), ("--word", "word", word)],
                      [], {"word": word, "path": path}))
        ops.append(Op("shuffle", g, [("--element-a", "element", a), ("--element-b", "element", b)],
                      [], {"a": a, "b": b, "probes": [random_walk(g, g.base, 12, rng)
                                                      for _ in range(2)]}))
        u = oracle.shuffle(random_element(g, rng, (1, 2)), random_element(g, rng, (1, 2)))
        p = random_walk(g, g.base, 10, rng)
        q = random_walk(g, p[0][-1], 10, rng)
        ops.append(Op("coproduct", g, [("--element", "element", u)], [],
                      {"element": u, "split": (p, q)}))
        # order to degree 3, on a graph of its own with 6 vertices and a
        # path of 45 steps, so that all order operations cost about the
        # same: a walk (order 1 as a rule), a commutator of two loops
        # (order >= 2), or a walk followed by its inverse (no order up to
        # the bound)
        g = random_digraph(6, rng)
        steps = 45
        shape = c % 3
        if shape == 0:
            opath = random_walk(g, g.base, steps, rng, 0.0)
        elif shape == 1:
            loop1, loop2 = (_loop_of_length(g, steps // 4, rng) for _ in range(2))
            opath = concat(concat(concat(loop1, loop2), inverse(loop1)), inverse(loop2))
        else:
            half = random_walk(g, g.base, steps // 2, rng, 0.0)
            opath = concat(half, inverse(half))
        opath = _with_stationary(opath, steps // 10, rng)
        ops.append(Op("order", g, [("--path", "path", opath)], ["--max-degree", "3"],
                      {"path": opath, "degree": 3}))
    return ops


# (family, size, degree, length bound); degree 3 is left out: at this
# commit one degree-3 query takes 4-77 s, longer than a whole round.
PI1_SCHEDULE = [
    ("triangle", (), 2, 4), ("triangle", (), 1, 6), ("triangle", (), 2, 5),
    ("cone", (3,), 1, 4), ("cone", (4,), 1, 4), ("cone", (5,), 1, 4),
    ("grid", (2, 3), 1, 4), ("grid", (2, 3), 1, 6), ("grid", (3, 3), 1, 4),
    ("grid", (2, 4), 1, 4),
    ("cycle", (3,), 1, 6), ("cycle", (3,), 2, 4), ("cycle", (3,), 2, 6),
    ("cycle", (4,), 1, 4), ("cycle", (4,), 1, 6), ("cycle", (5,), 1, 6), ("cycle", (5,), 2, 4),
    ("cycle", (6,), 1, 6),
    ("wedge", (3, 3), 1, 4), ("wedge", (3, 3), 1, 6), ("wedge", (3, 4), 1, 5),
    ("theta", (3,), 1, 4), ("theta", (3,), 1, 6),
]


def _pi1_round(rng, smoke):
    schedule = PI1_SCHEDULE[::6] if smoke else PI1_SCHEDULE
    ops = []
    for name, size, degree, bound in schedule:
        g = family(name, size, rng)
        sample = [random_loop(g, rng.randint(1, bound - 1), rng, 0.1, 0.1)
                  for _ in range(16)]
        sample = [p for p in sample if len(p[1]) <= bound]
        ops.append(Op("pi1", g, [], ["--degree", str(degree), "--length-bound", str(bound)],
                      {"degree": degree, "bound": bound, "sample": sample}))
    return ops


# (family, size, moves apart, length of the first loop, copies per round);
# moves None means a pair of different winding.  The schedule is shaped
# for steady quantiles: certified-no pairs on cycles, wedges and cylinders
# (about 1 ref each) are two thirds of a round, so the median lies well
# inside them, and the 16 pairs on the 24-arrow grid and torus are the
# heaviest sixth, so the 90th percentile lies among them.
HOMOTOPY_SCHEDULE = [
    ("grid", (3, 3), 3, 6, 2), ("grid", (3, 4), 4, 6, 2), ("cylinder", (4, 1), 4, 6, 2),
    ("cylinder", (3, 2), 3, 8, 2), ("torus", (3, 3), 3, 6, 2),
    ("grid", (4, 4), 3, 8, 4), ("grid", (4, 4), 4, 6, 4),
    ("torus", (3, 4), 4, 4, 4), ("torus", (3, 4), 3, 6, 4),
    ("cycle", (4,), None, 0, 8), ("cycle", (5,), None, 0, 8), ("cycle", (6,), None, 0, 8),
    ("wedge", (3, 3), None, 0, 8), ("wedge", (4, 4), None, 0, 8),
    ("wedge", (3, 5), None, 0, 8), ("cylinder", (4, 1), None, 0, 6),
    ("cylinder", (3, 2), None, 0, 6), ("torus", (3, 3), None, 0, 3),
    ("torus", (3, 4), None, 0, 3),
]


def _winding_loop(g: Graph, turns):
    """A loop that crosses the cochain's arrows `turns` times on balance:
    out to the tail of a weighted arrow, across it, back, repeated."""
    arrow = next(iter(g.cochain))
    go = _route(g, g.base, arrow[0], g.cochain)
    across = ((arrow[0], arrow[1]), (FORWARD,))
    back = _route(g, arrow[1], g.base, g.cochain)
    once = concat(concat(go, across), back)
    loop = ((g.base,), ())
    for _ in range(abs(turns)):
        loop = concat(loop, once if turns > 0 else inverse(once))
    return loop


def _homotopy_round(rng, smoke):
    schedule = [entry[:4] for entry in HOMOTOPY_SCHEDULE[::4]] if smoke else \
        [entry[:4] for entry in HOMOTOPY_SCHEDULE for _ in range(entry[4])]
    ops = []
    for name, size, k, length in schedule:
        g = family(name, size, rng)
        if k is None:
            # different winding: at least one of the loops is tangled by
            # two standard moves, which do not change the winding
            ta, tb = rng.sample([-1, 0, 1, 2], 2)
            a, _ = random_moves(g, _winding_loop(g, ta), 2, rng)
            b = _winding_loop(g, tb)
            expect = {"answer": "certified-no"}
            bounds = (len(a[1]) + len(b[1]) + 4, 4)
        else:
            a = _loop_of_length(g, length, rng)
            b, longest = random_moves(g, a, k, rng)
            expect = {"answer": "yes"}
            bounds = (longest, k)
        expect.update(a=a, b=b)
        ops.append(Op("homotopy", g, [("--loop-a", "path", a), ("--loop-b", "path", b)],
                      ["--length-bound", str(bounds[0]), "--depth-bound", str(bounds[1])],
                      expect))
    return ops


def build_round(workload: str, seed: int, smoke: bool = False) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return {"signature": _signature_round, "pi1": _pi1_round,
            "homotopy": _homotopy_round}[workload](rng, smoke)


# -------------------------------------------------------------- documents

def _label(prefix, arrow):
    return f"{prefix}{arrow[0]}->{prefix}{arrow[1]}"


def document(prefix, kind, payload):
    if kind == "path":
        return {"vertices": [prefix + v for v in payload[0]],
                "orientations": list(payload[1])}
    if kind == "element":
        return {"element": {",".join(_label(prefix, a) for a in w): str(c)
                            for w, c in payload.items()}}
    if kind == "word":
        return {"word": [{"form": {_label(prefix, a): str(c) for a, c in form.items()}}
                         for form in payload]}
    raise ValueError(kind)


def write_round(ops, workdir: Path, round_no: int) -> list:
    """Write every document of one round; returns (prefix, argv) per op."""
    out = []
    for i, op in enumerate(ops):
        prefix = f"r{round_no}o{i}_"
        g = op.graph
        files = {"graph": {"vertices": [prefix + v for v in g.vertices],
                           "arrows": [[prefix + u, prefix + w] for u, w in g.arrows],
                           "base": prefix + g.base}}
        argv = [op.kind, "--format", "json"]
        for flag, kind, payload in op.docs:
            files[flag.strip("-")] = document(prefix, kind, payload)
        for stem, doc in files.items():
            name = workdir / f"{prefix}{stem}.json"
            name.write_text(json.dumps(doc))
            argv += [f"--{stem}", str(name)]
        out.append((prefix, argv + op.flags))
    return out


# ----------------------------------------------------------------- checks

def _arrow(label):
    u, _, w = label.partition("->")
    return (u, w)


def _word(label):
    return tuple(_arrow(part) for part in label.split(",")) if label else ()


def _element(d):
    return {_word(k): Fraction(v) for k, v in d.items()}


def check(op: Op, result: dict) -> None:
    """Raise CheckFailed unless `result` (the JSON the CLI printed, vertex
    prefixes removed) is the right answer for `op`."""
    steps = oracle.signed_steps
    e = op.expect
    if op.kind == "pair":
        want = oracle.pair_element(e["element"], steps(e["path"]))
        require(Fraction(result["value"]) == want, f"pair: {result['value']} != {want}")
    elif op.kind == "integrate":
        want = oracle.word_value(steps(e["path"]), e["word"])
        require(Fraction(result["value"]) == want, f"integrate: {result['value']} != {want}")
    elif op.kind == "order":
        want = oracle.path_order(steps(e["path"]), e["degree"])
        require(result.get("order") == want, f"order: {result.get('order')} != {want}")
        if want is None:
            require(result.get("lower_bound") == e["degree"] + 1, "order: wrong lower bound")
    elif op.kind == "shuffle":
        got = _element(result["element"])
        require(sum(got.values(), Fraction(0)) == oracle.shuffle_mass(e["a"], e["b"]),
                "shuffle: coefficient sum differs from the interleaving count")
        for p in e["probes"]:
            s = steps(p)
            want = oracle.pair_element(e["a"], s) * oracle.pair_element(e["b"], s)
            require(oracle.pair_element(got, s) == want,
                    "shuffle: pairing is not multiplicative on a probe path")
    elif op.kind == "coproduct":
        got = {}
        for key, v in result["tensor"].items():
            left, _, right = key.partition("|")
            got[_word(left), _word(right)] = Fraction(v)
        u = e["element"]
        require(sum(got.values(), Fraction(0))
                == sum((c * (len(w) + 1) for w, c in u.items()), Fraction(0)),
                "coproduct: coefficient sum differs from the number of cuts")
        p, q = e["split"]
        sp, sq = steps(p), steps(q)
        lhs = sum((c * oracle.pair_element({a: 1}, sp) * oracle.pair_element({b: 1}, sq)
                   for (a, b), c in got.items()), Fraction(0))
        require(lhs == oracle.pair_element(u, sp + sq),
                "coproduct: not dual to concatenation (Chen's identity)")
    elif op.kind == "homotopy":
        _check_homotopy(op, result)
    elif op.kind == "pi1":
        _check_pi1(op, result)
    else:
        raise CheckFailed(f"no check for {op.kind}")


def _as_path(d):
    return tuple(d["vertices"]), tuple(d["orientations"])


def _check_homotopy(op: Op, result: dict) -> None:
    e, g = op.expect, op.graph
    status = result["status"]
    require(status == e["answer"], f"homotopy: answered {status}, built as {e['answer']}")
    if status == "yes":
        cert = result["certificate"]
        require(_as_path(cert["start"]) == e["a"], "certificate starts elsewhere")
        require(_as_path(cert["end"]) == e["b"], "certificate ends elsewhere")
        oracle.check_certificate(g.host, e["a"], cert["moves"], e["b"])
    else:
        wa, wb = (oracle.winding(g.cochain, p) for p in (e["a"], e["b"]))
        require(wa != wb, "certified-no on loops of equal winding")
        inv = _element(result["invariant"]["element"])
        values = [Fraction(v) for v in result["values"]]
        mine = [oracle.pair_element(inv, oracle.signed_steps(p)) for p in (e["a"], e["b"])]
        require(values == mine, f"invariant values {values} != {mine}")
        require(values[0] != values[1], "certified-no with equal invariant values")


def _check_pi1(op: Op, result: dict) -> None:
    e, g = op.expect, op.graph
    degree, bound = e["degree"], e["bound"]
    kernel = [_element(k) for k in result["invariant_kernel"]]
    candidates = [_element(c["element"]) for c in result["candidates"]]
    for elem in kernel + candidates:
        require(bool(elem) and all(1 <= len(w) <= degree for w in elem),
                "pi1: empty element or word outside degrees 1..d")
    cache = {}

    def value(elem, path):
        if path not in cache:
            cache[path] = oracle.signature(oracle.signed_steps(path), degree)
        sig = cache[path]
        return sum((c * sig.get(w, 0) for w, c in elem.items()), Fraction(0))

    for loop in e["sample"]:
        for move in oracle.standard_moves(g.host, loop):
            for elem in kernel + candidates:
                require(value(elem, loop) == value(elem, move[5]),
                        f"pi1: kernel element changes under {move[0]}/{move[1]}")
    if g.family in ("triangle", "cone", "grid"):
        require(not candidates, "pi1: candidates on a contractible graph")
    if g.family == "cycle" and 2 * (bound // len(g.vertices)) >= degree:
        require(len(candidates) == degree,
                f"pi1: {len(candidates)} candidates on a cycle, expected {degree}")
