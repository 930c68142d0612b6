"""JSON (and DOT-subset) readers and writers for every value the command
line tool consumes or emits.  All rationals travel as strings like "3/2";
all emitted structures re-parse to equal values."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .algebra import AlgebraElement, TensorPair
from .errors import FormError, GraphError, PathError, PathintError
from .forms import OneForm, TwoChain
from .graphs import Arrow, BasedDigraph, Digraph, validate_digraph
from .paths import PathMap, make_path


def format_rational(x) -> str:
    """x as "p/q" (or "p"); a numerator or denominator with more digits
    than the interpreter's int-to-str limit is a one-line PathintError."""
    try:
        return str(Fraction(x))
    except ValueError as exc:
        raise PathintError(f"cannot print a rational: {exc}") from exc


# the exponent of a decimal in exponent notation, as `Fraction` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(s: str) -> Fraction:
    """The rational that s spells.  An exponent larger in magnitude than the
    int-to-str digit limit is refused before `Fraction` expands 10**exp:
    the value it gives could not be printed, and a few bytes of input would
    build an int of any size."""
    text = str(s).strip()
    exp = ("e" in text or "E" in text) and _EXPONENT.search(text)
    if exp:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        try:
            huge = abs(int(exp.group(1))) > limit
        except ValueError:  # the exponent alone has more digits than the limit
            huge = True
        if huge:
            raise FormError(f"exponent of {s!r} exceeds {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormError(f"not a rational: {s!r}") from exc


# ---------------------------------------------------------------- digraphs

def digraph_to_dict(g: Digraph) -> dict:
    out = {"vertices": list(g.vertices),
           "arrows": [list(a) for a in g.arrows]}
    if isinstance(g, BasedDigraph):
        out["base"] = g.base
    return out


def _vertex_name(v, what: str, error: type):
    """v, if it can name a vertex: a string that arrow labels ("u->v"),
    word and 2-chain labels ("a,b") and tensor keys ("left|right") can hold
    unambiguously; otherwise `error` with a one-line diagnostic."""
    if not isinstance(v, str):
        raise error(f"{what} {v!r} is not a string")
    for sep in ("->", ",", "|"):
        if sep in v:
            raise error(f'{what} {v!r} contains "{sep}"')
    return v


def _field(d, key: str, kind: type, what: str, error: type):
    """d[key], after checking that d is a JSON object holding key and that
    its value is a `kind` (list or dict); any other shape raises `error`."""
    if not isinstance(d, dict):
        raise error(f"{what} JSON is not an object")
    if key not in d:
        raise error(f'{what} JSON needs "{key}"')
    value = d[key]
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise error(f'{what} JSON "{key}" is not {noun}')
    return value


def digraph_from_dict(d: dict) -> Digraph:
    if not isinstance(d, dict):
        raise GraphError("digraph JSON is not an object")
    if "vertices" not in d or "arrows" not in d:
        raise GraphError('digraph JSON needs "vertices" and "arrows"')
    for key in ("vertices", "arrows"):
        if not isinstance(d[key], (list, tuple)):
            raise GraphError(f'digraph JSON "{key}" is not a list')
    vertices = [_vertex_name(v, "vertex", GraphError) for v in d["vertices"]]
    arrows = []
    for a in d["arrows"]:
        if not (isinstance(a, (list, tuple)) and len(a) == 2):
            raise GraphError(f"arrow {a!r} is not a [source, target] pair")
        arrows.append(tuple(_vertex_name(v, "arrow endpoint", GraphError)
                            for v in a))
    base = d.get("base")
    if base is not None:
        _vertex_name(base, "base", GraphError)
    return validate_digraph(vertices, arrows, base)


def parse_dot(text: str) -> Digraph:
    """Minimal DOT reader: directed edges only, no attributes.  Vertices
    appear in first-mention order; chained edges a -> b -> c are allowed."""
    body = re.sub(r'//[^\n]*|#[^\n]*', ' ', text)
    body = re.sub(r'/\*.*?\*/', ' ', body, flags=re.S)
    if '[' in body or '=' in body:
        raise GraphError("DOT attributes are not supported")
    brace_open = body.find('{')
    brace_close = body.rfind('}')
    if brace_open < 0 or brace_close < brace_open:
        raise GraphError("not a DOT digraph: missing braces")
    head = body[:brace_open]
    if 'digraph' not in head:
        raise GraphError("only directed DOT graphs are supported")
    vertices: list = []
    seen = set()
    arrows: list[tuple] = []

    def note(v: str):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for statement in re.split(r'[;\n]', body[brace_open + 1:brace_close]):
        statement = statement.strip()
        if not statement:
            continue
        names = [m.group(1) or m.group(2)
                 for m in re.finditer(r'"([^"]+)"|([A-Za-z0-9_.]+)', statement)]
        chain = [t for t in re.split(r'\s*->\s*', statement) if t.strip()]
        if len(chain) != len(names):
            raise GraphError(f"unsupported DOT statement: {statement!r}")
        for v in names:
            note(_vertex_name(v, "vertex", GraphError))
        for u, v in zip(names, names[1:]):
            if (u, v) not in arrows:
                arrows.append((u, v))
    return validate_digraph(vertices, arrows)


def parse_digraph(text: str) -> Digraph:
    """Auto-detect JSON or DOT input."""
    stripped = text.lstrip()
    if stripped.startswith("{") and "digraph" not in stripped[:60].lower().split("{")[0]:
        try:
            return digraph_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise GraphError(f"malformed digraph JSON: {exc}") from exc
    return parse_dot(text)


# ------------------------------------------------------------------- paths

def path_to_dict(p: PathMap) -> dict:
    return {"vertices": list(p.vertices), "orientations": list(p.orientations)}


def path_from_dict(g: Digraph, d: dict) -> PathMap:
    vertices = _field(d, "vertices", list, "path", PathError)
    for v in vertices:
        _vertex_name(v, "vertex", PathError)
    orientations = d.get("orientations")
    if orientations is None:
        orientations = []
        for u, v in zip(vertices, vertices[1:]):
            if u == v or g.has_arrow(u, v):
                orientations.append("f")
            elif g.has_arrow(v, u):
                orientations.append("b")
            else:
                raise PathError(f"no arrow between {u!r} and {v!r}")
    elif not isinstance(orientations, list):
        raise PathError('path JSON "orientations" is not a list')
    return make_path(g, vertices, orientations)


# ------------------------------------------------------------------- forms

def arrow_label(a: Arrow) -> str:
    return f"{a[0]}->{a[1]}"


def parse_arrow_label(g: Digraph, label: str) -> Arrow:
    if "->" not in label:
        raise FormError(f"arrow label {label!r} is not of the form src->dst")
    u, _, v = label.partition("->")
    arrow = (u, v)
    if arrow not in g.arrow_set:
        raise FormError(f"unknown arrow {label!r}")
    return arrow


def one_form_to_dict(omega: OneForm) -> dict:
    return {"form": {arrow_label(a): format_rational(v)
                     for a, v in omega.coeffs.items()}}


def one_form_from_dict(g: Digraph, d: dict) -> OneForm:
    values = _field(d, "form", dict, "1-form", FormError)
    return OneForm(g, {parse_arrow_label(g, k): parse_rational(v)
                       for k, v in values.items()})


def word_to_dict(word) -> dict:
    return {"word": [one_form_to_dict(w) for w in word]}


def word_from_dict(g: Digraph, d: dict) -> list[OneForm]:
    return [one_form_from_dict(g, item)
            for item in _field(d, "word", list, "word", FormError)]


def two_chain_to_dict(chain: TwoChain) -> dict:
    return {"chain": {",".join(p): format_rational(c)
                      for p, c in chain.coeffs.items()}}


def two_chain_from_dict(g: Digraph, d: dict) -> TwoChain:
    coeffs = _field(d, "chain", dict, "2-chain", FormError)
    return TwoChain(g, {tuple(k.split(",")): parse_rational(v)
                        for k, v in coeffs.items()})


# ---------------------------------------------------------------- elements

def word_label(word) -> str:
    return ",".join(arrow_label(a) for a in word)


def parse_word_label(g: Digraph, label: str) -> tuple:
    if not label:
        return ()
    return tuple(parse_arrow_label(g, part) for part in label.split(","))


def element_to_dict(u: AlgebraElement) -> dict:
    return {"element": {word_label(w): format_rational(c)
                        for w, c in u.coeffs.items()}}


def element_from_dict(g: Digraph, d: dict) -> AlgebraElement:
    """The element of an element document.  Each label and coefficient is
    parsed once, and `parse_word_label` checks every arrow, so the element
    is built unchecked.  Distinct labels name distinct words (a parsed word
    gives back its label), so no two keys are summed; zero coefficients are
    dropped."""
    coeffs = {}
    for k, v in _field(d, "element", dict, "element", FormError).items():
        word, c = parse_word_label(g, k), parse_rational(v)
        if c:
            coeffs[word] = c
    return AlgebraElement._unchecked(g, coeffs)


def tensor_to_dict(t: TensorPair) -> dict:
    return {"tensor": {f"{word_label(a)}|{word_label(b)}": format_rational(c)
                       for (a, b), c in t.coeffs.items()}}


def tensor_from_dict(g: Digraph, d: dict) -> TensorPair:
    """The tensor of a tensor document, built unchecked as an element is:
    `parse_word_label` checks every arrow of both words, and distinct keys
    name distinct word pairs; zero coefficients are dropped."""
    coeffs = {}
    for key, v in _field(d, "tensor", dict, "tensor", FormError).items():
        left, sep, right = key.partition("|")
        if not sep:
            raise FormError(f"tensor key {key!r} is not of the form left|right")
        c = parse_rational(v)
        pair = (parse_word_label(g, left), parse_word_label(g, right))
        if c:
            coeffs[pair] = c
    return TensorPair._unchecked(g, coeffs)


def canonical_dumps(obj) -> str:
    """Byte-deterministic JSON used by the command line tool."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
