"""JSON (and DOT-subset) readers and writers for every value the command
line tool consumes or emits.  All rationals travel as strings like "3/2";
all emitted structures re-parse to equal values.  The command line tool's
JSON is written by one direct writer, `canonical_dumps`, whose bytes are
those of `json.dumps(obj, sort_keys=True, indent=2, default=_json_default)`
and a newline; `json.dumps` itself is kept only as its oracle in the tests,
since with `indent` set it encodes in pure Python."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import AlgebraElement, TensorPair
from .errors import FormError, GraphError, PathError, PathintError
from .forms import OneForm, TwoChain
from .graphs import Arrow, BasedDigraph, Digraph, validate_digraph
from .paths import PathMap, make_path


def format_rational(x) -> str:
    """x as "p/q" (or "p"); a numerator or denominator with more digits
    than the interpreter's int-to-str limit is a one-line PathintError."""
    try:
        return str(x if type(x) is Fraction else Fraction(x))
    except ValueError as exc:
        raise PathintError(f"cannot print a rational: {exc}") from exc


# the exponent of a decimal in exponent notation, as `Fraction` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(s: str) -> Fraction:
    """The rational that s spells.  The spellings "p" and "p/q" (p with an
    optional "-", each part decimal digits) are read through `int`; any
    other goes to `Fraction`, which reads these alike.  An exponent larger
    in magnitude than the int-to-str digit limit is refused before
    `Fraction` expands 10**exp: the value it gives could not be printed,
    and a few bytes of input would build an int of any size."""
    text = str(s).strip()
    num, slash, den = text.partition("/")
    plain = (num[1:] if num[:1] == "-" else num).isdecimal() and (
        not slash or den.isdecimal())
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
        return Fraction(int(num), int(den) if slash else 1) if plain else Fraction(text)
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
    its value is a `kind` (dict for an object, else a list); any other
    shape raises `error`."""
    if not isinstance(d, dict):
        raise error(f"{what} JSON is not an object")
    if key not in d:
        raise error(f'{what} JSON needs "{key}"')
    value = d[key]
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise error(f'{what} JSON "{key}" is not {noun}')
    return value


def _loads(text: str, error: type, what: str):
    """The JSON value that text spells; text that is not JSON, or that
    nests or spells a number too deep or too long to read, raises one
    `error` line "malformed <what>: ..."."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def digraph_from_dict(d: dict) -> Digraph:
    raw_vertices, raw_arrows = (_field(d, key, (list, tuple), "digraph", GraphError)
                                for key in ("vertices", "arrows"))
    vertices = [_vertex_name(v, "vertex", GraphError) for v in raw_vertices]
    names = set(vertices)

    def endpoint(v):  # a vertex name is checked already
        return (v if type(v) is str and v in names
                else _vertex_name(v, "arrow endpoint", GraphError))

    arrows = []
    for a in raw_arrows:
        if not (isinstance(a, (list, tuple)) and len(a) == 2):
            raise GraphError(f"arrow {a!r} is not a [source, target] pair")
        arrows.append((endpoint(a[0]), endpoint(a[1])))
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
    if text.lstrip().startswith("{"):
        return digraph_from_dict(_loads(text, GraphError, "digraph JSON"))
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


def _arrow_labels(g: Digraph) -> dict:
    """label -> arrow for each arrow of g that `label.partition("->")` reads
    back: the arrows that a label names.  An arrow with an endpoint that is
    not a string, or with a source that holds "->", is named by no label."""
    return g.derived("arrow labels", lambda: {
        arrow_label(a): a for a in g.arrows if arrow_label(a).partition("->")[::2] == a})


def _no_arrow(label: str):
    """Raise the FormError for a label that names no arrow."""
    if "->" not in label:
        raise FormError(f"arrow label {label!r} is not of the form src->dst")
    raise FormError(f"unknown arrow {label!r}")


def parse_arrow_label(g: Digraph, label: str) -> Arrow:
    return _arrow_labels(g).get(label) or _no_arrow(label)


def one_form_to_dict(omega: OneForm) -> dict:
    return {"form": {arrow_label(a): format_rational(v)
                     for a, v in omega.coeffs.items()}}


def _terms(d, name: str, what: str, key) -> dict:
    """The nonzero terms of the combination d[name]: each label read by
    `key`, then its coefficient by `parse_rational`, so a label is checked
    even when its coefficient is 0.  `key` returns a checked key, distinct
    for distinct labels, so no terms are summed and each reader builds its
    value unchecked."""
    terms = {}
    for label, v in _field(d, name, dict, what, FormError).items():
        k, c = key(label), parse_rational(v)
        if c:
            terms[k] = c
    return terms


def one_form_from_dict(g: Digraph, d: dict) -> OneForm:
    return OneForm._unchecked(g, _terms(
        d, "form", "1-form", lambda label: parse_arrow_label(g, label)))


def word_to_dict(word) -> dict:
    return {"word": [one_form_to_dict(w) for w in word]}


def word_from_dict(g: Digraph, d: dict) -> list[OneForm]:
    return [one_form_from_dict(g, item)
            for item in _field(d, "word", list, "word", FormError)]


def two_chain_to_dict(chain: TwoChain) -> dict:
    return {"chain": {",".join(p): format_rational(c)
                      for p, c in chain.coeffs.items()}}


def two_chain_from_dict(g: Digraph, d: dict) -> TwoChain:
    return TwoChain._unchecked(g, _terms(
        d, "chain", "2-chain", lambda label: TwoChain._key(g, label.split(","))))


# ---------------------------------------------------------------- elements

def word_label(word) -> str:
    return ",".join([arrow_label(a) for a in word])


def parse_word_label(g: Digraph, label: str) -> tuple:
    if not label:
        return ()
    arrows = _arrow_labels(g)
    return tuple([arrows.get(part) or _no_arrow(part) for part in label.split(",")])


def element_to_dict(u: AlgebraElement) -> dict:
    return {"element": {word_label(w): format_rational(c)
                        for w, c in u.coeffs.items()}}


def element_from_dict(g: Digraph, d: dict) -> AlgebraElement:
    return AlgebraElement._unchecked(g, _terms(
        d, "element", "element", lambda label: parse_word_label(g, label)))


def tensor_to_dict(t: TensorPair) -> dict:
    return {"tensor": {f"{word_label(a)}|{word_label(b)}": format_rational(c)
                       for (a, b), c in t.coeffs.items()}}


def tensor_from_dict(g: Digraph, d: dict) -> TensorPair:
    def key(label):
        left, sep, right = label.partition("|")
        if not sep:
            raise FormError(f"tensor key {label!r} is not of the form left|right")
        return parse_word_label(g, left), parse_word_label(g, right)
    return TensorPair._unchecked(g, _terms(d, "tensor", "tensor", key))


def _json_default(obj):
    """The value `json` cannot write itself: a path as `path_to_dict`
    spells it, anything else as a rational (a TypeError if it is none)."""
    return path_to_dict(obj) if isinstance(obj, PathMap) else format_rational(obj)


def _write(o, nl: str, out) -> None:
    """Pass the JSON text of o to `out`, piece by piece, its inner lines
    starting with nl plus two spaces: `str` (quoted by json's own ASCII
    quoter), `dict` with `str` keys (sorted), `list`, `tuple`, `int`,
    `bool` and None as `json.dumps` writes them.  A float or a subclass of
    these types is a TypeError, so that it is never written as other bytes
    than `json.dumps` writes; any other value is written as the value that
    `_json_default` turns it into."""
    t = type(o)
    if t is str:
        out(_quote(o))
    elif t is dict:
        if not o:
            return out("{}")
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out(f"{sep}{_quote(k)}: ")
            _write(v, inner, out)
            sep = "," + inner
        out(nl + "}")
    elif t is list or t is tuple:
        if not o:
            return out("[]")
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out(sep)
            _write(v, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif t is int:
        out(int.__repr__(o))
    elif t is bool or o is None:
        out("true" if o is True else "false" if o is False else "null")
    elif isinstance(o, (str, int, float, list, tuple, dict)):
        raise TypeError(f"canonical_dumps does not write a {t.__name__}")
    else:
        _write(_json_default(o), nl, out)


def canonical_dumps(obj) -> str:
    """Byte-deterministic JSON used by the command line tool: byte for byte
    `json.dumps(obj, sort_keys=True, indent=2, default=_json_default)` and
    a newline, or a TypeError for a value that it does not write."""
    chunks = []
    _write(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)
