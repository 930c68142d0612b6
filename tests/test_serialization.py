"""JSON and DOT readers/writers: round trips and error handling."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from pathint import (AlgebraElement, BasedDigraph, Digraph, FormError, GraphError,
                     OneForm, PathError, PathintError, TensorPair, TwoChain,
                     all_words, coproduct, double_edge, make_path, omega2_basis,
                     standard_triangle, word_element)
from pathint import serialization as ser


def test_rational_round_trip():
    for s in ("3/2", "-7", "0", "22/7"):
        assert ser.format_rational(ser.parse_rational(s)) == s
    assert ser.parse_rational("4/6") == Fraction(2, 3)
    with pytest.raises(FormError):
        ser.parse_rational("1/0")
    with pytest.raises(FormError):
        ser.parse_rational("pi")


def test_rationals_too_long_to_print_are_rejected():
    # an exponent past the digit limit is refused before 10**exp is built;
    # a value too long to print fails as one PathintError
    limit = sys.get_int_max_str_digits()
    for s in (f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e" + "9" * (limit + 1)):
        with pytest.raises(FormError, match="exponent"):
            ser.parse_rational(s)
    assert ser.parse_rational(f"1e{limit}") == 10 ** limit
    with pytest.raises(PathintError, match="cannot print"):
        ser.format_rational(Fraction(1, 10 ** limit))


_LONG = "7" * (sys.get_int_max_str_digits() + 1)
# the alphabets of a digit run, ASCII most often: Arabic-Indic digits,
# then "²", "_" and spaces, which `Fraction` reads only in some places
_RUNS = ["0123456789"] * 3 + ["0123456789\u0660\u0663\u0669",
                              "0123456789\u00b2_ ", "long"]
_SIGNS = ["", "", "-", "-", "+", "--", "+-", " -"]
_TAILS = ["", "/d", "/d", "/d", "/", "/-d", "/0", ".d", "ed", "Ed"]


@st.composite
def _rational_spellings(draw):
    """Sign, digits and a tail: nothing, a denominator (of 0, of nothing, of
    a negative number), a decimal part or an exponent, spaces around.  An
    exponent has at most three digits or runs past the digit limit, so the
    exponent guard of `parse_rational` refuses only what `Fraction` does."""
    def run(max_size):
        alphabet = draw(st.sampled_from(_RUNS))
        return _LONG if alphabet == "long" else draw(
            st.text(alphabet, min_size=1, max_size=max_size))

    pad = st.sampled_from(["", " ", "\t"])
    tail = draw(st.sampled_from(_TAILS))
    if tail.endswith("d"):
        exponent = tail[0] in "eE"
        sign = draw(st.sampled_from(_SIGNS)) if exponent else ""
        tail = tail[:-1] + sign + run(3 if exponent else 6)
    return draw(pad) + draw(st.sampled_from(_SIGNS)) + run(6) + tail + draw(pad)


def _the_rational_property():
    """A property: `parse_rational` reads the value `Fraction` reads, through
    the int route for "p" and "p/q" or the Fraction route, and refuses
    alike.  "3/2" is always tried, so a reader that drops a denominator is
    always caught."""
    @given(_rational_spellings())
    @example("3/2")
    def check(text):
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            got = ser.parse_rational(text)
        except FormError:
            got = None
        assert got == expected and type(got) is type(expected), text
    return check


@pytest.mark.wide
def test_parse_rational_reads_what_fraction_reads():
    _the_rational_property()()


def test_the_rational_property_fails_on_a_reader_that_drops_the_denominator(
        monkeypatch):
    # no shrinking: the first failure is enough
    prop = settings(report_multiple_bugs=False,
                    phases=[Phase.explicit, Phase.generate])(_the_rational_property())
    monkeypatch.setattr(ser, "Fraction", lambda n, d=1: Fraction(n))
    with pytest.raises(AssertionError):
        prop()


def test_digraph_json_round_trip():
    T = standard_triangle()
    again = ser.digraph_from_dict(ser.digraph_to_dict(T))
    assert again == T and isinstance(again, BasedDigraph)
    with pytest.raises(GraphError):
        ser.digraph_from_dict({"vertices": ["a"]})


@pytest.mark.parametrize("doc", [["vertices", "arrows"], "vertices", None])
def test_a_digraph_document_that_is_not_an_object_is_a_graph_error(doc):
    with pytest.raises(GraphError, match="^digraph JSON is not an object$"):
        ser.digraph_from_dict(doc)


def test_digraph_dot_parsing():
    g = ser.parse_dot('digraph g { v0 -> v1 -> v2; v0 -> v2; lonely }')
    assert set(g.vertices) == {"v0", "v1", "v2", "lonely"}
    assert g.has_arrow("v0", "v1") and g.has_arrow("v1", "v2")
    assert g.has_arrow("v0", "v2")


def test_digraph_dot_quoted_names_and_comments():
    text = '''// a comment
    digraph { "a b" -> c; # trailing
    /* block */ c -> d }'''
    g = ser.parse_dot(text)
    assert g.has_arrow("a b", "c") and g.has_arrow("c", "d")


def test_dot_rejects_attributes():
    with pytest.raises(GraphError):
        ser.parse_dot('digraph { a -> b [label="x"] }')


def test_parse_digraph_auto_detect():
    json_text = '{"vertices": ["a", "b"], "arrows": [["a", "b"]]}'
    assert ser.parse_digraph(json_text).has_arrow("a", "b")
    assert ser.parse_digraph("digraph { a -> b }").has_arrow("a", "b")


def test_path_round_trip_and_inference():
    D = double_edge()
    p = make_path(D, ["v0", "v1", "v0"], ["f", "b"])
    assert ser.path_from_dict(D, ser.path_to_dict(p)) == p
    inferred = ser.path_from_dict(D, {"vertices": ["v0", "v1", "v0"]})
    assert inferred.orientations == ("f", "f")  # forward preferred
    with pytest.raises(PathError):
        ser.path_from_dict(D, {"orientations": ["f"]})


def test_one_form_round_trip():
    T = standard_triangle()
    omega = OneForm(T, {("v0", "v1"): Fraction(3, 2)})
    d = ser.one_form_to_dict(omega)
    assert d == {"form": {"v0->v1": "3/2"}}
    assert ser.one_form_from_dict(T, d).coeffs == omega.coeffs
    with pytest.raises(FormError):
        ser.one_form_from_dict(T, {"form": {"v0-v1": "1"}})
    with pytest.raises(FormError):
        ser.one_form_from_dict(T, {"form": {"v0->v9": "1"}})


def test_word_round_trip():
    T = standard_triangle()
    word = [OneForm.basis(T, a) for a in T.arrows[:2]]
    d = ser.word_to_dict(word)
    assert [w.coeffs for w in ser.word_from_dict(T, d)] == [w.coeffs for w in word]


def test_element_round_trip():
    D = double_edge()
    u = (word_element(D, (("v0", "v1"), ("v1", "v0")))
         - 2 * word_element(D, ()))
    d = ser.element_to_dict(u)
    assert d["element"][""] == "-2"
    assert d["element"]["v0->v1,v1->v0"] == "1"
    assert ser.element_from_dict(D, d) == u


def test_element_reader_keeps_the_last_duplicate_key_and_drops_zeros():
    # JSON keeps the last value of a key spelled twice, and distinct labels
    # never spell one word, so the reader has nothing to sum
    D = double_edge()
    text = ('{"element": {"v0->v1": "2", "v0->v1": "3/2", "": "0",'
            ' "v1->v0,v0->v1": "0/5", "v1->v0": "-1"}}')
    u = ser.element_from_dict(D, json.loads(text))
    assert u.coeffs == {(("v0", "v1"),): Fraction(3, 2), (("v1", "v0"),): -1}
    assert all(type(c) is Fraction for c in u.coeffs.values())
    assert u == AlgebraElement(D, {(("v0", "v1"),): "3/2", (("v1", "v0"),): -1,
                                   (): 0})
    for w in all_words(D.arrows, 3):
        assert ser.parse_word_label(D, ser.word_label(w)) == w
    # labels are looked up in a table of the arrows whose label reads back
    # as them; any other label names no arrow and is refused
    ints = Digraph([1, 2], [(1, 2)])
    arrowed = Digraph(["a->b", "c"], [("a->b", "c")])
    for g, doc, message in [
            (D, {"element": {"v0->v2": "1"}}, "unknown arrow 'v0->v2'"),
            (D, {"element": {"v0->v1": "x"}}, "not a rational: 'x'"),
            (D, {"element": {"v0": "1"}}, "arrow label 'v0' is not of the form src->dst"),
            (D, {"element": {"v0->v1,v1": "1"}},
             "arrow label 'v1' is not of the form src->dst"),
            (ints, {"element": {"1->2": "1"}}, "unknown arrow '1->2'"),
            (arrowed, {"element": {"a->b->c": "1"}}, "unknown arrow 'a->b->c'")]:
        with pytest.raises(FormError) as info:
            ser.element_from_dict(g, doc)
        assert str(info.value) == message
    # "a->b->c" reads as ("a", "b->c"), the arrow that spells it so, even
    # beside ("a->b", "c"), which spells it too
    both = Digraph(["a->b", "c", "a", "b->c"], [("a->b", "c"), ("a", "b->c")])
    assert ser.parse_arrow_label(both, "a->b->c") == ("a", "b->c")
    assert ser.parse_word_label(both, "a->b->c,a->b->c") == (("a", "b->c"),) * 2


def test_tensor_round_trip():
    D = double_edge()
    t = coproduct(word_element(D, (("v0", "v1"), ("v1", "v0"))))
    d = ser.tensor_to_dict(t)
    assert ser.tensor_from_dict(D, d) == t
    with pytest.raises(FormError):
        ser.tensor_from_dict(D, {"tensor": {"no-separator": "1"}})


def test_two_chain_round_trip():
    D = double_edge()
    for chain in omega2_basis(D):
        d = ser.two_chain_to_dict(chain)
        again = ser.two_chain_from_dict(D, d)
        assert isinstance(again, TwoChain)
        assert again.coeffs == chain.coeffs


@pytest.mark.parametrize("reader, doc, error", [
    (ser.path_from_dict, ["v0"], PathError),
    (ser.path_from_dict, {"vertices": "v0"}, PathError),
    (ser.path_from_dict, {"vertices": [{"v": 0}]}, PathError),
    (ser.path_from_dict, {"vertices": ["v0"], "orientations": {}}, PathError),
    (ser.one_form_from_dict, {"form": 1}, FormError),
    (ser.word_from_dict, {"word": [None]}, FormError),
    (ser.element_from_dict, {"element": "v0->v1"}, FormError),
    (ser.tensor_from_dict, {"tensor": [["v0->v1", "1"]]}, FormError),
    (ser.tensor_from_dict, "tensor", FormError),
    (ser.two_chain_from_dict, {"chain": None}, FormError),
])
def test_readers_reject_documents_of_the_wrong_shape(reader, doc, error):
    with pytest.raises(error):
        reader(double_edge(), doc)


_A = ("v0", "v1")


@pytest.mark.parametrize("reader, name, bad, good, zero, value", [
    (ser.one_form_from_dict, "form", "v0->v2", "v0->v1", "v1->v0",
     OneForm(double_edge(), {_A: 2})),
    (ser.two_chain_from_dict, "chain", "v0,v1,v1", "v0,v1,v0", "v1,v0,v1",
     TwoChain(double_edge(), {("v0", "v1", "v0"): 2})),
    (ser.element_from_dict, "element", "v0->v2", "v0->v1", "",
     AlgebraElement(double_edge(), {(_A,): 2})),
    (ser.tensor_from_dict, "tensor", "v0->v1", "v0->v1|", "|",
     TensorPair(double_edge(), {((_A,), ()): 2})),
])
def test_combination_readers_read_every_label_and_drop_zero_terms(
        reader, name, bad, good, zero, value):
    D = double_edge()
    with pytest.raises(FormError):  # a label is read before its zero is dropped
        reader(D, {name: {bad: "0"}})
    read = reader(D, {name: {good: "4/2", zero: "0"}})
    assert read == value and type(read) is type(value)
    assert all(type(c) is Fraction for c in read.coeffs.values())


@pytest.mark.parametrize("doc, message", [
    ({}, 'digraph JSON needs "vertices"'),
    ({"vertices": ["a"]}, 'digraph JSON needs "arrows"'),
    ({"vertices": "a", "arrows": []}, 'digraph JSON "vertices" is not a list'),
    ({"vertices": ["a"], "arrows": {}}, 'digraph JSON "arrows" is not a list'),
])
def test_digraph_reader_names_the_field_at_fault(doc, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        ser.digraph_from_dict(doc)
    assert ser.digraph_from_dict({"vertices": ("a", "b"), "arrows": (("a", "b"),)}
                                 ) == ser.digraph_from_dict({"vertices": ["a", "b"],
                                                             "arrows": [["a", "b"]]})


@pytest.mark.parametrize("arrows, message", [
    ([["a", "a"], [1, "b"]], "arrow endpoint 1 is not a string"),
    ([["a", "b"], [["b"], "a"]], "arrow endpoint ['b'] is not a string"),
    ([["a", "b"], ["a", {"x": 1}]], "arrow endpoint {'x': 1} is not a string"),
    ([["a", "c"], ["a", "x,y"]], "arrow endpoint 'x,y' contains \",\""),
    ([["a", "x,y"], "ab"], "arrow endpoint 'x,y' contains \",\""),
    ([["a", "b"], "ab"], "arrow 'ab' is not a [source, target] pair"),
    ([["a", "a"], ["a", "c"]], "self-loop at vertex 'a'"),
    ([["a", "c"]], "unknown endpoint 'c' in arrow ('a', 'c')"),
])
def test_digraph_reader_reports_the_first_fault_in_arrow_order(arrows, message):
    # an endpoint is checked as a name, unless it is a vertex name checked
    # already, in arrow order and before the graph's own checks
    with pytest.raises(GraphError) as caught:
        ser.digraph_from_dict({"vertices": ["a", "b"], "arrows": arrows})
    assert str(caught.value) == message


# quotes, backslashes, control characters, non-ASCII letters and symbols,
# a line separator and lone surrogates, mixed with any other character
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9",
                           "\u2028", "\ud800", "\udfff", "\U0001f600"])
_TEXT = st.text(st.characters() | _TRICKY, max_size=6)
_PATHS = [make_path(double_edge(), ["v0", "v1", "v0"], ["f", "b"]),
          make_path(double_edge(), ["v0"], []),
          make_path(Digraph(["\u00e9", "b\"c"], [("\u00e9", "b\"c")]),
                    ["\u00e9", "b\"c"], ["f"])]
# what payloads hold: str, int (past 2**64 and negative too), bool, None, and
# a Fraction or a path, which the hook writes, nested in dicts with str keys,
# lists and tuples, empty ones included
_PAYLOADS = st.recursive(
    _TEXT | st.integers() | st.integers(min_value=2 ** 64) | st.booleans()
    | st.none() | st.fractions() | st.sampled_from(_PATHS),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12)


def _the_writer_property():
    """A property: `canonical_dumps` writes the bytes of `json.dumps` with
    the same hook.  A non-ASCII key is always tried, so a writer that does
    not escape non-ASCII characters is always caught."""
    @given(_PAYLOADS)
    @example({"\u00e9": [], "a": {}})
    def check(obj):
        assert ser.canonical_dumps(obj) == json.dumps(
            obj, sort_keys=True, indent=2, default=ser._json_default) + "\n"
    return check


def test_canonical_dumps_writes_the_bytes_of_json_dumps():
    _the_writer_property()()


def test_the_writer_property_fails_on_a_quoter_that_keeps_non_ascii(monkeypatch):
    prop = settings(report_multiple_bugs=False,
                    phases=[Phase.explicit, Phase.generate])(_the_writer_property())
    monkeypatch.setattr(ser, "_quote", json.encoder.py_encode_basestring)
    with pytest.raises(AssertionError):
        prop()


class _Text(str):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize("obj", [
    1.5, float("nan"), {"a": [2.0]}, {1: "a"}, {"a": 1, 2: "b"}, {None: 1},
    _Text("a"), {"k": _Text("v")}, {_Text("k"): "v"}, [_Int(3)],
    [Fraction(3, 2), [b"x"]]])
def test_canonical_dumps_writes_json_dumps_bytes_or_refuses(obj):
    # values no payload holds: a float, a key that is not a str, a str or
    # int subclass, bytes; each is json.dumps's bytes or a TypeError, never
    # other bytes
    try:
        out = ser.canonical_dumps(obj)
    except TypeError:
        return
    assert out == json.dumps(obj, sort_keys=True, indent=2,
                             default=ser._json_default) + "\n"


def test_canonical_dumps_sorts_keys():
    out = ser.canonical_dumps({"b": 1, "a": 2})
    assert out.index('"a"') < out.index('"b"')
    assert out.endswith("\n")
