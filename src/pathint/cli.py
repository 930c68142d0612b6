"""Command line interface.  One subcommand per operation cluster; all output
is deterministic, with exact rationals rendered as "p/q" strings."""

from __future__ import annotations

import argparse
import sys

from . import serialization as ser
from .algebra import antipode, coproduct, hopf_axiom_report
from .errors import GraphError, PathintError
from .forms import closed_one_forms, omega2_basis
from .graphs import Digraph, enumerate_patterns
from .homotopy import change_base_point, homotopic_loops, pi1_candidates
from .integrals import iterated_integral, order, pair, volume_number
from .linalg import span_equal
from .paths import elem_equivalent, reduce


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise PathintError(f"{path} is not UTF-8 text: {exc}") from exc


# document flag -> the name of its `serialization` reader, looked up at each
# call (so that a wrapper installed on the module is the one called)
_READERS = {**dict.fromkeys(("path", "path_a", "path_b", "loop_a", "loop_b"),
                            "path_from_dict"),
            **dict.fromkeys(("element", "element_a", "element_b"),
                            "element_from_dict"),
            "word": "word_from_dict"}


def _read_operands(args, flags) -> Digraph | None:
    """The digraph of --graph (None without one), after replacing each
    document flag in `flags` by the value its file holds: the graph is read
    first, then the documents in flag order."""
    g = ser.parse_digraph(_read(args.graph)) if "graph" in flags else None
    for flag in flags:
        if flag in _READERS:
            filename = getattr(args, flag)
            doc = ser._loads(_read(filename), PathintError, f"JSON in {filename}")
            setattr(args, flag, getattr(ser, _READERS[flag])(g, doc))
    return g


def _resolve_base(g: Digraph, explicit):
    base = explicit if explicit is not None else getattr(g, "base", None)
    if base is not None and base not in g.vertex_set:
        raise GraphError(f"base vertex {base!r} is not in the digraph")
    return base


def _value(x):
    """The payload and text of a command whose answer is one number."""
    text = ser.format_rational(x)
    return {"value": text}, text


# ------------------------------------------------------------- subcommands
#
# A handler takes the digraph and the parsed arguments, each document flag
# already holding its value, and returns (payload, text); text None means
# that the text output is the JSON output.  A payload that costs more than
# its text may be returned as a zero-argument callable, called only for the
# JSON output.

def _cmd_validate(g, args):
    triangles = len(enumerate_patterns(g, "triangle"))
    squares = len(enumerate_patterns(g, "square"))
    payload = {"valid": True,
               "vertices": len(g.vertices),
               "arrows": len(g.arrows),
               "base": getattr(g, "base", None),
               "triangles": triangles,
               "squares": squares}
    text = (f"valid: {payload['vertices']} vertices, {payload['arrows']} arrows, "
            f"{triangles} triangle(s), {squares} square(s)")
    return payload, text


def _cmd_integrate(g, args):
    return _value(iterated_integral(args.path, args.word))


def _cmd_pair(g, args):
    return _value(pair(args.element, args.path))


def _cmd_reduce(g, args):
    return ser.path_to_dict(reduce(args.path)), None


def _cmd_equiv(g, args):
    verdict = elem_equivalent(args.path_a, args.path_b)
    return {"equivalent": verdict}, "true" if verdict else "false"


def _cmd_shuffle(g, args):
    return ser.element_to_dict(args.element_a * args.element_b), None


def _cmd_coproduct(g, args):
    return ser.tensor_to_dict(coproduct(args.element)), None


def _cmd_antipode(g, args):
    return ser.element_to_dict(antipode(args.element)), None


def _cmd_hopf_check(g, args):
    report = hopf_axiom_report(g, args.max_degree, base=_resolve_base(g, args.base))
    lines = [f"{name}: {'ok' if entry['passed'] else 'FAIL'}"
             for name, entry in sorted(report["axioms"].items())]
    lines.append("all passed" if report["all_passed"] else "FAILURES FOUND")
    return report, "\n".join(lines)


def _cmd_closed_forms(g, args):
    if args.method == "both":
        bases = {m: closed_one_forms(g, m) for m in ("kernel", "patterns")}
        n = len(g.arrows)
        agree = span_equal([f.vector() for f in bases["kernel"]],
                           [f.vector() for f in bases["patterns"]], n)
        payload = {"method": "both",
                   "bases": {m: [ser.one_form_to_dict(f) for f in fs]
                             for m, fs in bases.items()},
                   "dimensions": {m: len(fs) for m, fs in bases.items()},
                   "agree": agree}
        text = (f"kernel dimension {len(bases['kernel'])}, pattern dimension "
                f"{len(bases['patterns'])}, agree: {'true' if agree else 'false'}")
    else:
        basis = closed_one_forms(g, args.method)
        payload = {"method": args.method,
                   "basis": [ser.one_form_to_dict(f) for f in basis],
                   "dimension": len(basis)}
        text = f"dimension {len(basis)}"
    return payload, text


def _cmd_omega2(g, args):
    basis = omega2_basis(g)
    payload = {"basis": [ser.two_chain_to_dict(c) for c in basis],
               "dimension": len(basis)}
    return payload, f"dimension {len(basis)}"


def _cmd_order(g, args):
    k = order(args.path, args.max_degree)
    if k is None:
        payload = {"order": None, "max_degree": args.max_degree,
                   "lower_bound": args.max_degree + 1}
        text = f">= {args.max_degree + 1}"
    else:
        payload = {"order": k, "max_degree": args.max_degree}
        text = str(k)
    return payload, text


def _move_to_dict(move) -> dict:
    return {"kind": move.kind,
            "direction": move.direction,
            "position": move.position,
            "before": {"vertices": list(move.before[0]),
                       "orientations": list(move.before[1])},
            "after": {"vertices": list(move.after[0]),
                      "orientations": list(move.after[1])}}


def _cmd_homotopy(g, args):
    verdict = homotopic_loops(args.loop_a, args.loop_b,
                              length_bound=args.length_bound,
                              depth_bound=args.depth_bound)
    payload = {"status": verdict.status,
               "length_bound": verdict.length_bound,
               "depth_bound": verdict.depth_bound,
               "certificate": None,
               "invariant": None,
               "values": None}
    if verdict.certificate is not None:
        cert = verdict.certificate
        payload["certificate"] = {"start": ser.path_to_dict(cert.start),
                                  "moves": [_move_to_dict(m) for m in cert.moves],
                                  "end": ser.path_to_dict(cert.end)}
        text = f"homotopic ({len(cert.moves)} move(s))"
    elif verdict.status == "certified-no":
        payload["invariant"] = ser.element_to_dict(verdict.invariant)
        payload["values"] = [ser.format_rational(v) for v in verdict.values]
        text = (f"not homotopic: invariant values "
                f"{payload['values'][0]} vs {payload['values'][1]}")
    else:
        text = "unknown (search bounds exhausted)"
    return payload, text


def _cmd_pi1(g, args):
    base = _resolve_base(g, args.base)
    if base is None:
        raise GraphError("a base vertex is required (use --base or a based digraph)")
    result = pi1_candidates(g, base, args.degree)

    def payload():
        return {"base": base,
                "degree_bound": result.degree_bound,
                "candidates": [{"element": ser.element_to_dict(c)["element"]}
                               for c in result.candidates],
                "invariant_kernel": [ser.element_to_dict(u)["element"]
                                     for u in result.invariant_kernel]}
    text = (f"{len(result.candidates)} candidate(s), "
            f"invariant kernel dimension {result.invariant_kernel_dimension}")
    return payload, text


def _cmd_change_base(g, args):
    return ser.element_to_dict(change_base_point(args.path, args.element)), None


def _cmd_volume(g, args):
    try:
        seq = [int(part) for part in args.seq.split(",") if part.strip()]
    except ValueError as exc:
        raise PathintError(f"malformed index sequence {args.seq!r}") from exc
    return _value(volume_number(seq))


# ------------------------------------------------------------------ parser

def _bounded_int(least: int):
    """An argparse type: an int no smaller than `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


_NON_NEGATIVE = _bounded_int(0)
_POSITIVE = _bounded_int(1)


_FORMAT = {"choices": ("json", "text"), "default": "text",
           "help": "output format (default: text)"}
_GRAPH = {"required": True, "help": "digraph file (JSON or DOT)"}
_PATH = {"required": True, "help": "path JSON file"}
_ELEMENT = {"required": True, "help": "algebra element JSON file"}

# name -> (handler, help, {flag: add_argument keywords}), in help order.
COMMANDS = {
    "validate": (_cmd_validate, "check a digraph file", {"graph": _GRAPH}),
    "integrate": (_cmd_integrate, "iterated integral of a word over a path",
                  {"graph": _GRAPH, "path": _PATH,
                   "word": {"required": True, "help": "word JSON file"}}),
    "pair": (_cmd_pair, "pair an algebra element with a path",
             {"graph": _GRAPH, "element": _ELEMENT, "path": _PATH}),
    "reduce": (_cmd_reduce, "elementary reduction of a path",
               {"graph": _GRAPH, "path": _PATH}),
    "equiv": (_cmd_equiv, "decide elementary equivalence of two paths",
              {"graph": _GRAPH,
               "path_a": {"required": True, "help": "first path JSON file"},
               "path_b": {"required": True, "help": "second path JSON file"}}),
    "shuffle": (_cmd_shuffle, "shuffle product of two elements",
                {"graph": _GRAPH,
                 "element_a": {"required": True, "help": "first element JSON file"},
                 "element_b": {"required": True, "help": "second element JSON file"}}),
    "coproduct": (_cmd_coproduct, "deconcatenation coproduct",
                  {"graph": _GRAPH, "element": _ELEMENT}),
    "antipode": (_cmd_antipode, "signed-reversal antipode",
                 {"graph": _GRAPH, "element": _ELEMENT}),
    "hopf-check": (_cmd_hopf_check, "verify the Hopf axioms up to a degree",
                   {"graph": _GRAPH,
                    "max_degree": {"type": _POSITIVE, "default": 2,
                                   "help": "degree bound (default: 2)"},
                    "base": {"default": None,
                             "help": "base vertex for the dual pairing laws"}}),
    "closed-forms": (_cmd_closed_forms, "basis of closed 1-forms",
                     {"graph": _GRAPH,
                      "method": {"choices": ("kernel", "patterns", "both"),
                                 "default": "kernel",
                                 "help": "construction method (default: kernel)"}}),
    "omega2": (_cmd_omega2, "basis of the 2-chain space", {"graph": _GRAPH}),
    "order": (_cmd_order, "order of a path up to a degree bound",
              {"graph": _GRAPH, "path": _PATH,
               "max_degree": {"type": _POSITIVE, "default": 4,
                              "help": "search bound (default: 4)"}}),
    "homotopy": (_cmd_homotopy, "decide whether two loops are homotopic",
                 {"graph": _GRAPH,
                  "loop_a": {"required": True, "help": "first loop JSON file"},
                  "loop_b": {"required": True, "help": "second loop JSON file"},
                  "length_bound": {"type": _NON_NEGATIVE, "default": 12,
                                   "help": "max intermediate loop length (default: 12)"},
                  "depth_bound": {"type": _NON_NEGATIVE, "default": 8,
                                  "help": "max search depth per side (default: 8)"}}),
    "pi1": (_cmd_pi1, "homotopy-invariant functional candidates",
            {"graph": _GRAPH,
             "base": {"default": None, "help": "base vertex"},
             "degree": {"type": _POSITIVE, "required": True,
                        "help": "word degree bound"},
             "length_bound": {"type": _NON_NEGATIVE, "default": 6,
                              "help": "ignored: candidates are exact"}}),
    "change-base": (_cmd_change_base, "transport a functional along a path",
                    {"graph": _GRAPH, "path": _PATH, "element": _ELEMENT}),
    "volume": (_cmd_volume, "volume number of an index sequence",
               {"seq": {"required": True,
                        "help": "comma-separated indices, e.g. 5,5"}}),
}


def _options(name: str) -> dict:
    """Option string -> (dest, add_argument keywords) of command `name`,
    --format first."""
    return {"--" + flag.replace("_", "-"): (flag, spec)
            for flag, spec in {"format": _FORMAT, **COMMANDS[name][2]}.items()}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="pathint",
        description="Exact iterated path integrals on directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        command = sub.add_parser(name, help=COMMANDS[name][1])
        for option, (_, kwargs) in _options(name).items():
            command.add_argument(option, **kwargs)
    return parser


def _plain(argv: list) -> argparse.Namespace | None:
    """The namespace `build_parser` would make of a plain argv: a command,
    then each of its flags at most once as `--flag value`, no value starting
    with "-", every value of the right type and among its choices, every
    required flag given.  None for any other argv."""
    if not (argv and argv[0] in COMMANDS and len(argv) % 2):
        return None
    options = _options(argv[0])
    given = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        if option not in options or option in given or text.startswith("-"):
            return None
        spec = options[option][1]
        convert = spec.get("type")
        try:
            value = convert(text) if convert else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[option] = value
    values = {}
    for option, (flag, spec) in options.items():
        if option not in given and spec.get("required"):
            return None
        values[flag] = given.get(option, spec.get("default"))
    return argparse.Namespace(command=argv[0], **values)


def _parse(argv: list) -> argparse.Namespace:
    """Parse argv: a plain argv without building a parser, any other with
    the parser of every subcommand, which prints its usage errors."""
    args = _plain(argv)
    return args if args is not None else build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler, _, flags = COMMANDS[args.command]
    try:
        payload, text = handler(_read_operands(args, flags), args)
        as_json = text is None or args.format == "json"
        if as_json and callable(payload):
            payload = payload()
    except (PathintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        sys.stdout.write(ser.canonical_dumps(payload))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
