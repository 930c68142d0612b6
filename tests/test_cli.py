"""End-to-end command line checks over temp files."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from pathint.cli import COMMANDS, _options, _plain, build_parser, main
from pathint import algebra, serialization as ser
from pathint import (box_product, closed_one_forms, double_edge, directed_cycle,
                     make_path, standard_triangle, wedge_of_cycles)


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(payload if isinstance(payload, str)
                     else json.dumps(payload))
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_text_and_json(files, capsys):
    g = files("t.json", ser.digraph_to_dict(standard_triangle()))
    code, out, _ = run(capsys, "validate", "--graph", g)
    assert code == 0 and "3 vertices" in out and "1 triangle(s)" in out
    code, out, _ = run(capsys, "validate", "--graph", g, "--format", "json")
    assert code == 0
    assert json.loads(out)["triangles"] == 1


def test_validate_rejects_bad_graph(files, capsys):
    g = files("bad.json", {"vertices": ["a"], "arrows": [["a", "a"]]})
    code, _, err = run(capsys, "validate", "--graph", g)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("doc", [
    {"vertices": [[0], [1]], "arrows": []},
    {"vertices": ["a", "b"], "arrows": [["a"]]},
    {"vertices": ["a"], "arrows": 3},
])
def test_validate_rejects_malformed_graph_json(files, capsys, doc):
    g = files("bad.json", doc)
    code, out, err = run(capsys, "validate", "--graph", g)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_integrate_example(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    p = files("loop_ff.json", {"vertices": ["v0", "v1", "v0"],
                               "orientations": ["f", "f"]})
    w = files("w12.json", {"word": [{"form": {"v0->v1": "1"}},
                                    {"form": {"v1->v0": "1"}}]})
    code, out, _ = run(capsys, "integrate", "--graph", g, "--path", p,
                       "--word", w)
    assert code == 0 and out.strip() == "1"


def test_reduce_backtrack_to_trivial(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    p = files("loop_fb.json", {"vertices": ["v0", "v1", "v0"],
                               "orientations": ["f", "b"]})
    code, out, _ = run(capsys, "reduce", "--graph", g, "--path", p,
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"vertices": ["v0"], "orientations": []}


def test_volume_example(capsys):
    code, out, _ = run(capsys, "volume", "--seq", "5,5")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "volume", "--seq", "5,4")
    assert code == 1


def test_equiv(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    a = files("a.json", {"vertices": ["v0", "v1", "v0"],
                         "orientations": ["f", "b"]})
    b = files("b.json", {"vertices": ["v0"], "orientations": []})
    code, out, _ = run(capsys, "equiv", "--graph", g, "--path-a", a,
                       "--path-b", b)
    assert code == 0 and out.strip() == "true"


def test_pair_and_element_io(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    e = files("e.json", {"element": {"v0->v1": "1"}})
    p = files("p.json", {"vertices": ["v0", "v1", "v0"],
                         "orientations": ["f", "f"]})
    code, out, _ = run(capsys, "pair", "--graph", g, "--element", e,
                       "--path", p)
    assert code == 0 and out.strip() == "1"


def test_shuffle_coproduct_antipode_round_trip(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    e1 = files("e1.json", {"element": {"v0->v1": "1"}})
    e2 = files("e2.json", {"element": {"v1->v0": "1"}})
    code, out, _ = run(capsys, "shuffle", "--graph", g, "--element-a", e1,
                       "--element-b", e2, "--format", "json")
    assert code == 0
    assert json.loads(out)["element"] == {"v0->v1,v1->v0": "1",
                                          "v1->v0,v0->v1": "1"}
    both = files("e12.json", json.loads(out))
    code, out, _ = run(capsys, "coproduct", "--graph", g, "--element", both,
                       "--format", "json")
    assert code == 0 and "|" in "".join(json.loads(out)["tensor"])
    code, out, _ = run(capsys, "antipode", "--graph", g, "--element", e1,
                       "--format", "json")
    assert json.loads(out)["element"] == {"v0->v1": "-1"}


def test_hopf_check(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    code, out, _ = run(capsys, "hopf-check", "--graph", g, "--max-degree",
                       "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True


def test_hopf_check_writes_the_loops_of_a_failing_report(files, capsys, monkeypatch):
    # the identity is not an antipode, so the dual antipode law fails on a
    # loop, which the JSON encoder's hook writes as a path document
    g = files("d.json", ser.digraph_to_dict(double_edge()))
    argv = ("hopf-check", "--graph", g, "--format", "json", "--max-degree", "1")
    monkeypatch.setattr(algebra, "antipode", lambda u: u)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is False
    assert report["axioms"]["dual_antipode"]["failures"][0] == {
        "loop": {"orientations": ["f", "f"], "vertices": ["v0", "v1", "v0"]},
        "word": [["v0", "v1"]]}
    # json's own behaviour with no hook: a loop is not JSON
    monkeypatch.setattr(ser, "_json_default", json.JSONEncoder().default)
    with pytest.raises(TypeError, match="LoopMap is not JSON serializable"):
        run(capsys, *argv)


def test_closed_forms_both(files, capsys):
    g = files("t.json", ser.digraph_to_dict(standard_triangle()))
    code, out, _ = run(capsys, "closed-forms", "--graph", g, "--method",
                       "both", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["dimensions"] == {"kernel": 2, "patterns": 2}


def test_omega2(files, capsys):
    g = files("d.json", ser.digraph_to_dict(double_edge()))
    code, out, _ = run(capsys, "omega2", "--graph", g, "--format", "json")
    assert code == 0 and json.loads(out)["dimension"] == 2


def test_order_sentinel(files, capsys):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    p = files("t.json", {"vertices": ["v0"], "orientations": []})
    code, out, _ = run(capsys, "order", "--graph", g, "--path", p,
                       "--max-degree", "3")
    assert code == 0 and out.strip() == ">= 4"


def test_homotopy_yes_and_no(files, capsys):
    T = standard_triangle()
    g = files("t.json", ser.digraph_to_dict(T))
    a = files("a.json", {"vertices": ["v0", "v1", "v2", "v0"],
                         "orientations": ["f", "f", "b"]})
    b = files("b.json", {"vertices": ["v0"], "orientations": []})
    code, out, _ = run(capsys, "homotopy", "--graph", g, "--loop-a", a,
                       "--loop-b", b, "--format", "json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "yes" and verdict["certificate"]["moves"]

    C = directed_cycle(4)
    g = files("c.json", ser.digraph_to_dict(C))
    a = files("gen.json", {"vertices": ["v0", "v1", "v2", "v3", "v0"],
                           "orientations": ["f", "f", "f", "f"]})
    b2 = files("b2.json", {"vertices": ["v0"], "orientations": []})
    code, out, _ = run(capsys, "homotopy", "--graph", g, "--loop-a", a,
                       "--loop-b", b2, "--format", "json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "certified-no"
    assert verdict["values"] == ["4", "0"]


def test_pi1_command(files, capsys):
    g = files("c.json", ser.digraph_to_dict(directed_cycle(4)))
    code, out, _ = run(capsys, "pi1", "--graph", g, "--degree", "1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["candidates"]) == 1
    assert set(report) == {"base", "degree_bound", "candidates", "invariant_kernel"}
    assert set(report["candidates"][0]) == {"element"}
    code, out, _ = run(capsys, "pi1", "--graph", g, "--degree", "1",
                       "--length-bound", "3")
    assert (code, out) == (0, "1 candidate(s), invariant kernel dimension 4\n")


def test_change_base(files, capsys):
    T = standard_triangle()
    g = files("t.json", ser.digraph_to_dict(T))
    gamma = files("gamma.json", {"vertices": ["v0", "v1"],
                                 "orientations": ["f"]})
    e = files("e.json", {"element": {"v1->v2": "1"}})
    code, out, _ = run(capsys, "change-base", "--graph", g, "--path", gamma,
                       "--element", e, "--format", "json")
    assert code == 0
    assert "v1->v2" in json.loads(out)["element"]


@pytest.mark.parametrize("command", ["reduce", "shuffle", "coproduct",
                                     "antipode", "change-base"])
def test_a_payload_is_rendered_once_and_its_text_is_its_json(files, capsys,
                                                             monkeypatch, command):
    g = files("t.json", ser.digraph_to_dict(standard_triangle()))
    p = files("p.json", {"vertices": ["v0", "v1", "v1", "v2", "v1"]})
    e = files("e.json", {"element": {"v0->v1": "1/2", "v0->v1,v1->v2": "-3"}})
    f = files("f.json", {"element": {"v1->v2": "2", "": "1"}})
    operands = {"reduce": ["--path", p],
                "shuffle": ["--element-a", e, "--element-b", f],
                "coproduct": ["--element", e],
                "antipode": ["--element", e],
                "change-base": ["--path", p, "--element", f]}[command]
    argv = [command, "--graph", g, *operands]
    calls = []
    dumps = ser.canonical_dumps
    monkeypatch.setattr(ser, "canonical_dumps",
                        lambda obj: calls.append(obj) or dumps(obj))
    code, json_out, err = run(capsys, *argv, "--format", "json")
    assert (code, err, len(calls)) == (0, "", 1)
    assert json_out == dumps(calls[0])
    assert run(capsys, *argv, "--format", "text") == (0, json_out, "")


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["volume"]) == 2  # missing required --seq


@pytest.mark.parametrize("command, flag, value", [
    ("homotopy", "--length-bound", "-1"),
    ("homotopy", "--depth-bound", "-5"),
    ("pi1", "--length-bound", "-3"),
    ("hopf-check", "--max-degree", "-1"),
    ("order", "--max-degree", "0"),
    ("pi1", "--degree", "0"),
])
def test_out_of_range_bounds_are_usage_errors(files, capsys, command, flag, value):
    g = files("c.json", ser.digraph_to_dict(directed_cycle(4)))
    loop = files("gen.json", {"vertices": ["v0", "v1", "v2", "v3", "v0"]})
    operands = {"homotopy": ["--loop-a", loop, "--loop-b", loop],
                "pi1": ["--degree", "1"], "order": ["--path", loop]}
    argv = [command, "--graph", g, *operands.get(command, []), flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}: must be at least" in errors[0]


def test_hopf_check_has_no_loop_bound(files, capsys):
    # the dual laws run on every loop, so the former length bound is an
    # unknown flag
    g = files("c.json", ser.digraph_to_dict(directed_cycle(4)))
    code, out, err = run(capsys, "hopf-check", "--graph", g, "--loop-bound", "8")
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments: --loop-bound 8" in errors[0]


@pytest.mark.parametrize("command, coefficient", [
    ("pair", "1e5000"),  # an exponent past the int-to-str digit limit
    ("shuffle", "7" * 2500),  # a product of about 5,000 digits
], ids=["pair-exponent", "shuffle-product"])
def test_unprintable_numbers_are_one_line_errors(files, capsys, command, coefficient):
    g = files("d.json", ser.digraph_to_dict(double_edge()))
    e = files("e.json", {"element": {"v0->v1": coefficient}})
    operands = {"pair": ["--element", e, "--path", files("p.json", {"vertices": ["v0", "v1"]})],
                "shuffle": ["--element-a", e, "--element-b", e]}[command]
    for fmt in ("text", "json"):
        code, out, err = run(capsys, command, "--graph", g, *operands, "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def _parse_with_the_full_parser(capsys, argv):
    """Exit code and output of parsing argv with every subcommand built."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out = capsys.readouterr()
    return (int(exc.value.code) if exc.value.code else 0), out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"], ["volume", "--seq", "5,5", "extra"],
    *([name, *rest] for name in COMMANDS
      for rest in (["-h"], [], ["--format", "xml"], ["--bogus"])),
])
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    assert run(capsys, *argv) == _parse_with_the_full_parser(capsys, argv)


def test_an_unknown_command_is_named_in_the_argument_command_error(capsys):
    code, out, err = run(capsys, "nosuch")
    assert code == 2 and out == ""
    assert "error: argument command: invalid choice: 'nosuch'" in err


@pytest.mark.parametrize("argv", [["volume", "--seq", "5,5"], []])
def test_module_entry_point_reads_sys_argv(capsys, argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "pathint.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


@pytest.mark.parametrize("command, operand, doc", [
    ("reduce", "--path", '"vertices"'),  # a JSON string
    ("reduce", "--path", {"vertices": 5}),
    ("reduce", "--path", {"vertices": [["a"]]}),
    ("reduce", "--path", {"vertices": ["v0"], "orientations": 5}),
    ("pair", "--element", {"element": [1, 2]}),
    ("integrate", "--word", {"word": {"form": {}}}),
    ("integrate", "--word", {"word": [{"form": {"v0->v1": 1}}, 3]}),
    ("integrate", "--word", {"word": [{"form": ["v0->v1"]}]}),
])
def test_malformed_documents_are_one_line_errors(files, capsys, command,
                                                 operand, doc):
    g = files("d.json", ser.digraph_to_dict(double_edge()))
    ok = {"--path": files("p.json", {"vertices": ["v0", "v1"]}),
          "--element": files("e.json", {"element": {"v0->v1": "1"}}),
          "--word": files("w.json", {"word": [{"form": {"v0->v1": "1"}}]})}
    ok[operand] = files("bad.json", doc)
    operands = {"reduce": ["--path"], "pair": ["--element", "--path"],
                "integrate": ["--path", "--word"]}[command]
    argv = [command, "--graph", g]
    for flag in operands:
        argv += [flag, ok[flag]]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _deep(depth):
    return "[" * depth + "]" * depth


_TRIANGLE = ser.digraph_to_dict(standard_triangle())


@pytest.mark.parametrize("graph, element", [
    ('{"vertices": ' + _deep(200_000) + "}", None),  # nested too deep
    (None, _deep(200_000)),
    (json.dumps(_TRIANGLE)[:-1] + ', "base": ' + "1" * 5000 + "}", None),
    (None, '{"element": {"v0->v1": ' + "7" * 5000 + "}}"),  # too many digits
    (b"\xff", None),  # not UTF-8
    (None, b"\xff"),
], ids=["deep-graph", "deep-document", "long-base", "long-coefficient",
        "non-utf8-graph", "non-utf8-document"])
def test_unreadable_input_is_a_one_line_error(tmp_path, capsys, graph, element):
    docs = {"graph": graph or json.dumps(_TRIANGLE),
            "element": element or '{"element": {"v0->v1": "1"}}',
            "path": '{"vertices": ["v0", "v1"]}'}
    argv = ["pair"]
    for flag, text in docs.items():
        p = tmp_path / f"{flag}.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv += [f"--{flag}", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["kernel", "patterns", None])
def test_closed_forms_one_method(files, capsys, method):
    T = standard_triangle()
    argv = ["closed-forms", "--graph", files("t.json", _TRIANGLE)]
    argv += ["--method", method] if method else []
    assert run(capsys, *argv) == (0, "dimension 2\n", "")
    report = json.loads(run(capsys, *argv, "--format", "json")[1])
    assert (report["method"], report["dimension"]) == (method or "kernel", 2)
    basis = [ser.one_form_from_dict(T, f) for f in report["basis"]]
    assert basis == closed_one_forms(T, method or "kernel")
    # closed on the one triangle: the two sides sum to the long arrow
    a1, a2, a3 = T.arrows
    assert all(f(a1) + f(a2) == f(a3) for f in basis)


@pytest.mark.parametrize("argv, message", [
    (["pi1", "--degree", "1"], "error: a base vertex is required"),
    (["pi1", "--degree", "1", "--base", "zz"], "error: base vertex 'zz' is not"),
    (["hopf-check", "--base", "zz"], "error: base vertex 'zz' is not"),
])
def test_a_missing_or_unknown_base_is_a_one_line_error(files, capsys, argv, message):
    unbased = {"vertices": ["a", "b"], "arrows": [["a", "b"], ["b", "a"]]}
    code, out, err = run(capsys, *argv, "--graph", files("u.json", unbased))
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_homotopy_unknown_verdict_text(files, capsys):
    # homotopic loops, so no invariant separates them, and no room to search
    g = files("t.json", _TRIANGLE)
    a = files("a.json", {"vertices": ["v0", "v1", "v2", "v0"],
                         "orientations": ["f", "f", "b"]})
    b = files("b.json", {"vertices": ["v0"], "orientations": []})
    argv = ["homotopy", "--graph", g, "--loop-a", a, "--loop-b", b, "--depth-bound", "0"]
    assert run(capsys, *argv) == (0, "unknown (search bounds exhausted)\n", "")
    assert json.loads(run(capsys, *argv, "--format", "json")[1])["status"] == "unknown"


@pytest.mark.parametrize("seq", ["5,x", "1.5", "5,,-"])
def test_malformed_volume_sequence_is_a_one_line_error(capsys, seq):
    assert run(capsys, "volume", "--seq", seq) == (
        1, "", f"error: malformed index sequence {seq!r}\n")


@pytest.mark.parametrize("argv, seq", [
    (["--seq", "0,0"], (0, 0)), (["--seq=-3,-3"], (-3, -3)), (["--seq", "0"], (0,)),
])
def test_volume_refuses_indices_below_one(capsys, argv, seq):
    assert run(capsys, "volume", *argv) == (
        1, "", f"error: index sequence {seq!r} has an entry below 1\n")


def test_missing_file_is_domain_error(capsys):
    code = main(["validate", "--graph", "/nonexistent/g.json"])
    assert code == 1


def test_byte_determinism(files, capsys):
    g = files("t.json", ser.digraph_to_dict(standard_triangle()))
    code, out1, _ = run(capsys, "closed-forms", "--graph", g,
                        "--method", "both", "--format", "json")
    code, out2, _ = run(capsys, "closed-forms", "--graph", g,
                        "--method", "both", "--format", "json")
    assert out1 == out2


def _grid(n):
    """The n x n grid, arrows x_ij -> x_(i+1)j and x_ij -> x_i(j+1)."""
    vs = [f"x{i}{j}" for i in range(n) for j in range(n)]
    arrows = [[f"x{i}{j}", f"x{i + 1}{j}"] for i in range(n - 1) for j in range(n)]
    arrows += [[f"x{i}{j}", f"x{i}{j + 1}"] for i in range(n) for j in range(n - 1)]
    return {"vertices": vs, "arrows": arrows, "base": "x00"}


# graph, path (with backtracks and trivial steps), word of forms, element,
# order path and its --max-degree; the inputs have large, mostly coprime
# denominators, so the exact outputs have many digits
_PINNED_INPUTS = {
    "wedge": (
        ser.digraph_to_dict(wedge_of_cycles()),
        {"vertices": ["v0", "v1", "v2", "v1", "v2", "v3", "v0", "v0", "v4",
                      "v5", "v6", "v0", "v1", "v0", "v3"]},
        {"word": [{"form": {"v0->v1": "123456789/1000003", "v3->v0": "-22/7"}},
                  {"form": {"v2->v3": "355/113", "v0->v4": "-1/65537"}},
                  {"form": {"v5->v6": "7/1048576", "v0->v1": "9/10"}},
                  {"form": {"v6->v0": "-31/999999937", "v1->v2": "2"}}]},
        {"element": {"": "5/7",
                     "v0->v1": "-1/1000003",
                     "v0->v1,v1->v2": "999999937/65537",
                     "v0->v4,v4->v5,v5->v6": "-13/12",
                     "v0->v1,v0->v1,v6->v0,v3->v0": "1/123456791"}},
        {"vertices": ["v0", "v1", "v2", "v3", "v0", "v4", "v5", "v6", "v0",
                      "v3", "v2", "v1", "v0", "v6", "v5", "v4", "v0"]},
        4),
    "double": (
        ser.digraph_to_dict(double_edge()),
        {"vertices": ["v0", "v1", "v0", "v1", "v1", "v0", "v1", "v0", "v1"]},
        {"word": [{"form": {"v0->v1": "1/7", "v1->v0": "-5/9"}},
                  {"form": {"v0->v1": "11/4"}},
                  {"form": {"v1->v0": "1000000007/3"}},
                  {"form": {"v0->v1": "-2/1000000009", "v1->v0": "1/2"}},
                  {"form": {"v0->v1": "3/5", "v1->v0": "3/5"}}]},
        {"element": {"v0->v1,v0->v1,v0->v1": "1/1000000007",
                     "v1->v0,v0->v1": "-7/11",
                     "v0->v1,v1->v0,v0->v1,v1->v0": "4/999999937",
                     "v1->v0": "3"}},
        None,
        3),
    "grid": (
        _grid(3),
        {"vertices": ["x00", "x10", "x11", "x01", "x00", "x01", "x02", "x12",
                      "x12", "x22", "x21", "x22", "x21", "x11", "x10", "x20"]},
        {"word": [{"form": {"x00->x10": "17/1000003", "x10->x11": "-4/3"}},
                  {"form": {"x01->x11": "1/65537", "x11->x21": "-8/27"}},
                  {"form": {"x12->x22": "123/1024", "x21->x22": "5/999999937"}}]},
        {"element": {"x00->x10,x01->x11": "-1/65537",
                     "x01->x02,x02->x12": "1/65539",
                     "x21->x22,x11->x21": "77/1000003",
                     "x10->x20": "-2/3",
                     "x00->x10,x02->x12,x10->x20": "5/999999937",
                     "x00->x10,x01->x02,x02->x12,x10->x20": "1/999999937"}},
        {"vertices": ["x00", "x01", "x11", "x12", "x11", "x01", "x00"]},
        4),
}

# text output of integrate, pair and order per graph; the JSON output is
# pinned from it below
_PINNED_TEXT = {
    "wedge": ("-77910784757624173/970680270911399175951613952",
              "10370150079722111863745663/679645006717331365284",
              "2"),
    "double": ("-2057000026378000083853/7560000068040",
               "170999991435999907033/32999998151999985447",
               "1"),
    "grid": ("491995151524501891/201330255305185116693504",
             "-8589098611768027581284695/12885726174264186877905819",
             ">= 5"),
}

_PINNED_ORDER_JSON = {
    "wedge": '{\n  "max_degree": 4,\n  "order": 2\n}\n',
    "double": '{\n  "max_degree": 3,\n  "order": 1\n}\n',
    "grid": '{\n  "lower_bound": 5,\n  "max_degree": 4,\n  "order": null\n}\n',
}


@pytest.mark.parametrize("name", sorted(_PINNED_INPUTS))
def test_integrate_pair_and_order_bytes_are_pinned(files, capsys, name):
    graph, path, word, element, order_path, degree = _PINNED_INPUTS[name]
    g, p, w, e = (files(f"{k}.json", doc) for k, doc in
                  (("g", graph), ("p", path), ("w", word), ("e", element)))
    o = files("o.json", order_path or path)
    commands = {"integrate": ["integrate", "--graph", g, "--path", p, "--word", w],
                "pair": ["pair", "--graph", g, "--element", e, "--path", p],
                "order": ["order", "--graph", g, "--path", o,
                          "--max-degree", str(degree)]}
    for (command, argv), text in zip(commands.items(), _PINNED_TEXT[name]):
        assert run(capsys, *argv) == (0, text + "\n", "")
        json_out = (_PINNED_ORDER_JSON[name] if command == "order"
                    else '{\n  "value": "' + text + '"\n}\n')
        assert run(capsys, *argv, "--format", "json") == (0, json_out, "")


def test_integrate_with_eighty_forms(files, capsys):
    # <a^80, exp(a) exp(b) exp(a)> = 2^80 / 80!, far past any small
    # factorial table
    g = files("d.json", ser.digraph_to_dict(double_edge()))
    p = files("p.json", {"vertices": ["v0", "v1", "v0", "v1"]})
    w = files("w.json", {"word": [{"form": {"v0->v1": "1"}}] * 80})
    code, out, _ = run(capsys, "integrate", "--graph", g, "--path", p,
                       "--word", w)
    assert code == 0 and out == f"{Fraction(2 ** 80, math.factorial(80))}\n"


def _torus(m, n):
    """box_product(directed_cycle(m), directed_cycle(n)) with each vertex
    pair (x, y) named x + y, based at v0v0."""
    g = box_product(directed_cycle(m), directed_cycle(n))
    return {"vertices": ["".join(v) for v in g.vertices],
            "arrows": [["".join(u), "".join(v)] for u, v in g.arrows],
            "base": "v0v0"}


def _torus_c4():
    return _torus(4, 4)


def _operands(files, doc):
    """The files of every operand of `COMMANDS` on the digraph document
    doc, by name: a walk out along the base's first arrow and back, the
    trivial loop, two elements and a word on that arrow."""
    base = doc["base"]
    u, v = next(a for a in doc["arrows"] if base in a)
    label = f"{u}->{v}"
    return {"graph": files("g.json", doc),
            "walk": files("p.json", {"vertices": [base, v if u == base else u, base]}),
            "trivial": files("t.json", {"vertices": [base]}),
            "element": files("e.json", {"element": {
                label: "1/2", f"{label},{label}": "-3", "": "2"}}),
            "other": files("f.json", {"element": {label: "5"}}),
            "word": files("w.json", {"word": [{"form": {label: "2"}},
                                              {"form": {label: "-1/3"}}]})}


# each subcommand's flags after --graph, with {name} for an operand's file
_EVERY_COMMAND = {
    "validate": "", "integrate": "--path {walk} --word {word}",
    "pair": "--element {element} --path {walk}", "reduce": "--path {walk}",
    "equiv": "--path-a {walk} --path-b {trivial}",
    "shuffle": "--element-a {element} --element-b {other}",
    "coproduct": "--element {element}", "antipode": "--element {element}",
    "hopf-check": "--max-degree 1", "closed-forms": "--method both",
    "omega2": "", "order": "--path {walk} --max-degree 3",
    "homotopy": "--loop-a {walk} --loop-b {trivial}", "pi1": "--degree 2",
    "change-base": "--path {walk} --element {element}"}


@pytest.mark.parametrize("doc", [
    ser.digraph_to_dict(standard_triangle()), ser.digraph_to_dict(double_edge()),
    ser.digraph_to_dict(wedge_of_cycles()), _torus(3, 3)],
    ids=["triangle", "double_edge", "wedge", "c3_box_c3"])
def test_every_json_answer_is_the_bytes_of_json_dumps(files, capsys, monkeypatch, doc):
    # the writer's bytes against json's own encoder, on every subcommand's
    # answer, and on a Hopf report that holds a failing loop
    assert set(_EVERY_COMMAND) | {"volume"} == set(COMMANDS)
    operands = _operands(files, doc)

    def answer(*argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        return json.loads(out)

    answer("volume", "--seq", "5,5")
    for command, flags in _EVERY_COMMAND.items():
        answer(command, "--graph", operands["graph"], *flags.format(**operands).split())
    monkeypatch.setattr(algebra, "antipode", lambda u: u)
    report = answer("hopf-check", "--graph", operands["graph"], "--max-degree", "1")
    assert report["axioms"]["dual_antipode"]["failures"][0]["loop"]["vertices"]


# the JSON output of three elimination-heavy queries, by length and sha256
# of its bytes; recorded before the elimination ran on integers, for the
# two pi1 queries again once candidates were exact (wedge: 4 -> 14
# candidates, invariant kernel 584 vectors as before; torus: 4 -> 5
# candidates, invariant kernel 976 -> 755 vectors), their length bounds
# now ignored, and again once candidates were solved on the non-tree
# letters: the same lengths and invariant kernels, each candidate now on
# non-tree words
_PINNED_ELIMINATIONS = {
    "wedge-pi1": (lambda: ser.digraph_to_dict(wedge_of_cycles()),
                  ["pi1", "--degree", "3", "--length-bound", "6"], 27986,
                  "50118c7cd19d0316e6fc06b6f2a3abbf343ce3d56bbcad8bcf8ed524c5e88568"),
    "torus-pi1": (_torus_c4, ["pi1", "--degree", "2", "--length-bound", "4"],
                  312475,
                  "740e7a3eb998680852d2f3331304143f76761f993d6bef00593808bf32846c6e"),
    "grid-closed-forms": (lambda: _grid(4), ["closed-forms", "--method", "both"],
                          4759,
                          "8f89aa9195e120c3d220aafb1dde07130bbddc8530f018a2b10d7cccb03f7d47"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_ELIMINATIONS))
def test_elimination_output_bytes_are_pinned(files, capsys, name):
    graph, argv, size, digest = _PINNED_ELIMINATIONS[name]
    g = files("g.json", graph())
    code, out, err = run(capsys, argv[0], "--graph", g, *argv[1:],
                         "--format", "json")
    data = out.encode()
    assert (code, err) == (0, "")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    if argv[0] == "pi1":
        assert len(json.loads(data)["candidates"]) == _PI1_COUNTS[name]


# the closed forms of the pinned pi1 counts: 2 + 4 + 8 on the wedge of two
# circles at degree 3, and 2 + 3 on C4 x C4 at degree 2 (the winding forms,
# then the symmetric words in them)
_PI1_COUNTS = {"wedge-pi1": 14, "torus-pi1": 5}


# the JSON output of two homotopy "yes" queries 3 moves apart, by length
# and sha256 of its bytes: graph, the two loops, the bounds; recorded before
# the search listed only the moves its length bound admits
_PINNED_HOMOTOPY = {
    "grid": (lambda: _grid(4),
             {"vertices": ["x00", "x10", "x11", "x01", "x00"],
              "orientations": ["f", "f", "b", "b"]},
             {"vertices": ["x00", "x10", "x20", "x21", "x22", "x12", "x02", "x01",
                           "x00"],
              "orientations": ["f", "f", "f", "f", "b", "b", "b", "b"]},
             ["--length-bound", "9", "--depth-bound", "4"], 2168,
             "ef7b12f11c3f3d2f2f886497eaf755214e5c24f7999e14fedb7db3d59988f8ac"),
    "torus": (lambda: _torus(3, 4),
              {"vertices": ["v0v0", "v0v1", "v1v1", "v1v0", "v0v0"],
               "orientations": ["f", "f", "b", "b"]},
              {"vertices": ["v0v0", "v1v0", "v1v0", "v2v0", "v2v1", "v1v1", "v1v0",
                            "v0v0"],
               "orientations": ["f", "f", "f", "f", "b", "b", "b"]},
              ["--length-bound", "8", "--depth-bound", "4"], 2045,
              "62a3f7f899fb1b946eaf50767cfaa563badd6d4b98e9f5434981b3e280847a94"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_HOMOTOPY))
def test_homotopy_yes_output_bytes_are_pinned(files, capsys, name):
    graph, loop_a, loop_b, bounds, size, digest = _PINNED_HOMOTOPY[name]
    g = files("g.json", graph())
    a, b = files("a.json", loop_a), files("b.json", loop_b)
    code, out, err = run(capsys, "homotopy", "--graph", g, "--loop-a", a,
                         "--loop-b", b, *bounds, "--format", "json")
    data = out.encode()
    assert (code, err) == (0, "")
    assert json.loads(data)["status"] == "yes"
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# the JSON output of the algebra commands on `wedge_of_cycles()` elements
# of degree <= 3, by length and sha256 of its bytes; recorded before the
# algebra's maps built their results through one combination type.  The
# a- and e-terms of U and V make the ae and ea shuffle terms cancel.
_A, _B, _C, _D = "v0->v1", "v1->v2", "v2->v3", "v3->v0"
_E, _F, _G, _H = "v0->v4", "v4->v5", "v5->v6", "v6->v0"
_ALGEBRA_ELEMENTS = {
    "U": {_A: "1", _E: "1/2", f"{_B},{_C}": "-2", f"{_F},{_G},{_H}": "1/3"},
    "V": {_A: "1", _E: "-1/2", f"{_F},{_G}": "3", f"{_C},{_D},{_A}": "-1"},
    "W": {f"{_A},{_B}": "1", f"{_B},{_A}": "-1", f"{_E},{_E},{_F}": "2/5",
          "": "-3"},
}
_GAMMAS = {
    "forward": {"vertices": ["v0", "v1", "v2"], "orientations": ["f", "f"]},
    "zigzag": {"vertices": ["v0", "v4", "v0", "v1"],
               "orientations": ["f", "b", "f"]},
}
_PINNED_ALGEBRA = {
    "shuffle-uv": (["shuffle", "--element-a", "U", "--element-b", "V"], 3161,
                   "cdee92ed02b5b5c17cf5709eacc397ff8237a5a6b6d1229e2602bdd8115ab21d"),
    "shuffle-uw": (["shuffle", "--element-a", "U", "--element-b", "W"], 3513,
                   "4dbe5d550ae0c89784f5e73abf194d0ce996648009aa041182656b2ea6d5b83e"),
    "coproduct-v": (["coproduct", "--element", "V"], 325,
                    "f705fb19a365be2f126cdea3d91fe0a4d60c5094f1d21b647bf88caaafeb3c40"),
    "coproduct-w": (["coproduct", "--element", "W"], 341,
                    "3089c08c06f71ab0e004bfc5a8bda92ff376c9849d9013b6bdda48228d346d49"),
    "antipode-u": (["antipode", "--element", "U"], 127,
                   "7a3bc3038da732f01f1b69f253fab4a1cab20dbfab94dbbbe171786e03930e30"),
    "antipode-w": (["antipode", "--element", "W"], 125,
                   "be4dc0045c9cfd818b3008f9f441bb6a0908eea56936b1672f67c71ffdd59599"),
    "change-base-v": (["change-base", "--path", "forward", "--element", "V"], 150,
                      "7dcf772134c51f1d6188a6a7ae4d28b556c2d4a827d782f35a163885216d002b"),
    "change-base-w": (["change-base", "--path", "zigzag", "--element", "W"], 144,
                      "7ff0e63cf106e644acd4f6dac78139532dbd0e4202d166d3235ac10fe5ef484a"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_ALGEBRA))
def test_algebra_output_bytes_are_pinned(files, capsys, name):
    argv, size, digest = _PINNED_ALGEBRA[name]
    g = files("g.json", ser.digraph_to_dict(wedge_of_cycles()))
    docs = {k: files(f"{k}.json", {"element": v})
            for k, v in _ALGEBRA_ELEMENTS.items()}
    docs.update({k: files(f"{k}.json", v) for k, v in _GAMMAS.items()})
    operands = [docs.get(a, a) for a in argv[1:]]
    code, out, err = run(capsys, argv[0], "--graph", g, *operands,
                         "--format", "json")
    data = out.encode()
    assert (code, err) == (0, "")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_emitted_json_reparses(files, capsys, tmp_path):
    D = double_edge()
    g = files("d.json", ser.digraph_to_dict(D))
    p = files("p.json", {"vertices": ["v0", "v1", "v0"],
                         "orientations": ["f", "b"]})
    code, out, _ = run(capsys, "reduce", "--graph", g, "--path", p,
                       "--format", "json")
    reparsed = ser.path_from_dict(D, json.loads(out))
    assert reparsed == make_path(D, ["v0"], [])


@pytest.mark.parametrize("doc", [
    {"vertices": [0, 1, 2], "arrows": [[0, 1], [1, 2]]},
    {"vertices": ["a", 1], "arrows": []},
    {"vertices": ["a", "b"], "arrows": [["a", 1]]},
    {"vertices": ["a", "b"], "arrows": [], "base": 0},
    {"vertices": [True], "arrows": []},
    {"vertices": ["a->b", "c"], "arrows": [["a->b", "c"]]},
    {"vertices": ["a,b", "c"], "arrows": [["a,b", "c"]]},
    {"vertices": ["a", "b"], "arrows": [["a", "b"]], "base": "a,b"},
    {"vertices": ["a|b", "c"], "arrows": [["a|b", "c"]]},
    'digraph { "a,b" -> c }',
    'digraph { x; "p,q" }',
])
def test_vertex_names_that_no_label_can_name_are_rejected(files, capsys, doc):
    # arrow labels are "u->v", word labels join arrows with "," and tensor
    # keys join words with "|", so a vertex name holding any of them, or a
    # number (printed as "0->1" but never read back as one), would make
    # labels the readers cannot take back
    g = files("bad.json", doc)
    for command in ("validate", "closed-forms", "omega2"):
        code, out, err = run(capsys, command, "--graph", g)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "is not a string" in err or "contains" in err


def test_path_vertices_must_be_strings(files, capsys):
    g = files("d.json", ser.digraph_to_dict(double_edge()))
    p = files("p.json", {"vertices": ["v0", 1]})
    code, out, err = run(capsys, "reduce", "--graph", g, "--path", p)
    assert code == 1 and out == ""
    assert err == "error: vertex 1 is not a string\n"


# ------------------------------------------------------------ fuzzed inputs

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 2)
    | st.sampled_from(["", "v0", "v1", "v0->v1", "v1->v2", "1/2", "f", "b",
                       "x,y", "0", "-1"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["vertices", "arrows", "base",
                                       "orientations", "element", "word",
                                       "form", "v0->v1", ""]),
                      kids, max_size=3),
    max_leaves=6)

_VALID = {
    "graph": {"vertices": ["v0", "v1", "v2"],
              "arrows": [["v0", "v1"], ["v1", "v2"], ["v0", "v2"]],
              "base": "v0"},
    "path": {"vertices": ["v0", "v1", "v2", "v0"],
             "orientations": ["f", "f", "b"]},
    "loop-a": {"vertices": ["v0", "v1", "v2", "v0"],
               "orientations": ["f", "f", "b"]},
    "loop-b": {"vertices": ["v0", "v2", "v0"], "orientations": ["f", "b"]},
    "path-a": {"vertices": ["v0", "v1", "v1", "v2"],
               "orientations": ["f", "f", "f"]},
    "path-b": {"vertices": ["v0", "v2", "v1", "v2"],
               "orientations": ["f", "b", "f"]},
    "element": {"element": {"v0->v1,v1->v2": "1", "": "-2"}},
    "element-a": {"element": {"v0->v1": "1/2", "v1->v2,v0->v2": "1"}},
    "element-b": {"element": {"v0->v2": "-1", "": "3"}},
    "word": {"word": [{"form": {"v0->v1": "3/2"}}, {"form": {"v1->v2": "-1"}}]},
}

_FUZZED = {"validate": ["graph"], "pair": ["graph", "element", "path"],
           "integrate": ["graph", "path", "word"],
           "homotopy": ["graph", "loop-a", "loop-b"], "pi1": ["graph"],
           "reduce": ["graph", "path"], "equiv": ["graph", "path-a", "path-b"],
           "shuffle": ["graph", "element-a", "element-b"],
           "coproduct": ["graph", "element"], "antipode": ["graph", "element"],
           "order": ["graph", "path"], "change-base": ["graph", "path", "element"],
           "closed-forms": ["graph"], "omega2": ["graph"],
           "hopf-check": ["graph"]}

_BOUNDS = {"homotopy": ["--length-bound", "5", "--depth-bound", "2"],
           "pi1": ["--degree", "1", "--length-bound", "3"],
           "order": ["--max-degree", "2"], "closed-forms": ["--method", "both"],
           "hopf-check": ["--max-degree", "1"]}


def _places(doc, at=()):
    """The path to every value inside a JSON document, the root first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _places(value, at + (key,))


def _mutated(data, doc):
    """doc with one value somewhere inside it swapped for junk, dropped, or
    wrapped in a list."""
    at = data.draw(st.sampled_from(list(_places(doc))))
    how = data.draw(st.sampled_from(["junk", "drop", "wrap"]))
    if not at:
        return [doc] if how == "wrap" else data.draw(_JUNK)
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[at[-1]]
    else:
        old = parent[at[-1]]
        parent[at[-1]] = [old] if how == "wrap" else data.draw(_JUNK)
    return doc


@settings(max_examples=250)
@given(st.data())
def test_fuzzed_documents_never_raise(data):
    # each run spoils one operand (or none) at one place, so that the
    # other operands stay valid and the reader of the spoilt one is reached
    command = data.draw(st.sampled_from(sorted(_FUZZED)))
    spoilt = data.draw(st.sampled_from(_FUZZED[command] + [None]))
    fmt = data.draw(st.sampled_from(["json", "text"]))
    argv = [command, "--format", fmt] + _BOUNDS.get(command, [])
    with tempfile.TemporaryDirectory() as tmp:
        for operand in _FUZZED[command]:
            doc = _VALID[operand]
            if operand == spoilt:
                doc = _mutated(data, doc)
            name = Path(tmp) / f"{operand}.json"
            name.write_text(json.dumps(doc))
            argv += [f"--{operand}", str(name)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""


# ------------------------------------------- the plain reader and argparse

def _plain_options(files, command):
    """Option -> value of a plain argv of `command` on the documents of
    _VALID, in JSON."""
    bounds = {**_BOUNDS, "volume": ["--seq", "5,5"]}.get(command, [])
    options = {"--format": "json", **dict(zip(bounds[::2], bounds[1::2]))}
    for operand in _FUZZED.get(command, []):
        options[f"--{operand}"] = files(f"{operand}.json", _VALID[operand])
    return options


def _argv(command, options, equals=False):
    """The argv giving `options`: `--flag value`, or `--flag=value`."""
    if equals:
        return [command] + [f"{option}={value}" for option, value in options.items()]
    return [command] + [token for item in options.items() for token in item]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_plain_argv_prints_what_its_equals_spelling_prints(files, capsys, command):
    options = _plain_options(files, command)
    plain, equals = _argv(command, options), _argv(command, options, equals=True)
    assert _plain(plain) is not None and _plain(equals) is None
    code, out, err = run(capsys, *plain)
    assert code == 0 and out and err == ""
    assert run(capsys, *equals) == (code, out, err)


@pytest.mark.parametrize("command, option", [
    (command, option) for command in sorted(COMMANDS)
    for option, (_, spec) in _options(command).items()
    if "type" in spec or "choices" in spec])
def test_a_bad_value_is_one_usage_error_in_both_spellings(files, capsys,
                                                          command, option):
    options = {**_plain_options(files, command), option: "x"}
    plain = _argv(command, options)
    assert _plain(plain) is None
    code, out, err = run(capsys, *plain)
    assert (code, out) == (2, "") and f"error: argument {option}: invalid" in err
    assert run(capsys, *_argv(command, options, equals=True)) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["homotopy", "-h"],
    ["volume", "--se", "5,5"],
    ["volume", "--seq=5,5"],
    ["volume", "--seq", "5,5", "--seq", "5,5"],
    ["volume", "--seq", "-5"],
    ["pi1", "--graph", "g.json", "--degree", "x"],
    ["closed-forms", "--graph", "g.json", "--method", "nosuch"],
    ["pi1", "--graph", "g.json"],
    ["volume", "--seq", "5,5", "extra"],
    ["volume", "--graph", "g.json", "--seq", "5,5"],
], ids=["help", "abbreviated", "equals", "repeated", "dash-value", "bad-type",
        "bad-choice", "missing-required", "left-over", "foreign-flag"])
def test_the_plain_reader_refuses_any_other_argv(argv):
    assert _plain(argv) is None
    assert _plain(["volume", "--seq", "5,5"]) is not None


_ALL_OPTIONS = sorted({option for name in COMMANDS for option in _options(name)})
_ODD_VALUES = ["-1", "1_0", " 3", "+2", "\u0663", "1.5", "", "-x", "--graph",
               "-h", "xml", "nosuch", "kernel", "both", "text"]


def _good_value(spec):
    """A value that argparse accepts for a flag of `spec`."""
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if "type" in spec:
        return st.integers(0, 20).map(str)
    return st.sampled_from(["g.json", "5,5", "v0"])


@st.composite
def _argvs(draw, name):
    """An argv of command `name`: its required flags and some others, all
    but at most one with a good value, then a few foreign, repeated,
    abbreviated, `--flag=value`, help or lone tokens, in any order."""
    own = _options(name)
    given = [option for option, (_, spec) in own.items()
             if spec.get("required") or draw(st.booleans())]
    spoilt = draw(st.booleans()) and draw(st.sampled_from(given))
    odd = st.sampled_from(_ODD_VALUES) | st.text(max_size=3)
    units = [[option, draw(odd if option == spoilt else _good_value(own[option][1]))]
             for option in given]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        option = draw(st.sampled_from(list(own) + _ALL_OPTIONS + ["-h", "--help"]))
        cut = option[:draw(st.integers(3, max(3, len(option))))]
        units.append(draw(st.sampled_from([
            [option, draw(odd)], [f"{option}={draw(odd)}"], [option],
            [draw(odd)], [cut, draw(odd)]])))
    return [name] + [token for unit in draw(st.permutations(units)) for token in unit]


def _the_plain_reader_property(parser):
    """A property: whenever `_plain` accepts an argv, `parser` reads
    the same namespace from it and does not exit.  An example is one argv
    of each command."""
    @given(st.tuples(*(_argvs(name) for name in COMMANDS)))
    def check(argvs):
        for argv in argvs:
            args = _plain(argv)
            if args is None:
                continue
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    expected = parser.parse_args(argv)
                except SystemExit:
                    raise AssertionError(f"argparse exits on {argv!r}") from None
            assert vars(args) == vars(expected), argv
    return check


@pytest.mark.wide
def test_the_plain_reader_reads_what_argparse_reads():
    _the_plain_reader_property(build_parser())()


@pytest.mark.parametrize("check", ["choices", "type"])
def test_the_plain_reader_property_fails_without_a_check(monkeypatch, check):
    # no shrinking: the first failure is enough
    prop = settings(report_multiple_bugs=False, phases=[Phase.generate])(
        _the_plain_reader_property(build_parser()))
    monkeypatch.setattr("pathint.cli._options", lambda name: {
        option: (flag, {k: v for k, v in spec.items() if k != check})
        for option, (flag, spec) in _options(name).items()})
    with pytest.raises(AssertionError):
        prop()
