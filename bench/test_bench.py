"""Tests of the benchmark itself: the smoke mode, negative controls for every
check, and exact repetition of traced counts.  Run with

    python3 -m pytest -q bench
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def rounds():
    """Each workload's smoke round, run once, with its checked outputs."""
    out = {}
    for name in workloads.WORKLOADS:
        r = run.Run(name, SEED, smoke=True)
        r.setup()
        try:
            r.run_round(0)
        finally:
            r.close()
        assert r.failed == 0 and not r.errors, r.errors
        out[name] = [(op, json.loads(r.verified[i])) for i, op in enumerate(r.ops)]
    return out


def rejected(op, result) -> bool:
    try:
        workloads.check(op, result)
    except oracle.CheckFailed:
        return True
    return False


def off(value) -> str:
    return str(Fraction(value) + Fraction(1, 7))


def test_smoke_mode_passes():
    assert run.smoke(SEED)


def test_outputs_pass_their_checks(rounds):
    for cases in rounds.values():
        for op, result in cases:
            assert not rejected(op, result)


@pytest.mark.parametrize("kind", ["pair", "integrate"])
def test_value_off_by_a_seventh_is_rejected(rounds, kind):
    cases = [(op, res) for op, res in rounds["signature"] if op.kind == kind]
    assert cases
    for op, result in cases:
        assert rejected(op, dict(result, value=off(result["value"])))


def test_wrong_order_is_rejected(rounds):
    for op, result in rounds["signature"]:
        if op.kind == "order":
            wrong = dict(result, order=(result["order"] or 0) + 1)
            assert rejected(op, wrong)


@pytest.mark.parametrize("kind,key", [("shuffle", "element"), ("coproduct", "tensor")])
def test_coefficient_off_by_a_seventh_is_rejected(rounds, kind, key):
    cases = [(op, res) for op, res in rounds["signature"] if op.kind == kind]
    assert cases
    for op, result in cases:
        wrong = copy.deepcopy(result)
        first = sorted(wrong[key])[0]
        wrong[key][first] = off(wrong[key][first])
        assert rejected(op, wrong)


def test_swapped_homotopy_verdicts_are_rejected(rounds):
    cases = rounds["homotopy"]
    yes = [res for op, res in cases if res["status"] == "yes"]
    no = [res for op, res in cases if res["status"] == "certified-no"]
    assert yes and no
    for op, result in cases:
        swapped = no[0] if result["status"] == "yes" else yes[0]
        assert rejected(op, swapped)


def test_certified_no_value_off_by_a_seventh_is_rejected(rounds):
    for op, result in rounds["homotopy"]:
        if result["status"] == "certified-no":
            wrong = copy.deepcopy(result)
            wrong["values"][0] = off(wrong["values"][0])
            assert rejected(op, wrong)


def test_forged_contraction_of_the_c4_generator_is_rejected():
    g = workloads.cycle(4, None)
    loop = (("c0", "c1", "c2", "c3", "c0"), ("f",) * 4)
    trivial = (("c0",), ())
    forged = {"kind": "square-contract", "direction": "apply", "position": 0,
              "before": {"vertices": list(loop[0]), "orientations": list(loop[1])},
              "after": {"vertices": ["c0"], "orientations": []}}
    with pytest.raises(oracle.CheckFailed):
        oracle.check_certificate(g.host, loop, [forged], trivial)


def test_tampered_certificate_is_rejected(rounds):
    for op, result in rounds["homotopy"]:
        if result["status"] == "yes" and result["certificate"]["moves"]:
            wrong = copy.deepcopy(result)
            move = wrong["certificate"]["moves"][0]
            move["kind"] = "triangle-contract" if move["kind"] != "triangle-contract" \
                else "square-contract"
            assert rejected(op, wrong)


def test_standard_moves_pass_the_move_checker():
    import random
    rng = random.Random(SEED)
    for g in (workloads.grid(3, 3, rng), workloads.torus(3, 3, rng),
              workloads.cone(4, rng), workloads.cylinder(4, 1, rng)):
        loop = workloads.random_loop(g, 4, rng, 0.1, 0.15)
        for kind, direction, p, before, after, new in oracle.standard_moves(g.host, loop):
            move = {"kind": kind, "direction": direction, "position": p,
                    "before": {"vertices": before[0], "orientations": before[1]},
                    "after": {"vertices": after[0], "orientations": after[1]}}
            oracle.check_certificate(g.host, loop, [move], new)


def _moved_words(op):
    """Words whose coefficient changes under some move of the check's own
    loop sample; a perturbation elsewhere can stay in the sampled kernel."""
    degree = op.expect["degree"]
    out = set()
    for loop in op.expect["sample"]:
        before = oracle.signature(oracle.signed_steps(loop), degree)
        for move in oracle.standard_moves(op.graph.host, loop):
            after = oracle.signature(oracle.signed_steps(move[5]), degree)
            out |= {w for w in set(before) | set(after) if before.get(w) != after.get(w)}
    return out


def test_pi1_kernel_element_off_by_a_seventh_is_rejected(rounds):
    tried = 0
    for op, result in rounds["pi1"]:
        moved = {",".join(f"{u}->{w}" for u, w in word) for word in _moved_words(op)}
        for i, elem in enumerate(result["invariant_kernel"]):
            keys = sorted(moved & set(elem))
            if keys:
                wrong = copy.deepcopy(result)
                wrong["invariant_kernel"][i][keys[0]] = off(elem[keys[0]])
                assert rejected(op, wrong)
                tried += 1
    assert tried


def test_pi1_candidate_on_a_contractible_graph_is_rejected(rounds):
    for op, result in rounds["pi1"]:
        if op.graph.family in ("triangle", "cone", "grid") and result["invariant_kernel"]:
            wrong = copy.deepcopy(result)
            wrong["candidates"] = [{"element": wrong["invariant_kernel"][0],
                                    "certified": False}]
            assert rejected(op, wrong)
            return
    pytest.fail("no contractible graph with a kernel in the smoke round")


def test_chen_evaluator_against_the_definition():
    """word_value is the sum over non-decreasing index sequences of step
    products over volume numbers, on a small case written out by hand:
    the path a a (two forward steps along one arrow) pairs with e_a e_a to
    1/2 + 1/2 + 1 = 2 (sequences 11, 22 with volume 2, and 12)."""
    a = ("x", "y")
    steps = [(a, 1), (a, 1)]
    assert oracle.word_value(steps, [{a: 1}, {a: 1}]) == 2
    assert oracle.signature(steps, 2)[(a, a)] == 2
    assert oracle.signature(steps + [(a, -1), (a, -1)], 3) == {(): 1}


def traced_counts(workload):
    r = run.Run(workload, SEED, smoke=True)
    r.setup()
    r.tracer = tracing.Tracer()
    try:
        r.run_round(0)
    finally:
        r.close()
    return {k: v for k, v in r.tracer.totals.items() if k.endswith((".calls", ".items"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    assert first == second
    assert any(first.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS
    args = argparse.Namespace(workload="signature", seed=SEED, seconds=0, trace=0)
    result = run.measure(args)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
