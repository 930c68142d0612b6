"""Benchmark of the pathint command line tool.

    python3 bench/run.py --workload signature|pi1|homotopy --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # each workload in turn
    python3 bench/run.py --smoke                        # few operations, all checks

Each operation is one pathint subcommand, run in this process through
`pathint.cli.main` on JSON documents written beforehand, with its standard
output captured and checked against an answer computed apart from pathint
(see oracle.py).  One process, one client, closed loop, no threads.

Times are in `ref`: an operation's wall time divided by the mean time of
two runs of the reference probe (probe.py), one just before it and one just
after.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones of tracing.py,
and the spans and the tracing overhead go to bench/out/.

pathint is imported from src/ next to this directory; without it the run
stops with exit code 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 7

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import timed_probe  # noqa: E402


def import_pathint():
    """Import pathint from this checkout's src/, dropping any copy already
    imported so that each call pays the whole import."""
    if not (SRC / "pathint" / "__init__.py").is_file():
        raise SystemExit(f"error: no pathint sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pathint" or n.startswith("pathint.")]:
        del sys.modules[name]
    cli = importlib.import_module("pathint.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: pathint was imported from {cli.__file__}, not {SRC}")
    return cli


class Run:
    """One workload in one process: set-up, rounds of timed operations,
    checks after each round."""

    def __init__(self, workload, seed, smoke=False):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.workdir = OUT / f"work-{workload}-{seed}-{id(self)}"
        self.round_totals = []
        self.op_refs = []
        self.probe_seconds = []
        self.op_seconds = []
        self.attempted = self.failed = 0
        self.errors = []
        self.verified = {}   # op index -> normalised output that passed its check
        self.tracer = None
        self.rounds_traced = 0

    def setup(self) -> None:
        self.cli = import_pathint()
        self.ops = workloads.build_round(self.workload, self.seed, self.smoke)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.argvs = workloads.write_round(self.ops, self.workdir, 0)

    def run_round(self, round_no: int) -> None:
        if round_no > 0:
            # Each round starts from freshly imported code, as a new pathint
            # process would: CPython specialises bytecode as it runs, and
            # without the re-import every round would run faster than the
            # one before for tens of seconds.
            self.cli = import_pathint()
            shutil.rmtree(self.workdir)
            self.workdir.mkdir(parents=True)
            self.argvs = workloads.write_round(self.ops, self.workdir, round_no)
        if self.tracer:
            self.tracer.install()
        try:
            self._timed_ops(round_no)
        finally:
            if self.tracer:
                self.tracer.uninstall()

    def _timed_ops(self, round_no: int) -> None:
        gc.collect()
        outputs = []
        total = 0.0
        before = timed_probe()
        for i, (prefix, argv) in enumerate(self.argvs):
            if self.tracer:
                self.tracer.begin_op((round_no, i))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a traceback is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t
            after = timed_probe()
            unit = (before + after) / 2
            if self.tracer:
                self.tracer.end_op(unit)
            ref = seconds / unit
            total += ref
            self.op_refs.append(ref)
            self.op_seconds.append(seconds)
            self.probe_seconds.append(unit)
            self.attempted += 1
            outputs.append((i, prefix, code, out.getvalue(), err.getvalue()))
            before = after
        self.round_totals.append(total)
        for i, prefix, code, text, err in outputs:
            self.check(i, prefix, code, text, err)

    def check(self, i, prefix, code, text, err) -> None:
        op = self.ops[i]
        if code != 0:
            self.failed += 1
            self.note(f"{op.kind} #{i} failed ({code}): {err.strip()[:200]}")
            return
        plain = text.replace(prefix, "")
        try:
            result = json.loads(plain)
        except ValueError:
            self.errors.append(f"{op.kind} #{i}: output is not JSON: {plain[:80]!r}")
            return
        if op.kind == "homotopy" and result.get("status") == "unknown":
            self.failed += 1
            self.note(f"homotopy #{i}: unknown within bounds the construction meets")
            return
        if self.verified.get(i) == plain:
            return
        try:
            workloads.check(op, result)
        except (oracle.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.errors.append(f"{op.kind} #{i}: {type(exc).__name__}: {exc}")
            return
        self.verified[i] = plain

    def note(self, message) -> None:
        if self.failed <= 20:
            print(message, file=sys.stderr)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(args) -> dict:
    setups = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        run = Run(args.workload, args.seed)
        run.setup()
        setups.append(time.perf_counter() - t)
        if len(setups) < SETUPS:
            run.close()
    try:
        for _ in range(3):
            timed_probe()
        begin = time.perf_counter()
        # Round 0 warms the process (stdlib code paths, allocator arenas) and
        # is checked and counted but left out of the timings.
        run.run_round(0)
        warm = len(run.op_refs)
        round_no = 1
        if args.trace:
            run.run_round(round_no)
            untraced = run.round_totals[-1]
            round_no += 1
            run.tracer = tracing.Tracer()
        while True:
            if run.tracer:
                run.tracer.keep_spans = run.rounds_traced == 0
            run.run_round(round_no)
            round_no += 1
            if run.tracer:
                run.rounds_traced += 1
            if time.perf_counter() - begin >= args.seconds:
                break
    finally:
        run.close()
    for message in run.errors[:20]:
        print("check failed:", message, file=sys.stderr)
    if args.trace:
        metrics = run.tracer.metrics(run.rounds_traced)
        traced = statistics.median(run.round_totals[2:])
        report = {"workload": args.workload, "seed": args.seed,
                  "rounds_traced": run.rounds_traced,
                  "untraced_total_ref": untraced, "traced_total_ref": traced,
                  "overhead_ref": traced - untraced,
                  "probe_s_median": statistics.median(run.probe_seconds),
                  "metrics": {k: v["value"] for k, v in metrics.items()},
                  "span_fields": ["id", "name", "op", "parent", "start_s", "end_s"],
                  "spans": [s for s in run.tracer.spans if s is not None]}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(report))
        print(f"trace: {path} ({len(report['spans'])} spans); total_ref untraced "
              f"{untraced:.2f}, traced {traced:.2f}, overhead {traced - untraced:.2f}",
              file=sys.stderr)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        refs = run.op_refs[warm:]
        metrics = {
            "total_ref": {"value": statistics.median(run.round_totals[1:]), "unit": "ref"},
            "op_p50_ref": {"value": statistics.median(refs), "unit": "ref"},
            "op_p90_ref": {"value": quantile(refs, 0.9), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print(f"{args.workload}: {len(run.round_totals)} rounds, {run.attempted} ops, "
              f"probe median {statistics.median(run.probe_seconds) * 1e3:.2f} ms, "
              f"op median {statistics.median(run.op_seconds) * 1e3:.2f} ms", file=sys.stderr)
    return {"correct": not run.errors, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def smoke(seed) -> bool:
    """Every workload, a few operations each, every check, one round."""
    ok = True
    for name in workloads.WORKLOADS:
        run = Run(name, seed, smoke=True)
        try:
            run.setup()
            run.run_round(0)
        finally:
            run.close()
        print(f"smoke {name}: {run.attempted} ops, {run.failed} failed, "
              f"{len(run.errors)} wrong", file=sys.stderr)
        for message in run.errors:
            print("check failed:", message, file=sys.stderr)
        ok = ok and not run.errors and not run.failed
    return ok


def run_all(args) -> None:
    """Each workload in its own process, one after another."""
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:12s} {v['value']:12.4f} {v['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        run_all(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
