"""Per-layer tracing from outside pathint.

`Tracer.install` replaces each traced public function by a wrapper: in the
module that defines it, in every pathint module that imported it by name,
and, for methods, on the class.  A wrapper counts calls and the items a
call returns or yields, and records a span (name, start, end, parent span,
operation id).  Spans stay in memory and are written out when the run
ends; counters are summed per operation and turned into ref units with
that operation's probe time.

Metric names are <module>.<function>.<calls|items|ref|self_ref>.  `ref` is
inclusive time; `self_ref` leaves out the time of traced children.  The
public functions of `serialization` are traced as one group, counted at
every call and timed at the outermost one.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed with spans; the module's name is the metric
# prefix.  Methods are given as "Class.method".
SPANNED = [
    ("cli", "main"),
    ("integrals", "word_pairing"), ("integrals", "iterated_integral"),
    ("integrals", "word_pairings_all"),
    ("algebra", "shuffle"), ("algebra", "coproduct"), ("algebra", "from_forms"),
    ("linalg", "rref"), ("linalg", "rank"), ("linalg", "kernel"),
    ("linalg", "complement_basis"),
    ("forms", "closed_one_forms"), ("forms", "is_closed"),
    ("homotopy", "invariant_sufficient"), ("homotopy", "move_neighbors"),
    ("homotopy", "homotopic_loops"), ("homotopy", "pi1_candidates"),
    ("paths", "enumerate_paths"), ("paths", "make_path"),
]
# Called hundreds of thousands of times per round: counted, not timed, so
# their time stays in their caller's self time.
COUNTED = [("graphs", "Digraph.is_square_tuple"), ("graphs", "Digraph.is_triangle_set")]
GROUPED = "serialization"

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
METRICS = [
    ("cli.main.self_ref", "ref"), ("serialization.calls", "count"),
    ("serialization.ref", "ref"),
    ("integrals.word_pairing.calls", "count"), ("integrals.word_pairing.ref", "ref"),
    ("integrals.iterated_integral.ref", "ref"),
    ("integrals.word_pairings_all.calls", "count"),
    ("integrals.word_pairings_all.ref", "ref"),
    ("algebra.shuffle.ref", "ref"), ("algebra.coproduct.ref", "ref"),
    ("algebra.from_forms.ref", "ref"),
    ("linalg.rref.calls", "count"), ("linalg.rref.ref", "ref"),
    ("linalg.rank.calls", "count"), ("linalg.kernel.ref", "ref"),
    ("linalg.complement_basis.ref", "ref"),
    ("forms.closed_one_forms.calls", "count"), ("forms.closed_one_forms.ref", "ref"),
    ("forms.is_closed.calls", "count"),
    ("homotopy.invariant_sufficient.calls", "count"),
    ("homotopy.invariant_sufficient.ref", "ref"),
    ("paths.enumerate_paths.items", "count"), ("paths.enumerate_paths.ref", "ref"),
    ("paths.make_path.calls", "count"), ("paths.make_path.ref", "ref"),
    ("homotopy.move_neighbors.calls", "count"), ("homotopy.move_neighbors.items", "count"),
    ("homotopy.move_neighbors.ref", "ref"),
    ("graphs.is_square_tuple.calls", "count"), ("graphs.is_triangle_set.calls", "count"),
    ("homotopy.homotopic_loops.self_ref", "ref"), ("homotopy.pi1_candidates.self_ref", "ref"),
]


# Spans kept per run, enough for the first traced round of every workload.
SPAN_LIMIT = 200_000


class Tracer:
    """Counters and spans of the traced functions; one instance per run."""

    def __init__(self):
        self.stack = []          # open frames: [name, start, child_seconds, span_id]
        self.depth = defaultdict(int)
        self.op = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, items, s, self s
        self.totals = defaultdict(float)
        self.spans = []
        self.keep_spans = False
        self.op_id = None
        self._undo = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        pkg = "pathint"
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        targets = [(mod, fn, True) for mod, fn in SPANNED]
        targets += [(mod, fn, False) for mod, fn in COUNTED]
        ser = sys.modules[f"{pkg}.{GROUPED}"]
        targets += [(GROUPED, name, True) for name, obj in vars(ser).items()
                    if inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == ser.__name__]
        for mod, qual, timed in targets:
            module = sys.modules[f"{pkg}.{mod}"]
            cls_name, _, attr = qual.rpartition(".")
            metric = GROUPED if mod == GROUPED else f"{mod}.{attr}"
            if cls_name:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, metric, timed))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, metric, timed)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, metric, timed):
        if not timed:
            op = self.op

            def counted(*args, **kwargs):
                op[metric][0] += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, metric)

        def timed_call(*args, **kwargs):
            frame = self._enter(metric)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(frame, 0)
                raise
            self._leave(frame, len(result) if isinstance(result, (list, tuple, dict)) else 0)
            return result
        return timed_call

    def _wrap_generator(self, fn, metric):
        tracer = self

        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            busy = [0.0, 0]
            try:
                while True:
                    frame = tracer._enter(metric, record=False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy[0] += tracer._leave(frame, 0, record=False)
                        return
                    busy[0] += tracer._leave(frame, 0, record=False)
                    busy[1] += 1
                    yield item
            finally:
                acc = tracer.op[metric]
                acc[0] += 1
                acc[1] += busy[1]
                acc[2] += busy[0]
        return generator

    def _enter(self, metric, record=True):
        span_id = None
        if record and self.keep_spans and len(self.spans) < SPAN_LIMIT:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [metric, perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        self.depth[metric] += 1
        return frame

    def _leave(self, frame, items, record=True) -> float:
        end = perf_counter()
        self.stack.pop()
        metric, start, children, span_id = frame
        self.depth[metric] -= 1
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        acc = self.op[metric]
        if record:
            acc[0] += 1
            acc[1] += items
            if self.depth[metric] == 0:
                acc[2] += duration
        acc[3] += duration - children
        if span_id is not None:
            parent = self.stack[-1][3] if self.stack else None
            self.spans[span_id] = (span_id, metric, self.op_id, parent, start, end)
        return duration

    # -- per operation --------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.op.clear()

    def end_op(self, probe_seconds: float) -> None:
        """Fold the operation's counters into the run, times in ref."""
        for metric, (calls, items, seconds, self_seconds) in self.op.items():
            self.totals[f"{metric}.calls"] += calls
            self.totals[f"{metric}.items"] += items
            self.totals[f"{metric}.ref"] += seconds / probe_seconds
            self.totals[f"{metric}.self_ref"] += self_seconds / probe_seconds
        self.op.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-round means of the reported metrics (0 for a layer the
        workload never reaches)."""
        return {name: {"value": self.totals.get(name, 0) / rounds, "unit": unit}
                for name, unit in METRICS}
