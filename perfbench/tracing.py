"""Layer spans for the traced benchmark run.

`Tracer.installed()` patches, for the duration of one pass, each public
name in SPANS in every expsample module that binds it (methods are patched
on their class), so a call through any import path opens a span.  Nothing
in the library itself changes.

Spans are timed in thread CPU time.  batch_eval runs its cells on pool
threads that take turns holding the interpreter lock, so wall-clock spans
of two threads overlap and would count the same second twice; CPU time
per thread adds up to the work done.  Each thread keeps its own span stack
and totals; a span's self time is its duration minus the child spans it
opened on the same thread.  Totals are aggregated as spans close and
merged over threads after the pass.
"""

import collections
import contextlib
import sys
import threading
import time

# span key -> [(module, public name)]; "Class.method" patches the class
SPANS = {
    "functions": [("expsample.functions", "RealFunction.__call__")],
    "expr": [("expsample.expr", "evaluate")],
    "kernels.eval": [("expsample.kernels", "Kernel.eval_log")],
    "kernels.moment": [("expsample.kernels", name) for name in (
        "discrete_moment", "continuous_moment", "absolute_moment",
        "poisson_moment", "verify_kernel")],
    "operators.cell": [("expsample.operators", "durrmeyer_eval")],
    "operators.batch": [("expsample.operators", "batch_eval")],
    "operators.write": [("expsample.operators", "write_batch_csv")],
    "combinations.eval": [("expsample.combinations", "combined_eval")],
    "combinations.moment": [("expsample.combinations", name) for name in (
        "combined_moment", "pair_moment", "solve_coefficients")],
    "analysis": [("expsample.analysis", name) for name in (
        "error_table", "empirical_order", "voronovskaya_check")],
    "analysis.write": [("expsample.analysis", "ErrorTable.to_csv"),
                       ("expsample.analysis", "ErrorTable.to_json")],
    "quadrature.transform": [("expsample.quadrature", "mellin_transform")],
    "quadrature.integrate": [("expsample.quadrature", "integrate_log")],
    "cli": [("expsample.cli", "main")],
}

# argument holding the points of a call, for spans that count points
POINTS_ARG = {"functions": 1, "expr": 1, "kernels.eval": 1}

# spans that every pass of a workload must open; a layer metric built on
# one of them that opened none is reported unmeasured (null), not 0
EXPECTED = {
    "profile": {"functions", "expr", "kernels.eval", "operators.cell",
                "operators.batch", "operators.write", "cli"},
    "study": {"functions", "kernels.eval", "kernels.moment",
              "operators.cell", "combinations.eval", "combinations.moment",
              "analysis", "analysis.write", "cli"},
    "kernels": {"kernels.eval", "kernels.moment", "quadrature.transform",
                "cli"},
}


class _Thread:
    """Span stack and totals of one thread."""

    def __init__(self):
        self.stack = []
        self.cells = 0          # open durrmeyer_eval spans
        self.combos = 0         # open combined_eval spans
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.points = collections.Counter()
        self.cell_points = 0    # f points evaluated inside a cell
        self.cell_eval_calls = 0
        self.combo_cells = 0    # cells opened inside combined_eval
        self.batch_cell_s = 0.0


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._reset()

    def _reset(self):
        self._local = threading.local()
        self._threads = []
        self._batch_active = 0
        self._batch_wall = 0.0

    def _thread(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
            return state

    def _wrap(self, key, fn):
        tracer = self
        points_arg = POINTS_ARG.get(key)
        is_cell = key == "operators.cell"
        is_combo = key == "combinations.eval"
        is_batch = key == "operators.batch"
        cpu = time.thread_time

        def span(*args, **kwargs):
            t = tracer._thread()
            stack = t.stack
            if stack and stack[-1][0] is span:
                # recursion (expr.evaluate walks its AST) stays one span
                return fn(*args, **kwargs)
            if points_arg is not None:
                n = getattr(args[points_arg], "size", 1)
                t.points[key] += n
                if t.cells:
                    if key == "functions":
                        t.cell_points += n
                    elif key == "kernels.eval":
                        t.cell_eval_calls += 1
            if is_cell:
                t.combo_cells += t.combos > 0
                t.cells += 1
            elif is_combo:
                t.combos += 1
            elif is_batch:
                tracer._batch_active += 1
                wall = time.perf_counter()
            frame = [span, cpu(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = cpu() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                t.self_s[key] += duration - frame[2]
                t.calls[key] += 1
                if is_cell or is_combo:
                    t.cells -= is_cell
                    t.combos -= is_combo
                    if not (t.cells or t.combos) and tracer._batch_active:
                        t.batch_cell_s += duration
                elif is_batch:
                    tracer._batch_active -= 1
                    tracer._batch_wall += time.perf_counter() - wall

        return span

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block, starting
        from empty totals."""
        self._reset()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "expsample" or name.startswith("expsample.")]
        patches = []
        try:
            for key, targets in SPANS.items():
                for module, name in targets:
                    owner = sys.modules[module]
                    if "." in name:
                        cls_name, attr = name.split(".")
                        cls = getattr(owner, cls_name)
                        original = cls.__dict__[attr]
                        patches.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(key, original))
                        continue
                    original = getattr(owner, name)
                    wrapper = self._wrap(key, original)
                    for module_obj in modules:
                        for attr, value in list(vars(module_obj).items()):
                            if value is original:
                                patches.append((module_obj, attr, original))
                                setattr(module_obj, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_metrics(self, workload):
        """Per-layer metrics of the last traced pass (see README.md)."""
        calls, self_s, points = (collections.Counter() for _ in range(3))
        cell_points = cell_eval_calls = combo_cells = 0
        batch_cell_s = 0.0
        for t in self._threads:
            calls.update(t.calls)
            self_s.update(t.self_s)
            points.update(t.points)
            cell_points += t.cell_points
            cell_eval_calls += t.cell_eval_calls
            combo_cells += t.combo_cells
            batch_cell_s += t.batch_cell_s
        cells = calls["operators.cell"]

        def per(n, d):
            return n / d if d else 0.0

        metrics = {
            "functions.points_per_cell": (per(cell_points, cells),
                                          ("functions", "operators.cell")),
            "functions.self_s": (self_s["functions"], ("functions",)),
            "expr.points": (points["expr"], ("expr",)),
            "expr.self_s": (self_s["expr"], ("expr",)),
            "kernels.eval_calls_per_cell": (per(cell_eval_calls, cells),
                                            ("kernels.eval", "operators.cell")),
            "kernels.eval_points": (points["kernels.eval"], ("kernels.eval",)),
            "kernels.self_s": (self_s["kernels.eval"], ("kernels.eval",)),
            "kernels.moment_s": (self_s["kernels.moment"], ("kernels.moment",)),
            "operators.cells": (cells, ("operators.cell",)),
            "operators.self_s": (self_s["operators.cell"]
                                 + self_s["operators.batch"],
                                 ("operators.cell",)),
            "operators.parallelism": (per(batch_cell_s, self._batch_wall),
                                      ("operators.batch",)),
            "operators.write_s": (self_s["operators.write"],
                                  ("operators.write",)),
            "combinations.self_s": (self_s["combinations.eval"]
                                    + self_s["combinations.moment"],
                                    ("combinations.eval",)),
            "combinations.operator_calls_per_cell": (
                per(combo_cells, calls["combinations.eval"]),
                ("combinations.eval",)),
            "analysis.self_s": (self_s["analysis"], ("analysis",)),
            "analysis.write_s": (self_s["analysis.write"], ("analysis.write",)),
            "cli.self_s": (self_s["cli"], ("cli",)),
            "quadrature.self_s": (self_s["quadrature.transform"]
                                  + self_s["quadrature.integrate"],
                                  ("quadrature.transform",)),
            "quadrature.transform_calls": (calls["quadrature.transform"],
                                           ("quadrature.transform",)),
        }
        expected = EXPECTED[workload]
        unmeasured = {key for key in expected if not calls[key]}
        out = {name: (None if unmeasured.intersection(sources) else value)
               for name, (value, sources) in metrics.items()}
        out["trace.unmeasured"] = len(unmeasured)
        return out
