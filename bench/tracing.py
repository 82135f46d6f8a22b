"""Span tracer for the traced benchmark run, installed from outside the library.

A wrapped function is rebound in every ``mintime`` module that holds it,
since the library imports names directly (``timeopt`` calls its own
``solve_forward`` binding, ``sliding`` its own ``step_implicit``).
``apply``/``jacobian`` are wrapped on the operator instances a pass uses.
Spans are kept in memory as ``[name, start, end, parent, run]`` and
aggregated per run; ``restore()`` puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from mintime.operators import ControlMap

_ABSENT = object()


def _count_inner(counts, sol):
    counts["timeopt.inner_iterations"] += sol.iterations
    counts["timeopt.inner_converged"] += bool(sol.converged)


def _count_forward(counts, traj):
    counts["forward.steps"] += traj.steps
    counts["forward.newton_iters"] += int(traj.newton_iters.sum())


def _count_adjoint(counts, state):
    counts["adjoint.steps"] += state.steps


# (module, function, counter reading the returned object); span name is
# "<module>.<function>"
FUNCTIONS = (
    ("timeopt", "outer_minimize", None),
    ("timeopt", "inner_solve_control", _count_inner),
    ("forward", "solve_forward", _count_forward),
    ("forward", "step_implicit", None),
    ("adjoint", "solve_adjoint", _count_adjoint),
    ("sliding", "run_sliding", None),
    ("sliding", "sign_feedback", None),
    ("audit", "audit_hypotheses", None),
    ("audit", "audit_sign_condition", None),
    ("oracle", "brute_force_min_time", None),
    ("config", "load_config", None),
)


# Per-layer metrics of the traced run, with the end-to-end metric and
# workload each one should move.
LAYER_METRICS = (
    ("timeopt.inner_solve_control.calls", "count", "lower", "wall_s on scalar_optimize"),
    ("timeopt.inner_solve_control.s", "s", "lower", "wall_s on scalar_optimize"),
    ("timeopt.inner_solve_control.self_s", "s", "lower", "wall_s on scalar_optimize"),
    ("timeopt.outer_minimize.calls", "count", "lower", "wall_s on scalar_optimize"),
    ("timeopt.outer_minimize.s", "s", "lower", "wall_s on scalar_optimize"),
    ("timeopt.inner_iterations", "count", "lower", "wall_s on scalar_optimize"),
    ("timeopt.inner_converged_ratio", "ratio", "higher", "wall_s on scalar_optimize"),
    ("forward.solve_forward.calls", "count", "lower",
     "wall_s on gradient_2d; on scalar_optimize through the final re-solves"),
    ("forward.solve_forward.s", "s", "lower",
     "wall_s on gradient_2d; on scalar_optimize through the final re-solves"),
    ("forward.step_implicit.calls", "count", "lower", "wall_s on slide_1d"),
    ("forward.step_implicit.s", "s", "lower", "wall_s on slide_1d"),
    ("forward.steps", "count", "lower", "wall_s on gradient_2d and slide_1d"),
    ("forward.newton_iters", "count", "lower", "wall_s on gradient_2d and slide_1d"),
    ("adjoint.solve_adjoint.calls", "count", "lower",
     "wall_s and peak_rss_mb on gradient_2d; wall_s on scalar_optimize"),
    ("adjoint.solve_adjoint.s", "s", "lower",
     "wall_s and peak_rss_mb on gradient_2d; wall_s on scalar_optimize"),
    ("adjoint.steps", "count", "lower", "wall_s on gradient_2d and scalar_optimize"),
    ("operators.apply.calls", "count", "lower", "wall_s on gradient_2d and slide_1d"),
    ("operators.apply.s", "s", "lower", "wall_s on gradient_2d and slide_1d"),
    ("operators.jacobian.calls", "count", "lower", "wall_s on gradient_2d and slide_1d"),
    ("operators.jacobian.s", "s", "lower", "wall_s on gradient_2d and slide_1d"),
    ("operators.ControlMap.resolvent_batch.calls", "count", "lower", "wall_s on scalar_optimize"),
    ("operators.ControlMap.resolvent_batch.s", "s", "lower", "wall_s on scalar_optimize"),
    ("sliding.run_sliding.s", "s", "lower", "wall_s on slide_1d"),
    ("sliding.run_sliding.self_s", "s", "lower", "wall_s on slide_1d"),
    ("sliding.sign_feedback.calls", "count", "lower", "wall_s on slide_1d"),
    ("sliding.sign_feedback.s", "s", "lower", "wall_s on slide_1d"),
    ("sliding.steps", "count", "lower", "wall_s on slide_1d"),
    ("audit.audit_hypotheses.s", "s", "lower", "wall_s on slide_1d"),
    ("audit.audit_sign_condition.s", "s", "lower", "wall_s on slide_1d"),
    ("oracle.brute_force_min_time.s", "s", "lower", "wall_s on scalar_optimize"),
    ("config.load_config.s", "s", "lower", "setup_s on every workload"),
    ("trace.wall_s", "s", "lower", "traced wall time of one run"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self.run], out)
            return out

        return wrapper

    def span(self, name):
        return _Span(self, name)

    def install(self):
        """Wrap the library functions and ``ControlMap.resolvent_batch``."""
        for module, attr, count in FUNCTIONS:
            orig = getattr(sys.modules[f"mintime.{module}"], attr)
            wrapper = self._wrap(f"{module}.{attr}", orig, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "mintime" and not mod_name.startswith("mintime."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        orig = ControlMap.__dict__["resolvent_batch"]
        self._restore.append((ControlMap, "resolvent_batch", orig))
        ControlMap.resolvent_batch = self._wrap("operators.ControlMap.resolvent_batch", orig)

    def instrument(self, spec):
        for attr in ("apply", "jacobian"):
            self._restore.append((spec, attr, _ABSENT))
            setattr(spec, attr, self._wrap(f"operators.{attr}", getattr(spec, attr)))

    def restore(self):
        while self._restore:
            target, key, orig = self._restore.pop()
            if orig is _ABSENT:
                delattr(target, key)
            else:
                setattr(target, key, orig)

    def totals(self) -> dict[int, dict[str, list]]:
        """Per run and span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            row = out[run][name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def layer_values(self) -> dict[int, dict[str, float]]:
        """Per traced run: every LAYER_METRICS value except the ``trace.*`` ones."""
        stats = ("calls", "s", "self_s")
        # sliding steps: step_implicit spans called from run_sliding
        steps: dict = defaultdict(int)
        for name, _, _, parent, run in self.spans:
            if (name == "forward.step_implicit" and parent >= 0
                    and self.spans[parent][0] == "sliding.run_sliding"):
                steps[run] += 1
        out = {}
        for run, by_name in self.totals().items():
            counts = self.counts[run]
            vals = {}
            for metric, *_ in LAYER_METRICS:
                span, _, stat = metric.rpartition(".")
                if stat in stats:
                    vals[metric] = by_name[span][stats.index(stat)]
            for key in ("timeopt.inner_iterations", "forward.steps",
                        "forward.newton_iters", "adjoint.steps"):
                vals[key] = counts[key]
            inner_calls = by_name["timeopt.inner_solve_control"][0]
            # useful outcomes over attempts; 0 when the run made no inner solve
            vals["timeopt.inner_converged_ratio"] = (
                counts["timeopt.inner_converged"] / inner_calls if inner_calls else 0.0)
            vals["sliding.steps"] = steps[run]
            out[run] = vals
        return out


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.record = [self.name, time.perf_counter(), None, parent, t.run]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)

    def __exit__(self, *exc):
        self.tracer._stack.pop()
        self.record[2] = time.perf_counter()
        return False
