"""Span tracing around kreinact's public calls, installed from outside the package.

A :class:`Tracer` replaces the names that the calling modules bound at
import time (``kreinact.cli.minimize_action``, ``kreinact.minimize.action``,
...) with wrappers that record a span ``(name, start, end, parent)`` per
call.  ``numpy.linalg.eig``/``eigvals`` are wrapped to count the matrices
they are given, attributed to the innermost open span.  Everything is kept
in memory; :meth:`Tracer.layer_metrics` turns it into the per-layer
metrics and :meth:`Tracer.dump` writes the spans when the run ends.

Nothing is installed until :meth:`Tracer.installed` is entered, and every
replaced name is restored when it exits, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np

# Names as bound in each calling module -> span name.  ``QHatEvaluator`` is
# replaced by a traced subclass instead (see ``_traced_qhat_class``).  The
# ``kreinact`` entries are the benchmark's own calls into the package.
_SPANNED = {
    "kreinact": {
        "main": "cli.main",
        "minimize_action": "minimize.minimize_action",
        "save_measure": "homomeasure.io",
        "solve": "pointwise.solve",
    },
    "kreinact.cli": {
        "minimize_action": "minimize.minimize_action",
        "pushforward": "elverify.pushforward",
        "lagrange_parameters": "elverify.lagrange_parameters",
        "el_residuals": "elverify.el_residuals",
        "load_measure": "homomeasure.io",
        "save_measure": "homomeasure.io",
    },
    "kreinact.minimize": {
        "action": "action.action",
        "pushforward": "elverify.pushforward",
        "lagrange_parameters": "elverify.lagrange_parameters",
        "el_residuals": "elverify.el_residuals",
    },
}
_QHAT_USERS = ("kreinact.cli", "kreinact.minimize")
_ELVERIFY_SPANS = {"elverify.pushforward", "elverify.lagrange_parameters", "elverify.el_residuals"}

#: Per-layer metrics reported by a traced run, in ``BENCHMARK.json`` order.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("minimize.self_s", "s"),
    ("minimize.iterations", "count"),
    ("minimize.line_search_trials", "count"),
    ("minimize.escapes", "count"),
    ("action.action_s", "s"),
    ("action.action_calls", "count"),
    ("action.action_eigensolves", "count"),
    ("action.qhat_build_s", "s"),
    ("action.qhat_builds", "count"),
    ("action.fd_eigensolves", "count"),
    ("action.analytic_eigensolves", "count"),
    ("action.qhat_eval_s", "s"),
    ("action.qhat_evals", "count"),
    ("elverify.pushforward_s", "s"),
    ("elverify.lagrange_s", "s"),
    ("elverify.el_residuals_s", "s"),
    ("elverify.qhat_evals", "count"),
    ("pointwise.solve_s", "s"),
    ("pointwise.solves", "count"),
    ("pointwise.alpha_evals", "count"),
    ("homomeasure.io_s", "s"),
)


class Tracer:
    """In-memory span recorder with eigensolve and call counters."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1].
        self.spans: list = []
        self._open: list = []
        # (innermost span name, "eig" | "eigvals") -> matrices eigensolved
        self.eigensolves: dict = {}
        self.alpha_evals = 0

    # -- spans --------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return traced

    # -- installation -------------------------------------------------------

    def _traced_qhat_class(self, base):
        tracer = self

        class TracedQHatEvaluator(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("action.qhat_build"):
                    super().__init__(*args, **kwargs)

            def evaluate(self, p):
                with tracer.span("action.qhat_eval"):
                    return base.evaluate(self, p)

            # The base class binds ``__call__`` to its own ``evaluate``.
            __call__ = evaluate

        return TracedQHatEvaluator

    def _counting_eigensolver(self, kind: str, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            matrices = math.prod(np.shape(a)[:-2])
            key = (self.spans[self._open[-1]][0] if self._open else "", kind)
            self.eigensolves[key] = self.eigensolves.get(key, 0) + matrices
            return fn(a, *args, **kwargs)

        return counted

    def _counting_alpha(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.alpha_evals += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Replace the traced names for the duration of the block."""
        # ``kreinact.action`` is the function; the module lives in sys.modules.
        action_module = importlib.import_module("kreinact.action")
        pointwise_module = importlib.import_module("kreinact.pointwise")
        saved = []

        def replace(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for module_name, names in _SPANNED.items():
                module = importlib.import_module(module_name)
                for attr, span_name in names.items():
                    replace(module, attr, self.wrap(span_name, getattr(module, attr)))
            traced_qhat = self._traced_qhat_class(action_module.QHatEvaluator)
            for module_name in _QHAT_USERS:
                replace(importlib.import_module(module_name), "QHatEvaluator", traced_qhat)
            replace(pointwise_module, "a_of_alpha", self._counting_alpha(pointwise_module.a_of_alpha))
            replace(np.linalg, "eig", self._counting_eigensolver("eig", np.linalg.eig))
            replace(np.linalg, "eigvals", self._counting_eigensolver("eigvals", np.linalg.eigvals))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self, minimize_totals: dict) -> dict:
        """Per-layer metrics; ``minimize_totals`` holds the minimizer's own counts."""
        total: dict = {}
        calls: dict = {}
        own: dict = {}
        for (name, start, end, _), self_time in zip(self.spans, self.self_times()):
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_time

        def under(parents, name):
            return sum(
                1
                for span_name, _, _, parent in self.spans
                if span_name == name and parent >= 0 and self.spans[parent][0] in parents
            )

        def eig(span_name, kind):
            return self.eigensolves.get((span_name, kind), 0)

        values = {
            "cli.self_s": own.get("cli.main", 0.0),
            "minimize.self_s": own.get("minimize.minimize_action", 0.0),
            "minimize.iterations": minimize_totals.get("iterations", 0),
            "minimize.line_search_trials": under({"minimize.minimize_action"}, "action.action"),
            "minimize.escapes": minimize_totals.get("escapes", 0),
            "action.action_s": total.get("action.action", 0.0),
            "action.action_calls": calls.get("action.action", 0),
            "action.action_eigensolves": eig("action.action", "eigvals"),
            "action.qhat_build_s": total.get("action.qhat_build", 0.0),
            "action.qhat_builds": calls.get("action.qhat_build", 0),
            "action.fd_eigensolves": eig("action.qhat_build", "eigvals"),
            "action.analytic_eigensolves": eig("action.qhat_build", "eig"),
            "action.qhat_eval_s": total.get("action.qhat_eval", 0.0),
            "action.qhat_evals": calls.get("action.qhat_eval", 0),
            "elverify.pushforward_s": total.get("elverify.pushforward", 0.0),
            "elverify.lagrange_s": total.get("elverify.lagrange_parameters", 0.0),
            "elverify.el_residuals_s": total.get("elverify.el_residuals", 0.0),
            "elverify.qhat_evals": under(_ELVERIFY_SPANS, "action.qhat_eval"),
            "pointwise.solve_s": total.get("pointwise.solve", 0.0),
            "pointwise.solves": calls.get("pointwise.solve", 0),
            "pointwise.alpha_evals": self.alpha_evals,
            "homomeasure.io_s": total.get("homomeasure.io", 0.0),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    def dump(self, path, extra: dict) -> None:
        """Write the spans (with self times) and ``extra`` as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["spans"] = [
            {
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "parent": parent,
                "self_s": self_time,
            }
            for (name, start, end, parent), self_time in zip(self.spans, self.self_times())
        ]
        doc["eigensolves"] = [
            {"span": span, "function": kind, "matrices": count}
            for (span, kind), count in sorted(self.eigensolves.items())
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
