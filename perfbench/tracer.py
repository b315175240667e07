"""Span tracer for the traced benchmark runs.

Wraps hhcheck's public functions from outside the package: every module
attribute that refers to a wrapped function is rebound, including the names
other modules imported (``hhcheck.suite.check_membership``,
``hhcheck.suite.verify_bound``, ...), so nothing under ``src/`` changes.
Spans stay in memory and are written out when the run ends. Compiled
expression functions and ``evaluate`` are the hot boundary: they feed
counters (calls and time) instead of one span per call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import hhcheck.bounds
import hhcheck.convexity
import hhcheck.expr

_now = time.perf_counter_ns

# (module, attribute, boundary name). Span boundaries record a span per call.
SPAN_TARGETS = (
    ("hhcheck.expr", "parse", "expr.parse"),
    ("hhcheck.expr", "differentiate", "expr.differentiate"),
    ("hhcheck.expr", "compile_fn", "expr.compile_fn"),
    ("hhcheck.convexity", "check_membership", "convexity.check_membership"),
    ("hhcheck.kernels", "integrate_adaptive", "kernels.integrate_adaptive"),
    ("hhcheck.kernels", "kernel_moment", "kernels.kernel_moment"),
    ("hhcheck.bounds", "bound_first_derivative", "bounds.rule"),
    ("hhcheck.bounds", "bound_second_derivative", "bounds.rule"),
    ("hhcheck.bounds", "verify", "bounds.verify"),
    ("hhcheck.bounds", "lemma1_residual", "bounds.lemma"),
    ("hhcheck.bounds", "lemma2_residual", "bounds.lemma"),
    ("hhcheck.means", "mean", "means.mean"),
    ("hhcheck.means", "proposition_check", "means.proposition_check"),
    ("hhcheck.quadrature", "certified_integrate", "quadrature.certified_integrate"),
    ("hhcheck.suite", "build_suite", "suite.build_suite"),
)
# Boundaries whose name is fixed by the call site, not by a module attribute.
EXTRA_SPANS = ("cli.run",)
SPAN_NAMES = tuple(dict.fromkeys([t[2] for t in SPAN_TARGETS] + list(EXTRA_SPANS)))


class Tracer:
    """Per-boundary calls, self time and work counters, plus the span list.

    Self time of a span is its duration minus the time covered by its direct
    child spans and by the evaluator calls made directly under it.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)  # work counters, machine-independent
        self.eval_ns = 0
        self.eval_under = defaultdict(int)  # evaluator time by enclosing span
        self.spans = []  # (id, parent id, name, start ns, end ns, op)
        self.op = -1
        self._stack = []  # open spans: [id, name, start ns, child ns]
        self._next_id = 0
        self._rebound = []  # (module, attribute, original)
        self._cache_start = None

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, _now(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - frame[2]
                if stack:
                    stack[-1][3] += dur
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[3]
                self.spans.append((sid, parent, name, frame[2], end, self.op))
            if after is not None:
                after(result)
            return result

        return traced

    def evaluator(self, fn):
        stack = self._stack

        def traced(*args):
            start = _now()
            try:
                return fn(*args)
            finally:
                dur = _now() - start
                self.counts["expr.evals"] += 1
                self.eval_ns += dur
                if stack:
                    top = stack[-1]
                    top[3] += dur
                    self.eval_under[top[1]] += dur

        return traced

    def counter(self, name, fn):
        def traced(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    # -- result hooks (work counters) --------------------------------------

    def _after_membership(self, rep):
        self.counts["convexity.triples"] += rep.samples_used
        self.counts["convexity.membership_returned"] += 1
        if rep.witness is not None:
            self.counts["convexity.counterexamples"] += 1

    def _after_integral(self, res):
        self.counts["kernels.panels"] += res.subdivisions
        if not res.converged:
            self.counts["kernels.nonconverged"] += 1

    def _after_moment(self, mom):
        self.counts["kernels.moment_returned"] += 1
        if mom.method == "adaptive":
            self.counts["kernels.moment_adaptive"] += 1

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every hhcheck module attribute that names a target."""
        hooks = {
            "convexity.check_membership": self._after_membership,
            "kernels.integrate_adaptive": self._after_integral,
            "kernels.kernel_moment": self._after_moment,
        }
        plan = []
        for mod, attr, name in SPAN_TARGETS:
            orig = getattr(sys.modules[mod], attr)
            if name == "expr.compile_fn":
                wrapped = self.span(name, self._compiling(orig))
            else:
                wrapped = self.span(name, orig, hooks.get(name))
            plan.append((orig, wrapped))
        plan.append((hhcheck.expr.evaluate, self.evaluator(hhcheck.expr.evaluate)))
        plan.append((hhcheck.convexity.evaluate_h,
                     self.counter("convexity.evaluate_h.calls",
                                  hhcheck.convexity.evaluate_h)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hhcheck" or n.startswith("hhcheck."))]
        for orig, wrapped in plan:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._rebound.append((mod, attr, orig))
        self._cache_start = hhcheck.bounds._mean_integral.cache_info()

    def _compiling(self, compile_fn):
        def compiling(node):
            return self.evaluator(compile_fn(node))
        return compiling

    def uninstall(self):
        info = hhcheck.bounds._mean_integral.cache_info()
        self.counts["bounds.mean_cache.hits"] += info.hits - self._cache_start.hits
        self.counts["bounds.mean_cache.misses"] += info.misses - self._cache_start.misses
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def reset_stack(self):
        """Drop spans left open by an op that was stopped at its time cap."""
        self._stack.clear()

    # -- merging and output -------------------------------------------------

    def export(self) -> dict:
        return {
            "calls": dict(self.calls), "self_ns": dict(self.self_ns),
            "counts": dict(self.counts), "eval_ns": self.eval_ns,
            "eval_under": dict(self.eval_under), "spans": self.spans,
        }

    def merge(self, data: dict, op: int):
        """Add the export of a tracer that ran in a child process."""
        for k, v in data["calls"].items():
            self.calls[k] += v
        for k, v in data["self_ns"].items():
            self.self_ns[k] += v
        for k, v in data["counts"].items():
            self.counts[k] += v
        self.eval_ns += data["eval_ns"]
        for k, v in data["eval_under"].items():
            self.eval_under[k] += v
        base = self._next_id
        for sid, parent, name, start, end, _ in data["spans"]:
            self.spans.append((base + sid, base + parent if parent >= 0 else -1,
                               name, start, end, op))
            self._next_id = max(self._next_id, base + sid + 1)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def ratio_bases(tr: Tracer) -> dict:
    """Numerator and base of each ratio metric."""
    c = tr.counts
    hits, misses = c["bounds.mean_cache.hits"], c["bounds.mean_cache.misses"]
    return {
        "convexity.counterexample_ratio": (c["convexity.counterexamples"],
                                           c["convexity.membership_returned"]),
        "kernels.kernel_moment.adaptive_ratio": (c["kernels.moment_adaptive"],
                                                 c["kernels.moment_returned"]),
        "bounds.mean_cache.hit_ratio": (hits, hits + misses),
    }


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values from a finished tracer, keyed by metric name."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tr.calls[name]
        out[f"{name}.self_s"] = tr.self_ns[name] / 1e9
    c = tr.counts
    out["expr.evals"] = c["expr.evals"]
    out["expr.eval.self_s"] = tr.eval_ns / 1e9
    for name in ("convexity.triples", "convexity.evaluate_h.calls", "kernels.panels",
                 "kernels.nonconverged"):
        out[name] = c[name]
    for name, (num, den) in ratio_bases(tr).items():
        out[name] = num / den if den else 0.0
    return out
