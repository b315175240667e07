"""The benchmark's tracer and workloads still fit the library.

perfbench/tracer.py wraps hhcheck functions from outside the package by
rebinding module attributes, and perfbench/workloads.py calls library
functions directly, so a refactor that renames or drops one of them, or
changes a call shape they use, breaks the benchmark. These tests load both
files by path and fail first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import hhcheck
from hhcheck.convexity import hypothesis_membership

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_span_target_is_callable(tracer):
    missing = [(mod, attr) for mod, attr, _ in tracer.SPAN_TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert tracer.SPAN_TARGETS and not missing


def test_counter_targets_exist():
    assert callable(hhcheck.expr.evaluate)
    assert callable(hhcheck.convexity.evaluate_h)
    info = hhcheck.bounds._mean_integral.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_quadrature_can_skip_the_hypothesis():
    params = inspect.signature(hhcheck.certified_integrate).parameters
    assert "check_hypothesis" in params


def test_installed_tracer_counts_searches_and_uninstalls(tracer):
    original = hhcheck.bounds.verify
    inst = hhcheck.BoundInstance("T4", hhcheck.parse("x^2"), 0.0, 1.0,
                                 hhcheck.ConvexityClass("h_alpha_m"))
    hypothesis_membership.cache_clear()
    tr = tracer.Tracer()
    tr.install()
    try:
        hhcheck.bounds.verify(inst, samples=0)
        hhcheck.bounds.verify(inst, samples=0)
    finally:
        tr.uninstall()
    assert hhcheck.bounds.verify is original
    assert tr.calls["bounds.verify"] == 2
    # the second verify reuses the first one's search
    assert tr.calls["convexity.check_membership"] == 1
    assert tr.counts["convexity.triples"] == 21 * 21 * 9  # grid pass, lam in (0,1)


def test_rule_sweep_ops_run_and_check(workloads):
    w = workloads.RuleSweep(7, str(ROOT))
    specs = [w.next_input() for _ in range(16)]
    # the ops cover the adaptive kernel path and both composite rules
    assert {s["h"][0] for s in specs} >= {"t", "expr"}
    assert {s["quad"] for s in specs} == {"midpoint", "trapezoid"}
    for spec in specs:
        assert w.check(spec, w.run(spec)) == 13  # ten rules, L1, L2, one quadrature


def test_traced_rule_sweep_counts_every_custom_h_evaluation(tracer, workloads):
    # a custom h compiles when the op builds its class, after the tracer is
    # installed, so the kernel integrands' evaluations of h are still counted:
    # 2,935 evaluations, as when kernel_moment compiled h on each of its 10
    # calls; compiling it once leaves 28 compile_fn calls of 37
    w = workloads.RuleSweep(7, str(ROOT))
    spec = {"f": "x^3", "k": 0, "a": 0.5, "b": 1.5, "h": ("expr", "t*(2-t)"), "alpha": 0.5,
            "m": 0.9, "p": 2.0, "n": 4, "quad": "midpoint", "variant": "statement"}
    hhcheck.bounds._mean_integral.cache_clear()  # the evaluations of f count too
    tr = tracer.Tracer()
    tr.install()
    try:
        assert w.check(spec, w.run(spec)) == 13
    finally:
        tr.uninstall()
    assert tr.counts["expr.evals"] == 2935
    assert tr.counts["convexity.evaluate_h.calls"] == 2220
    assert tr.calls["expr.compile_fn"] == 28


def test_verify_suite_op_runs_and_checks(workloads):
    w = workloads.VerifySuite(7, str(ROOT))
    seed = w.next_input()
    assert w.check(seed, w.run(seed)) == 318
