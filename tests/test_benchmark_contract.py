"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py wraps hhcheck functions from outside the package by
rebinding module attributes, so a refactor that renames or drops one of
them breaks the benchmark. These tests load the tracer by path and fail
first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import hhcheck
from hhcheck.convexity import hypothesis_membership

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
