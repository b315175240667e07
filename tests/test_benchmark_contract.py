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
import json
import subprocess
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
    # |f''| = 2 of x^2: at alpha = 1 the hypothesis is plain convexity and is
    # proven; at alpha = 0.5 the prover does not take it, so it is searched
    proven, searched = (
        hhcheck.BoundInstance("T4", hhcheck.parse("x^2"), 0.0, 1.0,
                              hhcheck.ConvexityClass("h_alpha_m", alpha=alpha))
        for alpha in (1.0, 0.5))
    hypothesis_membership.cache_clear()
    counts = []
    for inst in (proven, searched):
        tr = tracer.Tracer()
        tr.install()
        try:
            hhcheck.bounds.verify(inst, samples=0)
            hhcheck.bounds.verify(inst, samples=0)
        finally:
            tr.uninstall()
        assert hhcheck.bounds.verify is original
        assert tr.calls["bounds.verify"] == 2
        counts.append((tr.calls["convexity.check_membership"], tr.counts["convexity.triples"]))
    # the second verify reuses the first one's check
    assert counts == [(0, 0), (1, 21 * 21 * 9)]  # grid pass, lam in (0,1)


def test_verify_suite_op_reaches_every_guarded_boundary(tracer, workloads):
    """Every boundary that perfbench/run.py's guard expects on verify-suite
    records calls in one traced op, the membership search included: a prover
    that took every hypothesis of a suite would fail here, not in the
    benchmark run."""
    run = _load("run")
    expected, forbidden = run.GUARD["verify-suite"]
    w = workloads.VerifySuite(7, str(ROOT))
    seed = w.next_input()
    hypothesis_membership.cache_clear()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert w.check(seed, w.run(seed)) == 318
    finally:
        tr.uninstall()
    assert {name for name in expected if tr.calls[name] == 0} == set()
    assert {name for name in forbidden if tr.calls[name] != 0} == set()
    assert tr.counts["expr.evals"] > 0
    # the 4 alpha_m hypotheses of exp(x) and x^4 at alpha 0 and 0.5 are not
    # members and are searched; every other hypothesis of this suite is proven
    assert tr.calls["convexity.check_membership"] == 4
    assert tr.calls["expr.differentiate"] > 0


def test_rule_sweep_ops_run_and_check(workloads):
    w = workloads.RuleSweep(7, str(ROOT))
    specs = [w.next_input() for _ in range(16)]
    # the ops cover the adaptive kernel path and both composite rules
    assert {s["h"][0] for s in specs} >= {"t", "expr"}
    assert {s["quad"] for s in specs} == {"midpoint", "trapezoid"}
    for spec in specs:
        assert w.check(spec, w.run(spec)) == 13  # ten rules, L1, L2, one quadrature


def test_traced_rule_sweep_counts_every_custom_h_evaluation(tracer, workloads, cold_caches):
    # a custom h compiles when the op builds its class, after the tracer is
    # installed, so the kernel integrands' evaluations of h are still counted.
    # The ten rules need 6 distinct moments (M1 for T1/T3, M0 for T2/T5, M0
    # at alpha/q for C1/C3, M2 for T4/T6, C2, C4), each integrated once.
    # Their runs visit 19 distinct panels, and h is tabulated once per panel
    # at its 15 nodes: 285 evaluations of h, where a call per node of every
    # moment made 1,350. The other 127 evaluations are f's and its
    # derivatives': 60 at the nodes of the reference integral and the two
    # lemma integrals, which converge on one plain panel each (through the
    # change of variable they took 7 or more), and 67 at single points. The
    # quad reads the reference integral of f that the rules cached, so its
    # own integral (15 evaluations, one compile) does not run
    w = workloads.RuleSweep(7, str(ROOT))
    spec = {"f": "x^3", "k": 0, "a": 0.5, "b": 1.5, "h": ("expr", "t*(2-t)"), "alpha": 0.5,
            "m": 0.9, "p": 2.0, "n": 4, "quad": "midpoint", "variant": "statement"}
    tr = tracer.Tracer()
    tr.install()
    try:
        assert w.check(spec, w.run(spec)) == 13
    finally:
        tr.uninstall()
    assert tr.counts["expr.evals"] == 412
    assert tr.counts["convexity.evaluate_h.calls"] == 285
    assert tr.calls["expr.compile_fn"] == 27


def test_verify_suite_op_runs_and_checks(workloads):
    w = workloads.VerifySuite(7, str(ROOT))
    seed = w.next_input()
    assert w.check(seed, w.run(seed)) == 318


def test_traced_cli_child_matches_the_cli():
    """perfbench/cli_child.py runs one traced CLI process. Its tracer wraps
    functions in every hhcheck module; the package registers all of them in
    sys.modules, and the tracer's lookup runs each one the CLI did not need.
    With the tracer installed it answers as `python -m hhcheck` does."""
    argv = ["check-class", "--f=x^2", "--sense", "convex", "--a", "0", "--b", "1",
            "--format", "json"]
    traced, plain = (subprocess.run([sys.executable, *cmd, *argv], capture_output=True,
                                    text=True, timeout=120, cwd=ROOT)
                     for cmd in ([str(ROOT / "perfbench" / "cli_child.py")], ["-m", "hhcheck"]))
    assert plain.returncode == 0 and json.loads(plain.stdout)["cases"]
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    calls = json.loads(traced.stderr.splitlines()[-1])["calls"]
    assert calls["cli.run"] == 1 and calls["convexity.check_membership"] == 1


def test_traced_cli_child_runs_a_subcommand_that_skips_modules():
    """`means` never needs bounds, quadrature or suite; the tracer still
    finds them, and the traced process answers as `python -m hhcheck` does."""
    argv = ["means", "--a", "1", "--b", "2", "--format", "json"]
    traced, plain = (subprocess.run([sys.executable, *cmd, *argv], capture_output=True,
                                    text=True, timeout=120, cwd=ROOT)
                     for cmd in ([str(ROOT / "perfbench" / "cli_child.py")], ["-m", "hhcheck"]))
    assert plain.returncode == 0 and json.loads(plain.stdout)["cases"]
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    calls = json.loads(traced.stderr.splitlines()[-1])["calls"]
    assert calls["cli.run"] == 1 and calls["means.mean"] > 0
