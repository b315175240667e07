"""Composite rules, a priori error bounds, and certified integration."""

import math
import random

import pytest

from hhcheck import (
    Partition,
    QUAD_FUNCTIONS,
    build_suite,
    certified_integrate,
    error_bound_midpoint,
    error_bound_trapezoid,
    integrate_adaptive,
    midpoint_rule,
    parse,
    trapezoid_rule,
    uniform_partition,
)
from hhcheck import kernels, quadrature
from hhcheck.convexity import hypothesis_membership
from hhcheck.expr import compile_fn, differentiate

SQ = parse("x^2")
EXP = parse("exp(x)")


class TestPartition:
    def test_uniform_endpoints_exact(self):
        K = uniform_partition(0.1, 2.3, 7)
        assert K.points[0] == 0.1
        assert K.points[-1] == 2.3
        assert K.n == 7
        assert len(K.points) == 8

    def test_uniform_spacing(self):
        K = uniform_partition(0.0, 1.0, 4)
        assert K.points == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_bit_reproducible(self):
        assert uniform_partition(0.1, 0.9, 13) == uniform_partition(0.1, 0.9, 13)

    def test_explicit_points(self):
        K = Partition((0.0, 0.3, 1.0))
        assert K.n == 2
        assert K.a == 0.0 and K.b == 1.0

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValueError):
            Partition((0.0, 0.7, 0.3))

    def test_at_least_two_points(self):
        with pytest.raises(ValueError):
            Partition((1.0,))

    def test_n_positive(self):
        with pytest.raises(ValueError):
            uniform_partition(0.0, 1.0, 0)


class TestCompositeRules:
    def test_midpoint_single_panel(self):
        assert midpoint_rule(SQ, uniform_partition(0.0, 1.0, 1)) == 0.25

    def test_midpoint_two_panels(self):
        assert midpoint_rule(SQ, uniform_partition(0.0, 1.0, 2)) == pytest.approx(
            5.0 / 16.0, abs=1e-16
        )

    def test_trapezoid_single_panel(self):
        assert trapezoid_rule(SQ, uniform_partition(0.0, 1.0, 1)) == 0.5

    def test_trapezoid_two_panels(self):
        assert trapezoid_rule(SQ, uniform_partition(0.0, 1.0, 2)) == pytest.approx(
            3.0 / 8.0, abs=1e-16
        )

    def test_exact_for_linear(self):
        lin = parse("2*x + 1")
        K = uniform_partition(0.0, 3.0, 5)
        assert midpoint_rule(lin, K) == pytest.approx(12.0, rel=1e-15)
        assert trapezoid_rule(lin, K) == pytest.approx(12.0, rel=1e-15)

    def test_convex_sandwich(self):
        for text, a, b in (("x^2", 0.0, 1.0), ("exp(x)", -1.0, 1.0), ("1/x", 1.0, 2.0)):
            f = parse(text)
            ref = integrate_adaptive(f, a, b).value
            for n in (1, 2, 5, 16):
                K = uniform_partition(a, b, n)
                assert midpoint_rule(f, K) <= ref + 1e-12
                assert trapezoid_rule(f, K) >= ref - 1e-12

    def test_non_uniform_partition(self):
        K = Partition((0.0, 0.5, 1.0, 2.0))
        expected = 0.5 * 0.25**2 + 0.5 * 0.75**2 + 1.0 * 1.5**2
        assert midpoint_rule(SQ, K) == pytest.approx(expected, rel=1e-15)


class TestErrorBoundMidpoint:
    def test_frozen_fixture_statement(self):
        # f = x^2, one panel on [0,1], p = 2
        K = uniform_partition(0.0, 1.0, 1)
        assert error_bound_midpoint(SQ, K, 2.0) == pytest.approx(
            0.17677669529663687, abs=1e-15
        )

    def test_statement_equals_proofline(self):
        for text in ("x^2", "exp(x)", "x^4"):
            f = parse(text)
            for n in (1, 3, 8):
                K = uniform_partition(0.0, 1.0, n)
                for p in (1.5, 2.0, 4.0):
                    s = error_bound_midpoint(f, K, p, variant="statement")
                    pr = error_bound_midpoint(f, K, p, variant="proofline")
                    assert s == pytest.approx(pr, rel=1e-15)

    def test_unknown_variant(self):
        K = uniform_partition(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            error_bound_midpoint(SQ, K, 2.0, variant="other")

    def test_p_must_exceed_one(self):
        K = uniform_partition(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            error_bound_midpoint(SQ, K, 1.0)

    def test_halving_ratio_near_half(self):
        # the bound scales like h^2 * sum of n first-derivative magnitudes,
        # so doubling n roughly halves it for smooth f
        for k in (4, 8):
            b1 = error_bound_midpoint(EXP, uniform_partition(0.0, 1.0, k), 2.0)
            b2 = error_bound_midpoint(EXP, uniform_partition(0.0, 1.0, 2 * k), 2.0)
            assert 0.45 <= b2 / b1 <= 0.55


class TestErrorBoundTrapezoid:
    def test_frozen_fixture(self):
        # f = x^2, one panel on [0,1], alpha = 1, m = 1, p = 2
        K = uniform_partition(0.0, 1.0, 1)
        assert error_bound_trapezoid(SQ, K, 1.0, 1.0, 2.0) == pytest.approx(
            7.0 / (12.0 * math.sqrt(6.0)), abs=1e-15
        )

    def test_alpha_zero_drops_second_term(self):
        K = uniform_partition(0.0, 1.0, 2)
        b0 = error_bound_trapezoid(SQ, K, 0.0, 1.0, 2.0)
        b1 = error_bound_trapezoid(SQ, K, 1.0, 1.0, 2.0)
        assert b0 < b1

    def test_parameter_validation(self):
        K = uniform_partition(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            error_bound_trapezoid(SQ, K, 1.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            error_bound_trapezoid(SQ, K, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            error_bound_trapezoid(SQ, K, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_must_be_finite(self, p):
        K = uniform_partition(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            error_bound_trapezoid(SQ, K, 1.0, 1.0, p)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            error_bound_midpoint(SQ, K, p)


class TestCertifiedIntegrate:
    def test_midpoint_report_square(self):
        rep = certified_integrate(SQ, 0.0, 1.0, n=1, rule="midpoint", p=2.0)
        assert rep.rule == "midpoint"
        assert rep.value == 0.25
        assert rep.reference == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert rep.true_error == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert rep.apriori_bound == pytest.approx(0.17677669529663687, abs=1e-15)
        assert rep.bound_source == "P5"
        assert rep.holds
        assert rep.hypothesis_verified is True

    def test_value_plus_residual_is_reference(self):
        for rule in ("midpoint", "trapezoid"):
            rep = certified_integrate(EXP, 0.0, 1.0, n=4, rule=rule)
            assert rep.value + rep.signed_residual == pytest.approx(
                rep.reference, abs=1e-12
            )
            assert rep.true_error == abs(rep.signed_residual)

    def test_trapezoid_bound_source(self):
        rep = certified_integrate(SQ, 0.0, 1.0, n=2, rule="trapezoid", alpha=1.0)
        assert rep.bound_source == "P6"
        assert rep.holds

    def test_proofline_variant_label(self):
        rep = certified_integrate(SQ, 0.0, 1.0, n=1, rule="midpoint", variant="proofline")
        assert rep.bound_source == "P5-proofline"
        assert rep.apriori_bound == pytest.approx(0.17677669529663687, abs=1e-15)

    def test_unverifiable_hypothesis_reported_not_raised(self):
        # |f''| = exp(x) is not in the (0.5, 1) class, so the trapezoid
        # hypothesis fails; the report still carries the bound outcome
        rep = certified_integrate(EXP, 0.0, 1.0, n=4, rule="trapezoid", alpha=0.5)
        assert rep.hypothesis_verified is False
        assert rep.membership is not None
        assert rep.membership.witness is not None
        assert math.isfinite(rep.apriori_bound)

    def test_membership_reuse(self):
        hypothesis_membership.cache_clear()
        first = certified_integrate(EXP, 0.0, 1.0, n=2, rule="midpoint", samples=200)
        second = certified_integrate(EXP, 0.0, 1.0, n=8, rule="midpoint", samples=200)
        assert second.membership is first.membership
        assert first.hypothesis_verified is True
        assert second.hypothesis_verified is True

    def test_check_hypothesis_off(self):
        rep = certified_integrate(SQ, 0.0, 1.0, n=1, check_hypothesis=False)
        assert rep.hypothesis_verified is None
        assert rep.membership is None

    def test_explicit_points(self):
        rep = certified_integrate(SQ, 0.0, 1.0, points=(0.0, 0.25, 1.0))
        assert rep.holds
        assert rep.value == pytest.approx(
            0.25 * 0.125**2 + 0.75 * 0.625**2, rel=1e-14
        )

    def test_points_must_span_interval(self):
        with pytest.raises(ValueError):
            certified_integrate(SQ, 0.0, 1.0, points=(0.0, 0.5, 0.9))
        with pytest.raises(ValueError):
            certified_integrate(SQ, 0.0, 1.0, points=(0.1, 0.5, 1.0))

    def test_n_or_points_required(self):
        with pytest.raises(ValueError):
            certified_integrate(SQ, 0.0, 1.0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            certified_integrate(SQ, 0.0, 1.0, n=2, rule="simpson")

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    @pytest.mark.parametrize("alpha,m,message", [
        (7.0, -3.0, "alpha must lie in [0,1], got 7.0"),
        (-0.5, 1.0, "alpha must lie in [0,1], got -0.5"),
        (1.0, 0.0, "m must lie in (0,1], got 0.0"),
        (0.5, 1.5, "m must lie in (0,1], got 1.5"),
    ])
    def test_alpha_and_m_out_of_range_for_either_rule(self, rule, alpha, m, message):
        # the midpoint rule reads neither, but takes no value the class rejects
        with pytest.raises(ValueError) as exc:
            certified_integrate(SQ, 0.0, 1.0, n=2, rule=rule, alpha=alpha, m=m)
        assert str(exc.value) == message

    def test_deterministic(self):
        r1 = certified_integrate(EXP, 0.0, 1.0, n=4, rule="trapezoid", seed=3)
        r2 = certified_integrate(EXP, 0.0, 1.0, n=4, rule="trapezoid", seed=3)
        assert r1 == r2


def _count_integrals(monkeypatch):
    """Route integrate_adaptive through a counter of [calls, panels]."""
    work, real = [0, 0], kernels.integrate_adaptive

    def counting(f, a, b):
        res = real(f, a, b)
        work[0] += 1
        work[1] += res.subdivisions
        return res

    monkeypatch.setattr(kernels, "integrate_adaptive", counting)
    return work


class TestReferenceIntegral:
    """The reference integral of one (f, a, b) runs once, in `bounds`."""

    def test_reference_is_the_adaptive_integral(self):
        rep = certified_integrate(EXP, 0.3, 1.7, n=4)
        assert rep.reference == integrate_adaptive(EXP, 0.3, 1.7).value

    def test_second_partition_runs_no_new_integral(self, monkeypatch, cold_caches):
        work = _count_integrals(monkeypatch)
        f = parse("x^3+x")
        first = certified_integrate(f, 0.2, 1.1, n=3, check_hypothesis=False)
        second = certified_integrate(f, 0.2, 1.1, n=9, check_hypothesis=False)
        assert work[0] == 1 and first.reference == second.reference


def _per_panel(f, K, rule):
    """The trapezoid rule or the midpoint bound's sum as it was written per
    panel, calling f (or f') at both ends of every panel."""
    if rule == "trapezoid":
        fc = compile_fn(f)
        total = 0.0
        for u, v in zip(K.points, K.points[1:]):
            total += 0.5 * (fc(u) + fc(v)) * (v - u)
        return total
    fp = compile_fn(differentiate(f))
    coeff = 0.5 / 2.0 ** ((2.0 * 2.0 + 1.0) / 2.0)  # p = 2, statement
    total = 0.0
    for u, v in zip(K.points, K.points[1:]):
        h = v - u
        total += coeff * h * h * (abs(fp(u)) + abs(fp(v)))
    return total


def _outcome(call):
    try:
        return call().hex()
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)


class TestOnePointOneEvaluation:
    """trapezoid_rule and error_bound_midpoint evaluate once per point of the
    partition; every value and every first failure is the per-panel sum's."""

    @pytest.mark.parametrize("rule", ["trapezoid", "midpoint"])
    def test_same_bits_and_errors(self, rule):
        rng = random.Random(31)
        ours = (trapezoid_rule if rule == "trapezoid"
                else lambda f, K: error_bound_midpoint(f, K, 2.0))
        # the last two are undefined below x = 0.6 and on (0.8, 1.0): a
        # failure at the first point or at an inner one
        for text in ("x^3+x", "exp(-0.7*x)+x^2", "1/(x+0.3)", "x*ln(x)", "ln(x - 0.6)",
                     "((x - 0.9)^2 - 0.01)^0.5"):
            f = parse(text)
            for n in (1, 2, 5, 17):
                a = rng.uniform(0.1, 0.8)
                pts = sorted(rng.uniform(a, a + 1.5) for _ in range(n - 1))
                K = Partition((a, *pts, a + 1.5))
                assert _outcome(lambda: ours(f, K)) == _outcome(lambda: _per_panel(f, K, rule))

    def test_each_point_is_evaluated_once(self, monkeypatch):
        calls = []
        real = quadrature.compile_fn

        def counting(node):
            fn = real(node)
            return lambda x: calls.append(x) or fn(x)

        monkeypatch.setattr(quadrature, "compile_fn", counting)
        K = uniform_partition(0.5, 1.5, 8)
        trapezoid_rule(EXP, K)
        error_bound_midpoint(EXP, K, 2.0)
        assert calls == list(K.points) * 2


def test_build_suite_integral_work(monkeypatch, cold_caches):
    """A machine-independent guard on the integrator: adaptive integrals
    and their panels for one suite with cold caches."""
    work = _count_integrals(monkeypatch)
    build_suite(42)
    # the 45 quad rows integrate their 3 functions once each; every integral
    # converges on plain panels, 1 to 9 of them
    assert work == [53, 85]


def test_build_suite_integrals_never_take_the_map(monkeypatch, cold_caches):
    """Every integral of build_suite at seeds 0-59 converges on the plain
    pass: every run of the panel loop has the plain pass's budget, so none
    is a mapped pass (the suite's kernel moments are closed forms)."""
    runs, real = [], kernels._adapt

    def recording(values, max_panels=kernels._MAX_PANELS):
        res = real(values, max_panels)
        runs.append((max_panels, res.converged, res.subdivisions))
        return res

    monkeypatch.setattr(kernels, "_adapt", recording)
    for seed in range(60):
        build_suite(seed)
    assert runs and {budget for budget, _, _ in runs} == {kernels._PLAIN_PANELS}
    assert all(ok and n <= kernels._PLAIN_PANELS for _, ok, n in runs)


class TestConvergenceOrder:
    @pytest.mark.parametrize("text", ["x^3", "exp(x)"])
    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    def test_error_ratio_is_quadratic(self, text, rule):
        f = parse(text)
        ref = integrate_adaptive(f, 0.0, 1.0).value
        fn = (midpoint_rule if rule == "midpoint" else trapezoid_rule)
        for k in (4, 8, 16):
            e1 = abs(fn(f, uniform_partition(0.0, 1.0, k)) - ref)
            e2 = abs(fn(f, uniform_partition(0.0, 1.0, 2 * k)) - ref)
            ratio = e2 / e1
            assert 0.2 <= ratio <= 0.3, f"{rule} {text} k={k}: ratio={ratio}"


class TestDominanceSmoke:
    def test_p5_dominates_on_catalog(self):
        for text, f in QUAD_FUNCTIONS:
            for n in (1, 4, 16):
                rep = certified_integrate(f, 0.0, 1.0, n=n, rule="midpoint", p=2.0)
                assert rep.holds, f"{text} n={n}"
