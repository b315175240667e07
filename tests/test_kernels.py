"""Beta function, adaptive integrator, Holder pairs, and kernel moments."""

import inspect
import math
import sys

import pytest
from hypothesis import given, strategies as st

import hhcheck
from hhcheck import (
    DomainError,
    HFunction,
    HolderPair,
    KERNEL_KINDS,
    NonConvergenceError,
    beta,
    integrate_adaptive,
    kernel_moment,
    parse,
)
from hhcheck.bounds import _evaluate_rule, _mean_integral
from hhcheck.kernels import check_holder_exponent, integral


class TestBeta:
    @pytest.mark.parametrize("x,y,expected", [
        (1.0, 1.0, 1.0),
        (2.0, 2.0, 1.0 / 6.0),
        (3.0, 3.0, 1.0 / 30.0),
        (2.5, 2.5, 0.0736310778185115),  # Gamma(2.5)^2 / Gamma(5)
    ])
    def test_fixtures(self, x, y, expected):
        assert beta(x, y) == pytest.approx(expected, rel=1e-14)

    def test_right_unit_argument(self):
        # beta(x, 1) = 1/x
        for x in (0.5, 1.0, 3.0, 17.0, 123.4):
            assert beta(x, 1.0) == pytest.approx(1.0 / x, rel=1e-13)

    def test_large_arguments_no_overflow(self):
        # direct Gamma would overflow long before 400
        assert beta(400.0, 2.0) == pytest.approx(1.0 / (400.0 * 401.0), rel=1e-12)

    @given(
        x=st.floats(min_value=0.1, max_value=50.0),
        y=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_symmetry(self, x, y):
        assert beta(x, y) == beta(y, x)

    @pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_nonpositive_rejected(self, x, y):
        with pytest.raises(DomainError):
            beta(x, y)


class TestHolderPair:
    def test_conjugates(self):
        hp = HolderPair.from_p(2.0)
        assert hp.q == pytest.approx(2.0)
        assert HolderPair.from_p(1.5).q == pytest.approx(3.0)
        assert HolderPair.from_p(4.0).q == pytest.approx(4.0 / 3.0)

    def test_p_must_exceed_one(self):
        for p in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises(ValueError):
                HolderPair.from_p(p)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            HolderPair(2.0, 2.5)

    def test_explicit_consistent_pair(self):
        hp = HolderPair(3.0, 1.5)
        assert hp.p == 3.0

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_p_must_be_finite(self, p):
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            check_holder_exponent(p)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            HolderPair.from_p(p)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            HolderPair(p, 1.0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -2.0])
    def test_non_conjugate_q_rejected(self, q):
        with pytest.raises(ValueError, match="not conjugate"):
            HolderPair(2.0, q)

    def test_check_returns_the_float(self):
        assert check_holder_exponent(3) == 3.0 and type(check_holder_exponent(3)) is float


class TestIntegrateAdaptive:
    def test_polynomial_exactness(self):
        for k in range(23):
            r = integrate_adaptive(lambda x, k=k: x**k, 0.0, 1.0)
            assert r.converged
            assert r.value == pytest.approx(1.0 / (k + 1), rel=1e-12)

    def test_fixtures(self):
        r = integrate_adaptive(parse("x^2"), 0.0, 1.0)
        assert r.value == pytest.approx(1.0 / 3.0, rel=1e-14)
        r = integrate_adaptive(parse("1/x"), 1.0, 2.0)
        assert r.value == pytest.approx(math.log(2.0), rel=1e-14)
        r = integrate_adaptive(parse("exp(x)"), 0.0, 1.0)
        assert r.value == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_node_and_callable_agree(self):
        node = parse("exp(x)*x^2")
        r1 = integrate_adaptive(node, 0.0, 2.0)
        r2 = integrate_adaptive(lambda x: math.exp(x) * x * x, 0.0, 2.0)
        assert r1.value == pytest.approx(r2.value, rel=1e-13)

    def test_algebraic_endpoint_singularity(self):
        # t^(1/24) has an infinite-derivative endpoint at 0
        r = integrate_adaptive(lambda t: t ** (1.0 / 24.0), 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(24.0 / 25.0, rel=1e-12)

    def test_log_endpoint_singularity(self):
        r = integrate_adaptive(parse("ln(x)"), 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(-1.0, rel=1e-12)

    def test_divergent_integral_reports_nonconvergence(self):
        r = integrate_adaptive(lambda t: 1.0 / t, 0.0, 1.0)
        assert not r.converged

    def test_error_estimate_is_honest(self):
        r = integrate_adaptive(parse("exp(x)"), 0.0, 1.0)
        assert abs(r.value - (math.e - 1.0)) <= max(r.abs_error_estimate, 1e-13)

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(parse("x"), 1.0, 0.0)

    def test_subdivision_count_positive(self):
        r = integrate_adaptive(parse("x^2"), 0.0, 1.0)
        assert r.subdivisions >= 1


IDENTITY = HFunction.identity()
SQRT_T = HFunction.power(0.5)
ONE = HFunction.one()


class TestIntegral:
    def test_converged_result_is_returned(self):
        f = parse("x^2")
        assert integral(f, 0.0, 1.0, "x^2") == integrate_adaptive(f, 0.0, 1.0)

    def test_nonconvergence_names_what_estimate_and_panels(self):
        pattern = r"^probe did not converge \(estimate \S+ after \d+ panels\)$"
        with pytest.raises(NonConvergenceError, match=pattern):
            integral(lambda t: 1.0 / t, 0.0, 1.0, "probe")

    def test_every_caller_reports_through_it(self):
        with pytest.raises(NonConvergenceError, match=r"^kernel M0 for h=1/t alpha=1 did not"
                                                      r" converge .* panels\)$"):
            kernel_moment("M0", HFunction.reciprocal(), 1.0)

    def test_name_is_formatted_only_on_failure(self, monkeypatch):
        def unexpected(self):
            raise AssertionError("the name was formatted for a converged integral")

        h = HFunction.custom(parse("t^2", var="t"))
        monkeypatch.setattr(HFunction, "describe", unexpected)
        monkeypatch.setattr(HFunction, "__str__", unexpected)
        mom = kernel_moment("M0", h, 0.5)
        assert mom.method == "adaptive" and mom.value == pytest.approx(0.5)

    def test_accuracy_is_no_parameter(self):
        # integrate_adaptive alone reads the integrator's accuracy; a verdict
        # tolerance named tol stays where a function has one
        assert list(inspect.signature(integrate_adaptive).parameters) == ["f", "a", "b"]
        for fn in (integrate_adaptive, integral, kernel_moment, _mean_integral.__wrapped__,
                   hhcheck.hh_chain, hhcheck.lemma1_residual, hhcheck.lemma2_residual,
                   hhcheck.midpoint_deviation, hhcheck.trapezoid_deviation):
            assert "tol" not in inspect.signature(fn).parameters, fn.__name__
        for fn in (_evaluate_rule, hhcheck.bound_first_derivative,
                   hhcheck.bound_second_derivative, hhcheck.certified_integrate):
            params = inspect.signature(fn).parameters
            assert "tol" in params and "quad_tol" not in params, fn.__name__

    def test_h_formats_as_its_description(self):
        for h in (HFunction.identity(), HFunction.power(0.5), HFunction.reciprocal(),
                  HFunction.custom(parse("t*(2-t)", var="t"))):
            assert f"{h}" == str(h) == h.describe()

    def test_ten_rules_compile_a_custom_h_once(self, monkeypatch):
        # compile_fn is wrapped wherever an hhcheck module binds it, as the
        # benchmark's tracer installs it; the kernels read the h built here
        original, compiled = hhcheck.expr.compile_fn, []

        def counting(node):
            compiled.append(node)
            return original(node)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "hhcheck" or name.startswith("hhcheck.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        h_expr = parse("t*(2-t)", var="t")
        cls = hhcheck.ConvexityClass("h_alpha_m", h=HFunction.custom(h_expr), alpha=0.5, m=0.9)
        hp = HolderPair.from_p(2.0)
        for rule in hhcheck.RULE_IDS:
            inst = hhcheck.BoundInstance(rule, parse("x^3"), 0.5, 1.5, cls,
                                         hp if rule in hhcheck.HOLDER_RULES else None)
            if rule in hhcheck.FIRST_DERIVATIVE_RULES:
                hhcheck.bound_first_derivative(inst)
            else:
                hhcheck.bound_second_derivative(inst)
        assert sum(node == h_expr for node in compiled) == 1


class TestKernelMoments:
    def test_kinds_exported(self):
        assert set(KERNEL_KINDS) == {"M0", "M1", "M2", "C2", "C4"}

    @pytest.mark.parametrize("kind,h,alpha,expected", [
        ("M0", IDENTITY, 1.0, 0.5),
        ("M1", IDENTITY, 1.0, 1.0 / 6.0),
        ("M2", IDENTITY, 1.0, 1.0 / 12.0),
        ("M0", SQRT_T, 1.0, 2.0 / 3.0),
        ("M0", ONE, 1.0, 1.0),
        ("M1", ONE, 0.5, 0.5),
        ("M0", IDENTITY, 0.0, 1.0),
        ("M1", IDENTITY, 0.0, 0.5),
        ("M2", IDENTITY, 0.0, 1.0 / 6.0),
    ])
    def test_closed_form_fixtures(self, kind, h, alpha, expected):
        mom = kernel_moment(kind, h, alpha)
        assert mom.method == "closed-form"
        assert mom.abs_error_estimate == 0.0
        assert mom.value == pytest.approx(expected, rel=1e-15)

    def test_c2_fixture(self):
        mom = kernel_moment("C2", IDENTITY, 1.0, hp=HolderPair.from_p(2.0))
        assert mom.value == pytest.approx(7.0 / 15.0, rel=1e-15)

    def test_c4_fixture(self):
        mom = kernel_moment("C4", IDENTITY, 1.0, hp=HolderPair.from_p(2.0))
        assert mom.value == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["M0", "M1", "M2"])
    def test_closed_form_matches_adaptive(self, kind, s, alpha, kernel_weights):
        h = IDENTITY if s == 1.0 else HFunction.power(s)
        closed = kernel_moment(kind, h, alpha)
        assert closed.method == "closed-form"
        w = kernel_weights[kind]
        r = integrate_adaptive(lambda t: w(t) * t ** (s * alpha), 0.0, 1.0)
        assert r.converged
        assert closed.value == pytest.approx(r.value, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("kind", ["C2", "C4"])
    def test_holder_kernels_match_adaptive(self, kind, p):
        hp = HolderPair.from_p(p)
        s, alpha = 0.5, 0.5
        h = HFunction.power(s)
        closed = kernel_moment(kind, h, alpha, hp=hp)
        q = hp.q
        if kind == "C2":
            w = lambda t: (1.0 - t / q) * t ** (s * alpha / q)
        else:
            w = lambda t: t ** (1.0 / q) * (1.0 - t / q) * t ** (s * alpha / q)
        r = integrate_adaptive(w, 0.0, 1.0)
        assert r.converged
        assert closed.value == pytest.approx(r.value, abs=1e-12)

    def test_moment_additivity(self):
        # weight identity: (1-t) + t = 1, so M1 + integral(t h^alpha) = M0
        for h, alpha in ((IDENTITY, 1.0), (SQRT_T, 0.5), (HFunction.power(0.75), 1.0)):
            m0 = kernel_moment("M0", h, alpha).value
            m1 = kernel_moment("M1", h, alpha).value
            s = h.s if h.kind == "power" else 1.0
            r = integrate_adaptive(lambda t: t * t ** (s * alpha), 0.0, 1.0)
            assert m1 + r.value == pytest.approx(m0, abs=1e-12)

    def test_m0_monotone_in_alpha(self):
        # larger alpha shrinks t^alpha on (0,1), so M0 decreases
        values = [kernel_moment("M0", IDENTITY, a).value for a in (0.0, 0.25, 0.5, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_reciprocal_h_smooth_case(self):
        # with h = 1/t and alpha = 1 the M2 integrand reduces to (1 - t)
        mom = kernel_moment("M2", HFunction.reciprocal(), 1.0)
        assert mom.method == "adaptive"
        assert mom.value == pytest.approx(0.5, abs=1e-12)

    def test_reciprocal_h_divergent_case(self):
        with pytest.raises(NonConvergenceError):
            kernel_moment("M0", HFunction.reciprocal(), 1.0)

    def test_custom_h(self):
        h = HFunction.custom(parse("t*(2-t)", var="t"))
        mom = kernel_moment("M0", h, 1.0)
        assert mom.method == "adaptive"
        assert mom.value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_moment("M7", IDENTITY, 1.0)
        with pytest.raises(ValueError):
            kernel_moment("M0", IDENTITY, 1.5)
        with pytest.raises(ValueError):
            kernel_moment("C2", IDENTITY, 1.0)  # needs a Holder pair
        with pytest.raises(ValueError):
            kernel_moment("M0", IDENTITY, 1.0, hp=HolderPair.from_p(2.0))


@pytest.fixture(scope="module")
def kernel_weights():
    return {
        "M0": lambda t: 1.0,
        "M1": lambda t: 1.0 - t,
        "M2": lambda t: t * (1.0 - t),
    }
