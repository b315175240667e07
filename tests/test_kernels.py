"""Beta function, adaptive integrator, Holder pairs, and kernel moments."""

import inspect
import math
import random
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
import hhcheck.kernels as kernels
from hhcheck.bounds import _evaluate_rule, _mean_integral
from hhcheck.expr import compile_fn, differentiate
from hhcheck.kernels import _adaptive_moment, _panel, check_holder_exponent, integral
from hhcheck.suite import CATALOG


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

    def test_panel_budget_bounds_the_work(self):
        # 1,600 periods need some 16,000 panels; the two passes share 1,000
        calls = []

        def f(t):
            calls.append(t)
            return math.sin(1e4 * t)

        r = integrate_adaptive(f, 0.0, 1.0)
        assert not r.converged
        assert r.subdivisions == kernels._MAX_PANELS
        assert len(calls) == 15 * kernels._MAX_PANELS

    def test_a_pole_stops_at_the_depth_limit(self):
        # the panels beside the pole settle at the rounding level, so the run
        # reaches depth 60 at the pole before it spends the budget
        r = integrate_adaptive(lambda t: 1.0 / t, 0.0, 1.0)
        assert not r.converged
        assert kernels._PLAIN_PANELS < r.subdivisions < kernels._MAX_PANELS

    @pytest.mark.parametrize("text,converged", [
        ("1/x^0.5", True), ("x^(-0.5)*exp(x)", True),
        ("1/x", False), ("1/x^2", False), ("1/x^0.9", False),
    ])
    def test_a_depth_limited_run_is_judged_by_its_summed_estimate(self, text, converged):
        # the error of a panel at a 1/sqrt(t) singularity shrinks as its
        # width^1.5, so the panel there reaches depth 60 unsettled, but the
        # sum meets the QAG test; a pole's estimate stays large
        r = integrate_adaptive(parse(text), 0.0, 1.0)
        assert r.converged == converged and r.subdivisions < kernels._MAX_PANELS
        if converged:
            assert r.abs_error_estimate <= 1e-12 * abs(r.value)
        if text == "1/x^0.5":
            assert r.value == pytest.approx(2.0, rel=1e-12)

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
        # sin(1e4 t) spends the panel budget, so the estimate leaves panels out
        pattern = (r"^probe did not converge \(estimate \S+ over the summed panels; "
                   r"the budget was spent after 1000 panels\)$")
        with pytest.raises(NonConvergenceError, match=pattern):
            integral(lambda t: math.sin(1e4 * t), 0.0, 1.0, "probe")
        # 1/t bisects to the depth limit well within the budget
        pattern = r"^pole did not converge \(estimate \S+ after \d+ panels\)$"
        with pytest.raises(NonConvergenceError, match=pattern):
            integral(lambda t: 1.0 / t, 0.0, 1.0, "pole")
        # a jump of 1e20 converges: the panels narrower than the spacing of
        # the floats near it see one side only, and 1e-12 is relative
        res = integral(lambda t: 0.0 if t < 1.0 / 3.0 else 1e20, 0.0, 1.0, "step")
        assert res.value == pytest.approx(2e20 / 3.0, rel=1e-15)

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


# kernel_moment's value per (h, kind), over alpha in (0, 0.25, 1) and, for
# C2 and C4, q in (1.5, 2, 3) within each alpha, pinned to the bit: the
# closed forms for t, t^0.5 and 1, the adaptive integrals for t*(2 - t).
_MOMENT_HEX = {
    ("t", "M0"): (
        "0x1.0000000000000p+0", "0x1.999999999999ap-1", "0x1.0000000000000p-1",
    ),
    ("t", "M1"): (
        "0x1.0000000000000p-1", "0x1.6c16c16c16c17p-2", "0x1.5555555555555p-3",
    ),
    ("t", "M2"): (
        "0x1.5555555555555p-3", "0x1.1811811811812p-3", "0x1.5555555555555p-4",
    ),
    ("t", "C2"): (
        "0x1.5555555555556p-1", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.1951951951951p-1", "0x1.4ea3f94ea3f94p-1", "0x1.86b204b9e5380p-1",
        "0x1.6666666666668p-2", "0x1.dddddddddddddp-2", "0x1.36db6db6db6dcp-1",
    ),
    ("t", "C4"): (
        "0x1.6666666666668p-2", "0x1.dddddddddddddp-2", "0x1.36db6db6db6dcp-1",
        "0x1.3d9ab1f7c93dap-2", "0x1.b31b31b31b31cp-2", "0x1.22ca83e4ff7b2p-1",
        "0x1.d41d41d41d41ep-3", "0x1.5555555555556p-2", "0x1.e666666666668p-2",
    ),
    ("t^0.5", "M0"): (
        "0x1.0000000000000p+0", "0x1.c71c71c71c71cp-1", "0x1.5555555555555p-1",
    ),
    ("t^0.5", "M1"): (
        "0x1.0000000000000p-1", "0x1.ac5701ac5701bp-2", "0x1.1111111111111p-2",
    ),
    ("t^0.5", "M2"): (
        "0x1.5555555555555p-3", "0x1.34679ace01346p-3", "0x1.d41d41d41d41dp-4",
    ),
    ("t^0.5", "C2"): (
        "0x1.5555555555556p-1", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.34c67f9b2ce61p-1", "0x1.65c2da1ff165cp-1", "0x1.97ed9c1b95d6ap-1",
        "0x1.db6db6db6db6ep-2", "0x1.27d27d27d27d3p-1", "0x1.6816816816816p-1",
    ),
    ("t^0.5", "C4"): (
        "0x1.6666666666668p-2", "0x1.dddddddddddddp-2", "0x1.36db6db6db6dcp-1",
        "0x1.50e682c5439a0p-2", "0x1.c78e1c78e1c79p-2", "0x1.2c81054eccf6ap-1",
        "0x1.1c71c71c71c72p-2", "0x1.8ef606a63bd81p-2", "0x1.1111111111111p-1",
    ),
    ("1", "M0"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    ("1", "M1"): (
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
    ),
    ("1", "M2"): (
        "0x1.5555555555555p-3", "0x1.5555555555555p-3", "0x1.5555555555555p-3",
    ),
    ("1", "C2"): (
        "0x1.5555555555556p-1", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.5555555555556p-1", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.5555555555556p-1", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1",
    ),
    ("1", "C4"): (
        "0x1.6666666666668p-2", "0x1.dddddddddddddp-2", "0x1.36db6db6db6dcp-1",
        "0x1.6666666666668p-2", "0x1.dddddddddddddp-2", "0x1.36db6db6db6dcp-1",
        "0x1.6666666666668p-2", "0x1.dddddddddddddp-2", "0x1.36db6db6db6dcp-1",
    ),
    ("t*(2 - t)", "M0"): (
        "0x1.0000000000000p+0", "0x1.bf7f714d46b96p-1", "0x1.5555555555555p-1",
    ),
    ("t*(2 - t)", "M1"): (
        "0x1.ffffffffffffep-2", "0x1.9999999999999p-2", "0x1.fffffffffffffp-3",
    ),
    ("t*(2 - t)", "M2"): (
        "0x1.5555555555555p-3", "0x1.33c61f6d2b83fp-3", "0x1.ddddddddddddep-4",
    ),
    ("t*(2 - t)", "C2"): (
        "0x1.5555555555556p-1", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1",
        "0x1.2db827b2ceabcp-1", "0x1.6014df912db83p-1", "0x1.93d6dbaba93dap-1",
        "0x1.c91ad2da89995p-2", "0x1.1e652ff776be1p-1", "0x1.5f2ab9a453d0ap-1",
    ),
    ("t*(2 - t)", "C4"): (
        "0x1.6666666666666p-2", "0x1.ddddddddddddfp-2", "0x1.36db6db6db6dbp-1",
        "0x1.501855e2fd677p-2", "0x1.c617e34c1963ep-2", "0x1.2b6a81e73fa4cp-1",
        "0x1.1e793d57b0a76p-2", "0x1.8eb304664ffa2p-2", "0x1.0f2df5d98e004p-1",
    ),
}
_PIN_H = {"t": IDENTITY, "t^0.5": SQRT_T, "1": ONE,
          "t*(2 - t)": HFunction.custom(parse("t*(2-t)", var="t"))}


@pytest.mark.parametrize("h_text,kind", sorted(_MOMENT_HEX))
def test_kernel_moment_bits_are_pinned(h_text, kind):
    h = _PIN_H[h_text]
    assert h.describe() == h_text
    if kind in ("C2", "C4"):
        hps = [HolderPair.from_p(p) for p in (3.0, 2.0, 1.5)]  # q = 1.5, 2, 3
        assert [hp.q for hp in hps] == [1.5, 2.0, 3.0]
        got = [kernel_moment(kind, h, a, hp).value.hex() for a in (0.0, 0.25, 1.0) for hp in hps]
    else:
        got = [kernel_moment(kind, h, a).value.hex() for a in (0.0, 0.25, 1.0)]
    assert tuple(got) == _MOMENT_HEX[h_text, kind]


@pytest.fixture(scope="module")
def kernel_weights():
    return {
        "M0": lambda t: 1.0,
        "M1": lambda t: 1.0 - t,
        "M2": lambda t: t * (1.0 - t),
    }


# -- the node table and the moment cache keep every bit ----------------------

def _closure_g7k15(f, lo, hi):
    """(K15, |K15 - G7|, the sum of |f| at the 15 nodes in node order)."""
    c = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    fc = f(c)
    k15 = kernels._WGK0 * fc
    g7 = kernels._WG0 * fc
    sabs = abs(fc)
    for i in range(7):
        d = hw * kernels._XGK[i]
        f1, f2 = f(c - d), f(c + d)
        sabs = sabs + abs(f1) + abs(f2)
        fs = f1 + f2
        k15 += kernels._WGK[i] * fs
        if i % 2 == 1:
            g7 += kernels._WG[i // 2] * fs
    k15 *= hw
    g7 *= hw
    return k15, abs(k15 - g7), sabs


def _closure_adapt(g, max_panels):
    """The panel loop over u in (0, 1) with a closure g that evaluates the
    scaled integrand at every node, as the loop was before the node
    tables, with the QUADPACK acceptance test."""
    total = err_total = 0.0
    panels, depth_exhausted = 0, False
    stack = [(0.0, 1.0, 0)]
    while stack and panels < max_panels:
        lo, hi, depth = stack.pop()
        val, err, sabs = _closure_g7k15(g, lo, hi)
        panels += 1
        settled = (err <= kernels._TOL * (hi - lo)
                   or err <= kernels._ROUNDING * (0.5 * (hi - lo)) * sabs)
        if settled or depth >= kernels._MAX_DEPTH:
            total += val
            err_total += err
            depth_exhausted = depth_exhausted or not settled
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    converged = not (stack or depth_exhausted) and \
        err_total <= max(kernels._TOL, kernels._TOL * abs(total))
    return hhcheck.IntegralResult(total, err_total, panels, converged)


def _closure_integrate(f, a, b, max_panels=kernels._MAX_PANELS):
    """The mapped pass as a closure: g evaluates the change of variable and
    its Jacobian at every node. The kernel moments integrate this way."""
    fc = compile_fn(f) if isinstance(f, hhcheck.Node) else f
    width = b - a

    def g(u):
        u2 = u * u
        x = a + width * (u2 * u * (10.0 - 15.0 * u + 6.0 * u2))
        jac = 30.0 * u2 * (1.0 - u) * (1.0 - u)
        return fc(x) * width * jac

    return _closure_adapt(g, max_panels)


def _closure_two_pass(f, a, b):
    """integrate_adaptive as a closure: plain nodes x = a + (b - a) u first,
    within kernels._PLAIN_PANELS panels, then the mapped pass with the rest
    of the budget if they did not converge."""
    fc = compile_fn(f) if isinstance(f, hhcheck.Node) else f
    width = b - a
    plain = _closure_adapt(lambda u: fc(a + width * u) * width, kernels._PLAIN_PANELS)
    if plain.converged:
        return plain
    mapped = _closure_integrate(f, a, b, kernels._MAX_PANELS - plain.subdivisions)
    return mapped._replace(subdivisions=plain.subdivisions + mapped.subdivisions)


def _bits(res):
    return (res.value.hex(), res.abs_error_estimate.hex(), res.subdivisions, res.converged)


H_CUSTOM = ("t*(2-t)", "t*t", "(exp(t)-1)/1.72", "t/(2-t)", "ln(1+t)/0.7")


def _kernel_integrand(kind, h, alpha, q):
    """The integrand of one kernel moment, written out as the docstring of
    kernels states it."""
    if kind == "M0":
        return lambda t: hhcheck.evaluate_h(h, t, alpha)
    if kind == "M1":
        return lambda t: (1.0 - t) * hhcheck.evaluate_h(h, t, alpha)
    if kind == "M2":
        return lambda t: t * (1.0 - t) * hhcheck.evaluate_h(h, t, alpha)
    if kind == "C2":
        return lambda t: (1.0 - t / q) * hhcheck.evaluate_h(h, t, alpha / q)
    return lambda t: t ** (1.0 / q) * (1.0 - t / q) * hhcheck.evaluate_h(h, t, alpha / q)


class TestSameBits:
    """integrate_adaptive reads its nodes from a table per panel; every
    value, estimate and panel count is the two-pass closure's. A smooth
    integrand converges on the plain pass."""

    def test_catalog_functions_on_seeded_intervals(self, cold_caches):
        rng = random.Random(17)
        for _, f in CATALOG:
            for _ in range(6):
                a = rng.uniform(0.05, 2.0)
                b = a + rng.uniform(0.01, 3.0)
                res = integrate_adaptive(f, a, b)
                assert _bits(res) == _bits(_closure_two_pass(f, a, b))
                assert res.converged and res.subdivisions <= kernels._PLAIN_PANELS

    def test_lemma_integrands(self, cold_caches):
        rng = random.Random(23)
        for _, f in CATALOG:
            fp = compile_fn(differentiate(f))
            fpp = compile_fn(differentiate(f, 2))
            for _ in range(4):
                a = rng.uniform(0.1, 1.5)
                b = a + rng.uniform(0.05, 1.5)
                c = 0.5 * (a + b)
                for g in (lambda t: (1.0 - t) * (fp(t * a + (1.0 - t) * c)
                                                 - fp(t * b + (1.0 - t) * c)),
                          lambda t: t * (1.0 - t) * fpp(t * a + (1.0 - t) * b)):
                    res = integrate_adaptive(g, 0.0, 1.0)
                    assert _bits(res) == _bits(_closure_two_pass(g, 0.0, 1.0))
                    assert res.converged and res.subdivisions <= kernels._PLAIN_PANELS

    def test_singular_and_divergent_integrands(self, cold_caches):
        # each spends the plain pass and falls back to the mapped one; 1/t
        # bisects to depth 60 near 0 there: more distinct panels than the
        # table holds, so panels are evicted and built again
        for g in (lambda t: t ** (1.0 / 24.0), lambda t: math.log(t), lambda t: 1.0 / t):
            assert _bits(integrate_adaptive(g, 0.0, 1.0)) == _bits(_closure_two_pass(g, 0.0, 1.0))
        mapped = integrate_adaptive(lambda t: 1.0 / t, 0.0, 1.0).subdivisions - kernels._PLAIN_PANELS
        assert mapped > _panel.cache_info().maxsize

    def test_both_passes_read_one_node_table(self, cold_caches):
        # x^(1/24) spends the 64 plain panels, then converges on 25 mapped
        # ones; 12 of those are panels the plain pass already tabulated
        res = integrate_adaptive(parse("x^(1/24)"), 0.0, 1.0)
        assert res.converged and res.subdivisions == kernels._PLAIN_PANELS + 25
        info = _panel.cache_info()
        assert (info.hits, info.misses) == (12, 77)

    def test_custom_h_kernel_moments(self, cold_caches):
        rng = random.Random(29)
        for text in H_CUSTOM:
            h = HFunction.custom(parse(text, var="t"))
            for kind in KERNEL_KINDS:
                alpha = round(rng.uniform(0.0, 1.0), 4)
                hp = HolderPair.from_p(round(1.0 + 10.0 ** rng.uniform(-1.0, 1.0), 4))
                q = hp.q if kind in ("C2", "C4") else None
                ref = _closure_integrate(_kernel_integrand(kind, h, alpha, q), 0.0, 1.0)
                mom = kernel_moment(kind, h, alpha, hp=hp if q is not None else None)
                assert ref.converged and mom.method == "adaptive"
                assert (mom.value.hex(), mom.abs_error_estimate.hex()) == \
                    (ref.value.hex(), ref.abs_error_estimate.hex())


def _ten_rules(h, alpha=0.5, m=0.9, p=2.0, f="x^3", a=0.5, b=1.5):
    cls = hhcheck.ConvexityClass("h_alpha_m", h=h, alpha=alpha, m=m)
    hp = HolderPair.from_p(p)
    reports = []
    for rule in hhcheck.RULE_IDS:
        inst = hhcheck.BoundInstance(rule, parse(f), a, b, cls,
                                     hp if rule in hhcheck.HOLDER_RULES else None)
        if rule in hhcheck.FIRST_DERIVATIVE_RULES:
            reports.append(hhcheck.bound_first_derivative(inst))
        else:
            reports.append(hhcheck.bound_second_derivative(inst))
    return reports


class TestMomentCache:
    def test_ten_rules_integrate_six_moments(self, monkeypatch, cold_caches):
        # the reference integral of f is warmed first, so every counted run
        # of the panel loop is a moment: M1(alpha) for T1/T3, M0(alpha) for
        # T2/T5, M0(alpha/q) for C1/C3, M2(alpha) for T4/T6, C2 and C4
        _mean_integral(parse("x^3"), 0.5, 1.5)
        calls, real = [], kernels._adapt

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "_adapt", counting)
        _ten_rules(HFunction.custom(parse("t*(2-t)", var="t")))
        assert len(calls) == 6
        info = _adaptive_moment.cache_info()
        assert (info.misses, info.hits) == (6, 4)

    def test_cached_moment_equals_a_fresh_one(self, cold_caches):
        h = HFunction.custom(parse("(exp(t)-1)/1.72", var="t"))
        hp = HolderPair.from_p(2.0)
        for kind, alpha, pair in (("M0", 0.5, None), ("M1", 0.5, None), ("M2", 0.5, None),
                                  ("M0", 0.5 / hp.q, None), ("C2", 0.5, hp), ("C4", 0.5, hp)):
            first = kernel_moment(kind, h, alpha, hp=pair)
            cached = kernel_moment(kind, h, alpha, hp=pair)
            _adaptive_moment.cache_clear()
            fresh = kernel_moment(kind, h, alpha, hp=pair)
            assert cached is first and fresh is not first
            assert (cached.kind, cached.method, cached.value.hex(),
                    cached.abs_error_estimate.hex()) == \
                (fresh.kind, fresh.method, fresh.value.hex(), fresh.abs_error_estimate.hex())

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_signed_zero_in_h_cannot_reach_a_moment(self, cold_caches, alpha):
        # h = 0*t and h = -0*t are distinct, so they have their own cache
        # entries; the sign of a zero never reaches a moment's value, in
        # either order
        zero, neg = (HFunction.custom(parse(t, var="t")) for t in ("0*t", "-0*t"))
        assert zero != neg and zero.fn(0.5) == 0.0 and str(neg.fn(0.5)) == "-0.0"
        hp = HolderPair.from_p(3.0)

        def moments(h):
            return [kernel_moment(k, h, alpha, hp=hp if k in ("C2", "C4") else None)
                    for k in KERNEL_KINDS]

        def bits(moms):
            return [(m.value.hex(), m.abs_error_estimate.hex()) for m in moms]

        alone = {}
        for h in (zero, neg):
            _adaptive_moment.cache_clear()
            alone[str(h)] = bits(moments(h))
        assert alone[str(zero)] == alone[str(neg)]
        for first, second in ((zero, neg), (neg, zero)):
            _adaptive_moment.cache_clear()
            assert bits(moments(first)) == bits(moments(second)) == alone[str(zero)]

    def test_failures_are_not_cached(self, cold_caches):
        with pytest.raises(NonConvergenceError):
            kernel_moment("M0", HFunction.reciprocal(), 1.0)
        negative = HFunction.custom(parse("t - 0.5", var="t"))
        with pytest.raises(hhcheck.PreconditionError):
            kernel_moment("M0", negative, 0.5)
        assert _adaptive_moment.cache_info().currsize == 0

    def test_closed_forms_make_no_lookup(self, cold_caches):
        kernel_moment("M0", IDENTITY, 0.5)
        kernel_moment("C4", SQRT_T, 0.5, hp=HolderPair.from_p(2.0))
        info = _adaptive_moment.cache_info()
        assert info.hits == info.misses == 0

    def test_caches_stay_bounded(self, cold_caches):
        for k in range(_panel.cache_info().maxsize + 10):
            _panel(k / 1024.0, (k + 1) / 1024.0)
        assert _panel.cache_info().currsize == _panel.cache_info().maxsize
        h = HFunction.custom(parse("t*t", var="t"))
        for k in range(_adaptive_moment.cache_info().maxsize + 5):
            kernel_moment("M0", h, k / 1000.0)
        info = _adaptive_moment.cache_info()
        assert info.currsize == info.maxsize and info.misses == info.maxsize + 5


# -- h tabulated per panel ----------------------------------------------------

_ORACLE_WEIGHTS = {
    "M0": lambda t, q: 1.0,
    "M1": lambda t, q: 1.0 - t,
    "M2": lambda t, q: t * (1.0 - t),
    "C2": lambda t, q: 1.0 - t / q,
    "C4": lambda t, q: t ** (1.0 / q) * (1.0 - t / q),
}


def _oracle_moment(kind, h, alpha, q):
    """A kernel moment as one mapped integral that calls h per node of every
    panel: the weight times evaluate_h(h, t, a), through _closure_integrate."""
    weight = _ORACLE_WEIGHTS[kind]
    a = alpha / q if kind in ("C2", "C4") else alpha
    res = _closure_integrate(lambda t: weight(t, q) * hhcheck.evaluate_h(h, t, a), 0.0, 1.0)
    res = kernels._converged(res, "kernel {} for h={} alpha={:g}", (kind, h, alpha))
    return res.value.hex(), res.abs_error_estimate.hex()


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)


_H_TEMPLATES = (
    "{c}*t + {d}*t^2",          # may be negative: PreconditionError
    "exp({c}*t)",
    "(t + {d})^{e}",
    "ln(1 + {d}*t)",
    "t/({d} + t)",
    "(t - {d})^0.5",            # undefined below t = d: DomainError
    "1/(t - 0.5) + {d}",        # the center node of (0, 1) is t = 0.5
)


@st.composite
def _moment_cases(draw):
    kind = draw(st.sampled_from(KERNEL_KINDS))
    if draw(st.integers(0, 9)) == 0:
        h = HFunction.reciprocal()
    else:
        text = draw(st.sampled_from(_H_TEMPLATES)).format(
            c=draw(st.floats(-2.0, 2.0).map(lambda v: round(v, 3))),
            d=draw(st.floats(0.05, 0.95).map(lambda v: round(v, 3))),
            e=draw(st.floats(0.25, 3.0).map(lambda v: round(v, 3))))
        h = HFunction.custom(parse(text, var="t"))
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-9, 1e-2))
    hp = HolderPair.from_p(draw(st.floats(1.05, 20.0))) if kind in ("C2", "C4") else None
    return kind, h, alpha, hp


class TestHTable:
    """kernel_moment reads h from a table per panel; every value, estimate
    and failure is that of the integral that calls h per node."""

    @given(_moment_cases())
    def test_moment_equals_the_per_node_oracle(self, case):
        kind, h, alpha, hp = case
        _adaptive_moment.cache_clear()

        def moment():
            mom = kernel_moment(kind, h, alpha, hp=hp)
            return mom.value.hex(), mom.abs_error_estimate.hex()

        q = hp.q if hp is not None else None
        assert _outcome(moment) == _outcome(lambda: _oracle_moment(kind, h, alpha, q))

    @pytest.mark.parametrize("h,alpha,error", [
        ("t - 0.5", 0.5, hhcheck.PreconditionError),
        ("(t - 0.3)^0.5", 0.5, DomainError),
        (None, 1.0, NonConvergenceError),
    ])
    def test_each_failure_is_the_oracles(self, cold_caches, h, alpha, error):
        h = HFunction.reciprocal() if h is None else HFunction.custom(parse(h, var="t"))
        for kind in ("M0", "M1"):
            with pytest.raises(error) as got:
                kernel_moment(kind, h, alpha)
            with pytest.raises(error) as want:
                _oracle_moment(kind, h, alpha, None)
            assert str(got.value) == str(want.value)

    def test_ten_rules_tabulate_h_once_per_panel(self, monkeypatch, cold_caches):
        # the six moments visit 19 distinct panels; h is evaluated at the 15
        # nodes of each once, where a call per node of every moment's
        # integrand made 1,350 evaluations
        calls, real = [0], kernels.evaluate_h

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(kernels, "evaluate_h", counting)
        _ten_rules(HFunction.custom(parse("t*(2-t)", var="t")))
        assert calls[0] == 19 * 15
        info = kernels._h_table.cache_info()
        assert (info.currsize, info.misses) == (19, 19)
