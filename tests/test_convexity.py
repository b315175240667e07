"""Membership checking for the eight convexity senses."""

import pytest
from hypothesis import given, strategies as st

from hhcheck import (
    Add,
    Const,
    ConvexityClass,
    DomainError,
    DomainInterval,
    HFunction,
    Mul,
    Pow,
    PreconditionError,
    SENSES,
    Var,
    check_membership,
    evaluate,
    evaluate_h,
    parse,
)


POS = DomainInterval(0.0, 2.0)


class TestHFunction:
    def test_identity(self):
        h = HFunction.identity()
        assert evaluate_h(h, 0.3, 1.0) == pytest.approx(0.3)

    def test_power(self):
        h = HFunction.power(0.5)
        assert evaluate_h(h, 0.25, 1.0) == pytest.approx(0.5)
        # alpha exponentiates the h value
        assert evaluate_h(h, 0.25, 0.5) == pytest.approx(0.5**0.5)

    def test_constant_one(self):
        h = HFunction.one()
        assert evaluate_h(h, 0.9, 1.0) == 1.0

    def test_alpha_zero_gives_one(self):
        assert evaluate_h(HFunction.identity(), 0.3, 0.0) == 1.0

    def test_custom_expression_in_t(self):
        h = HFunction.custom(parse("t*(2-t)", var="t"))
        assert evaluate_h(h, 0.5, 1.0) == pytest.approx(0.75)

    def test_t_outside_open_interval_rejected(self):
        for t in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                evaluate_h(HFunction.identity(), t, 1.0)

    def test_negative_h_value_rejected(self):
        h = HFunction.custom(parse("t-0.5", var="t"))
        with pytest.raises(PreconditionError):
            evaluate_h(h, 0.25, 1.0)


class TestConvexityClassValidation:
    def test_defaults(self):
        cls = ConvexityClass("plain_convex")
        assert cls.sense == "plain_convex"

    def test_all_senses_constructible(self):
        ConvexityClass("plain_convex")
        ConvexityClass("s_first", s=0.5)
        ConvexityClass("s_second", s=0.5)
        ConvexityClass("alpha_m", alpha=0.5, m=0.5)
        ConvexityClass("s_alpha_m_first", alpha=0.5, m=0.5, s=0.5)
        ConvexityClass("s_alpha_m_second", alpha=0.5, m=0.5, s=0.5)
        ConvexityClass("h_plain", h=HFunction.power(0.5))
        ConvexityClass("h_alpha_m", h=HFunction.identity(), alpha=0.5, m=0.5)
        assert set(SENSES) == {
            "plain_convex", "s_first", "s_second", "alpha_m",
            "s_alpha_m_first", "s_alpha_m_second", "h_plain", "h_alpha_m",
        }

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError):
            ConvexityClass("midpoint_convex")

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=1.5),
        dict(alpha=-0.1),
        dict(m=0.0),
        dict(m=1.5),
    ])
    def test_parameter_ranges(self, kwargs):
        with pytest.raises(ValueError):
            ConvexityClass("h_alpha_m", **kwargs)

    def test_irrelevant_parameters_rejected(self):
        # plain convexity has no s knob; passing one is a caller bug
        with pytest.raises(ValueError):
            ConvexityClass("plain_convex", s=0.5)
        with pytest.raises(ValueError):
            ConvexityClass("s_second", m=0.5, s=0.5)


class TestPlainConvex:
    def test_square_is_convex(self):
        rep = check_membership(parse("x^2"), ConvexityClass("plain_convex"), POS)
        assert rep.ok
        assert rep.verdict == "no-counterexample-found"
        assert rep.witness is None

    def test_exp_is_convex(self):
        rep = check_membership(parse("exp(x)"), ConvexityClass("plain_convex"), POS)
        assert rep.ok

    def test_neg_log_is_convex(self):
        rep = check_membership(
            parse("-ln(x)"), ConvexityClass("plain_convex"), DomainInterval(0.1, 3.0)
        )
        assert rep.ok

    def test_sqrt_is_not_convex(self):
        rep = check_membership(parse("x^0.5"), ConvexityClass("plain_convex"), POS)
        assert not rep.ok
        assert rep.verdict == "counterexample"
        w = rep.witness
        assert w is not None
        # the witness must re-evaluate to a genuine violation
        assert w.lhs > w.rhs
        g = parse("x^0.5")
        mix = evaluate(g, w.lam * w.x + (1 - w.lam) * w.y)
        assert mix == pytest.approx(w.lhs, rel=1e-12)

    def test_log_like_concave_rejected(self):
        rep = check_membership(parse("ln(x+1)"), ConvexityClass("plain_convex"), POS)
        assert not rep.ok


class TestSenseReductions:
    """Degenerate parameter choices must agree with plain convexity."""

    @pytest.mark.parametrize("text,expected", [
        ("x^2", True),
        ("exp(x)", True),
        ("ln(x+1)", False),
    ])
    def test_alpha_m_at_one_one(self, text, expected):
        plain = check_membership(parse(text), ConvexityClass("plain_convex"), POS)
        am = check_membership(
            parse(text), ConvexityClass("alpha_m", alpha=1.0, m=1.0), POS
        )
        assert plain.ok == am.ok == expected

    @pytest.mark.parametrize("text,expected", [
        ("x^2", True),
        ("ln(x+1)", False),
    ])
    def test_s_second_at_one(self, text, expected):
        rep = check_membership(parse(text), ConvexityClass("s_second", s=1.0), POS)
        assert rep.ok == expected

    def test_h_alpha_m_baseline_matches_plain(self):
        baseline = ConvexityClass("h_alpha_m")  # h=t, alpha=1, m=1
        for text, expected in (("x^2", True), ("x^0.5", False)):
            rep = check_membership(parse(text), baseline, POS)
            assert rep.ok == expected


class TestIndividualSenses:
    def test_identity_in_s_first(self):
        # For weights mu, nu with mu^s + nu^s = 1 and g(x) = x:
        # g(mu x + nu y) = mu x + nu y <= mu^s x + nu^s y on x, y >= 0.
        rep = check_membership(
            parse("x"), ConvexityClass("s_first", s=0.25), DomainInterval(0.0, 5.0)
        )
        assert rep.ok

    def test_square_in_s_second(self):
        rep = check_membership(
            parse("x^2"), ConvexityClass("s_second", s=0.5), POS
        )
        assert rep.ok

    def test_exp_not_in_half_alpha_class(self):
        rep = check_membership(
            parse("exp(x)"),
            ConvexityClass("alpha_m", alpha=0.5, m=1.0),
            DomainInterval(0.0, 1.0),
        )
        assert not rep.ok
        assert rep.witness is not None

    def test_constant_in_alpha_m_for_all_alpha(self):
        g = parse("2")
        for alpha in (0.0, 0.25, 0.5, 1.0):
            rep = check_membership(
                g, ConvexityClass("alpha_m", alpha=alpha, m=1.0), DomainInterval(0.0, 1.0)
            )
            assert rep.ok, f"constant failed at alpha={alpha}"

    def test_exponent_reading_reported(self):
        rep = check_membership(
            parse("x^2"),
            ConvexityClass("s_alpha_m_second", alpha=0.5, m=1.0, s=0.5),
            POS,
        )
        assert rep.exponent_reading is not None

    def test_h_plain_linear_weight(self):
        rep = check_membership(
            parse("x^2"), ConvexityClass("h_plain", h=HFunction.identity()), POS
        )
        assert rep.ok


class TestPreconditions:
    def test_nonneg_required_for_h_senses(self):
        # x - 1 is negative on part of [0, 2]
        with pytest.raises(PreconditionError):
            check_membership(
                parse("x-1"), ConvexityClass("h_plain", h=HFunction.identity()), POS
            )

    def test_unevaluable_grid_point(self):
        with pytest.raises(PreconditionError) as exc_info:
            check_membership(
                parse("-ln(x)"),
                ConvexityClass("h_plain", h=HFunction.identity()),
                DomainInterval(0.0, 1.0),
            )
        assert "not evaluable" in str(exc_info.value)

    def test_negative_domain_rejected_for_scaled_senses(self):
        with pytest.raises(PreconditionError):
            check_membership(
                parse("x^2"),
                ConvexityClass("s_second", s=0.5),
                DomainInterval(-1.0, 1.0),
            )

    def test_combination_escaping_domain(self):
        # with m < 1 the combination lam*x + m*(1-lam)*y drops below the
        # interval, where this g is undefined
        with pytest.raises(PreconditionError) as exc_info:
            check_membership(
                parse("-ln(x-0.9)"),
                ConvexityClass("alpha_m", alpha=1.0, m=0.5),
                DomainInterval(1.0, 2.0),
            )
        assert "domain too narrow" in str(exc_info.value)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DomainInterval(2.0, 1.0)


class TestDeterminism:
    def test_same_seed_same_report(self):
        g = parse("x^0.5")
        cls = ConvexityClass("plain_convex")
        r1 = check_membership(g, cls, POS, samples=500, seed=7)
        r2 = check_membership(g, cls, POS, samples=500, seed=7)
        assert r1 == r2

    def test_seed_recorded(self):
        rep = check_membership(parse("x^2"), ConvexityClass("plain_convex"), POS, seed=99)
        assert rep.seed == 99


class TestSamples:
    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            check_membership(parse("x^2"), ConvexityClass("plain_convex"), POS, samples=-5)

    def test_zero_samples_is_the_grid_pass_alone(self):
        rep = check_membership(parse("x^2"), ConvexityClass("plain_convex"), POS, samples=0)
        assert rep.ok
        assert rep.samples_used == 21 * 21 * 11


@given(
    a=st.floats(min_value=0.0, max_value=4.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
    c=st.floats(min_value=-3.0, max_value=3.0),
)
def test_property_nonneg_quadratics_are_convex(a, b, c):
    node = Add(
        Mul(Const(a), Pow(Var("x"), Const(2.0))),
        Add(Mul(Const(b), Var("x")), Const(c)),
    )
    rep = check_membership(
        node, ConvexityClass("plain_convex"), DomainInterval(-2.0, 2.0), samples=150
    )
    assert rep.ok
