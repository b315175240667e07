"""Deviation bounds: chain, lemmas, the ten rules, and verify()."""

import math
import random
from itertools import product

import pytest

from hhcheck import (
    BoundInstance,
    ConvexityClass,
    EMPIRICAL_RULES,
    FIRST_DERIVATIVE_RULES,
    HOLDER_RULES,
    HFunction,
    HolderPair,
    RULE_IDS,
    SECOND_DERIVATIVE_RULES,
    bound_first_derivative,
    bound_second_derivative,
    build_suite,
    hh_chain,
    hypothesis_domain,
    hypothesis_function,
    lemma1_residual,
    lemma2_residual,
    midpoint_deviation,
    parse,
    to_text,
    trapezoid_deviation,
    verify,
)
from hhcheck.convexity import hypothesis_membership
from hhcheck.suite import CATALOG

BASELINE = ConvexityClass("h_alpha_m")  # h = t, alpha = 1, m = 1
SQ = parse("x^2")
EXP = parse("exp(x)")


def _run(rule, f, a, b, p=None, cls=BASELINE, variant="printed"):
    hp = HolderPair.from_p(p) if p is not None else None
    inst = BoundInstance(rule, f, a, b, cls, hp=hp)
    if rule in FIRST_DERIVATIVE_RULES:
        return bound_first_derivative(inst, variant=variant)
    return bound_second_derivative(inst)


class TestChain:
    def test_square_on_unit_interval(self):
        left, mid, right = hh_chain(SQ, 0.0, 1.0)
        assert left == pytest.approx(0.25, abs=1e-14)
        assert mid == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert right == pytest.approx(0.5, abs=1e-14)

    def test_exp_on_unit_interval(self):
        left, mid, right = hh_chain(EXP, 0.0, 1.0)
        assert left == pytest.approx(math.exp(0.5), rel=1e-13)
        assert mid == pytest.approx(math.e - 1.0, rel=1e-13)
        assert right == pytest.approx((1.0 + math.e) / 2.0, rel=1e-13)
        assert left <= mid <= right

    def test_ordering_for_convex_catalog(self):
        for text, a, b in (
            ("x^2", -1.0, 2.0),
            ("x^3", 0.1, 2.0),
            ("exp(x)", -1.0, 1.5),
            ("-ln(x)", 0.2, 3.0),
            ("1/x", 0.5, 4.0),
        ):
            left, mid, right = hh_chain(parse(text), a, b)
            assert left <= mid + 1e-12
            assert mid <= right + 1e-12


class TestDeviations:
    def test_midpoint_deviation_reciprocal(self):
        # |f(3/2) - mean of 1/x on [1,2]| = |2/3 - ln 2|
        dev = midpoint_deviation(parse("1/x"), 1.0, 2.0)
        assert dev == pytest.approx(0.026480513893278657, abs=1e-14)

    def test_trapezoid_deviation_square(self):
        # |1/2 - 1/3| = 1/6
        dev = trapezoid_deviation(SQ, 0.0, 1.0)
        assert dev == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_deviations_vanish_for_linear_f(self):
        lin = parse("3*x - 2")
        assert midpoint_deviation(lin, 0.0, 2.0) <= 1e-13
        assert trapezoid_deviation(lin, 0.0, 2.0) <= 1e-13


class TestLemmas:
    CASES = [
        ("x^2", 0.0, 1.0),
        ("x^3", 0.2, 1.7),
        ("exp(x)", -0.5, 1.0),
        ("-ln(x)", 0.3, 2.0),
        ("1/x", 0.5, 2.5),
    ]

    @pytest.mark.parametrize("text,a,b", CASES)
    def test_first_identity_residual_vanishes(self, text, a, b):
        assert lemma1_residual(parse(text), a, b) <= 1e-10

    @pytest.mark.parametrize("text,a,b", CASES)
    def test_second_identity_residual_vanishes(self, text, a, b):
        assert lemma2_residual(parse(text), a, b) <= 1e-10

    def test_second_identity_square_exact_value(self):
        # both sides equal (b-a)^2/6 for f = x^2
        a, b = 0.25, 1.75
        assert trapezoid_deviation(SQ, a, b) == pytest.approx((b - a) ** 2 / 6.0, abs=1e-13)
        assert lemma2_residual(SQ, a, b) <= 1e-12

    def test_second_identity_exp_fixture(self):
        # on [0,1] both sides equal (3 - e)/2
        assert trapezoid_deviation(EXP, 0.0, 1.0) == pytest.approx(
            (3.0 - math.e) / 2.0, abs=1e-13
        )
        assert lemma2_residual(EXP, 0.0, 1.0) <= 1e-12


class TestRuleFixtures:
    """Frozen numeric fixtures for every rule on x^2 over [0,1]."""

    def test_t1_printed(self):
        rep = _run("T1", SQ, 0.0, 1.0)
        assert rep.lhs == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert rep.rhs == pytest.approx(7.0 / 24.0, abs=1e-14)
        assert rep.holds

    def test_t1_tight_variant(self):
        rep = _run("T1", SQ, 0.0, 1.0, variant="tight")
        assert rep.rhs == pytest.approx(0.25, abs=1e-14)
        assert rep.holds
        assert any("tight variant in use" in n for n in rep.notes)

    def test_t1_exp_fixture(self):
        rep = _run("T1", EXP, 0.0, 1.0)
        assert rep.lhs == pytest.approx(0.0695605577589169, abs=1e-12)
        assert rep.rhs == pytest.approx(0.49841200758165355, abs=1e-12)

    def test_t2(self):
        rep = _run("T2", SQ, 0.0, 1.0, p=2.0)
        assert rep.rhs == pytest.approx(0.330279804909785, abs=1e-12)
        assert rep.holds

    def test_c1(self):
        rep = _run("C1", SQ, 0.0, 1.0, p=2.0)
        assert rep.rhs == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-14)
        assert rep.holds

    def test_t3(self):
        rep = _run("T3", SQ, 0.0, 1.0, p=2.0)
        assert rep.rhs == pytest.approx(0.2788387679126026, abs=1e-12)
        assert rep.holds

    def test_c2(self):
        rep = _run("C2", SQ, 0.0, 1.0, p=2.0)
        assert rep.components["moment_C2"] == pytest.approx(7.0 / 15.0, rel=1e-15)
        assert rep.rhs == pytest.approx(0.17677669529663687, abs=1e-14)
        assert rep.holds

    def test_t4_equality(self):
        rep = _run("T4", SQ, 0.0, 1.0)
        assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_t5(self):
        rep = _run("T5", SQ, 0.0, 1.0, p=2.0)
        assert rep.rhs == pytest.approx(1.0 / math.sqrt(30.0), abs=1e-14)
        assert rep.holds

    def test_c3(self):
        rep = _run("C3", SQ, 0.0, 1.0, p=2.0)
        # for constant |f''| the bracket collapses and C3 equals T5 here
        assert rep.rhs == pytest.approx(1.0 / math.sqrt(30.0), abs=1e-14)
        assert rep.holds

    def test_t6_exactly_tight(self):
        rep = _run("T6", SQ, 0.0, 1.0, p=2.0)
        assert rep.rhs == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_c4_fails_as_stated(self):
        rep = _run("C4", SQ, 0.0, 1.0, p=2.0)
        assert rep.components["moment_C4"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rep.rhs == pytest.approx(0.06804138174397717, abs=1e-14)
        assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert not rep.holds

    def test_c3_fails_as_stated_for_growing_curvature(self):
        rep = _run("C3", parse("x^3"), 0.5622, 2.3435, p=1.5)
        assert not rep.holds
        assert rep.margin < -0.1


class TestLargeP:
    """beta(p+1, p+1) leaves the normal floats near p = 510 and is 0.0 from
    p ~ 537; T5's and C3's factor beta^(1/p) does not (it tends to 1/4)."""

    @pytest.mark.parametrize("rule", ["T5", "C3"])
    @pytest.mark.parametrize("p", [600.0, 2000.0])
    def test_rows_hold(self, rule, p):
        rep = _run(rule, SQ, 0.5, 1.0, p=p)
        assert 0.24 < rep.components["beta_root"] < 0.25  # beta(p+1, p+1) itself is 0.0
        assert rep.holds and rep.rhs > 0.06

    @pytest.mark.parametrize("p", [505.0, 520.0, 530.0, 600.0, 2000.0])
    def test_prefactor_is_the_log_gamma_root(self, p):
        rep = _run("T5", SQ, 0.5, 1.0, p=p)
        root = math.exp((2.0 * math.lgamma(p + 1.0) - math.lgamma(2.0 * p + 2.0)) / p)
        assert rep.components["prefactor"] == pytest.approx(0.5 * 0.5 * 0.5 * root, rel=1e-12)

    @pytest.mark.parametrize("rule,f,p,rhs", [
        ("T5", SQ, 2.0, "0x1.75e9746a0b094p-5"),
        ("C3", SQ, 2.0, "0x1.75e9746a0b094p-5"),
        ("T5", EXP, 2.0, "0x1.a448abd2c8acbp-5"),
        ("C3", EXP, 2.0, "0x1.76e4508e2c751p-5"),
        ("T5", EXP, 1.5, "0x1.9f10a3393306dp-5"),
        ("C3", EXP, 4.0, "0x1.aead1b0d06796p-5"),
    ])
    def test_suite_p_keeps_its_bits(self, rule, f, p, rhs):
        assert _run(rule, f, 0.5, 1.0, p=p).rhs.hex() == rhs


class TestRecomposition:
    """rhs must recompose from the reported components."""

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_components_recompose(self, rule):
        p = 2.0 if rule not in ("T1", "T4") else None
        rep = _run(rule, EXP, 0.2, 1.3, p=p)
        comp = rep.components
        if "bracket_a" in comp:
            recomposed = comp["prefactor"] * (comp["bracket_a"] + comp["bracket_b"])
        else:
            recomposed = comp["prefactor"] * comp["bracket"]
        assert recomposed == pytest.approx(rep.rhs, abs=1e-12)
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=1e-15)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 600.0])  # the suite's p, and beta = 0.0
    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_rhs_rebuilds_from_the_components(self, rule, p):
        # every factor of the rhs is read from components, as the module
        # docstring writes the rule; only p comes from the instance
        cls = ConvexityClass("h_alpha_m", h=HFunction.power(0.5), alpha=0.5, m=0.9)
        holder = rule not in ("T1", "T4")
        rep = _run(rule, EXP, 0.5, 1.5, p=p if holder else None, cls=cls)
        c = rep.components
        L, m = c["length"], c["m"]
        q = c["q"] if holder else None
        mom = next(v for k, v in c.items() if k.startswith("moment_"))
        if rule in FIRST_DERIVATIVE_RULES:
            ends, dm = (c["d1_a"], c["d1_b"]), c["d1_mid"]
        else:
            ends, dm = (c["d2_a"],), c["d2_b_over_m"]

        def roots(k):
            return sum(((e ** q - m * dm ** q) * mom + m * dm ** q / k) ** (1.0 / q)
                       for e in ends)

        def linear(w, k):
            return (sum(ends) - w * m * dm) * mom + m / k * dm

        if rule in ("T5", "C3"):
            root = math.exp((2.0 * math.lgamma(p + 1.0) - math.lgamma(2.0 * p + 2.0)) / p)
            assert c["beta_root"] == pytest.approx(root, rel=1e-12)
        rhs = {
            "T1": lambda: L / 4.0 * linear(-2.0, 2.0),
            "T2": lambda: L / (4.0 * (p + 1.0) ** (1.0 / p)) * roots(1.0),
            "C1": lambda: L / (4.0 * (p + 1.0) ** (1.0 / p)) * linear(2.0, 0.5),
            "T3": lambda: L / 2.0 ** ((2.0 * p + 1.0) / p) * roots(2.0),
            "C2": lambda: L / 2.0 ** ((2.0 * p + 1.0) / p) * linear(2.0, 1.0),
            "T4": lambda: L * L / 2.0 * linear(1.0, 6.0),
            "T5": lambda: L * L / 2.0 * c["beta_root"] * roots(1.0),
            "C3": lambda: L * L / 2.0 * c["beta_root"] * linear(1.0, 1.0),
            "T6": lambda: L * L / (2.0 * 6.0 ** (1.0 / p)) * roots(6.0),
            "C4": lambda: L * L / (2.0 * 6.0 ** (1.0 / p)) * linear(1.0, 6.0),
        }[rule]()
        assert rhs == pytest.approx(rep.rhs, rel=1e-12)

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_component_keys_are_documented_shape(self, rule):
        p = 2.0 if rule not in ("T1", "T4") else None
        rep = _run(rule, EXP, 0.2, 1.3, p=p)
        assert "length" in rep.components
        assert "m" in rep.components
        assert "prefactor" in rep.components


class TestIntervalScaling:
    def test_t1_halving_width_at_fixed_center(self):
        # for f = x^2 centered at 1/2: lhs = w^2/12 quarters, rhs halves
        center = 0.5
        rep_w = _run("T1", SQ, center - 0.4, center + 0.4)
        rep_h = _run("T1", SQ, center - 0.2, center + 0.2)
        assert rep_h.lhs == pytest.approx(rep_w.lhs / 4.0, rel=1e-12)
        assert rep_h.rhs <= rep_w.rhs / 2.0 + 1e-12

    def test_t1_rhs_monotone_in_width(self):
        widths = [0.2, 0.4, 0.8, 1.6]
        rhss = [_run("T1", SQ, 1.0 - w / 2, 1.0 + w / 2).rhs for w in widths]
        assert rhss == sorted(rhss)


class TestValidation:
    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            BoundInstance("T9", SQ, 0.0, 1.0, BASELINE)

    def test_reversed_interval(self):
        with pytest.raises(ValueError):
            BoundInstance("T1", SQ, 1.0, 0.0, BASELINE)

    def test_wrong_sense(self):
        with pytest.raises(ValueError):
            BoundInstance("T1", SQ, 0.0, 1.0, ConvexityClass("plain_convex"))

    def test_holder_pair_required(self):
        with pytest.raises(ValueError):
            BoundInstance("T2", SQ, 0.0, 1.0, BASELINE)

    def test_holder_pair_rejected_for_t1_t4(self):
        hp = HolderPair.from_p(2.0)
        for rule in ("T1", "T4"):
            with pytest.raises(ValueError):
                BoundInstance(rule, SQ, 0.0, 1.0, BASELINE, hp=hp)

    def test_rule_dispatch_guards(self):
        inst = BoundInstance("T4", SQ, 0.0, 1.0, BASELINE)
        with pytest.raises(ValueError):
            bound_first_derivative(inst)
        inst = BoundInstance("T1", SQ, 0.0, 1.0, BASELINE)
        with pytest.raises(ValueError):
            bound_second_derivative(inst)

    def test_tight_variant_only_for_t1(self):
        inst = BoundInstance("T2", SQ, 0.0, 1.0, BASELINE, hp=HolderPair.from_p(2.0))
        with pytest.raises(ValueError):
            bound_first_derivative(inst, variant="tight")

    @pytest.mark.parametrize("rule", sorted(set(RULE_IDS) - {"T1"}))
    def test_verify_rejects_the_tight_variant_for_every_other_rule(self, rule, monkeypatch):
        # before the membership search, so that no search runs
        searches = []
        monkeypatch.setattr("hhcheck.bounds.hypothesis_membership",
                            lambda *args: searches.append(args))
        hp = HolderPair.from_p(2.0) if rule != "T4" else None
        inst = BoundInstance(rule, SQ, 0.0, 1.0, BASELINE, hp=hp)
        with pytest.raises(ValueError, match="the tight variant exists only for T1"):
            verify(inst, variant="tight")
        assert searches == []

    def test_rule_taxonomy(self):
        assert set(RULE_IDS) == set(FIRST_DERIVATIVE_RULES) | set(SECOND_DERIVATIVE_RULES)
        assert EMPIRICAL_RULES == {"C2", "C3", "C4"}


class TestHypothesisPlumbing:
    def test_hypothesis_function_first_order(self):
        inst = BoundInstance("T1", parse("x^3"), 0.0, 1.0, BASELINE)
        g = hypothesis_function(inst)
        assert "abs" in to_text(g)

    def test_hypothesis_function_powered(self):
        inst = BoundInstance(
            "T5", parse("x^3"), 0.0, 1.0, BASELINE, hp=HolderPair.from_p(2.0)
        )
        g = hypothesis_function(inst)
        assert "^" in to_text(g)

    def test_hypothesis_domain_covers_shifted_points(self):
        cls = ConvexityClass("h_alpha_m", m=0.5)
        inst = BoundInstance("T4", SQ, 0.5, 1.0, cls)
        dom = hypothesis_domain(inst)
        assert dom.lo <= 0.5
        assert dom.hi >= 2.0  # b/m = 2


class TestVerify:
    def test_verified_baseline(self):
        inst = BoundInstance("T4", SQ, 0.0, 1.0, BASELINE)
        rep = verify(inst, samples=300)
        assert rep.hypothesis_verified is True
        assert rep.membership is not None
        assert rep.membership.ok
        assert rep.holds

    def test_membership_counterexample_reported(self):
        cls = ConvexityClass("h_alpha_m", alpha=0.5)
        inst = BoundInstance("T4", EXP, 0.0, 1.0, cls)
        rep = verify(inst, samples=300)
        assert rep.hypothesis_verified is False
        assert rep.membership is not None
        assert rep.membership.witness is not None
        assert any("counterexample" in n for n in rep.notes)

    def test_membership_precondition_reported(self):
        # |f''| = |ln(x - 0.3)| is undefined where the m-scaled combination
        # lands, so the membership check cannot run; the bound itself is fine
        f = parse("((x-0.3)^2*(2*ln(x-0.3)-3))/4")
        cls = ConvexityClass("h_alpha_m", m=0.5)
        inst = BoundInstance("T4", f, 0.5, 1.0, cls)
        rep = verify(inst, samples=300)
        assert rep.hypothesis_verified is False
        assert rep.membership is None
        assert any("domain too narrow" in n for n in rep.notes)
        assert math.isfinite(rep.rhs)

    def test_membership_reuse(self):
        hypothesis_membership.cache_clear()
        inst = BoundInstance("T4", SQ, 0.0, 1.0, BASELINE)
        first = verify(inst, samples=200)
        second = verify(inst, samples=200)
        assert second.membership is first.membership
        assert first.hypothesis_verified is True
        assert second.hypothesis_verified is True

    def test_empirical_note_attached(self):
        inst = BoundInstance("C4", SQ, 0.0, 1.0, BASELINE, hp=HolderPair.from_p(2.0))
        rep = verify(inst, samples=200)
        assert any("no dominance guarantee" in n for n in rep.notes)

    def test_second_order_note_attached(self):
        inst = BoundInstance("T4", SQ, 0.0, 1.0, BASELINE)
        rep = verify(inst, samples=200)
        assert any("twice-differentiable" in n for n in rep.notes)


class TestIntegratorBudget:
    """Two repros whose rounding noise never met the absolute per-panel test
    once spent the 1,000-panel budget and raised NonConvergenceError. With
    the relative acceptance test and the rounding-level stop they converge,
    to the exact trapezoid deviation and the T4 rhs at h = t, alpha = m = 1,
    (L^2/2) (D2(a) + D2(b)) / 12."""

    @pytest.mark.parametrize("f, a, b", [("exp(x)", 10.0, 11.0), ("1e9*x^2", 0.0, 1.0)])
    def test_t4_reports_nonconvergence(self, f, a, b):
        rep = bound_second_derivative(BoundInstance("T4", parse(f), a, b, BASELINE))
        if f == "exp(x)":
            e10, e11 = math.exp(10.0), math.exp(11.0)
            lhs, rhs = 1.5 * e10 - 0.5 * e11, (e10 + e11) / 24.0  # |(f(a)+f(b))/2 - mean|
        else:
            lhs = rhs = 1e9 / 6.0  # T4 is an equality for x^2
        assert rep.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs, rel=1e-14)
        assert rep.holds


class TestScale:
    """f -> c f scales every integral by c. Once |f| (b - a) passed ~1e4 the
    absolute per-panel test could not be met and a rule raised
    NonConvergenceError; the relative test and the rounding-level stop keep
    every catalog rule row finite from c = 1e-12 to 1e12."""

    @pytest.mark.parametrize("text", [text for text, _ in CATALOG])
    def test_no_rule_row_raises_at_any_scale(self, text):
        rng = random.Random(text)
        a = rng.uniform(0.1, 1.0)
        b = a + rng.uniform(0.2, 2.0)
        for k in range(-12, 13):
            f = parse(f"1e{k}*({text})")
            for rule in RULE_IDS:
                rep = _run(rule, f, a, b, p=None if rule in ("T1", "T4") else 2.0)
                assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs), (text, k, rule)


class TestDominanceSmoke:
    """Anchored rules hold on a small deterministic grid (the full 200-interval
    sweep lives in the acceptance suite)."""

    ANCHORED = [r for r in RULE_IDS if r not in EMPIRICAL_RULES]

    @pytest.mark.parametrize("rule", ANCHORED)
    @pytest.mark.parametrize("text,a,b", [
        ("x^2", 0.3, 1.4),
        ("exp(x)", 0.1, 1.2),
        ("1/x", 0.8, 2.1),
    ])
    def test_anchored_rules_hold(self, rule, text, a, b):
        p = 2.0 if rule not in ("T1", "T4") else None
        rep = _run(rule, parse(text), a, b, p=p)
        assert rep.holds, f"{rule} violated on {text} [{a},{b}]: margin={rep.margin}"


class TestFlaggedRules:
    """Which rules may be flagged: a T rule's bound is a theorem, so a T row
    whose hypothesis is verified holds, in the classical cell and beyond it."""

    def test_generalized_class_sweep_flags_no_verified_t_row(self):
        # seeds 0 and 1, the catalog, h in {t, t^0.5, 1}, alpha and m in
        # three values each, every rule at p = 2: 2,700 rows, most of whose
        # hypotheses are refuted off the classical cell (h = t, alpha = m = 1)
        hp = HolderPair.from_p(2.0)
        hs = (HFunction.identity(), HFunction.power(0.5), HFunction.one())
        verified_t, rows = 0, 0
        for seed in (0, 1):
            rng = random.Random(seed)
            for name, f in CATALOG:
                a = rng.uniform(0.1, 1.5)
                b = a + rng.uniform(0.4, 1.5)
                for h, alpha, m, rule in product(hs, (0.25, 0.5, 1.0), (0.5, 0.8, 1.0), RULE_IDS):
                    cls = ConvexityClass("h_alpha_m", h, alpha, m)
                    inst = BoundInstance(rule, f, a, b, cls, hp if rule in HOLDER_RULES else None)
                    rep = verify(inst, seed=seed, samples=500)
                    rows += 1
                    if rule.startswith("T") and rep.hypothesis_verified:
                        verified_t += 1
                        assert rep.holds, (seed, name, h.describe(), alpha, m, rule)
        # the sweep reaches T rows with verified hypotheses, so it asserts something
        assert rows == 2700 and verified_t > 0

    def test_suites_flag_no_t_or_p5_row(self):
        # the flagged rows at seeds 0-59 are C3, C4, P4, P4-alt and P6 only
        for seed in range(60):
            for case in build_suite(seed).cases:
                if case.rule.startswith(("T", "P5")):  # P5 and P5-proofline
                    assert case.verdict != "flagged", (seed, case)
