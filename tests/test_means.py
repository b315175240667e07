"""Classical means, the ordering chain, and the four consequence checks."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, given, strategies as st

import hhcheck.means
from hhcheck import (
    MEAN_TAGS,
    MeanKind,
    PROPOSITION_IDS,
    PropositionInstance,
    check_mean_chain,
    lp_monotonicity_check,
    mean,
    proposition_check,
)
from hhcheck.means import lp_worst_decrease
from hhcheck.suite import mean_chain_rows

A = MeanKind("A")
G = MeanKind("G")
H = MeanKind("H")
L = MeanKind("L")
I = MeanKind("I")


def LP(p):
    return MeanKind("Lp", p=p)


class TestMeanFixtures:
    def test_arithmetic(self):
        assert mean(A, 1.0, 3.0) == 2.0

    def test_geometric(self):
        assert mean(G, 4.0, 9.0) == pytest.approx(6.0, rel=1e-15)

    def test_harmonic(self):
        assert mean(H, 1.0, 3.0) == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("a,b,want", [
        (1e-200, 1e-150, 2e-200), (1e200, 1e250, 2e200), (1e-200, 1e200, 2e-200),
        (1e308, 1.5e308, 1.2e308), (5e-324, 1.0, 1e-323),
    ])
    def test_harmonic_where_2ab_leaves_the_normal_floats(self, a, b, want):
        # 2ab underflows or overflows; H = a*(b/A) stays within a few ulps
        assert mean(H, a, b) == pytest.approx(want, rel=1e-15, abs=0.0) == mean(H, b, a)

    def test_harmonic_keeps_its_form_where_2ab_is_normal(self):
        for a, b in ((1.0, 3.0), (0.1, 0.7), (1e-150, 1e-150 * 3.0), (1e150, 3e150)):
            assert mean(H, a, b) == 2.0 * a * b / (a + b)

    def test_logarithmic(self):
        assert mean(L, 1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-14)
        assert mean(L, 1.0, 2.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-14)

    def test_identric(self):
        assert mean(I, 1.0, math.e) == pytest.approx(math.e ** (math.e / (math.e - 1.0) - 1.0), rel=1e-13)

    def test_p_logarithmic(self):
        # L_1 is the arithmetic mean
        assert mean(LP(1.0), 1.0, 3.0) == pytest.approx(2.0, rel=1e-14)
        # L_2(1,2) = (7/3)^(1/2)
        assert mean(LP(2.0), 1.0, 2.0) == pytest.approx(math.sqrt(7.0 / 3.0), rel=1e-14)

    def test_equal_arguments_return_argument(self):
        for kind in (A, G, H, L, I, LP(3.0), LP(0.5)):
            assert mean(kind, 1.7, 1.7) == 1.7

    def test_nearly_equal_arguments_stable(self):
        a = 1.0
        b = 1.0 + 1e-9
        for kind in (A, G, H, L, I, LP(2.0)):
            v = mean(kind, a, b)
            assert a <= v <= b

    def test_chain_fixture(self):
        values, holds = check_mean_chain(1.0, 2.0)
        assert holds
        h, g, l, i, arith = values
        assert h == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert g == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert l == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert i == pytest.approx(4.0 / math.e, rel=1e-15)
        assert arith == pytest.approx(1.5, rel=1e-15)


    def test_overflowing_ratio_keeps_l_and_i_finite(self):
        # (b - a)/a overflows at (1e-300, 1e300); L was 0 and I was inf there
        a, b = 1e-300, 1e300
        l, i = mean(L, a, b), mean(I, a, b)
        assert l == pytest.approx(b / (600.0 * math.log(10.0)), rel=1e-13)  # 7.238e296
        assert i == pytest.approx(b / math.e, rel=1e-13)  # 3.679e299
        values, holds = check_mean_chain(a, b)
        assert holds and all(map(math.isfinite, values))
        assert list(values) == sorted(values)
        assert values[2] - values[1] > 0.0  # the G -> L margin
        rows = mean_chain_rows(a, b)
        assert [r[-1] for r in rows] == ["holds"] * 4

    @pytest.mark.parametrize("a,b", [(1e-300, 1e7), (1e-300, 1.7e8), (1e-10, 1e297), (2.0, 3.0)])
    def test_finite_ratio_keeps_its_formula(self, a, b):
        r = (b - a) / a
        assert math.isfinite(r)
        assert mean(L, a, b) == (b - a) / math.log1p(r)
        assert mean(I, a, b) == a * math.exp((b / (b - a)) * math.log1p(r) - 1.0)


    def test_overflowing_ratio_keeps_lp_finite(self):
        # the form with expm1 and log1p of (b - a)/a gave NaN at p in
        # {0.5, 1, 2, 5} and raised ZeroDivisionError at p = -2
        a, b = 1e-300, 1e300
        grid = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0)
        lp = {p: mean(LP(p), a, b) for p in grid if p not in (-1.0, 0.0)}
        assert lp[-2.0] == pytest.approx(mean(G, a, b), rel=1e-13) and mean(G, a, b) == 1.0
        assert lp[0.5] == pytest.approx(b / 2.25, rel=1e-13)
        assert lp[1.0] == pytest.approx(mean(A, a, b), rel=1e-15)
        assert lp[2.0] == pytest.approx(b / math.sqrt(3.0), rel=1e-13)
        assert lp[5.0] == pytest.approx(b / 6.0 ** 0.2, rel=1e-13)
        vals = [mean(hhcheck.means.lp_kind(p), a, b) for p in grid]
        assert all(map(math.isfinite, vals)) and vals == sorted(vals)
        assert lp_monotonicity_check(a, b, grid)
        # (p + 1)*log1p((b - a)/a) overflowed expm1 here
        assert mean(LP(5.0), 1.0, 1e300) == pytest.approx(1e300 / 6.0 ** 0.2, rel=1e-13)

    @pytest.mark.parametrize("a,b,p,ref", [
        (1e-300, 1e300, 1e-20, 3.678794411714423e299),
        (1e-300, 1e300, -1e-20, 3.678794411714423e299),
        (1e-300, 1e300, 1e-12, 3.678794411716263e299),
        (1e-300, 1e300, 1e-9, 3.678794413553821e299),
        (1e-300, 1e300, -1e-9, 3.6787944098750264e299),
        (1e-300, 1e300, -0.0099, 3.660508889086844e299),  # |p|*l > 1: the log form
        (1.4e-102, 3.2e267, 1e-9, 1.1772142123372225e267),
    ])
    def test_tiny_p_where_the_ratio_overflows(self, a, b, p, ref):
        # references at 120 digits; the log form divided a cancelling
        # numerator by p here and gave b at |p| = 1e-20
        assert not math.isfinite((b - a) / a)
        assert mean(LP(p), a, b) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (1e-3, 1e3), (1.0, 1e50), (1e-200, 1e-150)])
    @pytest.mark.parametrize("p", [-3.0, -2.0, -0.5, 0.5, 1.0, 2.0, 5.0])
    def test_finite_lp_keeps_its_formula(self, a, b, p):
        r = (b - a) / a
        expected = a * (math.expm1((p + 1.0) * math.log1p(r)) / ((p + 1.0) * r)) ** (1.0 / p)
        assert math.isfinite(expected)
        assert mean(LP(p), a, b) == expected


class TestMeanKindValidation:
    def test_tags(self):
        assert set(MEAN_TAGS) == {"A", "G", "H", "L", "I", "Lp"}

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            MeanKind("Q")

    def test_lp_requires_p(self):
        with pytest.raises(ValueError):
            MeanKind("Lp")

    def test_p_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            MeanKind("A", p=2.0)

    @pytest.mark.parametrize("p", [-1.0, 0.0])
    def test_reserved_exponents_rejected(self, p):
        with pytest.raises(ValueError):
            MeanKind("Lp", p=p)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="Lp needs a finite exponent p"):
            MeanKind("Lp", p=p)

    def test_positivity_required_except_arithmetic(self):
        assert mean(A, -1.0, 3.0) == 1.0
        for kind in (G, H, L, I, LP(2.0)):
            with pytest.raises(ValueError):
                mean(kind, -1.0, 3.0)
            with pytest.raises(ValueError):
                mean(kind, 0.0, 3.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mean(A, math.inf, 1.0)
        with pytest.raises(ValueError):
            mean(A, math.nan, 1.0)


pos = st.floats(min_value=0.01, max_value=1e4)


class TestMeanProperties:
    @given(a=pos, b=pos)
    def test_symmetry_bit_exact(self, a, b):
        for kind in (A, G, H, L, I, LP(2.5)):
            assert mean(kind, a, b) == mean(kind, b, a)

    @given(a=pos)
    def test_idempotence_exact(self, a):
        for kind in (A, G, H, L, I, LP(0.5)):
            assert mean(kind, a, a) == a

    @given(a=pos, b=pos, lam=st.floats(min_value=0.25, max_value=4.0))
    def test_homogeneity(self, a, b, lam):
        for kind in (A, G, H, L, I, LP(2.0)):
            scaled = mean(kind, lam * a, lam * b)
            direct = lam * mean(kind, a, b)
            assert scaled == pytest.approx(direct, rel=1e-12)

    @given(a=pos, b=pos)
    def test_betweenness(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for kind in (A, G, H, L, I, LP(3.0)):
            v = mean(kind, a, b)
            assert lo - 1e-12 * max(1.0, lo) <= v <= hi + 1e-12 * max(1.0, hi)

    @given(a=pos, b=pos)
    def test_chain_ordering(self, a, b):
        assume(a != b)
        lo, hi = min(a, b), max(a, b)
        values, holds = check_mean_chain(lo, hi)
        assert holds
        assert list(values) == sorted(values)

    @given(a=pos, b=pos)
    def test_lp_monotone(self, a, b):
        assume(a != b)
        lo, hi = min(a, b), max(a, b)
        assert lp_monotonicity_check(lo, hi, (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0))


class TestLpEdges:
    def test_grid_with_reserved_points_maps_to_l_and_i(self):
        # p = -1 is the logarithmic mean, p = 0 the identric mean
        a, b = 1.0, 4.0
        assert lp_monotonicity_check(a, b, (-1.0, 0.0, 1.0))
        # directly: L <= I <= A
        assert mean(L, a, b) <= mean(I, a, b) <= mean(A, a, b)

    def test_large_p_approaches_max(self):
        a, b = 1.0, 2.0
        v = mean(LP(200.0), a, b)
        assert 1.9 < v < 2.0
        assert v > mean(LP(5.0), a, b)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.1, 50.0), (3.0, 3.5), (1e-3, 1e3),
                                     (100.0, 100.0001)])
    @pytest.mark.parametrize("p", [1e-300, -1e-300, 5e-324, -5e-324, 1e-20, -1e-20, 1e-12,
                                   1e-8, -1e-8, 1e-4, -1e-3, 0.0099, -0.0099])
    def test_tiny_p_matches_a_decimal_reference(self, a, b, p):
        # L_p at 80 digits; below |p| = 1e-30 that form loses its digits,
        # and L_p is I to far more than double precision
        da, db = Decimal(a), Decimal(b)
        with localcontext() as ctx:
            ctx.prec = 80
            if abs(p) <= 1e-30:
                ref = ((db * db.ln() - da * da.ln()) / (db - da) - 1).exp()
            else:
                dp = Decimal(p)
                base = (((dp + 1) * db.ln()).exp() - ((dp + 1) * da.ln()).exp()) \
                    / ((dp + 1) * (db - da))
                ref = (base.ln() / dp).exp()
            err = abs((Decimal(mean(LP(p), a, b)) - ref) / ref)
        assert err <= Decimal("1e-13")

    def test_nan_value_flags_the_decrease(self, monkeypatch):
        # a mean that gives NaN at p = 2 inside the grid: max() over the
        # differences would drop every NaN after the first
        grid = (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0)
        real = hhcheck.means.mean
        monkeypatch.setattr(hhcheck.means, "mean",
                            lambda kind, a, b: math.nan if kind.p == 2.0 else real(kind, a, b))
        worst, _ = lp_worst_decrease(1e-300, 1e300, grid)
        assert math.isnan(worst)
        assert not lp_monotonicity_check(1e-300, 1e300, grid)


class TestPropositions:
    def test_ids(self):
        assert tuple(PROPOSITION_IDS) == ("P1", "P2", "P3", "P4")

    def test_p3_fixture(self):
        out = proposition_check(PropositionInstance("P3", 1.0, 2.0, 2.0))
        assert out.lhs == pytest.approx(0.056852819440054714, abs=1e-12)
        assert out.rhs == pytest.approx(0.10269797953221858, abs=1e-10)
        assert out.holds

    def test_p1_holds_on_sample(self):
        out = proposition_check(PropositionInstance("P1", 1.0, 2.0, 2.0))
        assert out.holds

    def test_p2_holds_and_reports_alternate(self):
        out = proposition_check(PropositionInstance("P2", 1.0, 2.0, 2.0))
        assert out.holds
        assert "alt_rhs" in out.extras
        assert "alt_holds" in out.extras
        assert out.lhs == pytest.approx(1.019355685672142, abs=1e-12)
        assert out.rhs == pytest.approx(1.1306148434022023, abs=1e-12)
        assert out.extras["alt_rhs"] == pytest.approx(1.1204521381940244, abs=1e-12)

    def test_p4_fails_as_stated_and_is_recorded(self):
        out = proposition_check(PropositionInstance("P4", 1.0, 2.0, 2.0, n=2))
        assert not out.holds  # recorded, never raised
        assert out.lhs == pytest.approx(1.0 / 6.0, abs=1e-13)
        assert out.rhs == pytest.approx(0.06804138174397717, abs=1e-12)
        assert out.note and "fails" in out.note

    def test_p4_alternate_reading_present(self):
        out = proposition_check(PropositionInstance("P4", 1.0, 2.0, 2.0, n=2))
        assert "alt_rhs" in out.extras

    def test_p2_overflow_is_total(self):
        # enormous interval: the rhs exponential saturates to inf, holds=True
        out = proposition_check(PropositionInstance("P2", 1.0, 1.0e6, 1.1))
        assert math.isinf(out.rhs)
        assert out.holds

    @pytest.mark.parametrize("p", [600.0, 1e4])
    def test_p3_at_large_p_takes_the_log_gamma_root(self, p):
        # beta(p+1, p+1) is 0.0 here, and its p-th root is near 1/4
        root = math.exp((2.0 * math.lgamma(p + 1.0) - math.lgamma(2.0 * p + 2.0)) / p)
        assert 0.248 < root < 0.25
        out = proposition_check(PropositionInstance("P3", 1.0, 2.0, p))
        assert out.rhs == pytest.approx(root / mean(H, 1.0, 8.0), rel=1e-12)
        assert out.holds and out.rhs > 0.139

    @pytest.mark.parametrize("inst,lhs,rhs,holds", [
        # b^3 overflows, or a^3 underflows to 0.0: the rhs is taken in logs
        (PropositionInstance("P3", 1e-200, 1e200, 2.0), 5e199, math.inf, True),
        (PropositionInstance("P3", 1e-200, 1.0, 2.0), 5e199, math.inf, True),
        (PropositionInstance("P3", 1.0, 1e110, 2.0), 0.5, 0.5e220 * 30.0 ** -0.5, True),
        # b^n overflows: the lhs is inf
        (PropositionInstance("P4", 1.0, 2.0, 2.0, n=100000), math.inf, 3.40204e8, False),
        # b^3 and L_2^2 both overflow: the lhs's sign is unknown
        (PropositionInstance("P4", 1e-300, 1e300, 2.0, n=3), math.nan, math.inf, False),
        # b^n and n(n-1) overflow: which side is larger is unknown
        (PropositionInstance("P4", 1.0, 20.0, 2.0, n=10 ** 160), math.inf, math.inf, False),
    ], ids=("P3-b3-overflows", "P3-a3-underflows", "P3-finite-in-logs", "P4-bn-overflows",
            "P4-both-overflow", "P4-both-sides-overflow"))
    def test_an_overflowing_side_is_recorded(self, inst, lhs, rhs, holds):
        out = proposition_check(inst)
        for got, want in ((out.lhs, lhs), (out.rhs, rhs)):
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-5)
        assert out.holds is holds
        if inst.id == "P4":
            assert out.extras["alt_holds"] is holds

    @pytest.mark.parametrize("inst,lhs,rhs", [
        # 2ab underflowed to 0.0 in H, and 1/H divided by zero
        (PropositionInstance("P2", 3.7e-248, 6.1e-198, 2.0), 1.35914, math.inf),
        (PropositionInstance("P3", 1.6e-301, 7e-294, 2.0), 3.125e300, math.inf),
        # H(a^3, b^3) overflowed to inf, so the rhs was 0
        (PropositionInstance("P3", 1e100, 1e102, 2.0), 4.58483e-101, 8.94706e-98),
    ], ids=("P2-2ab-underflows", "P3-2ab-underflows", "P3-2ab-overflows"))
    def test_a_harmonic_mean_past_the_floats_is_kept_finite(self, inst, lhs, rhs):
        out = proposition_check(inst)
        assert out.lhs == pytest.approx(lhs, rel=1e-5, abs=0.0)
        assert out.rhs == pytest.approx(rhs, rel=1e-5, abs=0.0)
        assert out.holds

    def test_never_raises_across_sweep(self):
        for pid in PROPOSITION_IDS:
            for p in (1.1, 1.5, 2.0, 4.0, 10.0):
                for a, b in ((0.2, 0.7), (1.0, 9.0), (3.0, 3.5)):
                    n = 2 if pid == "P4" else None
                    out = proposition_check(PropositionInstance(pid, a, b, p, n=n))
                    assert out.lhs >= 0.0
                    assert isinstance(out.holds, bool)

    def test_deterministic(self):
        inst = PropositionInstance("P1", 0.5, 2.5, 1.5)
        assert proposition_check(inst) == proposition_check(inst)


class TestPropositionValidation:
    def test_p4_needs_n(self):
        with pytest.raises(ValueError):
            PropositionInstance("P4", 1.0, 2.0, 2.0)

    def test_n_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            PropositionInstance("P1", 1.0, 2.0, 2.0, n=2)

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            PropositionInstance("P1", 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_must_be_finite(self, p):
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            PropositionInstance("P2", 1.0, 2.0, p)

    def test_interval_must_be_positive_increasing(self):
        with pytest.raises(ValueError):
            PropositionInstance("P1", 2.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            PropositionInstance("P1", -1.0, 1.0, 2.0)

    def test_q_property(self):
        inst = PropositionInstance("P1", 1.0, 2.0, 1.5)
        assert inst.q == pytest.approx(3.0)
