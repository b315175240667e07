"""Classical means, the ordering chain, and the four consequence checks."""

import math

import pytest
from hypothesis import assume, given, strategies as st

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

    def test_nan_value_flags_the_decrease(self):
        # at (1e-300, 1e300) L is 0 and I is inf, and L_0.5 .. L_5 are NaN;
        # max() over the differences would keep 0 - inf = -inf
        grid = (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0)
        vals = [mean(L, 1e-300, 1e300), mean(I, 1e-300, 1e300)]
        vals += [mean(LP(p), 1e-300, 1e300) for p in grid[2:]]
        assert sum(map(math.isnan, vals)) == 4
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
