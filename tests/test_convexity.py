"""Membership checking for the eight convexity senses."""

import inspect
import math
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import hhcheck.convexity as convexity
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
    build_suite,
    check_membership,
    compile_fn,
    evaluate,
    evaluate_h,
    parse,
)
from hhcheck.convexity import (
    SENSE_PARAMS,
    MembershipReport,
    Witness,
    _grid_points,
    hypothesis_membership,
    relative_slack,
    within,
)


POS = DomainInterval(0.0, 2.0)

# The oracle's reading of the sense definitions, written out here so that a
# sense dropped from the search's own sets shows: the h senses take lam in
# (0,1) and, with the s-(alpha,m) senses, a non-negative g; the (alpha,m)
# and s senses are defined on [0,inf).
OPEN_SENSES = frozenset({"h_plain", "h_alpha_m"})
NONNEG_SENSES = frozenset({"h_plain", "h_alpha_m", "s_alpha_m_first", "s_alpha_m_second"})
NONNEG_DOMAIN_SENSES = frozenset(
    {"alpha_m", "s_first", "s_second", "s_alpha_m_first", "s_alpha_m_second"})


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

    def test_each_kind_is_one_table_row(self):
        # fn is h, exponent the u with h(t) = t^u (None off the power
        # family), and describe() the text of h
        rows = [(HFunction.identity(), 0.25, 1.0, "t"), (HFunction.power(0.5), 0.5, 0.5, "t^0.5"),
                (HFunction.one(), 1.0, 0.0, "1"), (HFunction.reciprocal(), 4.0, None, "1/t"),
                (HFunction.custom(parse("t*(2-t)", var="t")), 0.4375, None, "t*(2 - t)")]
        for h, h_of_quarter, exponent, text in rows:
            assert (h.fn(0.25), h.exponent, h.describe()) == (h_of_quarter, exponent, text)

    def test_table_attributes_are_not_fields(self):
        a, b = (HFunction.custom(parse("t*(2-t)", var="t")) for _ in range(2))
        assert a.fn is not b.fn and a == b and hash(a) == hash(b)
        assert repr(HFunction.power(0.5)) == "HFunction(kind='power', s=0.5, expr=None)"
        for h in (a, HFunction.power(0.5), HFunction.identity()):
            copy = pickle.loads(pickle.dumps(h))
            assert copy == h and copy.fn(0.25) == h.fn(0.25)

    def test_evaluate_h_takes_no_compiled_function(self):
        # a custom h is compiled once, when the HFunction is built
        assert list(inspect.signature(evaluate_h).parameters) == ["h", "t", "alpha"]


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

    def test_exact_tie_is_not_a_counterexample(self):
        # for g(x) = x both sides are the same float expression, on the grid
        # and on every random triple
        rep = check_membership(parse("x"), ConvexityClass("plain_convex"), POS,
                               samples=300, tol=0.0)
        assert rep.ok
        assert rep.samples_used == 21 * 21 * 11 + 300

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

    @pytest.mark.parametrize("sense", sorted(NONNEG_DOMAIN_SENSES))
    def test_negative_domain_rejected_for_scaled_senses(self, sense):
        with pytest.raises(PreconditionError, match=r"is defined on \[0,inf\)"):
            check_membership(parse("x^2"), ConvexityClass(sense), DomainInterval(-1.0, 1.0))

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


def _count_searches(monkeypatch) -> list:
    """Record the arguments of every check_membership call from here on."""
    calls, real = [], convexity.check_membership

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(convexity, "check_membership", counting)
    return calls


class TestHypothesisCache:
    """hypothesis_membership runs one search per distinct argument tuple. Its
    cache lives as long as the process, so every test starts it cold."""

    BASE = (parse("x^2"), ConvexityClass("plain_convex"), POS, 200, 0, 1e-9)

    def test_build_suite_searches_each_hypothesis_once(self, monkeypatch):
        hypothesis_membership.cache_clear()
        calls = _count_searches(monkeypatch)
        build_suite(42)
        # |f'| and |f''| of exp(x) are one function on one domain
        assert len(calls) == 48
        assert len(set(calls)) == 48

    def test_repeated_call_shares_the_report(self, monkeypatch):
        hypothesis_membership.cache_clear()
        calls = _count_searches(monkeypatch)
        first = hypothesis_membership(*self.BASE)
        assert hypothesis_membership(*self.BASE) is first
        assert first[0].ok and first[1] is None
        assert len(calls) == 1

    @pytest.mark.parametrize("index,value", [
        (0, parse("x^4")),
        (1, ConvexityClass("s_second", s=0.5)),
        (2, DomainInterval(0.0, 3.0)),
        (3, 201),
        (4, 1),
        (5, 1e-8),
    ], ids=("g", "class", "domain", "samples", "seed", "tol"))
    def test_any_changed_argument_runs_a_new_search(self, monkeypatch, index, value):
        hypothesis_membership.cache_clear()
        calls = _count_searches(monkeypatch)
        changed = list(self.BASE)
        changed[index] = value
        base_result = hypothesis_membership(*self.BASE)
        changed_result = hypothesis_membership(*changed)
        assert changed_result is not base_result
        assert calls == [self.BASE, tuple(changed)]

    def test_precondition_failure_is_shared_too(self, monkeypatch):
        hypothesis_membership.cache_clear()
        calls = _count_searches(monkeypatch)
        args = (parse("x - 1"), ConvexityClass("h_plain"), POS, 50, 0, 1e-9)
        first = hypothesis_membership(*args)
        assert first[0] is None and "non-negative" in first[1]
        assert hypothesis_membership(*args) is first
        assert len(calls) == 1

    def test_signed_zero_endpoint_has_its_own_report(self):
        # DomainInterval(-0.0, 1.0) != DomainInterval(0.0, 1.0): its first
        # grid point, and so this witness's x, is -0.0
        hypothesis_membership.cache_clear()
        g, cls = parse("x^0.5"), ConvexityClass("plain_convex")
        for dom in (DomainInterval(0.0, 1.0), DomainInterval(-0.0, 1.0)):
            cached = _outcome(lambda: hypothesis_membership(g, cls, dom, 100, 0, 1e-9)[0])
            assert cached == _outcome(lambda: check_membership(g, cls, dom, 100, 0, 1e-9))
        assert hypothesis_membership.cache_info().currsize == 2

    def test_int_endpoint_shares_the_report_of_its_own_search(self):
        # DomainInterval(0, 1) == DomainInterval(0.0, 1.0) and stores 0.0, so
        # the shared report is the one its own search gives: witness x = 0.0
        hypothesis_membership.cache_clear()
        g, cls = parse("x^0.5"), ConvexityClass("plain_convex")
        hypothesis_membership(g, cls, DomainInterval(0.0, 1.0), 100, 0, 1e-9)
        cached = hypothesis_membership(g, cls, DomainInterval(0, 1), 100, 0, 1e-9)[0]
        assert repr(cached) == repr(check_membership(g, cls, DomainInterval(0, 1), 100, 0, 1e-9))
        assert hypothesis_membership.cache_info().currsize == 1


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


def test_samples_are_drawn_lazily():
    # a member function checks every sample; none of them may be held at once
    g, cls = parse("x^2"), ConvexityClass("plain_convex")
    tracemalloc.start()
    try:
        rep = check_membership(g, cls, POS, samples=50_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.samples_used == 21 * 21 * 11 + 50_000
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# Oracle: the membership search as one function per triple, each triple
# evaluated from scratch (eight branches, grid pass, then every random triple
# drawn up-front). check_membership caches grid values and draws lazily; it
# must agree with this bit for bit, failures included.

def _oracle_sense_sides(cls, g, x, y, lam):
    sense = cls.sense
    if sense == "plain_convex":
        return g(lam * x + (1.0 - lam) * y), lam * g(x) + (1.0 - lam) * g(y)
    if sense == "s_second":
        s = cls.s
        return g(lam * x + (1.0 - lam) * y), lam ** s * g(x) + (1.0 - lam) ** s * g(y)
    if sense == "s_first":
        s = cls.s
        mus = lam ** s
        nu = (1.0 - mus) ** (1.0 / s)
        return g(lam * x + nu * y), mus * g(x) + (1.0 - mus) * g(y)
    if sense == "alpha_m":
        a, m = cls.alpha, cls.m
        w = lam ** a
        return g(lam * x + m * (1.0 - lam) * y), w * g(x) + m * (1.0 - w) * g(y)
    if sense == "s_alpha_m_first":
        a, m, s = cls.alpha, cls.m, cls.s
        w = lam ** (a * s)
        return g(lam * x + (1.0 - lam) * y), w * g(x) + m * (1.0 - w) * g(y / m)
    if sense == "s_alpha_m_second":
        a, m, s = cls.alpha, cls.m, cls.s
        w = lam ** (a * s)
        wm = (1.0 - lam ** a) ** s
        return g(lam * x + (1.0 - lam) * y), w * g(x) + m * wm * g(y / m)
    if sense == "h_plain":
        return (
            g(lam * x + (1.0 - lam) * y),
            evaluate_h(cls.h, lam, 1.0) * g(x) + evaluate_h(cls.h, 1.0 - lam, 1.0) * g(y),
        )
    if sense == "h_alpha_m":
        m = cls.m
        ha = evaluate_h(cls.h, lam, cls.alpha)
        return g(lam * x + m * (1.0 - lam) * y), ha * g(x) + m * (1.0 - ha) * g(y)
    raise ValueError(f"unknown sense {sense!r}")


def _oracle_membership(g, cls, dom, samples, seed, tol):
    reading = "mu^(alpha*s)" if cls.sense.startswith("s_alpha_m") else None
    if cls.sense in NONNEG_DOMAIN_SENSES and dom.lo < 0.0:
        raise PreconditionError(
            f"sense {cls.sense!r} is defined on [0,inf); domain starts at {dom.lo!r}"
        )
    gc = compile_fn(g)
    xs = _grid_points(dom, 21)
    if cls.sense in NONNEG_SENSES:
        for x in xs:
            try:
                v = gc(x)
            except DomainError as exc:
                raise PreconditionError(f"g not evaluable at {x!r}: {exc}") from None
            if v < 0.0:
                raise PreconditionError(
                    f"sense {cls.sense!r} requires a non-negative function; "
                    f"g({x!r}) = {v!r}"
                )
    lam_grid = [0.1 * k for k in range(1, 10)]
    if cls.sense not in OPEN_SENSES:
        lam_grid = [0.0] + lam_grid + [1.0]
    rng = random.Random(seed)
    drawn = [(rng.uniform(dom.lo, dom.hi), rng.uniform(dom.lo, dom.hi), rng.uniform(0.0, 1.0))
             for _ in range(samples)]
    triples = [(x, y, lam) for x in xs for y in xs for lam in lam_grid] + [
        (x, y, lam) for x, y, lam in drawn
        if cls.sense not in OPEN_SENSES or 1e-12 < lam < 1.0 - 1e-12
    ]
    for used, (x, y, lam) in enumerate(triples, 1):
        try:
            lhs, rhs = _oracle_sense_sides(cls, gc, x, y, lam)
        except DomainError as exc:
            raise PreconditionError(
                f"domain too narrow for the combination or y/m argument "
                f"(x={x!r}, y={y!r}, lam={lam!r}): {exc}"
            ) from None
        if lhs > rhs + tol:
            return MembershipReport("counterexample", used, Witness(x, y, lam, lhs, rhs),
                                    seed, reading)
    return MembershipReport("no-counterexample-found", len(triples), None, seed, reading)


def _outcome(search):
    """A comparable outcome: floats as hex, so -0.0 and 0.0 differ."""
    try:
        rep = search()
    except (DomainError, PreconditionError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    w = rep.witness
    where = None if w is None else tuple(float(v).hex() for v in (w.x, w.y, w.lam, w.lhs, w.rhs))
    return (rep.verdict, rep.samples_used, where, rep.seed, rep.exponent_reading)


# members and non-members that are non-negative on [0, inf), as the h and
# s-(alpha,m) senses require
_ORACLE_NONNEG = ("x^2", "exp(x)", "2", "x", "x^0.5", "abs(x-0.3)", "1e6*x", "x^2+1",
                  "exp(-x)", "(x+1)^0.5", "4-x^2", "x^3")
# negative-valued functions, and functions undefined on part of a domain (at
# a grid point, or only between grid points)
_ORACLE_OTHER = ("-x", "-x^2", "-1-x^2", "ln(x)", "-ln(x)", "ln(x-0.9)", "x-1", "1/(x-0.5)",
                 "((x-0.525)^2-0.0001)^0.5", "x^3-x")
# custom h: positive, negative near the ends of (0,1), undefined near 0.1, unbounded
_ORACLE_H_TEXTS = ("t*(2-t)", "t-0.05", "0.95-t", "ln(t-0.09)+5", "1/(t-0.93)^2", "t-0.5")


@st.composite
def _classes(draw, sense):
    unit = st.floats(min_value=0.05, max_value=1.0)
    params = {}
    for name in SENSE_PARAMS[sense]:
        if name == "h":
            kind = draw(st.sampled_from(("identity", "power", "constant_one", "reciprocal",
                                         "custom")))
            if kind == "power":
                params["h"] = HFunction.power(draw(unit))
            elif kind == "custom":
                params["h"] = HFunction.custom(parse(draw(st.sampled_from(_ORACLE_H_TEXTS)),
                                                     var="t"))
            else:
                params["h"] = HFunction(kind)
        elif name == "alpha":
            params["alpha"] = draw(st.one_of(st.just(0.0), st.just(1.0), unit))
        else:
            params[name] = draw(st.one_of(st.just(1.0), unit))
    return ConvexityClass(sense, **params)


@st.composite
def _functions(draw):
    text = draw(st.one_of(st.sampled_from(_ORACLE_NONNEG), st.sampled_from(_ORACLE_OTHER),
                          st.builds(
        "{:.3g}*x^2+{:.3g}*x+{:.3g}".format,
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    )))
    return parse(text)


@st.composite
def _domains(draw):
    lo = draw(st.sampled_from((0.0, 0.0, 0.3, 1.0, -1.0)))
    width = draw(st.sampled_from((0.5, 1.0, 2.0, 2.5)))
    return DomainInterval(lo, lo + width, open_lo=draw(st.booleans()),
                          open_hi=draw(st.booleans()))


_HOLE = "((x-0.527)^2-0.0000036)^0.5"  # undefined on (0.5251, 0.5289), between grid values
_HOLES = "2+" + "+".join(f"0*((x-{c:.4f})^2-0.0000036)^0.5" for c in
                         [0.0275 + 0.1 * k for k in range(10)])
_H_LOW = "2*t-0.09"  # at least t on the lam grid, negative below 0.045


@pytest.mark.parametrize("g,cls,dom,seed", [
    # random pass: g(x) and h(1-lam) both fail at the first failing triple
    (_HOLE, ConvexityClass("h_plain", h=HFunction.custom(parse(_H_LOW, var="t"))),
     DomainInterval(0.0, 1.0), 297),
    # random pass: g(lam*x + (1-lam)*y) and h(lam) both fail
    (_HOLE, ConvexityClass("h_plain", h=HFunction.custom(parse(_H_LOW, var="t"))),
     DomainInterval(0.0, 1.0), 306),
    # random pass: h^alpha(lam) and g(lam*x + m*(1-lam)*y) both fail
    (_HOLES, ConvexityClass("h_alpha_m", h=HFunction.custom(parse(_H_LOW, var="t"))),
     DomainInterval(0.0, 1.0), 159),
    # grid pass: h^alpha(0.1) and g at the first combination point both fail
    ("ln(x-0.9)+5", ConvexityClass("h_alpha_m", h=HFunction.custom(parse("t-0.5", var="t")),
                                   m=0.5), DomainInterval(1.0, 2.0), 0),
], ids=("h_plain-gx-before-h1mlam", "h_plain-comb-before-hlam",
        "h_alpha_m-hlam-before-comb", "h_alpha_m-grid-hlam-before-comb"))
def test_failure_order_matches_oracle(g, cls, dom, seed):
    g = parse(g)
    new = _outcome(lambda: check_membership(g, cls, dom, samples=2000, seed=seed))
    assert new[0] == "raised"
    assert new == _outcome(lambda: _oracle_membership(g, cls, dom, 2000, seed, 1e-9))


@pytest.mark.parametrize("sense", SENSES)
@settings(max_examples=40)
@given(
    data=st.data(),
    g=_functions(),
    dom=_domains(),
    samples=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    tol=st.sampled_from((1e-9, 0.0, 1e-3)),
)
def test_property_search_matches_oracle(sense, data, g, dom, samples, seed, tol):
    cls = data.draw(_classes(sense))
    new = _outcome(lambda: check_membership(g, cls, dom, samples=samples, seed=seed, tol=tol))
    old = _outcome(lambda: _oracle_membership(g, cls, dom, samples, seed, tol))
    assert new == old
    if new[0] == "counterexample":
        # the witness holds up under the tree-walking evaluator too
        x, y, lam, lhs, rhs = (float.fromhex(v) for v in new[2])
        again = _oracle_sense_sides(cls, lambda v: evaluate(g, v), x, y, lam)
        assert again == (lhs, rhs)
        assert lhs > rhs + tol


# ---------------------------------------------------------------------------
# The grid scan reads g from a memo of distinct combination points, so a
# lam-major scan, or one that evaluates ahead, would meet these hits and
# failures in another order than the definition; the outcome must be the
# oracle's.

def _lam_major_first_hit(g, cls, dom, tol=1e-9):
    gc, xs = compile_fn(g), _grid_points(dom, 21)
    lams = [0.1 * k for k in range(1, 10)]
    if cls.sense not in OPEN_SENSES:
        lams = [0.0] + lams + [1.0]
    for lam in lams:
        for x in xs:
            for y in xs:
                lhs, rhs = _oracle_sense_sides(cls, gc, x, y, lam)
                if lhs > rhs + tol:
                    return x, y, lam
    return None


def _both_outcomes(g, cls, dom, samples=50, seed=0):
    return (_outcome(lambda: check_membership(g, cls, dom, samples=samples, seed=seed)),
            _outcome(lambda: _oracle_membership(g, cls, dom, samples, seed, 1e-9)))


class TestGridPassOrder:
    def test_witness_is_the_first_hit_in_definition_order(self):
        g, cls, dom = parse("x^2-0.3*abs(x-1.3)"), ConvexityClass("plain_convex"), \
            DomainInterval(0.1, 2.0)
        new, old = _both_outcomes(g, cls, dom)
        assert new == old and new[0] == "counterexample"
        witness = tuple(float.fromhex(v) for v in new[2][:3])
        lam_major = _lam_major_first_hit(g, cls, dom)
        assert lam_major is not None and lam_major != witness
        assert new[1] < 21 * 21 * 11

    def test_negative_h_at_a_later_lam_after_a_hit_is_a_report(self):
        h = HFunction.custom(parse("0.85-t", var="t"))
        with pytest.raises(PreconditionError, match="negative"):
            evaluate_h(h, 0.9, 1.0)
        cls = ConvexityClass("h_alpha_m", h=h, m=0.5)
        new, old = _both_outcomes(parse("x^2+1"), cls, DomainInterval(0.0, 2.0))
        assert new == old and new[0] == "counterexample"

    def test_g_undefined_at_one_combination_point(self):
        # 0.05 is not a grid point; lam-major meets it first at (0.5, 0, 0.1),
        # definition order at (0, 0.1, 0.5)
        g, dom = parse("x^2+0*ln(abs(x-0.05))"), DomainInterval(0.0, 2.0)
        assert 0.05 not in _grid_points(dom, 21)
        assert 0.1 * 0.5 + 0.9 * 0.0 == 0.5 * 0.0 + 0.5 * 0.1 == 0.05
        new, old = _both_outcomes(g, ConvexityClass("plain_convex"), dom)
        assert new == old
        assert new[:2] == ("raised", "PreconditionError")
        assert "(x=0.0, y=0.1, lam=0.5)" in new[2]

    def test_failing_g_comes_before_a_negative_h_weight(self):
        # h_plain calls g at the combination point before h(1-lam) = h(0.9),
        # which is negative; the clean pass computes the weights first
        z = 0.1 * 0.3 + 0.9 * 0.3
        dom = DomainInterval(0.3, 2.3)
        assert z not in _grid_points(dom, 21)
        cls = ConvexityClass("h_plain", h=HFunction.custom(parse("0.85-t", var="t")))
        new, old = _both_outcomes(parse(f"x^2+0*ln(abs(x-{z!r}))"), cls, dom)
        assert new == old
        assert new[:2] == ("raised", "PreconditionError")
        assert "domain too narrow" in new[2] and "lam=0.1)" in new[2]

    def test_tolerance_is_added_after_the_sum(self):
        # for this linear g, (wx*gx + wy*gy) + tol and wx*gx + (wy*gy + tol)
        # round to different sides of the lhs at some grid triple
        g, dom = parse("1e6*x+1e7"), DomainInterval(0.0, 25.0)
        new, old = _both_outcomes(g, ConvexityClass("plain_convex"), dom, samples=0)
        assert new == old

    @pytest.mark.parametrize("lo", [-1.0, -5e-323], ids=("unit", "subnormal"))
    @pytest.mark.parametrize("text", ["x", "-x", "x^2", "x^3", "abs(x)", "-abs(x)"])
    def test_symmetric_domain_through_zero(self, lo, text):
        dom = DomainInterval(lo, -lo)
        xs = _grid_points(dom, 21)
        zeros = [0.5 * x + 0.5 * y for x in xs for y in xs if 0.5 * x + 0.5 * y == 0.0]
        assert zeros
        if lo == -5e-323:
            # two half-ulp products round to -0.0, so the sum is -0.0
            assert any(math.copysign(1.0, z) < 0.0 for z in zeros)
        new, old = _both_outcomes(parse(text), ConvexityClass("plain_convex"), dom)
        assert new == old


def _record_g_calls(monkeypatch) -> list:
    """The arguments of every call of a function the search compiles, in order."""
    args = []
    real_compile = convexity.compile_fn

    def recording_compile(node):
        fn = real_compile(node)

        def recorded(x):
            args.append(x)
            return fn(x)
        return recorded

    monkeypatch.setattr(convexity, "compile_fn", recording_compile)
    return args


def test_non_negative_sense_evaluates_each_grid_point_once(monkeypatch):
    """The non-negativity check's values of g on the grid feed the grid
    pass, so a clean h_alpha_m search with no random triples calls g once per
    grid point, plus once per distinct non-zero combination point (a grid
    point that is also a combination point counts under both)."""
    # with m = 0.1 on [10, 11] only one grid point is a combination point
    g, dom = parse("x^2"), DomainInterval(10.0, 11.0)
    cls = ConvexityClass("h_alpha_m", alpha=1.0, m=0.1)
    args = _record_g_calls(monkeypatch)
    rep = check_membership(g, cls, dom, samples=0)
    xs = _grid_points(dom, 21)
    lams = [0.1 * k for k in range(1, 10)]
    zs = {lam * x + cls.m * (1.0 - lam) * y for lam in lams for x in xs for y in xs} - {0.0}
    assert rep.ok and rep.samples_used == 21 * 21 * 9
    assert all(args.count(x) == 1 + (x in zs) for x in xs)
    assert len(args) == len(xs) + len(zs)


@pytest.mark.parametrize("sense", ["s_alpha_m_first", "s_alpha_m_second"])
def test_y_over_m_sense_at_m_one_evaluates_each_grid_point_once(monkeypatch, sense):
    """At m = 1, y/m is y, so the grid pass reads g(y/m) from the values of
    the non-negativity check: a clean search with no random triples calls g
    once per grid point, plus once per distinct non-zero combination point."""
    g, dom = parse("x^2"), DomainInterval(10.0, 11.0)
    cls = ConvexityClass(sense)  # alpha = m = s = 1
    args = _record_g_calls(monkeypatch)
    rep = check_membership(g, cls, dom, samples=0)
    xs = _grid_points(dom, 21)
    lams = [0.0] + [0.1 * k for k in range(1, 10)] + [1.0]
    zs = {lam * x + (1.0 - lam) * y for lam in lams for x in xs for y in xs} - {0.0}
    assert rep.ok and rep.samples_used == 21 * 21 * 11
    assert all(args.count(x) == 1 + (x in zs) for x in xs)
    assert len(args) == len(xs) + len(zs) == 430


def test_build_suite_membership_work(monkeypatch):
    """A machine-independent guard on the membership search: calls of the
    compiled g and h, and triples checked (sum of samples_used), for one
    suite with a cold hypothesis cache."""
    hypothesis_membership.cache_clear()
    evals, triples = [0], [0]
    real_compile, real_check = convexity.compile_fn, convexity.check_membership

    def counting_compile(node):
        fn = real_compile(node)

        def counted(x):
            evals[0] += 1
            return fn(x)
        return counted

    def summing_check(*args, **kwargs):
        rep = real_check(*args, **kwargs)
        triples[0] += rep.samples_used
        return rep

    monkeypatch.setattr(convexity, "compile_fn", counting_compile)
    monkeypatch.setattr(convexity, "check_membership", summing_check)
    build_suite(42)
    assert evals[0] <= 100_000  # 248,674 when each grid triple called g
    assert triples[0] == 203_742


class TestVerdictPolicy:
    """`within` and `relative_slack` decide every record verdict."""

    def test_within_holds_at_equality_with_zero_slack(self):
        assert within(1.5, 1.5, 0.0)
        assert within(0.0, -0.0, 0.0)
        assert not within(math.nextafter(1.5, 2.0), 1.5, 0.0)

    def test_within_counts_the_slack(self):
        assert within(1.0 + 1e-10, 1.0, 1e-9)
        assert not within(1.0 + 1e-8, 1.0, 1e-9)

    @pytest.mark.parametrize("lhs,rhs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_on_either_side_never_holds(self, lhs, rhs):
        assert not within(lhs, rhs, 1e-9)
        assert not within(lhs, rhs, math.inf)

    @pytest.mark.parametrize("values", [(0.0,), (1.0,), (-1.0,), (0.5, -0.25, 1.0), (-1.0, 1.0)])
    def test_relative_slack_is_absolute_on_the_unit_interval(self, values):
        assert relative_slack(*values) == 1e-12

    @pytest.mark.parametrize("values,largest", [
        ((3.0,), 3.0), ((-250.0,), 250.0), ((2.0, -7.5, 4.0), 7.5), ((0.5, 1e6), 1e6),
    ])
    def test_relative_slack_scales_with_the_largest_magnitude(self, values, largest):
        assert relative_slack(*values) == 1e-12 * largest


# ---------------------------------------------------------------------------
# Searches with the same (class, domain, samples, seed) share one plan: the
# grid weights and distinct combination points, and the first block of
# random draws. However far a plan has been built, and whichever search
# built it, each outcome must still be the oracle's.

_BLOCK = convexity._BLOCK
_BLOCK_SAMPLES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK // 2)


@pytest.fixture
def cold_plans():
    convexity._search_plan.cache_clear()
    yield
    convexity._search_plan.cache_clear()


# lam at the last triple of the first block, at the first triple of the
# second one and at one triple of the third: each is skipped by the open
# senses and checked by the others
_PINNED_LAMS = {3 * (_BLOCK - 1) + 2: 5e-13, 3 * _BLOCK + 2: 1.0 - 5e-13,
                3 * (2 * _BLOCK + 3) + 2: 0.0}


class _PinnedRandom(random.Random):
    """random.Random that returns the _PINNED_LAMS values at those draw
    numbers, counted from the seed. The count is part of the state, so a
    generator restored from it goes on counting."""

    def seed(self, *args, **kwargs):
        super().seed(*args, **kwargs)
        self.calls = 0

    def random(self):
        k, self.calls = self.calls, self.calls + 1
        value = super().random()
        return _PINNED_LAMS.get(k, value)

    def getstate(self):
        return super().getstate(), self.calls

    def setstate(self, state):
        state, self.calls = state
        super().setstate(state)


def _outcomes_with_pinned_lams(g, cls, dom, samples, seed, tol):
    convexity._search_plan.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random, "Random", _PinnedRandom)
        try:
            return (_outcome(lambda: check_membership(g, cls, dom, samples, seed, tol)),
                    _outcome(lambda: _oracle_membership(g, cls, dom, samples, seed, tol)))
        finally:
            convexity._search_plan.cache_clear()


@pytest.mark.parametrize("samples", _BLOCK_SAMPLES)
@pytest.mark.parametrize("sense", SENSES)
def test_member_blocks_match_oracle_at_block_boundaries(sense, samples):
    # at default parameters every sense is plain convexity, so x^2+1 is a
    # member and every random triple is checked
    new, old = _outcomes_with_pinned_lams(parse("x^2+1"), ConvexityClass(sense),
                                          DomainInterval(0.3, 2.3), samples, 5, 1e-9)
    assert new == old and new[0] == "no-counterexample-found"
    skipped = sum(3 * t + 2 in _PINNED_LAMS for t in range(samples)) if sense in OPEN_SENSES else 0
    assert new[1] == 21 * 21 * len(convexity._lam_grid(sense)) + samples - skipped


@pytest.mark.parametrize("sense", SENSES)
@settings(max_examples=10)
@given(
    data=st.data(),
    g=st.one_of(st.sampled_from(("x^2+1", "exp(x)", "x^2-0.02*abs(x-0.527)")).map(parse),
                _functions()),
    dom=_domains(),
    samples=st.sampled_from(_BLOCK_SAMPLES),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    tol=st.sampled_from((1e-9, 0.0)),
)
def test_property_blocks_match_oracle(sense, data, g, dom, samples, seed, tol):
    cls = data.draw(_classes(sense))
    new, old = _outcomes_with_pinned_lams(g, cls, dom, samples, seed, tol)
    assert new == old


def test_first_hit_in_the_second_random_block(cold_plans):
    # the dent at 0.527 is too narrow for the grid; random triple 687 finds it
    g, cls, dom = parse("x^2-0.02*abs(x-0.527)"), ConvexityClass("plain_convex"), \
        DomainInterval(0.0, 1.0)
    cold = _outcome(lambda: check_membership(g, cls, dom, samples=1500, seed=0))
    assert cold == _outcome(lambda: _oracle_membership(g, cls, dom, 1500, 0, 1e-9))
    assert cold[0] == "counterexample" and _BLOCK < cold[1] - 21 * 21 * 11 <= 2 * _BLOCK
    assert _outcome(lambda: check_membership(g, cls, dom, samples=1500, seed=0)) == cold


def test_warm_plan_serves_other_functions(cold_plans):
    # DomainInterval(-0.0, 1.0) != DomainInterval(0.0, 1.0): its first
    # grid point is -0.0
    cls = ConvexityClass("plain_convex")
    doms = (DomainInterval(0.0, 1.0), DomainInterval(-0.0, 1.0))
    for dom in doms:
        for text in ("x^2", "x^0.5", "x^2-0.02*abs(x-0.527)", "exp(x)", "-x"):
            g = parse(text)
            warm = _outcome(lambda: check_membership(g, cls, dom, samples=700, seed=3))
            convexity._search_plan.cache_clear()
            cold = _outcome(lambda: check_membership(g, cls, dom, samples=700, seed=3))
            assert warm == cold == _outcome(lambda: _oracle_membership(g, cls, dom, 700, 3, 1e-9))
    convexity._search_plan.cache_clear()
    for dom in doms:
        check_membership(parse("x^2"), cls, dom, samples=700, seed=3)
    assert convexity._search_plan.cache_info().currsize == 2


def test_first_hit_in_the_fourth_random_block(cold_plans):
    # random triple 1773 finds the dent; each block before it is scanned clean
    g, cls, dom = parse("x^2-0.02*abs(x-0.527)"), ConvexityClass("plain_convex"), \
        DomainInterval(0.0, 1.0)
    out = _outcome(lambda: check_membership(g, cls, dom, samples=2000, seed=5))
    assert out == _outcome(lambda: _oracle_membership(g, cls, dom, 2000, 5, 1e-9))
    assert out[0] == "counterexample" and 3 * _BLOCK < out[1] - 21 * 21 * 11 <= 4 * _BLOCK


def test_grid_hit_stops_evaluating_in_its_row(monkeypatch, cold_plans):
    """A grid scan evaluates g one x row at a time: a search that hits in
    row r calls g at the 21 grid points, once at each distinct combination
    point of rows 0..r, and 3 times to replay the hit."""
    g, cls, dom = parse("-x^2"), ConvexityClass("plain_convex"), DomainInterval(-1.0, 0.5)
    args = _record_g_calls(monkeypatch)
    rep = check_membership(g, cls, dom, samples=2000)
    xs, lams = _grid_points(dom, 21), convexity._lam_grid(cls.sense)
    row = xs.index(rep.witness.x)
    zs = {lam * x + (1.0 - lam) * y for x in xs[:row + 1] for y in xs for lam in lams}
    assert not rep.ok and rep.samples_used <= (row + 1) * 21 * 11
    assert len(args) <= 21 + len(zs) + 3


def test_build_suite_builds_one_plan_per_group(cold_plans):
    """A machine-independent guard on plan sharing: the 48 searches of a
    suite fall into 9 groups of one class, domain, sample count and seed."""
    hypothesis_membership.cache_clear()
    build_suite(42)
    assert convexity._search_plan.cache_info().misses == 9


def test_threads_sharing_plans_get_serial_outcomes(cold_plans):
    """Plans are built lazily by whichever search needs them first; threads
    that race to build the same plans must still get the serial outcomes."""
    cls = ConvexityClass("plain_convex")
    cases = [(parse(text), DomainInterval(lo, lo + 1.0)) for lo in (0.0, 0.5)
             for text in ("x^2", "x^0.5", "x^2-0.02*abs(x-0.527)", "exp(x)")]
    expected = [_outcome(lambda: check_membership(g, cls, dom, samples=1200, seed=2))
                for g, dom in cases]
    results, errors = {}, []

    def worker(w):
        try:
            for k in range(8):
                convexity._search_plan.cache_clear()
                order = range(len(cases)) if (w + k) % 2 else reversed(range(len(cases)))
                for i in order:
                    g, dom = cases[i]
                    results[w, k, i] = _outcome(
                        lambda: check_membership(g, cls, dom, samples=1200, seed=2))
        except Exception as exc:  # reported below, with the thread's failure
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 6 * 8 * len(cases)
    assert all(out == expected[i] for (_, _, i), out in results.items())
