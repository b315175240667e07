"""Membership checking for the eight convexity senses."""

import inspect
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import hhcheck
import hhcheck.convexity as convexity
from hhcheck import (
    CATALOG,
    Abs,
    Add,
    BoundInstance,
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
    compile_interval,
    differentiate,
    evaluate,
    evaluate_h,
    parse,
    verify,
)
from hhcheck.convexity import (
    SENSE_PARAMS,
    MembershipProof,
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
        # expressions that differ only in the sign of a zero constant: distinct
        # HFunctions, each with its own compiled fn
        a, b = (HFunction.custom(parse(text, var="t")) for text in ("t*(2-t) + 0", "t*(2-t) + -0"))
        assert a.fn is not b.fn and a != b
        assert HFunction._fields == ("kind", "s", "expr")
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
    """hypothesis_membership checks each distinct argument tuple once. Its
    cache lives as long as the process, so every test starts it cold. BASE
    is a hypothesis the prover does not take (h is not the identity), so
    each of its checks is a search."""

    BASE = (parse("x^2"), ConvexityClass("h_plain", h=HFunction.power(0.5)), POS, 200, 0, 1e-9)

    def test_build_suite_searches_each_hypothesis_once(self, monkeypatch, cold_caches):
        calls = _count_searches(monkeypatch)
        build_suite(42)
        # |f'| and |f''| of exp(x) are one function on one domain
        assert hypothesis_membership.cache_info().misses == 48
        # 44 are proven; the alpha_m hypotheses of exp(x) and x^4 at alpha 0
        # and 0.5 are searched
        assert len(calls) == len(set(calls)) == 4
        assert {(str(g), cls.alpha) for g, cls, *_ in calls} == {
            ("abs(exp(x))", 0.0), ("abs(exp(x))", 0.5),
            ("abs(4*(3*x^2))", 0.0), ("abs(4*(3*x^2))", 0.5)}

    def test_repeated_call_shares_the_report(self, monkeypatch, cold_caches):
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
    def test_any_changed_argument_runs_a_new_search(self, monkeypatch, cold_caches, index, value):
        calls = _count_searches(monkeypatch)
        changed = list(self.BASE)
        changed[index] = value
        base_result = hypothesis_membership(*self.BASE)
        changed_result = hypothesis_membership(*changed)
        assert changed_result is not base_result
        assert calls == [self.BASE, tuple(changed)]

    def test_precondition_failure_is_shared_too(self, monkeypatch, cold_caches):
        calls = _count_searches(monkeypatch)
        g_args = _record_g_calls(monkeypatch)
        args = (parse("x - 1"), ConvexityClass("h_plain"), POS, 50, 0, 1e-9)
        first = hypothesis_membership(*args)
        assert first[0] is None and "non-negative" in first[1]
        assert hypothesis_membership(*args) is first
        # the prover gives up, and the one search ends at its precondition:
        # g is read at the first grid point, where it is negative, and no
        # triple is checked
        assert len(calls) == 1
        assert g_args == [POS.lo]
        with pytest.raises(PreconditionError) as exc:
            check_membership(*args)
        assert first[1] == f"membership precondition failed: {exc.value}"

    def test_signed_zero_endpoint_has_its_own_report(self, cold_caches):
        # DomainInterval(-0.0, 1.0) != DomainInterval(0.0, 1.0): its first
        # grid point, and so this witness's x, is -0.0
        g, cls = parse("x^0.5"), ConvexityClass("plain_convex")
        for dom in (DomainInterval(0.0, 1.0), DomainInterval(-0.0, 1.0)):
            cached = _outcome(lambda: hypothesis_membership(g, cls, dom, 100, 0, 1e-9)[0])
            assert cached == _outcome(lambda: check_membership(g, cls, dom, 100, 0, 1e-9))
        assert hypothesis_membership.cache_info().currsize == 2

    def test_int_endpoint_shares_the_report_of_its_own_search(self, cold_caches):
        # DomainInterval(0, 1) == DomainInterval(0.0, 1.0) and stores 0.0, so
        # the shared report is the one its own search gives: witness x = 0.0
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
# drawn up-front). check_membership draws lazily, one triple at a time; it
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
            return MembershipReport("counterexample", used, Witness(x, y, lam, lhs, rhs), seed)
    return MembershipReport("no-counterexample-found", len(triples), None, seed)


def _outcome(search):
    """A comparable outcome: floats as hex, so -0.0 and 0.0 differ."""
    try:
        rep = search()
    except (DomainError, PreconditionError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    w = rep.witness
    where = None if w is None else tuple(float(v).hex() for v in (w.x, w.y, w.lam, w.lhs, w.rhs))
    return (rep.verdict, rep.samples_used, where, rep.seed)


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
# A lam-major scan, or one that evaluates ahead, would meet these hits and
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


@pytest.mark.parametrize("cls", [ConvexityClass(sense) for sense in SENSES] + [
    ConvexityClass("h_alpha_m", m=0.1), ConvexityClass("s_alpha_m_second", m=0.5)],
    ids=lambda cls: cls.sense if cls.m == 1.0 else f"{cls.sense}-m{cls.m:g}")
def test_clean_search_evaluates_g_three_times_per_triple(monkeypatch, cls):
    """A member search calls g at the combination point, at x and at Y once
    per triple checked, after the 21 grid values of the non-negativity check
    of the senses that make it."""
    g, dom = parse("x^2"), DomainInterval(10.0, 11.0)
    args = _record_g_calls(monkeypatch)
    rep = check_membership(g, cls, dom, samples=100)
    assert rep.ok and rep.samples_used > 21 * 21 * 9
    assert len(args) == 3 * rep.samples_used + (21 if cls.sense in NONNEG_SENSES else 0)


def test_build_suite_membership_work(monkeypatch, cold_caches):
    """A machine-independent guard on the membership checks: calls of the
    compiled g and h, triples checked (sum of samples_used), proofs and
    their pieces, for one suite with cold caches."""
    evals, triples, proofs = [0], [0], []
    real_compile, real_check, real_prove = (
        convexity.compile_fn, convexity.check_membership, convexity._prove)

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

    def recording_prove(*args):
        proof = real_prove(*args)
        if proof is not None:
            proofs.append(proof)
        return proof

    monkeypatch.setattr(convexity, "compile_fn", counting_compile)
    monkeypatch.setattr(convexity, "check_membership", summing_check)
    monkeypatch.setattr(convexity, "_prove", recording_prove)
    build_suite(42)
    # 248,674 when each grid triple called g; 87,142 and 203,742 triples
    # when all 48 hypotheses were searched
    # 3 per triple checked: the proven hypotheses make no grid check, and
    # the 4 searched alpha_m ones need none; 906 when the 36 proven
    # h_alpha_m rows made the search's 21-point grid check first, 1,436 when
    # the grid scan read g from a memo
    assert evals[0] == 150
    assert triples[0] == 50  # the 4 searches hit at grid triples 12, 13, 12 and 13
    assert len(proofs) == 44
    # each in one piece, from f's Taylor coefficients; 116 when the prover
    # enclosed the g'' trees, and |f''| of 1/x took 73 of them
    assert sum(p.pieces for p in proofs) == 44


def test_build_suite_generates_each_function_once(monkeypatch, cold_caches):
    """A machine-independent guard on compilation: one code generation per
    distinct tree and backend. A second suite generates nothing, also when
    every cache but the compiled functions' is cleared, so that its
    derivatives and hypotheses are built again as fresh but equal trees."""
    generated, real = [], hhcheck.expr._build

    def counting_build(node, backend):
        generated.append(backend)
        return real(node, backend)

    monkeypatch.setattr(hhcheck.expr, "_build", counting_build)
    build_suite(42)
    # for 454 calls of compile_fn, evaluate and the jets: the prover compiles
    # the jet of each of the six functions it reads, where it compiled 57
    # interval trees of g, g' and g''; a proven hypothesis compiles no float
    # g, where the search's preconditions made 54 float builds before it
    assert [generated.count(b) for b in ("float", "interval", "jet")] == [18, 0, 6]
    assert hhcheck.expr._compiled.cache_info().misses == 24
    for cache in (hhcheck.expr._derivative, hypothesis_membership, convexity._convex_proof,
                  hhcheck.bounds._mean_integral):
        cache.cache_clear()
    build_suite(42)
    assert len(generated) == 24


def test_build_suite_checks_each_hypothesis_once(monkeypatch, cold_caches):
    """A hypothesis is checked once: the prover first, and when it gives up,
    the search, which makes its own preconditions. At seed 101 the
    prover proves every bound hypothesis and does not try the 4 P6 ones at
    alpha < 1, which are searched. |f''| of x^3 on [-1, 1], |6x|, is convex,
    but the prover gives up on it, since f'' changes sign there."""
    checks, real = [0], convexity._preconditions

    def counting(*args):
        checks[0] += 1
        return real(*args)

    monkeypatch.setattr(convexity, "_preconditions", counting)
    calls = _count_searches(monkeypatch)
    build_suite(101)
    assert hypothesis_membership.cache_info().misses == 48
    assert checks[0] == len(calls) == 4
    rep = verify(BoundInstance("T4", parse("x^3"), -1.0, 1.0, ConvexityClass("h_alpha_m")))
    assert rep.membership.verdict == "no-counterexample-found"
    assert hypothesis_membership.cache_info().misses == 49
    assert checks[0] == len(calls) == 5


def test_no_bound_hypothesis_is_searched_at_seeds_0_to_59(monkeypatch, cold_caches):
    """Every bound hypothesis of the suites at seeds 0-59 is proven; the
    searches left are the 4 per suite of the P6 quadratures at alpha 0 and
    0.5, the classes the prover does not try."""
    calls = _count_searches(monkeypatch)
    for seed in range(60):
        build_suite(seed)
    assert len(calls) == 240
    assert {(cls.sense, cls.alpha) for _, cls, *_ in calls} == {("alpha_m", 0.0), ("alpha_m", 0.5)}


def test_reciprocal_second_derivative_is_proven_in_one_piece(monkeypatch, cold_caches):
    """|f''| of 1/x on the wide intervals of seeds 56 and 101, [0.10, 1.13]
    and [0.13, 1.31], and its powers q = 3, 2 and 4/3: the g'' trees of the
    quotient rule ran out of the 64 pieces there, and f's Taylor
    coefficients c_2 = 1/x^3 and c_4 = 1/x^5 prove it in one. least_g2 is
    24 c_4's lower bound, 24/b^5."""
    proofs, real = [], convexity._prove
    u = Abs(differentiate(parse("1/x"), 2))

    def recording(g, cls, dom, *args):
        proof = real(g, cls, dom, *args)
        if u in (g, getattr(g, "base", None)):
            proofs.append(proof)
        return proof

    monkeypatch.setattr(convexity, "_prove", recording)
    for seed in (56, 101):
        build_suite(seed)
    assert [p.pieces for p in proofs] == [1] * 8
    assert proofs[0].least_g2 == pytest.approx(24.0 / 1.12579985831 ** 5, rel=1e-10)


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

    @pytest.mark.parametrize("rhs", [1.0, math.inf])
    def test_an_infinite_lhs_never_holds(self, rhs):
        assert not within(math.inf, rhs, 1e-9)
        assert within(1e308, math.inf, 0.0) and within(-math.inf, -math.inf, 0.0)

    @pytest.mark.parametrize("values", [(0.0,), (1.0,), (-1.0,), (0.5, -0.25, 1.0), (-1.0, 1.0)])
    def test_relative_slack_is_absolute_on_the_unit_interval(self, values):
        assert relative_slack(*values) == 1e-12

    @pytest.mark.parametrize("values,largest", [
        ((3.0,), 3.0), ((-250.0,), 250.0), ((2.0, -7.5, 4.0), 7.5), ((0.5, 1e6), 1e6),
    ])
    def test_relative_slack_scales_with_the_largest_magnitude(self, values, largest):
        assert relative_slack(*values) == 1e-12 * largest


# ---------------------------------------------------------------------------
# Hits, failures and skipped lams on either side of multiples of _BLOCK
# random draws, the block size of an earlier blocked scan: each outcome must
# still be the oracle's.

_BLOCK = 500
_BLOCK_SAMPLES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK // 2)


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random, "Random", _PinnedRandom)
        return (_outcome(lambda: check_membership(g, cls, dom, samples, seed, tol)),
                _outcome(lambda: _oracle_membership(g, cls, dom, samples, seed, tol)))


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


def test_first_hit_in_the_second_random_block(cold_caches):
    # the dent at 0.527 is too narrow for the grid; random triple 687 finds it
    g, cls, dom = parse("x^2-0.02*abs(x-0.527)"), ConvexityClass("plain_convex"), \
        DomainInterval(0.0, 1.0)
    cold = _outcome(lambda: check_membership(g, cls, dom, samples=1500, seed=0))
    assert cold == _outcome(lambda: _oracle_membership(g, cls, dom, 1500, 0, 1e-9))
    assert cold[0] == "counterexample" and _BLOCK < cold[1] - 21 * 21 * 11 <= 2 * _BLOCK
    assert _outcome(lambda: check_membership(g, cls, dom, samples=1500, seed=0)) == cold


def test_signed_zero_domain_matches_oracle():
    # DomainInterval(-0.0, 1.0) != DomainInterval(0.0, 1.0): its first grid
    # point is -0.0; 700 samples take two random blocks
    cls = ConvexityClass("plain_convex")
    for dom in (DomainInterval(0.0, 1.0), DomainInterval(-0.0, 1.0)):
        for text in ("x^2", "x^0.5", "x^2-0.02*abs(x-0.527)", "exp(x)", "-x"):
            g = parse(text)
            assert _outcome(lambda: check_membership(g, cls, dom, samples=700, seed=3)) == \
                _outcome(lambda: _oracle_membership(g, cls, dom, 700, 3, 1e-9))


def test_first_hit_in_the_fourth_random_block(cold_caches):
    # random triple 1773 finds the dent; each block before it is scanned clean
    g, cls, dom = parse("x^2-0.02*abs(x-0.527)"), ConvexityClass("plain_convex"), \
        DomainInterval(0.0, 1.0)
    out = _outcome(lambda: check_membership(g, cls, dom, samples=2000, seed=5))
    assert out == _outcome(lambda: _oracle_membership(g, cls, dom, 2000, 5, 1e-9))
    assert out[0] == "counterexample" and 3 * _BLOCK < out[1] - 21 * 21 * 11 <= 4 * _BLOCK


def test_grid_hit_stops_evaluating_at_its_triple(monkeypatch, cold_caches):
    """A search evaluates one triple at a time: a search that hits at its
    k-th triple calls g 3k times."""
    g, cls, dom = parse("-x^2"), ConvexityClass("plain_convex"), DomainInterval(-1.0, 0.5)
    args = _record_g_calls(monkeypatch)
    rep = check_membership(g, cls, dom, samples=2000)
    assert not rep.ok and rep.samples_used < 21 * 11
    assert len(args) == 3 * rep.samples_used


# ---------------------------------------------------------------------------
# The prover that hypothesis_membership runs before its search.

_PROVABLE = (ConvexityClass("plain_convex"), ConvexityClass("h_alpha_m"), ConvexityClass("h_plain"),
             ConvexityClass("alpha_m"), ConvexityClass("alpha_m", alpha=0.5))
_COEF = st.floats(min_value=-3.0, max_value=3.0).map(lambda c: round(c, 3))
_F_TEXTS = st.one_of(
    st.lists(_COEF, min_size=1, max_size=5).map(
        lambda cs: " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(cs))),
    st.tuples(_COEF, _COEF, _COEF, st.floats(min_value=1.5, max_value=3.0)).map(
        lambda t: f"({t[0]!r})*exp({t[1] / 2!r}*x) + ({t[2]!r})*ln(x + {t[3]!r})"
                  f" + 1/(x + {t[3]!r})"),
    st.sampled_from([name for name, _ in CATALOG]),
)
# g from f: f, |f|, |f'|, |f''|, and the Holder rows |f'|^2, |f''|^1.5
_HYPOTHESES = (
    lambda f: f, lambda f: Abs(f), lambda f: Abs(differentiate(f)),
    lambda f: Abs(differentiate(f, 2)), lambda f: Pow(Abs(differentiate(f)), Const(2.0)),
    lambda f: Pow(Abs(differentiate(f, 2)), Const(1.5)),
)


class TestProver:
    @settings(max_examples=40, deadline=None)
    @given(text=_F_TEXTS, kind=st.sampled_from(range(len(_HYPOTHESES))),
           cls=st.sampled_from(_PROVABLE), lo=st.floats(min_value=-1.0, max_value=2.0),
           width=st.floats(min_value=0.05, max_value=2.0))
    def test_property_a_proven_hypothesis_is_never_refuted(self, text, kind, cls, lo, width):
        g, dom = _HYPOTHESES[kind](parse(text)), DomainInterval(lo, lo + width)
        if convexity._prove(g, cls, dom) is None:
            return
        # a tolerance relative to the size of g: the search's absolute 1e-9
        # reads rounding of a large g as a counterexample
        tol = 1e-9 * max(1.0, compile_interval(g)((dom.lo, dom.hi))[1])
        assert check_membership(g, cls, dom, samples=20_000, seed=1, tol=tol).ok

    @pytest.mark.parametrize("text,lo,hi", [
        ("x^3", -1.0, 1.0),
        ("-x^2", 0.0, 1.0),
        ("-x^2", -1.0, 1.0),
        ("abs(x)", -1.0, 1.0),
        ("abs(x^2 - 0.25)", 0.0, 1.0),
        ("x^2 - 0.0001*exp(-((x-0.3137)*10000)^2)", 0.0, 1.0),
    ])
    @pytest.mark.parametrize("cls", _PROVABLE[:3], ids=("plain", "h_alpha_m", "h_plain"))
    def test_never_proven(self, text, lo, hi, cls):
        assert convexity._prove(parse(text), cls, DomainInterval(lo, hi)) is None

    def test_proven_report(self):
        hypothesis_membership.cache_clear()
        rep, note = hypothesis_membership(parse("x^2"), ConvexityClass("plain_convex"),
                                          DomainInterval(0.0, 1.0), 500, 3, 1e-9)
        assert note is None and rep.ok
        assert rep == MembershipReport("proven", 0, None, 3, MembershipProof(1, 2.0))

    def test_sign_split_proves_a_negative_argument(self):
        # |-1/x| is 1/x on [1, 2], and |2x| is 2x on [0, 1], whose enclosure
        # starts at exactly 0
        for text, lo, hi in (("abs(-1/x)", 1.0, 2.0), ("abs(2*x)", 0.0, 1.0)):
            assert convexity._prove(parse(text), ConvexityClass("plain_convex"),
                                    DomainInterval(lo, hi)) is not None

    def test_holder_rows_share_one_proof_of_their_base(self, cold_caches):
        u, cls, dom = differentiate(parse("1/x"), 2), ConvexityClass("h_alpha_m"), \
            DomainInterval(0.5, 1.5)
        proofs = [convexity._prove(g, cls, dom)
                  for g in (Abs(u), *(Pow(Abs(u), Const(q)) for q in (3.0, 2.0, 4.0 / 3.0)))]
        assert proofs[0] is not None and all(p is proofs[0] for p in proofs)
        assert convexity._convex_proof.cache_info().misses == 4  # one base, three rows

    def test_constant_is_in_alpha_m_for_every_alpha_at_m_one(self):
        dom = DomainInterval(0.0, 1.0)
        for alpha in (0.0, 0.5, 1.0):
            cls = ConvexityClass("alpha_m", alpha=alpha)
            assert convexity._prove(parse("abs(2)"), cls, dom) == MembershipProof(1, 0.0)
        for text, cls in (("-2", ConvexityClass("alpha_m", alpha=0.5)),
                          ("abs(2)", ConvexityClass("alpha_m", alpha=0.5, m=0.5)),
                          ("x^2", ConvexityClass("alpha_m", alpha=0.5)),
                          ("x^2", ConvexityClass("h_alpha_m", h=HFunction.power(0.5)))):
            assert convexity._prove(parse(text), cls, dom) is None

    def test_prove_first_keeps_each_class_domain(self, cold_caches):
        # |f''| of x^2 is the constant 2, proven (0.5, 1)-convex on [0, 1];
        # alpha_m is defined on [0, inf), so on [-1, 1] the prover gives up
        # and the search reports why, while plain convexity is proven there
        f = parse("x^2")
        g, cls = Abs(differentiate(f, 2)), ConvexityClass("alpha_m", alpha=0.5)
        assert convexity._prove(g, cls, DomainInterval(0.0, 1.0), f) == MembershipProof(1, 0.0)
        dom = DomainInterval(-1.0, 1.0)
        assert convexity._prove(g, cls, dom, f) is None
        assert hypothesis_membership(g, cls, dom, 50, 0, 1e-9, f=f) == (
            None, "membership precondition failed: sense 'alpha_m' is defined on [0,inf); "
                  "domain starts at -1.0")
        rep, note = hypothesis_membership(g, ConvexityClass("plain_convex"), dom, 50, 0, 1e-9, f=f)
        assert note is None and rep.verdict == "proven"

    def test_a_failed_precondition_is_left_to_the_search(self):
        # h_plain needs g >= 0 at the grid points: the prover gives up, and
        # the search reports the reason
        hypothesis_membership.cache_clear()
        args = (parse("x - 1"), ConvexityClass("h_plain"), POS, 50, 0, 1e-9)
        assert convexity._prove(*args[:3]) is None
        assert "non-negative" in hypothesis_membership(*args)[1]
        with pytest.raises(ValueError, match="samples must be non-negative"):
            hypothesis_membership(parse("x^2"), ConvexityClass("plain_convex"), POS, -1, 0, 1e-9)
