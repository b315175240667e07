"""Midpoint/trapezoid deviation bounds for generalized convex functions.

Ten rules are implemented. Writing L = b-a, q for the Holder conjugate of p,
Dk(x) = |f^(k)(x)|, xm = (a+b)/(2m) and the kernel moments M0, M1, M2, C2, C4
from `kernels`, the right-hand sides are:

  T1  (L/4) [ (D1(a)+D1(b)+2m D1(xm)) M1 + (m/2) D1(xm) ]
  T2  (L/(4(p+1)^(1/p))) [ B(a)^(1/q) + B(b)^(1/q) ],
        B(x) = (D1(x)^q - m D1(xm)^q) M0 + m D1(xm)^q
  C1  (L/(4(p+1)^(1/p))) [ (D1(a)+D1(b)-2m D1(xm)) M0@(alpha/q) + 2m D1(xm) ]
  T3  (L/2^((2p+1)/p)) [ B(a)^(1/q) + B(b)^(1/q) ],
        B(x) = (D1(x)^q - m D1(xm)^q) M1 + (m/2) D1(xm)^q
  C2  (L/2^((2p+1)/p)) [ (D1(a)+D1(b)-2m D1(xm)) C2 + m D1(xm) ]
  T4  (L^2/2) [ (D2(a) - m D2(b/m)) M2 + (m/6) D2(b/m) ]
  T5  (L^2/2) beta(p+1,p+1)^(1/p) [ (D2(a)^q - m D2(b/m)^q) M0 + m D2(b/m)^q ]^(1/q)
  C3  (L^2/2) beta(p+1,p+1)^(1/p) [ (D2(a) - m D2(b/m)) M0@(alpha/q) + m D2(b/m) ]
  T6  (L^2/(2 6^(1/p))) [ (D2(a)^q - m D2(b/m)^q) M2 + (m/6) D2(b/m)^q ]^(1/q)
  C4  (L^2/(2 6^(1/p))) [ (D2(a) - m D2(b/m)) C4 + (m/6) D2(b/m) ]

Each rule is one row of the table `_RULES`, read by one evaluator.

The left-hand side is the midpoint deviation for T1, T2, C1, T3, C2 and the
trapezoid deviation for T4, T5, C3, T6, C4. The hypothesis behind the first
group is membership of |f'| (T1) or |f'|^q (the rest) in the declared class;
the second group uses |f''| or |f''|^q. C2, C3 and C4 carry no dominance
guarantee; their verdicts are recorded empirically.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Optional

from .convexity import ConvexityClass, MembershipReport, hypothesis_membership, within
from .errors import DomainError
from .expr import (Abs, Const, DomainInterval, Node, Pow, Value, compile_fn, differentiate,
                   evaluate)
from .kernels import HolderPair, _beta_root, integral, kernel_moment
from .records import FIRST_DERIVATIVE_RULES, HOLDER_RULES, RULE_IDS, SECOND_DERIVATIVE_RULES

__all__ = [
    "RULE_IDS", "FIRST_DERIVATIVE_RULES", "SECOND_DERIVATIVE_RULES",
    "HOLDER_RULES", "EMPIRICAL_RULES", "BoundInstance", "BoundReport",
    "hh_chain", "lemma1_residual", "lemma2_residual",
    "midpoint_deviation", "trapezoid_deviation",
    "bound_first_derivative", "bound_second_derivative", "verify",
    "hypothesis_function", "hypothesis_domain",
]

# Rules whose coefficient kernels come with no dominance guarantee.  Each of
# these brackets carries an h^(alpha/q)-type moment, and replacing
# (integral of h^alpha)^(1/q) by the integral of h^(alpha/q) shrinks the
# coefficient (Jensen, with t -> t^(1/q) concave), so domination by the rhs is
# not inherited from the parent rule.  Numerical counterexamples exist for all
# three (see the C3/C4 rows the verification suite flags), hence their
# verdicts are recorded empirically instead of being asserted.
EMPIRICAL_RULES = frozenset({"C2", "C3", "C4"})

_NOTE_SECOND = "requires twice-differentiable f; the membership hypothesis applies to |f''|"
_NOTE_EMPIRICAL = "no dominance guarantee for this rule; verdict recorded empirically"
_IDENTITY_SIDE = "identity-side integral over [0,1]"


class BoundInstance(Value):
    """One (rule, function, interval, class, Holder pair) problem."""

    __slots__ = _fields = ("rule_id", "f", "a", "b", "cls", "hp")

    def __init__(self, rule_id: str, f: Node, a: float, b: float, cls: ConvexityClass,
                 hp: Optional[HolderPair] = None):
        if rule_id not in RULE_IDS:
            raise ValueError(f"unknown rule {rule_id!r}; expected one of {RULE_IDS}")
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"need finite a < b, got ({a!r}, {b!r})")
        if cls.sense != "h_alpha_m":
            # every coefficient is a functional of (h, alpha, m)
            raise ValueError(
                f"bound rules are parameterized by the h_alpha_m sense, got {cls.sense!r}"
            )
        if rule_id in HOLDER_RULES:
            if hp is None:
                raise ValueError(f"rule {rule_id} requires a Holder pair")
        elif hp is not None:
            raise ValueError(f"rule {rule_id} takes no Holder pair")
        self._store(rule_id, f, a, b, cls, hp)


class BoundReport(NamedTuple):
    rule_id: str
    lhs: float
    rhs: float
    margin: float  # rhs - lhs
    holds: bool
    components: Mapping[str, float]
    membership: Optional[MembershipReport] = None
    hypothesis_verified: Optional[bool] = None  # None until verify() runs the check
    notes: tuple = ()


@lru_cache(maxsize=64)
def _mean_integral(f: Node, a: float, b: float) -> float:
    """The reference integral of f over [a,b], run once per (f, a, b); a mean
    divides it by b - a. The name stays because perfbench reads its cache.

    Sized to one verification's working set: a verify suite reads 23 keys
    and a problem of ten rules, two lemmas and a quadrature reads one. Each
    entry keeps its f, and so every node of f, alive."""
    return integral(f, a, b, f"reference integral over [{a:g}, {b:g}]").value


def hh_chain(f: Node, a: float, b: float):
    """(f((a+b)/2), integral mean, (f(a)+f(b))/2); convex f orders them."""
    if not (a < b):
        raise ValueError(f"need a < b, got ({a!r}, {b!r})")
    fc = compile_fn(f)
    left = fc(0.5 * (a + b))
    mid = _mean_integral(f, a, b) / (b - a)
    right = 0.5 * (fc(a) + fc(b))
    return left, mid, right


def lemma1_residual(f: Node, a: float, b: float) -> float:
    """|LHS - RHS| of the midpoint identity

    f((a+b)/2) - mean = ((b-a)/4) int_0^1 (1-t)[f'(ta+(1-t)c) - f'(tb+(1-t)c)] dt

    with c = (a+b)/2, both sides via the reference integrator.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got ({a!r}, {b!r})")
    fp = compile_fn(differentiate(f))
    c = 0.5 * (a + b)
    lhs = evaluate(f, c) - _mean_integral(f, a, b) / (b - a)

    def integrand(t: float) -> float:
        w = 1.0 - t
        return w * (fp(t * a + w * c) - fp(t * b + w * c))

    rhs = 0.25 * (b - a) * integral(integrand, 0.0, 1.0, _IDENTITY_SIDE).value
    return abs(lhs - rhs)


def lemma2_residual(f: Node, a: float, b: float) -> float:
    """|LHS - RHS| of the trapezoid identity

    (f(a)+f(b))/2 - mean = ((b-a)^2/2) int_0^1 t(1-t) f''(ta+(1-t)b) dt.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got ({a!r}, {b!r})")
    fpp = compile_fn(differentiate(f, 2))
    fc = compile_fn(f)
    lhs = 0.5 * (fc(a) + fc(b)) - _mean_integral(f, a, b) / (b - a)

    def integrand(t: float) -> float:
        return t * (1.0 - t) * fpp(t * a + (1.0 - t) * b)

    rhs = 0.5 * (b - a) ** 2 * integral(integrand, 0.0, 1.0, _IDENTITY_SIDE).value
    return abs(lhs - rhs)


def midpoint_deviation(f: Node, a: float, b: float) -> float:
    """|f((a+b)/2) - integral mean|."""
    left, mid, _ = hh_chain(f, a, b)
    return abs(left - mid)


def trapezoid_deviation(f: Node, a: float, b: float) -> float:
    """|(f(a)+f(b))/2 - integral mean|."""
    _, mid, right = hh_chain(f, a, b)
    return abs(right - mid)


def hypothesis_function(inst: BoundInstance) -> Node:
    """The function whose class membership the rule assumes."""
    order = 1 if inst.rule_id in FIRST_DERIVATIVE_RULES else 2
    mag = Abs(differentiate(inst.f, order))
    if inst.rule_id in HOLDER_RULES:
        return Pow(mag, Const(inst.hp.q))
    return mag


def hypothesis_domain(inst: BoundInstance) -> DomainInterval:
    """Smallest closed interval containing every point the rule evaluates."""
    a, b, m = inst.a, inst.b, inst.cls.m
    if inst.rule_id in FIRST_DERIVATIVE_RULES:
        xm = (a + b) / (2.0 * m)
        return DomainInterval(min(a, xm), max(b, xm))
    bm = b / m
    return DomainInterval(min(a, bm), max(b, bm))


def _root_q(inner: float, q: float, rule: str) -> float:
    # tiny negatives are cancellation noise; real ones are a domain failure
    if inner < 0.0:
        if inner > -1e-12:
            inner = 0.0
        else:
            raise DomainError(
                f"rule {rule}: bracket value {inner!r} is negative; "
                f"its 1/q power is undefined"
            )
    return inner ** (1.0 / q)


class _Rule(NamedTuple):
    """One deviation rule as data. With ends E = (D(a), D(b)) for order 1 or
    (D(a),) for order 2, Dm = D(xm) or D(b/m) and M the kernel moment:

      "linear"  one bracket  (sum(E) - w m Dm) M + (m/k) Dm
      "root"    per end      ((E_i^q - m Dm^q) M + m Dm^q / k)^(1/q)

    and rhs = prefactor * (sum of the brackets).
    """

    order: int  # derivative order of f
    kernel: str  # kernel_moment kind
    alpha_over_q: bool  # the kernel takes alpha/q instead of alpha
    prefactor: Callable
    bracket: str  # "linear" or "root"
    k: float
    w: Optional[float] = None
    beta: bool = False
    note: Optional[str] = None


# prefactors as functions of (L, p, beta(p+1,p+1)^(1/p)); each C rule shares its T rule's
_PREFACTOR = {
    "T1": lambda L, p, _: L / 4.0,
    "T2": lambda L, p, _: L / (4.0 * (p + 1.0) ** (1.0 / p)),
    "T3": lambda L, p, _: L / 2.0 ** ((2.0 * p + 1.0) / p),
    "T4": lambda L, p, _: L * L / 2.0,
    "T5": lambda L, p, root: 0.5 * L * L * root,
    "T6": lambda L, p, _: L * L / (2.0 * 6.0 ** (1.0 / p)),
}
_RULES = {
    "T1": _Rule(1, "M1", False, _PREFACTOR["T1"], "linear", 2.0, w=-2.0),
    "T2": _Rule(1, "M0", False, _PREFACTOR["T2"], "root", 1.0),
    "C1": _Rule(1, "M0", True, _PREFACTOR["T2"], "linear", 0.5, w=2.0),
    "T3": _Rule(1, "M1", False, _PREFACTOR["T3"], "root", 2.0),
    "C2": _Rule(1, "C2", False, _PREFACTOR["T3"], "linear", 1.0, w=2.0),
    "T4": _Rule(2, "M2", False, _PREFACTOR["T4"], "linear", 6.0, w=1.0),
    "T5": _Rule(2, "M0", False, _PREFACTOR["T5"], "root", 1.0, beta=True),
    "C3": _Rule(2, "M0", True, _PREFACTOR["T5"], "linear", 1.0, w=1.0, beta=True),
    "T6": _Rule(2, "M2", False, _PREFACTOR["T6"], "root", 6.0),
    "C4": _Rule(2, "C4", False, _PREFACTOR["T6"], "linear", 6.0, w=1.0),
}
_T1_TIGHT = _RULES["T1"]._replace(k=1.0, w=2.0,
                                  note="tight variant in use; rhs uses the sharper bracket")


def _evaluate_rule(inst: BoundInstance, rule: _Rule, tol: float) -> BoundReport:
    a, b, hp = inst.a, inst.b, inst.hp
    h, alpha, m = inst.cls.h, inst.cls.alpha, inst.cls.m
    p, q = (hp.p, hp.q) if hp is not None else (None, None)
    L = b - a
    d = compile_fn(differentiate(inst.f, rule.order))
    if rule.order == 1:
        names, points = ("d1_a", "d1_b", "d1_mid"), (a, b, (a + b) / (2.0 * m))
    else:
        names, points = ("d2_a", "d2_b_over_m"), (a, b / m)
    *ends, dm = values = [abs(d(x)) for x in points]

    comp = {"length": L, "m": m}
    if q is not None:
        comp["q"] = q
    comp.update(zip(names, values))
    mom = kernel_moment(rule.kernel, h, alpha / q if rule.alpha_over_q else alpha,
                        hp=hp if rule.kernel in ("C2", "C4") else None).value
    comp[f"moment_{rule.kernel}" + ("_alpha_over_q" if rule.alpha_over_q else "")] = mom
    root = None
    if rule.beta:
        comp["beta_root"] = root = _beta_root(p)
    comp["prefactor"] = rule.prefactor(L, p, root)
    if rule.bracket == "root":
        base = m * dm ** q
        brackets = [_root_q((e ** q - base) * mom + base / rule.k, q, inst.rule_id)
                    for e in ends]
    else:
        brackets = [(sum(ends) - rule.w * m * dm) * mom + m / rule.k * dm]
    keys = ("bracket_a", "bracket_b") if len(brackets) == 2 else ("bracket",)
    comp.update(zip(keys, brackets))
    rhs = comp["prefactor"] * sum(brackets)

    deviation = midpoint_deviation if rule.order == 1 else trapezoid_deviation
    lhs = deviation(inst.f, a, b)
    notes = (_NOTE_SECOND,) if rule.order == 2 else ()
    if inst.rule_id in EMPIRICAL_RULES:
        notes += (_NOTE_EMPIRICAL,)
    if rule.note:
        notes += (rule.note,)
    return BoundReport(inst.rule_id, lhs, rhs, rhs - lhs, within(lhs, rhs, tol), comp,
                       notes=notes)


def bound_first_derivative(inst: BoundInstance, variant: str = "printed",
                           tol: float = 1e-9) -> BoundReport:
    """Evaluate one of T1, T2, C1, T3, C2 without the membership check.

    `variant` selects between the standard T1 bracket ("printed") and the
    sharper one from the same derivation ("tight"); other rules accept only
    "printed".
    """
    rule = inst.rule_id
    if rule not in FIRST_DERIVATIVE_RULES:
        raise ValueError(f"{rule} is not a first-derivative rule")
    _check_variant(rule, variant)
    row = _T1_TIGHT if variant == "tight" else _RULES[rule]
    return _evaluate_rule(inst, row, tol)


def _check_variant(rule: str, variant: str):
    if variant not in ("printed", "tight"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "tight" and rule != "T1":
        raise ValueError("the tight variant exists only for T1")


def bound_second_derivative(inst: BoundInstance, tol: float = 1e-9) -> BoundReport:
    """Evaluate one of T4, T5, C3, T6, C4 without the membership check."""
    if inst.rule_id not in SECOND_DERIVATIVE_RULES:
        raise ValueError(f"{inst.rule_id} is not a second-derivative rule")
    return _evaluate_rule(inst, _RULES[inst.rule_id], tol)


def verify(
    inst: BoundInstance,
    tol: float = 1e-9,
    samples: int = 2000,
    seed: int = 0,
    variant: str = "printed",
) -> BoundReport:
    """Membership check on the rule's hypothesis function, then the bound.

    The check goes through `hypothesis_membership`, which runs one search
    per distinct (function, class, domain, samples, seed, tol) and shares its
    report between calls, so verify takes no precomputed membership. A
    precondition failure downgrades the report to hypothesis_verified=False
    instead of raising. A variant other than "printed" is rejected, before
    the search, for every rule but T1.
    """
    _check_variant(inst.rule_id, variant)
    membership, failure = hypothesis_membership(
        hypothesis_function(inst), inst.cls, hypothesis_domain(inst), samples, seed, tol,
        f=inst.f)
    extra = (failure,) if failure else ()
    if membership is not None and not membership.ok:
        extra = ("hypothesis membership counterexample found",)

    if inst.rule_id in FIRST_DERIVATIVE_RULES:
        report = bound_first_derivative(inst, variant=variant, tol=tol)
    else:
        report = bound_second_derivative(inst, tol=tol)
    return report._replace(
        membership=membership,
        hypothesis_verified=membership is not None and membership.ok,
        notes=report.notes + extra,
    )
