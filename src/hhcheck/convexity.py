"""Generalized convexity classes: membership proofs by interval enclosure,
and randomized membership falsification.

Eight senses are supported. Writing g for the function under test, x, y for
points of the domain and lam for the weight:

  plain_convex       g(lam*x+(1-lam)*y) <= lam*g(x) + (1-lam)*g(y),  lam in [0,1]
  s_first            g(mu*x+nu*y) <= mu^s g(x) + nu^s g(y) with mu^s + nu^s = 1
  s_second           g(lam*x+(1-lam)*y) <= lam^s g(x) + (1-lam)^s g(y)
  alpha_m            g(lam*x+m(1-lam)*y) <= lam^a g(x) + m(1-lam^a) g(y)
  s_alpha_m_first    g(lam*x+(1-lam)*y) <= lam^(a*s) g(x) + m(1-lam^(a*s)) g(y/m)
  s_alpha_m_second   g(lam*x+(1-lam)*y) <= lam^(a*s) g(x) + m(1-lam^a)^s g(y/m)
  h_plain            g(lam*x+(1-lam)*y) <= h(lam) g(x) + h(1-lam) g(y),  lam in (0,1)
  h_alpha_m          g(lam*x+m(1-lam)*y) <= h^a(lam) g(x) + m(1-h^a(lam)) g(y)

The h-based and s-(alpha,m) senses require g to be non-negative; violating
that is a precondition failure, not a counterexample. Membership is only
semi-decidable, so the check is a deterministic grid pass followed by seeded
random sampling. All eight inequalities share one form, lhs = g(lam*x + c*y)
and rhs = wx*g(x) + wy*g(Y), with the coefficients (c, wx, wy) and Y (y or
y/m) read from one table. The h senses weight with an HFunction, and what
each kind of h means (h itself, the power-family exponent the kernels read,
the text of h) is one row of _H_KINDS, read once when the HFunction is built;
a custom h is compiled then.

A search checks one triple at a time, the grid and then the random draws,
in definition order: x, then y, then lam on the grid, draw order after it.
Within a triple it calls g and h in the order of the sense's definition,
so the first counterexample is the witness and the first failing
evaluation is the error.

The bound rules and the quadrature check their hypotheses through
hypothesis_membership, an lru_cache that checks each distinct hypothesis
once (a DomainInterval's equality sees its endpoint signs). It proves what
it can before it searches: g convex, for the classes that are plain
convexity at their parameters, by enclosing g'' on pieces of the domain
with interval Taylor coefficients of the f that g is built from, and g
constant, for alpha_m at m = 1. Anything else goes to check_membership,
which makes its own preconditions and searches; check-class only searches.

Every record verdict (bounds, quadrature, lemma rows, means) is decided by
`within`, with an absolute slack (the verdict tol) or `relative_slack`; both,
and SENSES and SENSE_PARAMS, live in `base`, so `cli` and `means` skip this.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional

from .base import SENSE_PARAMS, SENSES, Value, relative_slack, within
from .errors import DomainError, PreconditionError
from .expr import (Abs, Const, DomainInterval, Node, Pow, _jet, _mul, compile_fn,
                   differentiate)

__all__ = [
    "HFunction", "ConvexityClass", "MembershipReport", "MembershipProof", "Witness",
    "evaluate_h", "check_membership", "hypothesis_membership", "SENSES", "SENSE_PARAMS",
    "within", "relative_slack",
]

# senses whose defining inequality uses lam strictly inside (0,1)
_OPEN_SENSES = frozenset({"h_plain", "h_alpha_m"})
# senses that require the tested function to be non-negative
_NONNEG_SENSES = frozenset({"h_plain", "h_alpha_m", "s_alpha_m_first", "s_alpha_m_second"})
# senses whose domain must sit in [0, inf)
_NONNEG_DOMAIN_SENSES = frozenset(
    {"alpha_m", "s_first", "s_second", "s_alpha_m_first", "s_alpha_m_second"}
)


# What each kind of h means, given its s and expr: h as a function of t; the
# exponent u with h(t) = t^u when h is in the power family, else None; and
# the text of h. A custom h is compiled here, once per HFunction.
_H_KINDS = {
    "identity": lambda s, expr: (lambda t: t, 1.0, "t"),
    "power": lambda s, expr: (lambda t, s=s: t ** s, s, f"t^{s:g}"),
    "constant_one": lambda s, expr: (lambda t: 1.0, 0.0, "1"),
    "reciprocal": lambda s, expr: (lambda t: 1.0 / t, None, "1/t"),
    "custom": lambda s, expr: (compile_fn(expr), None, str(expr)),
}


class HFunction(Value):
    """Weight function h on (0,1). kind selects a family:

    identity h(t)=t, power h(t)=t^s with s in (0,1], constant_one h(t)=1,
    reciprocal h(t)=1/t, or a custom expression in the variable t.

    fn, exponent and text hold the kind's row of _H_KINDS. They are not
    fields, so ==, hash, repr and pickling see kind, s and expr only.
    """

    _fields = ("kind", "s", "expr")
    __slots__ = _fields + ("fn", "exponent", "text")

    def __init__(self, kind: str, s: float = 1.0, expr: Optional[Node] = None):
        if kind not in _H_KINDS:
            raise ValueError(f"unknown h kind {kind!r}")
        if kind == "power" and not (0.0 < s <= 1.0):
            raise ValueError(f"power h needs s in (0,1], got {s!r}")
        if kind == "custom" and expr is None:
            raise ValueError("custom h needs an expression")
        self._store(kind, s, expr, *_H_KINDS[kind](s, expr), names=HFunction.__slots__)

    @classmethod
    def identity(cls) -> "HFunction":
        return cls("identity")

    @classmethod
    def power(cls, s: float) -> "HFunction":
        return cls("power", s=float(s))

    @classmethod
    def one(cls) -> "HFunction":
        return cls("constant_one")

    @classmethod
    def reciprocal(cls) -> "HFunction":
        return cls("reciprocal")

    @classmethod
    def custom(cls, expr: Node) -> "HFunction":
        return cls("custom", expr=expr)

    def describe(self) -> str:
        return self.text

    __str__ = describe  # so a message can format h lazily


_IDENTITY_H = HFunction.identity()  # the default h of every ConvexityClass


def evaluate_h(h: HFunction, t: float, alpha: float) -> float:
    """Return h(t)^alpha for t in (0,1), calling h.fn; alpha = 0 gives 1 by
    convention. A negative h(t) is a precondition failure."""
    if not (0.0 < t < 1.0):
        raise DomainError(f"h is evaluated on (0,1) only, got t={t!r}")
    hv = h.fn(t)
    if hv < 0.0:
        raise PreconditionError(f"h({t!r}) = {hv!r} is negative; h must be non-negative")
    if alpha == 0.0:
        return 1.0
    return hv ** alpha


class ConvexityClass(Value):
    """Parameter bundle (sense, h, alpha, m, s) naming one convexity class.

    Fields irrelevant to the chosen sense must be left at their defaults
    (h identity, alpha = m = s = 1).
    """

    __slots__ = _fields = ("sense", "h", "alpha", "m", "s")

    def __init__(self, sense: str, h: HFunction = _IDENTITY_H, alpha: float = 1.0,
                 m: float = 1.0, s: float = 1.0):
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}; expected one of {SENSES}")
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0,1], got {alpha!r}")
        if not (0.0 < m <= 1.0):
            raise ValueError(f"m must lie in (0,1], got {m!r}")
        if not (0.0 < s <= 1.0):
            raise ValueError(f"s must lie in (0,1], got {s!r}")
        used = SENSE_PARAMS[sense]
        for name, value, default in (("h", h.kind, "identity"), ("alpha", alpha, 1),
                                     ("m", m, 1), ("s", s, 1)):
            if name not in used and value != default:
                raise ValueError(
                    f"sense {sense!r} does not use {name}; leave it at {default}"
                )
        self._store(sense, h, alpha, m, s)

    def describe(self) -> str:
        parts = [f"sense={self.sense}"]
        for name in SENSE_PARAMS[self.sense]:
            value = self.h.describe() if name == "h" else f"{getattr(self, name):g}"
            parts.append(f"{name}={value}")
        return ";".join(parts)


class Witness(NamedTuple):
    x: float
    y: float
    lam: float
    lhs: float
    rhs: float


class MembershipProof(NamedTuple):
    """How a proof went: the pieces the domain was split into, and the least
    lower bound of g'' over them, for the function proven convex (|u| when
    g = |u|^q; 0.0 for a constant g), rounded down from (k+2)! s*c_(k+2)."""

    pieces: int
    least_g2: float


class MembershipReport(NamedTuple):
    """A search's verdict after samples_used triples, with the witness of a
    counterexample; or "proven", from hypothesis_membership's prover alone,
    with samples_used 0 and the proof record."""

    verdict: str  # "no-counterexample-found" | "counterexample" | "proven"
    samples_used: int
    witness: Optional[Witness]
    seed: int
    proof: Optional[MembershipProof] = None

    @property
    def ok(self) -> bool:
        return self.verdict != "counterexample"


# One row per sense. Every sense reads
#   lhs = g(lam*x + c*y),  rhs = wx*g(x) + wy*g(Y),
# and a row holds c(p, lam), wx(p, lam) and wy(p, lam, wx) for the class p,
# whether Y is y/m (else y), and whether wx is evaluated after g at the
# combination point (else before). Only h can fail in a weight, so the call
# order follows each h sense's definition: h_plain evaluates h(lam) after the
# combination point and h(1-lam) after g(x); h_alpha_m evaluates h^alpha(lam)
# first. `m * (1.0 - w) * g(y)` groups as `(m * (1.0 - w)) * g(y)`, so folding
# m into wy changes no bit.
_COEFFICIENTS = {
    "plain_convex": (lambda p, lam: 1.0 - lam, lambda p, lam: lam,
                     lambda p, lam, wx: 1.0 - lam, False, False),
    "s_second": (lambda p, lam: 1.0 - lam, lambda p, lam: lam ** p.s,
                 lambda p, lam, wx: (1.0 - lam) ** p.s, False, False),
    # mu = lam; nu chosen so mu^s + nu^s = 1
    "s_first": (lambda p, lam: (1.0 - lam ** p.s) ** (1.0 / p.s), lambda p, lam: lam ** p.s,
                lambda p, lam, wx: 1.0 - wx, False, False),
    "alpha_m": (lambda p, lam: p.m * (1.0 - lam), lambda p, lam: lam ** p.alpha,
                lambda p, lam, wx: p.m * (1.0 - wx), False, False),
    "s_alpha_m_first": (lambda p, lam: 1.0 - lam, lambda p, lam: lam ** (p.alpha * p.s),
                        lambda p, lam, wx: p.m * (1.0 - wx), True, False),
    "s_alpha_m_second": (lambda p, lam: 1.0 - lam, lambda p, lam: lam ** (p.alpha * p.s),
                         lambda p, lam, wx: p.m * (1.0 - lam ** p.alpha) ** p.s, True, False),
    "h_plain": (lambda p, lam: 1.0 - lam, lambda p, lam: evaluate_h(p.h, lam, 1.0),
                lambda p, lam, wx: evaluate_h(p.h, 1.0 - lam, 1.0), False, True),
    "h_alpha_m": (lambda p, lam: p.m * (1.0 - lam), lambda p, lam: evaluate_h(p.h, lam, p.alpha),
                  lambda p, lam, wx: p.m * (1.0 - wx), False, False),
}


def _grid_points(dom: DomainInterval, npts: int) -> list[float]:
    lo, hi = dom.lo, dom.hi
    step = (hi - lo) / (npts - 1)
    pts = [lo + i * step for i in range(npts)]
    pts[0], pts[-1] = lo, hi
    if dom.open_lo:
        pts[0] = lo + 0.5 * step
    if dom.open_hi:
        pts[-1] = hi - 0.5 * step
    return pts


def _lam_grid(sense: str) -> list[float]:
    lams = [0.1 * k for k in range(1, 10)]
    return lams if sense in _OPEN_SENSES else [0.0] + lams + [1.0]


def _triples(dom: DomainInterval, xs: list[float], sense: str, samples: int, seed: int):
    """The triples (x, y, lam) a search checks, in definition order: the
    grid, x then y then lam, and then `samples` seeded random draws, less
    the open senses' lam outside (1e-12, 1-1e-12)."""
    yield from product(xs, xs, _lam_grid(sense))
    rng = random.Random(seed)
    lo, span, rand = dom.lo, dom.hi - dom.lo, rng.random
    closed = sense not in _OPEN_SENSES
    for _ in range(samples):
        # a draw is uniform(lo, hi), uniform(lo, hi), uniform(0.0, 1.0), and
        # uniform(a, b) is a + (b - a) * random(), bit for bit
        x, y, lam = lo + span * rand(), lo + span * rand(), rand()
        # the buffer keeps 1-lam from rounding to an endpoint of (0,1)
        if closed or 1e-12 < lam < 1.0 - 1e-12:
            yield x, y, lam


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples!r}")


def _preconditions(g: Node, cls: ConvexityClass, dom: DomainInterval, samples: int):
    """The checks a search makes first, with its errors: samples >= 0, dom in
    [0, inf) and g >= 0 at the grid points where the sense needs them.
    Returns g compiled and the grid points."""
    _check_samples(samples)
    if cls.sense in _NONNEG_DOMAIN_SENSES and dom.lo < 0.0:
        raise PreconditionError(
            f"sense {cls.sense!r} is defined on [0,inf); domain starts at {dom.lo!r}"
        )
    gc = compile_fn(g)
    xs = _grid_points(dom, 21)
    if cls.sense in _NONNEG_SENSES:
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
    return gc, xs


def check_membership(
    g: Node,
    cls: ConvexityClass,
    dom: DomainInterval,
    samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> MembershipReport:
    """Search for a violation of the class's defining inequality on dom.

    The preconditions come first (_preconditions). Then a deterministic
    pass: a 21 x 21 grid in (x, y) crossed with lam in {0.1, ..., 0.9}
    (endpoints 0 and 1 added for closed-interval senses). Then `samples`
    seeded random triples (0 keeps the grid pass alone), so the outcome
    depends only on the seed. The triples are checked one at a time in
    definition order (x, then y, then lam on the grid; draw order after
    it). Each triple computes c, wx and wy and calls g in the order of the
    sense's definition: the first counterexample is the witness, a weight
    that fails ends the search at the first triple of its lam, and a
    DomainError of g is raised as the PreconditionError that names its
    triple.
    """
    gc, xs = _preconditions(g, cls, dom, samples)
    c_of, wx_of, wy_of, y_over_m, wx_late = _COEFFICIENTS[cls.sense]
    try:
        for used, (x, y, lam) in enumerate(_triples(dom, xs, cls.sense, samples, seed), 1):
            c = c_of(cls, lam)
            if not wx_late:
                wx = wx_of(cls, lam)
            lhs = gc(lam * x + c * y)
            if wx_late:
                wx = wx_of(cls, lam)
            gx = gc(x)
            wy = wy_of(cls, lam, wx)
            rhs = wx * gx + wy * gc(y / cls.m if y_over_m else y)
            if lhs > rhs + tol:  # not within(); see its docstring
                return MembershipReport("counterexample", used, Witness(x, y, lam, lhs, rhs), seed)
    except DomainError as exc:
        raise PreconditionError(
            f"domain too narrow for the combination or y/m argument "
            f"(x={x!r}, y={y!r}, lam={lam!r}): {exc}"
        ) from None
    return MembershipReport("no-counterexample-found", used, None, seed)


# senses whose coefficients are plain convexity's at h = t and alpha = m = 1
_PLAIN_SENSES = frozenset({"plain_convex", "h_plain", "alpha_m", "h_alpha_m"})
_PIECES = 64  # the most pieces a proof may split its domain into


@lru_cache(maxsize=64)
def _convex_proof(g: Node, lo: float, hi: float, f: Optional[Node] = None,
                  convex: bool = True) -> Optional[MembershipProof]:
    """A proof that g, defined on [lo, hi], is >= 0 and convex there (or
    constant, if not convex), or None.

    |u|^q with q >= 1 is convex where |u| is, since t^q is convex and
    nondecreasing on [0, inf) (Boyd and Vandenberghe, Convex Optimization,
    2004, 3.2.4): the Holder rows of one derivative share one proof. g is
    |u| or u; u is f^(k) if it is differentiate(f, k), k = 1 or 2, else take
    f = u, k = 0. f's Taylor coefficients c_j on [lo, hi] decide: c_k keeps
    one sign s (is >= 0, if g is u), so g = s*u; g is constant if c_(k+1) is
    0, and convex if s*c_(k+2), g''/(k+2)!, is >= 0 on pieces, bisected
    under the budget (Moore, 1966; Tucker, Validated Numerics, 2011)."""
    if (type(g) is Pow and type(g.base) is Abs and type(g.exponent) is Const
            and (g.exponent.value >= 1.0 or not convex)):
        return _convex_proof(g.base, lo, hi, f, convex)
    absolute = type(g) is Abs
    u, k = (g.arg if absolute else g), 0
    if absolute and f is not None:  # identity tests: trees are interned
        u, k = next(((f, j) for j in (1, 2) if u is differentiate(f, j)), (u, 0))
    order = k + 2 if convex else k + 1
    try:
        c = _jet(u, lo, hi, order)
        sign = 1.0 if c[k][0] >= 0.0 else -1.0 if absolute and c[k][1] <= 0.0 else 0.0
        if not sign:
            return None
        if not convex:
            return MembershipProof(1, 0.0) if c[k + 1] == (0.0, 0.0) else None
        todo, pieces, least = [(lo, hi, c)], 0, math.inf
        while todo:
            a, b, c = todo.pop()
            c2 = (c or _jet(u, a, b, order))[order]
            low = c2[0] if sign > 0.0 else -c2[1]
            if low >= 0.0:
                pieces, least = pieces + 1, min(least, low)
                continue
            mid = 0.5 * (a + b)
            if pieces + len(todo) + 2 > _PIECES or not a < mid < b:
                return None
            todo += [(mid, b, None), (a, mid, None)]
    except DomainError:  # a piece with no enclosure ends the proof
        return None
    return MembershipProof(pieces, _mul(least, float(math.factorial(order)))[0])


def _prove(g: Node, cls: ConvexityClass, dom: DomainInterval,
           f: Optional[Node] = None) -> Optional[MembershipProof]:
    """A proof that g is in cls on dom, or None. A convex g is in the
    classes that are plain convexity at their parameters; a constant g is
    in alpha_m at m = 1 for every alpha, where both sides are g. A sense
    defined on [0, inf) is not proven on a domain that starts below 0, so
    the search reports it. _convex_proof shows g >= 0 on all of dom, which
    is all that the search's other preconditions ask."""
    plain = cls.sense in _PLAIN_SENSES and cls.h.kind == "identity" and cls.alpha == cls.m == 1.0
    if not plain and (cls.sense != "alpha_m" or cls.m != 1.0):
        return None
    if cls.sense in _NONNEG_DOMAIN_SENSES and dom.lo < 0.0:
        return None
    return _convex_proof(g, dom.lo, dom.hi, f, plain)


@lru_cache(maxsize=256)
def hypothesis_membership(g: Node, cls: ConvexityClass, dom: DomainInterval,
                          samples: int, seed: int, tol: float, *, f: Optional[Node] = None):
    """The membership of g in cls on dom, for a rule's hypothesis, as
    (report, None); a failed precondition gives (None, reason) instead of
    raising, so the hypothesis is reported unverified.

    A negative samples raises ValueError first, as the search would. The
    prover runs next, and a hypothesis it proves is reported "proven"
    without a search; any other goes to check_membership(g, cls, dom,
    samples, seed, tol), which makes its own preconditions. A caller that
    builds g from f, as |f'| or |f''| or a power of one, passes f, so that
    the prover reads f's Taylor coefficients, not g's.

    Every argument is a frozen value and the outcome is deterministic in
    them, so one check serves every rule and quadrature that assumes the
    same hypothesis: the result is cached under the arguments (a domain's
    equality sees the signs of its endpoints), and reports are shared, not
    copied. check_membership itself neither proves nor is cached, so
    check-class always searches.
    """
    _check_samples(samples)
    proof = _prove(g, cls, dom, f)
    if proof is not None:
        return MembershipReport("proven", 0, None, seed, proof=proof), None
    try:
        return check_membership(g, cls, dom, samples, seed, tol), None
    except PreconditionError as exc:
        return None, f"membership precondition failed: {exc}"
