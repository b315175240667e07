"""Generalized convexity classes and randomized membership falsification.

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
random sampling; any witness found is re-evaluated before being reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError, PreconditionError
from .expr import DomainInterval, Node, compile_fn, evaluate

__all__ = [
    "HFunction", "ConvexityClass", "MembershipReport", "Witness",
    "evaluate_h", "check_membership", "hypothesis_membership", "SENSES", "SENSE_PARAMS",
]

# the parameters each sense reads, in display order; the others must stay
# at their defaults (h identity, alpha = m = s = 1)
SENSE_PARAMS = {
    "plain_convex": (),
    "h_plain": ("h",),
    "alpha_m": ("alpha", "m"),
    "h_alpha_m": ("h", "alpha", "m"),
    "s_first": ("s",),
    "s_second": ("s",),
    "s_alpha_m_first": ("alpha", "m", "s"),
    "s_alpha_m_second": ("alpha", "m", "s"),
}
SENSES = tuple(SENSE_PARAMS)

# senses whose defining inequality uses lam strictly inside (0,1)
_OPEN_SENSES = frozenset({"h_plain", "h_alpha_m"})
# senses that require the tested function to be non-negative
_NONNEG_SENSES = frozenset({"h_plain", "h_alpha_m", "s_alpha_m_first", "s_alpha_m_second"})
# senses whose domain must sit in [0, inf)
_NONNEG_DOMAIN_SENSES = frozenset(
    {"alpha_m", "s_first", "s_second", "s_alpha_m_first", "s_alpha_m_second"}
)

_H_KINDS = ("identity", "power", "constant_one", "reciprocal", "custom")


@dataclass(frozen=True)
class HFunction:
    """Weight function h on (0,1). kind selects a family:

    identity h(t)=t, power h(t)=t^s with s in (0,1], constant_one h(t)=1,
    reciprocal h(t)=1/t, or a custom expression in the variable t.
    """

    kind: str
    s: float = 1.0
    expr: Optional[Node] = None

    def __post_init__(self):
        if self.kind not in _H_KINDS:
            raise ValueError(f"unknown h kind {self.kind!r}")
        if self.kind == "power" and not (0.0 < self.s <= 1.0):
            raise ValueError(f"power h needs s in (0,1], got {self.s!r}")
        if self.kind == "custom" and self.expr is None:
            raise ValueError("custom h needs an expression")

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
        if self.kind == "identity":
            return "t"
        if self.kind == "power":
            return f"t^{self.s:g}"
        if self.kind == "constant_one":
            return "1"
        if self.kind == "reciprocal":
            return "1/t"
        return str(self.expr)


def evaluate_h(h: HFunction, t: float, alpha: float) -> float:
    """Return h(t)^alpha for t in (0,1); alpha = 0 gives 1 by convention."""
    if not (0.0 < t < 1.0):
        raise DomainError(f"h is evaluated on (0,1) only, got t={t!r}")
    if h.kind == "identity":
        hv = t
    elif h.kind == "power":
        hv = t ** h.s
    elif h.kind == "constant_one":
        hv = 1.0
    elif h.kind == "reciprocal":
        hv = 1.0 / t
    else:
        hv = evaluate(h.expr, t)
    if hv < 0.0:
        raise PreconditionError(f"h({t!r}) = {hv!r} is negative; h must be non-negative")
    if alpha == 0.0:
        return 1.0
    return hv ** alpha


@dataclass(frozen=True)
class ConvexityClass:
    """Parameter bundle (sense, h, alpha, m, s) naming one convexity class.

    Fields irrelevant to the chosen sense must be left at their defaults
    (h identity, alpha = m = s = 1).
    """

    sense: str
    h: HFunction = field(default_factory=HFunction.identity)
    alpha: float = 1.0
    m: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}; expected one of {SENSES}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha!r}")
        if not (0.0 < self.m <= 1.0):
            raise ValueError(f"m must lie in (0,1], got {self.m!r}")
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"s must lie in (0,1], got {self.s!r}")
        used = SENSE_PARAMS[self.sense]
        for name, value, default in (("h", self.h.kind, "identity"), ("alpha", self.alpha, 1),
                                     ("m", self.m, 1), ("s", self.s, 1)):
            if name not in used and value != default:
                raise ValueError(
                    f"sense {self.sense!r} does not use {name}; leave it at {default}"
                )

    def describe(self) -> str:
        parts = [f"sense={self.sense}"]
        for name in SENSE_PARAMS[self.sense]:
            value = self.h.describe() if name == "h" else f"{getattr(self, name):g}"
            parts.append(f"{name}={value}")
        return ";".join(parts)


@dataclass(frozen=True)
class Witness:
    x: float
    y: float
    lam: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class MembershipReport:
    verdict: str  # "no-counterexample-found" | "counterexample"
    samples_used: int
    witness: Optional[Witness]
    seed: int
    exponent_reading: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "no-counterexample-found"


def _sense_sides(cls: ConvexityClass, g, x: float, y: float, lam: float):
    """Return (lhs, rhs) of the defining inequality for one triple."""
    sense = cls.sense
    if sense == "plain_convex":
        return g(lam * x + (1.0 - lam) * y), lam * g(x) + (1.0 - lam) * g(y)
    if sense == "s_second":
        s = cls.s
        return g(lam * x + (1.0 - lam) * y), lam ** s * g(x) + (1.0 - lam) ** s * g(y)
    if sense == "s_first":
        # mu = lam; nu chosen so mu^s + nu^s = 1
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


def check_membership(
    g: Node,
    cls: ConvexityClass,
    dom: DomainInterval,
    samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> MembershipReport:
    """Search for a violation of the class's defining inequality on dom.

    Deterministic pass first: a 21 x 21 grid in (x, y) crossed with lam in
    {0.1, ..., 0.9} (endpoints 0 and 1 added for closed-interval senses).
    Then `samples` seeded random triples (0 keeps the grid pass alone),
    generated up-front so the outcome depends only on the seed. A found
    witness is re-evaluated independently; no counterexample is ever
    reported from a stale value.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples!r}")
    reading = "mu^(alpha*s)" if cls.sense.startswith("s_alpha_m") else None
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

    lam_grid = [0.1 * k for k in range(1, 10)]
    if cls.sense not in _OPEN_SENSES:
        lam_grid = [0.0] + lam_grid + [1.0]

    def sides(x: float, y: float, lam: float):
        try:
            return _sense_sides(cls, gc, x, y, lam)
        except DomainError as exc:
            raise PreconditionError(
                f"domain too narrow for the combination or y/m argument "
                f"(x={x!r}, y={y!r}, lam={lam!r}): {exc}"
            ) from None

    used = 0
    found = None
    for x in xs:
        for y in xs:
            for lam in lam_grid:
                lhs, rhs = sides(x, y, lam)
                used += 1
                if lhs > rhs + tol:
                    found = (x, y, lam)
                    break
            if found:
                break
        if found:
            break

    if found is None:
        rng = random.Random(seed)
        lo, hi = dom.lo, dom.hi
        triples = [
            (rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.0, 1.0))
            for _ in range(samples)
        ]
        for x, y, lam in triples:
            # keep a buffer so 1-lam cannot round to an endpoint of (0,1)
            if cls.sense in _OPEN_SENSES and not (1e-12 < lam < 1.0 - 1e-12):
                continue
            lhs, rhs = sides(x, y, lam)
            used += 1
            if lhs > rhs + tol:
                found = (x, y, lam)
                break

    if found is None:
        return MembershipReport("no-counterexample-found", used, None, seed, reading)

    # independent re-evaluation of the candidate witness
    x, y, lam = found
    lhs, rhs = sides(x, y, lam)
    if not (lhs > rhs + tol):
        return MembershipReport("no-counterexample-found", used, None, seed, reading)
    return MembershipReport(
        "counterexample", used, Witness(x, y, lam, lhs, rhs), seed, reading
    )


def hypothesis_membership(g: Node, cls: ConvexityClass, dom: DomainInterval, **search):
    """check_membership(g, cls, dom, **search) for a rule's hypothesis, as
    (report, None); a failed precondition gives (None, reason) instead of
    raising, so the hypothesis is reported unverified."""
    try:
        return check_membership(g, cls, dom, **search), None
    except PreconditionError as exc:
        return None, f"membership precondition failed: {exc}"
