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
random sampling. All eight inequalities share one form, lhs = g(lam*x + c*y)
and rhs = wx*g(x) + wy*g(Y), with the coefficients (c, wx, wy) and Y (y or
y/m) read from one table. The grid pass is eager: g at each grid point and
at each Y, the coefficients at each lam and g at each distinct combination
point are computed once. Only a search that this pass finds failing runs the
grid again in definition order, for the exact witness or error. Random
triples are drawn one at a time.
The bound rules and the quadrature check their hypotheses through
hypothesis_membership, which runs one search per distinct hypothesis.

Every record verdict (bounds, quadrature, lemma rows, means) is decided by
`within`, with an absolute slack (the verdict tol) or `relative_slack`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, PreconditionError
from .expr import DomainInterval, Node, compile_fn, evaluate

__all__ = [
    "HFunction", "ConvexityClass", "MembershipReport", "Witness",
    "evaluate_h", "check_membership", "hypothesis_membership", "SENSES", "SENSE_PARAMS",
    "within", "relative_slack",
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


def within(lhs: float, rhs: float, slack: float) -> bool:
    """The verdict test: lhs <= rhs + slack; a NaN on either side fails it.

    The membership search's two inner loops (`_grid_clean`, and the ordered
    and random triples of `check_membership`) write their counterexample
    test lhs > rhs + tol inline instead: a suite runs it ~225k times, and
    there a function call costs more than the comparison itself.
    """
    return lhs <= rhs + slack


def relative_slack(*values: float) -> float:
    """1e-12 relative to the largest |value|, and never below 1e-12."""
    return 1e-12 * max(1.0, *(abs(v) for v in values))


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

    __str__ = describe  # so a message can format h lazily


def evaluate_h(h: HFunction, t: float, alpha: float,
               hfn: Optional[Callable[[float], float]] = None) -> float:
    """Return h(t)^alpha for t in (0,1); alpha = 0 gives 1 by convention.

    A caller that evaluates a custom h many times passes
    hfn = compile_fn(h.expr), compiled once.
    """
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
        hv = evaluate(h.expr, t) if hfn is None else hfn(t)
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
    "h_plain": (lambda p, lam: 1.0 - lam, lambda p, lam: evaluate_h(p.h, lam, 1.0, p.hfn),
                lambda p, lam, wx: evaluate_h(p.h, 1.0 - lam, 1.0, p.hfn), False, True),
    "h_alpha_m": (lambda p, lam: p.m * (1.0 - lam),
                  lambda p, lam: evaluate_h(p.h, lam, p.alpha, p.hfn),
                  lambda p, lam, wx: p.m * (1.0 - wx), False, False),
}


class _Params(NamedTuple):
    """The class parameters the table reads, with a custom h compiled once."""

    alpha: float
    m: float
    s: float
    h: HFunction
    hfn: Optional[Callable[[float], float]]


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


def _grid_clean(gc, xs, gxs, ys, lams, c_of, wx_of, wy_of, p, tol) -> bool:
    """True when no grid triple is a counterexample and no evaluation fails.
    The operands of the ordered pass (gxs = g on xs, or None), computed
    eagerly and grouped as it groups them; g at a combination point z is
    memoized unless z == 0.0, because a dict key merges 0.0 and -0.0."""
    try:
        if gxs is None:
            gxs = [gc(x) for x in xs]
        gys = gxs if ys is xs else [gc(y) for y in ys]
        memo = {}
        get = memo.get
        for lam in lams:
            c, wx = c_of(p, lam), wx_of(p, lam)
            wy = wy_of(p, lam, wx)
            cys = [c * y for y in xs]
            wgys = [wy * gy for gy in gys]
            for x, gx in zip(xs, gxs):
                lx, wgx = lam * x, wx * gx
                for cy, wgy in zip(cys, wgys):
                    z = lx + cy
                    v = get(z)
                    if v is None:
                        v = gc(z)
                        if z != 0.0:
                            memo[z] = v
                    if v > wgx + wgy + tol:  # not within(); see its docstring
                        return False
    except (DomainError, PreconditionError, ArithmeticError):
        return False
    return True


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
    The grid pass is eager: g at each grid point and at y/m, the weights at
    each lam and g at each distinct combination point (held in a memo keyed
    by the float) are computed once, in no set order. When that finds a
    counterexample or an evaluation fails, the grid runs again triple by
    triple in definition order, so the witness, samples_used and the error
    message are those of the first failing triple. Then `samples` seeded
    random triples (0 keeps the grid pass alone), each drawn just before it
    is checked, so the outcome depends only on the seed. Within a triple, g
    and h are called in the order of the sense's definition.
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
    gxs = None  # g on xs, kept from the non-negativity check for the grid pass
    if cls.sense in _NONNEG_SENSES:
        gxs = []
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
            gxs.append(v)

    lam_grid = [0.1 * k for k in range(1, 10)]
    if cls.sense not in _OPEN_SENSES:
        lam_grid = [0.0] + lam_grid + [1.0]

    c_of, wx_of, wy_of, y_over_m, wx_late = _COEFFICIENTS[cls.sense]
    m = cls.m
    hfn = compile_fn(cls.h.expr) if cls.h.kind == "custom" else None
    p = _Params(cls.alpha, m, cls.s, cls.h, hfn)

    # at m = 1, y/m is y bit for bit, so passing xs itself lets the pass reuse gxs
    ys = [y / m for y in xs] if y_over_m and m != 1.0 else xs
    # a clean grid counts as checked; after a hit or a failure there, the
    # grid triples run again in definition order, ahead of the random ones
    ngrid = len(xs) * len(xs) * len(lam_grid)
    used = ngrid if _grid_clean(gc, xs, gxs, ys, lam_grid, c_of, wx_of, wy_of, p, tol) else 0
    ngrid -= used
    ordered = product(xs, xs, lam_grid)
    try:
        rng = random.Random(seed)
        uniform, lo, hi = rng.uniform, dom.lo, dom.hi
        open_lam = cls.sense in _OPEN_SENSES
        for k in range(ngrid + samples):
            if k < ngrid:
                x, y, lam = next(ordered)
            else:
                x, y, lam = uniform(lo, hi), uniform(lo, hi), uniform(0.0, 1.0)
                # keep a buffer so 1-lam cannot round to an endpoint of (0,1)
                if open_lam and not (1e-12 < lam < 1.0 - 1e-12):
                    continue
            c = c_of(p, lam)
            if not wx_late:
                wx = wx_of(p, lam)
            lhs = gc(lam * x + c * y)
            if wx_late:
                wx = wx_of(p, lam)
            gx = gc(x)
            wy = wy_of(p, lam, wx)
            rhs = wx * gx + wy * gc(y / m if y_over_m else y)
            used += 1
            if lhs > rhs + tol:  # not within(); see its docstring
                return MembershipReport("counterexample", used,
                                        Witness(x, y, lam, lhs, rhs), seed, reading)
    except DomainError as exc:
        raise PreconditionError(
            f"domain too narrow for the combination or y/m argument "
            f"(x={x!r}, y={y!r}, lam={lam!r}): {exc}"
        ) from None
    return MembershipReport("no-counterexample-found", used, None, seed, reading)


@lru_cache(maxsize=256)
def hypothesis_membership(g: Node, cls: ConvexityClass, dom: DomainInterval,
                          samples: int, seed: int, tol: float):
    """check_membership(g, cls, dom, samples, seed, tol) for a rule's
    hypothesis, as (report, None); a failed precondition gives (None, reason)
    instead of raising, so the hypothesis is reported unverified.

    Every argument is a frozen value and the search is deterministic in them,
    so one search serves every rule and quadrature that assumes the same
    hypothesis; the result is cached, and reports are shared, not copied.
    The cache keys keyword and positional calls apart, so callers pass all
    six positionally. check_membership itself is not cached, so check-class
    always searches.
    """
    try:
        return check_membership(g, cls, dom, samples, seed, tol), None
    except PreconditionError as exc:
        return None, f"membership precondition failed: {exc}"
