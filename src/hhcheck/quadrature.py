"""Composite midpoint/trapezoid rules with computable a priori error bounds.

The two bound families, written h_i = x_{i+1} - x_i:

  midpoint ("P5"):
    statement  (1/2^((2p+1)/p)) sum h_i^2/2 (|f'(x_i)| + |f'(x_{i+1})|)
    proofline  sum h_i^2/2^((3p+1)/p) (|f'(x_i)| + |f'(x_{i+1})|)
    (algebraically identical; both shapes are kept and the report names
    which one produced its number)

  trapezoid ("P6"):
    (beta(alpha+2,2)/6^(1/p)) sum h_i^3/2 (|f''(x_i)|
                                           + m alpha (alpha+5) |f''(x_{i+1}/m)|)

The midpoint bound assumes |f'| convex on [a,b]; the trapezoid bound assumes
|f''| (alpha,m)-convex. certified_integrate measures the true error against
the reference integral cached in `bounds` and reports whether the bound held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .bounds import _mean_integral
from .convexity import ConvexityClass, MembershipReport, hypothesis_membership, within
from .expr import Abs, DomainInterval, Node, compile_fn, differentiate
from .kernels import beta, check_holder_exponent

__all__ = [
    "Partition", "uniform_partition", "midpoint_rule", "trapezoid_rule",
    "error_bound_midpoint", "error_bound_trapezoid",
    "QuadratureReport", "certified_integrate",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing points x_0 < ... < x_n with n >= 1 panels."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(x) for x in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a partition needs at least two points")
        for u, v in zip(pts, pts[1:]):
            if not (math.isfinite(u) and math.isfinite(v) and u < v):
                raise ValueError(f"points must be finite and strictly increasing, got {u!r} >= {v!r}")

    @property
    def n(self) -> int:
        return len(self.points) - 1

    @property
    def a(self) -> float:
        return self.points[0]

    @property
    def b(self) -> float:
        return self.points[-1]


def uniform_partition(a: float, b: float, n: int) -> Partition:
    """n equal panels; endpoints are pinned to a and b exactly."""
    if not (a < b):
        raise ValueError(f"need a < b, got ({a!r}, {b!r})")
    if n < 1:
        raise ValueError(f"need at least one panel, got n={n!r}")
    pts = [a + i * (b - a) / n for i in range(n + 1)]
    pts[0], pts[-1] = a, b
    return Partition(tuple(pts))


def midpoint_rule(f: Node, K: Partition) -> float:
    fc = compile_fn(f)
    total = 0.0
    for u, v in zip(K.points, K.points[1:]):
        total += fc(0.5 * (u + v)) * (v - u)
    return total


def trapezoid_rule(f: Node, K: Partition) -> float:
    fc = compile_fn(f)
    total = 0.0
    for u, v in zip(K.points, K.points[1:]):
        total += 0.5 * (fc(u) + fc(v)) * (v - u)
    return total


def error_bound_midpoint(f: Node, K: Partition, p: float, variant: str = "statement") -> float:
    """A priori bound on the composite midpoint error; needs |f'| convex."""
    check_holder_exponent(p)
    if variant not in ("statement", "proofline"):
        raise ValueError(f"unknown variant {variant!r}")
    fp = compile_fn(differentiate(f))
    if variant == "statement":
        coeff = 0.5 / 2.0 ** ((2.0 * p + 1.0) / p)
    else:
        coeff = 1.0 / 2.0 ** ((3.0 * p + 1.0) / p)
    total = 0.0
    for u, v in zip(K.points, K.points[1:]):
        h = v - u
        total += coeff * h * h * (abs(fp(u)) + abs(fp(v)))
    return total


def error_bound_trapezoid(f: Node, K: Partition, alpha: float, m: float, p: float) -> float:
    """A priori bound on the composite trapezoid error; needs |f''|
    (alpha,m)-convex."""
    check_holder_exponent(p)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0,1], got {alpha!r}")
    if not (0.0 < m <= 1.0):
        raise ValueError(f"m must lie in (0,1], got {m!r}")
    fpp = compile_fn(differentiate(f, 2))
    coeff = beta(alpha + 2.0, 2.0) / 6.0 ** (1.0 / p)
    amp = m * alpha * (alpha + 5.0)
    total = 0.0
    for u, v in zip(K.points, K.points[1:]):
        h = v - u
        total += coeff * h * h * h * 0.5 * (abs(fpp(u)) + amp * abs(fpp(v / m)))
    return total


@dataclass(frozen=True)
class QuadratureReport:
    rule: str  # "midpoint" | "trapezoid"
    value: float
    reference: float
    signed_residual: float  # reference - value
    true_error: float
    apriori_bound: float
    bound_source: str  # "P5" | "P5-proofline" | "P6"
    holds: bool
    hypothesis_verified: Optional[bool] = None
    membership: Optional[MembershipReport] = None
    params: dict = None


def certified_integrate(
    f: Node,
    a: float,
    b: float,
    n: Optional[int] = None,
    rule: str = "midpoint",
    p: float = 2.0,
    alpha: float = 1.0,
    m: float = 1.0,
    variant: str = "statement",
    points: Optional[Sequence[float]] = None,
    tol: float = 1e-9,
    seed: int = 0,
    samples: int = 2000,
    check_hypothesis: bool = True,
) -> QuadratureReport:
    """Run one composite rule, measure its true error, compare to the bound.

    Either n (uniform panels) or an explicit points list fixes the partition.
    The hypothesis membership check (|f'| convex for midpoint, |f''|
    (alpha,m)-convex for trapezoid) can be skipped with
    check_hypothesis=False; it takes no precomputed membership, because
    `hypothesis_membership` already shares one search between calls that
    assume the same hypothesis.
    """
    if rule not in ("midpoint", "trapezoid"):
        raise ValueError(f"unknown rule {rule!r}")
    if points is not None:
        K = Partition(tuple(points))
        if K.a != a or K.b != b:
            raise ValueError("explicit points must span exactly [a, b]")
    else:
        if n is None:
            raise ValueError("give either n or explicit points")
        K = uniform_partition(a, b, n)

    reference = _mean_integral(f, a, b)

    if rule == "midpoint":
        value = midpoint_rule(f, K)
        bound = error_bound_midpoint(f, K, p, variant)
        source = "P5" if variant == "statement" else "P5-proofline"
        hyp = Abs(differentiate(f))
        cls = ConvexityClass("plain_convex")
        dom = DomainInterval(a, b)
    else:
        value = trapezoid_rule(f, K)
        bound = error_bound_trapezoid(f, K, alpha, m, p)
        source = "P6"
        hyp = Abs(differentiate(f, 2))
        cls = ConvexityClass("alpha_m", alpha=alpha, m=m)
        bm = b / m
        dom = DomainInterval(min(a, bm), max(b, bm))

    membership = verified = note = None
    if check_hypothesis:
        membership, note = hypothesis_membership(hyp, cls, dom, samples, seed, tol)
        verified = membership is not None and membership.ok

    signed_residual = reference - value
    true_error = abs(signed_residual)
    params = {
        "f": str(f), "a": a, "b": b, "n": K.n, "rule": rule, "p": p,
        "variant": variant if rule == "midpoint" else None,
        "alpha": alpha if rule == "trapezoid" else None,
        "m": m if rule == "trapezoid" else None,
    }
    if note:
        params["note"] = note
    return QuadratureReport(
        rule=rule,
        value=value,
        reference=reference,
        signed_residual=signed_residual,
        true_error=true_error,
        apriori_bound=bound,
        bound_source=source,
        holds=within(true_error, bound, tol),
        hypothesis_verified=verified,
        membership=membership,
        params=params,
    )
