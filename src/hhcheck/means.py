"""Special means of positive numbers and four inequality checks among them.

Means: A arithmetic, G geometric, H harmonic, L logarithmic, I identric,
Lp p-logarithmic (p not in {-1, 0}; those slots are taken by L and I in the
monotone family). All means are symmetric, homogeneous of degree one, and
return a when a = b.

The four checks P1-P4 evaluate printed inequalities verbatim and report
hold/flag outcomes; a failing instance is recorded, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .convexity import relative_slack, within
from .errors import DomainError
from .kernels import beta, check_holder_exponent

__all__ = [
    "MEAN_TAGS", "MEAN_CHAIN", "MeanKind", "mean", "lp_kind", "check_mean_chain",
    "lp_worst_decrease", "lp_monotonicity_check", "PROPOSITION_IDS", "PropositionInstance",
    "VerificationOutcome", "proposition_check",
]

MEAN_TAGS = ("A", "G", "H", "L", "I", "Lp")
PROPOSITION_IDS = ("P1", "P2", "P3", "P4")
MEAN_CHAIN = ("H", "G", "L", "I", "A")  # non-decreasing for every positive pair


@dataclass(frozen=True)
class MeanKind:
    tag: str
    p: Optional[float] = None

    def __post_init__(self):
        if self.tag not in MEAN_TAGS:
            raise ValueError(f"unknown mean {self.tag!r}; expected one of {MEAN_TAGS}")
        if self.tag == "Lp":
            if self.p is None or not math.isfinite(self.p):
                raise ValueError(f"Lp needs a finite exponent p, got {self.p!r}")
            if self.p in (-1.0, 0.0):
                raise ValueError("Lp at p=-1 is L and at p=0 is I; use those tags")
        elif self.p is not None:
            raise ValueError(f"mean {self.tag} takes no exponent")

    def describe(self) -> str:
        return f"L_{self.p:g}" if self.tag == "Lp" else self.tag


def mean(kind: MeanKind, a: float, b: float) -> float:
    """Value of the mean; arguments are sorted first, so symmetry is exact.

    All kinds except A require positive arguments. Stable forms are used
    (log1p/expm1 of (b-a)/a) so that homogeneity holds to rounding error.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"mean arguments must be finite, got ({a!r}, {b!r})")
    if a > b:
        a, b = b, a
    if kind.tag != "A" and a <= 0.0:
        raise DomainError(f"mean {kind.describe()} needs positive arguments, got ({a!r}, {b!r})")
    if a == b:
        return float(a)
    if kind.tag == "A":
        return 0.5 * (a + b)
    if kind.tag == "G":
        return math.sqrt(a) * math.sqrt(b)
    if kind.tag == "H":
        return 2.0 * a * b / (a + b)
    r = (b - a) / a
    if kind.tag == "L":
        return (b - a) / math.log1p(r)
    if kind.tag == "I":
        return a * math.exp((b / (b - a)) * math.log1p(r) - 1.0)
    p = kind.p
    return a * (math.expm1((p + 1.0) * math.log1p(r)) / ((p + 1.0) * r)) ** (1.0 / p)


def lp_kind(p: float) -> MeanKind:
    """The member of the monotone family p -> L_p at p: -1 is L and 0 is I."""
    if p == -1.0:
        return MeanKind("L")
    if p == 0.0:
        return MeanKind("I")
    return MeanKind("Lp", p)


def check_mean_chain(a: float, b: float):
    """((H, G, L, I, A), chain holds with 1e-12 slack relative to A)."""
    if not (0.0 < a < b):
        raise DomainError(f"need 0 < a < b, got ({a!r}, {b!r})")
    vals = tuple(mean(MeanKind(t), a, b) for t in MEAN_CHAIN)
    eps = relative_slack(vals[-1])
    return vals, all(within(u, v, eps) for u, v in zip(vals, vals[1:]))


def lp_worst_decrease(a: float, b: float, p_grid):
    """(largest decrease of p -> L_p along the sorted grid, its 1e-12
    relative slack), where -1 and 0 stand for L and I (see lp_kind). A NaN
    value or difference makes the decrease NaN, which `within` flags; max()
    alone would drop every NaN after the first item."""
    if not (0.0 < a < b):
        raise DomainError(f"need 0 < a < b, got ({a!r}, {b!r})")
    vals = [mean(lp_kind(p), a, b) for p in sorted(p_grid)]
    decreases = [u - v for u, v in zip(vals, vals[1:])]
    if any(map(math.isnan, vals + decreases)):
        return math.nan, relative_slack(*vals)
    return max(decreases, default=0.0), relative_slack(*vals)


def lp_monotonicity_check(a: float, b: float, p_grid) -> bool:
    """True when p -> L_p is non-decreasing along the sorted grid."""
    worst, eps = lp_worst_decrease(a, b, p_grid)
    return within(worst, 0.0, eps)


@dataclass(frozen=True)
class PropositionInstance:
    id: str
    a: float
    b: float
    p: float
    n: Optional[int] = None

    def __post_init__(self):
        if self.id not in PROPOSITION_IDS:
            raise ValueError(f"unknown proposition {self.id!r}")
        if not (0.0 < self.a < self.b):
            raise ValueError(f"need 0 < a < b, got ({self.a!r}, {self.b!r})")
        check_holder_exponent(self.p)
        if self.id == "P4":
            if self.n is None:
                raise ValueError("P4 needs the integer exponent n")
        elif self.n is not None:
            raise ValueError(f"{self.id} takes no exponent n")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class VerificationOutcome:
    id: str
    lhs: float
    rhs: float
    holds: bool
    extras: dict
    note: Optional[str] = None


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def proposition_check(inst: PropositionInstance, tol: float = 1e-9) -> VerificationOutcome:
    """Evaluate one mean inequality exactly as stated; total, never raises
    past input validation.

    P2 and P4 each carry a typographically ambiguous constant; the primary
    reading is the multiplicative one (3*2^((2p+1)/p), 2*6^((p+1)/p)) and
    the decimal-base alternate (3.2..., 2.6...) is reported in extras.
    """
    a, b, p = inst.a, inst.b, inst.p
    d = b - a
    log_ratio = math.log1p(d / a)  # ln b - ln a
    extras: dict = {}
    note = None

    if inst.id == "P1":
        g = mean(MeanKind("G"), a, b)
        lhs = abs(g - mean(MeanKind("L"), a, b))
        rhs = log_ratio / (4.0 * (p + 1.0) ** (1.0 / p)) * (mean(MeanKind("A"), a, b) + g)
    elif inst.id == "P2":
        lhs = mean(MeanKind("A"), a, b) / mean(MeanKind("I"), a, b)
        inv = 1.0 / mean(MeanKind("H"), a, b) + 2.0 / mean(MeanKind("A"), a, b)
        rhs = _safe_exp(d / (3.0 * 2.0 ** ((2.0 * p + 1.0) / p)) * inv)
        alt = _safe_exp(d / 3.2 ** ((2.0 * p + 1.0) / p) * inv)
        extras["alt_rhs"] = alt
        extras["alt_holds"] = within(lhs, alt, tol)
        note = "constant read as 3*2^((2p+1)/p); decimal-base 3.2 alternate in extras"
    elif inst.id == "P3":
        lhs = abs(1.0 / mean(MeanKind("H"), a, b) - 1.0 / mean(MeanKind("L"), a, b))
        rhs = (
            d * d * beta(p + 1.0, p + 1.0) ** (1.0 / p)
            / mean(MeanKind("H"), a ** 3, b ** 3)
        )
    else:  # P4
        n = inst.n
        lhs = abs(
            mean(MeanKind("A"), float(a) ** n, float(b) ** n)
            - mean(MeanKind("Lp", p), a, b) ** p
        )
        amp = mean(MeanKind("A"), a ** (p - 2.0), b ** (p - 2.0))
        scale = abs(n * (n - 1)) * d * d
        rhs = scale / (2.0 * 6.0 ** ((p + 1.0) / p)) * amp
        alt = scale / 2.6 ** ((p + 1.0) / p) * amp
        extras["alt_rhs"] = alt
        extras["alt_holds"] = within(lhs, alt, tol)
        note = "constant read as 2*6^((p+1)/p); decimal-base 2.6 alternate in extras"

    holds = within(lhs, rhs, tol)
    if not holds:
        fail_note = "inequality fails as stated at these parameters"
        note = fail_note if note is None else f"{note}; {fail_note}"
    return VerificationOutcome(inst.id, lhs, rhs, holds, extras, note)
