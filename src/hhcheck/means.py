"""Special means of positive numbers and four inequality checks among them.

Means: A arithmetic, G geometric, H harmonic, L logarithmic, I identric,
Lp p-logarithmic (p not in {-1, 0}; those slots are taken by L and I in the
monotone family). All means are symmetric, homogeneous of degree one, and
return a when a = b.

The four checks P1-P4 evaluate printed inequalities verbatim and report
hold/flag outcomes; a failing instance is recorded, never raised. Their
record rows, and the chain's and Lp's, are built here for the CLI and suite.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .base import Value, _beta_root, check_holder_exponent, relative_slack, within
from .errors import DomainError
from .records import _fmt, format_params, verdict

__all__ = [
    "MEAN_TAGS", "MEAN_CHAIN", "MeanKind", "mean", "lp_kind", "check_mean_chain",
    "lp_worst_decrease", "lp_monotonicity_check", "PROPOSITION_IDS", "PropositionInstance",
    "VerificationOutcome", "proposition_check", "mean_chain_rows", "lp_monotone_row",
    "proposition_rows",
]

MEAN_TAGS = ("A", "G", "H", "L", "I", "Lp")
PROPOSITION_IDS = ("P1", "P2", "P3", "P4")
MEAN_CHAIN = ("H", "G", "L", "I", "A")  # non-decreasing for every positive pair


class MeanKind(Value):
    __slots__ = _fields = ("tag", "p")

    def __init__(self, tag: str, p: Optional[float] = None):
        if tag not in MEAN_TAGS:
            raise ValueError(f"unknown mean {tag!r}; expected one of {MEAN_TAGS}")
        if tag == "Lp":
            if p is None or not math.isfinite(p):
                raise ValueError(f"Lp needs a finite exponent p, got {p!r}")
            if p in (-1.0, 0.0):
                raise ValueError("Lp at p=-1 is L and at p=0 is I; use those tags")
        elif p is not None:
            raise ValueError(f"mean {tag} takes no exponent")
        self._store(tag, p)

    def describe(self) -> str:
        return f"L_{self.p:g}" if self.tag == "Lp" else self.tag


_MEANS = {tag: MeanKind(tag) for tag in MEAN_CHAIN}  # the five means with no exponent


def mean(kind: MeanKind, a: float, b: float) -> float:
    """Value of the mean; arguments are sorted first, so symmetry is exact.

    All kinds except A require positive arguments. Stable forms are used
    (log1p/expm1 of (b-a)/a, and for Lp at |p| < 1e-2 of (Lp/a)^p - 1;
    log(b) - log(a) for L, I and that Lp form where (b-a)/a overflows, and
    for any Lp where its form overflows; a*(b/A) for H where 2ab is not a
    normal float) so that homogeneity holds to rounding error.
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
        ab2 = 2.0 * a * b
        if sys.float_info.min <= ab2 < math.inf:
            return ab2 / (a + b)
        return a * (b / (0.5 * a + 0.5 * b))  # 2ab left the normal floats
    r = (b - a) / a
    if kind.tag in ("L", "I") and not math.isfinite(r):
        lr = math.log(b) - math.log(a)
        return (b - a) / lr if kind.tag == "L" else b * math.exp(a / (b - a) * lr - 1.0)
    if kind.tag == "L":
        return (b - a) / math.log1p(r)
    if kind.tag == "I":
        return a * math.exp((b / (b - a)) * math.log1p(r) - 1.0)
    p = kind.p
    try:
        if abs(p) < 1e-2:
            # L_p = a*(1 + t)^(1/p) = a*exp(u*log1p(t)/t) with t = p*u,
            # u = ((1+r)/r*l*E(p*l) - 1)/(p+1), l = log1p(r), E(x) = expm1(x)/x:
            # 1 + t is never rounded, and p enters through E and log1p(t)/t,
            # which are near 1, so a tiny or subnormal p loses no digits.
            # Where r overflows, l is log(b) - log(a), (1+r)/r is b/(b-a) and
            # L_p is exp(log(a) + w), while |p|*l < 1; past that the series
            # loses digits, and the log form below is the more accurate
            finite = math.isfinite(r)
            l = math.log1p(r) if finite else math.log(b) - math.log(a)
            v = math.nan
            if finite or abs(p) * l < 1.0:
                k = (1.0 + r) / r if finite else b / (b - a)
                u = (k * l * _over(math.expm1, p * l) - 1.0) / (p + 1.0)
                w = u * _over(math.log1p, p * u)
                v = a * math.exp(w) if finite else math.exp(math.log(a) + w)
        else:
            v = a * (math.expm1((p + 1.0) * math.log1p(r)) / ((p + 1.0) * r)) ** (1.0 / p)
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if math.isfinite(v):
        return v
    # x = log(L_p/b) <= 0, from (L_p/b)^p = (1 - e^-t)/((p+1)(1 - e^-lr))
    # with t = (p+1)*lr, term by term so that nothing overflows
    lr = math.log(b) - math.log(a)
    t = (p + 1.0) * lr
    x = (max(-t, 0.0) + math.log(-math.expm1(-abs(t)) / abs(p + 1.0))
         - math.log(-math.expm1(-lr))) / p
    return b * math.exp(min(x, 0.0)) if x > -700.0 else math.exp(math.log(b) + x)


def _over(f, x: float) -> float:
    """f(x)/x, and 1.0 at x = 0, where expm1 and log1p have slope 1."""
    return f(x) / x if x else 1.0


def lp_kind(p: float) -> MeanKind:
    """The member of the monotone family p -> L_p at p: -1 is L and 0 is I."""
    if p == -1.0:
        return _MEANS["L"]
    if p == 0.0:
        return _MEANS["I"]
    return MeanKind("Lp", p)


def check_mean_chain(a: float, b: float):
    """((H, G, L, I, A), chain holds with 1e-12 slack relative to A)."""
    if not (0.0 < a < b):
        raise DomainError(f"need 0 < a < b, got ({a!r}, {b!r})")
    vals = tuple(mean(_MEANS[t], a, b) for t in MEAN_CHAIN)
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


class PropositionInstance(Value):
    __slots__ = _fields = ("id", "a", "b", "p", "n")

    def __init__(self, id: str, a: float, b: float, p: float, n: Optional[int] = None):
        if id not in PROPOSITION_IDS:
            raise ValueError(f"unknown proposition {id!r}")
        if not (0.0 < a < b):
            raise ValueError(f"need 0 < a < b, got ({a!r}, {b!r})")
        check_holder_exponent(p)
        if id == "P4":
            if n is None:
                raise ValueError("P4 needs the integer exponent n")
        elif n is not None:
            raise ValueError(f"{id} takes no exponent n")
        self._store(id, a, b, p, n)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


class VerificationOutcome(NamedTuple):
    id: str
    lhs: float
    rhs: float
    holds: bool
    extras: dict
    note: Optional[str] = None


def _or_inf(fn, *args) -> float:
    """fn(*args), or inf where it overflows; every value it guards is positive."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def proposition_check(inst: PropositionInstance, tol: float = 1e-9) -> VerificationOutcome:
    """Evaluate one mean inequality exactly as stated; total, never raises
    past input validation. A side that overflows is inf, or NaN where its
    sign is unknown, and `within` decides: an inf lhs never holds.

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
        g = mean(_MEANS["G"], a, b)
        lhs = abs(g - mean(_MEANS["L"], a, b))
        rhs = log_ratio / (4.0 * (p + 1.0) ** (1.0 / p)) * (mean(_MEANS["A"], a, b) + g)
    elif inst.id == "P2":
        lhs = mean(_MEANS["A"], a, b) / mean(_MEANS["I"], a, b)
        inv = 1.0 / mean(_MEANS["H"], a, b) + 2.0 / mean(_MEANS["A"], a, b)
        rhs = _or_inf(math.exp, d / (3.0 * 2.0 ** ((2.0 * p + 1.0) / p)) * inv)
        alt = _or_inf(math.exp, d / 3.2 ** ((2.0 * p + 1.0) / p) * inv)
        extras["alt_rhs"] = alt
        extras["alt_holds"] = within(lhs, alt, tol)
        note = "constant read as 3*2^((2p+1)/p); decimal-base 3.2 alternate in extras"
    elif inst.id == "P3":
        lhs = abs(1.0 / mean(_MEANS["H"], a, b) - 1.0 / mean(_MEANS["L"], a, b))
        root = _beta_root(p)
        try:
            rhs = d * d * root / mean(_MEANS["H"], a ** 3, b ** 3)
        except (OverflowError, DomainError):  # b^3 overflows, or a^3 is 0.0
            # 1/H(a^3, b^3) = (1 + (a/b)^3) / (2 a^3), taken in log space
            rhs = _or_inf(math.exp, 2.0 * math.log(d) + math.log(root) - 3.0 * math.log(a)
                          + math.log1p((a / b) ** 3) - math.log(2.0))
    else:  # P4
        n = inst.n
        # a term past the largest float is inf, so |inf - inf| is NaN
        lhs = abs(
            _or_inf(lambda: mean(_MEANS["A"], float(a) ** n, float(b) ** n))
            - _or_inf(lambda: mean(MeanKind("Lp", p), a, b) ** p)
        )
        amp = _or_inf(lambda: mean(_MEANS["A"], a ** (p - 2.0), b ** (p - 2.0)))
        scale = _or_inf(lambda: abs(n * (n - 1)) * d * d)
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


def mean_chain_rows(a: float, b: float) -> list:
    """One row per link of H <= G <= L <= I <= A at (a, b)."""
    vals, _ = check_mean_chain(a, b)
    eps = relative_slack(vals[-1])  # as check_mean_chain
    links = zip(MEAN_CHAIN, vals, MEAN_CHAIN[1:], vals[1:])
    return [("chain", format_params(a=a, b=b, left=left, right=right), u, v,
             verdict(within(u, v, eps))) for left, u, right, v in links]


def lp_monotone_row(a: float, b: float, grid) -> tuple:
    """The largest decrease of p -> L_p along the sorted grid, against 0."""
    worst, eps = lp_worst_decrease(a, b, grid)
    ps = format_params(a=a, b=b, grid="|".join(_fmt(p) for p in sorted(grid)))
    return ("Lp-monotone", ps, worst, 0.0, verdict(within(worst, 0.0, eps)))


def proposition_rows(inst: PropositionInstance, tol: float) -> list:
    """The row of one P1-P4 check, plus the alternate-constant row of P2/P4."""
    out = proposition_check(inst, tol=tol)
    ps = format_params(a=inst.a, b=inst.b, p=inst.p, n=inst.n)
    rows = [(inst.id, ps, out.lhs, out.rhs, verdict(out.holds))]
    if "alt_rhs" in out.extras:
        rows.append((f"{inst.id}-alt", ps, out.lhs, out.extras["alt_rhs"],
                     verdict(out.extras["alt_holds"])))
    return rows
