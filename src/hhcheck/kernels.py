"""Beta function, reference integrator, and the weight-kernel moments.

Every bound's coefficient is one of five integrals over (0,1):

  M0 = int h^a(t) dt                      M1 = int (1-t) h^a(t) dt
  M2 = int t(1-t) h^a(t) dt               C2 = int (1-t/q) h^(a/q)(t) dt
  C4 = int t^(1/q) (1-t/q) h^(a/q)(t) dt

For the power family h(t) = t^s (including identity s=1 and constant-one
s*alpha = 0) these reduce to rational closed forms; otherwise an adaptive
Gauss-Kronrod integrator supplies the value or reports non-convergence.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple, Union

from .convexity import HFunction, evaluate_h
from .errors import DomainError, NonConvergenceError
from .expr import Node, Value, compile_fn

__all__ = [
    "beta", "check_holder_exponent", "HolderPair", "IntegralResult", "KernelMoment",
    "integrate_adaptive", "integral", "kernel_moment", "KERNEL_KINDS",
]

def beta(x: float, y: float) -> float:
    """Euler Beta function via log-gamma; relative error well under 1e-12
    for arguments up to 50. Large arguments underflow: beta(p+1, p+1) is
    below the least normal float past p ~ 510 and 0.0 from p ~ 537, so a
    root of it is taken with _beta_root."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta needs positive arguments, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _beta_root(p: float) -> float:
    """beta(p+1, p+1)^(1/p), for T5, C3 and P3. Where beta is below the
    least normal float, the root is taken in log space from log-gamma."""
    bpp = beta(p + 1.0, p + 1.0)
    if bpp >= sys.float_info.min:
        return bpp ** (1.0 / p)
    return math.exp((2.0 * math.lgamma(p + 1.0) - math.lgamma(2.0 * p + 2.0)) / p)


def check_holder_exponent(p: float) -> float:
    """p as a float; a Holder exponent must be finite and exceed 1."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must be finite and exceed 1, got {p!r}")
    return p


class HolderPair(Value):
    """Conjugate exponents with 1/p + 1/q = 1, built from a finite p > 1."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: float, q: float):
        check_holder_exponent(p)
        if not (abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12):  # False for q = nan
            raise ValueError(f"(p={p!r}, q={q!r}) are not conjugate")
        self._store(p, q)

    @classmethod
    def from_p(cls, p: float) -> "HolderPair":
        p = check_holder_exponent(p)
        return cls(p, p / (p - 1.0))


class IntegralResult(NamedTuple):
    value: float
    abs_error_estimate: float
    subdivisions: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
# Weight sums equal 2 to machine precision and the rule reproduces
# monomial moments exactly through degree 22 (checked in tests).
_XGK = (
    0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
    0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
    0.207784955007898468,
)
_WGK = (
    0.022935322010529224, 0.063092092629978553, 0.104790010322250184,
    0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
    0.204432940075298892,
)
_WGK0 = 0.209482141084727828
# Gauss weights pair with _XGK[1], _XGK[3], _XGK[5] and the center.
_WG = (0.129484966168869693, 0.279705391489276668, 0.381830050505118945)
_WG0 = 0.417959183673469388


_K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G2, _G4, _G6 = _WG


def _g7k15(fs: list, hw: float) -> tuple[float, float]:
    """(K15, |K15 - G7|) from a panel's half-width and 15 values in _panel's
    order: the center, then each node pair c -+ hw*_XGK[i]. Each sum adds
    the center term first and the pairs in order."""
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14 = fs
    p2, p4, p6 = f3 + f4, f7 + f8, f11 + f12
    k15 = (_WGK0 * f0 + _K1 * (f1 + f2) + _K2 * p2 + _K3 * (f5 + f6) + _K4 * p4
           + _K5 * (f9 + f10) + _K6 * p6 + _K7 * (f13 + f14)) * hw
    g7 = (_WG0 * f0 + _G2 * p2 + _G4 * p4 + _G6 * p6) * hw
    return k15, abs(k15 - g7)


@lru_cache(maxsize=128)
def _panel(lo: float, hi: float) -> tuple[tuple, tuple]:
    """(the 15 nodes u = c, c -+ hw*_XGK[i] of the panel, (s(u), s'(u)) at
    them), s(u) = u^3 (10 - 15u + 6u^2): the plain pass reads the u's, and
    the mapped pass and the moments the pairs. Panels are dyadic pieces of
    [0, 1], so few occur; the bound caps a run that bisects deep."""
    c, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    us = (c,) + tuple([v for x in _XGK for v in (c - hw * x, c + hw * x)])
    pairs = []
    for u in us:
        u2 = u * u
        pairs.append((u2 * u * (10.0 - 15.0 * u + 6.0 * u2), 30.0 * u2 * (1.0 - u) * (1.0 - u)))
    return us, tuple(pairs)


# the integrator's accuracy and work budget, read by the panel loop and by
# integrate_adaptive alone. A run converges when its summed estimate is
# within _TOL, absolute or relative to the integral (the QUADPACK QAG test);
# a panel is settled at _TOL times its width in u, or once its estimate is
# rounding noise, _ROUNDING times the sum of its |values| times its
# half-width.
_TOL = 1e-12
_ROUNDING = 50.0 * sys.float_info.epsilon
_MAX_DEPTH = 60
_MAX_PANELS = 1000
_PLAIN_PANELS = 64  # integrate_adaptive's budget before it takes the map


def _adapt(values: Callable[[float, float], list], max_panels: int = _MAX_PANELS) -> IntegralResult:
    """The one panel loop: adaptive bisection of u in (0, 1) with a
    Gauss-Kronrod 7/15 pair per panel and at most max_panels panels.
    values(lo, hi) returns the panel's 15 scaled integrand values, at the
    nodes of _panel(lo, hi) in the form its caller reads."""
    total = 0.0
    err_total = 0.0
    panels = 0
    stack = [(0.0, 1.0, 0)]
    while stack and panels < max_panels:
        lo, hi, depth = stack.pop()
        hw = 0.5 * (hi - lo)
        fs = values(lo, hi)
        val, err = _g7k15(fs, hw)
        panels += 1
        settled = err <= _TOL * (hi - lo) or err <= _ROUNDING * hw * sum(map(abs, fs))
        if settled or depth >= _MAX_DEPTH:  # unsettled at depth 60: judged in the sum
            total += val
            err_total += err
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    converged = not stack and err_total <= max(_TOL, _TOL * abs(total))
    return IntegralResult(total, err_total, panels, converged)


def integrate_adaptive(f: Union[Node, Callable[[float], float]], a: float,
                       b: float) -> IntegralResult:
    """Adaptive bisection with a Gauss-Kronrod 7/15 pair per panel.

    A smooth integrand converges on plain panels, x = a + (b-a) u: the run
    tries them first, within 64 panels. If they do not converge, it
    integrates again through the quintic change of variable x = a + (b-a)
    u^3 (10 - 15u + 6u^2), whose derivative vanishes to second order at both
    endpoints, so an integrable endpoint singularity (t^(1/24), or ln t at
    0) converges. The Gauss-Kronrod nodes are interior to each panel, so
    neither pass evaluates f at a or b unless a node rounds to one.

    The error estimate per panel is |K15 - G7|. A panel is accepted at 1e-12
    times its width in u, when the estimate is at the rounding level of its
    values, or at depth 60. The converged flag is honest: it is set only
    when the accumulated estimate, of the panels stopped at depth 60 too, is
    within 1e-12, absolute or relative to the integral (so x^(-1/2) on
    [0, 1] converges, and a pole does not). The two passes share a
    budget of 1000 panels, and subdivisions counts both; a run that spends
    it stops, with the panels left unsummed, and is not converged, so no
    integrand can make it run on.

    Both passes read a panel's nodes from _panel, one lru_cache made by the
    same operations per node: the plain pass its u's, the mapped pass its
    (s(u), s'(u)) pairs.
    """
    if not (a < b):
        raise ValueError(f"integration requires a < b, got ({a!r}, {b!r})")
    fc = compile_fn(f) if isinstance(f, Node) else f
    width = b - a

    plain = _adapt(lambda lo, hi: [fc(a + width * u) * width for u in _panel(lo, hi)[0]],
                   _PLAIN_PANELS)
    if plain.converged:
        return plain
    mapped = _adapt(lambda lo, hi: [fc(a + width * s) * width * jac
                                    for s, jac in _panel(lo, hi)[1]],
                    _MAX_PANELS - plain.subdivisions)
    return mapped._replace(subdivisions=plain.subdivisions + mapped.subdivisions)


def _converged(res: IntegralResult, what: str, args: tuple) -> IntegralResult:
    """res if it converged; otherwise raise NonConvergenceError naming
    what.format(*args), the estimate and the panel count, and whether the
    panel budget was spent: the estimate then leaves out the panels not
    summed. The name is formatted only on failure."""
    if not res.converged:
        spent = ("over the summed panels; the budget was spent "
                 if res.subdivisions >= _MAX_PANELS else "")
        raise NonConvergenceError(
            f"{what.format(*args)} did not converge "
            f"(estimate {res.abs_error_estimate:.3e} {spent}after {res.subdivisions} panels)"
        )
    return res


def integral(f: Union[Node, Callable[[float], float]], a: float, b: float,
             what: str, *args) -> IntegralResult:
    """integrate_adaptive(f, a, b) that converged; otherwise raise
    NonConvergenceError as _converged says."""
    return _converged(integrate_adaptive(f, a, b), what, args)


class KernelMoment(NamedTuple):
    kind: str
    value: float
    method: str  # "closed-form" | "adaptive"
    abs_error_estimate: float


def _c_form(v: float, q: float) -> float:
    """C2's closed form at v = u/q, and C4's at v = u/q + 1/q."""
    return 1.0 / (v + 1.0) - (1.0 / q) / (v + 2.0)


# One row per kind: the closed form for h^alpha(t) = t^u, in (u, q); the
# panel's 15 integrand values (w(t, q) * h(t)^a) * jac from its (t, jac)
# nodes and h at them; and whether a is alpha/q, for a kind that takes a
# Holder pair, or alpha. hv ** a is 1.0 at a = 0, as evaluate_h's is, and
# M0 leaves out its weight 1.0, since 1.0 * x is x.
_KERNELS = {
    "M0": (lambda u, q: 1.0 / (u + 1.0),
           lambda nodes, hs, a, q: [hv ** a * jac for (t, jac), hv in zip(nodes, hs)],
           False),
    "M1": (lambda u, q: 1.0 / ((u + 1.0) * (u + 2.0)),
           lambda nodes, hs, a, q: [(1.0 - t) * hv ** a * jac
                                    for (t, jac), hv in zip(nodes, hs)],
           False),
    "M2": (lambda u, q: 1.0 / ((u + 2.0) * (u + 3.0)),
           lambda nodes, hs, a, q: [t * (1.0 - t) * hv ** a * jac
                                    for (t, jac), hv in zip(nodes, hs)],
           False),
    "C2": (lambda u, q: _c_form(u / q, q),
           lambda nodes, hs, a, q: [(1.0 - t / q) * hv ** a * jac
                                    for (t, jac), hv in zip(nodes, hs)],
           True),
    "C4": (lambda u, q: _c_form(u / q + 1.0 / q, q),
           lambda nodes, hs, a, q: [t ** (1.0 / q) * (1.0 - t / q) * hv ** a * jac
                                    for (t, jac), hv in zip(nodes, hs)],
           True),
}
KERNEL_KINDS = tuple(_KERNELS)


def kernel_moment(kind: str, h: HFunction, alpha: float,
                  hp: HolderPair | None = None) -> KernelMoment:
    """One of the five kernel moments for the weight h^alpha.

    C2 and C4 need the Holder pair (they involve 1/q). Closed forms are used
    for the power family; reciprocal and custom h go through the adaptive
    integrator, and a divergent moment raises NonConvergenceError.

    An adaptive moment is integrated once per (kind, h, alpha, q) in a
    bounded lru_cache (each entry holds its h); failures are not cached.
    Equal h differ at most in a zero's sign, which no moment's value sees,
    so a served moment has a fresh one's bits.
    """
    if kind not in _KERNELS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0,1], got {alpha!r}")
    closed_form, _, holder = _KERNELS[kind]
    if holder:
        if hp is None:
            raise ValueError(f"kernel {kind} requires a Holder pair")
        q = hp.q
    else:
        if hp is not None:
            raise ValueError(f"kernel {kind} takes no Holder pair")
        q = None

    if h.exponent is not None:  # h^alpha(t) = t^u
        return KernelMoment(kind, closed_form(h.exponent * alpha, q), "closed-form", 0.0)
    return _adaptive_moment(kind, h, alpha, q)


class _Fn(NamedTuple):
    fn: Callable[[float], float]  # all that evaluate_h reads of an h


@lru_cache(maxsize=64)
def _h_table(fn: Callable[[float], float], lo: float, hi: float) -> tuple:
    """h at the 15 nodes t = s(u) of the panel (lo, hi), read from _panel's
    pairs and filled in node order through evaluate_h (h(t) ** 1.0 is h(t)),
    so its range check and its errors are those of a call per node. Keyed by
    h's function, so an entry keeps no tree alive; the moments of one h
    share its panels."""
    h = _Fn(fn)
    return tuple([evaluate_h(h, t, 1.0) for t, _ in _panel(lo, hi)[1]])


@lru_cache(maxsize=64)
def _adaptive_moment(kind: str, h: HFunction, alpha: float, q: float | None) -> KernelMoment:
    # the bits of the mapped pass alone of integrate_adaptive(lambda t: w(t, q)
    # * evaluate_h(h, t, a), 0.0, 1.0): t^a needs the change of variable, so
    # the moments skip the plain pass and read _panel's (s, s') pairs. On
    # (0, 1) a node is t = 0.0 + 1.0 * s = s and the factor width = 1.0
    # changes no bit
    _, panel_values, holder = _KERNELS[kind]
    a = alpha / q if holder else alpha
    fn = h.fn
    res = _adapt(lambda lo, hi: panel_values(_panel(lo, hi)[1], _h_table(fn, lo, hi), a, q))
    res = _converged(res, "kernel {} for h={} alpha={:g}", (kind, h, alpha))
    return KernelMoment(kind, res.value, "adaptive", res.abs_error_estimate)
