"""What every subcommand shares, on no other module of the package: the
`Value` base class, the verdict test, the senses' parameter table and the
Beta function. `expr`, `convexity` and `kernels` import them back, so each
old path gives the same object; `cli` and `means` read them here without
compiling the expression engine."""

from __future__ import annotations

import math
import sys
from operator import attrgetter

from .errors import DomainError

__all__ = ["Value", "within", "relative_slack", "SENSE_PARAMS", "SENSES", "beta",
           "check_holder_exponent"]


class Value:
    """Base of the immutable classes that check their input when built, the
    expression nodes among them. Each writes its own __init__ (a node, its
    __new__), which checks and stores its fields with _store. == and the
    hash see the _fields, within one class only (a node's are identity).
    repr shows _args, the constructor's parameters (by default the _fields),
    as a dataclass's would, and pickling and copying call the constructor,
    so it checks again."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:  # else the class keeps its base's
            get = attrgetter(*cls._fields)  # one name gives the value, not a 1-tuple
            cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
            cls._args = cls.__dict__.get("_args", cls._fields)

    def _store(self, *values, names=None):
        """Set the _fields (or the slots in names) to values, in order: the one
        writer of a value's attributes. A wrong count raises ValueError."""
        for name, value in zip(names or self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__qualname__}({args})"


def within(lhs: float, rhs: float, slack: float) -> bool:
    """The verdict test: lhs <= rhs + slack. A NaN on either side fails it,
    and so does an lhs of +inf, whose order beside an inf rhs is unknown.

    The membership search writes its counterexample test lhs > rhs + tol
    inline instead, in check_membership's loop, where a function call costs
    more than the comparison itself.
    """
    return lhs <= rhs + slack and lhs < math.inf


def relative_slack(*values: float) -> float:
    """1e-12 relative to the largest |value|, and never below 1e-12."""
    return 1e-12 * max(1.0, *(abs(v) for v in values))


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
