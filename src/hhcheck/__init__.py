"""Numerical verification of Hermite-Hadamard-type deviation bounds for
generalized convex functions, special-mean inequalities, and a priori error
bounds for composite quadrature rules."""

from ._version import __version__
from .errors import DomainError, NonConvergenceError, ParseError, PreconditionError
from .expr import (
    Abs, Add, Const, Div, DomainInterval, Exp, Ln, Mul, Neg, Node, Pow, Sub,
    Var, compile_fn, compile_interval, differentiate, evaluate, parse, to_text,
)
from .convexity import (
    SENSES, ConvexityClass, HFunction, MembershipProof, MembershipReport, Witness,
    check_membership, evaluate_h,
)
from .kernels import (
    KERNEL_KINDS, HolderPair, IntegralResult, KernelMoment, beta,
    integrate_adaptive, kernel_moment,
)
from .bounds import (
    EMPIRICAL_RULES, FIRST_DERIVATIVE_RULES, HOLDER_RULES, RULE_IDS,
    SECOND_DERIVATIVE_RULES, BoundInstance, BoundReport,
    bound_first_derivative, bound_second_derivative, hh_chain,
    hypothesis_domain, hypothesis_function, lemma1_residual, lemma2_residual,
    midpoint_deviation, trapezoid_deviation, verify,
)
from .means import (
    MEAN_TAGS, PROPOSITION_IDS, MeanKind, PropositionInstance,
    VerificationOutcome, check_mean_chain, lp_monotonicity_check, mean,
    proposition_check,
)
from .quadrature import (
    Partition, QuadratureReport, certified_integrate, error_bound_midpoint,
    error_bound_trapezoid, midpoint_rule, trapezoid_rule, uniform_partition,
)
from .suite import CATALOG, QUAD_FUNCTIONS, CaseRecord, SuiteReport, build_suite

__all__ = [
    "__version__",
    "DomainError", "NonConvergenceError", "ParseError", "PreconditionError",
    "Node", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Ln",
    "Abs", "Neg", "DomainInterval", "parse", "to_text", "evaluate",
    "compile_fn", "compile_interval", "differentiate",
    "SENSES", "HFunction", "ConvexityClass", "MembershipReport", "MembershipProof", "Witness",
    "evaluate_h", "check_membership",
    "KERNEL_KINDS", "HolderPair", "IntegralResult", "KernelMoment", "beta",
    "integrate_adaptive", "kernel_moment",
    "RULE_IDS", "FIRST_DERIVATIVE_RULES", "SECOND_DERIVATIVE_RULES",
    "HOLDER_RULES", "EMPIRICAL_RULES", "BoundInstance", "BoundReport",
    "hh_chain", "lemma1_residual", "lemma2_residual", "midpoint_deviation",
    "trapezoid_deviation", "bound_first_derivative", "bound_second_derivative",
    "verify", "hypothesis_function", "hypothesis_domain",
    "MEAN_TAGS", "PROPOSITION_IDS", "MeanKind", "mean", "check_mean_chain",
    "lp_monotonicity_check", "PropositionInstance", "VerificationOutcome",
    "proposition_check",
    "Partition", "uniform_partition", "midpoint_rule", "trapezoid_rule",
    "error_bound_midpoint", "error_bound_trapezoid", "QuadratureReport",
    "certified_integrate",
    "CATALOG", "QUAD_FUNCTIONS", "CaseRecord", "SuiteReport", "build_suite",
]
