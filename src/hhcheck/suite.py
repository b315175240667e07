"""The deterministic suite over a fixed catalog.

Its rows come from the producers the single subcommands share, in
`records` (`bound_row`, `quad_row`) and `means` (the chain, Lp and P1-P4
rows). They and the records are imported here too, as their old paths.

Sections, in emission order:

  lemma   identity residuals L1/L2 on seeded intervals
  bound   all ten deviation rules at baseline class parameters
  means   mean chain, Lp monotonicity, P1-P4 sweeps (with the alternate
          constant readings as separate P2-alt/P4-alt records)
  quad    P5 (statement and proofline) and P6 certified quadrature grids,
          including the degenerate alpha=0 rows

Every random draw comes from one seeded generator, so a (seed, version)
pair fixes the full report byte for byte. Verdicts: "holds", "flagged"
(inequality failed with its hypothesis intact), "hypothesis-unverified"
(membership precondition failed or a counterexample was found, so the rule's
assumption is not established; the numbers are still reported).
"""

from __future__ import annotations

import random

from .bounds import BoundInstance, lemma1_residual, lemma2_residual, verify as verify_bound
from .convexity import ConvexityClass, within
from .expr import parse
from .kernels import HolderPair
from .means import PropositionInstance, lp_monotone_row, mean_chain_rows, proposition_rows
from .quadrature import certified_integrate
from .records import (
    HOLDER_RULES, RULE_IDS, CaseRecord, SuiteReport, bound_row, format_params, quad_row,
    verdict,
)

__all__ = [
    "CATALOG", "QUAD_FUNCTIONS", "CaseRecord", "SuiteReport", "build_suite",
    "format_params", "verdict", "bound_row", "quad_row", "mean_chain_rows",
    "lp_monotone_row", "proposition_rows",
]

CATALOG = (
    ("x^2", parse("x^2")),
    ("x^3", parse("x^3")),
    ("exp(x)", parse("exp(x)")),
    ("-ln(x)", parse("-ln(x)")),
    ("1/x", parse("1/x")),
)

# quadrature grid functions live on [0,1], so the log/reciprocal entries
# are replaced by a quartic
QUAD_FUNCTIONS = (
    ("x^2", parse("x^2")),
    ("exp(x)", parse("exp(x)")),
    ("x^4", parse("x^4")),
)

_P_GRID = (1.5, 2.0, 4.0)
_HOLDER_PAIRS = tuple(HolderPair.from_p(p) for p in _P_GRID)
_PROP_P_GRID = (1.1, 1.5, 2.0, 4.0, 10.0)
_LP_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0)
_MEMBERSHIP_SAMPLES = 500


def _lemma_rows(rng: random.Random, tol: float):
    for name, f in CATALOG:
        for _ in range(3):
            a = rng.uniform(0.1, 1.5)
            b = a + rng.uniform(0.4, 1.5)
            ps = format_params(f=name, a=a, b=b)
            r1 = lemma1_residual(f, a, b)
            yield "L1", ps, r1, tol, verdict(within(r1, 0.0, tol))
            r2 = lemma2_residual(f, a, b)
            yield "L2", ps, r2, tol, verdict(within(r2, 0.0, tol))


def _bound_rows(rng: random.Random, seed: int, tol: float):
    cls = ConvexityClass("h_alpha_m")  # baseline: h=t, alpha=1, m=1
    for name, f in CATALOG:
        a = rng.uniform(0.1, 1.5)
        b = a + rng.uniform(0.4, 1.5)
        for rule in RULE_IDS:
            for hp in _HOLDER_PAIRS if rule in HOLDER_RULES else (None,):
                inst = BoundInstance(rule, f, a, b, cls, hp)
                rep = verify_bound(inst, tol=tol, seed=seed, samples=_MEMBERSHIP_SAMPLES)
                yield bound_row(name, inst, rep)


def _means_rows(rng: random.Random, tol: float):
    for _ in range(5):
        a = rng.uniform(0.1, 50.0)
        b = a + rng.uniform(0.1, 50.0)
        yield from mean_chain_rows(a, b)
    for _ in range(3):
        a = rng.uniform(0.1, 50.0)
        b = a + rng.uniform(0.1, 50.0)
        yield lp_monotone_row(a, b, _LP_GRID)

    for _ in range(3):
        a = rng.uniform(0.1, 5.0)
        b = a + rng.uniform(0.2, 5.0)
        for p in _PROP_P_GRID:
            for pid in ("P1", "P2", "P3", "P4"):
                inst = PropositionInstance(pid, a, b, p, n=2 if pid == "P4" else None)
                yield from proposition_rows(inst, tol)


def _quad_rows(seed: int, tol: float):
    # every P5 row, then every P6 row; each family runs function by function
    p5 = [{"rule": "midpoint", "variant": v} for v in ("statement", "proofline")]
    p6 = [{"rule": "trapezoid", "alpha": alpha, "m": 1.0} for alpha in (0.0, 0.5, 1.0)]
    for family in (p5, p6):
        for name, f in QUAD_FUNCTIONS:
            for kw in family:
                for n in (1, 4, 16):
                    rep = certified_integrate(f, 0.0, 1.0, n=n, p=2.0, tol=tol, seed=seed,
                                              samples=_MEMBERSHIP_SAMPLES, **kw)
                    yield quad_row(name, rep)


def build_suite(seed: int = 42, tol: float = 1e-9) -> SuiteReport:
    """Run every section, in order, and tally the verdicts."""
    rng = random.Random(seed)  # the sections draw from it one after another
    return SuiteReport.from_sections(seed, [
        ("lemma", _lemma_rows(rng, tol)), ("bound", _bound_rows(rng, seed, tol)),
        ("means", _means_rows(rng, tol)), ("quad", _quad_rows(seed, tol)),
    ])
