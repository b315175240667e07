"""Verification records and the deterministic suite over a fixed catalog.

Every record, here and in the single CLI subcommands, is built the same way:
a producer yields rows (rule, params, lhs, rhs, verdict), `verdict` maps an
outcome to its verdict and `SuiteReport.from_sections` numbers the rows.

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
from typing import NamedTuple

from ._version import __version__
from .bounds import (
    BoundInstance, HOLDER_RULES, RULE_IDS, lemma1_residual, lemma2_residual,
    verify as verify_bound,
)
from .convexity import ConvexityClass, relative_slack, within
from .expr import parse
from .kernels import HolderPair
from .means import (
    MEAN_CHAIN, PropositionInstance, check_mean_chain, lp_worst_decrease, proposition_check,
)
from .quadrature import certified_integrate

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


class CaseRecord(NamedTuple):
    case_id: str
    rule: str
    params: str
    lhs: float
    rhs: float
    margin: float
    verdict: str

    def as_dict(self) -> dict:
        return self._asdict()


class SuiteReport(NamedTuple):
    version: str
    seed: int
    cases: tuple
    summary: dict

    @classmethod
    def from_sections(cls, seed: int, sections) -> "SuiteReport":
        """Number the rows (rule, params, lhs, rhs, verdict) of each
        (section, rows) pair <section>-001, <section>-002, ..., in order,
        and tally the verdicts."""
        cases = []
        summary = {"holds": 0, "flagged": 0, "hypothesis_unverified": 0}
        for section, rows in sections:
            for i, (rule, params, lhs, rhs, v) in enumerate(rows, 1):
                cases.append(CaseRecord(f"{section}-{i:03d}", rule, params, lhs, rhs,
                                        rhs - lhs, v))
                summary[v.replace("-", "_")] += 1
        summary["total"] = len(cases)
        return cls(__version__, seed, tuple(cases), summary)

    def as_dict(self) -> dict:
        """Fresh containers, each record a dict: a record is a tuple, which
        json would write as an array."""
        return {"version": self.version, "seed": self.seed,
                "cases": [c._asdict() for c in self.cases], "summary": dict(self.summary)}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def format_params(**kv) -> str:
    """The params column: k=v pairs joined by ';', floats to 12 digits, None dropped."""
    return ";".join(f"{k}={_fmt(v)}" for k, v in kv.items() if v is not None)


def verdict(holds: bool, hypothesis_verified=None) -> str:
    """A failed hypothesis check outranks the inequality's own outcome."""
    if hypothesis_verified is False:
        return "hypothesis-unverified"
    return "holds" if holds else "flagged"


def bound_row(label: str, inst: BoundInstance, report, variant=None) -> tuple:
    """The row of one verified deviation rule; `label` names f."""
    cls, hp = inst.cls, inst.hp
    ps = format_params(f=label, a=inst.a, b=inst.b, h=cls.h.describe(), alpha=cls.alpha,
                       m=cls.m, p=hp.p if hp else None, q=hp.q if hp else None,
                       variant=variant)
    return (inst.rule_id, ps, report.lhs, report.rhs,
            verdict(report.holds, report.hypothesis_verified))


def quad_row(label: str, report, **extra) -> tuple:
    """The row of one certified quadrature; `extra` is appended to params."""
    keys = ("a", "b", "n", "p", "variant", "alpha", "m")
    ps = format_params(f=label, **{k: report.params[k] for k in keys}, **extra)
    return (report.bound_source, ps, report.true_error, report.apriori_bound,
            verdict(report.holds, report.hypothesis_verified))


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
