"""Verification records: rows, verdicts and reports, and the rule ids.

A producer yields rows (rule, params, lhs, rhs, verdict), `verdict` maps an
outcome to its verdict and `SuiteReport.from_sections` numbers the rows.
Nothing here imports `bounds`, so the CLI builds its parser without it.
"""

from __future__ import annotations

from typing import NamedTuple

from ._version import __version__

__all__ = [
    "FIRST_DERIVATIVE_RULES", "SECOND_DERIVATIVE_RULES", "RULE_IDS", "HOLDER_RULES",
    "CaseRecord", "SuiteReport", "format_params", "verdict", "bound_row", "quad_row",
]

FIRST_DERIVATIVE_RULES = ("T1", "T2", "C1", "T3", "C2")
SECOND_DERIVATIVE_RULES = ("T4", "T5", "C3", "T6", "C4")
RULE_IDS = FIRST_DERIVATIVE_RULES + SECOND_DERIVATIVE_RULES
HOLDER_RULES = frozenset(RULE_IDS) - {"T1", "T4"}


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


def bound_row(label: str, inst: "BoundInstance", report, variant=None) -> tuple:
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
