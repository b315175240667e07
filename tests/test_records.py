"""Value records: immutable tuples with named fields, and the report's dict."""

import json

import pytest

from hhcheck import (
    BoundInstance, ConvexityClass, DomainInterval, HFunction, MembershipProof,
    PropositionInstance, SuiteReport, bound_second_derivative, build_suite,
    certified_integrate, check_membership, integrate_adaptive, kernel_moment, parse,
    proposition_check,
)
from hhcheck.bounds import _RULES
from hhcheck.cli import emit_report


def _records():
    """One instance of each value record, made the way the program makes it."""
    report = SuiteReport.from_sections(0, [("x", [("r", "p", 1.0, 2.0, "holds")])])
    membership = check_membership(parse("-x^2"), ConvexityClass("plain_convex"),
                                  DomainInterval(-1.0, 1.0), samples=50)
    return {
        "CaseRecord": report.cases[0],
        "SuiteReport": report,
        "BoundReport": bound_second_derivative(
            BoundInstance("T4", parse("x^2"), 0.5, 1.5, ConvexityClass("h_alpha_m"))),
        "_Rule": _RULES["T1"],
        "IntegralResult": integrate_adaptive(parse("x^2"), 0.0, 1.0),
        "KernelMoment": kernel_moment("M0", HFunction.identity(), 1.0),
        "Witness": membership.witness,
        "MembershipProof": MembershipProof(1, 0.0),
        "MembershipReport": membership,
        "VerificationOutcome": proposition_check(PropositionInstance("P1", 1.0, 2.0, 2.0)),
        "QuadratureReport": certified_integrate(parse("x^2"), 0.0, 1.0, n=4,
                                                check_hypothesis=False),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestValueRecords:
    def test_is_a_named_tuple_of_its_class(self, name):
        rec = RECORDS[name]
        assert type(rec).__name__ == name and isinstance(rec, tuple)
        assert rec == tuple(getattr(rec, f) for f in rec._fields)

    def test_fields_cannot_be_set(self, name):
        rec = RECORDS[name]
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = None

    def test_replace_leaves_the_original(self, name):
        rec = RECORDS[name]
        before = tuple(rec)
        marker = object()
        for field in rec._fields:
            new = rec._replace(**{field: marker})
            assert getattr(new, field) is marker and type(new) is type(rec)
            assert tuple(rec) == before


class TestSuiteReportDict:
    def test_mutating_the_dict_leaves_the_report(self):
        report = build_suite(seed=3)
        text, summary, cases = emit_report(report, "json"), dict(report.summary), report.cases
        d = report.as_dict()
        d["summary"]["holds"] += 1
        d["summary"]["extra"] = 0
        d["cases"][0]["verdict"] = "changed"
        d["cases"].pop()
        assert report.summary == summary and report.cases is cases
        assert cases[0].verdict != "changed"
        assert emit_report(report, "json") == text

    def test_cases_are_objects_with_the_column_keys(self):
        d = json.loads(emit_report(build_suite(seed=3), "json"))
        assert list(d) == ["version", "seed", "cases", "summary"]
        assert list(d["cases"][0]) == ["case_id", "rule", "params", "lhs", "rhs", "margin",
                                       "verdict"]
