"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math
import random
import subprocess
import sys

import pytest

from hhcheck import build_suite
from hhcheck.cli import emit_report, run

CSV_HEADER = "case_id,rule,params,lhs,rhs,margin,verdict"


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_membership_holds_exits_zero(self, capsys):
        code, out, _ = _run(
            capsys, "check-class", "--f", "x^2", "--sense", "convex",
            "--a", "0", "--b", "10",
        )
        assert code == 0
        assert "holds" in out

    def test_membership_counterexample_exits_one(self, capsys):
        code, out, _ = _run(
            capsys, "check-class", "--f", "x^0.5", "--sense", "convex",
            "--a", "0", "--b", "2",
        )
        assert code == 1
        assert "flagged" in out

    def test_bound_equality_exits_zero(self, capsys):
        code, out, _ = _run(
            capsys, "bound", "--rule", "T4", "--f", "x^2", "--a", "0", "--b", "1",
        )
        assert code == 0

    def test_bound_violation_exits_one(self, capsys):
        code, out, _ = _run(
            capsys, "bound", "--rule", "C4", "--f", "x^2", "--a", "0", "--b", "1",
            "--p", "2",
        )
        assert code == 1

    def test_quad_exits_zero(self, capsys):
        code, out, _ = _run(
            capsys, "quad", "--rule", "midpoint", "--f", "x^2",
            "--a", "0", "--b", "1", "--n", "1", "--p", "2",
        )
        assert code == 0

    def test_parse_error_exits_two(self, capsys):
        code, _, err = _run(
            capsys, "bound", "--rule", "T4", "--f", "x^(", "--a", "0", "--b", "1",
        )
        assert code == 2
        assert "error:" in err

    def test_usage_error_exits_two(self, capsys):
        code, _, _ = _run(capsys, "bound", "--rule", "T9", "--f", "x^2",
                          "--a", "0", "--b", "1")
        assert code == 2

    def test_p_for_non_holder_rule_exits_two(self, capsys):
        code, _, err = _run(
            capsys, "bound", "--rule", "T1", "--f", "x^2", "--a", "0", "--b", "1",
            "--p", "2",
        )
        assert code == 2
        assert "no --p" in err

    def test_missing_p_for_holder_rule_exits_two(self, capsys):
        code, _, err = _run(
            capsys, "bound", "--rule", "T2", "--f", "x^2", "--a", "0", "--b", "1",
        )
        assert code == 2

    def test_domain_error_exits_two(self, capsys):
        code, _, err = _run(
            capsys, "quad", "--rule", "midpoint", "--f", "1/x",
            "--a", "-1", "--b", "1", "--n", "2", "--p", "2",
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("bound", "--rule", "T1", "--f", "1e400", "--a", "0", "--b", "1"),
        ("check-class", "--f", "1e400", "--sense", "convex", "--a", "0", "--b", "1"),
    ])
    def test_non_finite_literal_exits_two(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err and "offset 0" in err

    def test_negative_samples_exits_two(self, capsys):
        code, _, err = _run(
            capsys, "check-class", "--f", "x^2", "--sense", "convex",
            "--a", "0", "--b", "1", "--samples", "-5",
        )
        assert code == 2
        assert "samples" in err

    def test_hypothesis_unverified_still_exits_zero(self, capsys):
        # nothing flagged: unverified hypotheses do not fail the run
        code, out, _ = _run(
            capsys, "quad", "--rule", "trapezoid", "--f", "exp(x)",
            "--a", "0", "--b", "1", "--n", "2", "--p", "2", "--alpha", "0.5",
        )
        assert code == 0
        assert "hypothesis-unverified" in out


class TestFormats:
    def test_csv_header_exact(self, capsys):
        _, out, _ = _run(
            capsys, "bound", "--rule", "T4", "--f", "x^2", "--a", "0", "--b", "1",
            "--format", "csv",
        )
        assert out.splitlines()[0] == CSV_HEADER

    def test_csv_row_count(self, capsys):
        _, out, _ = _run(capsys, "means", "--a", "1", "--b", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 1

    def test_json_shape(self, capsys):
        _, out, _ = _run(
            capsys, "prop", "--id", "P3", "--a", "1", "--b", "2", "--p", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["seed"] == 42
        assert doc["version"]
        case = doc["cases"][0]
        assert list(case) == ["case_id", "rule", "params", "lhs", "rhs", "margin", "verdict"]
        assert doc["summary"]["holds"] == 1

    def test_table_has_header_and_footer(self, capsys):
        _, out, _ = _run(capsys, "means", "--a", "1", "--b", "2")
        lines = out.strip().splitlines()
        assert lines[0].startswith("# version=")
        assert lines[-1].startswith("# holds=")

    def test_unknown_format_exits_two(self, capsys):
        code, _, _ = _run(
            capsys, "means", "--a", "1", "--b", "2", "--format", "yaml"
        )
        assert code == 2


class TestDeterminism:
    def test_verify_json_identical_across_runs(self, capsys):
        code1, out1, _ = _run(capsys, "verify", "--format", "json", "--seed", "42")
        code2, out2, _ = _run(capsys, "verify", "--format", "json", "--seed", "42")
        assert code1 == code2
        assert out1 == out2

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = _run(capsys, "verify", "--format", "json", "--seed", "1")
        _, out2, _ = _run(capsys, "verify", "--format", "json", "--seed", "2")
        assert out1 != out2

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HHC_SEED", "7")
        _, out, _ = _run(capsys, "check-class", "--f", "x^2", "--sense", "convex",
                         "--a", "0", "--b", "1", "--format", "json", "--seed", "42")
        doc = json.loads(out)
        assert doc["seed"] == 7

    def test_invalid_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("HHC_SEED", "not-a-number")
        code, _, err = _run(capsys, "check-class", "--f", "x^2", "--sense", "convex",
                            "--a", "0", "--b", "1")
        assert code == 2


class TestVerifySubcommand:
    def test_verify_report_matches_library(self, capsys):
        _, out, _ = _run(capsys, "verify", "--format", "json", "--seed", "42")
        doc = json.loads(out)
        lib = build_suite(seed=42)
        assert doc["summary"] == lib.summary
        assert len(doc["cases"]) == lib.summary["total"]

    def test_verify_covers_all_sections(self, capsys):
        _, out, _ = _run(capsys, "verify", "--format", "json", "--seed", "42")
        rules = {c["rule"] for c in json.loads(out)["cases"]}
        for expected in ("L1", "L2", "T1", "T2", "C1", "T3", "C2", "T4", "T5",
                         "C3", "T6", "C4", "chain", "Lp-monotone", "P1", "P2",
                         "P3", "P4", "P5", "P6"):
            assert expected in rules, f"missing section {expected}"

    def test_verify_exit_code_reflects_flags(self, capsys):
        code, out, _ = _run(capsys, "verify", "--format", "json", "--seed", "42")
        doc = json.loads(out)
        assert (code == 1) == (doc["summary"]["flagged"] > 0)


class TestSubcommandDetails:
    def test_check_class_witness_in_params(self, capsys):
        code, out, _ = _run(
            capsys, "check-class", "--f", "x^0.5", "--sense", "convex",
            "--a", "0", "--b", "2", "--format", "json",
        )
        assert code == 1
        params = json.loads(out)["cases"][0]["params"]
        assert "x=" in params and "y=" in params and "lam=" in params

    def test_check_class_h_expression(self, capsys):
        # a constant function sits in every h-weighted class with equality
        code, out, _ = _run(
            capsys, "check-class", "--f", "2", "--sense", "h_alpha_m",
            "--h", "expr:t^0.5", "--alpha", "1", "--m", "1",
            "--a", "0", "--b", "1", "--format", "json",
        )
        assert code == 0
        assert "h=t^0.5" in json.loads(out)["cases"][0]["params"]

    def test_check_class_h_shorthand(self, capsys):
        for h in ("t", "1", "t^0.7"):
            code, _, _ = _run(
                capsys, "check-class", "--f", "2", "--sense", "h_alpha_m",
                "--h", h, "--a", "0", "--b", "1",
            )
            assert code == 0

    def test_check_class_sqrt_weight_rejects_square(self, capsys):
        # with h = sqrt(t) the y-side weight shrinks below 1 - lam, which
        # x^2 cannot absorb near lam -> 0
        code, out, _ = _run(
            capsys, "check-class", "--f", "x^2", "--sense", "h_alpha_m",
            "--h", "t^0.5", "--a", "0", "--b", "1",
        )
        assert code == 1

    def test_bound_variant_flag(self, capsys):
        _, out_p, _ = _run(capsys, "bound", "--rule", "T1", "--f", "x^2",
                           "--a", "0", "--b", "1", "--format", "json")
        _, out_t, _ = _run(capsys, "bound", "--rule", "T1", "--f", "x^2",
                           "--a", "0", "--b", "1", "--variant", "tight",
                           "--format", "json")
        rhs_p = json.loads(out_p)["cases"][0]["rhs"]
        rhs_t = json.loads(out_t)["cases"][0]["rhs"]
        assert rhs_p == pytest.approx(7.0 / 24.0)
        assert rhs_t == pytest.approx(0.25)

    def test_means_grid_option(self, capsys):
        # leading negative number requires the --grid=... spelling
        code, out, _ = _run(
            capsys, "means", "--a", "1", "--b", "4",
            "--grid=-1,0,0.5,1,2,5", "--format", "json",
        )
        assert code == 0
        rules = [c["rule"] for c in json.loads(out)["cases"]]
        assert "Lp-monotone" in rules

    def test_quad_points_option(self, capsys):
        code, out, _ = _run(
            capsys, "quad", "--rule", "midpoint", "--f", "x^2",
            "--a", "0", "--b", "1", "--points", "0,0.25,1", "--p", "2",
            "--format", "json",
        )
        assert code == 0
        assert "n=2" in json.loads(out)["cases"][0]["params"]


def _suite_means_pairs(seed):
    """The (a, b) pairs build_suite draws for its chain, Lp and P rows, in order."""
    rng = random.Random(seed)
    for _ in range(40):  # lemma rows (5 functions x 3 intervals), bound rows (5)
        rng.random()

    def pairs(count, span, width):
        out = []
        for _ in range(count):
            a = rng.uniform(0.1, span)
            out.append((a, a + rng.uniform(width, span)))
        return out

    return pairs(5, 50.0, 0.1), pairs(3, 50.0, 0.1), pairs(3, 5.0, 0.2)


def _rows(cases):
    return [{k: v for k, v in c.items() if k != "case_id"} for c in cases]


class TestSinglePipeline:
    """The CLI and build_suite produce these records through the same code."""

    def test_means_zero_margin_is_positive_zero(self, capsys):
        code, out, _ = _run(capsys, "means", "--a", "1", "--b", "2", "--grid", "3",
                            "--format", "json")
        assert code == 0
        margin = json.loads(out)["cases"][-1]["margin"]
        assert margin == 0.0 and math.copysign(1.0, margin) == 1.0
        assert '"margin": -0.0' not in out

    def test_means_and_prop_records_match_the_suite(self, capsys):
        suite = [c.as_dict() for c in build_suite(seed=42).cases if c.case_id.startswith("means-")]
        chain_pairs, lp_pairs, prop_pairs = _suite_means_pairs(42)
        cli = []
        for a, b in chain_pairs:
            _, out, _ = _run(capsys, "means", "--a", repr(a), "--b", repr(b), "--format", "json")
            cli += json.loads(out)["cases"][:4]
        for a, b in lp_pairs:
            _, out, _ = _run(capsys, "means", "--a", repr(a), "--b", repr(b), "--format", "json")
            cli += json.loads(out)["cases"][4:]
        for a, b in prop_pairs:
            for p in (1.1, 1.5, 2.0, 4.0, 10.0):
                for pid in ("P1", "P2", "P3", "P4"):
                    n = ("--n", "2") if pid == "P4" else ()
                    _, out, _ = _run(capsys, "prop", "--id", pid, "--a", repr(a), "--b", repr(b),
                                     "--p", repr(p), *n, "--format", "json")
                    cli += json.loads(out)["cases"]
        assert len(cli) == len(suite) == 20 + 3 + 90
        assert _rows(cli) == _rows(suite)


class TestEntryPoints:
    def test_console_script(self):
        proc = subprocess.run(
            ["hhcheck", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "check-class" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hhcheck", "bound", "--rule", "T4",
             "--f", "x^2", "--a", "0", "--b", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0

    def test_verify_byte_identical_subprocess(self):
        cmd = [sys.executable, "-m", "hhcheck", "verify", "--format", "json", "--seed", "42"]
        p1 = subprocess.run(cmd, capture_output=True, timeout=120)
        p2 = subprocess.run(cmd, capture_output=True, timeout=120)
        assert p1.stdout == p2.stdout
        assert p1.returncode == p2.returncode == 1


class TestEmitReport:
    def test_float_formatting_round_trips_in_csv(self):
        rep = build_suite(seed=42)
        text = emit_report(rep, "csv")
        line = text.splitlines()[1].split(",")
        assert float(line[3]) == rep.cases[0].lhs

    def test_json_round_trips(self):
        rep = build_suite(seed=42)
        doc = json.loads(emit_report(rep, "json"))
        assert doc["summary"]["total"] == len(rep.cases)
