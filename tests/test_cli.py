"""Command-line interface: subcommands, formats, exit codes, determinism."""

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import pytest

import hhcheck
from hhcheck import build_suite
from hhcheck.cli import _build_parser, emit_report, run
from hhcheck.convexity import hypothesis_membership

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

    def test_an_arithmetic_error_exits_two(self, capsys, monkeypatch):
        def divide(args, seed):
            return 1.0 / 0.0
        monkeypatch.setitem(hhcheck.cli._COMMANDS, "means", divide)
        code, out, err = _run(capsys, "means", "--a", "1", "--b", "2")
        assert (code, out, err) == (2, "", "error: float division by zero\n")

    @pytest.mark.parametrize("argv", [
        ("means", "--a", "1e200", "--b", "1e250"),
        ("prop", "--id", "P2", "--a", "3.7e-248", "--b", "6.1e-198", "--p", "2"),
        ("prop", "--id", "P3", "--a", "1e100", "--b", "1e102", "--p", "2"),
    ])
    def test_a_harmonic_mean_past_the_floats_holds(self, capsys, argv):
        # H's 2ab overflowed or underflowed: a row was flagged, the run
        # ended in a ZeroDivisionError, or P3's rhs was 0
        code, out, err = _run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["summary"]["flagged"] == 0
        assert all(case["rhs"] > 0.0 for case in report["cases"] if case["rule"][0] == "P")

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

    def test_non_finite_endpoint_exits_two(self, capsys):
        code, out, err = _run(
            capsys, "check-class", "--f=x^2", "--sense", "convex", "--a", "0", "--b", "inf",
        )
        assert code == 2
        assert out == ""
        assert err == "error: interval endpoint hi must be finite, got inf\n"

    def test_negative_samples_exits_two(self, capsys):
        code, _, err = _run(
            capsys, "check-class", "--f", "x^2", "--sense", "convex",
            "--a", "0", "--b", "1", "--samples", "-5",
        )
        assert code == 2
        assert "samples" in err

    def test_constant_out_of_float_range_exits_two(self, capsys):
        # 10^400 overflows when evaluated; differentiating it must not
        code, out, err = _run(
            capsys, "bound", "--rule", "T4", "--f", "10^400+x^2", "--a", "0", "--b", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: overflow\n"

    @pytest.mark.parametrize("f, offset", [
        ("(" * 300 + "x" + ")" * 300, 100),
        ("-" * 600 + "x^2", 100),
        ("+".join(["x"] * 1200), 201),
    ], ids=["parentheses", "minus-signs", "sum"])
    def test_too_deep_expression_exits_two(self, capsys, f, offset):
        # each of these overflowed the stack, in the parser, in the code
        # generator or in a tree walk, and exited 1 with a traceback
        code, out, err = _run(capsys, "check-class", f"--f={f}", "--sense", "convex",
                              "--a", "0.5", "--b", "1", "--samples", "10")
        assert code == 2
        assert out == ""
        assert err == f"error: expression nested more than 100 levels deep (offset {offset})\n"

    @pytest.mark.parametrize("f, a, b", [("exp(x)", "10", "11"), ("1e9*x^2", "0", "1")])
    def test_integrator_budget_exits_two(self, capsys, f, a, b):
        # both once spent the integrator's panel budget and exited 2; they
        # converge now, to the exact deviation and the T4 rhs (L^2/2)
        # (f''(a) + f''(b)) / 12, which is an equality for x^2
        code, out, err = _run(capsys, "bound", "--rule", "T4", f"--f={f}", "--a", a, "--b", b,
                              "--format", "json")
        assert (code, err) == (0, "")
        (case,) = json.loads(out)["cases"]
        if f == "exp(x)":
            e10, e11 = math.exp(10.0), math.exp(11.0)
            lhs, rhs = 1.5 * e10 - 0.5 * e11, (e10 + e11) / 24.0
        else:
            lhs = rhs = 1e9 / 6.0
        assert case["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert case["rhs"] == pytest.approx(rhs, rel=1e-14)
        assert case["verdict"] == "holds"

    @pytest.mark.parametrize("rule, code", [
        (("T4",), 0), (("T5", "--p", "2"), 0), (("C3", "--p", "2"), 0), (("C4", "--p", "2"), 1),
    ], ids=["T4", "T5", "C3", "C4"])
    def test_long_product_finishes(self, rule, code):
        # the prover differentiates the 100-factor product four times, and
        # each derivative repeats the subtrees of the last: differentiated at
        # every occurrence, the work grows faster than n^4 and a run takes
        # over a minute; once per distinct subtree, well under a second
        f = "*".join(["x"] * 100)
        proc = subprocess.run(
            [sys.executable, "-m", "hhcheck", "bound", "--rule", *rule, "--a", "0.5",
             "--b", "1", f"--f={f}"],
            capture_output=True, text=True, timeout=5,
        )
        assert (proc.returncode, proc.stderr) == (code, "")

    @pytest.mark.parametrize("argv", [
        ("bound", "--rule", "T2", "--f", "x^2", "--a", "0", "--b", "1", "--p", "inf"),
        ("quad", "--rule", "midpoint", "--f", "x^2", "--a", "0", "--b", "1", "--n", "4",
         "--p", "inf"),
        ("quad", "--rule", "trapezoid", "--f", "x^2", "--a", "0", "--b", "1", "--n", "4",
         "--p", "nan"),
        ("prop", "--id", "P2", "--a", "1", "--b", "2", "--p", "inf"),
    ])
    def test_non_finite_p_exits_two(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: p must be finite and exceed 1, got ")

    def test_quad_rejects_alpha_and_m_out_of_range_for_midpoint(self, capsys):
        code, out, err = _run(capsys, "quad", "--rule", "midpoint", "--f", "x^2", "--a", "0",
                              "--b", "1", "--n", "2", "--alpha", "7", "--m", "-3")
        assert (code, out, err) == (2, "", "error: alpha must lie in [0,1], got 7.0\n")

    @pytest.mark.parametrize("argv", [
        ("prop", "--id", "P4", "--a", "1", "--b", "2", "--p", "2", "--n", "3", "--tol", "inf"),
        ("check-class", "--sense", "convex", "--f=-x^2", "--a", "0", "--b", "1", "--tol", "nan"),
        ("check-class", "--sense", "convex", "--f=-x^2", "--a", "0", "--b", "1", "--tol", "inf"),
        ("verify", "--tol=-inf"),
    ])
    def test_non_finite_tol_exits_two(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: argument --tol: must be finite, got " in err

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


class TestGoldenBytes:
    """`verify --format json` stdout is pinned byte for byte. A change that
    moves any of these hashes changes a record and must say which."""

    @pytest.mark.parametrize("seed,sha256", [
        (0, "6c4577b5401bf65ed82bfc358069dc179ac2a1fd267020a82808442cd04f38cc"),
        (42, "c1eec12e200fef437e7128646fabe73c4943c20364bfa44185c675c1fb8fe259"),
        (1, "e23433fa2ef5515b5374ea191d68eccb76ea49bbf09b3e1c2ea0ac12e4fafc51"),
        (12345, "2fb6ab66be64f3729a130bf0cad57843334f48672c9a64aab1a124ec2b75b742"),
        (101, "17334a251497d9ac2550f3403114110deadb21216826ebf4d0e997627e0efcb2"),
    ], ids=("seed0", "seed42", "seed1", "seed12345", "seed101"))
    def test_verify_json_sha256(self, capsys, monkeypatch, seed, sha256):
        monkeypatch.delenv("HHC_SEED", raising=False)
        code, out, _ = _run(capsys, "verify", "--format", "json", "--seed", str(seed))
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_verify_json_same_across_hash_seeds(self):
        """Nodes hash by identity, so a dict or set of nodes iterated in hash
        order would change the bytes from one process to the next; two fresh
        processes with different string hash seeds print the seed-0 report
        pinned above."""
        seed0 = "6c4577b5401bf65ed82bfc358069dc179ac2a1fd267020a82808442cd04f38cc"
        cmd = [sys.executable, "-m", "hhcheck", "verify", "--seed", "0", "--format", "json"]
        env = {k: v for k, v in os.environ.items() if k != "HHC_SEED"}
        for hash_seed in ("0", "12345"):
            proc = subprocess.run(cmd, capture_output=True, timeout=120,
                                  env={**env, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 1
            assert hashlib.sha256(proc.stdout).hexdigest() == seed0

    def test_verify_json_sha256_seeds_0_to_59(self):
        """The json report of build_suite at each of seeds 0-59, in order,
        fed to one sha256: any moved byte of any of the 60 reports moves it.
        Seed 56's rows bound-119, 120, 122, 123, 125, 126, 128 and 129 (T5,
        C3, T6 and C4 on 1/x at p = 1.5 and 2) hold, with their lhs and rhs
        unmoved: the prover proves |f''|^q convex from f's Taylor
        coefficients. The enclosure of the g'' trees ran out of pieces
        there, and the search read the rounding of g's values near 1e7 as
        a counterexample."""
        digest = hashlib.sha256()
        for seed in range(60):
            digest.update(emit_report(build_suite(seed), "json").encode())
        assert digest.hexdigest() == \
            "b04905b12a89f7d20cc3337ff06f77259b59551183b873b66fa140282ffee868"

    def test_verdict_column_sha256(self):
        """The verdict of every record of build_suite at seeds 0-9, one per
        line: a change to the verdict test or its slack that moves this hash
        changes a verdict and must say which."""
        verdicts = [c.verdict for seed in range(10) for c in build_suite(seed).cases]
        assert len(verdicts) == 3180
        digest = hashlib.sha256("".join(v + "\n" for v in verdicts).encode()).hexdigest()
        assert digest == "2721ad1cb27b7aeeed0fe5d845d94fce2b090f3a2929b93447e25ac1d374bdfe"

    def test_verify_json_same_with_warm_membership_cache(self, capsys, monkeypatch):
        monkeypatch.delenv("HHC_SEED", raising=False)
        hypothesis_membership.cache_clear()
        cold = _run(capsys, "verify", "--format", "json", "--seed", "42")
        searches = hypothesis_membership.cache_info().misses
        assert searches == 48
        warm = _run(capsys, "verify", "--format", "json", "--seed", "42")
        assert hypothesis_membership.cache_info().misses == searches
        assert warm == cold

    def test_check_class_sha256(self, capsys, monkeypatch):
        """Exit code, stdout and stderr of every _CHECK_CLASS_ARGV line, in
        order: a change to the membership search that moves this hash
        changes a witness, a samples_used count or an error message."""
        monkeypatch.delenv("HHC_SEED", raising=False)
        digest = hashlib.sha256()
        for argv in _CHECK_CLASS_ARGV:
            code, out, err = _run(capsys, "check-class", *argv.split())
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert len(_CHECK_CLASS_ARGV) == 49
        assert digest.hexdigest() == \
            "3924e229aef785ca0541da53a292c5d1a2d435bd6434fa5210642131f4c2c218"

    def test_bound_quad_sha256(self, capsys, monkeypatch):
        """Exit code, stdout and stderr of every _BOUND_QUAD_ARGV line, in
        order: a change to how a rule's or a quadrature's hypothesis is
        proven or searched that moves this hash changes a verdict or an
        error message."""
        monkeypatch.delenv("HHC_SEED", raising=False)
        digest = hashlib.sha256()
        for argv in _BOUND_QUAD_ARGV:
            code, out, err = _run(capsys, *argv.split())
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert len(_BOUND_QUAD_ARGV) == 41
        assert digest.hexdigest() == \
            "0f5a1b89796a1c8c604244f460167eef7ab8c72fa66bc7296bc27a8c01e1957d"


_HOLE = "((x-0.527)^2-0.0000036)^0.5"  # undefined on (0.5251, 0.5289), between grid values
_HOLES = "2+" + "+".join(f"0*((x-{c:.4f})^2-0.0000036)^0.5"
                         for c in [0.0275 + 0.1 * k for k in range(10)])
# check-class over the eight senses: members and non-members, the open lam
# interval of the h senses, a -0.0 endpoint, hits on the grid and in the
# first, second and third random blocks, failing g and h on the grid and in
# a random block (exit 2), and sample counts at the block boundaries
_CHECK_CLASS_ARGV = [
    "--f x^2 --sense convex --a -1 --b 0.5 --format json",
    "--f=-x^2 --sense convex --a -1 --b 0.5 --format json",
    "--f x^0.5 --sense convex --a -0.0 --b 2 --format json",
    "--f x^0.5 --sense convex --a 0 --b 2 --format json",
    "--f x^2-0.02*abs(x-0.527) --sense convex --a 0 --b 1 --samples 1500 --seed 0 --format json",
    "--f x^2-0.02*abs(x-0.527) --sense convex --a 0 --b 1 --format json",
    "--f x^2-0.02*abs(x-0.527) --sense convex --a 0 --b 1 --samples 500 --seed 0 --format json",
    "--f x^2-0.02*abs(x-0.527) --sense convex --a 0 --b 1 --samples 500 --seed 11 --format json",
    "--f x^2-0.0001*exp(-((x-0.3137)*10000)^2) --sense convex --a 0 --b 1 --format json",
    "--f ln(x) --sense convex --a 0 --b 1",
    "--f x^2+0*ln(abs(x-0.05)) --sense convex --a 0 --b 2",
    "--f 1e6*x+1e7 --sense convex --a 0 --b 25 --samples 0 --tol 0 --format json",
    "--f 1e6*x+1e7 --sense convex --a 0 --b 25 --samples 0 --format json",
    "--f x^2-0.3*abs(x-1.3) --sense convex --a 0.1 --b 2 --samples 50 --seed 0 --format json",
    "--f x^3-x --sense convex --a -1 --b 1",
    "--f exp(x) --sense convex --a -1 --b 2 --format csv",
    "--f x --sense convex --a -1 --b 1 --seed 3 --format json",
    "--f x^2+1 --sense convex --a 0.3 --b 2.3 --samples 0 --format json",
    "--f x^2+1 --sense convex --a 0.3 --b 2.3 --samples 499 --format json",
    "--f x^2+1 --sense convex --a 0.3 --b 2.3 --samples 500 --format json",
    "--f x^2+1 --sense convex --a 0.3 --b 2.3 --samples 501 --format json",
    "--f x^2+1 --sense convex --a 0.3 --b 2.3 --samples 2000 --format json",
    "--f x^2 --sense s_first --s 0.5 --a 0 --b 2 --format json",
    "--f x^0.5 --sense s_first --s 0.5 --a 0 --b 2 --samples 501 --format json",
    "--f 4-x^2 --sense s_first --s 0.5 --a 0 --b 2 --format json",
    "--f x^2 --sense s_second --s 0.5 --a 0 --b 2 --samples 499 --format json",
    "--f x^2 --sense s_second --s 0.5 --a -0.0 --b 1 --format json",
    "--f 4-x^2 --sense s_second --s 0.5 --a 0 --b 2 --format json",
    "--f x^2 --sense alpha_m --alpha 0.5 --m 0.7 --a 0 --b 2 --format json",
    "--f exp(x) --sense alpha_m --alpha 0.5 --a 0 --b 2 --format json",
    "--f exp(x) --sense alpha_m --alpha 0.5 --m 0.7 --a 0 --b 2 --samples 501 --format json",
    "--f x^2 --sense alpha_m --alpha 0.5 --a -1 --b 2",
    "--f x^2+1 --sense h_plain --a 0 --b 2 --samples 500 --format json",
    "--f 4-x^2 --sense h_plain --a 0 --b 2 --format json",
    "--f x^2+1 --sense h_plain --h 1 --a 0 --b 2 --samples 501 --format json",
    "--f x^2+1 --sense h_plain --h expr:t*(2-t) --a -0.0 --b 1 --format json",
    "--f x-1 --sense h_plain --a 0 --b 2",
    "--f x^2+1 --sense h_plain --h expr:t-0.5 --a 0 --b 2",
    f"--f {_HOLE} --sense h_plain --h expr:2*t-0.09 --a 0 --b 1 --seed 297",
    f"--f {_HOLE} --sense h_plain --h expr:2*t-0.09 --a 0 --b 1 --seed 306",
    "--f x^2 --sense h_alpha_m --alpha 0.5 --m 0.5 --a 0 --b 2 --format json",
    "--f x^2 --sense h_alpha_m --h t^0.5 --alpha 0.5 --m 0.5 --a 0 --b 2 --format json",
    "--f x^2+1 --sense h_alpha_m --h expr:0.85-t --m 0.5 --a 0 --b 2 --samples 50 --format json",
    "--f ln(x-0.9)+5 --sense h_alpha_m --h expr:t-0.5 --m 0.5 --a 1 --b 2 --seed 0",
    f"--f {_HOLES} --sense h_alpha_m --h expr:2*t-0.09 --a 0 --b 1 --seed 159",
    "--f x^2 --sense s_alpha_m_first --m 0.5 --a 0 --b 2 --samples 500 --format json",
    "--f x^2 --sense s_alpha_m_first --alpha 0.5 --s 0.5 --a 0 --b 2 --format json",
    "--f x^2 --sense s_alpha_m_second --alpha 0.5 --m 0.7 --s 0.5 --a 0 --b 2 --format json",
    "--f 4-x^2 --sense s_alpha_m_second --alpha 0.5 --m 0.7 --s 0.5 --a 0 --b 2 --format csv",
]

# bound and quad: hypotheses the prover proves (h = t, alpha = m = 1; the
# constant |f''| of x^2 under alpha_m at m = 1), classes it does not try
# (h = 1, t^s or custom, alpha < 1, m < 1), hypotheses it gives up on and
# the search decides, the [0,inf) precondition of alpha_m on a domain
# below 0, large p, and exit-2 rows
_BOUND_QUAD_ARGV = [
    "bound --rule T1 --f x^2 --a 0 --b 1",
    "bound --rule T1 --f x^2 --a 0 --b 1 --h t --alpha 1 --m 1 --format json",
    "bound --rule T4 --f exp(x) --a 0 --b 2 --format json",
    "bound --rule T2 --f x^3 --a 0.5 --b 2 --p 2 --format csv",
    "bound --rule C1 --f 1/x --a 0.5 --b 2 --p 3 --format json",
    "bound --rule T3 --f ln(x) --a 1 --b 3 --p 1.5",
    "bound --rule C2 --f x^4 --a 0 --b 1 --p 2 --format json",
    "bound --rule T5 --f 1/x --a 0.1 --b 1.1 --p 2 --format json",
    "bound --rule C3 --f exp(x) --a 0 --b 1 --p 600 --format json",
    "bound --rule T6 --f x^3 --a -1 --b 1 --p 2 --format json",
    "bound --rule C4 --f x^2 --a 0 --b 1 --p 2 --h t^s --s 0.5 --format json",
    "bound --rule T4 --f x^2 --a 0 --b 1 --h expr:t*(2-t) --format json",
    "bound --rule T1 --f x^2 --a 0 --b 1 --alpha 0.5 --format json",
    "bound --rule T4 --f x^2 --a 0 --b 1 --alpha 0.5 --m 0.5 --format json",
    "bound --rule T1 --f x^2 --a 0 --b 1 --h 1 --format json",
    "bound --rule T1 --f=-x^2 --a 0 --b 1 --format json",
    "bound --rule T1 --f x^0.5 --a 0 --b 1 --format json",
    "bound --rule T1 --f x^3-x --a -1 --b 1 --format json",
    "bound --rule T1 --f x^2 --a -1 --b 1 --format json",
    "bound --rule T1 --f x^2 --a -1 --b 1 --alpha 0.5 --format json",
    "bound --rule T1 --variant tight --f x^2 --a 0 --b 1 --format json",
    "bound --rule T4 --f ln(x) --a -1 --b 1 --format json",
    "bound --rule T4 --f x^4 --a 0.5 --b 1.5 --samples 0 --seed 5 --tol 0 --format json",
    "bound --rule T6 --f exp(-x) --a 0 --b 3 --p 4 --h expr:t^0.5 --alpha 0.7 --m 0.8 --format json",
    "bound --rule T2 --f x^x --a 0.5 --b 2 --p 2 --format json",
    "bound --rule T4 --f 1/x --a 0.5 --b 2 --h t^s --s 0.5 --alpha 0.5 --m 0.5 --seed 9 --samples 300",
    "quad --rule trapezoid --f x^2 --a 0 --b 1 --n 4 --format json",
    "quad --rule trapezoid --f=x^2 --a -1 --b 1 --n 4 --alpha 0.5",
    "quad --rule trapezoid --f=x^2 --a -1 --b 1 --n 4 --alpha 0.5 --format json",
    "quad --rule trapezoid --f x^2 --a 0 --b 1 --n 4 --alpha 0.5 --format json",
    "quad --rule midpoint --f x^2 --a 0 --b 1 --n 4 --alpha 0.5 --format json",
    "quad --rule midpoint --f exp(x) --a 0 --b 2 --n 8 --alpha 0 --format json",
    "quad --rule trapezoid --f exp(x) --a 0 --b 2 --n 8 --alpha 0 --format json",
    "quad --rule trapezoid --f x^4 --a 0 --b 1 --n 3 --alpha 0.5 --m 0.5 --format json",
    "quad --rule midpoint --f 1/x --a 0.5 --b 2 --points 0.5,1,2 --p 3 --variant proofline --format json",
    "quad --rule trapezoid --f x^3 --a -1 --b 1 --n 4 --format json",
    "quad --rule trapezoid --f x^2 --a -1 --b 1 --n 4 --format csv",
    "quad --rule midpoint --f ln(x) --a 0 --b 1 --n 4 --format json",
    "quad --rule trapezoid --f x^2 --a 0 --b 1 --n 4 --alpha 0.5 --m 0.5 --format csv",
    "quad --rule trapezoid --f 1/x --a 0.2 --b 2 --n 5 --p 1.5 --alpha 1 --m 0.9 --seed 3 --format json",
    "quad --rule midpoint --f x^2 --a -1 --b 1 --n 4 --samples -1",
]


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

    def test_check_class_and_bound_share_class_flags(self):
        flags = ["--f", "x^2", "--a", "0.5", "--b", "2", "--h", "expr:t^2",
                 "--alpha", "0.25", "--m", "0.75", "--s", "0.5"]
        parser = _build_parser()
        cc = vars(parser.parse_args(["check-class", "--sense", "h_alpha_m", *flags]))
        bd = vars(parser.parse_args(["bound", "--rule", "T2", "--p", "2", *flags]))
        for name in ("f", "a", "b", "h", "alpha", "m", "s"):
            assert cc[name] == bd[name]
        # and the same defaults when the optional ones are left out
        required = flags[:6]
        cc = vars(parser.parse_args(["check-class", "--sense", "convex", *required]))
        bd = vars(parser.parse_args(["bound", "--rule", "T1", *required]))
        assert {k: cc[k] for k in ("h", "alpha", "m", "s")} == \
            {k: bd[k] for k in ("h", "alpha", "m", "s")} == \
            {"h": "t", "alpha": 1.0, "m": 1.0, "s": 1.0}

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

    @pytest.mark.parametrize("rule,extra", [("T4", ()), ("T2", ("--p", "2")),
                                            ("C4", ("--p", "2"))])
    def test_tight_variant_of_another_rule_exits_two(self, capsys, rule, extra):
        code, out, err = _run(capsys, "bound", "--rule", rule, "--f", "x^2", "--a", "0",
                              "--b", "1", *extra, "--variant", "tight")
        assert (code, out, err) == (2, "", "error: the tight variant exists only for T1\n")

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

    @pytest.mark.parametrize("grid", ["nan", "1,inf", "-inf,1"])
    def test_means_non_finite_grid_exits_two(self, capsys, grid):
        # a NaN row marked flagged used to come out, with exit status 1
        code, out, err = _run(capsys, "means", "--a", "1", "--b", "2", f"--grid={grid}")
        assert (code, out) == (2, "")
        assert err.startswith("error: Lp needs a finite exponent p, got ")

    def test_means_nan_lp_value_flags_the_lp_row(self, capsys, monkeypatch):
        # a mean that gives NaN at p = 2; the row used to hold at -inf
        real = hhcheck.means.mean
        monkeypatch.setattr(hhcheck.means, "mean",
                            lambda kind, a, b: math.nan if kind.p == 2.0 else real(kind, a, b))
        code, out, _ = _run(capsys, "means", "--a", "1e-300", "--b", "1e300",
                            "--format", "json")
        row = json.loads(out)["cases"][-1]
        assert code == 1
        assert row["rule"] == "Lp-monotone" and row["verdict"] == "flagged"
        assert math.isnan(row["lhs"]) and math.isnan(row["margin"])

    @pytest.mark.parametrize("argv", [("--a", "1e-300", "--b", "1e300"),
                                      ("--a", "1e-300", "--b", "1e300", "--grid=-2,0.5"),
                                      ("--a", "1", "--b", "1e300"),
                                      ("--a", "1", "--b", "2", "--grid=0,1e-300"),
                                      ("--a", "0.1", "--b", "50", "--grid=-1e-12,0,1e-12")])
    def test_means_extreme_pairs_hold(self, capsys, argv):
        # NaN L_p values flagged the first, a ZeroDivisionError traceback
        # ended the second and "math range error" (exit 2) the third; L_p at
        # a tiny p was a (1.0 against I = 1.4715) or 0.0, which flagged the
        # last two
        code, out, err = _run(capsys, "means", *argv, "--format", "json")
        rows = json.loads(out)["cases"]
        assert (code, err) == (0, "")
        assert [r["verdict"] for r in rows] == ["holds"] * len(rows)
        assert rows[-1]["rule"] == "Lp-monotone"

    @pytest.mark.parametrize("argv", [("--a", "1e-300", "--b", "1e300", "--grid=0,1e-20,1e-12"),
                                      ("--a", "1.4e-102", "--b", "3.2e267", "--grid=0,1e-9")])
    def test_means_tiny_p_past_an_overflowing_ratio_holds(self, capsys, argv):
        # (b - a)/a overflows: L_p at a tiny p was b or off by 8e-8, and the
        # Lp-monotone row flagged, exit 1
        code, out, err = _run(capsys, "means", *argv, "--format", "json")
        rows = json.loads(out)["cases"]
        assert (code, err) == (0, "")
        assert rows[-1]["rule"] == "Lp-monotone" and rows[-1]["verdict"] == "holds"

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
    def test_console_script(self, tmp_path):
        # The `hhcheck` script as pyproject.toml declares it, launched from
        # this checkout the way an installer's console_scripts launcher would.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
        assert "hhcheck" in scripts, "pyproject.toml declares no hhcheck script"
        module, _, function = scripts["hhcheck"].partition(":")
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"entry point {scripts['hhcheck']!r} is not a callable"
        )
        launcher = tmp_path / "hhcheck"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {function}\n"
            f"sys.exit({function}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        env["PYTHONPATH"] = str(Path(hhcheck.__file__).resolve().parents[1])

        proc = subprocess.run(
            ["hhcheck", "--help"], capture_output=True, timeout=60,
            env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert "check-class" in proc.stdout.decode()
        # README: the console script is equivalently `python3 -m hhcheck`.
        via_module = subprocess.run(
            [sys.executable, "-m", "hhcheck", "--help"], capture_output=True,
            timeout=60, env=env, cwd=tmp_path,
        )
        assert proc.stdout == via_module.stdout

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
        assert p1.stdout.startswith(b"{")
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
