"""The three benchmark workloads: input generators, ops and known answers.

Each workload is driven closed-loop by one client in one process: the next
op starts only when the previous one has finished. Inputs come from a
generator seeded by the benchmark seed; the program sees only the generated
inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

# Functions are called through the package namespace, never imported by
# name, so that the traced run's wrappers see every call.
import hhcheck
import hhcheck.cli
from hhcheck import (
    FIRST_DERIVATIVE_RULES, HOLDER_RULES, RULE_IDS, BoundInstance,
    ConvexityClass, HFunction, HolderPair,
)


class OpFailed(Exception):
    """An op broke a known answer or exited without a usage reason."""


class OpTimeout(BaseException):
    """Raised from SIGALRM when an in-process op reaches its time cap.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def capped(fn, arg, seconds: float):
    """fn(arg), stopped with OpTimeout after `seconds` of wall time."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(arg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# Shared input generators for f, [a, b], h and the class parameters.
#
# The ranges keep |f|, |f'| and |f''| times the interval length below ~1e3.
# Above ~1e4 the integrator's absolute tolerance makes it bisect without
# bound (ROADMAP item 2); those inputs are run as fixed known-defect probes
# instead, so that no timed op hangs.

F_TEMPLATES = (
    "{c}*x^2+x", "x^3", "exp({c}*x)", "-ln(x)", "1/(x+{c})", "x^{r}",
    "x*ln(x)", "exp(-{c}*x)+x^2",
)
H_CUSTOM = ("t*(2-t)", "t*t", "(exp(t)-1)/1.72", "t/(2-t)", "ln(1+t)/0.7")
SCALED_SHARE = 0.25
SCALE_EXPONENTS = (-6, 1)  # k in 10^k, inclusive


def gen_f(rng: random.Random) -> tuple[str, int | None]:
    text = rng.choice(F_TEMPLATES).format(
        c=f"{rng.uniform(0.2, 1.2):.4g}", r=f"{rng.uniform(1.5, 4.0):.4g}")
    if rng.random() < SCALED_SHARE:
        k = rng.randint(*SCALE_EXPONENTS)
        return f"1e{k}*({text})", k
    return text, None


def gen_interval(rng: random.Random) -> tuple[float, float]:
    a = round(rng.uniform(0.1, 1.5), 6)
    return a, round(a + rng.uniform(0.2, 1.2), 6)


def gen_h(rng: random.Random) -> tuple[str, float | None]:
    """One of t, t^s, 1 or a custom expression (which takes the adaptive
    kernel path), as (kind, s-or-text)."""
    u = rng.random()
    if u < 0.30:
        return "t", None
    if u < 0.55:
        return "t^s", round(rng.uniform(0.3, 1.0), 4)
    if u < 0.75:
        return "1", None
    return "expr", rng.choice(H_CUSTOM)


def gen_class_params(rng: random.Random) -> tuple[float, float, float]:
    """(alpha, m, p)."""
    alpha = round(rng.uniform(0.0, 1.0), 4)
    m = 1.0 if rng.random() < 0.5 else round(rng.uniform(0.5, 1.0), 4)
    p = round(1.0 + 10.0 ** rng.uniform(-1.0, 1.0), 4)
    return alpha, m, p


def gen_n(rng: random.Random) -> int:
    return int(math.exp(rng.uniform(0.0, math.log(300.0))))


# ---------------------------------------------------------------------------

class VerifySuite:
    """Each op is build_suite(seed) for a seed not used before in the run."""

    name = "verify-suite"
    why = ("membership search does ~95% of the work; every verify user pays "
           "it with a cold _mean_integral cache")
    in_process = True
    cap_s = 20.0
    tail_pct = 60
    traced_ops_per_s = 0.4  # sizes the fixed-length traced pass
    # verdicts that are theorems, so anything but "holds" is a wrong answer
    THEOREM_RULES = frozenset({"L1", "L2", "chain", "Lp-monotone"})

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.used = set()
        self.digests = {}

    def next_input(self) -> int:
        while True:
            s = self.rng.randrange(1, 2 ** 31)
            if s not in self.used:
                self.used.add(s)
                return s

    def run(self, seed: int):
        return hhcheck.build_suite(seed)

    def check(self, seed: int, report) -> int:
        wrong = [c.case_id for c in report.cases
                 if c.rule in self.THEOREM_RULES and c.verdict != "holds"]
        if wrong:
            raise OpFailed(f"seed {seed}: theorem rows not holding: {wrong[:5]}")
        self.digests[seed] = _digest(report)
        return len(report.cases)

    def post_checks(self, log) -> bool:
        """Re-run every seed once and compare json bytes; print the
        seed-42 tally beside the one ROADMAP records."""
        ok = True
        for seed, digest in self.digests.items():
            if _digest(hhcheck.build_suite(seed)) != digest:
                log(f"# FAIL verify json for seed {seed} differs on re-run")
                ok = False
        log(f"# check: verify json byte-identical on re-run for "
            f"{len(self.digests)} seeds: {'yes' if ok else 'NO'}")
        s = hhcheck.build_suite(42).summary
        got = f"{s['holds']}/{s['flagged']}/{s['hypothesis_unverified']}/{s['total']}"
        log(f"# tally seed=42 holds/flagged/hypothesis-unverified/total: {got} "
            f"(ROADMAP: 266/40/12/318{', match' if got == '266/40/12/318' else ', DIFFERS'})")
        return ok


def _digest(report) -> str:
    return hashlib.sha256(hhcheck.cli.emit_report(report, "json").encode()).hexdigest()


# ---------------------------------------------------------------------------

class RuleSweep:
    """Each op is one problem: all ten rules, L1, L2 and one certified
    quadrature on a freshly parsed expression. No membership search."""

    name = "rule-sweep"
    why = ("integrator, both evaluators, kernels and rule arithmetic do the "
           "work; bypasses membership")
    in_process = True
    cap_s = 2.0
    tail_pct = 99
    traced_ops_per_s = 60.0

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)

    def next_input(self) -> dict:
        rng = self.rng
        f, k = gen_f(rng)
        a, b = gen_interval(rng)
        alpha, m, p = gen_class_params(rng)
        return {
            "f": f, "k": k, "a": a, "b": b, "h": gen_h(rng), "alpha": alpha,
            "m": m, "p": p, "n": gen_n(rng),
            "quad": rng.choice(("midpoint", "trapezoid")),
            "variant": rng.choice(("statement", "proofline")),
        }

    def run(self, spec: dict):
        f = hhcheck.parse(spec["f"])
        kind, arg = spec["h"]
        if kind == "t":
            h = HFunction.identity()
        elif kind == "t^s":
            h = HFunction.power(arg)
        elif kind == "1":
            h = HFunction.one()
        else:
            h = HFunction.custom(hhcheck.parse(arg, var="t"))
        a, b = spec["a"], spec["b"]
        cls = ConvexityClass("h_alpha_m", h=h, alpha=spec["alpha"], m=spec["m"])
        hp = HolderPair.from_p(spec["p"])
        reports = []
        for rule in RULE_IDS:
            inst = BoundInstance(rule, f, a, b, cls, hp if rule in HOLDER_RULES else None)
            if rule in FIRST_DERIVATIVE_RULES:
                reports.append(hhcheck.bound_first_derivative(inst))
            else:
                reports.append(hhcheck.bound_second_derivative(inst))
        lemmas = (hhcheck.lemma1_residual(f, a, b), hhcheck.lemma2_residual(f, a, b))
        quad = hhcheck.certified_integrate(
            f, a, b, n=spec["n"], rule=spec["quad"], p=spec["p"],
            alpha=spec["alpha"], m=spec["m"], variant=spec["variant"],
            check_hypothesis=False)
        return reports, lemmas, quad

    def check(self, spec: dict, out) -> int:
        reports, lemmas, quad = out
        for r in reports:
            if not (math.isfinite(r.lhs) and math.isfinite(r.rhs) and r.lhs >= 0.0):
                raise OpFailed(f"{r.rule_id} on {spec}: lhs={r.lhs!r} rhs={r.rhs!r}")
        # L1 and L2 are identities: the residual is rounding only
        limit = 1e-9 * 10.0 ** max(0, spec["k"] or 0)
        for tag, res in zip(("L1", "L2"), lemmas):
            if not (0.0 <= res <= limit):
                raise OpFailed(f"{tag} residual {res!r} > {limit!r} on {spec}")
        if not (quad.true_error >= 0.0 and math.isfinite(quad.apriori_bound)):
            raise OpFailed(f"quadrature on {spec}: {quad!r}")
        return len(reports) + len(lemmas) + 1

    # ROADMAP item 2 repros: the integrator bisects without bound once
    # |f| * (b - a) exceeds ~1e4. Run every time, outside the timed ops.
    DEFECT_PROBES = (("T4 exp(x) on [10,11]", "exp(x)", 10.0, 11.0),
                     ("T4 1e9*x^2 on [0,1]", "1e9*x^2", 0.0, 1.0))
    DEFECT_CAP_S = 1.0

    def post_checks(self, log) -> bool:
        for label, f, a, b in self.DEFECT_PROBES:
            inst = BoundInstance("T4", hhcheck.parse(f), a, b, ConvexityClass("h_alpha_m"))
            start = time.perf_counter()
            try:
                capped(hhcheck.bound_second_derivative, inst, self.DEFECT_CAP_S)
                status = "finished; no longer reproduces"
            except OpTimeout:
                status = f"reproduces: stopped at the {self.DEFECT_CAP_S:g} s cap"
            except Exception as exc:  # a fix may report non-convergence
                status = f"no longer hangs: raised {type(exc).__name__}"
            log(f"# known defect (ROADMAP item 2) {label}: {status} "
                f"after {time.perf_counter() - start:.3f} s")
        return True


# ---------------------------------------------------------------------------
# cli-oneshot: check-class inputs with a known verdict. Each row draws its
# own parameters; "holds" means a member (no counterexample exists), and
# "flagged" means a non-member with a counterexample far above rounding.

def _u(rng, lo, hi):
    return f"{rng.uniform(lo, hi):.4g}"


def _affine(rng):
    c = rng.uniform(1.0, 9.9) * 10.0 ** rng.randint(-3, 3) * rng.choice((-1, 1))
    return f"{c:.6g}*x+{rng.uniform(-5, 5):.4g}"


CLASS_ROWS = (
    # (f, sense, extra args, a range, width range, expected verdict)
    (lambda r: "x^2", "convex", lambda r: [], (-2, 1), (0.5, 2), "holds"),
    (lambda r: "exp(x)", "convex", lambda r: [], (-1, 1), (0.5, 2), "holds"),
    (_affine, "convex", lambda r: [], (-2, 1), (0.5, 2), "holds"),
    (lambda r: "-x^2", "convex", lambda r: [], (-2, 1), (0.5, 2), "flagged"),
    (lambda r: "ln(x)", "convex", lambda r: [], (0.5, 2), (0.5, 2), "flagged"),
    (lambda r: "x^2+1", "h_plain", lambda r: ["--h", "t"], (0, 1), (0.5, 2), "holds"),
    (lambda r: "4-x^2", "h_plain", lambda r: ["--h", "t"], (0, 0.3), (0.8, 1.2), "flagged"),
    (lambda r: "x^2", "h_plain", lambda r: ["--h", "1"], (0, 1), (0.5, 2), "holds"),
    (lambda r: "x^2", "alpha_m", lambda r: ["--alpha", "1", "--m", _u(r, 0.5, 1)],
     (0, 0.5), (0.5, 2), "holds"),
    (lambda r: "x^2", "alpha_m", lambda r: ["--alpha", _u(r, 0.05, 0.2), "--m", "1"],
     (0, 0), (1, 3), "flagged"),
    (lambda r: "x^2", "h_alpha_m",
     lambda r: ["--h", "t", "--alpha", "1", "--m", _u(r, 0.5, 1)], (0, 0.5), (0.5, 2), "holds"),
    (lambda r: "x^2", "h_alpha_m",
     lambda r: ["--h", "t", "--alpha", _u(r, 0.05, 0.2), "--m", "1"], (0, 0), (1, 3), "flagged"),
    (lambda r: "x^2", "s_first", lambda r: ["--s", _u(r, 0.3, 1)], (0, 0.5), (0.5, 2), "holds"),
    (lambda r: "exp(-x)", "s_first", lambda r: ["--s", _u(r, 0.3, 0.7)], (0, 0), (1, 2), "flagged"),
    (lambda r: "x^2", "s_second", lambda r: ["--s", _u(r, 0.3, 1)], (0, 0.5), (0.5, 2), "holds"),
    (lambda r: "-1-x^2", "s_second", lambda r: ["--s", _u(r, 0.3, 0.8)], (0, 0.5), (0.5, 2), "flagged"),
    (lambda r: "x^2", "s_alpha_m_first",
     lambda r: ["--alpha", "1", "--s", "1", "--m", _u(r, 0.5, 1)], (0, 0.5), (0.5, 2), "holds"),
    (lambda r: "x^2", "s_alpha_m_first",
     lambda r: ["--alpha", "0.2", "--s", "0.5", "--m", "1"], (0, 0), (1, 3), "flagged"),
    (lambda r: "x^2", "s_alpha_m_second",
     lambda r: ["--alpha", "1", "--s", "1", "--m", _u(r, 0.5, 1)], (0, 0.5), (0.5, 2), "holds"),
    (lambda r: "x^2", "s_alpha_m_second",
     lambda r: ["--alpha", _u(r, 0.05, 0.2), "--s", "1", "--m", "1"], (0, 0), (1, 3), "flagged"),
)

# subcommand -> share of ops
CLI_MIX = (("check-class", 0.40), ("bound", 0.20), ("quad", 0.15),
           ("means", 0.10), ("prop", 0.15))


class CliOneshot:
    """Each op is one `python -m hhcheck <subcommand>` process."""

    name = "cli-oneshot"
    why = ("what a shell user waits for: interpreter start and import "
           "dominate one check")
    in_process = False
    cap_s = 20.0
    tail_pct = 90
    traced_ops_per_s = 2.0

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.root = root
        self.env = child_env(root)
        self.deck = []
        self.out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.peak_rss_kib = 0

    def next_input(self) -> dict:
        rng = self.rng
        if not self.deck:
            # every 20 consecutive ops hold the stated mix exactly, so the
            # records per op do not drift with the seed
            self.deck = [c for c, share in CLI_MIX for _ in range(round(20 * share))]
            rng.shuffle(self.deck)
        cmd = self.deck.pop()
        seed = str(rng.randrange(0, 2 ** 31))
        expect = None
        if cmd == "check-class":
            fgen, sense, extra, (alo, ahi), (wlo, whi), expect = rng.choice(CLASS_ROWS)
            a = round(rng.uniform(alo, ahi), 4)
            argv = ["check-class", f"--f={fgen(rng)}", "--sense", sense, *extra(rng),
                    "--a", repr(a), "--b", repr(round(a + rng.uniform(wlo, whi), 4))]
        elif cmd == "bound":
            rule = rng.choice(RULE_IDS)
            f, _ = gen_f(rng)
            a, b = gen_interval(rng)
            kind, arg = gen_h(rng)
            alpha, m, p = gen_class_params(rng)
            argv = ["bound", "--rule", rule, f"--f={f}", "--a", repr(a), "--b", repr(b),
                    "--alpha", repr(alpha), "--m", repr(m)]
            if kind == "t^s":
                argv += ["--h", "t^s", "--s", repr(arg)]
            elif kind == "expr":
                argv += [f"--h=expr:{arg}"]
            else:
                argv += ["--h", kind]
            if rule in HOLDER_RULES:
                argv += ["--p", repr(p)]
        elif cmd == "quad":
            f, _ = gen_f(rng)
            a, b = gen_interval(rng)
            alpha, m, p = gen_class_params(rng)
            argv = ["quad", "--rule", rng.choice(("midpoint", "trapezoid")), f"--f={f}",
                    "--a", repr(a), "--b", repr(b), "--n", str(gen_n(rng)), "--p", repr(p),
                    "--alpha", repr(alpha), "--m", repr(m),
                    "--variant", rng.choice(("statement", "proofline"))]
        elif cmd == "means":
            a = round(rng.uniform(0.1, 50.0), 4)
            argv = ["means", "--a", repr(a), "--b", repr(round(a + rng.uniform(0.1, 50.0), 4))]
            expect = "holds"
        else:
            pid = rng.choice(("P1", "P2", "P3", "P4"))
            a = round(rng.uniform(0.1, 5.0), 4)
            argv = ["prop", "--id", pid, "--a", repr(a),
                    "--b", repr(round(a + rng.uniform(0.2, 5.0), 4)),
                    "--p", repr(round(rng.uniform(1.1, 10.0), 4))]
            if pid == "P4":
                argv += ["--n", str(rng.randint(2, 4))]
        return {"cmd": cmd, "argv": argv + ["--seed", seed, "--format", "json"],
                "expect": expect}

    def command(self, spec: dict) -> list:
        return [sys.executable, "-m", "hhcheck", *spec["argv"]]

    def traced_command(self, spec: dict) -> list:
        return [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"),
                *spec["argv"]]

    def run(self, argv: list) -> "ProcResult":
        """Run one process to completion under the op cap.

        The process is reaped with os.wait4 so that its own peak RSS is
        known; its output goes through files under perfbench/out.
        """
        out_path = os.path.join(self.out_dir, f"op-{os.getpid()}.stdout")
        err_path = os.path.join(self.out_dir, f"op-{os.getpid()}.stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err,
                                    cwd=self.root)
            try:
                _, status, usage = capped(_wait4, proc.pid, self.cap_s)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return ProcResult(proc.returncode, out.read().decode(), err.read().decode())

    def check(self, spec: dict, proc) -> int:
        allowed = (0, 1) if spec["expect"] is None else ((0,) if spec["expect"] == "holds" else (1,))
        if proc.returncode not in allowed:
            raise OpFailed(f"exit {proc.returncode} for {spec['argv']}: "
                           f"{proc.stderr.strip()[-200:]}")
        cases = json.loads(proc.stdout)["cases"]
        if spec["expect"] is not None:
            wrong = [c["case_id"] for c in cases if c["verdict"] != spec["expect"]]
            if wrong:
                raise OpFailed(f"{spec['argv']}: expected {spec['expect']}, "
                               f"wrong rows {wrong}")
        return len(cases)

    # ROADMAP item 2 repro: a linear function is convex, but the absolute
    # tolerance reports a counterexample once its values reach ~1e7.
    DEFECT_ARGV = ("check-class", "--f=1e6*x", "--sense", "convex", "--a", "0",
                   "--b", "25", "--format", "json")

    def post_checks(self, log) -> bool:
        proc = self.run(self.command({"argv": list(self.DEFECT_ARGV)}))
        verdicts = ([c["verdict"] for c in json.loads(proc.stdout)["cases"]]
                    if proc.returncode in (0, 1) else [])
        status = ("reproduces: false counterexample" if verdicts == ["flagged"]
                  else f"no longer reproduces (exit {proc.returncode}, {verdicts})")
        log(f"# known defect (ROADMAP item 2) check-class --f=1e6*x convex "
            f"on [0,25]: {status}")
        return True


@dataclass(frozen=True)
class ProcResult:
    returncode: int
    stdout: str
    stderr: str


def _wait4(pid: int):
    return os.wait4(pid, 0)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("HHC_SEED", None)  # the flag, not the environment, sets each op's seed
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (VerifySuite, RuleSweep, CliOneshot)}
