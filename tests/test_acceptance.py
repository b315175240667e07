"""Acceptance gate: eight checks covering the whole verification surface.

Each test prints a single `ACCEPTANCE n: PASS/FAIL` line (visible in the
pytest output) and then asserts. Budgets are wall-clock seconds measured
around the computational core of each check.

Check 3 nuance: seven rules are asserted to dominate in 100% of baseline
cases. C2, C3, and C4 carry coefficient kernels with no dominance guarantee
(C3 and C4 demonstrably fail on parts of the grid), so their verdicts are
required to be deterministic and fully reported rather than all-holding; the
C3 violations are themselves regression-pinned as nonzero.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from hhcheck import (
    Abs,
    BoundInstance,
    Const,
    ConvexityClass,
    DomainInterval,
    HFunction,
    HolderPair,
    MeanKind,
    Pow,
    PropositionInstance,
    beta,
    bound_first_derivative,
    bound_second_derivative,
    certified_integrate,
    check_mean_chain,
    check_membership,
    differentiate,
    integrate_adaptive,
    kernel_moment,
    lemma1_residual,
    lemma2_residual,
    lp_monotonicity_check,
    mean,
    midpoint_rule,
    parse,
    proposition_check,
    trapezoid_deviation,
    trapezoid_rule,
    uniform_partition,
)
from hhcheck.bounds import FIRST_DERIVATIVE_RULES, RULE_IDS

CATALOG = (
    ("x^2", parse("x^2")),
    ("x^3", parse("x^3")),
    ("exp(x)", parse("exp(x)")),
    ("-ln(x)", parse("-ln(x)")),
    ("1/x", parse("1/x")),
)
BASELINE = ConvexityClass("h_alpha_m")
P_GRID = (1.5, 2.0, 4.0)


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_acceptance_1_lemma_identities(capsys):
    rng = random.Random(101)
    budget = 10.0
    worst = 0.0
    count = 0
    start = time.perf_counter()
    for _, f in CATALOG:
        for _ in range(100):
            a = rng.uniform(0.1, 2.0)
            b = a + rng.uniform(0.2, 1.5)
            r1 = lemma1_residual(f, a, b)
            r2 = lemma2_residual(f, a, b)
            worst = max(worst, r1, r2)
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < budget
    _report(capsys, 1, ok,
            f"{count} intervals x 2 identities, worst residual {worst:.3e}, "
            f"{elapsed:.2f}s (budget {budget:.0f}s)")
    assert worst <= 1e-9, f"worst lemma residual {worst}"
    assert elapsed < budget, f"took {elapsed:.2f}s"


def test_acceptance_2_exact_fixtures(capsys):
    sq = parse("x^2")
    a, b = 0.3, 1.9
    res = lemma2_residual(sq, a, b)
    dev = trapezoid_deviation(sq, a, b)
    side = (b - a) ** 2 / 6.0
    inst = BoundInstance("T4", sq, 0.0, 1.0, BASELINE)
    margin = bound_second_derivative(inst).margin
    ok = res <= 1e-12 and abs(dev - side) <= 1e-12 and abs(margin) <= 1e-12
    _report(capsys, 2, ok,
            f"second-identity residual {res:.2e}, both sides (b-a)^2/6, "
            f"T4 equality margin {margin:.2e}")
    assert res <= 1e-12
    assert dev == pytest.approx(side, abs=1e-12)
    assert abs(margin) <= 1e-12


def _bound_sweep(seed):
    """One full pass of check 3: 200 seeded intervals per rule."""
    results = {}
    for rule in RULE_IDS:
        rng = random.Random(seed)
        rows = []
        for i in range(200):
            _, f = CATALOG[i % 5]
            a = rng.uniform(0.1, 2.0)
            b = a + rng.uniform(0.2, 2.0)
            hp = None if rule in ("T1", "T4") else HolderPair.from_p(P_GRID[i % 3])
            inst = BoundInstance(rule, f, a, b, BASELINE, hp=hp)
            rep = (bound_first_derivative(inst)
                   if rule in FIRST_DERIVATIVE_RULES
                   else bound_second_derivative(inst))
            rows.append((rep.margin, rep.holds))
        results[rule] = rows
    return results


def test_acceptance_3_bound_dominance(capsys):
    budget = 60.0
    start = time.perf_counter()

    # hypothesis membership, hoisted to the covering interval of the sweep
    covering = DomainInterval(0.1, 4.0)
    unverified = []
    for name, f in CATALOG:
        for order in (1, 2):
            base = Abs(differentiate(f, order))
            for q in (1.0, 3.0, 2.0, 4.0 / 3.0):
                g = base if q == 1.0 else Pow(base, Const(q))
                rep = check_membership(g, BASELINE, covering, samples=200, seed=5)
                if not rep.ok:
                    unverified.append((name, order, q))

    sweep = _bound_sweep(12345)
    sweep_again = {rule: _bound_sweep(12345)[rule] for rule in ("C2", "C3", "C4")}
    elapsed = time.perf_counter() - start

    anchored = ("T1", "T2", "C1", "T3", "T4", "T5", "T6")
    anchored_bad = {
        rule: sum(1 for margin, _ in sweep[rule] if margin < -1e-9)
        for rule in anchored
    }
    recorded_counts = {
        rule: sum(1 for margin, _ in sweep[rule] if margin < -1e-9)
        for rule in ("C2", "C3", "C4")
    }
    deterministic = all(sweep[rule] == sweep_again[rule] for rule in ("C2", "C3", "C4"))
    fully_reported = all(len(sweep[rule]) == 200 for rule in RULE_IDS)

    ok = (
        not unverified
        and all(v == 0 for v in anchored_bad.values())
        and recorded_counts["C3"] > 0
        and deterministic
        and fully_reported
        and elapsed < budget
    )
    _report(capsys, 3, ok,
            f"7 anchored rules 200/200 each; recorded C2/C3/C4 violations "
            f"{recorded_counts['C2']}/{recorded_counts['C3']}/{recorded_counts['C4']} "
            f"(C3 dominance claim fails recomputation; deterministic), "
            f"{elapsed:.2f}s (budget {budget:.0f}s)")
    assert not unverified, f"hypothesis membership failed for {unverified}"
    for rule, bad in anchored_bad.items():
        assert bad == 0, f"{rule}: {bad}/200 baseline violations"
    assert recorded_counts["C3"] > 0, "C3 counterexamples disappeared; revisit its status"
    assert deterministic, "recorded-rule sweeps differ between identical runs"
    assert fully_reported
    assert elapsed < budget, f"took {elapsed:.2f}s"


def test_acceptance_4_kernel_closed_forms(capsys):
    comparisons = 0
    worst = 0.0
    p_cycle = (1.5, 2.0, 4.0)
    grid = [(s, alpha) for s in (0.25, 0.5, 0.75, 1.0) for alpha in (0.0, 0.5, 1.0)]
    for idx, (s, alpha) in enumerate(grid):
        h = HFunction.identity() if s == 1.0 else HFunction.power(s)

        for kind, weight in (
            ("M0", lambda t: 1.0),
            ("M1", lambda t: 1.0 - t),
            ("M2", lambda t: t * (1.0 - t)),
        ):
            closed = kernel_moment(kind, h, alpha)
            assert closed.method == "closed-form"
            ref = integrate_adaptive(
                lambda t, w=weight: w(t) * t ** (s * alpha), 0.0, 1.0
            )
            assert ref.converged
            worst = max(worst, abs(closed.value - ref.value))
            comparisons += 1

        hp = HolderPair.from_p(p_cycle[idx % 3])
        q = hp.q
        for kind in ("C2", "C4"):
            closed = kernel_moment(kind, h, alpha, hp=hp)
            if kind == "C2":
                w = lambda t: (1.0 - t / q) * t ** (s * alpha / q)
            else:
                w = lambda t: t ** (1.0 / q) * (1.0 - t / q) * t ** (s * alpha / q)
            ref = integrate_adaptive(w, 0.0, 1.0)
            assert ref.converged
            worst = max(worst, abs(closed.value - ref.value))
            comparisons += 1

    beta_err = max(abs(beta(2.0, 2.0) - 1.0 / 6.0), abs(beta(3.0, 3.0) - 1.0 / 30.0))
    ok = comparisons == 60 and worst <= 1e-12 and beta_err <= 1e-14
    _report(capsys, 4, ok,
            f"{comparisons} closed-vs-adaptive comparisons, worst gap {worst:.3e}; "
            f"beta fixtures off by {beta_err:.1e}")
    assert comparisons == 60
    assert worst <= 1e-12
    assert beta_err <= 1e-14


def test_acceptance_5_means(capsys):
    rng = random.Random(505)
    kinds = [MeanKind(t) for t in ("A", "G", "H", "L", "I")] + [MeanKind("Lp", p=2.5)]
    lam_cycle = (0.5, 3.7, 11.0)
    pairs = []
    while len(pairs) < 1000:
        a = rng.uniform(0.01, 100.0)
        b = rng.uniform(0.01, 100.0)
        if a != b:
            pairs.append((min(a, b), max(a, b)))

    worst = 0.0
    chain_ok = 0
    for idx, (a, b) in enumerate(pairs):
        lam = lam_cycle[idx % 3]
        for kind in kinds:
            v = mean(kind, a, b)
            assert mean(kind, b, a) == v  # symmetry is exact
            assert mean(kind, a, a) == a  # idempotence is exact
            scaled = mean(kind, lam * a, lam * b)
            gap = abs(scaled - lam * v) / max(1.0, abs(lam * v))
            worst = max(worst, gap)
        _, holds = check_mean_chain(a, b)
        chain_ok += holds

    lp_grid = (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0)
    lp_ok = sum(lp_monotonicity_check(a, b, lp_grid) for a, b in pairs[:100])

    ok = worst <= 1e-12 and chain_ok == 1000 and lp_ok == 100
    _report(capsys, 5, ok,
            f"1000 pairs: symmetry/idempotence exact, homogeneity gap {worst:.2e}; "
            f"chain {chain_ok}/1000; Lp-monotone {lp_ok}/100")
    assert worst <= 1e-12
    assert chain_ok == 1000
    assert lp_ok == 100


def test_acceptance_6_propositions(capsys):
    rng = random.Random(606)
    pairs = []
    for _ in range(50):
        a = rng.uniform(0.1, 5.0)
        pairs.append((a, a + rng.uniform(0.1, 4.0)))

    def sweep():
        out = {}
        for pid in ("P1", "P2", "P3", "P4"):
            rows = []
            for p in (1.1, 1.5, 2.0, 4.0, 10.0):
                for a, b in pairs:
                    inst = PropositionInstance(pid, a, b, p, n=2 if pid == "P4" else None)
                    o = proposition_check(inst)
                    rows.append((o.lhs, o.rhs, o.holds))
            out[pid] = rows
        return out

    first = sweep()
    second = sweep()
    deterministic = first == second
    flagged = {pid: sum(1 for *_st, h in rows if not h) for pid, rows in first.items()}
    total = sum(len(rows) for rows in first.values())

    fix = proposition_check(PropositionInstance("P3", 1.0, 2.0, 2.0))
    fixture_ok = (abs(fix.lhs - 0.05685) <= 1e-4 and abs(fix.rhs - 0.10270) <= 1e-4)

    ok = deterministic and total == 1000 and fixture_ok
    _report(capsys, 6, ok,
            f"{total} proposition checks, deterministic verdicts, flagged counts "
            f"{flagged}; P3 fixture lhs/rhs reproduced to 1e-4")
    assert deterministic
    assert total == 1000
    assert fixture_ok, (fix.lhs, fix.rhs)


def test_acceptance_7_quadrature(capsys):
    budget = 30.0
    start = time.perf_counter()
    quad_fns = (("x^2", parse("x^2")), ("exp(x)", parse("exp(x)")), ("x^4", parse("x^4")))
    ns = (1, 2, 4, 8, 16, 32, 64)

    # midpoint bound: hypothesis hoisted per f (|f'| plainly convex on [0,1])
    mid_members = {
        name: check_membership(Abs(differentiate(f)), ConvexityClass("plain_convex"),
                               DomainInterval(0.0, 1.0), samples=200, seed=7)
        for name, f in quad_fns
    }
    mid_bad = []
    for name, f in quad_fns:
        for n in ns:
            for p in P_GRID:
                rep = certified_integrate(f, 0.0, 1.0, n=n, rule="midpoint", p=p,
                                          membership=mid_members[name])
                if not (rep.holds and rep.hypothesis_verified):
                    mid_bad.append((name, n, p))

    # trapezoid bound: both alphas, outcomes recorded (violations allowed)
    trap_members = {
        (name, alpha): check_membership(
            Abs(differentiate(f, 2)),
            ConvexityClass("alpha_m", alpha=alpha, m=1.0),
            DomainInterval(0.0, 1.0), samples=200, seed=7)
        for name, f in quad_fns for alpha in (0.5, 1.0)
    }

    def trap_sweep():
        rows = []
        for name, f in quad_fns:
            for alpha in (0.5, 1.0):
                for n in ns:
                    for p in P_GRID:
                        rep = certified_integrate(
                            f, 0.0, 1.0, n=n, rule="trapezoid", p=p, alpha=alpha,
                            membership=trap_members[(name, alpha)])
                        rows.append((name, alpha, n, p, rep.holds,
                                     rep.hypothesis_verified))
        return rows

    trap_rows = trap_sweep()
    trap_deterministic = trap_rows == trap_sweep()
    trap_flagged = sum(1 for *_k, holds, _hv in trap_rows if not holds)

    # convergence-order ratios
    ratios_ok = True
    worst_ratio = None
    for text in ("x^3", "exp(x)"):
        f = parse(text)
        ref = integrate_adaptive(f, 0.0, 1.0).value
        for fn in (midpoint_rule, trapezoid_rule):
            for k in (4, 8, 16):
                e1 = abs(fn(f, uniform_partition(0.0, 1.0, k)) - ref)
                e2 = abs(fn(f, uniform_partition(0.0, 1.0, 2 * k)) - ref)
                ratio = e2 / e1
                if not (0.2 <= ratio <= 0.3):
                    ratios_ok = False
                worst_ratio = (ratio if worst_ratio is None
                               else max(worst_ratio, abs(ratio - 0.25) + 0.25))

    elapsed = time.perf_counter() - start
    ok = (not mid_bad and all(m.ok for m in mid_members.values())
          and trap_deterministic and len(trap_rows) == 126
          and ratios_ok and elapsed < budget)
    _report(capsys, 7, ok,
            f"midpoint bound 63/63 dominated with verified hypothesis; trapezoid "
            f"126 outcomes recorded deterministically ({trap_flagged} flagged); "
            f"convergence ratios within [0.2, 0.3]; {elapsed:.2f}s (budget {budget:.0f}s)")
    assert all(m.ok for m in mid_members.values())
    assert not mid_bad, f"midpoint bound violations: {mid_bad}"
    assert len(trap_rows) == 126
    assert trap_deterministic
    assert ratios_ok, f"worst ratio {worst_ratio}"
    assert elapsed < budget, f"took {elapsed:.2f}s"


def test_acceptance_8_determinism_and_exit_codes(capsys):
    hhcheck = [sys.executable, "-m", "hhcheck"]
    cmd = [*hhcheck, "verify", "--format", "json", "--seed", "42"]
    p1 = subprocess.run(cmd, capture_output=True, timeout=300)
    p2 = subprocess.run(cmd, capture_output=True, timeout=300)
    identical = p1.stdout == p2.stdout and p1.returncode == p2.returncode

    doc = json.loads(p1.stdout)
    flags = doc["summary"]["flagged"]
    exit_matches_contract = p1.returncode == (1 if flags > 0 else 0)

    zero = subprocess.run(
        [*hhcheck, "check-class", "--f", "x^2", "--sense", "convex",
         "--a", "0", "--b", "1"], capture_output=True, timeout=120).returncode
    one = subprocess.run(
        [*hhcheck, "bound", "--rule", "C4", "--f", "x^2", "--a", "0", "--b", "1",
         "--p", "2"], capture_output=True, timeout=120).returncode
    two = subprocess.run(
        [*hhcheck, "bound", "--rule", "T4", "--f", "x^(", "--a", "0", "--b", "1"],
        capture_output=True, timeout=120).returncode

    codes_ok = (zero, one, two) == (0, 1, 2)
    ok = identical and exit_matches_contract and codes_ok
    _report(capsys, 8, ok,
            f"verify byte-identical across runs ({len(p1.stdout)} bytes, "
            f"exit {p1.returncode} with {flags} flagged); "
            f"exit codes (holds, flagged, usage-error) = {(zero, one, two)}")
    assert identical
    assert exit_matches_contract
    assert codes_ok
