"""Command-line front end.

Subcommands: check-class, bound, means, prop, quad, verify. Every command
emits a report in the same shape (version, seed, case records, summary) as
table (default), json, or csv. Exit status: 0 when no record is flagged,
1 when at least one is, 2 on a usage error or a ValueError or
ArithmeticError (parse, domain, precondition, non-convergence, overflow).
The HHC_SEED environment variable overrides --seed when set. The module
runs only `records` and `base` at import. It binds the package's other
modules unexecuted, and each runs on a handler's first attribute lookup, so
a process compiles no module its subcommand does not need.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Optional

from . import bounds, convexity, expr, kernels, means, quadrature, suite
from ._version import __version__
from .base import SENSE_PARAMS, SENSES
from .records import (HOLDER_RULES, RULE_IDS, SuiteReport, bound_row, format_params, quad_row,
                      verdict)

__all__ = ["run", "main", "emit_report"]

_FORMATS = ("table", "json", "csv")
_CSV_COLUMNS = ("case_id", "rule", "params", "lhs", "rhs", "margin", "verdict")


def _parse_h(text: str, s: float) -> convexity.HFunction:
    if text == "t":
        return convexity.HFunction.identity()
    if text == "1":
        return convexity.HFunction.one()
    if text == "t^s":
        return convexity.HFunction.power(s)
    if text.startswith("t^"):
        return convexity.HFunction.power(float(text[2:]))
    if text.startswith("expr:"):
        return convexity.HFunction.custom(expr.parse(text[5:], var="t"))
    raise ValueError(f"unrecognized h {text!r}; use one of t, t^s, 1, expr:<text>")


def _resolve_sense(name: str) -> str:
    if name == "convex":
        return "plain_convex"
    if name in SENSES:
        return name
    raise ValueError(f"unknown sense {name!r}; expected 'convex' or one of {SENSES}")


def emit_report(report: SuiteReport, fmt: str) -> str:
    """Render a report as table, json, or csv text."""
    if fmt == "json":
        import json
        return json.dumps(report.as_dict(), indent=2)
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_CSV_COLUMNS)
        for c in report.cases:
            w.writerow([c.case_id, c.rule, c.params, repr(c.lhs), repr(c.rhs),
                        repr(c.margin), c.verdict])
        return buf.getvalue().rstrip("\n")
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    rows = [list(_CSV_COLUMNS)]
    for c in report.cases:
        rows.append([c.case_id, c.rule, c.params, f"{c.lhs:.6g}", f"{c.rhs:.6g}",
                     f"{c.margin:.6g}", c.verdict])
    widths = [max(len(r[i]) for r in rows) for i in range(len(_CSV_COLUMNS))]
    lines = [f"# version={report.version} seed={report.seed}"]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    s = report.summary
    lines.append(
        f"# holds={s['holds']} flagged={s['flagged']} "
        f"hypothesis-unverified={s['hypothesis_unverified']} total={s['total']}"
    )
    return "\n".join(lines)


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_common(sp, with_samples: bool = True):
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--tol", type=finite_float, default=1e-9)
    sp.add_argument("--format", choices=_FORMATS, default="table")
    if with_samples:
        sp.add_argument("--samples", type=int, default=2000)


def _add_class_flags(sp):
    """The function, interval and class parameters of check-class and bound."""
    sp.add_argument("--f", required=True, help="expression in x")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--h", default="t", help="t, t^s, 1, or expr:<text in t>")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--s", type=float, default=1.0)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hhcheck",
        description="numerical verification of deviation bounds, mean "
                    "inequalities, and certified quadrature for generalized "
                    "convex functions",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-class", help="membership falsification for one function")
    sp.add_argument("--sense", required=True,
                    help="'convex' or one of " + ", ".join(SENSES))
    _add_class_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("bound", help="evaluate one deviation rule")
    sp.add_argument("--rule", required=True, choices=RULE_IDS)
    _add_class_flags(sp)
    sp.add_argument("--p", type=float, default=None, help="Holder exponent (rules other than T1/T4)")
    sp.add_argument("--variant", choices=("printed", "tight"), default="printed")
    _add_common(sp)

    sp = sub.add_parser("means", help="mean chain and Lp monotonicity at one pair")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--grid", default="-1,0,0.5,1,2,5",
                    help="comma-separated Lp exponents; -1 means L, 0 means I "
                         "(write --grid=-1,... when the list starts with '-')")
    _add_common(sp, with_samples=False)

    sp = sub.add_parser("prop", help="one mean inequality check")
    sp.add_argument("--id", required=True, choices=("P1", "P2", "P3", "P4"))
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=int, default=None, help="exponent for P4")
    _add_common(sp, with_samples=False)

    sp = sub.add_parser("quad", help="certified composite quadrature")
    sp.add_argument("--rule", required=True, choices=("midpoint", "trapezoid"))
    sp.add_argument("--f", required=True, help="expression in x")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--points", default=None,
                    help="comma-separated partition points (overrides --n)")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--variant", choices=("statement", "proofline"), default="statement")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run the full deterministic suite")
    _add_common(sp, with_samples=False)
    return ap


def _cmd_check_class(args, seed: int) -> SuiteReport:
    sense = _resolve_sense(args.sense)
    h = _parse_h(args.h, args.s)
    cls = convexity.ConvexityClass(sense, **{name: h if name == "h" else getattr(args, name)
                                             for name in SENSE_PARAMS[sense]})
    rep = convexity.check_membership(expr.parse(args.f), cls, expr.DomainInterval(args.a, args.b),
                                     samples=args.samples, seed=seed, tol=args.tol)
    w = rep.witness
    where = {} if w is None else {"x": w.x, "y": w.y, "lam": w.lam}
    ps = format_params(f=args.f, a=args.a, b=args.b, **{"class": cls.describe()},
                       samples_used=rep.samples_used, seed=rep.seed, **where)
    lhs, rhs = (0.0, 0.0) if w is None else (w.lhs, w.rhs)
    return SuiteReport.from_sections(
        seed, [("class", [("membership", ps, lhs, rhs, verdict(rep.ok))])])


def _cmd_bound(args, seed: int) -> SuiteReport:
    h = _parse_h(args.h, args.s)
    cls = convexity.ConvexityClass("h_alpha_m", h=h, alpha=args.alpha, m=args.m)
    hp = None
    if args.rule in HOLDER_RULES:
        if args.p is None:
            raise ValueError(f"rule {args.rule} requires --p")
        hp = kernels.HolderPair.from_p(args.p)
    elif args.p is not None:
        raise ValueError(f"rule {args.rule} takes no --p")
    inst = bounds.BoundInstance(args.rule, expr.parse(args.f), args.a, args.b, cls, hp)
    rep = bounds.verify(inst, tol=args.tol, samples=args.samples, seed=seed,
                        variant=args.variant)
    variant = args.variant if args.rule == "T1" else None
    return SuiteReport.from_sections(seed, [("bound", [bound_row(args.f, inst, rep, variant)])])


def _cmd_means(args, seed: int) -> SuiteReport:
    rows = means.mean_chain_rows(args.a, args.b)
    rows.append(means.lp_monotone_row(args.a, args.b, [float(t) for t in args.grid.split(",")]))
    return SuiteReport.from_sections(seed, [("means", rows)])


def _cmd_prop(args, seed: int) -> SuiteReport:
    inst = means.PropositionInstance(args.id, args.a, args.b, args.p, n=args.n)
    return SuiteReport.from_sections(seed, [("prop", means.proposition_rows(inst, args.tol))])


def _cmd_quad(args, seed: int) -> SuiteReport:
    points = None
    if args.points is not None:
        points = tuple(float(t) for t in args.points.split(","))
    rep = quadrature.certified_integrate(
        expr.parse(args.f), args.a, args.b, n=args.n, rule=args.rule, p=args.p,
        alpha=args.alpha, m=args.m, variant=args.variant, points=points,
        tol=args.tol, seed=seed, samples=args.samples,
    )
    row = quad_row(args.f, rep, value=rep.value, reference=rep.reference)
    return SuiteReport.from_sections(seed, [("quad", [row])])


def _cmd_verify(args, seed: int) -> SuiteReport:
    return suite.build_suite(seed=seed, tol=args.tol)


_COMMANDS = {
    "check-class": _cmd_check_class, "bound": _cmd_bound, "means": _cmd_means,
    "prop": _cmd_prop, "quad": _cmd_quad, "verify": _cmd_verify,
}


def run(argv: Optional[list] = None) -> int:
    """Parse argv, execute, print the report; return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code
        return int(code) if code is not None else 0

    env_seed = os.environ.get("HHC_SEED")
    try:
        seed = int(env_seed) if env_seed is not None else args.seed
        report = _COMMANDS[args.command](args, seed)
    except (ValueError, ArithmeticError) as exc:  # every error of the package is one
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(emit_report(report, args.format))
    return 1 if report.summary["flagged"] > 0 else 0


def main():
    # A one-shot process: the heap imported so far lives until exit, so no
    # collection, and no shutdown pass, needs to walk or free it (~7 ms).
    gc.freeze()
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer (head, less, ...) closed the pipe; suppress the
        # shutdown traceback and exit quietly with the conventional status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
