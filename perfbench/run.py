"""hhcheck benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Workloads: verify-suite, rule-sweep, cli-oneshot (see workloads.py and
perfbench/README.md). With --trace 0 the run measures the end-to-end metrics
with nothing wrapped. With --trace 1 it runs a fixed number of ops, sized
from --seconds, once traced and once untraced, and reports per-layer
metrics. End-to-end times are scaled to a reference machine speed (see
CpuClock); the report prints each as measured too. Lines starting with '#'
are the readable report; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The exit status is 0 when
the run completed, whatever it measured, and 2 when there are no hhcheck
sources to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

_now = time.perf_counter_ns

WORKLOADS = ("verify-suite", "rule-sweep", "cli-oneshot")
SETUP_PROBES = 8  # set-ups measured per untraced run
FLOOR_PROBES = 5

# Which end-to-end metric each layer should move, and on which workload.
PREDICTIONS = (
    ("expr.parse / differentiate / compile_fn",
     "op_ms.p50 on rule-sweep and cli-oneshot; setup_s everywhere"),
    ("expr.evals, expr.eval.self_s", "op_ms.p50 and records_per_s on verify-suite and rule-sweep"),
    ("convexity.*", "verify-suite first, cli-oneshot second; 0 calls on rule-sweep"),
    ("kernels.*", "rule-sweep; a few percent of verify-suite"),
    ("bounds.rule / verify / lemma / mean_cache", "rule-sweep and verify-suite"),
    ("means.*", "verify-suite and cli-oneshot, slightly"),
    ("quadrature.certified_integrate", "rule-sweep and the quad share of verify-suite"),
    ("suite.build_suite.self_s", "verify-suite"),
    ("cli.interp_floor_s / import_s / run.self_s", "op_ms.p50 on cli-oneshot"),
)

# Boundaries each workload must reach, and those it must never reach. A
# refactor that routes around a wrapper fails this guard instead of
# reporting 0 s for the layer.
GUARD = {
    "verify-suite": (
        {"expr.differentiate", "expr.compile_fn", "convexity.check_membership",
         "kernels.integrate_adaptive", "kernels.kernel_moment", "bounds.rule",
         "bounds.verify", "bounds.lemma", "means.mean", "means.proposition_check",
         "quadrature.certified_integrate", "suite.build_suite"},
        {"cli.run"}),
    "rule-sweep": (
        {"expr.parse", "expr.differentiate", "expr.compile_fn",
         "kernels.integrate_adaptive", "kernels.kernel_moment", "bounds.rule",
         "bounds.lemma", "quadrature.certified_integrate"},
        {"convexity.check_membership", "bounds.verify", "means.mean",
         "means.proposition_check", "suite.build_suite", "cli.run"}),
    "cli-oneshot": (
        {"expr.parse", "expr.differentiate", "expr.compile_fn",
         "convexity.check_membership", "kernels.integrate_adaptive",
         "kernels.kernel_moment", "bounds.rule", "bounds.verify", "means.mean",
         "means.proposition_check", "quadrature.certified_integrate", "cli.run"},
        {"suite.build_suite", "bounds.lemma"}),
}
# Smallest traced pass that reaches every boundary the guard expects.
MIN_TRACED_OPS = {"verify-suite": 3, "rule-sweep": 200, "cli-oneshot": 40}


def log(line: str = ""):
    print(line, flush=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="hhcheck benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs each workload in turn, in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up as a run would, print the clock and exit")
    return ap.parse_args(argv)


def setup(name: str, seed: int):
    """Everything a run does before its first op: import hhcheck, build the
    workload's generator and draw the first input."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT)
    return workloads, wl, wl.next_input()


# ---------------------------------------------------------------------------
# Probes in child processes. CLOCK_MONOTONIC, behind perf_counter on Linux,
# is shared by all processes, so a child's reading can be compared with the
# parent's.

def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first op being ready."""
    start = _now()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=True)
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def measure_spawn(argv: list, env: dict, n: int) -> float:
    times = []
    for _ in range(n):
        start = _now()
        subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                       timeout=60, cwd=ROOT, check=True)
        times.append((_now() - start) / 1e9)
    return statistics.median(times)


class CpuClock:
    """Picks the fastest CPU and measures how fast it currently runs.

    On a shared 2-CPU machine a CPU can run a third slower, or more, for
    tens of seconds, and the other CPU may or may not be affected. Between
    ops, every REPICK_S seconds, a fixed pure-Python loop that does not touch
    hhcheck is timed on each allowed CPU; the process (and the processes it
    starts) moves to the fastest, and `factor` becomes REF_LOOP_NS divided by
    that CPU's loop time. Multiplying a measured time by `factor` gives the
    time the same work takes when the loop runs at its reference speed, so
    a slow spell of the machine does not read as a slower program. The time
    spent here is excluded from the measurements.
    """

    REPICK_S = 0.5
    # the loop's time on an uncontended CPU of a 2-core x86-64 VM, Python 3.11
    REF_LOOP_NS = 1_400_000

    def __init__(self):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        self.next_s = 0.0
        self.picks = []
        self.loop_ns = []  # the picked CPU's loop time at each pick
        self.factor = 1.0

    @staticmethod
    def _loop_ns() -> int:
        start = _now()
        s = 0
        for i in range(20000):
            s += i * i % 7
        return _now() - start

    def measure(self):
        speed = {}
        for cpu in self.cpus or [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self._loop_ns() for _ in range(3))
        best = min(speed, key=speed.get)
        if best is not None:
            os.sched_setaffinity(0, {best})
        self.picks.append(best)
        self.loop_ns.append(speed[best])
        self.factor = self.REF_LOOP_NS / speed[best]

    def __call__(self, active_s: float) -> int:
        """Re-measure when due; returns the nanoseconds spent."""
        if active_s < self.next_s:
            return 0
        start = _now()
        self.measure()
        self.next_s = active_s + self.REPICK_S
        return _now() - start

    def summary(self) -> str:
        counts = ", ".join(f"{c}: {self.picks.count(c)}" for c in self.cpus) or "not pinned"
        return (f"picks per CPU {counts}; reference loop on the picked CPU: median "
                f"{statistics.median(self.loop_ns) / 1e3:.0f} us, range "
                f"{min(self.loop_ns) / 1e3:.0f}-{max(self.loop_ns) / 1e3:.0f} us "
                f"(reference {self.REF_LOOP_NS / 1e3:.0f} us)")


# ---------------------------------------------------------------------------

@dataclass
class Loop:
    """What op_loop measured. Times are in ns; the *_ref ones are scaled to
    the reference loop speed (see CpuClock)."""

    lat: list = field(default_factory=list)
    lat_ref: list = field(default_factory=list)
    records: int = 0
    failures: list = field(default_factory=list)
    wall: int = 0
    wall_ref: float = 0.0


def op_loop(wl, workloads, first, clock, *, seconds=None, count=None, tr=None,
            cap_factor=1.0, between=None, offset=0) -> Loop:
    """Run ops closed-loop, for `seconds` of op time or for `count` ops.

    Between ops the clock re-measures when due and `between`, a callable
    taking the active seconds so far and returning the nanoseconds it took,
    may run; neither counts as op time. With a tracer, in-process ops are
    attributed to their index, and process ops run traced with their tracer
    export merged into `tr`.
    """
    res = Loop()
    traced_cmd = tr is not None and not wl.in_process
    paused = 0
    begin = _now()
    spec = first if first is not None else wl.next_input()
    i = 0
    while True:
        active_s = (_now() - begin - paused) / 1e9
        paused += clock(active_s)
        if between is not None:
            paused += between(active_s)
        if tr is not None:
            tr.op = offset + i
        factor = clock.factor
        start = _now()
        end = None
        try:
            if wl.in_process:
                out = workloads.capped(wl.run, spec, wl.cap_s * cap_factor)
            else:
                out = wl.run(wl.traced_command(spec) if traced_cmd else wl.command(spec))
            end = _now()
            if traced_cmd:
                tr.merge(json.loads(out.stderr.strip().splitlines()[-1]), offset + i)
            res.records += wl.check(spec, out)
        except workloads.OpTimeout:
            res.failures.append(f"op {offset + i}: stopped at the "
                                f"{wl.cap_s * cap_factor:g} s cap: {spec}")
        except Exception as exc:  # any other exception is a failed op; keep going
            res.failures.append(f"op {offset + i}: {type(exc).__name__}: {exc}"[:400])
        if end is None:
            end = _now()
        res.lat.append(end - start)
        res.lat_ref.append((end - start) * factor)
        i += 1
        done = ((count is not None and i >= count) or
                (seconds is not None and _now() - begin - paused >= seconds * 1e9))
        if not done:
            spec = wl.next_input()
        res.wall_ref += (_now() - start) * factor  # the op and the next draw
        if done:
            break
    res.wall = _now() - begin - paused
    return res


def tail_of(lat: list, pct: int):
    """Nearest-rank percentile and the number of ops above it."""
    ordered = sorted(lat)
    idx = max(0, math.ceil(pct * len(ordered) / 100) - 1)
    return ordered[idx], len(ordered) - idx - 1


def report_failures(failures: list, attempted: int):
    log(f"# failed_ratio = {len(failures)}/{attempted} = "
        f"{len(failures) / attempted if attempted else 0.0:.4g}")
    for msg in failures[:20]:
        log(f"# FAILED {msg}")


def untraced_run(args, workloads, wl, first, clock) -> dict:
    # Set-up is measured in fresh processes spread evenly over the timed
    # window, between ops, so that one slow spell of the machine does not
    # set the median. A first probe, untimed, fills the bytecode cache.
    setup_probe(args.workload, args.seed)
    setups, setups_ref = [], []
    every = args.seconds / SETUP_PROBES

    def probe_between_ops(active_s: float) -> int:
        if len(setups) >= SETUP_PROBES or active_s < every * (len(setups) + 0.5):
            return 0
        start = _now()
        setups.append(setup_probe(args.workload, args.seed))
        setups_ref.append(setups[-1] * clock.factor)
        return _now() - start

    run = op_loop(wl, workloads, first, clock, seconds=args.seconds,
                  between=probe_between_ops)
    while len(setups) < SETUP_PROBES:  # a run shorter than planned
        probe_between_ops(float("inf"))
    if wl.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = wl.peak_rss_kib / 1024.0
    attempted = len(run.lat)
    ok = wl.post_checks(log)
    tail, beyond = tail_of(run.lat_ref, wl.tail_pct)
    raw_tail, _ = tail_of(run.lat, wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups_ref), "s", statistics.median(setups),
                    f"median of {len(setups)} set-ups in fresh processes"),
        "op_ms.p50": (statistics.median(run.lat_ref) / 1e6, "ms",
                      statistics.median(run.lat) / 1e6, f"median of {attempted} ops"),
        "op_ms.tail": (tail / 1e6, "ms", raw_tail / 1e6,
                       f"p{wl.tail_pct} of {attempted} ops; {beyond} ops beyond it"),
        "records_per_s": (run.records / (run.wall_ref / 1e9), "1/s",
                          run.records / (run.wall / 1e9),
                          f"{run.records} records in {run.wall / 1e9:.3f} s"),
        "peak_rss_mb": (peak_rss_mb, "MB", peak_rss_mb,
                        "this process" if wl.in_process else "largest op process"),
    }
    for name, (value, unit, raw, note) in metrics.items():
        log(f"# {name} = {value:.6g} {unit}  (as measured: {raw:.6g}; {note})")
    if beyond < 10:
        log(f"# WARNING fewer than ten ops beyond p{wl.tail_pct}")
    report_failures(run.failures, attempted)
    return {
        "correct": ok and not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }


def traced_run(args, workloads, wl, first, floor_s: float, clock) -> dict:
    import tracer as tracing

    count = max(MIN_TRACED_OPS[args.workload],
                math.ceil(args.seconds * wl.traced_ops_per_s))
    tr = tracing.Tracer()
    # in-process ops are traced here; process ops trace themselves
    if wl.in_process:
        tr.install()
    try:
        traced = op_loop(wl, workloads, first, clock, count=count, tr=tr, cap_factor=5.0)
    finally:
        if wl.in_process:
            tr.reset_stack()
            tr.uninstall()
    untraced = op_loop(wl, workloads, None, clock, count=count, offset=count)
    failures = traced.failures + untraced.failures
    attempted = len(traced.lat) + len(untraced.lat)
    ok = wl.post_checks(log)

    env = workloads.child_env(ROOT)
    import_s = measure_spawn(["-c", "import hhcheck.cli"], env, FLOOR_PROBES) - floor_s

    metrics = tracing.layer_metrics(tr)
    metrics["cli.interp_floor_s"] = floor_s
    metrics["cli.import_s"] = import_s
    metrics["bench.trace_overhead_ratio"] = traced.wall_ref / untraced.wall_ref

    expected, forbidden = GUARD[args.workload]
    guard = []
    for name in sorted(expected):
        if tr.calls.get(name, 0) == 0:
            guard.append(f"{name} recorded no calls; a wrapper was bypassed")
    for name in sorted(forbidden):
        if tr.calls.get(name, 0) != 0:
            guard.append(f"{name} recorded {tr.calls[name]} calls; predicted 0")
    if tr.counts.get("expr.evals", 0) == 0:
        guard.append("expr.evals recorded no calls; a wrapper was bypassed")
    for msg in guard:
        log(f"# GUARD FAILED {msg}")
        print(f"boundary guard failed: {msg}", file=sys.stderr)
    log(f"# boundary guard: {'ok' if not guard else 'FAILED'}")

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tr.write_spans(spans_path)
    log(f"# traced pass: {len(traced.lat)} ops in {traced.wall / 1e9:.3f} s; untraced "
        f"pass: {len(untraced.lat)} ops in {untraced.wall / 1e9:.3f} s; {len(tr.spans)} spans in "
        f"{os.path.relpath(spans_path, ROOT)}")
    bases = tracing.ratio_bases(tr)
    units = {}
    for name, value in metrics.items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("ratio") else "count")
        units[name] = unit
        note = ""
        if name in bases:
            note = f"  ({bases[name][0]} of {bases[name][1]})"
        log(f"# {name} = {value:.6g} {unit}{note}")
    if args.workload == "verify-suite":
        name = "convexity.check_membership"
        share = (tr.self_ns.get(name, 0) + tr.eval_under.get(name, 0)) / traced.wall
        log(f"# membership self time plus its evaluator calls: {share:.1%} of traced op time")
    report_failures(failures, attempted)
    return {
        "correct": ok and not failures and not guard,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hhcheck", "__init__.py")):
        print(f"error: no hhcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", f"{args.seconds:g}",
                                   "--trace", str(args.trace)], cwd=ROOT)
            code = max(code, proc.returncode)
        return code
    workloads, wl, first = setup(args.workload, args.seed)
    if args.setup_probe:
        print(_now())
        return 0

    clock = CpuClock()
    clock(0.0)
    floor_s = measure_spawn(["-c", "pass"], dict(os.environ), FLOOR_PROBES)
    log(f"# hhcheck benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"# python={platform.python_version()} platform={platform.platform()} "
        f"nproc={os.cpu_count()} hhcheck={workloads.hhcheck.__version__}")
    log(f"# cli.interp_floor_s={floor_s:.4f} (median of {FLOOR_PROBES} `python -c pass`)")
    log(f"# workload: {wl.why}; one client, closed loop, per-op cap {wl.cap_s:g} s")
    if args.workload == "cli-oneshot":
        log("# op mix: " + ", ".join(f"{c} {s:.0%}" for c, s in workloads.CLI_MIX)
            + "; check-class rows with known verdicts cover all eight senses")
    if args.workload in ("rule-sweep", "cli-oneshot"):
        lo, hi = workloads.SCALE_EXPONENTS
        log(f"# scaled inputs: {workloads.SCALED_SHARE:.0%} of f carry a factor "
            f"10^k, k in [{lo}, {hi}]")
    for layer, moves in PREDICTIONS:
        log(f"# prediction: {layer} -> {moves}")

    if args.trace:
        result = traced_run(args, workloads, wl, first, floor_s, clock)
    else:
        result = untraced_run(args, workloads, wl, first, clock)
    log(f"# cpu: {clock.summary()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
