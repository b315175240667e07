"""The bounded caches: each one listed with its size, the working set that
sizes the reference-integral cache, and live memory over a stream of fresh
functions."""

import gc
import importlib
import pkgutil
import random
import re
import sys
from pathlib import Path

import hhcheck
from hhcheck import (FIRST_DERIVATIVE_RULES, HOLDER_RULES, RULE_IDS, BoundInstance,
                     ConvexityClass, HolderPair, build_suite, parse)
from hhcheck.bounds import _mean_integral

README = Path(__file__).resolve().parent.parent / "README.md"


def _caches():
    """Every cache of every hhcheck module, found as the cold_caches fixture
    finds them, keyed "module.name" with the package prefix dropped."""
    for info in pkgutil.iter_modules(hhcheck.__path__):
        if info.name != "__main__":  # which would run the CLI
            importlib.import_module(f"hhcheck.{info.name}")
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("hhcheck."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_clear") and value.__module__ == name:
                    found[f"{name[len('hhcheck.'):]}.{attr}"] = value
    return found


def test_every_cache_is_bounded_and_listed_in_the_readme():
    # a README row reads | `module.name` | key | size | ...
    rows = re.findall(r"^\| `(\w+\.\w+)` \|[^|]*\| (\d+) \|", README.read_text(encoding="utf-8"),
                      re.M)
    caches = _caches()
    assert caches and all(c.cache_info().maxsize is not None for c in caches.values())
    assert dict((name, int(size)) for name, size in rows) == {
        name: c.cache_info().maxsize for name, c in caches.items()}


def test_build_suite_mean_integral_working_set(cold_caches):
    # a suite reads 23 reference integrals (15 lemma rows, 5 bound rows,
    # 3 quadratures); the next seed reads its own but for the 3 on [0, 1]
    build_suite(42)
    info = _mean_integral.cache_info()
    assert (info.misses, info.hits) == (23, 182)
    build_suite(43)
    after = _mean_integral.cache_info()
    assert (after.misses - info.misses, after.hits - info.hits) == (20, 185)


_TEMPLATES = ("{c}*x^2+x", "exp({c}*x)", "1/(x+{c})", "x^{r}", "x*ln(x+{c})",
              "exp(-{c}*x)+{c}*x^2")


def _problem(rng, cls, hp):
    """A freshly parsed f with random constants, through every rule, both
    lemma residuals and a certified quadrature."""
    f = parse(rng.choice(_TEMPLATES).format(c=rng.uniform(0.2, 1.2), r=rng.uniform(1.5, 4.0)))
    a = rng.uniform(0.5, 1.0)
    b = a + rng.uniform(0.2, 1.0)
    for rule in RULE_IDS:
        inst = BoundInstance(rule, f, a, b, cls, hp if rule in HOLDER_RULES else None)
        if rule in FIRST_DERIVATIVE_RULES:
            hhcheck.bound_first_derivative(inst)
        else:
            hhcheck.bound_second_derivative(inst)
    hhcheck.lemma1_residual(f, a, b)
    hhcheck.lemma2_residual(f, a, b)
    hhcheck.certified_integrate(f, a, b, n=4, rule=rng.choice(("midpoint", "trapezoid")),
                                check_hypothesis=False)


def test_a_stream_of_fresh_functions_keeps_live_nodes_bounded(cold_caches):
    """Every cache that holds a tree is bounded, so once they are full a
    stream of new functions keeps a constant number of nodes alive; a cache
    with an entry per function seen would keep thousands here."""
    gc.collect()
    live = hhcheck.expr._NODES
    base = len(live)
    rng = random.Random(2024)
    cls = ConvexityClass("h_alpha_m", alpha=0.5, m=0.9)
    hp = HolderPair.from_p(2.0)
    for _ in range(300):  # fills every cache
        _problem(rng, cls, hp)
    for k in range(1000):
        _problem(rng, cls, hp)
        if k % 100 == 99:
            info = _mean_integral.cache_info()
            assert info.currsize <= info.maxsize
            assert len(live) - base < 1000
