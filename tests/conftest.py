"""Shared test configuration.

The hypothesis profile is derandomized so the whole suite is reproducible
run-to-run (the library's own guarantees are deterministic-by-seed, and the
tests should be too).

Tests that run `python -m hhcheck` in a subprocess need the package on the
child's path. pyproject's `pythonpath = ["src"]` only reaches this process,
so the directory of the imported package is put first on PYTHONPATH too.

A test that counts work (compilations, derivatives, searches, proofs,
evaluations) takes the `cold_caches` fixture: hhcheck's caches live as long
as the process, so its counts would otherwise depend on the tests run
before it.
"""

import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import hhcheck

os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(hhcheck.__file__).resolve().parents[1])]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "hhcheck" or name.startswith("hhcheck."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value.__module__ == name:
                    value.cache_clear()


@pytest.fixture
def cold_caches():
    """Clear every cache of every hhcheck module before the test, and give
    the test the function that clears them, to call again."""
    _clear_caches()
    return _clear_caches
