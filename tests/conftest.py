"""Shared test configuration.

The hypothesis profile is derandomized so the whole suite is reproducible
run-to-run (the library's own guarantees are deterministic-by-seed, and the
tests should be too).

Tests that run `python -m hhcheck` in a subprocess need the package on the
child's path. pyproject's `pythonpath = ["src"]` only reaches this process,
so the directory of the imported package is put first on PYTHONPATH too.
"""

import os
from pathlib import Path

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
