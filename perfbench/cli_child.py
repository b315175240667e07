"""A traced `hhcheck` process for the traced cli-oneshot run.

Usage: PYTHONPATH=src python perfbench/cli_child.py <hhcheck arguments>

Behaves like `python -m hhcheck <arguments>` (same report on stdout, same
exit status) with the tracer installed around `hhcheck.cli.run`. The
tracer's export is written as the last line of stderr.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hhcheck.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tr = Tracer()
    tr.install()
    try:
        code = tr.span("cli.run", hhcheck.cli.run)(sys.argv[1:])
        sys.stdout.flush()
    finally:
        tr.uninstall()
    sys.stderr.write("\n" + json.dumps(tr.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
