"""Start-up: importing the package runs none of its modules, each CLI
subcommand runs only the modules it needs, deferred loads are safe across
threads and after a failure, and the public surface is what it was.

Most checks run in a fresh interpreter, since this one has loaded every
module already. A module has run once its namespace holds `__builtins__`,
which `exec` adds; reading `vars()` of a module that has not run does not
run it."""

import ast
import gc
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import pytest

import hhcheck
from hhcheck import BoundInstance, ConvexityClass, HolderPair, parse

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

_RAN = ("sorted(n[len('hhcheck.'):] for n, m in list(sys.modules.items())"
        " if n.startswith('hhcheck.') and '__builtins__' in vars(m))")


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that writes no bytecode."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc


def _last_json(proc) -> object:
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_runs_no_module():
    proc = _python(f"import sys, json, hhcheck; dir(hhcheck); print(json.dumps({_RAN}))")
    assert _last_json(proc) == []


_BASE = ["_version", "base", "cli", "errors", "records"]
_CLASS = ["convexity", "expr"]  # what check-class adds to _BASE
_CHECK_CLASS = ["check-class", "--f=x^2", "--sense", "convex", "--a", "0", "--b", "1"]


def _run_main(argv: list, after: str) -> str:
    """Code that runs `python -m hhcheck <argv>`, then prints [status, <after>]
    as json; `after` is read before the code imports json itself."""
    return ("import runpy, sys\n"
            f"sys.argv = ['hhcheck', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('hhcheck', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
            f"after = {after}\n"
            "import json\n"
            "print(json.dumps([status, after]))\n")


@pytest.mark.parametrize("argv, extra", [
    (_CHECK_CLASS, _CLASS),
    (["bound", "--rule", "T2", "--f", "x^2", "--a", "0.5", "--b", "1", "--p", "2"],
     _CLASS + ["bounds", "kernels"]),
    (["means", "--a", "1", "--b", "2"], ["means"]),
    (["prop", "--id", "P1", "--a", "1", "--b", "2", "--p", "2"], ["means"]),
    (["quad", "--rule", "midpoint", "--f", "x^2", "--a", "0", "--b", "1", "--n", "4"],
     _CLASS + ["bounds", "kernels", "quadrature"]),
    (["verify"], _CLASS + ["bounds", "kernels", "means", "quadrature", "suite"]),
], ids=["check-class", "bound", "means", "prop", "quad", "verify"])
def test_each_subcommand_runs_only_its_modules(argv, extra):
    status, ran = _last_json(_python(_run_main(argv, _RAN)))
    assert status in (0, 1)
    assert ran == sorted(_BASE + extra)


def test_a_table_report_does_not_import_json():
    assert _last_json(_python(_run_main(_CHECK_CLASS, "'json' in sys.modules"))) == [0, False]


def test_main_freezes_the_heap_it_imported():
    code = _run_main(_CHECK_CLASS, "__import__('gc').get_freeze_count()")
    status, frozen = _last_json(_python(code))
    assert status == 0 and frozen > 0


def test_run_never_freezes_and_main_does(monkeypatch, capsys):
    from hhcheck import cli
    before = gc.get_freeze_count()
    try:
        assert cli.run(_CHECK_CLASS) == 0
        assert gc.get_freeze_count() == before
        monkeypatch.setattr(sys, "argv", ["hhcheck", *_CHECK_CLASS])
        with pytest.raises(SystemExit):
            cli.main()
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    out = capsys.readouterr().out
    assert out.count("class-001") == 2


_THREADS = """
import json, sys, threading
import hhcheck

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(16)
got = {"suite": [], "bounds": []}
errors = []

def first_touch(key):
    barrier.wait()
    try:
        if key == "suite":
            got[key].append(hhcheck.suite.build_suite)
        else:
            from hhcheck.bounds import verify
            got[key].append(verify)
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_touch, args=(key,))
           for key in ("suite", "bounds") for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
expected = {"suite": hhcheck.suite.build_suite, "bounds": hhcheck.bounds.verify}
print(json.dumps({"errors": errors,
                  "same": {k: sum(v is expected[k] for v in got[k]) for k in got}}))
"""


@pytest.mark.parametrize("run", range(3))
def test_first_touch_from_many_threads_gets_the_loaded_object(run):
    # 8 threads touch hhcheck.suite.build_suite and 8 import hhcheck.bounds'
    # verify, all behind one barrier, in a process where neither module ran
    assert _last_json(_python(_THREADS)) == {"errors": [], "same": {"suite": 8, "bounds": 8}}


_FAILED_LOAD = """
import json, sys
import hhcheck

mod = sys.modules["hhcheck.means"]
loader = vars(mod)["__loader__"]

def broken(module):
    module.half_done = True
    raise RuntimeError("load failed")

loader.exec_module = broken
raised = []
for touch in (lambda: hhcheck.mean, lambda: exec("from hhcheck.means import mean", {})):
    try:
        touch()
    except RuntimeError as exc:
        raised.append(str(exc))
left = sorted(k for k in ("__spec__", "__builtins__", "half_done", "mean") if k in vars(mod))
del loader.exec_module
from hhcheck.means import mean
print(json.dumps({"raised": raised, "left": left,
                  "loaded": mean is hhcheck.mean is vars(mod)["mean"]}))
"""


def test_a_failed_load_raises_and_leaves_the_module_unexecuted():
    assert _last_json(_python(_FAILED_LOAD)) == {
        "raised": ["load failed", "load failed"], "left": [], "loaded": True}


def test_every_public_name_resolves_in_a_fresh_process():
    code = ("import json, sys, hhcheck\n"
            "listed = set(hhcheck.__all__) <= set(dir(hhcheck))\n"
            f"ran_after_dir = {_RAN}\n"
            "ns = {}\n"
            "exec('from hhcheck import *', ns)\n"
            "bound = sorted(set(ns) & set(hhcheck.__all__))\n"
            "same = all(ns[n] is getattr(hhcheck, n) for n in hhcheck.__all__)\n"
            "print(json.dumps([listed, ran_after_dir, len(hhcheck.__all__), len(bound), same]))\n")
    assert _last_json(_python(code)) == [True, [], 78, 78, True]


def test_the_package_imports_only_the_standard_library():
    """No runtime dependency: every module under src/hhcheck imports only
    standard-library modules and hhcheck itself, and pyproject.toml lists no
    dependency."""
    paths = sorted((ROOT / "src" / "hhcheck").rglob("*.py"))
    assert ROOT / "src" / "hhcheck" / "expr.py" in paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: hhcheck itself
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "hhcheck", (path.name, name)
    assert tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"] == []


def test_no_function_imports_a_package_module():
    """The package registry is the one deferral mechanism: a module binds the
    package's modules at its top, unexecuted, and a function reaches them by
    attribute. A function may import the standard library (json in
    emit_report)."""
    for path in sorted((ROOT / "src" / "hhcheck").rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["hhcheck" if node.level else node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    assert name.partition(".")[0] != "hhcheck", (path.name, fn.lineno, name)


def test_every_public_name_resolves_here():
    assert len(hhcheck.__all__) == len(set(hhcheck.__all__)) == 78
    for name in hhcheck.__all__:
        assert getattr(hhcheck, name) is vars(hhcheck)[name]
    assert set(hhcheck.__all__) <= set(dir(hhcheck))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        hhcheck.nonexistent
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        hhcheck.bounds.nonexistent


@pytest.mark.parametrize("name, paths", [
    (name, ("records", "suite")) for name in
    ("CaseRecord", "SuiteReport", "format_params", "verdict", "bound_row", "quad_row")
] + [
    (name, ("records", "bounds")) for name in
    ("FIRST_DERIVATIVE_RULES", "SECOND_DERIVATIVE_RULES", "RULE_IDS", "HOLDER_RULES")
] + [
    (name, ("means", "suite")) for name in
    ("mean_chain_rows", "lp_monotone_row", "proposition_rows")
] + [
    (name, ("base", "convexity")) for name in
    ("within", "relative_slack", "SENSE_PARAMS", "SENSES")
] + [
    (name, ("base", "kernels")) for name in ("beta", "check_holder_exponent")
])
def test_a_moved_name_is_one_object_at_its_old_and_new_path(name, paths):
    new, old = (getattr(hhcheck, p) for p in paths)
    assert getattr(new, name) is getattr(old, name)
    assert name in new.__all__ and name in old.__all__
    if name in hhcheck.__all__:
        assert getattr(hhcheck, name) is getattr(new, name)


def test_a_bound_instance_unpickles_where_bounds_has_not_run():
    inst = BoundInstance("T2", parse("exp(x)"), 0.5, 1.5,
                         ConvexityClass("h_alpha_m", alpha=0.5, m=0.9), HolderPair.from_p(2.0))
    code = ("import json, pickle, sys, hhcheck\n"
            "before = '__builtins__' in vars(sys.modules['hhcheck.bounds'])\n"
            f"inst = pickle.loads(bytes.fromhex({pickle.dumps(inst).hex()!r}))\n"
            "print(json.dumps([before, repr(inst), type(inst) is hhcheck.BoundInstance]))\n")
    assert _last_json(_python(code)) == [False, repr(inst), True]


def test_values_unpickle_where_kernels_and_means_have_not_run():
    from hhcheck import MeanKind, PropositionInstance
    values = [HolderPair.from_p(3.0), MeanKind("Lp", 2.0),
              PropositionInstance("P4", 1.0, 2.0, 2.0, n=3)]
    code = ("import json, pickle, sys, hhcheck\n"
            "before = [n for n in ('kernels', 'means')"
            " if '__builtins__' in vars(sys.modules['hhcheck.' + n])]\n"
            f"values = pickle.loads(bytes.fromhex({pickle.dumps(values).hex()!r}))\n"
            "print(json.dumps([before, [repr(v) for v in values],"
            " [type(v).__name__ for v in values]]))\n")
    assert _last_json(_python(code)) == [
        [], [repr(v) for v in values], ["HolderPair", "MeanKind", "PropositionInstance"]]


@pytest.mark.parametrize("name, old", [("Value", "expr"), ("_beta_root", "kernels")])
def test_an_unlisted_name_moved_to_base_keeps_its_old_path(name, old):
    assert getattr(hhcheck.base, name) is getattr(getattr(hhcheck, old), name)


def test_the_tracer_restores_every_package_name():
    # The tracer rebinds a wrapped function wherever a module binds it, the
    # package included, and puts the original back when it is uninstalled.
    # It is installed before any public name is looked up, so a name must be
    # in the package's namespace by then, or its wrapper would stay there.
    code = ("import importlib.util, json, sys, hhcheck\n"
            "spec = importlib.util.spec_from_file_location("
            f"'tracer', {str(ROOT / 'perfbench' / 'tracer.py')!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "home = {a: m for m, a, _ in tracer.SPAN_TARGETS if a in hhcheck.__all__}\n"
            "names, owner = list(home), lambda n: sys.modules[home[n]]\n"
            "tr = tracer.Tracer()\n"
            "tr.install()\n"
            "during = {n: getattr(hhcheck, n) for n in names}\n"
            "same_during = all(during[n] is getattr(owner(n), n) for n in names)\n"
            "tr.uninstall()\n"
            "restored = all(getattr(hhcheck, n) is getattr(owner(n), n) is not during[n]"
            " for n in names)\n"
            "print(json.dumps([len(names), same_during, restored]))\n")
    assert _last_json(_python(code)) == [15, True, True]
