"""Numerical verification of Hermite-Hadamard-type deviation bounds for
generalized convex functions, special-mean inequalities, and a priori error
bounds for composite quadrature rules.

Importing the package runs none of its modules. Each is registered in
`sys.modules` unexecuted and runs, under one lock, on its first missed
attribute lookup or import (an import reads `__spec__`, which the module
gains only when it runs); its public names are then copied here.
"""

import sys
import threading
from importlib.util import find_spec, module_from_spec

_PUBLIC = {module: names.split() for module, names in {  # module -> the names exported from it
    "_version": "__version__",
    "errors": "DomainError NonConvergenceError ParseError PreconditionError",
    "base": "SENSES beta",
    "expr": "Node Const Var Add Sub Mul Div Pow Exp Ln Abs Neg DomainInterval parse to_text "
            "evaluate compile_fn compile_interval differentiate",
    "convexity": "HFunction ConvexityClass MembershipReport MembershipProof Witness "
                 "evaluate_h check_membership",
    "kernels": "KERNEL_KINDS HolderPair IntegralResult KernelMoment integrate_adaptive "
               "kernel_moment",
    "records": "RULE_IDS FIRST_DERIVATIVE_RULES SECOND_DERIVATIVE_RULES HOLDER_RULES CaseRecord "
               "SuiteReport",
    "bounds": "EMPIRICAL_RULES BoundInstance BoundReport hh_chain lemma1_residual "
              "lemma2_residual midpoint_deviation trapezoid_deviation bound_first_derivative "
              "bound_second_derivative verify hypothesis_function hypothesis_domain",
    "means": "MEAN_TAGS PROPOSITION_IDS MeanKind mean check_mean_chain lp_monotonicity_check "
             "PropositionInstance VerificationOutcome proposition_check",
    "quadrature": "Partition uniform_partition midpoint_rule trapezoid_rule error_bound_midpoint "
                  "error_bound_trapezoid QuadratureReport certified_integrate",
    "suite": "CATALOG QUAD_FUNCTIONS build_suite",
}.items()}
__all__ = [name for names in _PUBLIC.values() for name in names]
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
_LOCK = threading.RLock()  # held by the thread that runs a deferred module


def _defer(module: str):
    spec = find_spec(f"{__name__}.{module}")
    mod = module_from_spec(spec)
    del mod.__spec__

    def load(attr):
        with _LOCK:  # another thread waits here; this one re-enters and sees a partial module
            if "__spec__" not in vars(mod):  # neither run nor running
                mod.__spec__ = spec
                try:
                    spec.loader.exec_module(mod)
                except BaseException:
                    vars(mod).clear()  # unexecuted again, so the next touch runs it anew
                    vars(mod).update(unrun)
                    raise
                del mod.__getattr__
                globals().update((name, vars(mod)[name]) for name in _PUBLIC[module])
        if attr not in vars(mod):
            raise AttributeError(f"module {mod.__name__!r} has no attribute {attr!r}")
        return vars(mod)[attr]

    mod.__getattr__ = load
    unrun = dict(vars(mod))
    sys.modules[spec.name] = globals()[module] = mod


for _module in _PUBLIC:
    _defer(_module)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
