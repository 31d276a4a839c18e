"""Exact error probabilities, analytic bounds, and experiment tooling for
output-coded ensemble classification.

Importing the package imports none of its modules: each public name is
imported from its home module on first access (PEP 562), so a command that
uses the probability engine alone never loads the simulator or the fold
tools.  A dependency that is missing surfaces at that first access.
"""

import importlib

# Each public name and the module that defines it, sorted by name.
_HOME = {
    "BoundInputs": "bounds",
    "BoundReport": "bounds",
    "CodeMatrix": "code_matrix",
    "DEFAULT_SEED": "simulator",
    "DependenceModel": "prob_engine",
    "DomainError": "errors",
    "EcocError": "errors",
    "ErrorProfile": "prob_engine",
    "ExchangeableModel": "prob_engine",
    "Independent": "prob_engine",
    "ModelError": "errors",
    "PairModel": "prob_engine",
    "ParseError": "errors",
    "SimConfig": "simulator",
    "SimResult": "simulator",
    "bahadur_range": "bounds",
    "build_code_matrix": "code_matrix",
    "chernoff_bound": "bounds",
    "chernoff_lambda": "bounds",
    "chernoff_mu_bound": "bounds",
    "enumerate_outcomes": "prob_engine",
    "evaluate_bounds": "bounds",
    "exact_decode_error": "prob_engine",
    "feller_bound": "bounds",
    "gs_bound": "bounds",
    "kz_bound": "bounds",
    "kz_value": "bounds",
    "mc_decode_error": "simulator",
    "mc_threshold_error": "simulator",
    "nearest_rows": "code_matrix",
    "omega_factor": "bounds",
    "sylvester_hadamard": "code_matrix",
    "valid_correlation_range": "bounds",
}
# Submodules that stay attributes of a bare `import ecoc`, for code that
# reaches them as ecoc.prob_engine and the like.
_MODULES = ("bounds", "code_matrix", "errors", "prob_engine", "simulator")

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """A public name, imported from its home module and bound here so that
    later lookups skip this function, or a module of the package."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
