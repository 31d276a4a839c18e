"""Exact error probabilities, analytic bounds, and experiment tooling for
output-coded ensemble classification."""

from .bounds import (
    BoundInputs,
    BoundReport,
    chernoff_bound,
    chernoff_lambda,
    chernoff_mu_bound,
    evaluate_bounds,
    feller_bound,
    gs_bound,
    kz_bound,
    kz_value,
    omega_factor,
)
from .code_matrix import (
    CodeMatrix,
    build_code_matrix,
    nearest_rows,
    sylvester_hadamard,
)
from .errors import DomainError, EcocError, ModelError, ParseError
from .prob_engine import (
    DependenceModel,
    ErrorProfile,
    ExchangeableModel,
    Independent,
    PairModel,
    bahadur_range,
    enumerate_outcomes,
    valid_correlation_range,
)
from .simulator import (
    DEFAULT_SEED,
    SimConfig,
    SimResult,
    mc_decode_error,
    mc_threshold_error,
)

__all__ = [
    "BoundInputs",
    "BoundReport",
    "CodeMatrix",
    "DEFAULT_SEED",
    "DependenceModel",
    "DomainError",
    "EcocError",
    "ErrorProfile",
    "ExchangeableModel",
    "Independent",
    "ModelError",
    "PairModel",
    "ParseError",
    "SimConfig",
    "SimResult",
    "bahadur_range",
    "build_code_matrix",
    "chernoff_bound",
    "chernoff_lambda",
    "chernoff_mu_bound",
    "enumerate_outcomes",
    "evaluate_bounds",
    "feller_bound",
    "gs_bound",
    "kz_bound",
    "kz_value",
    "mc_decode_error",
    "mc_threshold_error",
    "nearest_rows",
    "omega_factor",
    "sylvester_hadamard",
    "valid_correlation_range",
]

__version__ = "0.1.0"
