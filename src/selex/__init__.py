"""Constrained conditional maximum likelihood for rank-selected normal means."""

from .estimator import (
    CcmleResult,
    MaxIterationsExceeded,
    ObservedSample,
    RootBracketFailure,
    ccmle,
    ccmle_p2,
    conditional_log_likelihood,
    project_monotone,
)
from .experiments import (
    BootstrapConfig,
    MseConfig,
    ResultTable,
    export_results,
    run_bootstrap_ci,
    run_mse,
)
from .ordering import (
    ConvergenceFailure,
    MeanConfig,
    OrderingProb,
    UnderflowWarning,
    grad_log_ordering_probability,
    inverse_mills,
    log_ordering_probability,
    mc_ordering_probability,
    ordering_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "CcmleResult",
    "ConvergenceFailure",
    "MaxIterationsExceeded",
    "MeanConfig",
    "MseConfig",
    "ObservedSample",
    "OrderingProb",
    "ResultTable",
    "RootBracketFailure",
    "UnderflowWarning",
    "ccmle",
    "ccmle_p2",
    "conditional_log_likelihood",
    "export_results",
    "grad_log_ordering_probability",
    "inverse_mills",
    "log_ordering_probability",
    "mc_ordering_probability",
    "ordering_probability",
    "project_monotone",
    "run_bootstrap_ci",
    "run_mse",
]
