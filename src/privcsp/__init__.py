"""Differentially private approximation algorithms for Max-CSP, Max-kXOR
and Max-Cut, with exact oracles, instance generators, and an empirical
privacy auditor."""

from .csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
    WeightedGraph,
    associated_advantage,
    degrees,
    derivative_q,
    eval_value,
    g_value,
    is_triangle_free,
    lambda_j,
    mu,
)
from .dp_mechanisms import (
    RngStream,
    em_over_assignments_batch,
    exponential_mechanism,
    fair_signs,
    noisy_above,
    randomized_response,
    sample_discrete_laplace,
)

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "CspInstance",
    "WeightedGraph",
    "ResourceCapError",
    "RngStream",
    "eval_value",
    "associated_advantage",
    "g_value",
    "mu",
    "is_triangle_free",
    "degrees",
    "derivative_q",
    "lambda_j",
    "fair_signs",
    "sample_discrete_laplace",
    "noisy_above",
    "randomized_response",
    "exponential_mechanism",
    "em_over_assignments_batch",
    "__version__",
]
