"""Finite-sample Bell/CHSH toolkit.

Simulates and contrasts the two statistics that get conflated in Bell-test
discussions: the counterfactual mean B computed from N x 4 tables of jointly
existing outcomes (bounded by 2 in every finite sample), and the four-context
sum S estimated from four incompatible experiments (bounded by 4 a priori,
2*sqrt(2) quantum-mechanically, and able to exceed 2 by chance at the local
boundary).  Includes local-hidden-variable and quantum samplers, behavior
objects with no-signaling diagnostics, joint-distribution feasibility via a
small exact LP, violation-frequency studies, and a Gaussian-pointer model of
per-pair weak "B-values".
"""

from .core import (
    CANONICAL_CONTEXTS,
    CHSH_SIGNS,
    Context,
    ContextDataset,
    CounterfactualTable,
    ExperimentBundle,
    b_statistic,
    correlation,
    project_bundle,
    project_context,
    row_c_values,
    s_statistic,
)
from .errors import BellSimError, ConfigError, DomainError, NumericError

__version__ = "0.1.0"
