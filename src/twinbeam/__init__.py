"""Counting statistics of multimode twin-beam light.

Closed-form joint and conditional photodetection statistics, entropy-based
nonGaussianity of conditionally prepared states, a Monte Carlo oracle, and
moment/ML parameter inference.
"""

from .conditional import (
    ConditionalMixture,
    ConditionalState,
    SelectionRule,
    build_conditional,
    cond_count_dist,
    conditional_mean,
    povm_count_dist,
)
from .core import (
    JointDistribution,
    PhotoCountDistribution,
    joint_prob,
    joint_table,
    log_marginal,
    marginal,
    marginal_dist,
)
from .errors import (
    ConditioningError,
    ConvergenceError,
    DegenerateRecordError,
    InfeasibleConstraintError,
    ParameterError,
    TableSizeError,
    TailBoundError,
    TwinbeamError,
    VerificationError,
)
from .estimation import EstimationReport, estimate_params, fidelity, noise_reduction
from .figures import FIGURE_IDS, reproduce
from .nongauss import (
    NonGaussReport,
    SweepRow,
    entropy_conditional,
    entropy_tail_bound,
    nongauss_report,
    solve_mean_counts,
    sweep,
    thermal_entropy,
)
from .params import ExperimentParams
from .sampling import ShotRecord, histogram, sample_run

__all__ = [
    "ExperimentParams",
    "PhotoCountDistribution",
    "JointDistribution",
    "ConditionalState",
    "ConditionalMixture",
    "SelectionRule",
    "NonGaussReport",
    "SweepRow",
    "ShotRecord",
    "EstimationReport",
    "joint_prob",
    "joint_table",
    "marginal",
    "marginal_dist",
    "log_marginal",
    "conditional_mean",
    "build_conditional",
    "cond_count_dist",
    "povm_count_dist",
    "thermal_entropy",
    "entropy_conditional",
    "entropy_tail_bound",
    "nongauss_report",
    "solve_mean_counts",
    "sweep",
    "sample_run",
    "histogram",
    "noise_reduction",
    "estimate_params",
    "fidelity",
    "reproduce",
    "FIGURE_IDS",
    "TwinbeamError",
    "ParameterError",
    "ConvergenceError",
    "TableSizeError",
    "ConditioningError",
    "InfeasibleConstraintError",
    "TailBoundError",
    "VerificationError",
    "DegenerateRecordError",
]

__version__ = "0.1.0"
